"""Semantic labeling engine and benchmark protocol.

A FeatureStore indexes labeled attributes under one scoring method:
  embnum        - precomputed embeddings, queries ranked by Euclidean distance
  semantictyper - raw values, ranked by ascending KS statistic
  dsl           - raw values, ranked by a trained logistic combination of
                  KS / MW / range-overlap features

The benchmark holds out each source in turn and labels it against every
non-empty subset of the remaining sources, timing only the labeling side
(query feature extraction included, store construction excluded).
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _serial
from .baselines import (LogisticModel, PackedColumns, _sigmoid, dsl_train,
                        features_from_statistics, make_training_pairs)
# perfbench/spans.py patches these by their labeling names, so keep them bound
from .baselines import ks_statistic, pair_features  # noqa: F401
from .dataset import Dataset, NumericAttribute, dataset_fingerprint
from .embnet import Model, embed, model_from_bytes, model_to_bytes, preprocess
from .errors import (EmptyLabeledData, EmptyRanking, EmptyStore, InvalidSpec,
                     MalformedStore, MissingModel, NoQueries, TooFewSources)

STORE_MAGIC = b"EMBS"
STORE_VERSION = 1

METHODS = ("embnum", "semantictyper", "dsl")


@dataclass(frozen=True)
class StoreRecord:
    label: str
    source: str
    feature: np.ndarray  # (k,) float32 embedding, or raw float64 values


@dataclass
class FeatureStore:
    method: str
    records: list[StoreRecord]
    model: Model | None = None               # embnum query-side embedder
    dsl_model: LogisticModel | None = None   # dsl feature weights

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidSpec(f"unknown method {self.method!r}; expected one of {METHODS}")

    @property
    def labels(self) -> list[str]:
        return [r.label for r in self.records]

    def embedding_matrix(self) -> np.ndarray:
        """(n, k) float64 stack of stored embeddings (embnum only)."""
        if self._matrix is None:
            self._matrix = np.stack([r.feature for r in self.records]).astype(np.float64)
        return self._matrix

    def packed_columns(self) -> PackedColumns:
        """Stored raw values, presorted once (semantictyper and dsl only)."""
        if self._columns is None:
            self._columns = PackedColumns([r.feature for r in self.records])
        return self._columns


def _set_records(store: FeatureStore, records: list[StoreRecord]) -> None:
    store._records = records
    store._matrix = None
    store._columns = None


# Assigned after the class body so the dataclass keeps `records` as a plain
# required field; assigning it drops both caches built from the old records.
FeatureStore.records = property(lambda store: store._records, _set_records)


@dataclass(frozen=True)
class RankEntry:
    label: str
    source: str
    score: float


@dataclass(frozen=True)
class RankingList:
    method: str
    entries: tuple[RankEntry, ...]


def index_labeled(labeled: Dataset, method: str, model: Model | None = None,
                  dsl_model: LogisticModel | None = None) -> FeatureStore:
    """Build the searchable store: one record per labeled attribute."""
    if not labeled.attributes:
        raise EmptyLabeledData("no labeled attributes to index")
    if method == "embnum":
        if model is None:
            raise MissingModel("embnum indexing requires a trained model")
        vectors = np.stack([preprocess(a.values, model.arch) for a in labeled.attributes])
        embs = _embed_chunked(model, vectors)
        records = [StoreRecord(a.label, a.source, embs[i])
                   for i, a in enumerate(labeled.attributes)]
        return FeatureStore(method=method, records=records, model=model)
    if method == "dsl" and dsl_model is None:
        raise MissingModel("dsl indexing requires a trained logistic model")
    records = [StoreRecord(a.label, a.source, np.asarray(a.values, dtype=np.float64))
               for a in labeled.attributes]
    return FeatureStore(method=method, records=records, dsl_model=dsl_model)


def _embed_chunked(model: Model, vectors: np.ndarray, chunk: int = 512) -> np.ndarray:
    outs = [embed(model, vectors[i : i + chunk]) for i in range(0, len(vectors), chunk)]
    return np.concatenate(outs, axis=0)


def _query_values(query) -> np.ndarray:
    if isinstance(query, NumericAttribute):
        return query.values
    return np.asarray(query, dtype=np.float64)


def _order_keys(store: FeatureStore, keys: np.ndarray) -> np.ndarray:
    """Ascending-key order; key ties broken by (label, source)."""
    labels = np.array([r.label for r in store.records])
    sources = np.array([r.source for r in store.records])
    return np.lexsort((sources, labels, keys))


def _score_one(store: FeatureStore, values: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Returns (sort keys ascending-is-better, display scores)."""
    if store.method == "embnum":
        q = embed(store.model, preprocess(values, store.model.arch)).astype(np.float64)
        diff = store.embedding_matrix() - q[None, :]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return dist, dist
    ks, mw, jaccard = store.packed_columns().statistics(values)
    if store.method == "semantictyper":
        return ks, 1.0 - ks
    logits = store.dsl_model.logits(features_from_statistics(ks, mw, jaccard))
    return -logits, _sigmoid(logits)


def rank(store: FeatureStore, query) -> RankingList:
    """Total ordering of every store record against one query."""
    if not store.records:
        raise EmptyStore("cannot rank against an empty store")
    keys, display = _score_one(store, _query_values(query))
    order = _order_keys(store, keys)
    entries = tuple(
        RankEntry(store.records[i].label, store.records[i].source, float(display[i]))
        for i in order
    )
    return RankingList(method=store.method, entries=entries)


def assign_label(ranking: RankingList) -> str:
    if not ranking.entries:
        raise EmptyRanking("ranking has no entries")
    return ranking.entries[0].label


def rank_of_first_correct(ranking: RankingList, true_label: str) -> int | None:
    for pos, entry in enumerate(ranking.entries, start=1):
        if entry.label == true_label:
            return pos
    return None


def mrr(ranks: list[int]) -> float:
    """Mean reciprocal rank over first-correct positions (1-based)."""
    if not ranks:
        raise NoQueries("MRR needs at least one query")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks are 1-based")
    return float(np.mean([1.0 / r for r in ranks]))


@dataclass
class LabelingResult:
    ranks: list[int]      # first-correct position per included query
    excluded: int         # queries whose label is absent from the store
    seconds: float        # wall-clock labeling time, query featurization included


def label_queries(store: FeatureStore, queries: list[NumericAttribute]
                  ) -> LabelingResult:
    """Label a batch of queries against one store, timing the whole batch.

    Embedding queries are featurized and scored as one vectorized block;
    the statistical scorers take one query at a time, each scored against
    the whole presorted store in one pass.  Both paths order exactly like
    rank().
    """
    if not queries:
        raise NoQueries("no query attributes")
    if not store.records:
        raise EmptyStore("cannot label against an empty store")
    store_labels = set(store.labels)
    labels_arr = np.array([r.label for r in store.records])
    sources_arr = np.array([r.source for r in store.records])

    ranks: list[int] = []
    excluded = 0
    t0 = time.perf_counter()
    if store.method == "embnum":
        qv = np.stack([preprocess(a.values, store.model.arch) for a in queries])
        qe = _embed_chunked(store.model, qv).astype(np.float64)
        mat = store.embedding_matrix()
        diff = qe[:, None, :] - mat[None, :, :]
        dists = np.sqrt(np.einsum("qnk,qnk->qn", diff, diff))
        for qi, attr in enumerate(queries):
            if attr.label not in store_labels:
                excluded += 1
                continue
            order = np.lexsort((sources_arr, labels_arr, dists[qi]))
            hit = np.flatnonzero(labels_arr[order] == attr.label)[0]
            ranks.append(int(hit) + 1)
    else:
        for attr in queries:
            if attr.label not in store_labels:
                excluded += 1
                continue
            keys, _ = _score_one(store, attr.values)
            order = np.lexsort((sources_arr, labels_arr, keys))
            hit = np.flatnonzero(labels_arr[order] == attr.label)[0]
            ranks.append(int(hit) + 1)
    seconds = time.perf_counter() - t0
    return LabelingResult(ranks=ranks, excluded=excluded, seconds=seconds)


# ---------------------------------------------------------------------------
# leave-one-source-out benchmark


@dataclass(frozen=True)
class PerCount:
    labeled_sources: int
    mean_mrr: float
    mean_seconds: float
    experiments: int


@dataclass(frozen=True)
class BenchmarkReport:
    method: str
    dataset_sha256: str
    per_count: tuple[PerCount, ...]
    total_experiments: int


def expected_experiments(d: int) -> int:
    """Every source held out once against every non-empty labeled subset."""
    return d * (2 ** (d - 1) - 1)


def run_benchmark(dataset: Dataset, method: str, model: Model | None = None,
                  dsl_model: LogisticModel | None = None) -> BenchmarkReport:
    """Full leave-one-source-out protocol.

    Store-side features are computed once per attribute and shared across
    subsets (indexing is excluded from labeling time by contract); the
    query side is re-featurized inside every timed experiment.
    """
    d = len(dataset.sources)
    if d < 2:
        raise TooFewSources(f"benchmark needs >= 2 sources, got {d}")
    if method == "embnum" and model is None:
        raise MissingModel("embnum benchmark requires a trained model")
    if method == "dsl" and dsl_model is None:
        # fallback scorer fitted on the dataset's own pairs; pass an
        # externally trained model to avoid the circularity
        dsl_model = dsl_train(make_training_pairs(dataset))

    features: dict[tuple[str, str], np.ndarray] = {}
    if method == "embnum":
        vectors = np.stack([preprocess(a.values, model.arch) for a in dataset.attributes])
        embs = _embed_chunked(model, vectors)
        for i, a in enumerate(dataset.attributes):
            features[(a.source, a.label)] = embs[i]
    else:
        for a in dataset.attributes:
            features[(a.source, a.label)] = np.asarray(a.values, dtype=np.float64)

    sources = sorted(dataset.sources)
    outcomes: list[tuple[int, float, float]] = []
    for held in sources:
        queries = sorted(dataset.by_source(held), key=lambda a: a.label)
        others = [s for s in sources if s != held]
        for mask in range(1, 2 ** len(others)):
            subset = [others[i] for i in range(len(others)) if mask >> i & 1]
            chosen = set(subset)
            records = [
                StoreRecord(a.label, a.source, features[(a.source, a.label)])
                for a in dataset.attributes if a.source in chosen
            ]
            store = FeatureStore(method=method, records=records,
                                 model=model, dsl_model=dsl_model)
            result = label_queries(store, queries)
            outcomes.append((len(subset), mrr(result.ranks), result.seconds))

    per_count = []
    for count in range(1, d):
        rows = [(m, s) for c, m, s in outcomes if c == count]
        per_count.append(PerCount(
            labeled_sources=count,
            mean_mrr=float(np.mean([m for m, _ in rows])),
            mean_seconds=float(np.mean([s for _, s in rows])),
            experiments=len(rows),
        ))
    total = len(outcomes)
    assert total == expected_experiments(d)
    return BenchmarkReport(method=method,
                           dataset_sha256=dataset_fingerprint(dataset),
                           per_count=tuple(per_count),
                           total_experiments=total)


def report_to_json(report: BenchmarkReport) -> str:
    doc = {
        "method": report.method,
        "dataset_sha256": report.dataset_sha256,
        "per_count": [
            {"labeled_sources": pc.labeled_sources, "mean_mrr": pc.mean_mrr,
             "mean_seconds": pc.mean_seconds, "experiments": pc.experiments}
            for pc in report.per_count
        ],
        "total_experiments": report.total_experiments,
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str) -> BenchmarkReport:
    doc = json.loads(text)
    return BenchmarkReport(
        method=doc["method"],
        dataset_sha256=doc["dataset_sha256"],
        per_count=tuple(PerCount(**pc) for pc in doc["per_count"]),
        total_experiments=doc["total_experiments"],
    )


# ---------------------------------------------------------------------------
# store persistence


def save_store(store: FeatureStore, path: Path) -> None:
    meta: dict = {
        "kind": "feature-store",
        "method": store.method,
        "record_meta": [{"label": r.label, "source": r.source} for r in store.records],
    }
    arrays: dict[str, np.ndarray] = {}
    if store.method == "embnum":
        meta["model_b64"] = base64.b64encode(model_to_bytes(store.model)).decode("ascii")
        arrays["embeddings"] = np.stack([r.feature for r in store.records]).astype(np.float32)
    else:
        if store.method == "dsl":
            w = store.dsl_model.weights
            meta["dsl_model"] = [float(w[0]), float(w[1]), float(w[2]),
                                 float(store.dsl_model.bias)]
        for i, r in enumerate(store.records):
            arrays[f"rec{i:06d}"] = np.asarray(r.feature, dtype=np.float64)
    _serial.write_framed(Path(path), STORE_MAGIC, STORE_VERSION, meta, arrays)


def load_store(path: Path) -> FeatureStore:
    manifest, arrays = _serial.read_framed(Path(path), STORE_MAGIC, STORE_VERSION)
    try:
        return _store_from_frame(manifest, arrays)
    except KeyError as exc:
        raise MalformedStore(f"{path}: store lacks {exc.args[0]!r}") from None


def _store_from_frame(manifest: dict, arrays: dict[str, np.ndarray]) -> FeatureStore:
    method = manifest["method"]
    rec_meta = manifest["record_meta"]
    if method == "embnum":
        model = model_from_bytes(base64.b64decode(manifest["model_b64"]))
        embs = arrays["embeddings"]
        records = [StoreRecord(m["label"], m["source"], embs[i])
                   for i, m in enumerate(rec_meta)]
        return FeatureStore(method=method, records=records, model=model)
    dsl_model = None
    if method == "dsl":
        w1, w2, w3, b = manifest["dsl_model"]
        dsl_model = LogisticModel(weights=np.array([w1, w2, w3]), bias=float(b))
    records = [StoreRecord(m["label"], m["source"], arrays[f"rec{i:06d}"])
               for i, m in enumerate(rec_meta)]
    return FeatureStore(method=method, records=records, dsl_model=dsl_model)


def export_embeddings_csv(model: Model, dataset: Dataset) -> str:
    """CSV of every attribute's embedding: label, source, e0..e{k-1}."""
    k = model.arch.k
    header = "label,source," + ",".join(f"e{i}" for i in range(k))
    attrs = sorted(dataset.attributes, key=lambda a: (a.label, a.source))
    vectors = np.stack([preprocess(a.values, model.arch) for a in attrs])
    embs = _embed_chunked(model, vectors)
    lines = [header]
    for i, a in enumerate(attrs):
        vals = ",".join(repr(float(v)) for v in embs[i])
        lines.append(f"{a.label},{a.source},{vals}")
    return "\n".join(lines) + "\n"
