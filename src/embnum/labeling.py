"""Semantic labeling engine and benchmark protocol.

A FeatureStore indexes labeled attributes under one scoring method:
  embnum        - precomputed embeddings, queries ranked by Euclidean distance
  semantictyper - raw values, ranked by ascending KS statistic
  dsl           - raw values, ranked by a trained logistic combination of
                  KS / MW / range-overlap features

The benchmark holds out each source in turn and labels it against every
non-empty subset of the remaining sources, timing only the labeling side
(query feature extraction included, store construction excluded).  An
experiment in which no held-out query's label is in the subset store has
nothing to score and is left out of the report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _serial
from .baselines import (LogisticModel, PackedColumns, _sigmoid, dsl_model_from_doc,
                        dsl_model_to_doc, dsl_train, features_from_statistics,
                        make_training_pairs)
# perfbench/spans.py patches these by their labeling names, so keep them bound
from .baselines import ks_statistic, pair_features  # noqa: F401
from .dataset import Dataset, NumericAttribute, dataset_fingerprint
from .embnet import Model, embed, model_frame, model_from_frame, preprocess
from .errors import (EmptyInput, EmptyLabeledData, EmptyRanking, EmptyStore,
                     InvalidSpec, MalformedDslModel, MalformedStore, MissingModel,
                     NoQueries, TooFewSources)
from .metric import distances

STORE_MAGIC = b"EMBS"
STORE_VERSION = 2

METHODS = ("embnum", "semantictyper", "dsl")
EMBED_CHUNK = 512  # columns per embed() call


@dataclass(frozen=True)
class StoreRecord:
    label: str
    source: str
    feature: np.ndarray  # (k,) float32 embedding, or raw float64 values


@dataclass(frozen=True)
class FeatureStore:
    """An immutable store, so the arrays derived from its records are
    computed once, on first use."""

    method: str
    records: tuple[StoreRecord, ...]
    model: Model | None = None               # embnum query-side embedder
    dsl_model: LogisticModel | None = None   # dsl feature weights

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidSpec(f"unknown method {self.method!r}; expected one of {METHODS}")
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def labels(self) -> list[str]:
        return [r.label for r in self.records]

    @cached_property
    def embedding_matrix(self) -> np.ndarray:
        """(n, k) float64 stack of stored embeddings (embnum only)."""
        return np.stack([r.feature for r in self.records]).astype(np.float64)

    @cached_property
    def packed_columns(self) -> PackedColumns:
        """Stored raw values, presorted once (semantictyper and dsl only)."""
        return PackedColumns([r.feature for r in self.records])

    def subset(self, keep: np.ndarray) -> FeatureStore:
        """The records where the boolean mask `keep` is set, under this
        store's scorers.  A raw-value subset takes its presorted columns
        from this store's pack instead of sorting them again."""
        sub = FeatureStore(self.method, [r for r, k in zip(self.records, keep) if k],
                           self.model, self.dsl_model)
        if self.method != "embnum":
            sub.__dict__["packed_columns"] = self.packed_columns.take(keep)  # fills the cache
        return sub

    @cached_property
    def tie_break(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, labels) arrays that break score ties, as lexsort keys."""
        return np.array([r.source for r in self.records]), np.array(self.labels)


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
    """Build the searchable store: one record per labeled attribute.

    A dsl store given no weights fits them on the labeled data's own pairs;
    pass weights trained elsewhere to keep scoring out of sample."""
    if not labeled.attributes:
        raise EmptyLabeledData("no labeled attributes to index")
    if method == "embnum" and model is None:
        raise MissingModel("embnum indexing requires a trained model")
    if method == "dsl" and dsl_model is None:
        dsl_model = dsl_train(make_training_pairs(labeled))
    attrs = labeled.attributes
    features = _featurize(method, model, [a.values for a in attrs])
    records = [StoreRecord(a.label, a.source, f) for a, f in zip(attrs, features)]
    return FeatureStore(method=method, records=records, model=model, dsl_model=dsl_model)


def _featurize(method: str, model: Model | None, columns: list) -> list[np.ndarray]:
    """Per-column features: float32 embeddings, computed as one batch in
    chunks of EMBED_CHUNK columns, for embnum; raw float64 values otherwise.
    A column holding NaN or an infinity is EmptyInput under every method."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if not all(np.isfinite(c).all() for c in columns):
        raise EmptyInput("value list contains non-finite entries")
    if method != "embnum":
        return columns
    vectors = [preprocess(c, model.arch) for c in columns]
    return [row for i in range(0, len(vectors), EMBED_CHUNK)
            for row in embed(model, np.stack(vectors[i : i + EMBED_CHUNK]))]


def _order(store: FeatureStore, feature: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every record against one featurized query: (record indices best first,
    display scores).  Keys ascend; key ties break by (label, source)."""
    if store.method == "embnum":
        keys = display = distances(store.embedding_matrix, feature)
    else:
        ks, mw, jaccard = store.packed_columns.statistics(feature)
        if store.method == "semantictyper":
            keys, display = ks, 1.0 - ks
        else:
            logits = store.dsl_model.logits(features_from_statistics(ks, mw, jaccard))
            keys, display = -logits, _sigmoid(logits)
    sources, labels = store.tie_break
    return np.lexsort((sources, labels, keys)), display


def rank(store: FeatureStore, query) -> RankingList:
    """Total ordering of every store record against one query."""
    if not store.records:
        raise EmptyStore("cannot rank against an empty store")
    values = query.values if isinstance(query, NumericAttribute) else query
    [feature] = _featurize(store.method, store.model, [values])
    order, display = _order(store, feature)
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

    Queries whose label the store lacks are counted as excluded.  The rest
    go through the same two steps as rank(): one _featurize() call for the
    whole batch (one embedding batch for embnum, the raw values otherwise),
    then _order() per query, so every rank equals rank()'s first-correct
    position.  The clock covers those two steps only; a fresh store's
    embedding matrix or presorted columns are built before it starts.
    """
    if not queries:
        raise NoQueries("no query attributes")
    if not store.records:
        raise EmptyStore("cannot label against an empty store")
    store_labels = set(store.labels)
    kept = [a for a in queries if a.label in store_labels]
    labels = store.tie_break[1]
    # building the store-side array is store construction, not labeling
    _ = store.embedding_matrix if store.method == "embnum" else store.packed_columns

    t0 = time.perf_counter()
    features = _featurize(store.method, store.model, [a.values for a in kept])
    ranks = []
    for attr, feature in zip(kept, features):
        order, _ = _order(store, feature)
        ranks.append(int(np.flatnonzero(labels[order] == attr.label)[0]) + 1)
    seconds = time.perf_counter() - t0
    return LabelingResult(ranks=ranks, excluded=len(queries) - len(kept), seconds=seconds)


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

    The dataset is indexed once and every subset store takes its records,
    presorted raw columns and scorers from that store, dsl weights fitted
    there included (indexing is excluded from labeling time by contract);
    the query side is re-featurized inside every timed experiment.
    Experiments with no scorable query, and labeled-source counts with no
    scored experiment, are left out; NoQueries is raised when no experiment
    can be scored.
    """
    d = len(dataset.sources)
    if d < 2:
        raise TooFewSources(f"benchmark needs >= 2 sources, got {d}")
    full = index_labeled(dataset, method, model=model, dsl_model=dsl_model)

    sources = sorted(dataset.sources)
    outcomes: list[tuple[int, float, float]] = []
    for held in sources:
        queries = sorted(dataset.by_source(held), key=lambda a: a.label)
        others = [s for s in sources if s != held]
        for mask in range(1, 2 ** len(others)):
            subset = [others[i] for i in range(len(others)) if mask >> i & 1]
            chosen = set(subset)
            store = full.subset(np.array([r.source in chosen for r in full.records]))
            result = label_queries(store, queries)
            if result.ranks:
                outcomes.append((len(subset), mrr(result.ranks), result.seconds))
    if not outcomes:
        raise NoQueries("no held-out query's label is in any labeled subset")

    per_count = []
    for count in range(1, d):
        rows = [(m, s) for c, m, s in outcomes if c == count]
        if rows:
            per_count.append(PerCount(
                labeled_sources=count,
                mean_mrr=float(np.mean([m for m, _ in rows])),
                mean_seconds=float(np.mean([s for _, s in rows])),
                experiments=len(rows),
            ))
    return BenchmarkReport(method=method,
                           dataset_sha256=dataset_fingerprint(dataset),
                           per_count=tuple(per_count),
                           total_experiments=len(outcomes))


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


# ---------------------------------------------------------------------------
# store persistence


def save_store(store: FeatureStore, path: Path) -> None:
    """One frame per store.  An embnum store holds its model's checkpoint
    manifest under "model", the model's arrays under a "model." prefix and
    one (n, k) "embeddings" array; a raw store holds every record's values
    end to end in one "values" array, with each record's row count in
    record_meta."""
    records = store.records
    meta: dict = {
        "kind": "feature-store",
        "method": store.method,
        "record_meta": [{"label": r.label, "source": r.source} for r in records],
    }
    if store.method == "embnum":
        meta["model"], model_arrays = model_frame(store.model)
        arrays = {f"model.{name}": a for name, a in model_arrays.items()}
        arrays["embeddings"] = np.stack([r.feature for r in records]).astype(np.float32)
    else:
        for m, r in zip(meta["record_meta"], records):
            m["rows"] = len(r.feature)
        arrays = {"values": np.concatenate([np.empty(0), *(r.feature for r in records)])}
        if store.method == "dsl":
            meta["dsl_model"] = dsl_model_to_doc(store.dsl_model)
    _serial.atomic_write_bytes(Path(path), _serial.pack_framed(
        STORE_MAGIC, STORE_VERSION, meta, arrays))


def load_store(path: Path) -> FeatureStore:
    manifest, arrays = _serial.unpack_framed(Path(path).read_bytes(),
                                             STORE_MAGIC, STORE_VERSION)
    try:
        method = manifest["method"]
        rec_meta = manifest["record_meta"]
        if not isinstance(rec_meta, list) or not all(isinstance(m, dict) for m in rec_meta):
            raise MalformedStore(f"{path}: record_meta is not a list of records")
        model = dsl_model = None
        if method == "embnum":
            model = model_from_frame(manifest["model"], {
                name.removeprefix("model."): a
                for name, a in arrays.items() if name.startswith("model.")})
            features = arrays["embeddings"]
            if features.ndim != 2 or features.shape[1] != model.arch.k:
                raise MalformedStore(f"{path}: embeddings have shape {features.shape}, "
                                     f"but the model embeds to width {model.arch.k}")
        else:
            rows = [m["rows"] for m in rec_meta]
            values = arrays["values"]
            if not all(type(n) is int and n >= 0 for n in rows):
                raise MalformedStore(f"{path}: record row counts must be non-negative integers")
            if sum(rows) != len(values):
                raise MalformedStore(f"{path}: record row counts sum to {sum(rows)}, "
                                     f"but the store holds {len(values)} values")
            features = [values[end - n : end] for n, end in zip(rows, np.cumsum(rows))]
            if method == "dsl":
                try:
                    dsl_model = dsl_model_from_doc(manifest["dsl_model"])
                except MalformedDslModel as exc:
                    raise MalformedStore(f"{path}: {exc}") from None
        if len(features) != len(rec_meta):
            raise MalformedStore(f"{path}: {len(rec_meta)} records, "
                                 f"but {len(features)} stored embeddings")
        records = [StoreRecord(m["label"], m["source"], f) for m, f in zip(rec_meta, features)]
    except KeyError as exc:
        raise MalformedStore(f"{path}: store lacks {exc.args[0]!r}") from None
    return FeatureStore(method=method, records=records, model=model, dsl_model=dsl_model)


def export_embeddings_csv(model: Model, dataset: Dataset) -> str:
    """CSV of every attribute's embedding: label, source, e0..e{k-1}."""
    header = "label,source," + ",".join(f"e{i}" for i in range(model.arch.k))
    attrs = sorted(dataset.attributes, key=lambda a: (a.label, a.source))
    embs = _featurize("embnum", model, [a.values for a in attrs])
    lines = [header] + [f"{a.label},{a.source}," + ",".join(repr(float(v)) for v in e)
                        for a, e in zip(attrs, embs)]
    return "\n".join(lines) + "\n"
