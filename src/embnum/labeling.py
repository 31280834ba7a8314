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

import csv
import io
import json
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _serial
from .baselines import (DSL_WEIGHTS, LogisticModel, PackedColumns, _sigmoid,
                        dsl_model_from_doc, dsl_model_to_doc, dsl_train,
                        features_from_statistics, make_training_pairs)
# perfbench/spans.py patches these by their labeling names, so keep them bound
from .baselines import ks_statistic, pair_features  # noqa: F401
from .dataset import Dataset, NumericAttribute, dataset_fingerprint
from .embnet import CHECKPOINT, Model, distances, embed, model_frame, model_from_frame, preprocess
from .errors import (EmptyInput, EmptyLabeledData, EmptyStore, InvalidArch, InvalidSpec,
                     MalformedCheckpoint, MalformedStore, MissingModel, NoQueries,
                     TooFewSources)

STORE_MAGIC = b"EMBS"
STORE_VERSION = 2

METHODS = ("embnum", "semantictyper", "dsl")


@dataclass(frozen=True)
class StoreRecord:
    label: str
    source: str
    feature: np.ndarray  # (k,) float32 embedding, or one column's sorted values


@dataclass(frozen=True, eq=False)
class FeatureStore:
    """Labeled attributes as the arrays their scorer reads: one label and one
    source per attribute, in object arrays of str (a numpy str array would
    drop trailing NULs), and one feature block, the (n, k) float32 embedding
    matrix for embnum or a PackedColumns of the raw values otherwise.
    Construction refuses an empty store (EmptyStore), an embnum store without
    its model or a dsl store without its weights (MissingModel), and labels,
    sources and feature rows of unequal counts (InvalidSpec).  It builds the
    tie_rank and label_codes every ranking reads; the store is immutable, so
    they stay its own."""

    method: str
    labels: np.ndarray
    sources: np.ndarray
    features: np.ndarray | PackedColumns
    model: Model | None = None               # embnum query-side embedder
    dsl_model: LogisticModel | None = None   # dsl feature weights

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidSpec(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not len(self.labels):
            raise EmptyStore("a store needs at least one record")
        if self.method == "embnum" and self.model is None:
            raise MissingModel("an embnum store needs the model that embeds its queries")
        if self.method == "dsl" and self.dsl_model is None:
            raise MissingModel("a dsl store needs its logistic weights")
        rows = len(self.features) if self.method == "embnum" else self.features.sizes.size
        if not len(self.labels) == len(self.sources) == rows:
            raise InvalidSpec(f"{len(self.labels)} labels and {len(self.sources)} sources "
                              f"for {rows} feature rows")
        # tie_rank: each record's place in (label, source) order, the key that
        # breaks score ties; label_codes: ({label: code}, each record's code)
        code_of: dict[str, int] = {}
        codes = np.array([code_of.setdefault(x, len(code_of)) for x in self.labels.tolist()])
        object.__setattr__(self, "tie_rank", np.lexsort((self.sources, self.labels)).argsort())
        object.__setattr__(self, "label_codes", (code_of, codes))

    @cached_property
    def records(self) -> tuple[StoreRecord, ...]:
        """Read-only (label, source, feature) rows in attribute order: float32
        embeddings, or each column's sorted values.  The package itself reads
        the arrays; this view is for callers that walk a store row by row."""
        rows = self.features if self.method == "embnum" else np.split(
            self.features.values, self.features.starts[1:])
        return tuple(map(StoreRecord, self.labels.tolist(), self.sources.tolist(), rows))

    def subset(self, keep: np.ndarray) -> FeatureStore:
        """The records where the boolean mask `keep` is set, under this
        store's scorers.  A raw-value subset takes its presorted columns
        from this store's pack instead of sorting them again."""
        features = self.features[keep] if self.method == "embnum" else self.features.take(keep)
        return FeatureStore(self.method, self.labels[keep], self.sources[keep], features,
                            self.model, self.dsl_model)


@dataclass(frozen=True)
class RankEntry:
    label: str
    source: str
    score: float


@dataclass(frozen=True, eq=False)
class RankingList:
    """One query's ranking: every store record's index best first, the display
    scores in that order, and the (label, source, score) rows, built on first read."""

    store: FeatureStore
    order: np.ndarray
    scores: np.ndarray

    @cached_property
    def entries(self) -> tuple[RankEntry, ...]:
        return tuple(map(RankEntry, self.store.labels[self.order].tolist(),
                         self.store.sources[self.order].tolist(), self.scores.tolist()))


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
    return FeatureStore(method, np.array([a.label for a in attrs], dtype=object),
                        np.array([a.source for a in attrs], dtype=object),
                        features if method == "embnum" else PackedColumns(features),
                        model, dsl_model)


def _featurize(method: str, model: Model | None, columns: list):
    """The (n, k) float32 embedding matrix for embnum, each column's float64
    values otherwise; a column holding NaN or an infinity is EmptyInput, which
    for embnum sampling raises."""
    if method == "embnum":
        return embed(model, np.stack([preprocess(c, model.arch) for c in columns]))
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if not all(np.isfinite(c).all() for c in columns):
        raise EmptyInput("value list contains non-finite entries")
    return columns


def _orders(store: FeatureStore, columns: list) -> tuple[np.ndarray, np.ndarray]:
    """(orders, display scores) of the store against each query column, one row
    per query.  An order row lists record indices best first: keys ascend, and
    key ties break by (label, source); raw-value stores score in one call."""
    features = _featurize(store.method, store.model, columns)
    if store.method == "embnum":
        keys = display = distances(store.features, features)
    else:
        ks, mw, jaccard = store.features.statistics(features)
        if store.method == "semantictyper":
            keys, display = ks, 1.0 - ks
        else:
            feats = features_from_statistics(ks.ravel(), mw.ravel(), jaccard.ravel())
            logits = store.dsl_model.logits(feats).reshape(ks.shape)
            keys, display = -logits, _sigmoid(logits)
    return np.lexsort((np.broadcast_to(store.tie_rank, keys.shape), keys)), display


def _first_correct(store: FeatureStore, orders: np.ndarray, labels: list[str]) -> np.ndarray:
    """1-based position of each order row's first record with that row's label."""
    code_of, codes = store.label_codes
    want = np.array([code_of[label] for label in labels])
    return (codes[orders] == want[:, None]).argmax(axis=1) + 1


def rank(store: FeatureStore, query) -> RankingList:
    """Total ordering of every store record against one query."""
    values = query.values if isinstance(query, NumericAttribute) else query
    orders, display = _orders(store, [values])
    return RankingList(store, orders[0], display[0][orders[0]])


def assign_label(ranking: RankingList) -> str:
    return ranking.store.labels[ranking.order[0]]


def rank_of_first_correct(ranking: RankingList, true_label: str) -> int | None:
    if true_label not in ranking.store.label_codes[0]:
        return None
    return int(_first_correct(ranking.store, ranking.order[None], [true_label])[0])


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


def label_queries(store: FeatureStore, queries: list[NumericAttribute]) -> LabelingResult:
    """Label a batch of queries against one store, timing the whole batch.

    Queries whose label the store lacks are counted as excluded.  The rest
    are ranked as rank() ranks one query, in one _orders() call for the whole
    batch (one embedding batch for embnum; one PackedColumns.statistics call,
    in chunks of stored values, otherwise; one lexsort over every query's
    keys), and _first_correct() reads every rank off those orders.  The clock
    covers those two calls only; a raw-value store's column CDF, which its
    pack builds on first use, is built before it starts.
    """
    if not queries:
        raise NoQueries("no query attributes")
    kept = [a for a in queries if a.label in store.label_codes[0]]
    if store.method != "embnum":
        _ = store.features.cdf   # store construction, not labeling

    t0 = time.perf_counter()
    ranks = []
    if kept:
        orders, _ = _orders(store, [a.values for a in kept])
        ranks = _first_correct(store, orders, [a.label for a in kept]).tolist()
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

    @property
    def overall_mrr(self) -> float:
        """Experiment-weighted MRR over every labeled-source count."""
        weights = [pc.experiments for pc in self.per_count]
        return sum(pc.mean_mrr * w for pc, w in zip(self.per_count, weights)) / sum(weights)


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

    sources, stored = sorted(dataset.sources), full.sources.tolist()
    by_count: dict[int, list[tuple[float, float]]] = {}
    for held in sources:
        queries = sorted(dataset.by_source(held), key=lambda a: a.label)
        others = [s for s in sources if s != held]
        for mask in range(1, 2 ** len(others)):
            chosen = {others[i] for i in range(len(others)) if mask >> i & 1}
            store = full.subset(np.array([s in chosen for s in stored]))
            result = label_queries(store, queries)
            if result.ranks:
                by_count.setdefault(len(chosen), []).append((mrr(result.ranks), result.seconds))
    if not by_count:
        raise NoQueries("no held-out query's label is in any labeled subset")

    per_count = tuple(PerCount(labeled_sources=count,
                               mean_mrr=float(np.mean([m for m, _ in rows])),
                               mean_seconds=float(np.mean([s for _, s in rows])),
                               experiments=len(rows))
                      for count, rows in sorted(by_count.items()))
    return BenchmarkReport(method=method,
                           dataset_sha256=dataset_fingerprint(dataset),
                           per_count=per_count,
                           total_experiments=sum(pc.experiments for pc in per_count))


def report_to_json(report: BenchmarkReport) -> str:
    return json.dumps(asdict(report), indent=2) + "\n"


# ---------------------------------------------------------------------------
# store persistence


def save_store(store: FeatureStore, path: Path) -> None:
    """One frame per store.  An embnum store holds its model's checkpoint
    manifest under "model", the model's arrays under a "model." prefix and
    one (n, k) "embeddings" array; a raw store holds its pack's values, each
    record's sorted ascending, end to end in one "values" array, with each
    record's row count in record_meta.  An array holding a NaN or an
    infinity is MalformedStore, as load_store would find it, and nothing is
    written."""
    meta: dict = {
        "kind": "feature-store",
        "method": store.method,
        "record_meta": [{"label": label, "source": source} for label, source
                        in zip(store.labels.tolist(), store.sources.tolist())],
    }
    if store.method == "embnum":
        meta["model"], model_arrays = model_frame(store.model)
        arrays = {f"model.{name}": a for name, a in model_arrays.items()}
        arrays["embeddings"] = np.asarray(store.features, dtype=np.float32)
    else:
        for m, n in zip(meta["record_meta"], store.features.sizes.tolist()):
            m["rows"] = n
        arrays = {"values": store.features.values}
        if store.method == "dsl":
            meta["dsl_model"] = dsl_model_to_doc(store.dsl_model)
    _serial.check_finite(arrays, MalformedStore, str(path))
    _serial.atomic_write_bytes(Path(path), _serial.pack_framed(
        STORE_MAGIC, STORE_VERSION, meta, arrays))


STORE = {"kind": str, "method": str, "arrays": list,
         "record_meta": [{"label": str, "source": str, "rows?": int}],
         "model?": CHECKPOINT, "dsl_model?": DSL_WEIGHTS}


def load_store(path: Path) -> FeatureStore:
    """Inverse of save_store.  The manifest must match STORE and name one of
    METHODS, and the arrays besides the model's must fit its records and be
    finite, else MalformedStore, as is a fault of an embnum store's embedded
    checkpoint; a store of no records is EmptyStore.  Raw values load in any
    order: packing sorts them."""
    manifest, arrays = _serial.unpack_framed(Path(path).read_bytes(),
                                             STORE_MAGIC, STORE_VERSION)
    _serial.check(manifest, STORE, MalformedStore, "store")
    method, rec_meta = manifest["method"], manifest["record_meta"]
    if method not in METHODS:
        raise MalformedStore(f"{path}: unknown method {method!r}; expected one of {METHODS}")
    if not rec_meta:
        raise EmptyStore(f"{path}: the store holds no records")
    rows = [m.get("rows", 0) for m in rec_meta]
    model = dsl_model = None
    if method == "embnum":
        try:
            model = model_from_frame(manifest.get("model"), {
                name.removeprefix("model."): a
                for name, a in arrays.items() if name.startswith("model.")})
        except (MalformedCheckpoint, InvalidArch) as exc:
            raise MalformedStore(f"{path}: {exc}") from None
        want = {"embeddings": (len(rec_meta), model.arch.k)}
    else:
        if min(rows) < 1:
            raise MalformedStore(f"{path}: every {method} record needs a row count >= 1")
        want = {"values": (sum(rows),)}
        if method == "dsl":
            dsl_model = dsl_model_from_doc(manifest.get("dsl_model"))
    got = {name: a.shape for name, a in arrays.items() if not name.startswith("model.")}
    if got != want:
        raise MalformedStore(f"{path}: {len(rec_meta)} {method} records need arrays "
                             f"{want}, but the store holds {got}")
    _serial.check_finite({name: arrays[name] for name in want}, MalformedStore, str(path))
    features = (arrays["embeddings"] if method == "embnum" else
                PackedColumns(np.split(arrays["values"], np.cumsum(rows)[:-1])))
    return FeatureStore(method, np.array([m["label"] for m in rec_meta], dtype=object),
                        np.array([m["source"] for m in rec_meta], dtype=object),
                        features, model, dsl_model)


def export_embeddings_csv(model: Model, dataset: Dataset) -> str:
    """CSV of every attribute's embedding: label, source, e0..e{k-1}."""
    attrs = sorted(dataset.attributes, key=lambda a: (a.label, a.source))
    embs = _featurize("embnum", model, [a.values for a in attrs])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [["label", "source"] + [f"e{i}" for i in range(model.arch.k)]]
        + [[a.label, a.source] + [repr(float(v)) for v in e] for a, e in zip(attrs, embs)])
    return out.getvalue()
