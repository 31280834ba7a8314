"""The two benchmark workloads and the stages they are built from.

Stages, each driving one part of embnum's public API:

train   ``metric.train`` on the overlapping fixture with the desk architecture
        and training config.  One operation is one training run.
serve   a closed loop with one caller: ``labeling.rank(store, q)`` for each
        method in turn, every query a fresh column.  One operation is one call.
loso    ``labeling.run_benchmark`` for one method on the overlapping fixture
        (6 sources: 186 experiments of 10 queries).  One operation is one call.

BENCHMARK.json declares one set of end-to-end metrics for all workloads and
every run reports all of them, so every workload runs all three stages, each
at least to a fixed minimum: 3 training runs, 4 run_benchmark calls per
method and 100 rank calls per method.  The workloads differ in their set-up,
timed as ``setup_s`` and repeated, and in the store the serve stage ranks
against:

serve   set-up generates the 550-column efficiency fixture, writes it as CSV,
        loads it, indexes it for all three methods with the full-width model,
        and saves and loads the stores; the serve stage ranks against those.
loso    set-up generates the overlapping fixture, trains (each set-up is one
        of the training runs) and fits DSL on its 1,770 pairs; the serve
        stage ranks against 100 columns of the same 50 label families
        (2 sources), indexed in memory with the full-width model.

The stages take turns in cycles instead of running one after another, for
the whole run: the speed of a shared machine drifts over tens of seconds, and
interleaving makes every metric see the same mix of fast and slow periods.
In a timed pass ``pace.Pace`` times fixed reference kernels four times a
second, and every timing is scaled by the host's slowdown measured during
and around it (see ``perfbench/pace.py``).  Throughputs are the work of one
operation over the median of its scaled times; latencies are percentiles of
every scaled call.

The efficiency fixture (the serve store) and the query stream derive from
the workload seed, and seed 0 reproduces the frozen efficiency fixture.  The
overlapping fixture and the training configuration are the frozen ones of
``embnum.fixtures`` at every seed: drawn afresh per seed, the middle half of
six seeds' embnum MRRs spanned a fifth of their median, which would drown
the change a program edit makes, so every run measures them on the same 60
columns as the README's ``--hard`` row.  Training and run_benchmark do the same amount of
work on every draw, so their timings lose nothing by it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from embnum import baselines, dataset, embnet, fixtures, labeling, metric
from pace import Pace

METHODS = labeling.METHODS
WORKLOADS = ("serve", "loso")
SETUP_REPEATS = 2       # setup_s is their median; a third would not fit the time for all runs
MIN_TRAIN_RUNS = 3      # every workload: about 5 s of training
MIN_LOSO_CALLS = 4      # per method, every workload: about 12 s of run_benchmark
MIN_QUERIES = 100       # per method: p90 keeps 10 samples beyond it
SMALL_STORE_SOURCES = 2  # loso: 50 labels x 2 sources
SMALL_STORE_STEPS = 17   # queries per method per cycle: 100 take six cycles
GATE_SAMPLE = 5         # stored columns / queries checked per method by each serve gate
QUERY_TAG = 0x5E7E      # separates query streams from the fixtures' own seeds


@dataclasses.dataclass(frozen=True)
class Inputs:
    """Every input of a run.  The efficiency fixture and the query stream
    derive from the workload seed; the overlapping fixture and the training
    configuration are the frozen ones at every seed (see the module doc)."""

    seed: int

    @property
    def overlap_spec(self) -> dataset.SyntheticSpec:
        return fixtures.overlapping_spec()

    @property
    def efficiency_spec(self) -> dataset.SyntheticSpec:
        return dataclasses.replace(fixtures.efficiency_spec(),
                                   seed=fixtures.EFFICIENCY_DATA_SEED + self.seed)

    @property
    def train_config(self) -> metric.TrainConfig:
        return fixtures.desk_train_config()

    def queries(self, base: dataset.SyntheticSpec):
        """Endless fresh draws of `base`'s label families, one column per method per step."""
        block = 0
        while True:
            state = np.random.SeedSequence([QUERY_TAG, self.seed, block]).generate_state(1, np.uint64)
            spec = dataclasses.replace(base, source_count=3 * len(METHODS), seed=int(state[0]))
            ds = dataset.generate_synthetic(spec)
            sources = sorted(ds.sources)
            per_method = [[a for a in ds.attributes if sources.index(a.source) % len(METHODS) == i]
                          for i in range(len(METHODS))]
            for step in zip(*per_method):
                yield dict(zip(METHODS, step))
            block += 1


def overall_mrr(report: labeling.BenchmarkReport) -> float:
    """Experiment-weighted MRR over every labeled-source count."""
    weights = [pc.experiments for pc in report.per_count]
    return sum(pc.mean_mrr * w for pc, w in zip(report.per_count, weights)) / sum(weights)


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


class Run:
    """One pass of a workload: its stages, operations, samples, gates and outputs."""

    def __init__(self, inputs: Inputs, rec=None):
        self.inputs = inputs
        self.rec = rec            # spans.Recorder while traced, else None
        self.attempted = 0
        self.failed = 0
        self.pace = Pace()
        # timings as (start, end) on the perf_counter clock
        self.setup_s: list[tuple[float, float]] = []
        self.train_s: list[tuple[float, float]] = []
        self.loso_s: dict[str, list[tuple[float, float]]] = {m: [] for m in METHODS}
        self.rank_s: dict[str, list[tuple[float, float]]] = {m: [] for m in METHODS}
        self.mrr: dict[str, float] = {}
        self.gates: dict[str, list[int]] = {}   # name -> [passed, checked]
        self.outputs: dict[str, object] = {}    # compared between traced and untraced passes
        # what the stages work on, filled in by the workload's set-up
        self.overlap: dataset.Dataset | None = None
        self.model = None
        self.dsl_model = None
        self.stores: dict | None = None
        self.labeled: dataset.Dataset | None = None   # what the stores index
        self.query_spec: dataset.SyntheticSpec | None = None
        self._queries = None
        self._asked: dict[str, list] = {m: [] for m in METHODS}
        self._firsts: dict[str, list[int]] = {m: [] for m in METHODS}
        self._seen: set[bytes] = set()
        self._loso_turn = 0

    # -- bookkeeping -----------------------------------------------------

    def op(self, fn, *args, **kwargs):
        """One operation; an exception counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def check(self, gate: str, ok: bool) -> None:
        self.attempted += 1
        tally = self.gates.setdefault(gate, [0, 0])
        tally[1] += 1
        if ok:
            tally[0] += 1
        else:
            self.failed += 1
            print(f"gate failed: {gate}", file=sys.stderr)

    def _scope(self, method: str | None) -> None:
        if self.rec is not None:
            self.rec.scope = method

    def timed_setup(self, fn):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        self.setup_s.append((t0, time.perf_counter()))
        return out

    # -- stages ----------------------------------------------------------

    def train(self) -> None:
        """One training run on the overlapping fixture."""
        cfg = self.inputs.train_config
        gc.collect()
        t0 = time.perf_counter()
        result = self.op(metric.train, self.overlap, fixtures.desk_arch(), cfg)
        t1 = time.perf_counter()
        if result is None:
            return
        model, history = result
        self.train_s.append((t0, t1))
        best = model.training_meta["best_mrr"]
        if self.model is None:
            self.model = model
            self.outputs["train.best_mrr"] = best
            self.outputs["train.history"] = repr(history)
        else:
            self.check("train.repeatable", best == self.outputs["train.best_mrr"]
                       and repr(history) == self.outputs["train.history"])

    def loso(self) -> None:
        """One run_benchmark call, for the next method in turn."""
        m = METHODS[self._loso_turn % len(METHODS)]
        self._loso_turn += 1
        ds = self.overlap
        gc.collect()
        self._scope(m)
        t0 = time.perf_counter()
        report = self.op(labeling.run_benchmark, ds, m, model=self.model, dsl_model=self.dsl_model)
        t1 = time.perf_counter()
        self._scope(None)
        if report is None:
            return
        self.loso_s[m].append((t0, t1))
        d = len(ds.sources)
        mrr = overall_mrr(report)
        self.check("loso.shape", report.total_experiments == labeling.expected_experiments(d)
                   and all(0.0 < pc.mean_mrr <= 1.0 for pc in report.per_count)
                   and 0.0 < mrr <= 1.0)
        # mean_seconds is a timing; the rest of the report must repeat exactly
        ranks = [(pc.labeled_sources, pc.mean_mrr, pc.experiments) for pc in report.per_count]
        key = f"loso.{m}.per_count"
        if key in self.outputs:
            self.check("loso.repeatable", ranks == self.outputs[key])
        else:
            self.outputs[key] = ranks
            self.mrr[m] = mrr

    def serve(self, steps: int) -> None:
        """`steps` fresh query columns per method, each ranked by one call."""
        if self._queries is None:
            self._queries = self.inputs.queries(self.query_spec)
            self.outputs["serve.rankings"] = {m: [] for m in METHODS}
        for _ in range(steps):
            step = next(self._queries)
            for m in METHODS:
                q = step[m]
                key = _digest(q.values.tobytes())
                self.check("serve.distinct_queries", key not in self._seen)
                self._seen.add(key)
                self._scope(m)
                t0 = time.perf_counter()
                ranking = self.op(labeling.rank, self.stores[m], q)
                self.rank_s[m].append((t0, time.perf_counter()))
                self._scope(None)
                if ranking is None:
                    continue
                self.check("serve.ranks_every_record",
                           len(ranking.entries) == len(self.stores[m].records))
                self._asked[m].append(q)
                self._firsts[m].append(labeling.rank_of_first_correct(ranking, q.label))
                self.outputs["serve.rankings"][m].append(
                    _digest(repr(ranking.entries).encode()).hex())

    # -- gates -----------------------------------------------------------

    def serve_gates(self) -> None:
        rng = np.random.default_rng(self.inputs.seed)
        picks = rng.choice(len(self.labeled.attributes), size=GATE_SAMPLE, replace=False)
        for m in METHODS:
            store = self.stores[m]
            for i in picks:
                attr = self.labeled.attributes[i]
                top = labeling.rank(store, attr).entries[0]
                self.check("serve.self_retrieval",
                           (top.label, top.source) == (attr.label, attr.source))
            result = labeling.label_queries(store, self._asked[m][:GATE_SAMPLE])
            self.check("serve.rank_agreement", result.ranks == self._firsts[m][:GATE_SAMPLE])
        store = self.stores["embnum"]
        for i in picks:
            attr = self.labeled.attributes[i]
            record = store.records[i]
            alone = embnet.embed(store.model, embnet.preprocess(attr.values, store.model.arch))
            self.check("serve.batch_invariance",
                       (record.label, record.source) == (attr.label, attr.source)
                       and record.feature.dtype == alone.dtype
                       and record.feature.tobytes() == alone.tobytes())

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """End-to-end metric values (peak RSS excluded), from timings less the
        probes inside them; with `scaled`, each is also divided by the host's
        slowdown during and around it."""
        def secs(timings):
            return [(self.pace.scaled if scaled else self.pace.wall)(*t) for t in timings]

        epochs = self.inputs.train_config.epochs
        d = len(self.overlap.sources)
        queries = len(self.overlap.attributes) * (2 ** (d - 1) - 1)
        out = {"setup_s": statistics.median(secs(self.setup_s)),
               "train_epochs_per_s": epochs / statistics.median(secs(self.train_s))}
        for m in METHODS:
            rank_ms = [s * 1e3 for s in secs(self.rank_s[m])]
            out[f"{m}_rank_p50_ms"] = float(np.percentile(rank_ms, 50))
            out[f"{m}_rank_p90_ms"] = float(np.percentile(rank_ms, 90))
            out[f"{m}_loso_queries_per_s"] = queries / statistics.median(secs(self.loso_s[m]))
            out[f"{m}_mrr"] = self.mrr[m]
        return out

    def sample_counts(self) -> dict[str, int]:
        counts = {"setup_s": len(self.setup_s), "train_runs": len(self.train_s),
                  "pace_probes": len(self.pace.slowdowns)}
        for m in METHODS:
            counts[f"{m}_rank_calls"] = len(self.rank_s[m])
            counts[f"{m}_loso_calls"] = len(self.loso_s[m])
        return counts


# ---------------------------------------------------------------------------
# set-ups


def _dsl_model(ds: dataset.Dataset):
    return baselines.dsl_train(baselines.make_training_pairs(ds))


def _small_stores(run: Run) -> None:
    """The serve stage's stores for loso: 100 efficiency-fixture columns,
    indexed in memory."""
    spec = dataclasses.replace(run.inputs.efficiency_spec, source_count=SMALL_STORE_SOURCES)
    run.labeled = dataset.generate_synthetic(spec)
    run.query_spec = run.inputs.efficiency_spec
    model = embnet.build_model(embnet.ArchConfig(), run.inputs.seed)
    run.stores = {m: labeling.index_labeled(run.labeled, m, model=model,
                                            dsl_model=run.dsl_model) for m in METHODS}


def _serve_setup(inputs: Inputs, root: Path):
    """Efficiency fixture through CSV, three stores through the store format."""
    eff = dataset.generate_synthetic(inputs.efficiency_spec)
    loaded = dataset.load_dataset(dataset.write_dataset(eff, root / "data"))
    overlap = dataset.generate_synthetic(inputs.overlap_spec)
    dsl_model = _dsl_model(overlap)
    model = embnet.build_model(embnet.ArchConfig(), inputs.seed)
    stores = {}
    for m in METHODS:
        store = labeling.index_labeled(loaded, m, model=model, dsl_model=dsl_model)
        path = root / f"{m}.store"
        labeling.save_store(store, path)
        stores[m] = labeling.load_store(path)
    return eff, loaded, overlap, dsl_model, stores


# ---------------------------------------------------------------------------
# workloads


def run_workload(name: str, inputs: Inputs, work: Path, seconds: float,
                 setup_repeats: int = SETUP_REPEATS, rec=None, paced: bool = False) -> Run:
    """One pass: the workload's set-up, repeated, then the stages in turn;
    with `paced`, the host's slowdown is probed throughout."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    run = Run(inputs, rec)
    with run.pace if paced else contextlib.nullcontext():
        _stages(name, run, work, seconds, setup_repeats)
    run.serve_gates()
    run.outputs["gates"] = {g: list(t) for g, t in run.gates.items()}
    return run


def _stages(name: str, run: Run, work: Path, seconds: float, setup_repeats: int) -> None:
    inputs = run.inputs
    if name == "loso":
        def setup():
            run.overlap = dataset.generate_synthetic(inputs.overlap_spec)
            run.train()
            return _dsl_model(run.overlap)

        for _ in range(setup_repeats):
            run.dsl_model = run.timed_setup(setup)
        _small_stores(run)
        _cycles(run, seconds, SMALL_STORE_STEPS)
    elif name == "serve":
        for k in range(setup_repeats):
            root = work / f"setup{k}"
            eff, loaded, overlap, dsl_model, stores = run.timed_setup(
                lambda: _serve_setup(inputs, root))
            if k + 1 < setup_repeats:
                shutil.rmtree(root)
        run.check("serve.dataset_round_trip", loaded == eff)
        run.overlap, run.dsl_model, run.stores, run.labeled = overlap, dsl_model, stores, loaded
        run.query_spec = inputs.efficiency_spec
        _cycles(run, seconds, 10)


def _cycles(run: Run, seconds: float, steps: int) -> None:
    """One operation per stage and cycle (the serve stage `steps` queries per
    method); a stage at its minimum sits out until every stage has reached
    its own, then all take turns until `seconds` have passed."""
    t0 = time.perf_counter()
    while True:
        due = [stage for stage, short in (
            ("train", len(run.train_s) < MIN_TRAIN_RUNS),
            ("loso", any(len(run.loso_s[m]) < MIN_LOSO_CALLS for m in METHODS)),
            ("serve", any(len(run.rank_s[m]) < MIN_QUERIES for m in METHODS)),
        ) if short]
        if not due:
            if time.perf_counter() - t0 >= seconds:
                return
            due = ["train", "loso", "serve"]
        for stage in due:
            if stage == "serve":
                run.serve(steps)
            else:
                getattr(run, stage)()
