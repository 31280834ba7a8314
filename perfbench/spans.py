"""Span recorder and the instrumentation that times embnum's layers from outside.

Nothing under ``src/`` knows about tracing.  ``Instrumented`` replaces each
public function under every name the program looks it up by, places proxies
on the ResNet's stem, stages and head, and wraps the backward closure of every
``nn.ops`` output, so the spans cover calls made inside the package as well as
the benchmark's own calls.  ``uninstall`` puts every original back and
reports any name it could not restore.

A span's busy time is its duration; its self time is that minus the
durations of its direct children.  Only the per-name sums stay in memory, and
they become the per-layer metrics when the run ends.  The program is
single-threaded while traced (``load_dataset``'s worker threads run inside one
span), so children never overlap.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from embnum import _serial, baselines, dataset, embnet, labeling, metric
from embnum.nn import ops
from embnum.nn.optim import SGD
from embnum.nn.tensor import Tensor

OPS = ("conv1d", "batchnorm1d", "relu", "maxpool1d", "global_avgpool1d", "linear")


class Recorder:
    """Busy and self time and calls per span name, plus counters, kept in memory."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [name, start, child_seconds] of the open spans
        self.stage: str | None = None  # innermost ResNet proxy span, for backward attribution
        self.scope: str | None = None  # method whose distinct inputs are being counted
        self._seen: dict[tuple[str, str], set] = defaultdict(set)
        self._attempts: dict[tuple[str, str], int] = defaultdict(int)
        self._digests: dict[int, tuple[object, bytes]] = {}

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> float:
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        dur = end - start
        self.busy[name] += dur
        self.self_time[name] += dur - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def distinct(self, name: str, key) -> None:
        """Count one input of `name` inside the current method scope."""
        if self.scope is None:
            return
        self._seen[(name, self.scope)].add(key)
        self._attempts[(name, self.scope)] += 1

    def digest(self, arr) -> bytes:
        """Content digest of a long-lived array, computed once per object.

        The cache keeps a reference to each array, so an id is never reused
        for another object while its entry exists.
        """
        hit = self._digests.get(id(arr))
        if hit is None or hit[0] is not arr:
            hit = (arr, digest(arr))
            self._digests[id(arr)] = hit
        return hit[1]

    def distinct_ratio(self, name: str) -> float:
        """Distinct inputs over attempts, summed over methods; 0 when never called."""
        attempts = sum(n for (nm, _), n in self._attempts.items() if nm == name)
        seen = sum(len(s) for (nm, _), s in self._seen.items() if nm == name)
        return seen / attempts if attempts else 0.0


def digest(arr) -> bytes:
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


class _ModuleProxy:
    """Stands in for one ResNet module and times its forward call.

    ``__class__`` reports the wrapped type, so ``isinstance`` checks in the
    model (``named_buffers``) see the real module.
    """

    __slots__ = ("_target", "_name", "_rec")

    def __init__(self, target, name: str, rec: Recorder):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_rec", rec)

    @property
    def __class__(self):
        return type(self._target)

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def __call__(self, *args, **kwargs):
        rec = self._rec
        outer = rec.stage
        rec.stage = self._name
        rec.begin(self._name)
        try:
            return self._target(*args, **kwargs)
        finally:
            rec.end()
            rec.stage = outer


def _op_cost(name: str, args, out) -> tuple[float, float, float, float]:
    """Computed (forward flop, forward bytes, backward flop, backward bytes).

    A product term is 2 * (output elements) * (reduction length).  Bytes are
    the operands read plus the result written; the backward pass reads the
    output gradient and the operands and writes one gradient per operand that
    needs it.
    """
    if name == "conv1d":
        x, w = args[0], args[1]
        bias = args[2] if len(args) > 2 else None
        b, _, _ = x.data.shape
        c_out, c_in, k = w.data.shape
        l_out = out.data.shape[2]
        mult = 2.0 * b * c_out * l_out * c_in * k
        fwd_bytes = x.data.nbytes + w.data.nbytes + out.data.nbytes
        if bias is not None:
            fwd_bytes += bias.data.nbytes
        grads = [t for t in (x, w) if t.requires_grad]
        bwd_flop = mult * len(grads)
        bwd_bytes = out.data.nbytes + x.data.nbytes + w.data.nbytes + sum(t.data.nbytes for t in grads)
        return mult, float(fwd_bytes), bwd_flop, float(bwd_bytes)
    if name == "linear":
        x, w, bias = args[0], args[1], args[2]
        b, f = x.data.shape
        o = w.data.shape[0]
        mult = 2.0 * b * o * f
        fwd_bytes = x.data.nbytes + w.data.nbytes + bias.data.nbytes + out.data.nbytes
        grads = [t for t in (x, w) if t.requires_grad]
        bwd_bytes = out.data.nbytes + x.data.nbytes + w.data.nbytes + sum(t.data.nbytes for t in grads)
        return mult, float(fwd_bytes), mult * len(grads), float(bwd_bytes)
    return 0.0, 0.0, 0.0, 0.0


class Instrumented:
    """Installs the recorder's wrappers; use as a context manager."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._patched: list[tuple[object, str, object]] = []
        self._proxied: list[tuple[object, dict]] = []

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _timed(self, name: str, fn, after=None):
        rec = self.rec

        def wrapper(*args, **kwargs):
            rec.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_all(self, owners, attr: str, name: str, after=None) -> None:
        original = getattr(owners[0], attr)
        wrapper = self._timed(name, original, after)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the function traced")
            self._set(owner, attr, wrapper)

    def install(self) -> None:
        rec = self.rec
        c = rec.counts

        # sampling, dataset, _serial
        self._patch_all([embnet], "sample_inverse_transform", "sampling.sample_inverse_transform")
        for fn in ("generate_synthetic", "write_dataset", "load_dataset"):
            self._patch_all([dataset], fn, f"dataset.{fn}")
        for fn in ("pack_framed", "unpack_framed"):
            self._patch_all([_serial], fn, f"serial.{fn}")

        # embnet
        def count_embed(args, kwargs, out):
            x = np.asarray(args[1])
            rows = x.reshape(1, -1) if x.ndim == 1 else x
            c["embnet.embed.columns"] += rows.shape[0]
            if rec.scope is not None:
                for row in rows:
                    rec.distinct("embnet.embed", digest(row))

        self._patch_all([embnet, labeling], "embed", "embnet.embed", count_embed)
        self._patch_all([embnet, labeling, metric], "preprocess", "embnet.preprocess")
        self._patch_build_model()

        # nn.ops, nn.tensor, nn.optim
        for op in OPS:
            self._set(ops, op, self._op_wrapper(op, getattr(ops, op)))
        self._set(Tensor, "backward", self._timed("nn.tensor.Tensor.backward", Tensor.backward))
        self._set(SGD, "step", self._timed("nn.optim.SGD.step", SGD.step))

        # metric
        for fn in ("train", "mine_batch_hard", "training_mrr"):
            self._patch_all([metric], fn, f"metric.{fn}")

        # baselines, under the names labeling and baselines both use
        def count_ks(args, kwargs, out):
            if rec.scope is not None:
                rec.distinct("baselines.ks_statistic", (rec.digest(args[0]), rec.digest(args[1])))

        self._patch_all([baselines, labeling], "ks_statistic", "baselines.ks_statistic", count_ks)
        self._patch_all([baselines, labeling], "pair_features", "baselines.pair_features")
        self._patch_all([baselines, labeling], "dsl_train", "baselines.dsl_train")
        for fn in ("mw_statistic", "numeric_jaccard"):
            self._patch_all([baselines], fn, f"baselines.{fn}")

        # labeling
        def count_queries(args, kwargs, out):
            c["labeling.label_queries.queries"] += len(args[1])
            c["labeling.label_queries.excluded"] += out.excluded

        def count_bytes(args, kwargs, out):
            c["labeling.save_store.bytes"] += Path(args[1]).stat().st_size

        self._patch_all([labeling], "rank", "labeling.rank")
        self._patch_all([labeling], "label_queries", "labeling.label_queries", count_queries)
        self._patch_all([labeling], "save_store", "labeling.save_store", count_bytes)
        for fn in ("run_benchmark", "index_labeled", "load_store"):
            self._patch_all([labeling], fn, f"labeling.{fn}")
        post_init = labeling.FeatureStore.__post_init__

        def counted_post_init(store):
            c["labeling.FeatureStore.builds"] += 1
            post_init(store)

        self._set(labeling.FeatureStore, "__post_init__", counted_post_init)

    def _patch_build_model(self) -> None:
        original = embnet.build_model

        def build_model(arch, seed):
            model = original(arch, seed)
            self._proxy(model.net)
            return model

        for owner in (embnet, metric):
            self._set(owner, "build_model", build_model)

    def _proxy(self, net) -> None:
        saved = {"stem_conv": net.stem_conv, "stem_bn": net.stem_bn, "fc": net.fc,
                 "stages": [list(blocks) for blocks in net.stages]}
        self._proxied.append((net, saved))
        net.stem_conv = _ModuleProxy(net.stem_conv, "embnet.stem", self.rec)
        net.stem_bn = _ModuleProxy(net.stem_bn, "embnet.stem", self.rec)
        net.fc = _ModuleProxy(net.fc, "embnet.fc", self.rec)
        for i, blocks in enumerate(net.stages):
            blocks[:] = [_ModuleProxy(b, f"embnet.stage{i}", self.rec) for b in blocks]

    def _op_wrapper(self, op: str, fn):
        rec = self.rec
        c = rec.counts
        name = f"nn.ops.{op}"
        bwd_name = f"{name}.backward"

        def wrapper(*args, **kwargs):
            stage = rec.stage
            rec.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end()
            fwd_flop, fwd_bytes, bwd_flop, bwd_bytes = _op_cost(op, args, out)
            c[f"{name}.flop"] += fwd_flop
            c[f"{name}.bytes"] += fwd_bytes
            backward = out._backward
            if out.requires_grad and backward is not None:

                def timed_backward(g):
                    rec.begin(bwd_name)
                    try:
                        backward(g)
                    finally:
                        bdur = rec.end()
                    if stage is not None:
                        c[f"{stage}.bwd_s"] += bdur
                    c[f"{name}.flop"] += bwd_flop
                    c[f"{name}.bytes"] += bwd_bytes

                out._backward = timed_backward
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- restoring -------------------------------------------------------

    def uninstall(self) -> list[str]:
        """Restore every original; returns the names that did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for net, saved in self._proxied:
            net.stem_conv, net.stem_bn, net.fc = saved["stem_conv"], saved["stem_bn"], saved["fc"]
            for blocks, originals in zip(net.stages, saved["stages"]):
                blocks[:] = originals
        broken = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
                  if getattr(o, a) is not orig]
        for net, _ in self._proxied:
            mods = [net.stem_conv, net.stem_bn, net.fc] + [b for bl in net.stages for b in bl]
            if any(isinstance(m, _ModuleProxy) or type(m) is _ModuleProxy for m in mods):
                broken.append("ResNet1d proxies")
        return broken

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.broken = self.uninstall()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics

STAGES = ("stem", "stage0", "stage1", "stage2", "stage3", "fc")

# name -> (unit, better); the order is the order printed
PER_LAYER: dict[str, tuple[str, str]] = {}


def _declare(names, unit: str, better: str = "lower") -> None:
    for n in names:
        PER_LAYER[n] = (unit, better)


for _op in ("conv1d", "linear"):
    _declare([f"nn.ops.{_op}.fwd_ms", f"nn.ops.{_op}.bwd_ms"], "ms")
    _declare([f"nn.ops.{_op}.gflop"], "GFLOP")
    _declare([f"nn.ops.{_op}.mbytes"], "MB")
_declare(["nn.ops.conv1d.calls"], "count")
for _op in ("batchnorm1d", "relu", "maxpool1d"):
    _declare([f"nn.ops.{_op}.fwd_ms", f"nn.ops.{_op}.bwd_ms"], "ms")
for _st in STAGES:
    _declare([f"embnet.{_st}.fwd_ms", f"embnet.{_st}.bwd_ms"], "ms")
_declare(["embnet.embed.calls", "embnet.embed.columns", "embnet.preprocess.calls"], "count")
_declare(["embnet.embed.ms", "embnet.preprocess.ms"], "ms")
_declare(["embnet.embed.distinct_column_ratio"], "ratio", "higher")
_declare(["nn.tensor.Tensor.backward.calls", "nn.optim.SGD.step.calls"], "count")
_declare(["nn.tensor.Tensor.backward.ms", "nn.tensor.Tensor.backward.self_ms",
          "nn.optim.SGD.step.ms"], "ms")
_declare(["metric.mine_batch_hard.calls", "metric.training_mrr.calls"], "count")
_declare(["metric.mine_batch_hard.ms", "metric.training_mrr.ms", "metric.train.self_ms"], "ms")
_declare(["sampling.sample_inverse_transform.calls"], "count")
_declare(["sampling.sample_inverse_transform.ms"], "ms")
_declare(["baselines.ks_statistic.calls", "baselines.mw_statistic.calls",
          "baselines.pair_features.calls"], "count")
_declare(["baselines.ks_statistic.ms", "baselines.mw_statistic.ms", "baselines.numeric_jaccard.ms",
          "baselines.pair_features.ms", "baselines.dsl_train.ms"], "ms")
_declare(["baselines.ks_statistic.distinct_pair_ratio"], "ratio", "higher")
_declare(["labeling.rank.calls", "labeling.label_queries.calls", "labeling.label_queries.queries",
          "labeling.FeatureStore.builds"], "count")
_declare(["labeling.rank.ms", "labeling.rank.self_ms", "labeling.label_queries.ms",
          "labeling.label_queries.self_ms", "labeling.run_benchmark.self_ms",
          "labeling.index_labeled.ms", "labeling.save_store.ms", "labeling.load_store.ms"], "ms")
_declare(["labeling.label_queries.excluded_ratio"], "ratio")
_declare(["labeling.save_store.bytes"], "bytes")
_declare(["serial.pack_framed.ms", "serial.unpack_framed.ms"], "ms")
_declare(["dataset.generate_synthetic.ms", "dataset.write_dataset.ms",
          "dataset.load_dataset.ms"], "ms")
_declare(["trace.overhead_ratio"], "ratio")


def layer_metrics(rec: Recorder, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER value from one traced pass; 0 where a layer did not run."""
    c = rec.counts
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if stat == "calls":
            value = rec.calls[base]
        elif stat == "ms":
            value = rec.busy[base] * 1e3
        elif stat == "self_ms":
            value = rec.self_time[base] * 1e3
        elif stat == "fwd_ms":
            value = rec.busy[base] * 1e3
        elif stat == "bwd_ms":
            value = (c[f"{base}.bwd_s"] if base.startswith("embnet.")
                     else rec.busy[f"{base}.backward"]) * 1e3
        elif stat == "gflop":
            value = c[f"{base}.flop"] / 1e9
        elif stat == "mbytes":
            value = c[f"{base}.bytes"] / 1e6
        elif stat in ("distinct_column_ratio", "distinct_pair_ratio"):
            value = rec.distinct_ratio(base)
        elif name == "labeling.label_queries.excluded_ratio":
            q = c["labeling.label_queries.queries"]
            value = c["labeling.label_queries.excluded"] / q if q else 0.0
        elif name == "trace.overhead_ratio":
            value = overhead_ratio
        else:  # columns, queries, builds, bytes
            value = c[name]
        out[name] = float(value)
    return out
