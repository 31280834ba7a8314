"""Independent reference implementations used to cross-check the library.

Each function here recomputes a result by a different route than the
production code (pure-Python loops, Fraction arithmetic, brute-force pair
counting) so that agreement is evidence, not tautology.  Three sections are
the exception: the pairwise scorers, numpy code scoring one pair at a time;
the np.pad / sliding_window_view window ops with the np.where relu,
the out-of-place batch norm, the network's eval-mode taped forward, the
np.unique sampler and the one-GEMM-per-8-row-tile product; and the
distances and training MRR taken one query row at a time.  Each states
what the library's faster form must equal bit for bit.

store_of and chunk_budget, at the end, are no oracles: they build small
stores and chunk budgets for tests.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

import numpy as np

from embnum import sampling
from embnum.baselines import PackedColumns
from embnum.embnet import POOL
from embnum.errors import EmptyInput
from embnum.labeling import BenchmarkReport, FeatureStore, PerCount, StoreRecord
from embnum.nn import Tensor, ops
from embnum.nn.ops import BN_EPS, BN_MOMENTUM
from embnum.nn.tensor import make


def inverse_transform_oracle(values, h: int) -> list[float]:
    """Inverse empirical CDF on the grid {i/h}, via exact Fraction compares."""
    vs = sorted(float(v) for v in values)
    n = len(vs)
    support = sorted(set(vs))
    cumfrac = [Fraction(bisect.bisect_right(vs, v), n) for v in support]
    out = []
    for i in range(1, h + 1):
        p = Fraction(i, h)
        j = bisect.bisect_left(cumfrac, p)
        out.append(support[j])
    return out


def ks_oracle(a, b) -> float:
    """Max CDF gap over the merged support, exact rationals until the end."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    sa, sb = sorted(a), sorted(b)
    best = Fraction(0)
    for v in sorted(set(a) | set(b)):
        fa = Fraction(bisect.bisect_right(sa, v), len(a))
        fb = Fraction(bisect.bisect_right(sb, v), len(b))
        gap = abs(fa - fb)
        if gap > best:
            best = gap
    return float(best)


def mw_oracle(a, b) -> float:
    """P(a < b) + 0.5 P(a == b) by brute-force pair counting.

    The float conversion rounds the complement when the rational exceeds
    one half, keeping mw(a, b) + mw(b, a) == 1.0 exact in floats.
    """
    n_lt = sum(1 for x in a for y in b if x < y)
    n_eq = sum(1 for x in a for y in b if x == y)
    num2x = 2 * n_lt + n_eq
    den2x = 2 * len(a) * len(b)
    if 2 * num2x <= den2x:
        return num2x / den2x
    return 1.0 - (den2x - num2x) / den2x


def jaccard_oracle(a, b) -> float:
    """Interval overlap / interval union of the two value ranges, in exact
    rationals until the end, so no width overflows or rounds."""
    lo_a, hi_a = Fraction(float(min(a))), Fraction(float(max(a)))
    lo_b, hi_b = Fraction(float(min(b))), Fraction(float(max(b)))
    inter = min(hi_a, hi_b) - max(lo_a, lo_b)
    union = max(hi_a, hi_b) - min(lo_a, lo_b)
    if union == 0:
        return 1.0  # both ranges are the same single point
    return float(max(inter, Fraction(0)) / union)


def distance_oracle(a, b) -> float:
    """Euclidean distance by math.dist, which sums without numpy."""
    return math.dist([float(v) for v in a], [float(v) for v in b])


def format_value(v: float) -> str:
    """One value's shortest decimal form that parses back to the same float,
    one Python call per value: the integer form below 1e16 ("-0" for -0.0),
    else repr."""
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v)) if v or math.copysign(1.0, v) > 0 else "-0"
    return repr(float(v))


def mrr_oracle(ranks) -> float:
    return math.fsum(1.0 / r for r in ranks) / len(ranks)


def count_experiments_oracle(d: int) -> int:
    """Enumerate (held-out source, non-empty subset of the remaining sources)."""
    total = 0
    for holdout in range(d):
        rest = [s for s in range(d) if s != holdout]
        for mask in range(1, 2 ** len(rest)):
            total += 1
    return total


# ---------------------------------------------------------------------------
# pairwise scorers


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise EmptyInput("statistic inputs must be non-empty")
    return a, b


def ks_pairwise(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)| over the merged support of both samples."""
    a, b = _as_pair(a, b)
    a = np.sort(a)
    b = np.sort(b)
    support = np.concatenate([a, b])
    fa = np.searchsorted(a, support, side="right") / a.size
    fb = np.searchsorted(b, support, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def mw_pairwise(a, b) -> float:
    """U / (n*m) with U = #{(x, y): x < y} + ties/2, counted as exact
    integers; the same complement rounding as mw_oracle."""
    a, b = _as_pair(a, b)
    bs = np.sort(b)
    lt = int(np.sum(bs.size - np.searchsorted(bs, a, side="right")))
    le = int(np.sum(bs.size - np.searchsorted(bs, a, side="left")))
    ties = le - lt
    num2x = 2 * lt + ties          # 2 * U, an exact integer
    den2x = 2 * a.size * bs.size
    if 2 * num2x <= den2x:
        return num2x / den2x
    return 1.0 - (den2x - num2x) / den2x


def jaccard_pairwise(a, b) -> float:
    """Overlap of the value ranges divided by their union's width, from
    each sample's min and max."""
    a, b = _as_pair(a, b)
    lo_a, hi_a = float(a.min()), float(a.max())
    lo_b, hi_b = float(b.min()), float(b.max())
    union = max(hi_a, hi_b) - min(lo_a, lo_b)
    if union == 0.0:
        # both ranges are single points; width-0 union means they coincide
        return 1.0 if lo_a == lo_b else 0.0
    overlap = max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
    return overlap / union


def features_pairwise(a, b) -> np.ndarray:
    """The three DSL features of one pair, similarity-increasing."""
    mw = mw_pairwise(a, b)
    return np.array([
        1.0 - ks_pairwise(a, b),
        1.0 - 2.0 * abs(mw - 0.5),
        jaccard_pairwise(a, b),
    ])


def semantictyper_score(a, b) -> float:
    """Distribution similarity: identical samples score 1, disjoint score 0."""
    return 1.0 - ks_pairwise(a, b)


def dsl_logit(model, a, b) -> float:
    """Pre-sigmoid DSL score of one pair; same ordering as dsl_score but
    never saturates."""
    return float(np.dot(model.weights, features_pairwise(a, b)) + model.bias)


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for float64 z, exp taken only where it cannot
    overflow: of -z where z >= 0, of z elsewhere, as two masked passes.
    baselines._sigmoid, one exp(-|z|) over all of z, must equal it bit for
    bit wherever it is not NaN."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def dsl_score(model, a, b) -> float:
    """DSL probability that the pair shares a label."""
    return float(sigmoid_reference(np.array([dsl_logit(model, a, b)]))[0])


# ---------------------------------------------------------------------------
# window ops through np.pad and sliding_window_view, relu through np.where,
# batch norm out of place, products as one GEMM per 8-row tile, sampling
# through np.unique


def tiled_matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D a, as GEMM calls on exactly 8 rows each, the tail tile
    zero-padded: every row's bits depend only on the shapes."""
    m, k = a.shape
    out = np.empty((m, b.shape[1]), dtype=np.result_type(a, b))
    full = m - m % 8
    if full:
        np.matmul(a[:full].reshape(-1, 8, k), b,
                  out=out[:full].reshape(-1, 8, b.shape[1]))
    if full < m:
        tail = np.zeros((8, k), dtype=a.dtype)
        tail[: m - full] = a[full:]
        out[full:] = (tail @ b)[: m - full]
    return out


def padded_windows(x: np.ndarray, k: int, stride: int, padding: int,
                   fill: float) -> np.ndarray:
    """(B, C, L_out, k) windows of x, `stride` apart, with `padding` fill
    values at both ends of the last axis."""
    xp = x
    if padding:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)), constant_values=fill)
    out_len = (x.shape[2] + 2 * padding - k) // stride + 1
    sw = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride]
    return sw[:, :, :out_len]


def relu_reference(x):
    mask = x.data > 0
    out = make(np.where(mask, x.data, np.zeros_like(x.data)), (x,))
    if out.requires_grad:
        out._backward = lambda g, a=x, m=mask: a.accumulate(g * m)
    return out


def conv1d_reference(x, weight, *, stride: int = 1, padding: int = 0):
    """ops.conv1d's forward and backward over padded_windows."""
    b, c_in, length = x.data.shape
    c_out, _, k = weight.data.shape
    out_len = (length + 2 * padding - k) // stride + 1
    sw = padded_windows(x.data, k, stride, padding, 0.0)
    col = np.ascontiguousarray(sw.transpose(0, 2, 1, 3).reshape(b * out_len, c_in * k))
    wf = weight.data.reshape(c_out, c_in * k)
    y = tiled_matmul_reference(col, wf.T).reshape(b, out_len, c_out).transpose(0, 2, 1)
    out = make(y, (x, weight))
    if out.requires_grad:
        padded_len = length + 2 * padding

        def back(g, xt=x, wt=weight, win=col):
            g2 = g.transpose(0, 2, 1).reshape(b * out_len, c_out)
            if wt.requires_grad:
                wt.accumulate((g2.T @ win).reshape(c_out, c_in, k))
            if xt.requires_grad:
                gcol = (g2 @ wt.data.reshape(c_out, c_in * k)).reshape(
                    b, out_len, c_in, k).transpose(0, 2, 3, 1)
                gxp = np.zeros((b, c_in, padded_len), dtype=g.dtype)
                for kk in range(k):
                    gxp[:, :, kk : kk + stride * out_len : stride] += gcol[:, :, kk]
                if padding:
                    gxp = gxp[:, :, padding : padded_len - padding]
                xt.accumulate(gxp)

        out._backward = back
    return out


def batchnorm1d_reference(x, gamma, beta, running_mean, running_var, training: bool):
    """ops.batchnorm1d out of place, parameters broadcast as (1, C, 1).  With
    training=False it normalizes by the running statistics instead, the
    eval forward that embnet's frozen plan must match; that form builds no
    tape."""
    if training:
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean[None, :, None]) * inv[None, :, None]
    y = gamma.data[None, :, None] * xhat + beta.data[None, :, None]
    y = y.astype(x.data.dtype, copy=False)
    if not training:
        return Tensor(y)
    out = make(y, (x, gamma, beta))
    if out.requires_grad:

        def back(g, xt=x, gt=gamma, bt=beta, xh=xhat, iv=inv):
            if bt.requires_grad:
                bt.accumulate(g.sum(axis=(0, 2)))
            if gt.requires_grad:
                gt.accumulate((g * xh).sum(axis=(0, 2)))
            if xt.requires_grad:
                n = g.shape[0] * g.shape[2]
                sum_g = g.sum(axis=(0, 2), keepdims=True)
                sum_gx = (g * xh).sum(axis=(0, 2), keepdims=True)
                scale = (gt.data * iv)[None, :, None] / n
                xt.accumulate(scale * (n * g - sum_g - xh * sum_gx))

        out._backward = back
    return out


def maxpool1d_reference(x, kernel: int, stride: int, padding: int = 0):
    """ops.maxpool1d's forward and backward over -inf padded_windows."""
    b, c, length = x.data.shape
    sw = padded_windows(x.data, kernel, stride, padding, -np.inf)
    idx = np.argmax(sw, axis=3)
    y = np.take_along_axis(sw, idx[..., None], axis=3)[..., 0]
    out = make(y, (x,))
    if out.requires_grad:

        def back(g, xt=x, am=idx):
            gxp = np.zeros((b, c, length + 2 * padding), dtype=g.dtype)
            bb, cc, tt = np.indices(am.shape)
            np.add.at(gxp, (bb, cc, tt * stride + am), g)
            if padding:
                gxp = gxp[:, :, padding : padding + length]
            xt.accumulate(gxp)

        out._backward = back
    return out


def eval_conv_bn_reference(conv, bn, x):
    """A conv and the batch norm after it, the batch norm on its running
    statistics (batchnorm1d_reference with training=False)."""
    return batchnorm1d_reference(conv(x), bn.gamma, bn.beta, bn.running_mean,
                                 bn.running_var, training=False)


def eval_forward_reference(net, x: np.ndarray) -> np.ndarray:
    """The (B, k) eval forward of net for a (B, 1, h) array: the taped ops,
    each batch norm on its running statistics, in the network's layer
    order.  embnet's frozen plan must give its bits."""
    y = ops.relu(eval_conv_bn_reference(net.stem_conv, net.stem_bn, Tensor(x)))
    y = ops.maxpool1d(y, *POOL)
    for block in (b for blocks in net.stages for b in blocks):
        (conv1, bn1), (conv2, bn2), *proj = block.pairs
        h = ops.relu(eval_conv_bn_reference(conv1, bn1, y))
        h = eval_conv_bn_reference(conv2, bn2, h)
        for conv, bn in proj:
            y = eval_conv_bn_reference(conv, bn, y)
        y = ops.relu(h + y)
    return net.fc(ops.global_avgpool1d(y)).data


def sample_unique_reference(values, h: int) -> np.ndarray:
    """Inverse CDF on {i/h} over np.unique's support and cumulative counts;
    each result is the support value np.unique keeps for its run of equal
    values, which fixes the sign of a zero."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    support, counts = np.unique(arr, return_counts=True)
    cum_count = np.cumsum(counts, dtype=np.int64)
    i = np.arange(1, h + 1, dtype=np.int64)
    thresholds = (i * arr.size + h - 1) // h
    return support[np.searchsorted(cum_count, thresholds, side="left")]


# ---------------------------------------------------------------------------
# distances and training MRR, one query row at a time


def distances_reference(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact float64 Euclidean distances, (queries, n), from n (k,) points to
    each query row, one row of n * k differences at a time; a (k,) query gives
    an (n,) row.  Mining, training MRR and labeling all rank by it.  Squares
    underflow for points under about 1e-154 apart (to exactly 0 under 1e-162);
    distinct float32 embeddings are at least 1.4e-45 apart, far above either."""
    points, block = np.asarray(points, dtype=np.float64), np.atleast_2d(queries)
    out = np.empty((len(block), len(points)))
    for row, query in zip(out, block.astype(np.float64)):
        diff = points - query
        np.sqrt(np.einsum("ij,ij->i", diff, diff), out=row)
    return out[0] if np.ndim(queries) == 1 else out


def training_mrr_reference(embeddings: np.ndarray, labels) -> float:
    """Each row queries all the others, ranked as labeling ranks a store: by
    distance, ties by label.  The reciprocal rank of the first same-label hit
    (0 when there is none) is averaged in input order.  One row of distances
    is held at a time, so memory grows as n * k, not n * n * k."""
    emb = np.asarray(embeddings, dtype=np.float64)
    _, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    rr = np.zeros(len(emb))
    for i, row in enumerate(emb):
        order = np.lexsort((codes, distances_reference(emb, row)))
        order = order[order != i]  # by index: an inf stand-in for self can tie
        hits = np.flatnonzero(codes[order] == codes[i])
        if hits.size:
            rr[i] = 1.0 / (hits[0] + 1.0)
    return float(rr.mean())


# ---------------------------------------------------------------------------
# readers of files the package only writes


def parse_history_csv(text: str) -> list[dict]:
    """Rows of a training history CSV (metric.history_to_csv)."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for ln in lines[1:]:
        e, ml, mrr, lr = ln.split(",")
        rows.append({"epoch": int(e), "mean_loss": float(ml),
                     "train_mrr": float(mrr), "lr": float(lr)})
    return rows


def report_from_json(text: str) -> BenchmarkReport:
    """A benchmark report from its JSON form (labeling.report_to_json)."""
    doc = json.loads(text)
    return BenchmarkReport(
        method=doc["method"],
        dataset_sha256=doc["dataset_sha256"],
        per_count=tuple(PerCount(**pc) for pc in doc["per_count"]),
        total_experiments=doc["total_experiments"],
    )


def store_of(method: str, rows, model=None, dsl_model=None) -> FeatureStore:
    """A store of (label, source, feature) rows or StoreRecords, laid out as
    index_labeled lays it out: float32 embeddings stacked for embnum, raw
    values packed otherwise.  No rows give no feature block, which the store
    refuses before it reads one."""
    rows = [(r.label, r.source, r.feature) if isinstance(r, StoreRecord) else r for r in rows]
    labels = np.array([r[0] for r in rows], dtype=object)
    sources = np.array([r[1] for r in rows], dtype=object)
    features = [r[2] for r in rows]
    if not rows:
        features = None
    elif method == "embnum":
        features = np.array(features, dtype=np.float32).reshape(len(rows), -1)
    else:
        features = PackedColumns(features)
    return FeatureStore(method, labels, sources, features, model, dsl_model)


def chunk_budget(site: str, items, units: int = 1) -> int:
    """The sampling.CHUNK_BYTES at which sampling.per_chunk(site, units)
    gives `items` (rounded down, at least one), read off the site's entry
    in sampling.CHUNK_SITES; every other site moves with it."""
    share, unit_bytes = sampling.CHUNK_SITES[site]
    return max(1, int(share * unit_bytes * units * items))
