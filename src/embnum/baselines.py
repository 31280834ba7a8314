"""Statistical similarity scorers used as labeling baselines.

All scorers consume raw attribute values (no sampling step).  PackedColumns
holds the only KS, Mann-Whitney and numeric Jaccard code; the pairwise
functions and DSL training call it.  The combined (DSL) scorer is a logistic
regression over 1 - KS, 1 - 2*|MW - 0.5| and numeric Jaccard range overlap.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from . import _serial, sampling
from .errors import EmptyInput, MalformedDslModel, SingleClassTraining
from .sampling import sort_columns

DSL_ITERS, DSL_LR = 500, 0.5  # dsl_train's gradient-descent steps and rate
_NAN = np.full(1, np.nan)   # put ahead of each sorted query: it equals no value


class PackedColumns:
    """Stored columns laid end to end, each sorted once by sampling.sort_columns,
    for scoring a batch of queries against all of them in a few vectorized
    passes; like an embedding matrix, it has a length, rows (each column's
    sorted values) and boolean-mask indexing.  Each column's CDF at its
    values is built on first use.  A query visits only the run of each
    column from the last value below min(q) to the first value above max(q):
    beyond that run |F_q - F_r| only falls, and each value above max(q) adds
    m to the Mann-Whitney counts.  Each visited value r_j costs one binary
    search in the sorted query, for #(q <= r_j); #(q < r_j) differs only
    where r_j equals a query value.  Each chunk finds those ties in one pass,
    and reads #(q < r_j) there off where r_j's run starts in its query.  A
    column scores the same, bit for bit, alone or in any store or batch:
    counts are exact integers and no arithmetic crosses a column boundary."""

    def __init__(self, columns):
        cols = [np.asarray(c, dtype=np.float64).ravel() for c in columns]
        if not cols or any(c.size == 0 for c in cols):
            raise EmptyInput("statistic inputs must be non-empty")
        self.values, self.sizes, self.starts = sort_columns(cols)

    def __len__(self) -> int:
        return self.sizes.size

    def __iter__(self):
        return iter(np.split(self.values, self.starts[1:]))

    @cached_property
    def cdf(self) -> np.ndarray:
        """F_r(r_j) at each stored value r_j, within its column r."""
        return np.concatenate([np.searchsorted(r, r, side="right") / r.size for r in self])

    def __getitem__(self, keep: np.ndarray) -> PackedColumns:
        """The columns where the boolean mask `keep` is set, sliced out of
        this pack without sorting again: bit for bit the arrays that packing
        those columns afresh gives, this pack's CDF built once and sliced."""
        sub = copy.copy(self)
        sub.sizes = self.sizes[keep]
        sub.starts = np.cumsum(sub.sizes) - sub.sizes
        rows = np.repeat(keep, self.sizes)
        sub.values, sub.cdf = self.values[rows], self.cdf[rows]
        return sub

    def statistics(self, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(KS, MW, numeric Jaccard) of each query q against every column r:
        sup |F_q - F_r|; U / (m*n) with U = #(x < y) + ties/2 over x in q,
        y in r; and range overlap / range union, 1.0 for coinciding points.
        Given a sequence of value arrays, each statistic is a (queries,
        columns) array.  A query that is empty or holds NaN or an infinity
        (which its sort puts at an end) is EmptyInput.

        Runs of every (query, column) pair are scored in chunks of at most
        sampling.per_chunk("score") gathered values, or one longer run: a call
        peaks within 42 bytes per value of its largest chunk, 24 more per tie,
        256 per (query, column) pair ("raw_pair") and 64 per query value."""
        qs = [np.sort(np.asarray(q, dtype=np.float64).ravel()) for q in queries]
        if not qs or any(q.size == 0 for q in qs):
            raise EmptyInput("statistic inputs must be non-empty")
        n_q, n_c, m = len(qs), self.sizes.size, np.array([q.size for q in qs])
        flat = np.concatenate([part for q in qs for part in (_NAN, q)])
        pad = np.cumsum(m + 1) - m - 1   # the index of each query's NaN in flat
        q_lo, q_hi = extremes = flat[[pad + 1, pad + m]]
        if not np.isfinite(extremes).all():
            raise EmptyInput("value list contains non-finite entries")
        ends = self.starts + self.sizes
        lo, hi = self._bisect(q_lo, q_hi)
        first = np.maximum(lo - 1, self.starts)   # last value below min(q)
        last = np.minimum(hi, ends - 1)           # first value above max(q)
        # F_r below each run: the value before its head's, none at a column start
        before = np.where(first > self.starts, self.cdf[first - 1], 0.0).ravel()
        spans = last - first + 1
        bounds = np.concatenate([[0], np.cumsum(spans)])
        cuts = [0]   # runs [a, b) of one chunk, at least one run each
        chunk = sampling.per_chunk("score")   # gathered values, at 42 + 24 bytes
        while cuts[-1] < n_q * n_c:
            a = cuts[-1]
            cuts.append(max(a + 1, int(np.searchsorted(bounds, bounds[a] + chunk, "right")) - 1))
        @cache   # built when a value first ties
        def runs():   # at each query value in flat: the index before its run
            # of equal values (the query's NaN if none), and #(q < value) / m
            new = np.concatenate([[True], flat[1:] != flat[:-1]])   # a NaN equals nothing
            lower = np.maximum.accumulate(np.where(new, np.arange(flat.size), 0)) - 1
            return lower, (lower - np.repeat(pad, m + 1)) / np.repeat(m, m + 1)
        held = bounds[::n_c].tolist()   # where each query's gathered values start
        parts = list(zip(qs, pad.tolist(), held, held[1:]))
        ks, lt, le = (np.concatenate(chunks).reshape(n_q, n_c) for chunks in zip(*(
            self._score_runs(parts, flat, runs, first.ravel(), before, bounds, a, b)
            for a, b in zip(cuts, cuts[1:]))))

        # lt and le count each run's values from its query's NaN.  U counts
        # pairs with the query value below the stored one; above one half
        # the complement is rounded, so MW(q, r) + MW(r, q) == 1.0
        num2x = lt + le + 2 * (m[:, None] * (ends - 1 - last) - pad[:, None] * spans)
        den2x = 2 * m[:, None] * self.sizes
        mw = np.where(2 * num2x <= den2x, num2x / den2x,
                      1.0 - (den2x - num2x) / den2x)

        # the sign of a zero bound never reaches the result: the ratio only
        # sees nonzero widths, and a zero overlap is clamped to +0.0; a
        # zero-width union means both ranges are the same single point.  Only
        # where the union overflows do both widths come from halved bounds:
        # halving rounds subnormal bounds, by 2.5e-324 at most, which only a
        # union far below 1e308 would notice
        r_lo, r_hi = self.values[self.starts], self.values[ends - 1]
        q_lo, q_hi = q_lo[:, None], q_hi[:, None]
        top, bottom = np.maximum(r_hi, q_hi), np.minimum(r_lo, q_lo)
        hi, lo = np.minimum(r_hi, q_hi), np.maximum(r_lo, q_lo)
        with np.errstate(over="ignore"):
            union = top - bottom
        if np.isinf(union).any():
            scale = np.where(np.isinf(union), 0.5, 1.0)
            union, hi, lo = top * scale - bottom * scale, hi * scale, lo * scale
        overlap = hi - lo
        overlap = np.where(overlap > 0.0, overlap, 0.0)
        jaccard = np.divide(overlap, union, out=np.ones_like(union), where=union != 0.0)
        return ks, mw, jaccard

    def _bisect(self, q_lo, q_hi) -> tuple[np.ndarray, np.ndarray]:
        """(queries, columns) global indices of the first value >= q_lo and
        of the first value > q_hi in each column: one bisection over
        column-length arrays, a column's last index capping every probe, and
        one compare per step, as v <= q_hi exactly when v < nextafter(q_hi, inf)."""
        n_q = q_lo.size
        targets = np.concatenate([q_lo, np.nextafter(q_hi, np.inf)])[:, None]
        cap = self.starts + self.sizes - 1
        pos = np.repeat((self.starts - 1)[None], 2 * n_q, axis=0)  # last index below
        probe, seen, ahead = np.empty_like(pos), np.empty(pos.shape), np.empty(pos.shape, bool)
        step = 1 << (int(self.sizes.max()).bit_length() - 1)
        while step:
            np.minimum(np.add(pos, step, out=probe), cap, out=probe)
            np.less(self.values.take(probe, out=seen), targets, out=ahead)
            np.copyto(pos, probe, where=ahead)
            step >>= 1
        return pos[:n_q] + 1, pos[n_q:] + 1

    def _score_runs(self, parts, flat, runs, first, before, bounds, a, b):
        """(max gap, #(q < r_j) sum, #(q <= r_j) sum) over each of the flat
        (query, column) runs [a, b), the sums counted from the query's NaN:
        one gather, one binary search per gathered value, and a few passes
        over the chunk.  parts holds each query's sorted values, the index of
        its NaN in `flat` and the bounds of its gathered values.  The spent
        index buffer keeps each count as the index in `flat` of the last query
        value <= r_j (the NaN if none), or, where that value is r_j, of the
        value before its run."""
        n_c, base, stop = self.sizes.size, int(bounds[a]), int(bounds[b])
        offsets = bounds[a:b] - base
        idx = np.repeat(first[a:b] - offsets, bounds[a + 1 : b + 1] - bounds[a:b])
        idx += np.arange(stop - base)
        seen, cdf = self.values[idx], self.cdf[idx]
        gap = np.empty(idx.size)   # F_q(r_j) = #(q <= r_j) / m, then the gap there
        for q, p, i, j in parts[a // n_c : (b - 1) // n_c + 1]:
            i, j = max(i, base) - base, min(j, stop) - base
            top = q.searchsorted(seen[i:j], "right")   # #(q <= r_j)
            np.divide(top, q.size, out=gap[i:j])
            np.add(top, p, out=idx[i:j])
        del top   # before the tie pass; == holds for -0.0 and +0.0, and NaN ties nothing
        at = np.flatnonzero(flat[idx] == seen)
        le = lt = np.add.reduceat(idx, offsets)
        stored = np.abs(np.subtract(gap, cdf, out=seen), out=seen)   # |F_q(r_j) - F_r(r_j)|
        if at.size:
            lower, below_frac = runs()
            tied = idx[at]
            idx[at] = lower[tied]
            lt = np.add.reduceat(idx, offsets)
            gap[at] = below_frac[tied]   # F_q just below r_j
        # query points: F_q - F_r peaks at the last query value below r_j,
        # where F_q = #(q < r_j) / m and F_r is the previous stored value's:
        # the run's own, or at its head the one before
        heads = gap[offsets] - before[a:b]
        np.subtract(gap[1:], cdf[:-1], out=gap[1:])
        gap[offsets] = heads
        np.maximum(stored, gap, out=gap)
        return np.maximum.reduceat(gap, offsets), lt, le


def features_from_statistics(ks, mw, jaccard) -> np.ndarray:
    """(n, 3) rows of the DSL features from per-column statistics."""
    return np.stack([1.0 - ks, 1.0 - 2.0 * np.abs(mw - 0.5), jaccard], axis=1)


def ks_statistic(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)|."""
    return float(PackedColumns([b]).statistics([a])[0][0, 0])


def mw_statistic(a, b) -> float:
    """P(x < y) + P(x == y)/2 for x in a, y in b; mw(a, b) + mw(b, a) == 1.0."""
    return float(PackedColumns([b]).statistics([a])[1][0, 0])


def numeric_jaccard(a, b) -> float:
    """Overlap of the value ranges divided by their union's width."""
    return float(PackedColumns([b]).statistics([a])[2][0, 0])


def pair_features(a, b) -> np.ndarray:
    """The three DSL features of one pair."""
    return features_from_statistics(*(s[0] for s in PackedColumns([b]).statistics([a])))[0]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for float64 z, with one exp that never overflows:
    e = exp(-|z|) gives 1 / (1 + e) for z >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray          # 3 feature weights
    bias: float

    def logits(self, features: np.ndarray) -> np.ndarray:
        """row . weights + bias for each row of an (n, 3) block: one stacked
        (1, 3) x (3,) product per row, which makes the dot call np.dot makes
        for that row alone, and so sums the three terms in its order; a
        single (n, 3) x (3,) product is free to sum them in another."""
        return np.matmul(features[:, None, :], self.weights)[:, 0] + self.bias


def dsl_train(pairs: list[tuple[tuple, bool]]) -> LogisticModel:
    """Full-batch gradient descent on logistic loss; deterministic in the
    given pair order.  pairs: [((values_a, values_b), same_label), ...]; the
    distinct values_a objects are scored as one batch against a store of
    the distinct values_b objects, in one call."""
    if not pairs:
        raise SingleClassTraining("no training pairs")
    firsts, seconds = {}, {}   # id -> (position, values)
    for (a, b), _ in pairs:
        firsts.setdefault(id(a), (len(firsts), a))
        seconds.setdefault(id(b), (len(seconds), b))
    stats = PackedColumns([b for _, b in seconds.values()]).statistics(
        [a for _, a in firsts.values()])
    at = ([firsts[id(a)][0] for (a, _), _ in pairs], [seconds[id(b)][0] for (_, b), _ in pairs])
    x = features_from_statistics(*(s[at] for s in stats))
    y = np.array([1.0 if same else 0.0 for _, same in pairs])
    if y.min() == y.max():
        raise SingleClassTraining("training pairs must include both classes")
    w = np.zeros(3)
    bias = 0.0
    n = len(y)
    for _ in range(DSL_ITERS):
        resid = _sigmoid(x @ w + bias) - y
        w = w - DSL_LR * (x.T @ resid) / n
        bias = bias - DSL_LR * float(resid.mean())
    return LogisticModel(weights=w, bias=bias)


def dsl_model_to_doc(model: LogisticModel) -> list[float]:
    """The four numbers [w1, w2, w3, bias] that stores and weight files hold."""
    return [float(w) for w in model.weights] + [float(model.bias)]


DSL_WEIGHTS = [float] * 4  # [w1, w2, w3, bias]


def dsl_model_from_doc(doc) -> LogisticModel:
    """Inverse of dsl_model_to_doc; anything but DSL_WEIGHTS is
    MalformedDslModel."""
    _serial.check(doc, DSL_WEIGHTS, MalformedDslModel, "dsl weights")
    w1, w2, w3, bias = map(float, doc)
    return LogisticModel(weights=np.array([w1, w2, w3]), bias=bias)


def save_dsl_model(model: LogisticModel, path: Path) -> None:
    _serial.atomic_write_text(Path(path), json.dumps(dsl_model_to_doc(model)) + "\n")


def load_dsl_model(path: Path) -> LogisticModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise MalformedDslModel(f"{path}: not a JSON weights file ({exc})") from None
    return dsl_model_from_doc(doc)


def make_training_pairs(dataset) -> list[tuple[tuple, bool]]:
    """All unordered attribute pairs with a same-label flag, in the
    dataset's attribute order (deterministic)."""
    attrs = dataset.attributes
    pairs = []
    for i in range(len(attrs)):
        for j in range(i + 1, len(attrs)):
            pairs.append(((attrs[i].values, attrs[j].values),
                          attrs[i].label == attrs[j].label))
    return pairs
