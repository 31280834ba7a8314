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

from . import _serial
from .errors import EmptyInput, MalformedDslModel, SingleClassTraining

DSL_ITERS, DSL_LR = 500, 0.5  # dsl_train's gradient-descent steps and rate
SCORE_CHUNK = 1 << 17  # stored values gathered per pass of PackedColumns.statistics


class PackedColumns:
    """Stored columns laid end to end, each sorted once as the pack is built,
    for scoring a batch of queries against all of them in a few vectorized
    passes; like an embedding matrix, it has a length, rows (each column's
    sorted values) and boolean-mask indexing.  Each column's CDF at its
    values is built on first use.  A query visits only the run of each
    column from the last value below min(q) to the first value above max(q):
    beyond that run |F_q - F_r| only falls, and each value above max(q) adds
    m to the Mann-Whitney counts.  Each visited value r_j costs one binary
    search in the sorted query, for #(q <= r_j); #(q < r_j) differs only
    where r_j equals a query value, and is read there from the query's own
    #(q < q_i), built once per call.  A column scores the same, bit for bit,
    alone or in any store or batch: counts are exact integers and no
    arithmetic crosses a column boundary."""

    def __init__(self, columns):
        cols = [np.asarray(c, dtype=np.float64).ravel() for c in columns]
        if not cols or any(c.size == 0 for c in cols):
            raise EmptyInput("statistic inputs must be non-empty")
        self.sizes = np.array([c.size for c in cols])
        self.starts = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
        self.values = np.empty(int(self.sizes.sum()))
        for c, s in zip(cols, self.starts):
            self.values[s : s + c.size] = np.sort(c)

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
        sub.starts = np.concatenate([[0], np.cumsum(sub.sizes)[:-1]])
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

        The runs of every (query, column) pair are gathered and scored in
        chunks of at most SCORE_CHUNK stored values, or one longer run; a
        chunk holds about 64 bytes per value, some 8 MB at SCORE_CHUNK."""
        qs = [np.sort(np.asarray(q, dtype=np.float64).ravel()) for q in queries]
        if not qs or any(q.size == 0 for q in qs):
            raise EmptyInput("statistic inputs must be non-empty")
        n_q, n_c = len(qs), self.sizes.size
        m = np.array([q.size for q in qs])
        tops = np.cumsum(m)
        q_lo, q_hi = np.concatenate(qs)[[tops - m, tops - 1]]
        if not np.isfinite([q_lo, q_hi]).all():
            raise EmptyInput("value list contains non-finite entries")
        ends = self.starts + self.sizes
        lo, hi = self._bisect(q_lo, q_hi)
        first = np.maximum(lo - 1, self.starts).ravel()   # last value below min(q)
        last = np.minimum(hi, ends - 1)                   # first value above max(q)
        bounds = np.concatenate([[0], np.cumsum(last.ravel() - first + 1)])
        cuts = [0]   # runs [a, b) of one chunk, at least one run each
        while cuts[-1] < n_q * n_c:
            a = cuts[-1]
            cuts.append(max(a + 1, int(np.searchsorted(bounds, bounds[a] + SCORE_CHUNK,
                                                       "right")) - 1))
        # #(q < q_i) at each index i of query k, built when a value first ties it
        lt_of = cache(lambda k: qs[k].searchsorted(qs[k], "left"))
        ks, lt, le = (np.concatenate(part).reshape(n_q, n_c) for part in zip(
            *(self._score_runs(qs, lt_of, first, bounds, a, b) for a, b in zip(cuts, cuts[1:]))))

        # U counts pairs with the query value below the stored one; above one
        # half the complement is rounded, so MW(q, r) + MW(r, q) == 1.0
        num2x = lt + le + 2 * m[:, None] * (ends - 1 - last)   # values past the run
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
        with np.errstate(over="ignore"):
            scale = np.where(np.isinf(top - bottom), 0.5, 1.0)
        union = top * scale - bottom * scale
        overlap = np.minimum(r_hi, q_hi) * scale - np.maximum(r_lo, q_lo) * scale
        overlap = np.where(overlap > 0.0, overlap, 0.0)
        jaccard = np.divide(overlap, union, out=np.ones_like(union), where=union != 0.0)
        return ks, mw, jaccard

    def _bisect(self, q_lo, q_hi) -> tuple[np.ndarray, np.ndarray]:
        """(queries, columns) global indices of the first value >= q_lo and
        of the first value > q_hi in each column: one bisection over
        column-length arrays, a column's last index capping every probe."""
        n_q = q_lo.size
        targets = np.concatenate([q_lo, q_hi])[:, None]
        cap = self.starts + self.sizes - 1
        pos = np.repeat((self.starts - 1)[None], 2 * n_q, axis=0)  # last index below
        ahead = np.empty(pos.shape, dtype=bool)
        step = 1 << (int(self.sizes.max()).bit_length() - 1)
        while step:
            probe = np.minimum(pos + step, cap)
            seen = self.values[probe]
            np.less(seen[:n_q], targets[:n_q], out=ahead[:n_q])
            np.less_equal(seen[n_q:], targets[n_q:], out=ahead[n_q:])
            np.copyto(pos, probe, where=ahead)
            step >>= 1
        return pos[:n_q] + 1, pos[n_q:] + 1

    def _score_runs(self, qs, lt_of, first, bounds, a, b):
        """(max gap, #(q < r_j) sum, #(q <= r_j) sum) over each of the flat
        (query, column) runs [a, b): one gather, one binary search per
        gathered value, and one pass over the chunk.  From the first query
        that ties a gathered value on, #(q < r_j) is kept apart from
        #(q <= r_j), in the spent index buffer; with no tie, the #(q <= r_j)
        sums serve both."""
        n_c = self.sizes.size
        lengths = np.diff(bounds[a : b + 1])
        offsets = bounds[a:b] - bounds[a]
        idx = np.repeat(first[a:b] - offsets, lengths) + np.arange(offsets[-1] + lengths[-1])
        seen, cdf = self.values[idx], self.cdf[idx]
        n_le = np.empty(idx.size, dtype=np.intp)
        gap = np.empty(idx.size)     # F_q(r_j) = #(q <= r_j) / m, then the gap there
        below = np.empty(idx.size)   # #(q < r_j) / m, then the gap below r_j
        n_lt = n_le                  # until a value ties: then idx's buffer
        q0 = a // n_c
        cuts = bounds[np.clip(np.arange(q0, (b - 1) // n_c + 2) * n_c, a, b)] - bounds[a]
        for k, i, j in zip(range(q0, len(qs)), cuts.tolist(), cuts[1:].tolist()):
            q = qs[k]
            top = q.searchsorted(seen[i:j], "right")   # #(q <= r_j)
            n_le[i:j] = top
            np.divide(top, q.size, out=gap[i:j])
            top -= 1   # the index of the last query value <= r_j
            # #(q < r_j) differs only where that value is r_j itself (==
            # holds for -0.0 and +0.0, as in the search); at #(q <= r_j) == 0
            # the index wraps to max(q), which is above r_j
            tie = q[top] == seen[i:j]
            if n_lt is n_le and tie.any():
                n_lt = idx
                n_lt[:i] = n_le[:i]
            if n_lt is n_le:
                below[i:j] = gap[i:j]
            else:
                n_lt[i:j] = n_le[i:j]
                np.copyto(n_lt[i:j], lt_of(k)[top], where=tie)
                np.divide(n_lt[i:j], q.size, out=below[i:j])
        # stored points: |F_q(r_j) - F_r(r_j)|
        gap -= cdf
        np.abs(gap, out=gap)
        # query points: F_q - F_r peaks at the last query value below r_j,
        # where F_q = #(q < r_j) / m and F_r is the previous stored value's:
        # the run's own, or at its head the one before (none at a column start)
        head = first[a:b]
        before = np.where(head == self.starts[np.arange(a, b) % n_c], 0.0, self.cdf[head - 1])
        heads = below[offsets] - before
        below[1:] -= cdf[:-1]
        below[offsets] = heads
        np.maximum(gap, below, out=gap)
        le_sums = np.add.reduceat(n_le, offsets)
        lt_sums = le_sums if n_lt is n_le else np.add.reduceat(n_lt, offsets)
        return np.maximum.reduceat(gap, offsets), lt_sums, le_sums


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
