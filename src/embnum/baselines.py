"""Statistical similarity scorers used as labeling baselines.

All scorers consume raw attribute values (no sampling step).  The combined
scorer is a logistic regression over three similarity-increasing features:
1 - KS statistic, 1 - 2*|MW - 0.5|, and numeric Jaccard range overlap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._serial import atomic_write_text
from .errors import (DegenerateVariance, EmptyInput, SingleClassTraining,
                     TooFewValues)


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise EmptyInput("statistic inputs must be non-empty")
    return a, b


def ks_statistic(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)| over the merged support of both samples."""
    a, b = _as_pair(a, b)
    a = np.sort(a)
    b = np.sort(b)
    support = np.concatenate([a, b])
    fa = np.searchsorted(a, support, side="right") / a.size
    fb = np.searchsorted(b, support, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def mw_statistic(a, b) -> float:
    """U / (n*m) with U = #{(x, y): x < y} + ties/2, computed in exact
    integer arithmetic.  Rounding is arranged so that
    mw_statistic(a, b) + mw_statistic(b, a) == 1.0 holds exactly."""
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


def welch_t(a, b) -> float:
    """Unequal-variance t statistic with unbiased sample variances."""
    a, b = _as_pair(a, b)
    if a.size < 2 or b.size < 2:
        raise TooFewValues("welch_t needs at least 2 values per side")
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    if va == 0.0 and vb == 0.0:
        raise DegenerateVariance("both samples have zero variance")
    return float((np.mean(a) - np.mean(b)) / math.sqrt(va / a.size + vb / b.size))


def numeric_jaccard(a, b) -> float:
    """Overlap of the value ranges divided by their union's width."""
    a, b = _as_pair(a, b)
    lo_a, hi_a = float(a.min()), float(a.max())
    lo_b, hi_b = float(b.min()), float(b.max())
    union = max(hi_a, hi_b) - min(lo_a, lo_b)
    if union == 0.0:
        # both ranges are single points; width-0 union means they coincide
        return 1.0 if lo_a == lo_b else 0.0
    overlap = max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
    return overlap / union


def semantictyper_score(a, b) -> float:
    """Distribution similarity: identical samples score 1, disjoint score 0."""
    return 1.0 - ks_statistic(a, b)


def pair_features(a, b) -> np.ndarray:
    """Three similarity-increasing features for the combined scorer."""
    mw = mw_statistic(a, b)
    return np.array([
        1.0 - ks_statistic(a, b),
        1.0 - 2.0 * abs(mw - 0.5),
        numeric_jaccard(a, b),
    ])


class PackedColumns:
    """Stored columns laid end to end, each sorted once, for scoring one
    query against all of them in a single vectorized pass.

    Every statistic equals the scalar function's value on the same pair,
    bit for bit: counts are exact integers divided exactly as the scalar
    code divides them.
    """

    def __init__(self, columns):
        cols = [np.asarray(c, dtype=np.float64).ravel() for c in columns]
        if not cols or any(c.size == 0 for c in cols):
            raise EmptyInput("statistic inputs must be non-empty")
        self.sizes = np.array([c.size for c in cols])
        self.starts = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
        self.values = np.empty(int(self.sizes.sum()))
        self.cdf = np.empty_like(self.values)   # F_r(r_j) within each column
        for c, s in zip(cols, self.starts):
            r = np.sort(c)
            self.values[s : s + r.size] = r
            self.cdf[s : s + r.size] = np.searchsorted(r, r, side="right") / r.size

    def statistics(self, query) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(KS, MW, numeric Jaccard) of the query against every column, as
        ks_statistic(query, r), mw_statistic(query, r), numeric_jaccard(query, r)."""
        q = np.asarray(query, dtype=np.float64).ravel()
        if q.size == 0:
            raise EmptyInput("statistic inputs must be non-empty")
        m, starts = q.size, self.starts
        qs = np.sort(q)
        # stored points: |F_q(r_j) - F_r(r_j)| with F_q(r_j) = #(q <= r_j) / m
        counts = np.searchsorted(qs, self.values, side="right")
        le = np.add.reduceat(counts, starts)
        gap = counts / m
        del counts
        gap -= self.cdf
        np.abs(gap, out=gap)
        # query points: F_q - F_r peaks at the last query value below r_j,
        # where F_q = #(q < r_j) / m and F_r is the previous stored value's
        counts = np.searchsorted(qs, self.values, side="left")
        lt = np.add.reduceat(counts, starts)
        below = counts / m
        below[1:] -= self.cdf[:-1]
        below[starts] = counts[starts] / m
        del counts
        np.maximum(gap, below, out=gap)
        ks = np.maximum.reduceat(gap, starts)

        # U counts pairs with the query value below the stored one; same
        # exact-integer rounding rule as mw_statistic
        num2x = lt + le
        den2x = 2 * m * self.sizes
        mw = np.where(2 * num2x <= den2x, num2x / den2x,
                      1.0 - (den2x - num2x) / den2x)

        # the sign of a zero bound never reaches the result: the ratio only
        # sees nonzero widths, and a zero overlap is clamped to +0.0
        lo, hi = self.values[starts], self.values[starts + self.sizes - 1]
        union = np.maximum(hi, qs[-1]) - np.minimum(lo, qs[0])
        overlap = np.minimum(hi, qs[-1]) - np.maximum(lo, qs[0])
        overlap = np.where(overlap > 0.0, overlap, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            jaccard = np.where(union == 0.0, np.where(lo == qs[0], 1.0, 0.0),
                               overlap / union)
        return ks, mw, jaccard


def features_from_statistics(ks, mw, jaccard) -> np.ndarray:
    """(n, 3) rows of pair_features from per-column statistics."""
    return np.stack([1.0 - ks, 1.0 - 2.0 * np.abs(mw - 0.5), jaccard], axis=1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray          # 3 feature weights
    bias: float
    meta: dict = field(default_factory=dict, compare=False)

    def logit(self, features: np.ndarray) -> float:
        return float(np.dot(self.weights, np.asarray(features, dtype=np.float64))
                     + self.bias)

    def logits(self, features: np.ndarray) -> np.ndarray:
        """logit() of each row, bit for bit: one np.dot per row, since a
        matrix product is free to sum the three terms in another order."""
        return np.array([np.dot(self.weights, row) for row in features]) + self.bias

    def probability(self, features: np.ndarray) -> float:
        return float(_sigmoid(np.array([self.logit(features)]))[0])


def dsl_train(pairs: list[tuple[tuple, bool]], iters: int = 500,
              lr: float = 0.5) -> LogisticModel:
    """Full-batch gradient descent on logistic loss; deterministic in the
    given pair order.  pairs: [((values_a, values_b), same_label), ...]."""
    if not pairs:
        raise SingleClassTraining("no training pairs")
    x = np.stack([pair_features(a, b) for (a, b), _ in pairs])
    y = np.array([1.0 if same else 0.0 for _, same in pairs])
    if y.min() == y.max():
        raise SingleClassTraining("training pairs must include both classes")
    w = np.zeros(3)
    bias = 0.0
    n = len(y)
    for _ in range(iters):
        resid = _sigmoid(x @ w + bias) - y
        w = w - lr * (x.T @ resid) / n
        bias = bias - lr * float(resid.mean())
    return LogisticModel(weights=w, bias=bias,
                         meta={"iters": iters, "lr": lr, "pairs": n})


def dsl_score(model: LogisticModel, a, b) -> float:
    return model.probability(pair_features(a, b))


def dsl_logit(model: LogisticModel, a, b) -> float:
    """Pre-sigmoid score; same ordering as dsl_score but never saturates."""
    return model.logit(pair_features(a, b))


def save_dsl_model(model: LogisticModel, path: Path) -> None:
    doc = [float(model.weights[0]), float(model.weights[1]),
           float(model.weights[2]), float(model.bias)]
    atomic_write_text(Path(path), json.dumps(doc) + "\n")


def load_dsl_model(path: Path) -> LogisticModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    w1, w2, w3, bias = (float(v) for v in doc)
    return LogisticModel(weights=np.array([w1, w2, w3]), bias=bias)


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
