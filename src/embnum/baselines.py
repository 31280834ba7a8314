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
from itertools import groupby
from pathlib import Path

import numpy as np

from . import _serial
from .errors import EmptyInput, MalformedDslModel, SingleClassTraining

DSL_ITERS, DSL_LR = 500, 0.5  # dsl_train's gradient-descent steps and rate


class PackedColumns:
    """Stored columns laid end to end, each sorted once, for scoring one
    query against all of them in a single vectorized pass.  A column scores
    the same, bit for bit, alone or in any store: counts are exact integers
    and no arithmetic crosses a column boundary."""

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

    def take(self, keep: np.ndarray) -> PackedColumns:
        """The columns where the boolean mask `keep` is set, sliced out of
        this pack without sorting again: bit for bit the arrays that packing
        those columns afresh gives."""
        sub = copy.copy(self)
        sub.sizes = self.sizes[keep]
        sub.starts = np.concatenate([[0], np.cumsum(sub.sizes)[:-1]])
        rows = np.repeat(keep, self.sizes)
        sub.values, sub.cdf = self.values[rows], self.cdf[rows]
        return sub

    def statistics(self, query) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(KS, MW, numeric Jaccard) of the query q against every column r:
        sup |F_q - F_r|; U / (m*n) with U = #(x < y) + ties/2 over x in q,
        y in r; and range overlap / range union, 1.0 for coinciding points."""
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

        # U counts pairs with the query value below the stored one; above one
        # half the complement is rounded, so MW(q, r) + MW(r, q) == 1.0
        num2x = lt + le
        den2x = 2 * m * self.sizes
        mw = np.where(2 * num2x <= den2x, num2x / den2x,
                      1.0 - (den2x - num2x) / den2x)

        # the sign of a zero bound never reaches the result: the ratio only
        # sees nonzero widths, and a zero overlap is clamped to +0.0; a
        # zero-width union means both ranges are the same single point
        lo, hi = self.values[starts], self.values[starts + self.sizes - 1]
        union = np.maximum(hi, qs[-1]) - np.minimum(lo, qs[0])
        overlap = np.minimum(hi, qs[-1]) - np.maximum(lo, qs[0])
        overlap = np.where(overlap > 0.0, overlap, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            jaccard = np.where(union == 0.0, 1.0, overlap / union)
        return ks, mw, jaccard


def features_from_statistics(ks, mw, jaccard) -> np.ndarray:
    """(n, 3) rows of the DSL features from per-column statistics."""
    return np.stack([1.0 - ks, 1.0 - 2.0 * np.abs(mw - 0.5), jaccard], axis=1)


def ks_statistic(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)|."""
    return float(PackedColumns([b]).statistics(a)[0][0])


def mw_statistic(a, b) -> float:
    """P(x < y) + P(x == y)/2 for x in a, y in b; mw(a, b) + mw(b, a) == 1.0."""
    return float(PackedColumns([b]).statistics(a)[1][0])


def numeric_jaccard(a, b) -> float:
    """Overlap of the value ranges divided by their union's width."""
    return float(PackedColumns([b]).statistics(a)[2][0])


def pair_features(a, b) -> np.ndarray:
    """The three DSL features of one pair."""
    return features_from_statistics(*PackedColumns([b]).statistics(a))[0]


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

    def logits(self, features: np.ndarray) -> np.ndarray:
        """weights . row + bias for each row, one np.dot per row, since a
        matrix product is free to sum the three terms in another order."""
        return np.array([np.dot(self.weights, row) for row in features]) + self.bias


def dsl_train(pairs: list[tuple[tuple, bool]]) -> LogisticModel:
    """Full-batch gradient descent on logistic loss; deterministic in the
    given pair order.  pairs: [((values_a, values_b), same_label), ...];
    each run of pairs sharing one values_a object is scored as one store."""
    if not pairs:
        raise SingleClassTraining("no training pairs")
    blocks = []
    for _, run in groupby(pairs, key=lambda pair: id(pair[0][0])):
        firsts, seconds = zip(*(ab for ab, _ in run))
        blocks.append(features_from_statistics(*PackedColumns(seconds).statistics(firsts[0])))
    x = np.concatenate(blocks)
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
    dataset's attribute order (deterministic).  Pairs that share their first
    attribute come consecutively, so dsl_train scores them as one store."""
    attrs = dataset.attributes
    pairs = []
    for i in range(len(attrs)):
        for j in range(i + 1, len(attrs)):
            pairs.append(((attrs[i].values, attrs[j].values),
                          attrs[i].label == attrs[j].label))
    return pairs
