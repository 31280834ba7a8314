"""Independent reference implementations used to cross-check the library.

Each function here recomputes a result by a different route than the
production code (pure-Python loops, Fraction arithmetic, brute-force pair
counting) so that agreement is evidence, not tautology.  The pairwise
scorers at the end are the exception: they state, one pair at a time, what
the library's store-wide scoring must equal bit for bit.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

import numpy as np

from embnum.baselines import _sigmoid, ks_statistic, pair_features
from embnum.labeling import BenchmarkReport, PerCount


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
    """Interval overlap / interval union of the two value ranges."""
    lo_a, hi_a = min(a), max(a)
    lo_b, hi_b = min(b), max(b)
    inter = min(hi_a, hi_b) - max(lo_a, lo_b)
    union = max(hi_a, hi_b) - min(lo_a, lo_b)
    if union == 0.0:
        return 1.0 if (lo_a, hi_a) == (lo_b, hi_b) else 0.0
    return max(inter, 0.0) / union


def distance_oracle(a, b) -> float:
    """Euclidean distance by math.dist, which sums without numpy."""
    return math.dist([float(v) for v in a], [float(v) for v in b])


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


def semantictyper_score(a, b) -> float:
    """Distribution similarity: identical samples score 1, disjoint score 0."""
    return 1.0 - ks_statistic(a, b)


def dsl_logit(model, a, b) -> float:
    """Pre-sigmoid DSL score of one pair; same ordering as dsl_score but
    never saturates."""
    return float(np.dot(model.weights, pair_features(a, b)) + model.bias)


def dsl_score(model, a, b) -> float:
    """DSL probability that the pair shares a label."""
    return float(_sigmoid(np.array([dsl_logit(model, a, b)]))[0])


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
