"""Fixed-length resampling of numeric columns through the empirical inverse CDF.

A column of n values is treated as a discrete distribution.  Its empirical
CDF is F(v) = (#values <= v) / n, and the inverse F^{-1}(p) = min{v : F(v) >= p}.
Evaluating the inverse on the even probability grid {i/h : i = 1..h} turns a
column of any length into a sorted vector of exactly h values drawn from the
column itself, preserving the shape of the distribution.

Quantile boundary comparisons (is i/h <= count/n ?) are done on integers via
cross-multiplication, never on floats, so grid points that land exactly on a
CDF step are resolved exactly.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyInput, InvalidWidth, ProbabilityOutOfRange


@dataclass(frozen=True)
class CdfTable:
    """Empirical CDF of a value multiset.

    support: sorted distinct values.
    cum_count: cum_count[i] = number of values <= support[i]; last entry == n.
    """

    support: np.ndarray
    cum_count: np.ndarray
    n: int


def _as_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise EmptyInput("value list is empty")
    if not np.all(np.isfinite(arr)):
        raise EmptyInput("value list contains non-finite entries")
    return arr


def empirical_cdf(values) -> CdfTable:
    """Build the empirical CDF table of a non-empty list of finite values."""
    arr = _as_values(values)
    support, counts = np.unique(arr, return_counts=True)
    cum = np.cumsum(counts, dtype=np.int64)
    return CdfTable(support=support, cum_count=cum, n=int(arr.size))


def inverse_cdf(cdf: CdfTable, p: float) -> float:
    """Return min{v in support : F(v) >= p} for p in (0, 1].

    The comparison F(v) >= p is evaluated exactly: p is taken as the rational
    number the float represents, and count/n >= p is decided in integer
    arithmetic.
    """
    if not (0.0 < p <= 1.0):
        raise ProbabilityOutOfRange(f"p must be in (0, 1], got {p!r}")
    frac = Fraction(p)
    # count/n >= num/den  <=>  count*den >= num*n
    threshold = -((-frac.numerator * cdf.n) // frac.denominator)  # ceil
    idx = int(np.searchsorted(cdf.cum_count, threshold, side="left"))
    return float(cdf.support[idx])


def sample_inverse_transform(values, h: int) -> np.ndarray:
    """Evaluate the inverse empirical CDF on the grid {i/h : i = 1..h}.

    Output is a non-decreasing vector of h values, each taken from the input,
    computed deterministically with exact quantile-boundary arithmetic.
    """
    _check_width(h)
    cdf = empirical_cdf(values)
    i = np.arange(1, h + 1, dtype=np.int64)
    # min{v : count(v) / n >= i / h}  <=>  count(v) >= ceil(i * n / h)
    thresholds = (i * cdf.n + h - 1) // h
    idx = np.searchsorted(cdf.cum_count, thresholds, side="left")
    return cdf.support[idx].astype(np.float64)


def sample_random_choice(values, h: int, seed: int) -> np.ndarray:
    """Draw h values uniformly with replacement (seeded), sorted ascending."""
    _check_width(h)
    arr = _as_values(values)
    rng = np.random.default_rng(seed)
    picked = rng.choice(arr, size=h, replace=True)
    picked.sort()
    return picked


def _check_width(h) -> None:
    if not isinstance(h, (int, np.integer)) or h < 1:
        raise InvalidWidth(f"h must be a positive integer, got {h!r}")
