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

import numpy as np

from .errors import EmptyInput, InvalidWidth


def sample_inverse_transform(values, h: int) -> np.ndarray:
    """Evaluate the inverse empirical CDF on the grid {i/h : i = 1..h}.

    Output is a non-decreasing vector of h values, each taken from the input,
    computed deterministically with exact quantile-boundary arithmetic.
    """
    if not isinstance(h, (int, np.integer)) or h < 1:
        raise InvalidWidth(f"h must be a positive integer, got {h!r}")
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptyInput("value list is empty")
    if not np.all(np.isfinite(arr)):
        raise EmptyInput("value list contains non-finite entries")
    support, counts = np.unique(arr, return_counts=True)
    cum_count = np.cumsum(counts, dtype=np.int64)   # #values <= support[j]
    i = np.arange(1, h + 1, dtype=np.int64)
    # min{v : count(v) / n >= i / h}  <=>  count(v) >= ceil(i * n / h)
    thresholds = (i * arr.size + h - 1) // h
    return support[np.searchsorted(cum_count, thresholds, side="left")]
