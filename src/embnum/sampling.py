"""Fixed-length resampling of numeric columns through the empirical inverse CDF.

A column of n values is treated as a discrete distribution.  Its empirical
CDF is F(v) = (#values <= v) / n, and the inverse F^{-1}(p) = min{v : F(v) >= p}.
Evaluating the inverse on the even probability grid {i/h : i = 1..h} turns a
column of any length into a sorted vector of exactly h values drawn from the
column itself, preserving the shape of the distribution.

Quantile boundary comparisons (is i/h <= count/n ?) are done on integers via
cross-multiplication, never on floats, so grid points that land exactly on a
CDF step are resolved exactly: F^{-1}(i/h) is the ceil(i*n/h)-th smallest
value, read from one sort of the column.  Each pick is then replaced by the
first member of its run of equal values, so a column that mixes -0.0 and 0.0
always yields the one that sorts first.
"""

import numpy as np

from .errors import EmptyInput, InvalidWidth

# The widest grid (40 times the paper's h = 100): it bounds the h values held
# per sampled column before a width from a checkpoint or flag allocates them.
MAX_H = 4096


def sample_inverse_transform(values, h: int) -> np.ndarray:
    """Evaluate the inverse empirical CDF on the grid {i/h : i = 1..h}.

    Output is a non-decreasing vector of h values, each taken from the input,
    computed deterministically with exact quantile-boundary arithmetic.
    """
    if not isinstance(h, (int, np.integer)) or not 1 <= h <= MAX_H:
        raise InvalidWidth(f"h must be an integer from 1 to {MAX_H}, got {h!r}")
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptyInput("value list is empty")
    if not np.all(np.isfinite(arr)):
        raise EmptyInput("value list contains non-finite entries")
    ordered = np.sort(arr)
    i = np.arange(1, h + 1, dtype=np.int64)
    # min{v : count(v) / n >= i / h}  <=>  count(v) >= ceil(i * n / h)
    thresholds = (i * arr.size + h - 1) // h
    picks = ordered[thresholds - 1]
    return ordered[np.searchsorted(ordered, picks, side="left")]
