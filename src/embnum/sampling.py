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

Columns are sampled a batch at a time, laid end to end in one copy per
pass of at most about SAMPLE_CHUNK values: each column is sorted in place
on its own, and the finiteness check, the picks and the sign of each picked
zero run once over the pass.  The grid's integers i = 1..MAX_H are built
once at import, and each call reads its first h.
"""

import numpy as np

from .errors import EmptyInput, InvalidWidth

# The widest grid (40 times the paper's h = 100): it bounds the h values held
# per sampled column before a width from a checkpoint or flag allocates them.
MAX_H = 4096
_GRID = np.arange(1, MAX_H + 1, dtype=np.int64)
SAMPLE_CHUNK = 1 << 17  # values laid end to end per pass of sample_inverse_transform


def sample_inverse_transform(columns, h: int) -> np.ndarray:
    """Evaluate each column's inverse empirical CDF on the grid {i/h : i = 1..h}.

    columns is a sequence of value lists, or one 1-D array, which is a batch
    of one.  Row i of the (n, h) float64 result is column i's non-decreasing
    vector of h values, each taken from that column, computed with exact
    quantile-boundary arithmetic.  The first empty or non-finite column
    raises EmptyInput, as does an empty batch.  Columns are copied in passes
    of whole columns, each starting a new pass once the last holds
    SAMPLE_CHUNK values, so a pass holds at most that many values beside
    its last column.
    """
    if (not isinstance(h, (int, np.integer)) or isinstance(h, bool)
            or not 1 <= h <= MAX_H):
        raise InvalidWidth(f"h must be an integer from 1 to {MAX_H}, got {h!r}")
    if isinstance(columns, np.ndarray) and columns.ndim == 1:
        columns = [columns]
    passes, held = [[]], 0
    for c in columns:
        if held >= SAMPLE_CHUNK:
            passes.append([])
            held = 0
        passes[-1].append(np.asarray(c, dtype=np.float64).reshape(-1))
        held += passes[-1][-1].size
    if not passes[0]:
        raise EmptyInput("no value lists to sample")
    return np.concatenate([_sample_pass(cols, h) for cols in passes])


def _sample_pass(cols: list, h: int) -> np.ndarray:
    """sample_inverse_transform's rows for one pass of 1-D float64 columns."""
    sizes = np.array([len(c) for c in cols])
    flat = np.concatenate(cols)
    if not (sizes.all() and np.isfinite(flat).all()):
        for col in cols:  # name the first bad column, as its own call would
            if not col.size:
                raise EmptyInput("value list is empty")
            if not np.isfinite(col).all():
                raise EmptyInput("value list contains non-finite entries")
    starts = np.cumsum(sizes)
    lo = 0
    for hi in starts.tolist():
        flat[lo:hi].sort()
        lo = hi
    starts -= sizes
    # min{v : count(v) / n >= i / h}  <=>  count(v) >= ceil(i * n / h), the
    # value at 0-based index ceil(i * n / h) - 1 = (i * n - 1) // h of the
    # column, so at (i * n + start * h - 1) // h of the pass
    picks = np.multiply.outer(sizes, _GRID[:h])
    picks += (starts * h - 1)[:, None]
    picks //= h
    out = flat[picks]
    # equal values differ in bits only as -0.0 and 0.0, so only a picked zero
    # can differ from the first member of its run: the column's first zero,
    # which follows its negative values (a column with no zero points past
    # its end, where nothing is picked)
    zero = out == 0
    if zero.any():
        first = starts + np.add.reduceat(flat < 0, starts, dtype=np.intp)
        np.copyto(out, flat[first.clip(max=len(flat) - 1), None], where=zero)
    return out
