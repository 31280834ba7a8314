"""Differentiable layer operations for 1-D feature maps.

All ops take (batch, channels, length) arrays.  The forward passes of
conv1d and linear run through _tiled_matmul, whose GEMM calls are chosen by
the layer's shape alone: narrow layers call GEMM on fixed tiles of exactly
_TILE_ROWS rows, the zero-padded tail tile among them, in one batched
matmul call; float32 layers at least _ONE_GEMM_WIDTH outputs wide make one
call over all whole tiles and one 8-row call for the zero-padded tail.  So
each output row's bits depend only on the layer's shape, never on how many
rows are batched with it.  A conv at least _ONE_GEMM_WIDTH wide holds its
weight in the layout its forward GEMM reads (conv_weight), so OpenBLAS packs
it from contiguous rows; narrower layers read a transposed view, whose bits
their small-matrix kernel depends on.  The backward passes use plain GEMM,
which is deterministic from run to run but not batch invariant; training
needs no more than that.

conv1d returns a transposed view of a channels-last (B, L, C) product, and
batch norm and relu keep whatever layout they are given, so most maps
reach the next conv1d as such views.  The forward arithmetic of conv1d and
maxpool1d lives in array-level helpers, conv_forward and maxpool_forward,
which the ops call and which embnet's frozen eval forward calls without a
Tensor, so each is written once.  conv_forward builds its (B*L_out,
C_in*K) im2col matrix one kernel tap at a time from the input's (B, L, C)
view, writing zeros where a tap reads padding, and conv1d scatters the
matrix's gradient back tap by tap in the same order; no padded copy of the
input is made.  The matrix is allocated in whole tiles of rows, so its tail
tile needs no copy.  maxpool_forward takes its max the same way, one tap at
a time from strided slices of the input, where padded taps are -inf and
never win; maxpool1d has it keep the index of each window's winning tap
only when a tape needs it for the backward, which scatters the gradient
back tap by tap.  Both take each tap's span of output positions from
_tap_spans, computed once per shape.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Tensor, make

# Rows per forward GEMM call in a narrow layer, and in every tail tile.
# Larger tiles index faster but slow the one-column forward pass that
# single-query ranking pays for.
_TILE_ROWS = 8

# Batch norm: the running statistics' update rate, and the variance floor.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

_ONE_GEMM_WIDTH = 256
"""Output width from which a float32 product runs as one GEMM over all whole
tiles instead of one GEMM per tile.

OpenBLAS 0.3.31 with its AVX-512 kernels sends an 8-row sgemm through a
small-matrix kernel only when 8*N <= 1200, K >= 32 and 8*K*N <= 1e6, and
that kernel's sums depend on the row count.  Wider products take the blocked
kernel, whose sums for a row do not depend on how many rows share the call,
so one GEMM over many whole tiles gives each row the bits that 8-row tiles
give it.  Measured: equal bits for every N >= 160 at K from 3 to 1536 and 8
to 7,150 rows, with 1 and 2 BLAS threads; unequal for N <= 144 at K 64-768.
256 keeps a margin.  float64 stays on tiles, because there a width that is
not a multiple of 8 changes the bits with the row count.
"""


def conv_weight(c_out: int, c_in: int, k: int) -> np.ndarray:
    """A zeroed float32 (c_out, c_in, k) conv weight in the layout its
    forward product reads.

    A layer at least _ONE_GEMM_WIDTH wide stores its weight as (c_in*k,
    c_out) rows, so that conv1d's wf.T reaches the one-GEMM branch
    C-contiguous and OpenBLAS packs it without a strided gather.  Its bits
    are the transposed view's at every row count tested (1-17, 513, 2,200
    and 3,850) under the SkylakeX, Haswell, Sandybridge and Nehalem kernels.
    A narrower layer keeps C order: its 8-row tiles run the small-matrix
    kernel, whose sums depend on B's layout, so it reads the transposed view
    it always has.
    """
    if c_out >= _ONE_GEMM_WIDTH:
        return np.zeros((c_in * k, c_out), np.float32).T.reshape(c_out, c_in, k)
    return np.zeros((c_out, c_in, k), np.float32)


def _tiled_matmul(a: np.ndarray, b: np.ndarray, m: int | None = None) -> np.ndarray:
    """a[:m] @ b for 2-D a (all of a by default), each row's bits fixed by
    the shapes alone.

    A narrow layer calls GEMM on exactly _TILE_ROWS rows at a time, because
    one GEMM over all its rows, even padded to a multiple of the tile, is
    not batch invariant on OpenBLAS; the whole tiles and the zero-padded
    tail tile go through one batched per-tile matmul call.  A float32 layer
    at least _ONE_GEMM_WIDTH wide makes one call over all whole tiles and
    sends the last m % _TILE_ROWS rows through one zero-padded 8-row GEMM of
    their own; there b may be C-contiguous or a transposed view, with equal
    bits, and conv_weight gives wide convs the contiguous one, which packs
    faster.  Rows of a past m, up to the next whole tile, must be zeros,
    as conv1d leaves them; where a stops at m, the padding is copied in.
    """
    m = len(a) if m is None else m
    k, n = b.shape
    tiles = -(-m // _TILE_ROWS)
    rows = tiles * _TILE_ROWS
    full = m - m % _TILE_ROWS
    out = np.empty((rows, n), dtype=np.result_type(a, b))
    if len(a) < rows:
        a = np.concatenate([a[:m], np.zeros((rows - m, k), dtype=a.dtype)])
    if n >= _ONE_GEMM_WIDTH and out.dtype == np.float32:
        if full:
            np.matmul(a[:full], b, out=out[:full])
        if full < m:
            np.matmul(a[full:rows], b, out=out[full:])
    else:
        np.matmul(a[:rows].reshape(tiles, _TILE_ROWS, k), b,
                  out=out.reshape(tiles, _TILE_ROWS, n))
    return out[:m]


@functools.lru_cache(maxsize=64)
def _tap_spans(length: int, k: int, stride: int,
               padding: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(out_len, spans) of a k-wide window op over `length` positions, once
    per shape: spans[kk] is (lo, hi, start) for kernel tap kk, where output
    positions lo..hi-1 read the input at start, start + stride, ... and the
    others read padding."""
    out_len = (length + 2 * padding - k) // stride + 1
    if out_len <= 0:
        raise ValueError(f"output would be empty: L={length} pad={padding} K={k}")
    spans = []
    for kk in range(k):
        lo = max(0, -((kk - padding) // stride))
        hi = max(lo, min(out_len, (length - 1 + padding - kk) // stride + 1))
        spans.append((lo, hi, lo * stride + kk - padding))
    return out_len, tuple(spans)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), with NaN, -inf and -0.0 all mapped to +0.0: fmax drops the
    NaN and adding 0 turns -0.0 into +0.0.  The result keeps x's layout."""
    y = np.fmax(x.data, 0)
    y += 0
    out = make(y, (x,))
    if out.requires_grad:
        out._backward = lambda g, a=x, m=x.data > 0: a.accumulate(g * m)
    return out


def conv_forward(x: np.ndarray, wt: np.ndarray, stride: int = 1,
                 padding: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(y, col) for a (B, C_in, L) array x and wt = weight.reshape(C_out,
    C_in*K).T: y, (B, C_out, L_out), is a transposed view of the channels-last
    product, and col the (B*L_out, C_in*K) im2col matrix, columns c_in-major
    and k-minor, where tap kk of output position t reads input position
    t*stride + kk - padding, or zero in the padding."""
    b, c_in, length = x.shape
    k = len(wt) // c_in
    out_len, spans = _tap_spans(length, k, stride, padding)
    m = b * out_len
    x_blc = x.transpose(0, 2, 1)
    # whole tiles of rows, so _tiled_matmul pads the tail with no copy
    col = np.empty((-(-m // _TILE_ROWS) * _TILE_ROWS, c_in * k), dtype=x.dtype)
    if len(col) > m:
        col[m:] = 0.0
    col4 = col[:m].reshape(b, out_len, c_in, k)
    for kk, (lo, hi, start) in enumerate(spans):
        if lo:
            col4[:, :lo, :, kk] = 0.0
        col4[:, lo:hi, :, kk] = x_blc[:, start : start + stride * (hi - lo) : stride]
        if hi < out_len:
            col4[:, hi:, :, kk] = 0.0
    y = _tiled_matmul(col, wt, m).reshape(b, out_len, wt.shape[1]).transpose(0, 2, 1)
    return y, col[:m]


def conv1d(x: Tensor, weight: Tensor, *, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation along the last axis, with no bias term: every conv
    of the network feeds a batch norm, whose shift takes its place.

    x: (B, C_in, L), weight: (C_out, C_in, K).
    Output length is (L + 2*padding - K) // stride + 1.

    The forward is conv_forward on weight's (C_in*K, C_out) view, so each
    output's summation order is independent of batch size; the backward
    products are plain GEMM, deterministic from run to run only.
    """
    b, c_in, length = x.data.shape
    c_out, c_in_w, k = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    y, col = conv_forward(x.data, weight.data.reshape(c_out, c_in * k).T, stride, padding)
    out = make(y, (x, weight))
    if out.requires_grad:
        m, out_len = len(col), y.shape[2]
        padded_len = length + 2 * padding

        def back(g, xt=x, wt=weight, win=col):
            g2 = g.transpose(0, 2, 1).reshape(m, c_out)
            if wt.requires_grad:
                wt.accumulate((g2.T @ win).reshape(c_out, c_in, k))
            if xt.requires_grad:
                gcol = (g2 @ wt.data.reshape(c_out, c_in * k)).reshape(
                    b, out_len, c_in, k)
                gxp = np.zeros((b, padded_len, c_in), dtype=g.dtype)
                for kk in range(k):
                    gxp[:, kk : kk + stride * out_len : stride] += gcol[:, :, :, kk]
                xt.accumulate(gxp[:, padding : padding + length].transpose(0, 2, 1))

        out._backward = back
    return out


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool) -> Tensor:
    """Per-channel normalization over the (batch, length) axes.

    In training mode the batch statistics (biased variance) both normalize
    the activations and update the running buffers in place.  They are
    numpy's own mean and var arithmetic, one pass each: the channel sums
    divided by n, then the summed squares of x - mean, whose buffer becomes
    xhat.  The output is (x - mean) * inv * gamma + beta in that order, with
    (C, 1) parameters broadcast over x in its own layout; when no tape keeps
    xhat, the scale and shift run in place in xhat's buffer.
    """
    if training:
        n = x.data.shape[0] * x.data.shape[2]
        mean = np.add.reduce(x.data, axis=(0, 2), keepdims=True)
        mean /= n
        xhat = x.data - mean
        var = np.square(xhat).sum(axis=(0, 2)) / n
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.ravel()
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        xhat = x.data - running_mean[:, None]
        var = running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None]
    out = make(xhat, (x, gamma, beta))
    if out.requires_grad:
        out.data = gamma.data[:, None] * xhat + beta.data[:, None]
    else:
        xhat *= gamma.data[:, None]
        xhat += beta.data[:, None]
    out.data = out.data.astype(x.data.dtype, copy=False)
    if out.requires_grad:

        def back(g, xt=x, gt=gamma, bt=beta, xh=xhat, iv=inv, train=training):
            sum_g = g.sum(axis=(0, 2))
            sum_gx = (g * xh).sum(axis=(0, 2))
            bt.accumulate(sum_g)
            gt.accumulate(sum_gx)
            if xt.requires_grad:
                if train:
                    n = g.shape[0] * g.shape[2]
                    scale = (gt.data * iv)[:, None] / n
                    xt.accumulate(scale * (n * g - sum_g[:, None] - xh * sum_gx[:, None]))
                else:
                    xt.accumulate(g * (gt.data * iv)[:, None])

        out._backward = back
    return out


def maxpool_forward(x: np.ndarray, kernel: int, stride: int, padding: int = 0,
                    idx: np.ndarray | None = None) -> np.ndarray:
    """Max over sliding windows of a (B, C, L) array; padded positions are
    -inf and never win.

    The max is taken one tap at a time from strided slices of x, a NaN
    counting as above every number and the first NaN winning, as np.argmax
    picks; when idx, a (B, C, L_out) integer array, is given, each window's
    winning tap is written into it.  The max is the same either way.
    """
    b, c, length = x.shape
    out_len, spans = _tap_spans(length, kernel, stride, padding)
    y = np.full((b, c, out_len), -np.inf, dtype=x.dtype)
    for kk, (lo, hi, start) in enumerate(spans):
        tap = x[:, :, start : start + stride * (hi - lo) : stride]
        best = y[:, :, lo:hi]
        wins = np.less_equal(tap, best)
        np.logical_not(wins, out=wins)  # above best, or a NaN
        wins &= best == best  # a NaN already held keeps its place
        np.copyto(best, tap, where=wins)
        if idx is not None:
            np.copyto(idx[:, :, lo:hi], kk, where=wins)
    return y


def maxpool1d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """maxpool_forward on x, keeping each window's winning tap only when a
    tape needs it.  The backward adds each window's gradient into its input
    position tap by tap in reversed order, so each position sums its windows
    in the order np.add.at would.
    """
    b, c, length = x.data.shape
    out_len, spans = _tap_spans(length, kernel, stride, padding)
    idx = np.zeros((b, c, out_len), dtype=np.intp) if x.requires_grad else None
    out = make(maxpool_forward(x.data, kernel, stride, padding, idx), (x,))
    if out.requires_grad:

        def back(g, xt=x, am=idx):
            gx = np.zeros((b, c, length), dtype=g.dtype)
            for kk in reversed(range(kernel)):
                lo, hi, start = spans[kk]
                gx[:, :, start : start + stride * (hi - lo) : stride] += np.where(
                    am[:, :, lo:hi] == kk, g[:, :, lo:hi], 0)
            xt.accumulate(gx)

        out._backward = back
    return out


def global_avgpool1d(x: Tensor) -> Tensor:
    """Mean over the length axis: (B, C, L) -> (B, C)."""
    length = x.data.shape[2]
    out = make(x.data.mean(axis=2), (x,))
    if out.requires_grad:
        out._backward = lambda g, a=x: a.accumulate(
            np.repeat(g[:, :, None], length, axis=2) / length
        )
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map on feature vectors: (B, F) x (O, F) + (O,) -> (B, O)."""
    y = _tiled_matmul(x.data, weight.data.T) + bias.data[None, :]
    out = make(y, (x, weight, bias))
    if out.requires_grad:

        def back(g, xt=x, wt=weight, bt=bias):
            if xt.requires_grad:
                xt.accumulate(g @ wt.data)
            if wt.requires_grad:
                wt.accumulate(g.T @ xt.data)
            if bt.requires_grad:
                bt.accumulate(g.sum(axis=0))

        out._backward = back
    return out
