"""Differentiable layer operations for 1-D feature maps.

The Tensor ops take (batch, channels, length) arrays.  The forward passes of
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

The forward arithmetic of conv1d, relu and maxpool1d lives in array-level
helpers, conv_forward, relu_ and maxpool_forward, which the ops call and
which embnet's frozen eval forward calls without a Tensor, so each is
written once.  conv_forward and maxpool_forward work channels-last: they
read a (B, L, C) array and return one.  conv_forward builds its
(B*L_out, C_in*K) im2col matrix, allocated zeroed in whole tiles of rows,
one kernel tap at a time from the input, writing only the positions that
the tap reads; conv1d's backward adds the matrix's gradient back through
the same spans into an unpadded array, so no pass pads a copy.  Its product
stays in the buffer of whole tiles that the GEMM wrote, so the eval forward
runs batch norm, relu and the residual add in place over contiguous rows.
maxpool_forward takes its max the same way, one np.maximum per
tap from strided slices of the input, where padded taps are -inf and never
win; it is exact on the relu maps the network pools.  When a tape needs the
backward, maxpool1d finds each window's first winning tap by equality with
the max, and the backward scatters the gradient back tap by tap.  Each
tap's span of output positions comes from tap_spans, cached per shape, for
the ops and the eval forward alike.  conv1d and maxpool1d return
(B, C, L_out) views of the channels-last results, and batch norm and relu
keep whatever layout they are given, so in training most maps also reach
the next conv1d channels-last.

The array helpers also take an optional step list, which the Tensor ops
never pass: each array call they make on data is appended to it through
record, bound to the buffers that call used, so that the eval forward can
replay a recorded run without allocating or slicing again.

gemm_workers says how many threads can run these GEMMs at once, each on CPUs
of its own, from the thread count of the OpenBLAS that numpy loaded.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

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


# The kernel sets whose wide one-GEMM products were measured batch invariant
# (_ONE_GEMM_WIDTH); under any other, Haswell's among them, a row's bits can
# depend on the rows beside it, so only embed's serial chunking keeps them.
_BATCH_INVARIANT_KERNELS = ("SkylakeX", "Sandybridge", "Nehalem")


def gemm_workers() -> int:
    """Threads that can each run a GEMM at the same time without sharing a
    CPU: the CPUs this process may run on (os.sched_getaffinity) divided by
    OpenBLAS's thread count, at least 1.  Both are read at call time, the
    count from the OpenBLAS that numpy loaded, as its wheels ship it in
    numpy.libs.  It is 1 when that library cannot be read or runs a kernel
    set outside _BATCH_INVARIANT_KERNELS.  OpenBLAS threads each GEMM over
    every CPU by default, so threads beside it only contend."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        threads = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        core = getattr(handle, "scipy_openblas_get_corename64_", None)
        if threads is not None and core is not None:
            threads.argtypes = core.argtypes = []
            threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
            if core().decode() not in _BATCH_INVARIANT_KERNELS or threads() < 1:
                return 1
            return max(1, len(os.sched_getaffinity(0)) // threads())
    return 1


def tile_rows(m: int) -> int:
    """m rounded up to whole tiles of _TILE_ROWS rows."""
    return -(-m // _TILE_ROWS) * _TILE_ROWS


def record(steps: list | None, fn, *args, **kwargs):
    """fn(*args, **kwargs), first appended to steps as a step, the call
    bound to its operands (functools.partial), unless steps is None.  A step
    must be a call that, replayed on the same buffers, rewrites everything
    it wrote."""
    if steps is not None:
        steps.append(functools.partial(fn, *args, **kwargs))
    return fn(*args, **kwargs)


def _tiled_matmul(a: np.ndarray, b: np.ndarray, m: int | None = None,
                  steps: list | None = None) -> np.ndarray:
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
    as conv_forward leaves them; where a stops at m, a is copied into a
    zeroed tile-padded buffer.  steps records the calls (record).
    """
    m = len(a) if m is None else m
    k, n = b.shape
    rows = tile_rows(m)
    tiles = rows // _TILE_ROWS
    full = m - m % _TILE_ROWS
    out = np.empty((rows, n), dtype=np.result_type(a, b))
    if len(a) < rows:
        padded = np.zeros((rows, k), dtype=a.dtype)
        record(steps, np.copyto, padded[:m], a[:m])
        a = padded
    if n >= _ONE_GEMM_WIDTH and out.dtype == np.float32:
        if full:
            record(steps, np.matmul, a[:full], b, out[:full])
        if full < m:
            record(steps, np.matmul, a[full:rows], b, out[full:])
    else:
        record(steps, np.matmul, a[:rows].reshape(tiles, _TILE_ROWS, k), b,
               out.reshape(tiles, _TILE_ROWS, n))
    return out[:m]


@functools.lru_cache(maxsize=64)
def tap_spans(length: int, k: int, stride: int,
              padding: int) -> tuple[int, tuple[tuple[int, int, slice], ...]]:
    """(out_len, spans) of a k-wide window op over `length` positions, cached
    per shape: spans[kk] is (lo, hi, src) for kernel tap kk, where output
    positions lo..hi-1 read the input positions that the slice src selects
    and the others read padding."""
    out_len = (length + 2 * padding - k) // stride + 1
    if out_len <= 0:
        raise ValueError(f"output would be empty: L={length} pad={padding} K={k}")
    spans = []
    for kk in range(k):
        lo = max(0, -((kk - padding) // stride))
        hi = max(lo, min(out_len, (length - 1 + padding - kk) // stride + 1))
        start = lo * stride + kk - padding
        spans.append((lo, hi, slice(start, start + stride * (hi - lo), stride)))
    return out_len, tuple(spans)


def relu_(x: np.ndarray, out: np.ndarray, steps: list | None = None,
          zero=0) -> np.ndarray:
    """max(x, 0) into out, which may be x, with NaN, -inf and -0.0 all
    mapped to +0.0: fmax drops the NaN and adding 0 turns -0.0 into +0.0.
    zero is the 0 that both calls take: the scalar, or an array of +0.0 of
    x's shape, which gives the same bits through numpy's same-shape loop;
    embnet's recorded eval programs pass one.  steps records both calls
    (record)."""
    record(steps, np.fmax, x, zero, out)
    return record(steps, np.add, out, zero, out)


def relu(x: Tensor) -> Tensor:
    """relu_ into a new array that keeps x's layout."""
    out = make(relu_(x.data, np.empty_like(x.data)), (x,))
    if out.requires_grad:
        out._backward = lambda g, a=x, m=x.data > 0: a.accumulate(g * m)
    return out


def conv_forward(x: np.ndarray, wt: np.ndarray, taps: tuple,
                 steps: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(y, col) for a channels-last (B, L, C_in) array x, wt = weight.reshape(
    C_out, C_in*K).T and taps = tap_spans(L, K, stride, padding).

    col is the (B*L_out, C_in*K) im2col matrix, columns c_in-major and
    k-minor, where tap kk of output position t reads input position
    t*stride + kk - padding, or zero in the padding.  It is allocated zeroed
    in whole tiles of rows, so each tap writes only the positions it reads
    and _tiled_matmul pads the tail with no copy.  y, (B, L_out, C_out), is
    the product's channels-last rows, contiguous in the buffer of whole tiles
    that the GEMM wrote.  steps records the tap copies and the GEMM calls;
    the padding, never written, stays zero on replay."""
    b, _, c_in = x.shape
    out_len, spans = taps
    m = b * out_len
    col = np.zeros((tile_rows(m), c_in * len(spans)), dtype=x.dtype)
    col4 = col[:m].reshape(b, out_len, c_in, len(spans))
    for kk, (lo, hi, src) in enumerate(spans):
        record(steps, np.copyto, col4[:, lo:hi, :, kk], x[:, src])
    return _tiled_matmul(col, wt, m, steps).reshape(b, out_len, wt.shape[1]), col[:m]


def conv1d(x: Tensor, weight: Tensor, *, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation along the last axis, with no bias term: every conv
    of the network feeds a batch norm, whose shift takes its place.

    x: (B, C_in, L), weight: (C_out, C_in, K).
    Output length is (L + 2*padding - K) // stride + 1.

    The forward is conv_forward on weight's (C_in*K, C_out) view, so each
    output's summation order is independent of batch size; the backward
    products are plain GEMM, deterministic from run to run only, and the input
    gradient goes back tap by tap through tap_spans into an unpadded array.
    """
    b, c_in, length = x.data.shape
    c_out, c_in_w, k = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    out_len, spans = taps = tap_spans(length, k, stride, padding)
    y, col = conv_forward(x.data.transpose(0, 2, 1), weight.data.reshape(c_out, c_in * k).T, taps)
    out = make(y.transpose(0, 2, 1), (x, weight))
    if out.requires_grad:

        def back(g, xt=x, wt=weight, win=col):
            g2 = g.transpose(0, 2, 1).reshape(len(win), c_out)
            if wt.requires_grad:
                wt.accumulate((g2.T @ win).reshape(c_out, c_in, k))
            if xt.requires_grad:
                gcol = (g2 @ wt.data.reshape(c_out, c_in * k)).reshape(
                    b, out_len, c_in, k)
                gx = np.zeros((b, length, c_in), dtype=g.dtype)
                for kk, (lo, hi, src) in enumerate(spans):
                    gx[:, src] += gcol[:, lo:hi, :, kk]
                xt.accumulate(gx.transpose(0, 2, 1))

        out._backward = back
    return out


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Per-channel normalization over the (batch, length) axes, as training
    runs it: the batch statistics (biased variance) both normalize the
    activations and update the running buffers in place.

    They are numpy's own mean and var arithmetic, one pass each: the channel
    sums divided by n, then the summed squares of x - mean, whose buffer
    becomes xhat.  The output is gamma * ((x - mean) * inv) + beta, with
    (C, 1) parameters broadcast over x in its own layout.  The eval forward,
    from the running statistics, is embnet's frozen plan.
    """
    n = x.data.shape[0] * x.data.shape[2]
    mean = np.add.reduce(x.data, axis=(0, 2), keepdims=True)
    mean /= n
    xhat = x.data - mean
    var = np.square(xhat).sum(axis=(0, 2)) / n
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean.ravel()
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None]
    y = gamma.data[:, None] * xhat + beta.data[:, None]
    out = make(y.astype(x.data.dtype, copy=False), (x, gamma, beta))
    if out.requires_grad:

        def back(g, xt=x, gt=gamma, bt=beta, xh=xhat, iv=inv):
            sum_g = g.sum(axis=(0, 2))
            sum_gx = (g * xh).sum(axis=(0, 2))
            bt.accumulate(sum_g)
            gt.accumulate(sum_gx)
            if xt.requires_grad:
                scale = (gt.data * iv)[:, None] / n
                xt.accumulate(scale * (n * g - sum_g[:, None] - xh * sum_gx[:, None]))

        out._backward = back
    return out


def maxpool_forward(x: np.ndarray, taps: tuple, steps: list | None = None) -> np.ndarray:
    """Max over the sliding windows that taps = tap_spans(L, kernel, stride,
    padding) gives, along axis 1 of a channels-last (B, L, C) array, into a
    new (B, L_out, C) array: a -inf fill, so padded positions never win,
    then each tap folded in by np.maximum from a strided slice of x.  That
    is each window's exact max where x holds no NaN and no -0.0, as a relu
    output does.  steps records the fill and each tap's max (record).
    """
    b, _, c = x.shape
    out_len, spans = taps
    y = np.empty((b, out_len, c), dtype=x.dtype)
    record(steps, np.copyto, y, -np.inf)
    for lo, hi, src in spans:
        best = y[:, lo:hi]
        record(steps, np.maximum, best, x[:, src], out=best)
    return y


def maxpool1d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """maxpool_forward on x's (B, L, C) view; the result is a (B, C, L_out)
    view of its channels-last output.  The op takes relu-shaped maps, with
    no NaN and no -0.0, as the network pools.  When a tape needs the
    backward, each window's winning tap is the first whose value equals the
    max, as np.argmax picks it, and the backward adds each window's gradient
    into that tap's input position tap by tap in reversed order, so each
    position sums its windows in the order np.add.at would.
    """
    b, c, length = x.data.shape
    x_cl = x.data.transpose(0, 2, 1)
    _, spans = taps = tap_spans(length, kernel, stride, padding)
    y = maxpool_forward(x_cl, taps)
    out = make(y.transpose(0, 2, 1), (x,))
    if out.requires_grad:
        idx = np.zeros(y.shape, dtype=np.intp)
        for kk in reversed(range(kernel)):
            lo, hi, src = spans[kk]
            np.copyto(idx[:, lo:hi], kk, where=x_cl[:, src] == y[:, lo:hi])

        def back(g, xt=x, am=idx.transpose(0, 2, 1)):
            gx = np.zeros((b, c, length), dtype=g.dtype)
            for kk in reversed(range(kernel)):
                lo, hi, src = spans[kk]
                gx[:, :, src] += np.where(am[:, :, lo:hi] == kk, g[:, :, lo:hi], 0)
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
