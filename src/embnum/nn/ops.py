"""Differentiable layer operations for 1-D feature maps.

All ops take (batch, channels, length) arrays.  The forward passes of
conv1d and linear run through _tiled_matmul, whose GEMM calls are chosen by
the layer's shape alone: narrow layers call GEMM on fixed tiles of exactly
_TILE_ROWS rows, and float32 layers at least _ONE_GEMM_WIDTH outputs wide
make one call over all whole tiles; either way the tail tile is zero-padded
to _TILE_ROWS rows.  So each output row's bits depend only on the layer's
shape, never on how many rows are batched with it.  The backward passes use
plain GEMM, which is deterministic from run to run but not batch invariant;
training needs no more than that.

conv1d and maxpool1d read their windows through _windows: one contiguous
padded copy of the input, written with slice assignments, and a strided
(B, C, L_out, K) view over it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, make

# Rows per forward GEMM call in a narrow layer, and in every tail tile.
# Larger tiles index faster but slow the one-column forward pass that
# single-query ranking pays for.
_TILE_ROWS = 8

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


def _tiled_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D a, each row's bits fixed by the shapes alone.

    A narrow layer calls GEMM on exactly _TILE_ROWS rows at a time, because
    one GEMM over all its rows, even padded to a multiple of the tile, is
    not batch invariant on OpenBLAS.  A float32 layer at least
    _ONE_GEMM_WIDTH wide makes one call over all whole tiles.  Both send the
    last m % _TILE_ROWS rows through one zero-padded tile.
    """
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n), dtype=np.result_type(a, b))
    full = m - m % _TILE_ROWS
    if full and n >= _ONE_GEMM_WIDTH and out.dtype == np.float32:
        np.matmul(a[:full], b, out=out[:full])
    elif full:
        np.matmul(a[:full].reshape(-1, _TILE_ROWS, k), b,
                  out=out[:full].reshape(-1, _TILE_ROWS, n))
    if full < m:
        tail = np.zeros((_TILE_ROWS, k), dtype=a.dtype)
        tail[: m - full] = a[full:]
        out[full:] = (tail @ b)[: m - full]
    return out


def _windows(x: np.ndarray, k: int, stride: int, padding: int,
             fill: float) -> np.ndarray:
    """(B, C, L_out, k) view of x's length-k windows, `stride` apart, after
    `padding` positions of `fill` are added at both ends of the last axis.
    The view reads a fresh contiguous copy, never x itself."""
    b, c, length = x.shape
    padded = length + 2 * padding
    out_len = (padded - k) // stride + 1
    if out_len <= 0:
        raise ValueError(f"output would be empty: L={length} pad={padding} K={k}")
    xp = np.empty((b, c, padded), dtype=x.dtype)
    xp[:, :, :padding] = fill
    xp[:, :, padding : padding + length] = x
    xp[:, :, padding + length :] = fill
    sb, sc, sl = xp.strides
    return np.ndarray((b, c, out_len, k), dtype=xp.dtype, buffer=xp,
                      strides=(sb, sc, sl * stride, sl))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = make(np.where(mask, x.data, 0), (x,))
    if out.requires_grad:
        out._backward = lambda g, a=x, m=mask: a.accumulate(g * m)
    return out


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation along the last axis.

    x: (B, C_in, L), weight: (C_out, C_in, K), bias: (C_out,) or None.
    Output length is (L + 2*padding - K) // stride + 1.

    The zero-padded windows (_windows) are materialized as a contiguous
    (B*L_out, C_in*K) block.
    The forward product goes through _tiled_matmul (8-row GEMM tiles, or
    one GEMM over them for float32 layers of 256 or more output channels), so
    each output's summation order is independent of batch size; the backward
    products are plain GEMM, deterministic from run to run only.
    """
    b, c_in, length = x.data.shape
    c_out, c_in_w, k = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    sw = _windows(x.data, k, stride, padding, 0.0)
    out_len = sw.shape[2]
    col = np.ascontiguousarray(sw.transpose(0, 2, 1, 3).reshape(b * out_len, c_in * k))
    wf = weight.data.reshape(c_out, c_in * k)
    y = _tiled_matmul(col, wf.T).reshape(b, out_len, c_out).transpose(0, 2, 1)
    if bias is not None:
        y = y + bias.data[None, :, None]
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = make(y, parents)
    if out.requires_grad:
        padded_len = length + 2 * padding

        def back(g, xt=x, wt=weight, bt=bias, win=col):
            g2 = g.transpose(0, 2, 1).reshape(b * out_len, c_out)
            if wt.requires_grad:
                wt.accumulate((g2.T @ win).reshape(c_out, c_in, k))
            if bt is not None and bt.requires_grad:
                bt.accumulate(g.sum(axis=(0, 2)))
            if xt.requires_grad:
                gcol = (g2 @ wt.data.reshape(c_out, c_in * k)).reshape(
                    b, out_len, c_in, k).transpose(0, 2, 3, 1)
                gxp = np.zeros((b, c_in, padded_len), dtype=g.dtype)
                for kk in range(k):
                    gxp[:, :, kk : kk + stride * out_len : stride] += gcol[:, :, kk]
                if padding:
                    gxp = gxp[:, :, padding : padded_len - padding]
                xt.accumulate(gxp)

        out._backward = back
    return out


def batchnorm1d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray,
                training: bool, momentum: float = 0.1,
                eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over the (batch, length) axes.

    In training mode the batch statistics (biased variance) both normalize
    the activations and update the running buffers in place.
    """
    if training:
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None]) * inv[None, :, None]
    y = gamma.data[None, :, None] * xhat + beta.data[None, :, None]
    out = make(y.astype(x.data.dtype, copy=False), (x, gamma, beta))
    if out.requires_grad:

        def back(g, xt=x, gt=gamma, bt=beta, xh=xhat, iv=inv, train=training):
            if bt.requires_grad:
                bt.accumulate(g.sum(axis=(0, 2)))
            if gt.requires_grad:
                gt.accumulate((g * xh).sum(axis=(0, 2)))
            if xt.requires_grad:
                if train:
                    n = g.shape[0] * g.shape[2]
                    sum_g = g.sum(axis=(0, 2), keepdims=True)
                    sum_gx = (g * xh).sum(axis=(0, 2), keepdims=True)
                    scale = (gt.data * iv)[None, :, None] / n
                    xt.accumulate(scale * (n * g - sum_g - xh * sum_gx))
                else:
                    xt.accumulate(g * (gt.data * iv)[None, :, None])

        out._backward = back
    return out


def maxpool1d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Max over sliding windows; padded positions are -inf and never win."""
    b, c, length = x.data.shape
    sw = _windows(x.data, kernel, stride, padding, -np.inf)
    idx = np.argmax(sw, axis=3)
    y = np.take_along_axis(sw, idx[..., None], axis=3)[..., 0]
    out = make(y, (x,))
    if out.requires_grad:

        def back(g, xt=x, am=idx):
            gxp = np.zeros((b, c, length + 2 * padding), dtype=g.dtype)
            bb, cc, tt = np.indices(am.shape)
            np.add.at(gxp, (bb, cc, tt * stride + am), g)
            if padding:
                gxp = gxp[:, :, padding : padding + length]
            xt.accumulate(gxp)

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
