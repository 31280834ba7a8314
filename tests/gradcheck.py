"""Finite-difference verification of the autodiff engine.

Gradients are re-derived numerically at float64, as Richardson-extrapolated
central differences, and compared to the tape's output.  Piecewise-linear
ops (relu, maxpool) make the loss non-smooth at kinks; each probed
coordinate is perturbed both ways at both steps and skipped when the
recorded relu-mask/argmax signature changes, so only genuinely smooth
coordinates are asserted.

Two entry points: check_gradients for functional ops (fresh Tensors per
call), check_network for module-owned parameters (perturbed in place).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from embnum.nn import BatchNorm1d, Tensor, ops
from oracles import padded_windows

STEP = 1e-3
RTOL = 1e-3


def as_float64(module):
    """Cast a block's or network's parameters and batch-norm buffers to
    float64 in place, so finite differences run at float64; returns it."""
    for mod in module.modules().values():
        for p in mod.params().values():
            p.data = p.data.astype(np.float64)
        if isinstance(mod, BatchNorm1d):
            mod.running_mean = mod.running_mean.astype(np.float64)
            mod.running_var = mod.running_var.astype(np.float64)
    return module


@contextmanager
def trace_kinks(buf: list[np.ndarray]):
    """Collect relu sign masks and maxpool argmax indices into buf while the
    block runs.  The library looks both ops up through ``embnum.nn.ops`` at
    call time, so wrapping them there sees every call."""
    relu, maxpool1d = ops.relu, ops.maxpool1d

    def traced_relu(x):
        buf.append(x.data > 0)
        return relu(x)

    def traced_maxpool1d(x, kernel, stride, padding=0):
        windows = padded_windows(x.data, kernel, stride, padding, -np.inf)
        buf.append(np.argmax(windows, axis=3))
        return maxpool1d(x, kernel, stride, padding)

    ops.relu, ops.maxpool1d = traced_relu, traced_maxpool1d
    try:
        yield buf
    finally:
        ops.relu, ops.maxpool1d = relu, maxpool1d


def _signature(buf: list[np.ndarray]) -> tuple:
    return tuple(arr.tobytes() for arr in buf)


def _rel_err(fd: float, got: float) -> float:
    return abs(fd - got) / max(abs(fd), abs(got), 1e-8)


def _difference(probe, base_sig: tuple, step: float) -> float | None:
    """(4 D(step) - D(2 step)) / 3, where D(h) = (f(h) - f(-h)) / 2h is the
    central difference of probe(h) -> (f(h), signature); the extrapolation
    cancels D's O(h^2) curvature term, which tiny batch-norm groups make
    large.  Its finest step is step itself, because a finer one lets
    rounding in the loss swamp gradients near 1e-9.  None when any probe
    crosses a kink."""
    quotients = []
    for h in (2 * step, step):
        (lp, sig_p), (lm, sig_m) = probe(h), probe(-h)
        if sig_p != base_sig or sig_m != base_sig:
            return None
        quotients.append((lp - lm) / (2 * h))
    return (4 * quotients[1] - quotients[0]) / 3


def check_gradients(forward, arrays: list[np.ndarray], rng: np.random.Generator,
                    coords_per_array: int = 4, step: float = STEP,
                    rtol: float = RTOL) -> tuple[int, int]:
    """forward(list[Tensor]) -> scalar Tensor; must be deterministic.

    Returns (checked, skipped) coordinate counts; asserts every checked
    coordinate's relative error is below rtol.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def run(vals, grad):
        tensors = [Tensor(v.copy(), requires_grad=grad) for v in vals]
        buf: list[np.ndarray] = []
        with trace_kinks(buf):
            loss = forward(tensors)
        return loss, tensors, _signature(buf)

    loss, tensors, base_sig = run(arrays, grad=True)
    loss.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    checked = skipped = 0
    for ai, arr in enumerate(arrays):
        picks = rng.choice(arr.size, size=min(coords_per_array, arr.size),
                           replace=False)
        for flat in picks:
            idx = np.unravel_index(flat, arr.shape)

            def probe(h):
                moved = [a.copy() for a in arrays]
                moved[ai][idx] += h
                loss, _, sig = run(moved, grad=False)
                return float(loss.data), sig

            fd = _difference(probe, base_sig, step)
            if fd is None:
                skipped += 1
                continue
            got = float(analytic[ai][idx])
            err = _rel_err(fd, got)
            assert err < rtol, (
                f"gradient mismatch at array {ai} coord {idx}: "
                f"fd={fd!r} autodiff={got!r} rel_err={err:.2e}"
            )
            checked += 1
    return checked, skipped


def check_network(forward_scalar, params: dict[str, Tensor],
                  buffers: dict[str, np.ndarray], x: Tensor,
                  rng: np.random.Generator, n_coords: int = 24,
                  step: float = STEP, rtol: float = RTOL) -> tuple[int, int]:
    """FD check for module-owned float64 parameters, perturbed in place.

    forward_scalar() -> scalar Tensor closing over params and x.  Batch-norm
    running buffers are restored before every forward so train-mode EMA
    side effects cannot skew the comparison.  x participates like a
    parameter (input gradients are checked too).
    """
    snapshot = {name: buf.copy() for name, buf in buffers.items()}

    def run():
        for name, buf in buffers.items():
            np.copyto(buf, snapshot[name])
        trace: list[np.ndarray] = []
        with trace_kinks(trace):
            loss = forward_scalar()
        return loss, _signature(trace)

    targets = dict(params)
    targets["<input>"] = x
    for p in targets.values():
        p.grad = None
    loss, base_sig = run()
    loss.backward()
    analytic = {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for name, p in targets.items()}

    # sample coordinates across all parameters proportionally at random
    names = sorted(targets)
    sizes = np.array([targets[n].data.size for n in names])
    flat_total = int(sizes.sum())
    picks = rng.choice(flat_total, size=min(n_coords, flat_total), replace=False)
    bounds = np.cumsum(sizes)

    checked = skipped = 0
    for pick in picks:
        ti = int(np.searchsorted(bounds, pick, side="right"))
        offset = int(pick - (bounds[ti - 1] if ti else 0))
        tensor = targets[names[ti]]
        idx = np.unravel_index(offset, tensor.data.shape)
        original = tensor.data[idx]

        def probe(h):
            tensor.data[idx] = original + h
            loss, sig = run()
            tensor.data[idx] = original
            return float(loss.data), sig

        fd = _difference(probe, base_sig, step)
        if fd is None:
            skipped += 1
            continue
        got = float(analytic[names[ti]][idx])
        err = _rel_err(fd, got)
        assert err < rtol, (
            f"gradient mismatch at {names[ti]} coord {idx}: "
            f"fd={fd!r} autodiff={got!r} rel_err={err:.2e}"
        )
        checked += 1
    return checked, skipped
