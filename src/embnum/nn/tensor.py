"""Reverse-mode autodiff over dense numpy arrays.

Every operation records a closure that knows how to push the output gradient
back to its parents; backward() does one reverse-topological sweep from a
scalar loss.  Arrays keep whatever float dtype they were created with (the
network uses float32, gradient-check tests run the same code at float64).
Reductions are per-axis numpy sums, so results are bit-reproducible; the
matrix products, and how they stay batch invariant, live in ops.py.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonScalarLoss, ShapeMismatch


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    def accumulate(self, g) -> None:
        """Add g into this node's gradient buffer (no-op if grad not needed).

        The first g is written as g + 0.0 into a buffer of the data's dtype
        and layout, the bits of adding it into zeros: -0.0 becomes +0.0."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar; visits each node exactly once."""
        if self.data.size != 1:
            raise NonScalarLoss(f"loss must be scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic --------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _check_same_shape(self, other)
            out = make(self.data + other.data, (self, other))
            if out.requires_grad:
                def back(g, a=self, b=other):
                    a.accumulate(g)
                    b.accumulate(g)
                out._backward = back
            return out
        out = make(self.data + other, (self,))
        if out.requires_grad:
            out._backward = lambda g, a=self: a.accumulate(g)
        return out

    def __sub__(self, other):
        _check_same_shape(self, other)
        out = make(self.data - other.data, (self, other))
        if out.requires_grad:
            def back(g, a=self, b=other):
                a.accumulate(g)
                b.accumulate(-g)
            out._backward = back
        return out

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _check_same_shape(self, other)
            out = make(self.data * other.data, (self, other))
            if out.requires_grad:
                def back(g, a=self, b=other):
                    a.accumulate(g * b.data)
                    b.accumulate(g * a.data)
                out._backward = back
            return out
        out = make(self.data * other, (self,))
        if out.requires_grad:
            out._backward = lambda g, a=self, c=other: a.accumulate(g * c)
        return out

    def sqrt(self):
        out = make(np.sqrt(self.data), (self,))
        if out.requires_grad:
            out._backward = lambda g, a=self, y=out.data: a.accumulate(g * (0.5 / y))
        return out

    # -- reductions and indexing --------------------------------------------

    def sum(self, axis: int | None = None):
        out = make(np.sum(self.data, axis=axis), (self,))
        if out.requires_grad:
            shape = self.data.shape

            def back(g, a=self):
                if axis is None:
                    a.accumulate(np.broadcast_to(g, shape))
                else:
                    a.accumulate(np.broadcast_to(np.expand_dims(g, axis), shape))

            out._backward = back
        return out

    def gather_rows(self, idx):
        """Select rows along axis 0; duplicate indices accumulate gradient."""
        idx = np.asarray(idx, dtype=np.int64)
        out = make(self.data[idx], (self,))
        if out.requires_grad:

            def back(g, a=self, i=idx):
                buf = np.zeros_like(a.data)
                np.add.at(buf, i, g)
                a.accumulate(buf)

            out._backward = back
        return out


def make(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    """Internal node constructor; prunes the tape when no parent needs grads."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _check_same_shape(a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"operand shapes differ: {a.data.shape} vs {b.data.shape}")
