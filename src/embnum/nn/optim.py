"""SGD with classical momentum and decoupled-from-nothing weight decay.

Weight decay is folded into the gradient before the momentum update, i.e.
    g' = g + wd * p
    v  = m * v + g'
    p  = p - lr * v
"""

from __future__ import annotations

import warnings

import numpy as np

from .tensor import Tensor


class SGD:
    def __init__(self, named_params: dict[str, Tensor], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        self.params = dict(named_params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            grad = p.grad
            if grad is None:
                # parameter not reached by the last backward pass
                warnings.warn(f"parameter {name!r} has no gradient; treating as zero",
                              stacklevel=2)
                grad = np.zeros_like(p.data)
            v = self.momentum * self.velocity[name] + (grad + self.weight_decay * p.data)
            self.velocity[name] = v.astype(p.data.dtype, copy=False)
            p.data -= self.lr * v  # in place, so views of p.data see the step

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
