"""Parameterized layers: thin containers pairing float32 Tensors with the ops.

Conv and linear weights start at zero; embnet.init_weights draws them."""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor


class Conv1d:
    """A convolution without bias: every conv in the network feeds a batch
    norm, which absorbs any offset.  The weight's layout comes from
    ops.conv_weight; code that replaces it must copy into its buffer."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0):
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(ops.conv_weight(out_channels, in_channels, kernel),
                             requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv1d(x, self.weight, stride=self.stride, padding=self.padding)

    def params(self) -> dict[str, Tensor]:
        return {"weight": self.weight}


class BatchNorm1d:
    """Batch norm's scale and shift with its running statistics.  A call is
    training's forward, which moves the running statistics
    (ops.batchnorm1d); embnet's frozen plan reads them for the eval forward."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, np.float32), requires_grad=True)
        # running stats live outside the autodiff tape
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.batchnorm1d(x, self.gamma, self.beta, self.running_mean, self.running_var)

    def params(self) -> dict[str, Tensor]:
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


class Linear:
    def __init__(self, in_features: int, out_features: int):
        self.weight = Tensor(np.zeros((out_features, in_features), np.float32),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)

    def params(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}
