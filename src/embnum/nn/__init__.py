from .tensor import Tensor, no_grad
from . import ops
from .layers import BatchNorm1d, Conv1d, Linear
from .optim import SGD

__all__ = ["Tensor", "no_grad", "ops", "Conv1d", "BatchNorm1d", "Linear", "SGD"]
