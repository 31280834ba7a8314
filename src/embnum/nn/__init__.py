from .tensor import Tensor
from . import ops
from .layers import BatchNorm1d, Conv1d, Linear
from .optim import SGD

__all__ = ["Tensor", "ops", "Conv1d", "BatchNorm1d", "Linear", "SGD"]
