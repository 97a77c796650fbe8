"""A minimal NumPy deep-learning substrate.

This package replaces PyTorch in the dCAM reproduction (see DESIGN.md for the
substitution rationale).  It provides reverse-mode autodiff, convolutional and
recurrent layers, losses and optimizers — everything required to train the
CNN / ResNet / InceptionTime families and compute class activation maps.
"""

from . import functional
from .fused import fused_training, is_fused_training
from .layers import (
    BatchNorm,
    BatchNorm1d,
    BatchNorm2d,
    Conv1d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAveragePooling,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool1d,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    row_conv_block,
)
from .loss import CrossEntropyLoss, cross_entropy, mse_loss, nll_loss
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .recurrent import GRUCell, LSTMCell, RecurrentLayer, RNNCell
from .serialization import load_state_dict, save_state_dict, state_hash
from .workspace import Workspace
from .tensor import (
    Tensor,
    inference_mode,
    is_grad_enabled,
    no_grad,
    ones,
    randn,
    set_grad_enabled,
    tensor,
    zeros,
)

__all__ = [
    "functional",
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
    "inference_mode",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "Conv1d",
    "Conv2d",
    "BatchNorm",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "MaxPool1d",
    "MaxPool2d",
    "GlobalAveragePooling",
    "Flatten",
    "Identity",
    "Sequential",
    "row_conv_block",
    "RNNCell",
    "LSTMCell",
    "GRUCell",
    "RecurrentLayer",
    "CrossEntropyLoss",
    "cross_entropy",
    "mse_loss",
    "nll_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_state_dict",
    "load_state_dict",
    "state_hash",
    "Workspace",
    "fused_training",
    "is_fused_training",
]
