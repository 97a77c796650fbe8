"""Layer / module abstractions built on top of the autograd engine.

The API intentionally mirrors a small subset of ``torch.nn`` so the model code
in :mod:`repro.models` reads like the architectures described in the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import fused as _fused
from . import init
from .tensor import Tensor, is_grad_enabled


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Sub-classes register :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` and :meth:`state_dict` discover them by
    attribute traversal, in attribute insertion order.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr_name, attr in vars(self).items():
            full_name = f"{prefix}{attr_name}"
            if isinstance(attr, Parameter):
                yield full_name, attr
            elif isinstance(attr, Module):
                yield from attr.named_parameters(prefix=f"{full_name}.")
            elif isinstance(attr, (list, tuple)):
                for index, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{index}.")
                    elif isinstance(item, Parameter):
                        yield f"{full_name}.{index}", item

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Non-trainable state (e.g. batch-norm running statistics)."""
        for attr_name, attr in vars(self).items():
            full_name = f"{prefix}{attr_name}"
            if isinstance(attr, Module):
                yield from attr.named_buffers(prefix=f"{full_name}.")
            elif isinstance(attr, (list, tuple)):
                for index, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield from item.named_buffers(prefix=f"{full_name}.{index}.")
            elif attr_name.startswith("running_") and isinstance(attr, np.ndarray):
                yield full_name, attr

    def modules(self) -> Iterator["Module"]:
        yield self
        for attr in vars(self).values():
            if isinstance(attr, Module):
                yield from attr.modules()
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # Train / eval switches
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def astype(self, dtype) -> "Module":
        """Cast every parameter and running buffer to ``dtype`` in place.

        Only the two compute dtypes are accepted: float64 (the reference
        precision) and float32 (the opt-in fast tier).  Pending gradients are
        dropped — a cast invalidates them.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"unsupported compute dtype {dtype!r}; expected float32 or float64")
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
            param.grad = None
        for module in self.modules():
            for attr_name, attr in vars(module).items():
                if attr_name.startswith("running_") and isinstance(attr, np.ndarray):
                    setattr(module, attr_name, attr.astype(dtype, copy=False))
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = np.array(param.data, copy=True)
        for name, buffer in self.named_buffers():
            state[f"buffer.{name}"] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for name, value in state.items():
            if name.startswith("buffer."):
                buffer_name = name[len("buffer.") :]
                if buffer_name not in buffers:
                    raise KeyError(f"unknown buffer {buffer_name!r}")
                buffers[buffer_name][...] = value
            else:
                if name not in params:
                    raise KeyError(f"unknown parameter {name!r}")
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: "
                        f"{params[name].data.shape} vs {value.shape}"
                    )
                params[name].data[...] = value

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


# ---------------------------------------------------------------------------
# Elementary layers
# ---------------------------------------------------------------------------
class Identity(Module):
    """Pass-through layer; useful for optional residual shortcuts."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Fully connected (dense) layer: ``y = x @ W.T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.glorot_uniform((out_features, in_features), in_features, out_features, rng),
            name="linear.weight",
        )
        self.bias = Parameter(np.zeros(out_features), name="linear.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv1d(Module):
    """1D convolution over ``(batch, in_channels, length)`` inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size
        self.weight = Parameter(
            init.he_uniform((out_channels, in_channels, kernel_size), fan_in, rng),
            name="conv1d.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv1d.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Conv2d(Module):
    """2D convolution over ``(batch, in_channels, height, width)`` inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: Tuple[int, int],
                 stride: Tuple[int, int] = (1, 1), padding: Tuple[int, int] = (0, 0),
                 bias: bool = True, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = tuple(kernel_size)
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        kh, kw = self.kernel_size
        fan_in = in_channels * kh * kw
        self.weight = Parameter(
            init.he_uniform((out_channels, in_channels, kh, kw), fan_in, rng),
            name="conv2d.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv2d.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm(Module):
    """Batch normalisation over the channel axis (axis 1).

    Supports 2D ``(batch, channels)``, 3D ``(batch, channels, length)`` and 4D
    ``(batch, channels, height, width)`` inputs.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features), name="bn.weight")
        self.bias = Parameter(np.zeros(num_features), name="bn.bias")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def _stat_axes(self, x: Tensor) -> Tuple[int, ...]:
        return (0,) + tuple(range(2, x.ndim))

    def _shape_for(self, x: Tensor) -> Tuple[int, ...]:
        return (1, self.num_features) + (1,) * (x.ndim - 2)

    def forward(self, x: Tensor) -> Tensor:
        if self.training and is_grad_enabled() and _fused.is_fused_training():
            # Training fast path of the fused engine: the composed ~15-node
            # normalisation graph as a single bit-exact autograd node.
            return _fused.batch_norm_training(self, x)
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {x.shape[1]}"
            )
        shape = self._shape_for(x)
        axes = self._stat_axes(x)
        if not self.training and not is_grad_enabled():
            # Inference fast path: fold the normalisation into one scale and
            # one shift per channel (two passes over the activation instead of
            # four).  Equivalent to the Tensor expression below up to a few
            # ulps of floating-point reassociation.
            scale = self.weight.data / (self.running_var + self.eps) ** 0.5
            shift = self.bias.data - self.running_mean * scale
            out = x.data * scale.reshape(shape)
            out += shift.reshape(shape)
            return Tensor(out, name="batch_norm")
        if self.training:
            batch_mean = x.data.mean(axis=axes)
            batch_var = x.data.var(axis=axes)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * batch_var
            )
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normalized = (x - mean) / (var + self.eps) ** 0.5
        weight = self.weight.reshape(shape)
        bias = self.bias.reshape(shape)
        return normalized * weight + bias


class BatchNorm1d(BatchNorm):
    """Alias of :class:`BatchNorm` for ``(batch, channels, length)`` inputs."""


class BatchNorm2d(BatchNorm):
    """Alias of :class:`BatchNorm` for ``(batch, channels, height, width)`` inputs."""


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class MaxPool1d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool1d(x, self.kernel_size, self.stride)


class MaxPool2d(Module):
    def __init__(self, kernel_size: Tuple[int, int], stride: Optional[Tuple[int, int]] = None) -> None:
        super().__init__()
        self.kernel_size = tuple(kernel_size)
        self.stride = tuple(stride) if stride is not None else self.kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class GlobalAveragePooling(Module):
    """Average every spatial position, producing ``(batch, channels)``."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_average_pool(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.children_list: List[Module] = list(modules)

    def append(self, module: Module) -> "Sequential":
        self.children_list.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self.children_list)

    def __getitem__(self, index: int) -> Module:
        return self.children_list[index]

    def __len__(self) -> int:
        return len(self.children_list)

    def forward(self, x: Tensor) -> Tensor:
        modules = self.children_list
        if not is_grad_enabled():
            # Inference fast path: one fused kernel per row_conv_block triplet
            # with an eval BatchNorm; anything else runs its modules as usual.
            index, count = 0, len(modules)
            while index < count:
                block = row_conv_block(modules[index: index + 3])
                if block is not None and not block[1].training:
                    x = Tensor(F.fused_conv_bn_relu(x.data, *block), name="conv_bn_relu")
                    index += 3
                    continue
                x = modules[index](x)
                index += 1
            return x
        if _fused.is_fused_training():
            # Training fast path of the fused engine: fold BatchNorm -> ReLU
            # pairs into one bit-exact node (the relu mask rides along on the
            # batch-norm backward closure).
            index, count = 0, len(modules)
            while index < count:
                module = modules[index]
                if (index + 1 < count
                        and isinstance(module, BatchNorm)
                        and module.training
                        and type(modules[index + 1]) is ReLU):
                    x = _fused.batch_norm_training(module, x, relu=True)
                    index += 2
                    continue
                x = module(x)
                index += 1
            return x
        for module in modules:
            x = module(x)
        return x


def row_conv_block(module) -> Optional[Tuple[Conv2d, BatchNorm]]:
    """``(conv, bn)`` of a ``Sequential(Conv2d, BatchNorm, ReLU)`` row block.

    A row block's conv has a ``(1, ℓ)`` kernel, stride ``(1, 1)`` and no
    height padding, so it never mixes the rows of its input: the blocks
    :func:`~repro.nn.functional.fused_conv_bn_relu` runs, a d-architecture's
    layer 1 can read off the permuted series, and the streaming trunk can
    shift column by column.  ``module`` may also be a list of three modules;
    ``None`` for anything else.
    """
    if not isinstance(module, (Sequential, list)) or len(module) != 3:
        return None
    conv, bn, relu = module[0], module[1], module[2]
    if type(conv) is not Conv2d or not isinstance(bn, BatchNorm) or type(relu) is not ReLU:
        return None
    if conv.stride != (1, 1) or conv.kernel_size[0] != 1 or conv.padding[0] != 0:
        return None
    return conv, bn
