"""The InceptionTime family: InceptionTime, cInceptionTime and dInceptionTime.

Follows Ismail Fawaz et al. (2020), the architecture the paper re-uses
unchanged (Section 5.2): a stack of inception modules, each made of a
bottleneck 1×1 convolution, three parallel convolutions with geometrically
decreasing kernel sizes, and a max-pooling + bottleneck branch, concatenated
and batch-normalised; residual connections every ``residual_every`` modules;
GAP + dense head.

The c- and d-variants use ``(1, ℓ)`` 2D convolutions, as in Section 4.3 of the
paper.  Kernel sizes are capped at the series length.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn import BatchNorm, Conv1d, Conv2d, Identity, Module, ReLU, Tensor, is_grad_enabled
from ..nn import functional as F
from ..nn import fused as _fused
from .conv_common import ChannelInputMixin, ConvBackboneClassifier, CubeInputMixin

#: Default number of inception modules (depth) in the original architecture.
PAPER_INCEPTION_DEPTH = 6
#: Default number of filters per branch in the original architecture.
PAPER_INCEPTION_FILTERS = 32
#: Default largest kernel size in the original architecture.
PAPER_INCEPTION_KERNEL = 40


def _make_conv(two_dimensional: bool, in_channels: int, out_channels: int,
               kernel_size: int, rng: np.random.Generator, bias: bool = False) -> Module:
    # Even kernels with symmetric "same" padding would change the series length
    # and break branch concatenation / residual additions: round down to odd.
    if kernel_size % 2 == 0 and kernel_size > 1:
        kernel_size -= 1
    if two_dimensional:
        return Conv2d(in_channels, out_channels, (1, kernel_size),
                      padding=(0, kernel_size // 2), bias=bias, rng=rng)
    return Conv1d(in_channels, out_channels, kernel_size,
                  padding=kernel_size // 2, bias=bias, rng=rng)


class InceptionModule(Module):
    """One inception module (bottleneck + multi-scale convolutions + pool branch)."""

    def __init__(self, in_channels: int, n_filters: int, kernel_sizes: Sequence[int],
                 two_dimensional: bool, rng: np.random.Generator,
                 use_bottleneck: bool = True) -> None:
        super().__init__()
        self.two_dimensional = two_dimensional
        bottleneck_channels = n_filters if use_bottleneck and in_channels > 1 else in_channels
        if use_bottleneck and in_channels > 1:
            self.bottleneck: Module = _make_conv(two_dimensional, in_channels,
                                                 n_filters, 1, rng)
            bottleneck_channels = n_filters
        else:
            self.bottleneck = Identity()
        self.branches = [
            _make_conv(two_dimensional, bottleneck_channels, n_filters, kernel_size, rng)
            for kernel_size in kernel_sizes
        ]
        self.pool_conv = _make_conv(two_dimensional, in_channels, n_filters, 1, rng)
        self.norm = BatchNorm(n_filters * (len(kernel_sizes) + 1))
        self.activation = ReLU()
        self.out_channels = n_filters * (len(kernel_sizes) + 1)

    def _max_pool(self, x: Tensor) -> Tensor:
        # "Same" max pooling, window 3: one exact node (max does not round)
        # unless the composed training graph is recorded, which pads and pools.
        if _fused.is_fused_training() or not (is_grad_enabled() and x.requires_grad):
            return _fused.same_max_pool3(x)
        if self.two_dimensional:
            padded = x.pad(((0, 0), (0, 0), (0, 0), (1, 1)))
            return F.max_pool2d(padded, (1, 3), (1, 1))
        padded = x.pad(((0, 0), (0, 0), (1, 1)))
        return F.max_pool1d(padded, 3, 1)

    def forward(self, x: Tensor) -> Tensor:
        bottlenecked = self.bottleneck(x)
        outputs = [branch(bottlenecked) for branch in self.branches]
        outputs.append(self.pool_conv(self._max_pool(x)))
        # One concatenate → BatchNorm → ReLU node under fused training, the
        # exact composed graph everywhere else.
        return _fused.concat_batch_norm_relu(outputs, self.norm, axis=1)


class _InceptionTimeBase(ConvBackboneClassifier):
    """Shared trunk builder for the three InceptionTime variants."""

    kwargs_family = "inception"
    two_dimensional: bool = False

    def __init__(self, n_dimensions: int, length: int, n_classes: int,
                 depth: int = PAPER_INCEPTION_DEPTH,
                 n_filters: int = PAPER_INCEPTION_FILTERS,
                 kernel_size: int = PAPER_INCEPTION_KERNEL,
                 residual_every: int = 3,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(n_dimensions, length, n_classes, rng)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        largest = min(kernel_size, max(3, length - 1))
        kernel_sizes = [max(3, largest // (2 ** i)) for i in range(3)]
        self.residual_every = residual_every
        self.modules_list: List[InceptionModule] = []
        self.residual_projections: List[Module] = []
        self.residual_norms: List[Module] = []
        in_channels = self._input_channels()
        residual_channels = in_channels
        for index in range(depth):
            module = InceptionModule(in_channels, n_filters, kernel_sizes,
                                     self.two_dimensional, self.rng)
            self.modules_list.append(module)
            in_channels = module.out_channels
            if residual_every and (index + 1) % residual_every == 0:
                self.residual_projections.append(
                    _make_conv(self.two_dimensional, residual_channels, in_channels, 1, self.rng))
                self.residual_norms.append(BatchNorm(in_channels))
                residual_channels = in_channels
        self.activation = ReLU()
        self.feature_channels = in_channels
        self._build_head()

    def _input_channels(self) -> int:
        return self.n_dimensions

    def features(self, x: Tensor) -> Tensor:
        residual_input = x
        residual_index = 0
        out = x
        for index, module in enumerate(self.modules_list):
            out = module(out)
            if self.residual_every and (index + 1) % self.residual_every == 0:
                projection = self.residual_projections[residual_index]
                norm = self.residual_norms[residual_index]
                out = _fused.add_relu(out, norm(projection(residual_input)))
                residual_input = out
                residual_index += 1
        return out

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.gap(self.features(x)))


class InceptionTimeClassifier(_InceptionTimeBase):
    """Standard 1D InceptionTime."""

    input_kind = "raw"
    two_dimensional = False


class CInceptionTimeClassifier(ChannelInputMixin, _InceptionTimeBase):
    """cInceptionTime baseline (dimensions never compared)."""

    two_dimensional = True

    def _input_channels(self) -> int:
        return 1


class DInceptionTimeClassifier(CubeInputMixin, _InceptionTimeBase):
    """dInceptionTime: InceptionTime over the ``C(T)`` cube (supports dCAM)."""

    two_dimensional = True

    def _input_channels(self) -> int:
        return self.n_dimensions
