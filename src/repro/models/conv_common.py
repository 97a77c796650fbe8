"""Shared plumbing for the convolutional architecture families.

The paper derives three variants of every convolutional architecture
(Section 2.3 and 4):

* the **plain** variant (CNN / ResNet / InceptionTime) consumes the raw
  ``(batch, D, n)`` series with 1D convolutions whose kernels span all
  dimensions — CAM is univariate;
* the **c-variant** (cCNN / cResNet / cInceptionTime) consumes a
  ``(batch, 1, D, n)`` image with ``(1, ℓ)`` kernels that slide over each
  dimension independently — CAM is multivariate but dimensions are never
  compared;
* the **d-variant** (dCNN / dResNet / dInceptionTime) consumes the ``C(T)``
  cube as a ``(batch, D, D, n)`` image (channels = position within a cube
  row) with ``(1, ℓ)`` kernels whose channel extent spans all dimensions —
  CAM is multivariate *and* dimensions are compared.

All three share the same head (GAP + dense), which is what enables CAM.  This
module factors the head, the CAM-feature access, and the input preparation for
each variant, so the architecture files only describe their convolutional
trunks.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.input_transform import build_cube_batch
from ..nn import (
    BatchNorm,
    Conv2d,
    GlobalAveragePooling,
    Linear,
    Module,
    Sequential,
    Tensor,
    is_grad_enabled,
    row_conv_block,
)
from ..nn.functional import cube_row_chain
from .base import BaseClassifier


class ConvBackboneClassifier(BaseClassifier):
    """A convolutional trunk followed by global average pooling and a dense layer.

    Sub-classes must set ``self.feature_extractor`` (a :class:`Module` mapping
    the prepared input to the last convolutional feature maps) and
    ``self.feature_channels`` before calling :meth:`_build_head`.
    """

    supports_cam = True
    explainer_family = "cam"
    # forward is exactly classifier(gap(features(x))), so the training engine
    # may compute the loss through its fused GAP + dense + cross-entropy node.
    fused_head = True

    feature_extractor: Module
    feature_channels: int

    def _build_head(self) -> None:
        self.gap = GlobalAveragePooling()
        self.classifier = Linear(self.feature_channels, self.n_classes, rng=self.rng)

    def features(self, x: Tensor) -> Tensor:
        """Feature maps ``A_m`` of the last convolutional layer.

        When :meth:`series_block` finds one, a d-architecture also takes the
        (dimension-permuted) series ``(batch, D, n)`` in place of its cube:
        layer 1 and the row blocks after it then run as one
        :func:`~repro.nn.functional.cube_row_chain` over the series and
        ``C(T)`` is never built.  dCAM's forward pass uses this.
        """
        if x.ndim == 3 and self.input_kind == "cube":
            first = self.series_block()
            if first is None:
                raise ValueError(
                    f"{type(self).__name__}.features needs the C(T) cube here: only an "
                    f"eval-mode trunk whose first block is a (1, ℓ) Conv2d -> BatchNorm "
                    f"-> ReLU reads the series, under inference_mode")
            blocks, rest = [first], self.feature_extractor.children_list[1:]
            for module in rest:
                block = row_conv_block(module)
                if block is None or block[1].training:
                    break
                blocks.append(block)
            out = Tensor(cube_row_chain(x.data, blocks), name="cube_row_chain")
            for module in rest[len(blocks) - 1:]:
                out = module(out)
            return out
        return self.feature_extractor(x)

    def series_block(self) -> Optional[Tuple[Conv2d, BatchNorm]]:
        """Layer 1's ``(conv, bn)`` when :meth:`features` can read the series.

        That is a d-architecture at inference (no autograd, BatchNorm in eval
        mode) whose ``Sequential`` trunk starts with a
        :func:`~repro.nn.row_conv_block`: the dCNN.  ``None`` otherwise —
        dResNet and dInceptionTime always consume the cube.
        """
        trunk = getattr(self, "feature_extractor", None)
        if self.input_kind != "cube" or is_grad_enabled() or not isinstance(trunk, Sequential):
            return None
        first = row_conv_block(trunk[0])
        if first is None or first[1].training:
            return None
        return first

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.gap(self.features(x)))

    @property
    def class_weights(self) -> np.ndarray:
        """Dense-layer weights ``w_m^{C_j}`` of shape ``(n_classes, n_filters)``."""
        return self.classifier.weight.data


class ChannelInputMixin:
    """Input preparation of the c-architectures: add a singleton channel axis."""

    input_kind = "channel"

    def prepare_input(self, X: np.ndarray, order: Optional[np.ndarray] = None) -> Tensor:
        if order is not None:
            raise ValueError("c-architectures do not accept dimension permutations")
        X = np.asarray(X, dtype=self.compute_dtype)
        if X.ndim != 3:
            raise ValueError("expected a batch of shape (batch, D, n)")
        return Tensor(X[:, None, :, :])


class CubeInputMixin:
    """Input preparation of the d-architectures: the ``C(T)`` cube.

    :class:`repro.nn.Conv2d` expects the position-within-a-row axis as the
    channel axis, i.e. the ``(batch, rows, positions, n)`` cube with axes 1
    and 2 swapped.  Because the rotation matrix ``(row + position) mod D`` is
    symmetric, the cube equals its own (rows, positions) transpose, so it is
    consumed directly without a transpose or copy.
    """

    input_kind = "cube"
    # Listed before ConvBackboneClassifier in every d-architecture's bases, so
    # this overrides the backbone's "cam" family.
    explainer_family = "dcam"

    def prepare_input(self, X: np.ndarray, order: Optional[np.ndarray] = None) -> Tensor:
        X = np.asarray(X, dtype=self.compute_dtype)
        if X.ndim != 3:
            raise ValueError("expected a batch of shape (batch, D, n)")
        cube = build_cube_batch(X, order)
        # The rotation matrix (row + position) mod D is symmetric, so the cube
        # is invariant under the (rows, positions) transpose — it is already
        # in the channels-first layout, no copy needed.
        return Tensor(cube)
