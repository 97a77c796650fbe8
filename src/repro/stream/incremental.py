"""Incremental conv-trunk evaluation for sliding windows.

A window slide by ``hop`` timesteps shifts the input's time axis: the new
window's column ``t`` equals the old window's column ``t + hop`` for every
``t < W - hop``, and only the trailing ``hop`` columns carry new data.
Stride-1 "same"-padded convolutions are translation-equivariant away from the
boundaries, so almost all of each layer's feature map can be *shifted* from
the previous window instead of recomputed.

Dirty-region algebra
--------------------
Dirty columns are tracked as ``[0, a) ∪ [b, W)`` — a left region poisoned by
the zero padding (the old window's padding sat ``hop`` columns further left)
and a right region fed by the new samples.  For a layer with time padding
``p`` (kernel ``2p + 1``), output column ``t`` is shift-copyable iff its
receptive field ``[t - p, t + p]`` avoids both regions **and** the sub-zero
padding indices (``t - p >= 0``); indices beyond ``W`` are zeros in both old
and new windows and are always safe.  Hence per layer::

    a' = min(W, a + p)          b' = max(0, b - p)

with ``a = 0, b = W - hop`` at the first layer.  Each hop therefore touches
``O(hop + depth * p)`` columns per layer instead of ``O(W)``.

Dirty columns are recomputed through the exact kernel the full-width
inference path uses — :func:`~repro.nn.functional.fused_conv_bn_relu`, or
for a d-architecture's layer 1 :func:`~repro.nn.functional.cube_conv_bn_relu`
over the permuted series (row 0 of the cube), as in dCAM's forward pass —
fed a pre-assembled slab (interior slice plus explicit boundary zeros) with
``padding=(0, 0)`` so interior slices are not spuriously re-padded.  A full
rebuild (:meth:`IncrementalTrunk.reset`) issues the same full-width calls as
the model's inference ``features``, so cold starts are bitwise-identical to
the naive engine; shifted hops agree to float round-off (≤ 1e-10 at float64
— BLAS accumulation may depend on the GEMM's width, so per-column bits may
differ across call widths).  Layer 1's per-hop cost stays proportional to
the changed columns.

Only the CNN family qualifies: a trunk of ``Sequential(Conv, BatchNorm,
ReLU)`` blocks with time stride 1, odd kernels and "same" padding (1D
convolutions are lifted to height-1 2D).  Residual and inception trunks mix
branch topologies and pooling and fall outside the shift-equivariance
argument; :func:`supports_incremental` reports eligibility and the session
falls back to the naive engine per ``StreamConfig.on_unsupported``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Tuple

import numpy as np

from ..nn import BatchNorm, Conv1d, Conv2d, ReLU, Sequential, row_conv_block
from ..nn.functional import cube_conv_bn_relu, fused_conv_bn_relu

__all__ = ["IncrementalTrunk", "UnsupportedArchitectureError", "supports_incremental"]


class UnsupportedArchitectureError(TypeError):
    """The model's trunk is not a stack of stride-1 Conv→BN→ReLU blocks."""


class _Block:
    """One Conv→BatchNorm→ReLU block plus its time-padding metadata."""

    __slots__ = ("conv", "bn", "pad", "lifted", "series")

    def __init__(self, conv, bn, pad: int, lifted: bool) -> None:
        self.conv = conv
        self.bn = bn
        self.pad = pad
        self.lifted = lifted
        #: Layer 1 of a d-architecture: reads the permuted series, not the cube.
        self.series = False

    def run(self, x: np.ndarray, padding: Tuple[int, int]) -> np.ndarray:
        """The block's fused inference kernel over ``x``."""
        if self.series:
            return cube_conv_bn_relu(x, self.conv, self.bn, padding=padding)
        return fused_conv_bn_relu(x, self.proxy(), self.bn, padding=padding)

    def proxy(self):
        """The conv handle :func:`fused_conv_bn_relu` consumes.

        2D convolutions pass through unchanged; 1D convolutions are lifted to
        height-1 2D via views built per call, so a later
        :meth:`~repro.models.base.BaseClassifier.astype` cast is picked up.
        """
        if not self.lifted:
            return self.conv
        conv = self.conv
        return SimpleNamespace(
            weight=SimpleNamespace(data=conv.weight.data[:, :, None, :]),
            bias=conv.bias,
            kernel_size=(1, conv.kernel_size),
            in_channels=conv.in_channels,
            out_channels=conv.out_channels,
            stride=(1, 1),
            padding=(0, conv.padding),
        )


def _validate_block(module, index: int) -> _Block:
    if not isinstance(module, Sequential) or len(module) != 3:
        raise UnsupportedArchitectureError(
            f"trunk block #{index} is not a Sequential(Conv, BatchNorm, ReLU)"
        )
    conv, bn, relu = module[0], module[1], module[2]
    if not isinstance(bn, BatchNorm) or type(relu) is not ReLU:
        raise UnsupportedArchitectureError(
            f"trunk block #{index} is not a Sequential(Conv, BatchNorm, ReLU)"
        )
    if type(conv) is Conv2d:
        if row_conv_block(module) is None:
            raise UnsupportedArchitectureError(
                f"trunk block #{index}: need stride (1, 1) and a (1, ℓ) kernel "
                f"with no height padding"
            )
        kernel, pad, lifted = conv.kernel_size[1], conv.padding[1], False
    elif type(conv) is Conv1d:
        if conv.stride != 1:
            raise UnsupportedArchitectureError(
                f"trunk block #{index}: need time stride 1"
            )
        kernel, pad, lifted = conv.kernel_size, conv.padding, True
    else:
        raise UnsupportedArchitectureError(
            f"trunk block #{index}: unsupported layer {type(conv).__name__}"
        )
    if kernel % 2 != 1 or pad != kernel // 2:
        raise UnsupportedArchitectureError(
            f"trunk block #{index}: need an odd kernel with \"same\" padding "
            f"(got kernel {kernel}, padding {pad})"
        )
    return _Block(conv, bn, pad, lifted)


def _validate_trunk(model) -> List[_Block]:
    trunk = getattr(model, "feature_extractor", None)
    if not isinstance(trunk, Sequential) or len(trunk) == 0:
        raise UnsupportedArchitectureError(
            f"{type(model).__name__} has no Sequential conv trunk"
        )
    blocks = [_validate_block(module, index) for index, module in enumerate(trunk)]
    blocks[0].series = getattr(model, "input_kind", None) == "cube"
    return blocks


def supports_incremental(model) -> bool:
    """True when :class:`IncrementalTrunk` can evaluate ``model``'s trunk."""
    try:
        _validate_trunk(model)
    except UnsupportedArchitectureError:
        return False
    return True


class IncrementalTrunk:
    """Evaluate a conv trunk over sliding windows, reusing feature maps.

    The caller owns the (fully updated) 4D input array and reports how many
    new columns a slide introduced; this class owns one cached output array
    per block and decides, per layer, which columns shift and which
    recompute.  Peak state is the sum of all feature maps — the same arrays a
    single naive forward materialises transiently.
    """

    def __init__(self, model) -> None:
        self._blocks = _validate_trunk(model)
        self._outputs: List[np.ndarray] = []

    def _first_input(self, x: np.ndarray) -> np.ndarray:
        """Layer 1's input: row 0 of a cube is the permuted series itself."""
        return x[:, 0] if self._blocks[0].series else x

    @property
    def has_state(self) -> bool:
        return bool(self._outputs)

    def invalidate(self) -> None:
        """Drop cached feature maps; the next call cold-starts."""
        self._outputs = []

    def reset(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Full forward of ``x`` (``(B, C, H, W)``), caching every block's map.

        Issues the same full-width fused kernels as the model's inference
        :meth:`~repro.models.conv_common.ConvBackboneClassifier.features`, so
        the result is bitwise-identical to a naive forward (for a
        d-architecture: to dCAM's, whose layer 1 reads the series).
        """
        width = x.shape[-1]
        outputs: List[np.ndarray] = []
        current = self._first_input(x)
        for block in self._blocks:
            current = block.run(current, (0, block.pad))
            outputs.append(current)
        self._outputs = outputs
        return current, (width, 0)

    def slide(self, x: np.ndarray, hop: int) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Update cached maps after ``x`` slid forward by ``hop`` columns.

        ``x`` must already hold the new window.  Returns the final feature
        map and its dirty region ``(a, b)`` — columns ``[0, a) ∪ [b, W)``
        were recomputed, columns ``[a, b)`` are bitwise the previous window's
        columns shifted by ``hop`` (consumers can delta-update downstream
        state the same way).
        """
        width = x.shape[-1]
        if not self._outputs or hop >= width:
            return self.reset(x)
        a, b = 0, width - hop
        current = self._first_input(x)
        for index, block in enumerate(self._blocks):
            pad = block.pad
            out = self._outputs[index]
            a_new = min(width, a + pad)
            b_new = max(0, b - pad)
            if a_new >= b_new:
                # Dirty regions met: recompute the whole layer (and, since
                # everything below is now dirty, every layer above it).
                out[...] = block.run(current, (0, pad))
                a, b = width, 0
            else:
                out[..., : width - hop] = out[..., hop:]
                if a_new:
                    out[..., :a_new] = self._recompute(current, block, 0, a_new)
                out[..., b_new:] = self._recompute(current, block, b_new, width)
                a, b = a_new, b_new
            current = out
        return current, (a, b)

    @staticmethod
    def _recompute(x: np.ndarray, block: _Block, lo: int, hi: int) -> np.ndarray:
        """Output columns ``[lo, hi)`` of one block, from the updated input.

        Assembles the receptive field ``[lo - pad, hi + pad)`` — an interior
        slice when possible, otherwise a slab with explicit boundary zeros —
        and runs the padding-free fused kernel over it.
        """
        pad = block.pad
        width = x.shape[-1]
        src_lo, src_hi = lo - pad, hi + pad
        if src_lo >= 0 and src_hi <= width:
            slab = x[..., src_lo:src_hi]
        else:
            slab = np.zeros(x.shape[:-1] + (src_hi - src_lo,), dtype=x.dtype)
            clip_lo, clip_hi = max(0, src_lo), min(width, src_hi)
            slab[..., clip_lo - src_lo : clip_hi - src_lo] = x[..., clip_lo:clip_hi]
        return block.run(slab, (0, 0))
