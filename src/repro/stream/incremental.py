"""Incremental conv-trunk evaluation for sliding windows, in ring layout.

A window slide by ``hop`` timesteps shifts the input's time axis: the new
window's column ``t`` equals the old window's column ``t + hop`` for every
``t < W - hop``, and only the trailing ``hop`` columns carry new data.
Stride-1 "same"-padded convolutions are translation-equivariant away from the
boundaries, so almost every column of each layer's feature map is already
cached.  Every cached map stores window column ``t`` at ring position
``(offset + t) mod W``; a slide by ``g`` advances ``offset`` by ``g``, so the
surviving columns are never copied and the departed ones are exactly the
positions the dirty columns take.

Dirty-region algebra
--------------------
Dirty columns are tracked as ``[0, a) ∪ [b, W)`` — a left region poisoned by
the zero padding (the old window's padding sat ``hop`` columns further left)
and a right region fed by the new samples.  For a layer with time padding
``p`` (kernel ``2p + 1``), output column ``t`` is reusable iff its receptive
field ``[t - p, t + p]`` avoids both regions **and** the sub-zero padding
indices (``t - p >= 0``); indices beyond ``W`` are zeros in both old and new
windows and are always safe.  Hence per layer::

    a' = min(W, a + p)          b' = max(0, b - p)

with ``a = 0, b = W - hop`` at the first layer.  In ring order ``[b', W)``
and ``[0, a')`` are adjacent, so one slab serves both: the receptive field
``[b' - p, W)``, ``2p`` zeros, then ``[0, a' + p)`` (neither clips while
``a' < b'``).  The block's fused kernel runs once over it with
``padding=(0, 0)``; the ``2p`` junction outputs are dropped and the rest land
at their ring positions.  A layer whose regions meet is recomputed whole, in
window order, and so is every layer above it.  Each hop therefore runs
``O(hop + depth · p)`` columns per layer through the kernels and moves no
cached column.

The kernels are the ones full-width inference uses —
:func:`~repro.nn.functional.fused_conv_bn_relu`, or for a d-architecture's
layer 1 :func:`~repro.nn.functional.cube_conv_bn_relu` over the permuted
series (row 0 of the cube), as in dCAM's forward pass.  A full rebuild
(:meth:`IncrementalTrunk.reset`) runs at offset 0 and issues the same
full-width calls as the model's inference ``features``, so cold starts are
bitwise-identical to the naive engine; later hops agree to float round-off
(≤ 1e-10 at float64 — BLAS accumulation may depend on the GEMM's width).

Only the CNN family qualifies: a trunk of ``Sequential(Conv, BatchNorm,
ReLU)`` blocks with time stride 1, odd kernels and "same" padding (1D
convolutions are lifted to height-1 2D).  Residual and inception trunks mix
branch topologies and pooling and fall outside the shift-equivariance
argument; :func:`supports_incremental` reports eligibility and the session
falls back to the naive engine per ``StreamConfig.on_unsupported``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, List, Tuple

import numpy as np

from ..nn import BatchNorm, Conv1d, Conv2d, ReLU, Sequential, row_conv_block
from ..nn.functional import cube_conv_bn_relu, fused_conv_bn_relu
from ..nn.workspace import FoldMemo

__all__ = ["IncrementalTrunk", "UnsupportedArchitectureError", "supports_incremental"]


def ring_read(x: np.ndarray, offset: int, lo: int, n: int) -> np.ndarray:
    """Window columns ``[lo, lo + n)`` of a ring-stored ``x``, in order.

    ``x`` holds window column ``t`` at ``(offset + t) mod W`` along its last
    axis; ``lo + n`` may pass ``W``, continuing at window column 0 (ring
    order).  A view when the positions do not wrap, else a two-piece copy.
    """
    width = x.shape[-1]
    first = (offset + lo) % width
    if first + n <= width:
        return x[..., first : first + n]
    return np.concatenate((x[..., first:], x[..., : first + n - width]), axis=-1)


def ring_write(x: np.ndarray, offset: int, lo: int, values: np.ndarray) -> None:
    """Store ``values`` as window columns ``[lo, lo + n)`` of a ring-stored ``x``."""
    width, n = x.shape[-1], values.shape[-1]
    first = (offset + lo) % width
    head = min(n, width - first)
    x[..., first : first + head] = values[..., :head]
    if head < n:
        x[..., : n - head] = values[..., head:]


def window_order(x: np.ndarray, offset: int) -> np.ndarray:
    """A fresh window-ordered copy of a ring-stored ``x``."""
    return np.concatenate((x[..., offset:], x[..., :offset]), axis=-1)


class UnsupportedArchitectureError(TypeError):
    """The model's trunk is not a stack of stride-1 Conv→BN→ReLU blocks."""


class _Block:
    """One Conv→BatchNorm→ReLU block plus its time-padding metadata."""

    __slots__ = ("conv", "bn", "pad", "lifted", "series", "_proxy")

    def __init__(self, conv, bn, pad: int, lifted: bool) -> None:
        self.conv = conv
        self.bn = bn
        self.pad = pad
        self.lifted = lifted
        #: Layer 1 of a d-architecture: reads the permuted series, not the cube.
        self.series = False
        self._proxy = None

    def run(self, x: np.ndarray, padding: Tuple[int, int]) -> np.ndarray:
        """The block's fused inference kernel over ``x``."""
        if self.series:
            return cube_conv_bn_relu(x, self.conv, self.bn, padding=padding)
        return fused_conv_bn_relu(x, self.proxy(), self.bn, padding=padding)

    def proxy(self):
        """The conv handle :func:`fused_conv_bn_relu` consumes.

        2D convolutions pass through unchanged; 1D convolutions are lifted to
        height-1 2D through a view of the weight, rebuilt when the weight
        array changes, so a later
        :meth:`~repro.models.base.BaseClassifier.astype` cast is picked up
        and the trunk's fold memo refolds then, and only then.
        """
        if not self.lifted:
            return self.conv
        conv = self.conv
        if self._proxy is None or self._proxy[0] is not conv.weight.data:
            self._proxy = (conv.weight.data, SimpleNamespace(
                weight=SimpleNamespace(data=conv.weight.data[:, :, None, :]),
                bias=conv.bias,
                kernel_size=(1, conv.kernel_size),
                in_channels=conv.in_channels,
                out_channels=conv.out_channels,
                stride=(1, 1),
                padding=(0, conv.padding),
            ))
        return self._proxy[1]


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

    The trunk owns one cached output array per block, all stored in ring
    layout at one shared :attr:`offset`; per hop it decides, per layer, which
    columns are reused and which recompute.  Peak state is the sum of all
    feature maps — the same arrays a single naive forward materialises
    transiently.
    """

    def __init__(self, model) -> None:
        self._blocks = _validate_trunk(model)
        #: Every block's fold, kept while the model is installed (the
        #: session builds a new trunk on ``set_model``) and refolded when a
        #: cast replaces the arrays it read.
        self._folds = FoldMemo()
        self._outputs: List[np.ndarray] = []
        #: Ring position of window column 0 in every cached map.
        self.offset = 0

    @property
    def has_state(self) -> bool:
        return bool(self._outputs)

    def invalidate(self) -> None:
        """Drop cached feature maps; the next call cold-starts."""
        self._outputs = []

    def reset(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Full forward of layer 1's window-ordered input ``x``, caching every map.

        ``x`` is ``(B, C, H, W)``, or for a d-architecture the ``(B, D, W)``
        (permuted) series its layer 1 reads.  Runs at offset 0 and issues the
        same full-width fused kernels as the model's inference
        :meth:`~repro.models.conv_common.ConvBackboneClassifier.features`, so
        the result is bitwise-identical to a naive forward (for a
        d-architecture: to dCAM's, whose layer 1 reads the series).
        """
        outputs: List[np.ndarray] = []
        current = x
        with self._folds:
            for block in self._blocks:
                current = block.run(current, (0, block.pad))
                outputs.append(current)
        self._outputs = outputs
        self.offset = 0
        return current, (x.shape[-1], 0)

    def slide(
        self, hop: int, source: np.ndarray, start: int,
        lift: Callable[[np.ndarray], np.ndarray],
    ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Update the cached maps after the window slid forward by ``hop`` columns.

        ``source`` is the raw ring already holding the new window (window
        column ``t`` at ``(start + t) mod W``); ``lift`` maps a run of its
        columns to layer 1's input.  Returns the final map, in ring layout at
        the new :attr:`offset`, and its dirty region ``(a, b)``: columns
        ``[0, a) ∪ [b, W)`` were recomputed, ``[a, b)`` are bitwise the
        previous window's.
        """
        width = source.shape[-1]
        if not self._outputs or hop >= width:
            return self.reset(lift(ring_read(source, start, 0, width)))
        offset = self.offset = (self.offset + hop) % width
        a, b = 0, width - hop
        with self._folds:
            for block, out in zip(self._blocks, self._outputs):
                pad = block.pad
                a_new, b_new = min(width, a + pad), max(0, b - pad)
                if a_new >= b_new:
                    # Dirty regions met: recompute the whole layer (and, since
                    # everything below is now dirty, every layer above it).
                    whole = lift(ring_read(source, start, 0, width))
                    ring_write(out, offset, 0, block.run(whole, (0, pad)))
                    a, b = width, 0
                else:
                    right = ring_read(source, start, b_new - pad, width - b_new + pad)
                    junction = np.zeros(right.shape[:-1] + (2 * pad,), dtype=right.dtype)
                    left = ring_read(source, start, 0, a_new + pad)
                    slab = lift(np.concatenate((right, junction, left), axis=-1))
                    fresh = block.run(slab, (0, 0))
                    kept = width - b_new
                    ring_write(out, offset, b_new, fresh[..., :kept])
                    ring_write(out, offset, 0, fresh[..., kept + 2 * pad :])
                    a, b = a_new, b_new
                source, start, lift = out, offset, np.asarray  # the map as it is
        return out, (a, b)
