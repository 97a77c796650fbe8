"""Gradient-based class activation maps (grad-CAM) — used for MTEX-CNN.

grad-CAM (Selvaraju et al., 2017) generalises CAM to architectures without a
GAP + dense head: the kernel weights ``w_m`` are replaced by the average
gradient of the class score with respect to each feature map.  The paper uses
grad-CAM to obtain the explanation of the MTEX-CNN baseline ("MTEX-grad"),
which produces the per-dimension attribution from block 1 and the temporal
attribution from block 2.  :func:`mtex_vjp_maps` computes both gradients by
explicit VJP, without recording a graph; the recorded-graph reference it is
checked against lives in the test oracles (``tests/oracles/gradcam.py``).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..nn import inference_mode
from ..nn import functional as F


def gradcam_maps(maps: np.ndarray, grads: np.ndarray, relu: bool = True) -> np.ndarray:
    """The grad-CAM weight/combine step on plain arrays (batched).

    ``maps`` holds the feature maps ``A`` with a leading batch axis and
    ``grads`` the class-score gradients ``∂y_c / ∂A`` of the same shape; each
    instance's filters are weighted by its spatially averaged gradients and
    combined with one per-row einsum.
    """
    spatial_axes = tuple(range(2, maps.ndim))
    weights = grads.mean(axis=spatial_axes)  # (batch, filters)
    cams = np.einsum("bf,bf...->b...", weights, maps)
    if relu:
        cams = np.maximum(cams, 0.0)
    return cams


def combine_mtex_maps(dimension_map: np.ndarray, temporal_map: np.ndarray) -> np.ndarray:
    """Modulate the block-1 dimension map by the normalised temporal map.

    The temporal map is max-normalised (or all-ones when identically zero) so
    that both the "which dimension" and "which time window" answers
    contribute to the combined ``(D, n)`` explanation.
    """
    if temporal_map.max() > 0:
        temporal_map = temporal_map / temporal_map.max()
    else:
        temporal_map = np.ones_like(temporal_map)
    return dimension_map * temporal_map[None, :]


def mtex_vjp_maps(model: "MTEXCNNClassifier", X: np.ndarray,
                  class_ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Graph-free MTEX-grad maps for a raw batch: explicit VJP, no autograd.

    The recorded-graph reference (``tests/oracles/gradcam.py``) re-runs the
    forward with gradient tracking and walks the tape; this twin computes the
    same two gradients directly, so the forward runs under ``inference_mode``
    (fused eval kernels, no graph) and the backward is four dense/scatter
    kernels:

    * head: the one-hot class gradient through the dense layers is a row
      gather of the output weights, masked by the hidden ReLU and contracted
      back through the hidden weights (per-row einsums);
    * GAP: the class-score gradient at block 2 is the pooled gradient spread
      uniformly over time (``g_pooled / n``) — which is also directly the
      spatially averaged grad-CAM weight of the temporal map;
    * block 2: ReLU mask, eval BatchNorm folded scale, conv1d input VJP;
    * merge: conv2d input VJP back to the block-1 maps.

    No gradient ever flows through block 1's internals or into any weight —
    the recorded path computes (and discards) both.  Every kernel touches
    rows independently (einsum contractions, elementwise masks, the
    :func:`~repro.nn.functional._col2im` scatter), so the maps are candidates
    for the serving layer's bit-exact coalescing (probed per artifact).
    Agreement with the recorded path is float round-off only (≤ 1e-10,
    pinned by tests).

    Returns ``(dimension_maps, temporal_maps)`` of shapes ``(B, D, n)`` and
    ``(B, n)``, already ReLU-clamped.
    """
    class_ids = np.asarray(class_ids, dtype=np.int64)
    was_training = model.training
    try:
        model.eval()
        with inference_mode():
            prepared = model.prepare_input(X)
            block1 = model.block1_features(prepared)
            merged = model.merge(block1).squeeze(axis=2)
            block2 = model.block2(merged)
    finally:
        if was_training:
            model.train()
    b1, b2 = block1.data, block2.data
    conv, bn = model.block2[0], model.block2[1]
    n = b2.shape[-1]

    # Head VJP.  ascontiguousarray canonicalises the (layout-dependent) mean
    # output so einsum's stride-sensitive accumulation is width-invariant.
    pooled = np.ascontiguousarray(b2.mean(axis=2))
    hidden_w = np.ascontiguousarray(model.hidden.weight.data)
    h_pre = np.einsum("bf,hf->bh", pooled, hidden_w) + model.hidden.bias.data
    g_h = model.output.weight.data[class_ids] * (h_pre > 0)
    g_pooled = np.einsum("bh,hf->bf", g_h, hidden_w)

    # GAP VJP: constant over time, so it is both the block-2 gradient and the
    # temporal grad-CAM weight vector.
    weights2 = g_pooled * (1.0 / n)
    temporal_maps = np.maximum(np.einsum("bf,bfn->bn", weights2, b2), 0.0)

    # Block-2 VJP: ReLU mask (block 2's output is post-ReLU, so its sign is
    # the mask), folded eval BatchNorm scale, conv input gradient.
    g = np.broadcast_to(weights2[:, :, None], b2.shape) * (b2 > 0)
    g = g * (bn.weight.data / (bn.running_var + bn.eps) ** 0.5)[None, :, None]
    g_merged = F.conv1d_input_grad(g, conv.weight.data, merged.shape,
                                   conv.stride, conv.padding)
    g_b1 = F.conv2d_input_grad(g_merged[:, :, None, :], model.merge.weight.data,
                               b1.shape, model.merge.stride, model.merge.padding)
    dimension_maps = gradcam_maps(b1, g_b1, relu=True)
    return dimension_maps, temporal_maps

