"""grad-CAM on the recorded autograd graph.

grad-CAM (Selvaraju et al., 2017) weights each feature map by the spatially
averaged gradient of the class score and sums them.  The paper explains its
MTEX-CNN baseline this way ("MTEX-grad"): a per-dimension map from block 1
modulated by a temporal map from block 2.  Here the gradients come from one
graph-recording forward and ``backward`` on a single instance.  Production
explains with :func:`repro.core.gradcam.mtex_vjp_maps`, which computes the
same gradients by explicit VJP; it must agree with these functions to float
round-off.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.gradcam import combine_mtex_maps, gradcam_maps
from repro.nn import Tensor
from repro.nn import functional as F


def _gradcam_from(features: Tensor, relu: bool = True) -> np.ndarray:
    """One instance's grad-CAM heatmap from a batch-size-1 graph after ``backward``."""
    if features.grad is None:
        raise RuntimeError("features have no gradient; call backward() on the class score first")
    return gradcam_maps(features.data, features.grad, relu=relu)[0]


def mtex_forward(model, prepared: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
    """MTEX-CNN forward exposing both explainable feature blocks.

    Returns ``(block1, block2, logits)``: the per-dimension maps, the
    temporal maps after the dimension merge, and the class logits.
    """
    block1 = model.block1_features(prepared)
    merged = model.merge(block1).squeeze(axis=2)
    block2 = model.block2(merged)
    pooled = F.global_average_pool(block2)
    logits = model.output(model.hidden(pooled).relu())
    return block1, block2, logits


def grad_cam(model, series: np.ndarray, class_id: int, relu: bool = True) -> np.ndarray:
    """grad-CAM for any GAP-headed architecture (sanity baseline).

    Returns a heatmap with the same spatial shape as the architecture's last
    convolutional feature maps.
    """
    series = np.asarray(series, dtype=np.float64)
    model.eval()
    prepared = model.prepare_input(series[None])
    features = model.features(prepared)
    logits = model.classifier(model.gap(features))
    score = logits[0, class_id]
    score.backward()
    return _gradcam_from(features, relu=relu)


def mtex_grad_cam(model, series: np.ndarray, class_id: int) -> Tuple[np.ndarray, np.ndarray]:
    """The two grad-CAM maps of MTEX-CNN.

    Returns
    -------
    dimension_map:
        ``(D, n)`` attribution from block 1 (which dimension, which time).
    temporal_map:
        ``(n,)`` attribution from block 2 (which time window).
    """
    series = np.asarray(series, dtype=np.float64)
    model.eval()
    prepared = model.prepare_input(series[None])
    block1, block2, logits = mtex_forward(model, prepared)
    score = logits[0, class_id]
    score.backward()
    dimension_map = _gradcam_from(block1, relu=True)
    temporal_map = _gradcam_from(block2, relu=True)
    return dimension_map, temporal_map


def mtex_explanation(model, series: np.ndarray, class_id: int) -> np.ndarray:
    """Combined MTEX-grad explanation used for Dr-acc (a ``(D, n)`` map).

    The per-dimension map of block 1 is modulated by the temporal map of
    block 2 so that both the "which dimension" and "which time window"
    answers contribute, mirroring how the paper scores MTEX-grad against the
    ground-truth masks.
    """
    dimension_map, temporal_map = mtex_grad_cam(model, series, class_id)
    return combine_mtex_maps(dimension_map, temporal_map)
