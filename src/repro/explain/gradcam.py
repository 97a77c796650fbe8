"""grad-CAM explainer: MTEX-CNN's two-block explanation ("MTEX-grad").

Both entry points run the graph-free explicit-VJP engine
(:func:`repro.core.gradcam.mtex_vjp_maps`): the forward passes execute under
``inference_mode`` (fused eval kernels, no autograd tape) and the class-score
gradient is propagated by hand through the GAP + dense head, block 2 and the
merge convolution — :meth:`GradCAMExplainer.explain` is simply the batch
engine at width 1, so the two paths are bit-identical by construction.
Instances do not interact in eval mode (batch normalisation uses running
statistics), so each instance's maps equal its single-instance maps.  The
recorded-graph reference, ``mtex_explanation`` in ``tests/oracles/gradcam.py``,
agrees with the VJP engine to float round-off (≤ 1e-10, pinned by tests).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.gradcam import combine_mtex_maps, mtex_vjp_maps
from .base import Explainer, Explanation
from .registry import register_explainer


@register_explainer("gradcam")
class GradCAMExplainer(Explainer):
    """MTEX-grad: block-1 dimension map modulated by the block-2 temporal map."""

    def __init__(self, model, **kwargs) -> None:
        super().__init__(model, **kwargs)
        for attribute in ("block1_features", "merge", "block2", "hidden", "output"):
            if not hasattr(model, attribute):
                raise TypeError(
                    f"{type(model).__name__} lacks {attribute!r}; the gradcam "
                    "family explains the two-block MTEX-CNN architecture"
                )

    def explain(self, series: np.ndarray, class_id: int) -> Explanation:
        series = self._check_series(series, class_id)
        return self.explain_batch(series[None], [int(class_id)])[0]

    def explain_batch(self, X: np.ndarray,
                      class_ids: Sequence[int]) -> List[Explanation]:
        X, class_ids = self._check_batch(X, class_ids)
        explanations: List[Explanation] = []
        for start in range(0, len(X), self.batch_size):
            stop = min(start + self.batch_size, len(X))
            dimension_maps, temporal_maps = mtex_vjp_maps(
                self.model, X[start:stop], class_ids[start:stop])
            for offset, class_id in enumerate(class_ids[start:stop]):
                explanations.append(Explanation(
                    heatmap=combine_mtex_maps(dimension_maps[offset],
                                              temporal_maps[offset]),
                    class_id=class_id,
                ))
        return explanations
