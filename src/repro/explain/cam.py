"""CAM explainer: the GAP + dense architectures (plain and c-variants).

The per-instance path reuses :func:`repro.core.cam.class_activation_map`
verbatim.  The batch engine runs whole micro-batches through one
``features()`` forward under :func:`repro.nn.inference_mode` and contracts the
filter axis of every instance against its class's dense-layer weight row in a
single ``einsum`` — the same strategy the dCAM pipeline uses for permuted
cubes, applied across instances.  Both paths agree to float round-off
(≤ 1e-10).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.cam import _check_model, cam_as_multivariate, class_activation_map
from ..nn import inference_mode
from .base import Explainer, Explanation
from .registry import register_explainer


@register_explainer("cam")
class CAMExplainer(Explainer):
    """CAM for any architecture ending with GAP + dense.

    Covers the plain 1D architectures (whose univariate CAM is broadcast to
    all dimensions, the paper's Section 5.1.2 convention) and the
    c-architectures (whose CAM is natively ``(D, n)``).
    """

    def __init__(self, model, **kwargs) -> None:
        super().__init__(model, **kwargs)
        _check_model(model)

    def _as_heatmap(self, cam: np.ndarray, n_dimensions: int) -> np.ndarray:
        if cam.ndim == 1:
            return cam_as_multivariate(cam, n_dimensions)
        return cam

    def explain(self, series: np.ndarray, class_id: int) -> Explanation:
        series = self._check_series(series, class_id)
        cam = class_activation_map(self.model, series, int(class_id))
        return Explanation(heatmap=self._as_heatmap(cam, series.shape[0]),
                           class_id=int(class_id))

    def explain_batch(self, X: np.ndarray,
                      class_ids: Sequence[int]) -> List[Explanation]:
        X, class_ids = self._check_batch(X, class_ids)
        n_instances, n_dimensions, _ = X.shape
        model = self.model
        model.eval()
        weights = model.class_weights[np.asarray(class_ids)]  # (N, F)
        explanations: List[Explanation] = []
        with inference_mode():
            for start in range(0, n_instances, self.batch_size):
                stop = min(start + self.batch_size, n_instances)
                features = model.features(model.prepare_input(X[start:stop]))
                # (B, F, n) for 1D architectures, (B, F, D, n) for c/d ones.
                cams = np.einsum("bf,bf...->b...", weights[start:stop],
                                 features.data)
                for offset, class_id in enumerate(class_ids[start:stop]):
                    explanations.append(Explanation(
                        heatmap=self._as_heatmap(cams[offset], n_dimensions),
                        class_id=class_id,
                    ))
        return explanations
