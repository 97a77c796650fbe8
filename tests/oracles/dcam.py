"""dCAM step by step: one permutation's CAM and its ``M`` transformation.

The production pipeline (:func:`repro.core.dcam.iter_dcam`) forwards many
permutations per micro-batch without recording a graph and gathers every
``M`` transform at once; these are the one-permutation references it must
match to float round-off.
"""

from __future__ import annotations

import numpy as np

from repro.core.input_transform import inverse_order


def permutation_cam(model, series: np.ndarray, class_id: int,
                    order: np.ndarray) -> tuple[np.ndarray, int]:
    """CAM over the cube rows for one permutation, plus the predicted class.

    Batch size 1 through the graph-recording ``C(S_T)`` cube path.
    """
    prepared = model.prepare_input(series[None], order)
    features = model.features(prepared)
    pooled = model.gap(features)
    logits = model.classifier(pooled)
    weights = model.class_weights[class_id]
    cam_rows = np.tensordot(weights, features.data[0], axes=(0, 0))  # (D, n)
    predicted = int(logits.data[0].argmax())
    return cam_rows, predicted


def m_transform(cam_rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The ``M`` transformation (Definition 2) for one permutation.

    ``M[d, p, :]`` is the CAM row that contained original dimension ``d`` at
    position ``p`` of the permuted cube ``C(S_T)``.
    """
    n_dimensions = cam_rows.shape[0]
    slots = inverse_order(order)  # original dimension -> slot in the permuted series
    positions = np.arange(n_dimensions)
    # Row containing slot s at position p is (s - p) mod D.
    rows = (slots[:, None] - positions[None, :]) % n_dimensions  # (D, D)
    return cam_rows[rows]  # (D, D, n)
