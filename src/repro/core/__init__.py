"""The paper's contribution: input cube, CAM, grad-CAM and dCAM."""

from .aggregate import (
    activation_per_segment,
    max_activation_per_dimension,
    mean_activation_per_dimension,
    mean_activation_per_segment,
    top_discriminant_dimensions,
    top_discriminant_segments,
)
from .cam import cam_as_multivariate, class_activation_map, predicted_class
from .dcam import (
    DCAMResult,
    compute_dcam,
    compute_dcam_batch,
    explanation_quality_proxy,
    extract_dcam,
    merge_permutation_cams,
    permutation_rows,
)
from .input_transform import (
    build_cube,
    build_cube_batch,
    idx,
    inverse_order,
    random_permutations,
    roll_cube_batch,
    rotation_order,
    row_for_slot,
)

__all__ = [
    "build_cube",
    "build_cube_batch",
    "roll_cube_batch",
    "rotation_order",
    "row_for_slot",
    "idx",
    "inverse_order",
    "random_permutations",
    "class_activation_map",
    "cam_as_multivariate",
    "predicted_class",
    "DCAMResult",
    "compute_dcam",
    "compute_dcam_batch",
    "merge_permutation_cams",
    "permutation_rows",
    "extract_dcam",
    "explanation_quality_proxy",
    "max_activation_per_dimension",
    "mean_activation_per_dimension",
    "activation_per_segment",
    "mean_activation_per_segment",
    "top_discriminant_dimensions",
    "top_discriminant_segments",
]
