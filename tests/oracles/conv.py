"""The inference conv as an ``einsum`` over the strided patch view.

:func:`repro.nn.functional.conv2d` runs one GEMM over a row-layout im2col at
inference as in training.  Before that, inference contracted the window view
directly, without an im2col copy; it is kept here as the reference the GEMM
path must match to float round-off.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F


def conv2d_einsum(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None,
                  stride: Tuple[int, int] = (1, 1),
                  padding: Tuple[int, int] = (0, 0)) -> np.ndarray:
    """``(B, O, out_h, out_w)`` cross-correlation of ``x`` with ``weight``."""
    windows, _ = F._conv_windows(x, weight.shape[2:], stride, padding)
    out = np.einsum("bcxyij,ocij->boxy", windows, weight, optimize=True)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out
