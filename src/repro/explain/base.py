"""The abstract explainer interface shared by all explanation families.

The paper evaluates three explanation methods under one Dr-acc protocol:
CAM for the GAP-headed architectures (plain and c-variants), grad-CAM for
MTEX-CNN, and dCAM for the d-architectures.  Each method is wrapped in an
:class:`Explainer` with two entry points:

* :meth:`Explainer.explain` — one ``(D, n)`` series, one class;
* :meth:`Explainer.explain_batch` — a stack of series explained together,
  letting the concrete explainer drive the model at full batch width (one
  ``features()`` forward per micro-batch instead of one per instance).

Both return :class:`Explanation` objects, so downstream evaluation code never
needs to know which family produced a heatmap.  Explainers are looked up by
the ``explainer_family`` attribute of the model class via
:mod:`repro.explain.registry` — no model-name string sniffing anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dcam import DEFAULT_BATCH_SIZE

#: Default number of dCAM permutations when no knob is supplied (the
#: evaluation protocols historically used 20; the paper uses 100).
DEFAULT_K = 20


@dataclass
class Explanation:
    """One explanation heatmap plus family-specific side information.

    Attributes
    ----------
    heatmap:
        The ``(D, n)`` attribution map scored by Dr-acc.
    class_id:
        The class the map explains.
    success_ratio:
        ``n_g / k`` for the dCAM family (the label-free quality proxy of
        Section 4.6); ``None`` for families without a permutation vote.
    details:
        Family-specific payload (e.g. the full :class:`~repro.core.dcam.DCAMResult`
        with ``M̄`` for dCAM); ``None`` when there is nothing beyond the map.
    """

    heatmap: np.ndarray
    class_id: int
    success_ratio: Optional[float] = None
    details: Optional[object] = None


class Explainer:
    """Base class of the explanation families served by the registry.

    Parameters
    ----------
    model:
        A trained classifier whose ``explainer_family`` matches this class's
        ``family``.
    k:
        Number of random permutations (only consumed by the dCAM family).
    batch_size:
        Micro-batch width of the batched engines: inputs per forward pass for
        CAM/grad-CAM, permuted series per forward pass for dCAM.  A speed /
        peak-memory trade-off that never changes results beyond float
        round-off.
    rng:
        Random generator (only consumed by the dCAM family's permutation
        draw).
    keep_details:
        Whether :class:`Explanation.details` carries the family-specific
        payload.  The dCAM payload (the ``(D, D, n)`` ``M̄`` tensor) dominates
        memory when many instances are explained at once, so bulk evaluation
        turns it off.
    cache:
        Optional content-addressed byte store (any object with
        ``get(key) -> Optional[bytes]`` and ``put(key, blob)``, e.g.
        :class:`repro.serve.cache.ExplanationCache`).  Families that support
        sub-explanation reuse consult it: the dCAM family caches *per
        permutation* — keyed on the model-state hash, the instance bytes, the
        class and the permutation — so re-explaining the same instance with a
        larger ``k`` (Figure 10's per-``k`` sweep) only forwards the
        permutations not seen before.  Families without reusable
        sub-computations ignore it; the serving layer caches their whole
        responses instead.
    """

    #: Registry key; set by the :func:`repro.explain.registry.register_explainer`
    #: decorator and mirrored by ``BaseClassifier.explainer_family``.
    family: ClassVar[str]

    def __init__(self, model, *, k: int = DEFAULT_K,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 rng: Optional[np.random.Generator] = None,
                 keep_details: bool = True,
                 cache: Optional[object] = None) -> None:
        self.model = model
        self.k = int(k)
        self.batch_size = max(1, int(batch_size))
        self.rng = rng
        self.keep_details = bool(keep_details)
        self.cache = cache

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def explain(self, series: np.ndarray, class_id: int) -> Explanation:
        """Explain one ``(D, n)`` series for ``class_id``."""
        raise NotImplementedError

    def explain_batch(self, X: np.ndarray,
                      class_ids: Sequence[int]) -> List[Explanation]:
        """Explain a stack ``(instances, D, n)`` of series at batch width."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared validation
    # ------------------------------------------------------------------
    @property
    def _input_dtype(self) -> np.dtype:
        """Dtype raw series are cast to — the model's compute dtype."""
        return getattr(self.model, "compute_dtype", np.dtype(np.float64))

    def _check_series(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=self._input_dtype)
        if series.ndim != 2:
            raise ValueError(f"series must be (D, n), got shape {series.shape}")
        return series

    def _check_batch(self, X: np.ndarray,
                     class_ids: Sequence[int]) -> Tuple[np.ndarray, List[int]]:
        X = np.asarray(X, dtype=self._input_dtype)
        if X.ndim != 3:
            raise ValueError(f"X must be (instances, D, n), got shape {X.shape}")
        class_ids = [int(c) for c in class_ids]
        if len(X) != len(class_ids):
            raise ValueError("X and class_ids must have the same length")
        return X, class_ids
