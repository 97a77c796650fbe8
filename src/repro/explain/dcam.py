"""dCAM explainer: the d-architectures operating on the ``C(T)`` cube.

A thin family adapter over the one dCAM pipeline,
:func:`repro.core.dcam.iter_dcam`.  :meth:`DCAMExplainer.explain` is
:meth:`DCAMExplainer.explain_batch` on a batch of one; ``explain_batch``
draws each instance's permutations off the explainer's generator in sequence
(:func:`~repro.core.dcam.draw_orders`, as
:func:`~repro.core.dcam.compute_dcam_batch` does) and wraps each result as the
generator yields it, so with ``keep_details`` off each ``M̄`` is dropped at
once.

When an :class:`~repro.explain.base.Explainer` ``cache`` is attached, the
pipeline caches at *permutation* granularity: each permutation's CAM rows and
predicted class are stored under
:func:`~repro.core.dcam.permutation_cache_key`, which folds in the model-state
hash, the instance bytes, the class and the permutation itself.  Because a
seeded generator draws the first ``k₁`` permutations of a ``k₂ > k₁`` draw
identically, re-explaining an instance at growing ``k`` (Figure 10's sweep)
only forwards the permutations never seen before — the paper's per-``k``
curves then cost ``max(k)`` forwards instead of ``sum(k)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.dcam import (
    DCAMResult,
    # Imported only because perfbench/layers.py wraps this name here; the
    # pipeline looks it up in repro.core.dcam.
    _permutation_cams_batched,  # noqa: F401
    draw_orders,
    iter_dcam,
    permutation_cache_key,  # noqa: F401 - re-exported
)
from ..nn.serialization import state_hash
from .base import Explainer, Explanation
from .registry import register_explainer


@register_explainer("dcam")
class DCAMExplainer(Explainer):
    """dCAM with the ``n_g / k`` success ratio as the quality proxy.

    ``use_only_correct`` selects the permutation filter ablated in the paper:
    average ``M̄`` over all ``k`` permutations (default, the paper's choice)
    or only over the correctly-classified ones.
    """

    def __init__(self, model, *, use_only_correct: bool = False,
                 model_hash: Optional[str] = None, **kwargs) -> None:
        super().__init__(model, **kwargs)
        if getattr(model, "input_kind", None) != "cube":
            raise TypeError(
                f"dCAM requires a d-architecture (input_kind == 'cube'); "
                f"got {type(model).__name__}"
            )
        self.use_only_correct = bool(use_only_correct)
        # ``model_hash`` lets callers that already know the state hash (the
        # serving layer's artifact store records it at registration) skip the
        # full-model rehash on every explainer construction.
        self._model_hash: Optional[str] = model_hash

    def model_state_hash(self) -> str:
        """SHA-256 of the model state (computed once; cache keys fold it in)."""
        if self._model_hash is None:
            self._model_hash = state_hash(self.model)
        return self._model_hash

    def _wrap(self, result: DCAMResult) -> Explanation:
        return Explanation(heatmap=result.dcam, class_id=result.class_id,
                           success_ratio=result.success_ratio,
                           details=result if self.keep_details else None)

    def _cached_results(self, X: np.ndarray, class_ids: Sequence[int],
                        orders: List[np.ndarray]) -> List[Explanation]:
        """Run the pipeline, with the cache if one is attached, wrapping as it yields."""
        model_hash = None if self.cache is None else self.model_state_hash()
        return [self._wrap(result)
                for result in iter_dcam(self.model, X, class_ids, orders, self.use_only_correct,
                                        self.batch_size, cache=self.cache,
                                        model_hash=model_hash)]

    def explain(self, series: np.ndarray, class_id: int,
                permutations: Optional[Sequence[np.ndarray]] = None) -> Explanation:
        series = self._check_series(series, class_id)
        return self.explain_batch(series[None], [class_id],
                                  None if permutations is None else [permutations])[0]

    def explain_batch(self, X: np.ndarray, class_ids: Sequence[int],
                      permutations: Optional[Sequence[Sequence[np.ndarray]]] = None,
                      ) -> List[Explanation]:
        X, class_ids = self._check_batch(X, class_ids)
        orders = draw_orders(len(X), X.shape[1], self.k, self.rng, permutations)
        return self._cached_results(X, class_ids, orders)
