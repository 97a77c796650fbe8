"""dCAM explainer: the d-architectures operating on the ``C(T)`` cube.

A thin family adapter over the shared micro-batched pipeline of
:mod:`repro.core.dcam`: :meth:`DCAMExplainer.explain` wraps
:func:`~repro.core.dcam.compute_dcam` and :meth:`DCAMExplainer.explain_batch`
routes multi-instance work through
:func:`~repro.core.dcam.compute_dcam_batch`, whose micro-batches cross
instance boundaries so forward passes are never padded down to one instance's
leftover permutations.  For a given generator state both produce identical
results (the batch pipeline draws each instance's permutations in sequence).

When an :class:`~repro.explain.base.Explainer` ``cache`` is attached, the
family caches at *permutation* granularity: each permutation's CAM rows and
predicted class are stored under a content key folding in the model-state
hash, the instance bytes, the class and the permutation itself.  Because a
seeded generator draws the first ``k₁`` permutations of a ``k₂ > k₁`` draw
identically, re-explaining an instance at growing ``k`` (Figure 10's sweep)
only forwards the permutations never seen before — the paper's per-``k``
curves then cost ``max(k)`` forwards instead of ``sum(k)``.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.dcam import (
    DCAMResult,
    _assemble_result,
    _forward_width,
    _materialize_group,
    _permutation_cams_batched,
    _stack_orders,
    compute_dcam,
    compute_dcam_batch,
)
from ..core.input_transform import random_permutations
from ..nn.serialization import state_hash
from .base import Explainer, Explanation
from .registry import register_explainer

#: Soft cap on the retained ``M̄`` tensors when ``keep_details`` is off:
#: instances are pushed through :func:`compute_dcam_batch` in groups no larger
#: than this, and each group's ``(D, D, n)`` payloads are dropped as soon as
#: the group's heatmaps are extracted.
_DETAILS_SCRATCH_BYTES = 256 * 1024 * 1024


def _instance_key_base(model_hash: str, series: np.ndarray,
                       class_id: int) -> "hashlib._Hash":
    """Digest over everything but the permutation (copied per order below)."""
    digest = hashlib.sha256()
    digest.update(b"dcam-permutation-cam\x00")
    digest.update(model_hash.encode("ascii"))
    digest.update(b"\x00")
    series = np.ascontiguousarray(series, dtype=np.float64)
    digest.update(str(series.shape).encode("ascii"))
    digest.update(series.tobytes())
    digest.update(f"\x00{int(class_id)}\x00".encode("ascii"))
    return digest


def permutation_cache_key(model_hash: str, series: np.ndarray, class_id: int,
                          order: np.ndarray) -> str:
    """Content key of one permutation's CAM rows for one (instance, class).

    Folds in the model-state hash, the instance bytes and the permutation, so
    an entry can only ever replay the exact forward pass that produced it.
    """
    digest = _instance_key_base(model_hash, series, class_id)
    digest.update(np.ascontiguousarray(order, dtype=np.int64).tobytes())
    return digest.hexdigest()


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

    # ------------------------------------------------------------------
    # Cache-aware permutation evaluation
    # ------------------------------------------------------------------
    def _cached_results(self, X: np.ndarray, class_ids: Sequence[int],
                        per_instance_orders: List[np.ndarray]) -> List[DCAMResult]:
        """Per-instance results with permutation CAMs served from the cache.

        Only the permutations without a cache entry go through the shared
        micro-batched forward pipeline (still crossing instance boundaries);
        their CAM rows and predicted classes are stored for future calls.
        """
        n_instances = len(X)
        keys: List[List[str]] = []
        cams: List[np.ndarray] = []
        predicted: List[np.ndarray] = []
        missing: List[Tuple[int, int]] = []  # (instance index, permutation index)
        model_hash = self.model_state_hash()
        for index in range(n_instances):
            orders = per_instance_orders[index]
            # The instance bytes dominate the key material; hash them once
            # and fold each (tiny) permutation into a copy of the digest.
            base = _instance_key_base(model_hash, X[index], class_ids[index])
            instance_keys = []
            for order in orders:
                digest = base.copy()
                digest.update(np.ascontiguousarray(order, dtype=np.int64).tobytes())
                instance_keys.append(digest.hexdigest())
            keys.append(instance_keys)
            count, (n_dimensions, length) = len(orders), X[index].shape
            cams.append(np.empty((count, n_dimensions, length)))
            predicted.append(np.empty(count, dtype=np.int64))
            for position, key in enumerate(instance_keys):
                blob = self.cache.get(key)
                if blob is None:
                    missing.append((index, position))
                else:
                    cam_rows, predicted_class = pickle.loads(blob)
                    cams[index][position] = cam_rows
                    predicted[index][position] = predicted_class

        if missing:
            # Honour compute_dcam_batch's materialisation cap, one missing
            # permutation per item.  Chunk boundaries are kept at multiples of
            # the forward width, so the forward-pass partition (and therefore
            # every bit of the result) is identical to one unchunked call.
            _, n_dimensions, length = X.shape
            width = _forward_width(self.model, n_dimensions, length, self.batch_size)
            chunk = _materialize_group(1, n_dimensions, length)
            chunk = max(width, chunk - chunk % width)
            for chunk_start in range(0, len(missing), chunk):
                chunk_missing = missing[chunk_start : chunk_start + chunk]
                instance_index = np.array([index for index, _ in chunk_missing])
                orders_flat = np.stack(
                    [per_instance_orders[index][position]
                     for index, position in chunk_missing]
                )
                permuted_flat = X[instance_index[:, None], orders_flat]
                weights_flat = self.model.class_weights[
                    np.array([class_ids[index] for index, _ in chunk_missing])
                ]
                cams_flat, predicted_flat = _permutation_cams_batched(
                    self.model, permuted_flat, weights_flat, self.batch_size
                )
                for flat, (index, position) in enumerate(chunk_missing):
                    cams[index][position] = cams_flat[flat]
                    predicted[index][position] = predicted_flat[flat]
                    self.cache.put(
                        keys[index][position],
                        pickle.dumps((cams_flat[flat], int(predicted_flat[flat])),
                                     protocol=pickle.HIGHEST_PROTOCOL),
                    )

        return [
            _assemble_result(cams[index], per_instance_orders[index], predicted[index],
                             class_ids[index], self.use_only_correct)
            for index in range(n_instances)
        ]

    def _draw_orders(self, n_instances: int, n_dimensions: int,
                     permutations) -> List[np.ndarray]:
        """One validated ``(k_i, D)`` order stack per instance.

        Random draws come off ``self.rng`` instance by instance, exactly as
        :func:`compute_dcam_batch` (and the legacy per-instance loop) would.
        """
        if permutations is not None:
            if len(permutations) != n_instances:
                raise ValueError(
                    f"permutations must supply one sequence per instance "
                    f"({n_instances}), got {len(permutations)}"
                )
            return [_stack_orders(orders, n_dimensions) for orders in permutations]
        rng = self.rng or np.random.default_rng()
        return [
            _stack_orders(random_permutations(n_dimensions, self.k, rng), n_dimensions)
            for _ in range(n_instances)
        ]

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def explain(self, series: np.ndarray, class_id: int,
                permutations: Optional[Sequence[np.ndarray]] = None) -> Explanation:
        series = self._check_series(series, class_id)
        if self.cache is not None:
            orders = self._draw_orders(1, series.shape[0],
                                       None if permutations is None else [permutations])
            result = self._cached_results(series[None], [int(class_id)], orders)[0]
            return self._wrap(result)
        result = compute_dcam(self.model, series, int(class_id), k=self.k,
                              rng=self.rng, permutations=permutations,
                              use_only_correct=self.use_only_correct,
                              batch_size=self.batch_size)
        return self._wrap(result)

    def explain_batch(self, X: np.ndarray, class_ids: Sequence[int],
                      permutations: Optional[Sequence[Sequence[np.ndarray]]] = None,
                      ) -> List[Explanation]:
        X, class_ids = self._check_batch(X, class_ids)
        n_instances, n_dimensions, length = X.shape
        if self.keep_details:
            group = max(1, n_instances)
        else:
            # The returned DCAMResults each hold a (D, D, n) M̄; when the
            # caller does not want them, bound the peak by grouping the
            # pipeline calls and dropping each group's payloads immediately.
            # Permutations are drawn per instance in sequence either way, so
            # grouping never changes the results.
            bytes_per_result = n_dimensions * n_dimensions * length * 8
            group = max(1, _DETAILS_SCRATCH_BYTES // max(1, bytes_per_result))
        explanations: List[Explanation] = []
        if self.cache is not None:
            per_instance_orders = self._draw_orders(n_instances, n_dimensions,
                                                    permutations)
            # The cached path materialises each group instance's (k, D, n)
            # CAM stack up front; apply the same per-instance accounting as
            # compute_dcam_batch so the group honours the memory cap.
            max_count = max((len(orders) for orders in per_instance_orders),
                            default=1)
            group = min(group, _materialize_group(max_count, n_dimensions, length))
            for start in range(0, n_instances, group):
                stop = min(start + group, n_instances)
                results = self._cached_results(X[start:stop], class_ids[start:stop],
                                               per_instance_orders[start:stop])
                explanations.extend(self._wrap(result) for result in results)
            return explanations
        for start in range(0, n_instances, group):
            stop = min(start + group, n_instances)
            results = compute_dcam_batch(
                self.model, X[start:stop], class_ids[start:stop], k=self.k,
                rng=self.rng,
                permutations=None if permutations is None else permutations[start:stop],
                use_only_correct=self.use_only_correct,
                batch_size=self.batch_size)
            explanations.extend(self._wrap(result) for result in results)
        return explanations
