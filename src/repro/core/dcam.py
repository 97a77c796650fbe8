"""dCAM: Dimension-wise Class Activation Map (Section 4.4 of the paper).

Given a trained d-architecture (dCNN / dResNet / dInceptionTime), dCAM

1. draws ``k`` random permutations of the input dimensions (Section 4.4.1),
2. computes the CAM of the ``C(S_T)`` cube for each permutation and
   re-indexes it by (original dimension, position-within-row) — the ``M``
   transformation of Definition 2,
3. averages the ``M`` transformations into ``M̄`` (Section 4.4.2), and
4. extracts the final ``(D, n)`` map as the per-position variance of ``M̄``
   multiplied by the average activation over all dimensions/positions
   (Definition 3) — high variance across positions marks discriminant
   subsequences, while the average filters out irrelevant temporal windows.

The number ``n_g`` of permutations that the model classifies correctly is also
recorded; ``n_g / k`` is the paper's label-free proxy for explanation quality
(Sections 4.6 and 5.6).

Execution strategy
------------------
Explanation only needs activations, never gradients, so the hot path runs the
``k`` permuted series through the model in micro-batches under
:func:`repro.nn.inference_mode`: no autograd graph is recorded.  Both steps
move more memory than they compute, so both keep their working set
cache-sized: a micro-batch is as wide as fits a fixed byte budget
(:func:`_forward_width`), and ``M̄`` is accumulated one permutation's
``(D, D, n)`` ``M`` transform at a time.

No ``C(T)`` cube is built for the dCNN.  Cube row ``r`` is the permuted series
rotated by ``r`` dimensions, so layer 1 rotates its weights instead of the
data (:func:`repro.nn.functional.cube_conv_bn_relu`) and reads each permuted
``(D, n)`` series directly; it agrees with the cube path to float round-off.
dResNet and dInceptionTime, whose first blocks are not a single
``Conv → BatchNorm → ReLU``, still get the cube.  :func:`_permutation_cam`
retains the legacy one-permutation graph-recording cube path as a numerical
reference for tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Conv2d, Tensor, inference_mode
from .input_transform import inverse_order, random_permutations

__all__ = [
    "DCAMResult",
    "compute_dcam",
    "compute_dcam_batch",
    "merge_permutation_cams",
    "permutation_rows",
    "extract_dcam",
    "explanation_quality_proxy",
]

#: Default cap on the permuted series per forward pass.  The width run fits
#: :data:`_FORWARD_BYTES` (:func:`_forward_width`) — 2 at D=40, n=100, 32
#: filters, ℓ=3 — so the cap binds at small scales, where it keeps the GEMMs
#: large enough to amortise Python dispatch.
DEFAULT_BATCH_SIZE = 32

#: Working-set budget of a forward micro-batch's widest im2col, about twice
#: a per-core L2; wider spills to memory (width sweep in docs/benchmarks.md).
_FORWARD_BYTES = 8 * 1024 * 1024

#: Soft cap on the permuted-series + CAM arrays materialised at once by
#: :func:`compute_dcam_batch`; above it instances are processed in groups
#: (micro-batching still crosses instance boundaries within a group).
#: Tuned at paper scale (D=40, n=100, k=100, ~6.4 MB/instance): throughput
#: plateaus once a group holds ~20 instances, so 128 MB matches the 256 MB
#: setting's speed at half the peak transient footprint (sweep recorded in
#: docs/benchmarks.md).
_BATCH_MATERIALIZE_BYTES = 128 * 1024 * 1024


def _materialize_group(permutations: int, n_dimensions: int, length: int) -> int:
    """How many items of ``permutations`` rows each fit the materialisation cap.

    An item's permuted series and CAM stack cost ``~2 · k · D · n · 8`` bytes;
    the answer is at least 1.  The one accounting behind
    :func:`compute_dcam_batch`'s instance groups and the cached explainer's
    instance groups and forward chunks.
    """
    bytes_per_item = 2 * permutations * n_dimensions * length * 8
    return max(1, _BATCH_MATERIALIZE_BYTES // max(1, bytes_per_item))


@dataclass
class DCAMResult:
    """Output of :func:`compute_dcam`.

    Attributes
    ----------
    dcam:
        The dimension-wise class activation map, shape ``(D, n)``.
    m_bar:
        The averaged ``M`` transformation ``M̄``, shape ``(D, D, n)`` indexed by
        (original dimension, position within a cube row, time).
    averaged_cam:
        ``μ(M̄)`` per timestamp, shape ``(n,)`` — the approximation of the
        standard (univariate) CAM described in Section 4.4.3.
    class_id:
        Class the map explains.
    k:
        Number of permutations evaluated.
    n_correct:
        ``n_g`` — how many permutations the model classified as ``class_id``.
    """

    dcam: np.ndarray
    m_bar: np.ndarray
    averaged_cam: np.ndarray
    class_id: int
    k: int
    n_correct: int

    @property
    def success_ratio(self) -> float:
        """``n_g / k``: the label-free proxy for explanation quality."""
        return self.n_correct / self.k if self.k else 0.0

    @property
    def n_dimensions(self) -> int:
        return self.dcam.shape[0]

    @property
    def length(self) -> int:
        return self.dcam.shape[1]


def _permutation_cam(model: "ConvBackboneClassifier", series: np.ndarray, class_id: int,
                     order: np.ndarray) -> tuple[np.ndarray, int]:
    """CAM over the cube rows for one permutation, plus the predicted class.

    Legacy batch-size-1, graph-recording path.  The production pipeline is
    :func:`_permutation_cams_batched`; this function is kept as the
    independent numerical reference the equivalence tests compare against.
    """
    prepared = model.prepare_input(series[None], order)
    features = model.features(prepared)
    pooled = model.gap(features)
    logits = model.classifier(pooled)
    weights = model.class_weights[class_id]
    cam_rows = np.tensordot(weights, features.data[0], axes=(0, 0))  # (D, n)
    predicted = int(logits.data[0].argmax())
    return cam_rows, predicted


def _require_d_architecture(model: "ConvBackboneClassifier") -> None:
    if getattr(model, "input_kind", None) != "cube":
        raise TypeError(
            f"dCAM requires a d-architecture (dCNN/dResNet/dInceptionTime); "
            f"got {type(model).__name__}"
        )


def _require_dimensions(model, n_dimensions: int) -> None:
    """Refuse series whose ``D`` is not the one ``model`` was built for."""
    if n_dimensions != model.n_dimensions:
        raise ValueError(f"series has {n_dimensions} dimensions but "
                         f"{type(model).__name__} was built for D={model.n_dimensions}")


def _require_class(model, class_id: int) -> None:
    """Refuse a ``class_id`` outside ``range(n_classes)`` (``-1`` would wrap)."""
    if not 0 <= class_id < model.n_classes:
        raise ValueError(f"class_id {class_id} out of range for "
                         f"{type(model).__name__} with {model.n_classes} classes")


def _forward_width(model, n_dimensions: int, length: int, batch_size: int) -> int:
    """Permuted series per forward pass, from 1 up to ``batch_size``.

    As many as fit :data:`_FORWARD_BYTES` with their widest im2col: ``C·ℓ``
    rows over the cube's ``D·n`` columns, or ``D·ℓ`` rows over ``n`` for a
    dCNN's cube-free layer 1.
    """
    with inference_mode():
        block = model.series_block()
    first = None if block is None else block[0]
    widest = max((module.in_channels * module.kernel_size[-1]
                  * (length if module is first else n_dimensions * length)
                  for module in model.modules() if isinstance(module, Conv2d)), default=1)
    per_item = np.dtype(model.compute_dtype).itemsize * widest
    return min(max(1, int(batch_size)), max(1, _FORWARD_BYTES // per_item))


def _stack_orders(permutations: Sequence[np.ndarray], n_dimensions: int) -> np.ndarray:
    """Validate and stack permutations into a ``(k, D)`` integer array."""
    try:
        orders = np.asarray([np.asarray(order) for order in permutations])
    except ValueError as error:
        raise ValueError(
            f"permutations must all have length {n_dimensions} to match the "
            f"series dimensions"
        ) from error
    if orders.ndim != 2 or orders.shape[1] != n_dimensions:
        raise ValueError(
            f"permutations must have shape (k, {n_dimensions}), got {orders.shape}"
        )
    if not np.issubdtype(orders.dtype, np.integer):
        raise ValueError(
            f"permutations must contain integer dimension indices, got dtype {orders.dtype}"
        )
    valid = np.sort(orders, axis=1) == np.arange(n_dimensions)[None, :]
    if not valid.all():
        index = int(np.flatnonzero(~valid.all(axis=1))[0])
        raise ValueError(f"permutation #{index} is not a permutation of range({n_dimensions})")
    return orders.astype(np.intp, copy=False)


def _permutation_cams_batched(model: "ConvBackboneClassifier", permuted: np.ndarray,
                              class_weights: np.ndarray,
                              batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Forward pre-permuted series through the model in graph-free micro-batches.

    Parameters
    ----------
    permuted:
        Stack of dimension-permuted series, shape ``(N, D, n)``.
    class_weights:
        Per-row dense-layer weight vectors ``w^{C}`` of shape ``(N, F)`` —
        rows may differ when explaining several instances/classes at once.
    batch_size:
        Cap on the permuted series per forward pass (see :func:`_forward_width`).

    Returns
    -------
    cams:
        Stacked CAM rows, shape ``(N, D, n)``.
    predicted:
        Predicted class per permuted series, shape ``(N,)``.
    """
    n_total, n_dimensions, length = permuted.shape
    cams = np.empty((n_total, n_dimensions, length))
    predicted = np.empty(n_total, dtype=np.int64)
    batch_size = _forward_width(model, n_dimensions, length, batch_size)
    with inference_mode():
        # A dCNN's layer 1 reads the permuted series directly; the other
        # d-architectures get the C(T) cube.
        reads_series = model.series_block() is not None
        for start in range(0, n_total, batch_size):
            stop = min(start + batch_size, n_total)
            if reads_series:
                prepared = Tensor(permuted[start:stop].astype(model.compute_dtype, copy=False))
            else:
                prepared = model.prepare_input(permuted[start:stop])
            features = model.features(prepared)
            logits = model.classifier(model.gap(features))
            cams[start:stop] = np.einsum(
                "bf,bfdn->bdn", class_weights[start:stop], features.data
            )
            predicted[start:stop] = logits.data.argmax(axis=1)
    return cams, predicted


def _m_transform(cam_rows: np.ndarray, order: np.ndarray) -> np.ndarray:
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


def permutation_rows(orders: np.ndarray) -> np.ndarray:
    """``rows[p, d, q]`` = cube row holding dimension ``d`` at position ``q``.

    The vectorised ``idx`` function of Definition 1 over a ``(k, D)``
    permutation stack: gathering ``cams[p, rows[p]]`` materialises every
    permutation's ``M`` transform at once.  Shared by the batched merge below
    and by the streaming engine's per-column ``M̄`` delta updates
    (:mod:`repro.stream`), which gather only the window columns a slide
    touched.
    """
    k, n_dimensions = orders.shape
    # slots[p, d] = position of original dimension d under permutation p.
    slots = np.empty_like(orders)
    slots[np.arange(k)[:, None], orders] = np.arange(n_dimensions)[None, :]
    positions = np.arange(n_dimensions)
    return (slots[:, :, None] - positions[None, None, :]) % n_dimensions  # (k, D, D)


def _merge_cam_stack(cams: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Average the ``M`` transformations of stacked permutation CAMs.

    ``cams`` has shape ``(k, D, n)`` and ``orders`` shape ``(k, D)``.  Each
    permutation's ``(D, D, n)`` ``M`` transform is added in turn: the order of
    ``.sum(axis=0)`` over the full ``(k, D, D, n)`` gather, never built.
    """
    rows = permutation_rows(orders)  # (k, D, D)
    total = cams[0][rows[0]]
    for permutation in range(1, len(cams)):
        total += cams[permutation][rows[permutation]]
    return total / len(cams)


def merge_permutation_cams(cams_and_orders: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Average the ``M`` transformations of several permutations into ``M̄``.

    Every entry must be a ``(cam_rows, order)`` pair whose ``cam_rows`` share
    one ``(D, n)`` shape and whose ``order`` is a permutation of ``range(D)``;
    mismatches raise :class:`ValueError` with the offending entry identified.
    """
    if not cams_and_orders:
        raise ValueError("at least one permutation CAM is required")
    expected_shape: Optional[tuple] = None
    cam_list: List[np.ndarray] = []
    order_list: List[np.ndarray] = []
    for index, (cam_rows, order) in enumerate(cams_and_orders):
        cam_rows = np.asarray(cam_rows, dtype=np.float64)
        order = np.asarray(order)
        if cam_rows.ndim != 2:
            raise ValueError(
                f"cam_rows #{index} must be a (D, n) array, got shape {cam_rows.shape}"
            )
        if expected_shape is None:
            expected_shape = cam_rows.shape
        elif cam_rows.shape != expected_shape:
            raise ValueError(
                f"cam_rows #{index} has shape {cam_rows.shape} but earlier entries "
                f"have shape {expected_shape}; all permutation CAMs must share one "
                f"(D, n) shape"
            )
        n_dimensions = cam_rows.shape[0]
        if order.shape != (n_dimensions,):
            raise ValueError(
                f"order #{index} has shape {order.shape} but cam_rows #{index} has "
                f"D={n_dimensions} rows; each order must list a permutation of range(D)"
            )
        if not np.array_equal(np.sort(order), np.arange(n_dimensions)):
            raise ValueError(f"order #{index} is not a permutation of range({n_dimensions})")
        cam_list.append(cam_rows)
        order_list.append(order.astype(np.intp))
    return _merge_cam_stack(np.stack(cam_list), np.stack(order_list))


def extract_dcam(m_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Definition 3: combine per-position variance with the global average.

    Returns ``(dcam, averaged_cam)`` where ``dcam`` has shape ``(D, n)`` and
    ``averaged_cam`` (``μ(M̄)``, shape ``(n,)``) approximates the standard CAM.
    """
    if m_bar.ndim != 3 or m_bar.shape[0] != m_bar.shape[1]:
        raise ValueError("m_bar must have shape (D, D, n)")
    n_dimensions = m_bar.shape[0]
    averaged_cam = m_bar.sum(axis=(0, 1)) / (2.0 * n_dimensions)
    variance_per_dimension = m_bar.var(axis=1)  # (D, n)
    dcam = variance_per_dimension * averaged_cam[None, :]
    return dcam, averaged_cam


def _assemble_result(cams: np.ndarray, orders: np.ndarray, predicted: np.ndarray,
                     class_id: int, use_only_correct: bool) -> DCAMResult:
    """Merge the CAMs of one instance's permutations into a :class:`DCAMResult`."""
    correct_mask = predicted == class_id
    n_correct = int(correct_mask.sum())
    if use_only_correct and 0 < n_correct:
        m_bar = _merge_cam_stack(cams[correct_mask], orders[correct_mask])
    else:
        m_bar = _merge_cam_stack(cams, orders)
    dcam, averaged_cam = extract_dcam(m_bar)
    return DCAMResult(
        dcam=dcam,
        m_bar=m_bar,
        averaged_cam=averaged_cam,
        class_id=class_id,
        k=len(orders),
        n_correct=n_correct,
    )


def compute_dcam(model: "ConvBackboneClassifier", series: np.ndarray, class_id: int,
                 k: int = 100, rng: Optional[np.random.Generator] = None,
                 permutations: Optional[Sequence[np.ndarray]] = None,
                 use_only_correct: bool = False,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> DCAMResult:
    """Compute dCAM for one multivariate series.

    The ``k`` permuted series are evaluated in graph-free micro-batches (see
    the module docstring), which is several times faster than ``k``
    independent autograd-recording forward passes while producing maps that
    agree with the legacy path to float round-off (≤ 1e-10).

    Parameters
    ----------
    model:
        A trained d-architecture (``input_kind == "cube"``).
    series:
        Multivariate series of shape ``(D, n)``.
    class_id:
        Class to explain (typically the predicted or ground-truth class).
    k:
        Number of random permutations (the paper uses ``k = 100``).
    rng:
        Random generator controlling the permutation draw.
    permutations:
        Explicit permutations to use instead of random ones (overrides ``k``).
    use_only_correct:
        If True, only permutations classified as ``class_id`` contribute to
        ``M̄`` (falling back to all permutations when none is correct).
    batch_size:
        Cap on the permuted series per forward pass.  The width run is the
        widest, up to the cap, whose largest im2col fits an 8 MiB budget
        (:func:`_forward_width`), so peak memory is bounded by the budget,
        not the cap.  Results agree across values (and with the legacy path)
        to float round-off (≤ 1e-10), not necessarily bit-for-bit.
    """
    _require_d_architecture(model)
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"series must be (D, n), got shape {series.shape}")
    n_dimensions = series.shape[0]
    _require_dimensions(model, n_dimensions)
    _require_class(model, class_id)
    model.eval()
    if permutations is None:
        permutations = random_permutations(n_dimensions, k, rng)
    orders = _stack_orders(permutations, n_dimensions)
    k = len(orders)

    # Pre-permuting the series is equivalent to passing `order` to
    # `prepare_input` (the cube build permutes dimensions first), and lets all
    # k permutations share one stacked array.
    permuted = series[orders]  # (k, D, n)
    weights = model.class_weights[class_id]
    class_weights = np.broadcast_to(weights, (k, weights.shape[0]))
    cams, predicted = _permutation_cams_batched(model, permuted, class_weights, batch_size)
    return _assemble_result(cams, orders, predicted, class_id, use_only_correct)


def compute_dcam_batch(model: "ConvBackboneClassifier", X: np.ndarray,
                       class_ids: Sequence[int], k: int = 100,
                       rng: Optional[np.random.Generator] = None,
                       permutations: Optional[Sequence[Sequence[np.ndarray]]] = None,
                       use_only_correct: bool = False,
                       batch_size: int = DEFAULT_BATCH_SIZE) -> List[DCAMResult]:
    """Compute dCAM for every series of a batch ``(instances, D, n)``.

    The instances' permuted cubes share one micro-batched pipeline, so forward
    passes are never padded down to a single instance's leftover permutations
    and the model is driven at full batch width throughout.  Instances are
    processed in groups sized so that the materialised permuted-series and CAM
    arrays stay within a soft memory cap.

    ``permutations`` optionally supplies one explicit permutation sequence per
    instance (overriding ``k``/``rng``), mirroring :func:`compute_dcam`'s
    parameter.  The serving layer uses this to batch requests that each carry
    their own permutation seed: instance ``i``'s result then matches
    ``compute_dcam(model, X[i], class_ids[i], permutations=permutations[i])``.
    Instances may bring different permutation counts.
    """
    X = np.asarray(X, dtype=np.float64)
    if len(X) != len(class_ids):
        raise ValueError("X and class_ids must have the same length")
    if X.ndim != 3:
        raise ValueError(f"X must be (instances, D, n), got shape {X.shape}")
    _require_d_architecture(model)
    n_instances, n_dimensions, length = X.shape
    _require_dimensions(model, n_dimensions)
    class_ids = [int(c) for c in class_ids]
    for class_id in class_ids:
        _require_class(model, class_id)
    model.eval()

    if permutations is None:
        # Draw each instance's permutations in sequence (matching the legacy
        # one-instance-at-a-time behaviour for a given generator state).
        rng = rng or np.random.default_rng()
        per_instance_orders = [
            _stack_orders(random_permutations(n_dimensions, k, rng), n_dimensions)
            for _ in range(n_instances)
        ]
    else:
        if len(permutations) != n_instances:
            raise ValueError(
                f"permutations must supply one sequence per instance "
                f"({n_instances}), got {len(permutations)}"
            )
        per_instance_orders = [
            _stack_orders(orders, n_dimensions) for orders in permutations
        ]
    counts = [len(orders) for orders in per_instance_orders]

    group = _materialize_group(max(counts, default=0), n_dimensions, length)

    results: List[DCAMResult] = []
    for first in range(0, n_instances, group):
        last = min(first + group, n_instances)
        orders_flat = np.concatenate(per_instance_orders[first:last], axis=0)
        instance_flat = np.repeat(np.arange(first, last), counts[first:last])
        permuted_flat = X[instance_flat[:, None], orders_flat]  # (sum k_i, D, n)
        weights_flat = model.class_weights[np.repeat(class_ids[first:last], counts[first:last])]
        cams_flat, predicted_flat = _permutation_cams_batched(
            model, permuted_flat, weights_flat, batch_size
        )
        start = 0
        for index in range(first, last):
            stop = start + counts[index]
            results.append(
                _assemble_result(cams_flat[start:stop], per_instance_orders[index],
                                 predicted_flat[start:stop], class_ids[index],
                                 use_only_correct)
            )
            start = stop
    return results


def explanation_quality_proxy(result: DCAMResult) -> float:
    """``n_g / k`` — usable without labels to estimate explanation quality."""
    return result.success_ratio
