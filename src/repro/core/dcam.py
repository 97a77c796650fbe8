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

One pipeline
------------
Every dCAM in the package runs through :func:`iter_dcam`:
:func:`compute_dcam` is :func:`compute_dcam_batch` on a batch of one, which
is ``list(iter_dcam(...))``, and :class:`repro.explain.dcam.DCAMExplainer`
iterates the same generator with its permutation cache attached.
:func:`draw_orders` draws and validates each instance's permutations, off one
generator instance by instance.  :func:`iter_dcam` then takes instances in
groups whose permuted series and CAM stacks fit a soft memory cap
(:func:`_materialize_group`).  Per group it

* with the optional byte cache, reads each instance's permutation-row table
  (one entry per model-state hash, instance bytes and class, under
  :func:`_table_key`) and reuses the rows whose order it holds; without a
  cache every row misses;
* forwards all the group's misses in one :func:`_permutation_cams_batched`
  call, whose micro-batches cross instance boundaries;
* stores an empty table for an instance seen for the first time, and
  appends the missing rows to the table of an instance that came back, so
  rows are kept only for instances that recur (a stream of fresh instances
  leaves one empty table each); a table grows to at most
  :data:`_TABLE_MAX_BYTES`, however many seeds or how large a ``k`` the
  instance is explained with;
* assembles each instance's result only when the caller asks for the next
  one, so a caller that drops ``M̄`` holds about one at a time.

Rows are bitwise independent of which other rows share their forward, so a
cached row, a recomputed row and an uncached run agree bit for bit.

Execution strategy
------------------
Explanation only needs activations, never gradients, so the forwards run
under :func:`repro.nn.inference_mode`: no autograd graph is recorded.  Both
the forward and the merge move more memory than they compute, so both keep
their working set cache-sized: a micro-batch is as wide as fits a fixed byte
budget (:func:`_forward_width`), and ``M̄`` is accumulated one permutation's
``(D, D, n)`` ``M`` transform at a time.

The forwards are independent, and each is a stream of small GEMMs that BLAS
threads gain little on, so the cores share them instead: when every one of
:data:`_FORWARD_THREADS` threads gets at least one full-width forward
(``rows ≥ threads × width``), contiguous row slices cut at multiples of the
width run on a process-wide thread pool while BLAS is pinned to one thread
(:func:`repro.nn.blas.blas_threads`).  Otherwise, or when the BLAS thread
count cannot be set (unpinned, the split is no faster), the rows run
serially on the caller's thread.  Either way the forward partition is the
serial one, so results are bitwise equal at every thread count; the merge
and everything after it stay serial.

Each slice owns one :class:`~repro.nn.workspace.SliceScratch`: the row
kernel folds every BatchNorm (layer 1's rotated bank included) once per
slice, and takes every block's cols and output from the scratch, which
holds all of one micro-batch's layer buffers at once and is released after
each micro-batch.  The peak in-flight working set is therefore threads ×
the sum of those buffers, not of the widest im2col alone: 13.9 MiB per
thread at D=40, n=100, filters 16,32,32, width 2, of which the widest
im2col, the one the budget bounds, is 5.9 MiB.  The scratch goes when its
slice returns; nothing stays with the thread.

No ``C(T)`` cube is built for the dCNN.  Cube row ``r`` is the permuted series
rotated by ``r`` dimensions, so layer 1 rotates its weights instead of the
data (:func:`repro.nn.functional.cube_conv_bn_relu`) and reads each permuted
``(D, n)`` series directly; it agrees with the cube path to float round-off.
dResNet and dInceptionTime, whose first blocks are not a single
``Conv → BatchNorm → ReLU``, still get the cube.  The one-permutation
graph-recording reference (the paper's algorithm step by step) lives with
the tests, in ``tests/oracles/dcam.py``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Conv2d, Tensor, inference_mode
from ..nn.blas import blas_threads, can_set_threads
from ..nn.workspace import SliceScratch
from .input_transform import random_permutations

__all__ = [
    "DCAMResult",
    "compute_dcam",
    "compute_dcam_batch",
    "draw_orders",
    "iter_dcam",
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

#: Working-set budget of a forward micro-batch's widest im2col, about four
#: times a 2 MiB per-core L2; wider spills to memory (width sweeps in
#: docs/benchmarks.md).
_FORWARD_BYTES = 8 * 1024 * 1024

#: Soft cap on the permuted-series + CAM arrays materialised at once by
#: :func:`compute_dcam_batch`; above it instances are processed in groups
#: (micro-batching still crosses instance boundaries within a group).
#: Tuned at paper scale (D=40, n=100, k=100, ~6.4 MB/instance): throughput
#: plateaus once a group holds ~20 instances, so 128 MB matches the 256 MB
#: setting's speed at half the peak transient footprint (sweep recorded in
#: docs/benchmarks.md).
_BATCH_MATERIALIZE_BYTES = 128 * 1024 * 1024

#: Cap on one permutation-row table (:func:`iter_dcam`): a sixteenth of the
#: serving cache's default 64 MiB memory budget, 129 rows at D=40, n=100 and
#: all 24 orders at D=4, n=48.  A full table takes no more rows, so a hot
#: instance explained with ever new seeds, or with a ``k`` in the thousands,
#: keeps one bounded entry that the LRU can still weigh against the others.
_TABLE_MAX_BYTES = 4 * 1024 * 1024

#: Threads sharing one call's forwards: the cores this process may run on.
_FORWARD_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)

_pool: Optional[futures.ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _forward_pool() -> futures.ThreadPoolExecutor:
    """The process's forward pool of :data:`_FORWARD_THREADS` threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(_FORWARD_THREADS, thread_name_prefix="dcam-forward")
        return _pool


def _drop_pool() -> None:
    """Forget the pool; a forked child must, as its threads stayed in the parent."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _materialize_group(permutations: int, n_dimensions: int, length: int) -> int:
    """How many items of ``permutations`` rows each fit the materialisation cap.

    An item's permuted series and CAM stack cost ``~2 · k · D · n · 8`` bytes;
    the answer is at least 1: the instance groups of :func:`iter_dcam`.
    """
    bytes_per_item = 2 * permutations * n_dimensions * length * 8
    return max(1, _BATCH_MATERIALIZE_BYTES // max(1, bytes_per_item))


@dataclass
class DCAMResult:
    """One instance's dCAM, as :func:`iter_dcam` yields it.

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


def draw_orders(n_instances: int, n_dimensions: int, k: int,
                rng: Optional[np.random.Generator],
                permutations: Optional[Sequence[Sequence[np.ndarray]]]) -> List[np.ndarray]:
    """One validated ``(k_i, D)`` order stack per instance.

    Explicit ``permutations`` (one sequence per instance) override ``k``;
    otherwise ``k`` are drawn off ``rng`` instance by instance, so a batch
    draws what the same instances explained one at a time would.
    """
    if permutations is not None:
        if len(permutations) != n_instances:
            raise ValueError(
                f"permutations must supply one sequence per instance "
                f"({n_instances}), got {len(permutations)}"
            )
        return [_stack_orders(stack, n_dimensions) for stack in permutations]
    rng = rng or np.random.default_rng()
    return [_stack_orders(random_permutations(n_dimensions, k, rng), n_dimensions)
            for _ in range(n_instances)]


def _forward_rows(model, permuted: np.ndarray, class_weights: np.ndarray, cams: np.ndarray,
                  predicted: np.ndarray, start: int, stop: int, width: int,
                  reads_series: bool) -> None:
    """Forward rows ``start:stop`` in ``width``-series micro-batches into ``cams``/``predicted``.

    One slice scratch serves every micro-batch (module docstring).
    """
    # The grad mode and the scratch are thread-local, so a pool thread sets its own.
    with inference_mode(), SliceScratch() as scratch:
        for begin in range(start, stop, width):
            end = min(begin + width, stop)
            if reads_series:
                prepared = Tensor(permuted[begin:end].astype(model.compute_dtype, copy=False))
            else:
                prepared = model.prepare_input(permuted[begin:end])
            features = model.features(prepared)
            logits = model.classifier(model.gap(features))
            cams[begin:end] = np.einsum("bf,bfdn->bdn", class_weights[begin:end], features.data)
            predicted[begin:end] = logits.data.argmax(axis=1)
            scratch.release_all()


def _permutation_cams_batched(model: "ConvBackboneClassifier", permuted: np.ndarray,
                              class_weights: np.ndarray,
                              batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Forward pre-permuted series through the model in graph-free micro-batches.

    Shared out over the forward pool when every thread gets a full-width
    forward (module docstring).

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
    width = _forward_width(model, n_dimensions, length, batch_size)
    with inference_mode():
        # A dCNN's layer 1 reads the permuted series directly; the other
        # d-architectures get the C(T) cube.
        reads_series = model.series_block() is not None
    forward = functools.partial(_forward_rows, model, permuted, class_weights, cams, predicted,
                                width=width, reads_series=reads_series)
    threads = _FORWARD_THREADS
    if threads < 2 or n_total < threads * width or not can_set_threads():
        forward(start=0, stop=n_total)
        return cams, predicted
    chunks = -(-n_total // width)
    bounds = [min(n_total, width * (chunks * index // threads)) for index in range(threads + 1)]
    with blas_threads(1):
        slices = [_forward_pool().submit(forward, start=start, stop=stop)
                  for start, stop in zip(bounds, bounds[1:])]
        futures.wait(slices)
    for piece in slices:
        piece.result()  # the first error in slice order, once none still writes
    return cams, predicted


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


#: Domain tag of the permutation-row table keys (:func:`_table_key`); no
#: other entry of a shared byte store can parse as a table.
_TABLE_TAG = b"dcam-permutation-table\x00"


def _table_key(model_hash: str, series: np.ndarray, class_id: int) -> str:
    """Content key of one (model state, instance, class)'s permutation-row table."""
    digest = hashlib.sha256(_TABLE_TAG)
    digest.update(model_hash.encode("ascii"))
    digest.update(b"\x00")
    series = np.ascontiguousarray(series, dtype=np.float64)
    digest.update(str(series.shape).encode("ascii"))
    digest.update(series.tobytes())
    digest.update(f"\x00{int(class_id)}\x00".encode("ascii"))
    return digest.hexdigest()


def _read_table(blob: bytes, n_dimensions: int,
                length: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(orders, predicted, cams)`` of a stored table, ``None`` unless it holds whole rows.

    A table is raw bytes: the ``(m, D)`` int64 orders, the ``(m,)`` int64
    predicted classes and the ``(m, D, n)`` float64 CAM rows, concatenated;
    ``m`` follows from the length.
    """
    rows, remainder = divmod(len(blob), _table_row_bytes(n_dimensions, length))
    if remainder:
        return None
    orders = np.frombuffer(blob, np.int64, rows * n_dimensions)
    predicted = np.frombuffer(blob, np.int64, rows, offset=orders.nbytes)
    cams = np.frombuffer(blob, np.float64, rows * n_dimensions * length,
                         offset=orders.nbytes + predicted.nbytes)
    return orders.reshape(rows, n_dimensions), predicted, cams.reshape(rows, n_dimensions, length)


def _table_row_bytes(n_dimensions: int, length: int) -> int:
    """Bytes of one table row: its ``D`` order entries, predicted class and ``(D, n)`` CAM."""
    return 8 * (n_dimensions + 1 + n_dimensions * length)


def _table_bytes(orders: np.ndarray, predicted: np.ndarray, cams: np.ndarray) -> bytes:
    """The stored form of int64 ``orders``/``predicted`` and float64 ``cams`` (:func:`_read_table`)."""
    return b"".join(part.tobytes() for part in (orders, predicted, cams))


def _load_table(cache, key: str, n_dimensions: int,
                length: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The table under ``key``: ``None`` if there is none, empty if it is not whole rows.

    A table that is not whole rows is dropped from the cache's local tiers
    and read as holding no rows, so every row is forwarded and the table
    overwritten; it is never sliced into a map.
    """
    blob = cache.get(key)
    if blob is None:
        return None
    table = _read_table(blob, n_dimensions, length)
    if table is None:
        cache.invalidate(key)
        table = _read_table(b"", n_dimensions, length)
    return table


def iter_dcam(model: "ConvBackboneClassifier", X: np.ndarray, class_ids: Sequence[int],
              orders: Sequence[np.ndarray], use_only_correct: bool, batch_size: int,
              cache=None, model_hash: Optional[str] = None) -> Iterator[DCAMResult]:
    """The dCAM pipeline: one :class:`DCAMResult` per instance of ``X``, in order.

    ``orders`` holds one ``(k_i, D)`` stack per instance (:func:`draw_orders`);
    ``X`` and ``class_ids`` are trusted, callers validate them.  Instances go
    in groups of :func:`_materialize_group`.  With a ``cache`` (any object with
    ``get(key)``, ``put(key, blob)`` and ``invalidate(key)``) each instance's
    permutation-row table is read under :func:`_table_key` with
    ``model_hash``, once per instance: rows whose order it holds are reused.
    The group's other rows (every row without a cache) are forwarded in one
    :func:`_permutation_cams_batched` call.  An instance without a table gets
    an empty one; an instance with one gets its missing rows appended, in
    draw order, until the table holds :data:`_TABLE_MAX_BYTES`.  Each result
    is assembled when the caller asks for it.
    """
    if model.training:  # eval() walks every module: keep it off the warm path
        model.eval()
    n_instances, n_dimensions, length = X.shape
    counts = [len(stack) for stack in orders]
    group = _materialize_group(max(counts, default=0), n_dimensions, length)
    for first in range(0, n_instances, group):
        last = min(first + group, n_instances)
        owners = np.repeat(np.arange(first, last), counts[first:last])
        orders_flat = np.concatenate(orders[first:last]).astype(np.int64, copy=False)
        bounds = np.cumsum([0] + counts[first:last])
        missing = np.ones(len(owners), dtype=bool)
        if cache is not None:
            cams = np.empty((len(owners), n_dimensions, length))
            predicted = np.empty(len(owners), dtype=np.int64)
            keys = [_table_key(model_hash, X[index], class_ids[index])
                    for index in range(first, last)]
            tables = [_load_table(cache, key, n_dimensions, length) for key in keys]
            for table, start, stop in zip(tables, bounds, bounds[1:]):
                held = {} if table is None else {order.tobytes(): row
                                                 for row, order in enumerate(table[0])}
                found = [(row, held[order]) for row in range(start, stop)
                         if (order := orders_flat[row].tobytes()) in held]
                if found:
                    here, there = np.array(found).T
                    cams[here], predicted[here] = table[2][there], table[1][there]
                    missing[here] = False
        rows = np.flatnonzero(missing)
        if len(rows):
            forwarded = _permutation_cams_batched(
                model, X[owners[rows, None], orders_flat[rows]],
                model.class_weights[np.asarray(class_ids)[owners[rows]]], batch_size)
            if len(rows) == len(owners):
                cams, predicted = forwarded
            else:
                cams[rows], predicted[rows] = forwarded
        if cache is not None:
            capacity = _TABLE_MAX_BYTES // _table_row_bytes(n_dimensions, length)
            for key, table, start, stop in zip(keys, tables, bounds, bounds[1:]):
                if table is None:  # a first explain: remember the instance, keep no rows
                    cache.put(key, b"")
                    continue
                new = list({orders_flat[row].tobytes(): row for row in start + np.flatnonzero(
                    missing[start:stop])}.values())[:max(capacity - len(table[1]), 0)]
                if new:
                    cache.put(key, _table_bytes(*(np.concatenate(pair) for pair in zip(
                        table, (orders_flat[new], predicted[new], cams[new])))))
        for index, start, stop in zip(range(first, last), bounds, bounds[1:]):
            yield _assemble_result(cams[start:stop], orders[index], predicted[start:stop],
                                   class_ids[index], use_only_correct)


def compute_dcam(model: "ConvBackboneClassifier", series: np.ndarray, class_id: int,
                 k: int = 100, rng: Optional[np.random.Generator] = None,
                 permutations: Optional[Sequence[np.ndarray]] = None,
                 use_only_correct: bool = False,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> DCAMResult:
    """Compute dCAM for one multivariate series: :func:`compute_dcam_batch` of one.

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
        not the cap.  Results are bitwise equal across values (each row's
        forward does not depend on the width); they agree with the
        graph-recording reference to float round-off (≤ 1e-10).
    """
    _require_d_architecture(model)
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"series must be (D, n), got shape {series.shape}")
    return compute_dcam_batch(model, series[None], [class_id], k=k, rng=rng,
                              permutations=None if permutations is None else [permutations],
                              use_only_correct=use_only_correct, batch_size=batch_size)[0]


def compute_dcam_batch(model: "ConvBackboneClassifier", X: np.ndarray,
                       class_ids: Sequence[int], k: int = 100,
                       rng: Optional[np.random.Generator] = None,
                       permutations: Optional[Sequence[Sequence[np.ndarray]]] = None,
                       use_only_correct: bool = False,
                       batch_size: int = DEFAULT_BATCH_SIZE) -> List[DCAMResult]:
    """Compute dCAM for every series of a batch ``(instances, D, n)``.

    Validates the batch and runs :func:`iter_dcam` without a cache.
    ``permutations`` optionally supplies one explicit permutation sequence per
    instance (overriding ``k``/``rng``); instance ``i``'s result then matches
    ``compute_dcam(model, X[i], class_ids[i], permutations=permutations[i])``.
    Instances may bring different permutation counts.
    """
    X = np.asarray(X, dtype=np.float64)
    if len(X) != len(class_ids):
        raise ValueError("X and class_ids must have the same length")
    if X.ndim != 3:
        raise ValueError(f"X must be (instances, D, n), got shape {X.shape}")
    _require_d_architecture(model)
    _require_dimensions(model, X.shape[1])
    class_ids = [int(c) for c in class_ids]
    for class_id in class_ids:
        _require_class(model, class_id)
    orders = draw_orders(len(X), X.shape[1], k, rng, permutations)
    return list(iter_dcam(model, X, class_ids, orders, use_only_correct, batch_size))


def explanation_quality_proxy(result: DCAMResult) -> float:
    """``n_g / k`` — usable without labels to estimate explanation quality."""
    return result.success_ratio
