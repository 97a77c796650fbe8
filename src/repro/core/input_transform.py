"""Input data organisation for the dimension-wise architectures (Section 4.2).

The dCNN / dResNet / dInceptionTime architectures do not consume the raw
multivariate series ``T ∈ R^(D, n)``; they consume the cube ``C(T) ∈
R^(D, D, n)`` in which every row contains *all* dimensions, each row using a
different rotation of the dimension order, so that a given dimension is never
at the same position in two different rows.

With the convolutional layers of :mod:`repro.models`, the cube is presented as
a 2D "image" of height ``D`` (the rows of ``C(T)``) and width ``n`` (time),
with ``D`` channels (the dimensions at each position of a row).

This module also provides the machinery for the random dimension permutations
used by dCAM (Section 4.4.1): generating permutations, applying them, and
mapping back from cube rows to (dimension, position) pairs — the ``idx``
function of Definition 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def rotation_order(n_dimensions: int, shift: int) -> np.ndarray:
    """Dimension order of row ``shift`` of the cube: rotate left by ``shift``."""
    return (np.arange(n_dimensions) + shift) % n_dimensions


def build_cube(series: np.ndarray, order: Optional[Sequence[int]] = None) -> np.ndarray:
    """Build ``C(T)`` for one multivariate series.

    Parameters
    ----------
    series:
        Array of shape ``(D, n)``.
    order:
        Optional permutation of the dimensions applied *before* building the
        cube (``S_T`` in the paper).  ``order[k]`` is the original dimension
        placed at slot ``k``.

    Returns
    -------
    cube:
        Array of shape ``(D, D, n)``: ``cube[row, position]`` is the dimension
        at ``position`` in row ``row``, i.e. permuted dimension
        ``(row + position) mod D``.
    """
    series = np.asarray(series)
    if series.ndim != 2:
        raise ValueError(f"series must be (D, n), got shape {series.shape}")
    n_dimensions = series.shape[0]
    if order is not None:
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(n_dimensions)):
            raise ValueError("order must be a permutation of range(D)")
    return build_cube_batch(series[None], order)[0]


def build_cube_batch(batch: np.ndarray, order: Optional[Sequence[int]] = None) -> np.ndarray:
    """Vectorised :func:`build_cube` for a batch of shape ``(B, D, n)``.

    Returns an array of shape ``(B, D_rows, D_positions, n)`` in which axis 1
    indexes the cube rows and axis 2 the position within the row.  Because the
    rotation matrix ``(row + position) mod D`` is symmetric, the cube is
    invariant under swapping those two axes, so the convolutional models can
    consume it directly as a channels-first ``(B, D, D, n)`` image (see
    :class:`repro.models.conv_common.CubeInputMixin`).
    """
    batch = np.asarray(batch)
    if batch.ndim != 3:
        raise ValueError(f"batch must be (B, D, n), got shape {batch.shape}")
    n_dimensions = batch.shape[1]
    if order is not None:
        order = np.asarray(order)
        batch = batch[:, order, :]
    # shifts[row, position] = (row + position) mod D; one gather builds every
    # rotation at once.  Note the matrix is symmetric, so the cube equals its
    # own (row, position) transpose.
    shifts = (np.arange(n_dimensions)[:, None] + np.arange(n_dimensions)[None, :]) % n_dimensions
    return batch[:, shifts, :]


def roll_cube_batch(cubes: np.ndarray, new_columns: np.ndarray) -> np.ndarray:
    """Slide a batch of cubes forward in time, rewriting only the new columns.

    ``cubes`` is a ``(B, D, D, n)`` stack previously produced by
    :func:`build_cube_batch`; ``new_columns`` is the ``(B, D, hop)`` block of
    (already permuted) series columns that just entered the window.  Because
    ``cube[row, pos, t]`` depends only on column ``t`` of the underlying
    series, a window slide of ``hop`` timesteps shifts the cube's time axis
    left by ``hop`` and rewrites exactly the trailing ``hop`` columns — the
    other ``n - hop`` columns are reused bitwise.  (:mod:`repro.stream`
    builds no cube: its layer 1 reads the permuted series off a ring.)

    Mutates and returns ``cubes``.
    """
    cubes = np.asarray(cubes)
    new_columns = np.asarray(new_columns)
    if cubes.ndim != 4 or cubes.shape[1] != cubes.shape[2]:
        raise ValueError(f"cubes must be (B, D, D, n), got shape {cubes.shape}")
    if new_columns.ndim != 3:
        raise ValueError(f"new_columns must be (B, D, hop), got shape {new_columns.shape}")
    if new_columns.shape[:2] != cubes.shape[:2]:
        raise ValueError(
            f"new_columns batch/dimensions {new_columns.shape[:2]} do not match "
            f"cubes {cubes.shape[:2]}"
        )
    length = cubes.shape[-1]
    hop = new_columns.shape[-1]
    if hop >= length:
        cubes[...] = build_cube_batch(new_columns[..., -length:])
        return cubes
    # NumPy copies overlapping same-array slice assignments safely.
    cubes[..., : length - hop] = cubes[..., hop:]
    cubes[..., length - hop :] = build_cube_batch(new_columns)
    return cubes


def row_for_slot(slot: int, position: int, n_dimensions: int) -> int:
    """Row of the cube holding permuted slot ``slot`` at ``position``.

    Row ``i`` places permuted slot ``(i + p) mod D`` at position ``p``; hence
    the row containing slot ``slot`` at position ``position`` is
    ``(slot - position) mod D``.
    """
    return int((slot - position) % n_dimensions)


def idx(original_dimension: int, position: int, order: Optional[Sequence[int]],
        n_dimensions: int) -> int:
    """The ``idx`` function of Definition 1.

    Returns the row index of ``C(S_T)`` that contains ``T^(original_dimension)``
    at ``position``, where ``S_T`` is the permutation described by ``order``.
    """
    if order is None:
        slot = original_dimension
    else:
        order = np.asarray(order)
        slot = int(np.flatnonzero(order == original_dimension)[0])
    return row_for_slot(slot, position, n_dimensions)


def inverse_order(order: Sequence[int]) -> np.ndarray:
    """Map original dimension -> slot for a permutation ``order``."""
    order = np.asarray(order)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return inverse


def random_permutations(n_dimensions: int, k: int,
                        rng: Optional[np.random.Generator] = None,
                        include_identity: bool = True) -> List[np.ndarray]:
    """Draw ``k`` random dimension permutations (``Σ_T`` subset, Section 4.4.2).

    The identity permutation is included first by default, matching the
    intuition that the original dimension order should always be evaluated.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = rng or np.random.default_rng()
    permutations: List[np.ndarray] = []
    if include_identity:
        permutations.append(np.arange(n_dimensions))
    while len(permutations) < k:
        permutations.append(rng.permutation(n_dimensions))
    return permutations[:k]
