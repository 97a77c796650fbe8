"""Property-based tests of the C(T) cube, idx mapping and dCAM extraction."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_cube,
    extract_dcam,
    idx,
    inverse_order,
    merge_permutation_cams,
    random_permutations,
    rotation_order,
)
from oracles.dcam import m_transform
from repro.eval import pr_auc

DIMS = st.integers(min_value=2, max_value=8)
LENGTHS = st.integers(min_value=3, max_value=12)


@settings(max_examples=50, deadline=None)
@given(DIMS, LENGTHS, st.integers(min_value=0, max_value=10_000))
def test_every_row_and_column_of_cube_contains_all_dimensions(n_dims, length, seed):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((n_dims, length))
    cube = build_cube(series)
    for row in range(n_dims):
        row_ids = {int(series_id) for series_id in _identify_rows(cube[row], series)}
        assert row_ids == set(range(n_dims))
    for position in range(n_dims):
        column_ids = {int(series_id) for series_id in _identify_rows(cube[:, position], series)}
        assert column_ids == set(range(n_dims))


def _identify_rows(stack, series):
    """Map each univariate series in ``stack`` back to its dimension index."""
    for row in stack:
        matches = np.flatnonzero((series == row).all(axis=1))
        assert len(matches) >= 1
        yield matches[0]


@settings(max_examples=50, deadline=None)
@given(DIMS, LENGTHS, st.integers(min_value=0, max_value=10_000))
def test_idx_locates_dimensions_in_the_cube(n_dims, length, seed):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((n_dims, length))
    order = rng.permutation(n_dims)
    cube = build_cube(series, order)
    for dimension in range(n_dims):
        for position in range(n_dims):
            row = idx(dimension, position, order, n_dims)
            np.testing.assert_allclose(cube[row, position], series[dimension])


@settings(max_examples=50, deadline=None)
@given(DIMS, st.integers(min_value=0, max_value=10_000))
def test_inverse_order_roundtrip(n_dims, seed):
    order = np.random.default_rng(seed).permutation(n_dims)
    inverse = inverse_order(order)
    np.testing.assert_array_equal(order[inverse], np.arange(n_dims))
    np.testing.assert_array_equal(inverse[order], np.arange(n_dims))


@settings(max_examples=50, deadline=None)
@given(DIMS, st.integers(min_value=0, max_value=20))
def test_rotation_order_is_a_permutation(n_dims, shift):
    order = rotation_order(n_dims, shift)
    assert sorted(order.tolist()) == list(range(n_dims))


@settings(max_examples=30, deadline=None)
@given(DIMS, st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10_000))
def test_random_permutations_are_valid_and_include_identity(n_dims, k, seed):
    permutations = random_permutations(n_dims, k, np.random.default_rng(seed))
    assert len(permutations) == k
    np.testing.assert_array_equal(permutations[0], np.arange(n_dims))
    for permutation in permutations:
        assert sorted(permutation.tolist()) == list(range(n_dims))


@settings(max_examples=40, deadline=None)
@given(DIMS, LENGTHS, st.integers(min_value=0, max_value=10_000))
def test_m_transform_constant_cam_gives_constant_m(n_dims, length, seed):
    """A CAM that is identical in every row carries no positional information."""
    rng = np.random.default_rng(seed)
    cam_row = rng.standard_normal(length)
    cam_rows = np.tile(cam_row, (n_dims, 1))
    order = rng.permutation(n_dims)
    transformed = m_transform(cam_rows, order)
    assert transformed.shape == (n_dims, n_dims, length)
    for dimension in range(n_dims):
        for position in range(n_dims):
            np.testing.assert_allclose(transformed[dimension, position], cam_row)


@settings(max_examples=40, deadline=None)
@given(DIMS, LENGTHS, st.integers(min_value=0, max_value=10_000))
def test_extract_dcam_constant_m_bar_has_zero_variance_term(n_dims, length, seed):
    rng = np.random.default_rng(seed)
    per_time = rng.standard_normal(length)
    m_bar = np.tile(per_time, (n_dims, n_dims, 1))
    dcam, averaged = extract_dcam(m_bar)
    np.testing.assert_allclose(dcam, np.zeros((n_dims, length)), atol=1e-12)
    np.testing.assert_allclose(averaged, per_time * n_dims / 2.0, rtol=1e-10)


@settings(max_examples=40, deadline=None)
@given(DIMS, LENGTHS, st.integers(min_value=0, max_value=10_000))
def test_merge_permutation_cams_identity_average(n_dims, length, seed):
    """Averaging the same permutation CAM twice equals its own M transform."""
    rng = np.random.default_rng(seed)
    cam_rows = rng.standard_normal((n_dims, length))
    order = rng.permutation(n_dims)
    single = m_transform(cam_rows, order)
    merged = merge_permutation_cams([(cam_rows, order), (cam_rows, order)])
    np.testing.assert_allclose(merged, single)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=5, max_value=60), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_pr_auc_is_one_for_perfect_ranking(n_points, n_positive, seed):
    rng = np.random.default_rng(seed)
    n_positive = min(n_positive, n_points - 1)
    labels = np.zeros(n_points)
    positive_indices = rng.choice(n_points, size=n_positive, replace=False)
    labels[positive_indices] = 1
    scores = labels + rng.uniform(0.0, 0.4, size=n_points)  # positives strictly higher
    assert pr_auc(labels, scores) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=10, max_value=80), st.integers(min_value=0, max_value=10_000))
def test_pr_auc_bounded_between_zero_and_one(n_points, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n_points)
    if labels.sum() == 0:
        labels[0] = 1
    scores = rng.standard_normal(n_points)
    value = pr_auc(labels, scores)
    assert 0.0 <= value <= 1.0
