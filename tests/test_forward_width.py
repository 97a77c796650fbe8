"""Cache-sized dCAM: the forward width budget and the streaming ``M̄`` merge.

Pinned here: the permutation-at-a-time merge equals the one-gather merge bit
for bit, the forward width stays within ``[1, batch_size]`` and shrinks at
paper scale, dCAM does not depend on the width cap, a cold cached explainer
matches the uncached pipeline at a width that does not divide the cap, and a
paper-scale explanation's peak allocation stays bounded.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.dcam as core_dcam
from repro.core.dcam import (
    _assemble_result,
    _forward_width,
    _merge_cam_stack,
    compute_dcam,
    compute_dcam_batch,
)
from repro.core.input_transform import random_permutations
from repro.explain import DCAMExplainer
from repro.models import DCNNClassifier, DInceptionTimeClassifier, DResNetClassifier
from repro.serve import ExplanationCache

LENGTH = 24


def gather_merge(cams, orders):
    """``M̄`` through one ``(k, D, D, n)`` fancy-indexed gather."""
    k = len(cams)
    rows = core_dcam.permutation_rows(orders)
    return cams[np.arange(k)[:, None, None], rows].sum(axis=0) / k


def assert_matches_gather(merged, cams, orders):
    expected = gather_merge(cams, orders)
    if merged.size == 1:
        # A one-element M transform makes `.sum(axis=0)` a contiguous
        # reduction, which numpy sums pairwise, not in permutation order.
        np.testing.assert_allclose(merged, expected, rtol=1e-14, atol=0)
    else:
        assert np.array_equal(merged, expected)


def paper_dcnn():
    return DCNNClassifier(40, 100, 2, filters=(16, 32, 32),
                          rng=np.random.default_rng(0)).eval()


def tiny_dcnn():
    return DCNNClassifier(4, 48, 2, filters=(8, 16, 16), rng=np.random.default_rng(0)).eval()


@pytest.mark.parametrize("k", [1, 2, 7, 100])
@pytest.mark.parametrize("n_dimensions", [1, 3, 40])
@pytest.mark.parametrize("length", [1, 17])
def test_streaming_merge_matches_the_gather_bitwise(k, n_dimensions, length):
    rng = np.random.default_rng(k * 1000 + n_dimensions * 10 + length)
    cams = rng.standard_normal((k, n_dimensions, length))
    orders = np.asarray(random_permutations(n_dimensions, k, rng), dtype=np.intp)
    assert_matches_gather(_merge_cam_stack(cams, orders), cams, orders)

    predicted = rng.integers(0, 2, size=k)
    predicted[0] = 1
    result = _assemble_result(cams, orders, predicted, 1, use_only_correct=True)
    correct = predicted == 1
    assert_matches_gather(result.m_bar, cams[correct], orders[correct])


class TestForwardWidth:
    @pytest.mark.parametrize("batch_size", [1, 2, 5, 32, 1000])
    def test_stays_within_one_and_the_cap(self, batch_size):
        for model, n_dimensions, length in [
            (paper_dcnn(), 40, 100),
            (tiny_dcnn(), 4, 48),
        ]:
            width = _forward_width(model, n_dimensions, length, batch_size)
            assert 1 <= width <= batch_size

    def test_narrower_than_the_default_at_paper_scale(self):
        assert _forward_width(paper_dcnn(), 40, 100, 32) < 32

    def test_the_cap_binds_at_tiny_scale(self):
        assert _forward_width(tiny_dcnn(), 4, 48, 32) == 32

    def test_the_cube_free_first_layer_counts_its_own_im2col(self):
        # Layer 1 reads the (D·ℓ, n) series im2col, not D·ℓ rows over D·n
        # columns; the most a micro-batch holds at once is the hand-off from
        # block 2 to block 3, their 16·3 and 32·3 rows over D·n.
        model = DCNNClassifier(60, 50, 2, filters=(16, 32, 32), rng=np.random.default_rng(0)).eval()
        held = (16 * 3 + 32 * 3) * 60 * 50
        assert _forward_width(model, 60, 50, 32) == core_dcam._FORWARD_BYTES // (8 * held)
        assert _forward_width(model, 60, 50, 32) == 2

    def test_one_micro_batch_at_paper_scale(self):
        assert _forward_width(paper_dcnn(), 40, 100, 32) == 1

    def test_float32_is_at_least_as_wide(self):
        wide = _forward_width(paper_dcnn().astype(np.float32), 40, 100, 1000)
        assert wide >= _forward_width(paper_dcnn(), 40, 100, 1000)


@pytest.mark.parametrize("make_model", [
    lambda rng: DCNNClassifier(5, LENGTH, 3, filters=(4, 8), rng=rng),
    lambda rng: DResNetClassifier(5, LENGTH, 3, filters=(4, 4, 4), rng=rng),
    lambda rng: DInceptionTimeClassifier(5, LENGTH, 3, depth=2, n_filters=4, rng=rng),
])
def test_dcam_is_bitwise_independent_of_the_width_cap(make_model):
    model = make_model(np.random.default_rng(0)).eval()
    series = np.random.default_rng(1).standard_normal((5, LENGTH))
    permutations = random_permutations(5, 40, np.random.default_rng(2))
    results = [compute_dcam(model, series, 1, permutations=permutations, batch_size=width)
               for width in (1, 3, 32, 1000)]
    for result in results[1:]:
        assert np.array_equal(result.m_bar, results[0].m_bar)
        assert np.array_equal(result.dcam, results[0].dcam)
        assert result.n_correct == results[0].n_correct


def test_cold_cache_matches_uncached_at_a_width_that_does_not_divide_the_cap(monkeypatch):
    model = DCNNClassifier(5, LENGTH, 3, filters=(4, 8), rng=np.random.default_rng(0)).eval()
    X = np.random.default_rng(1).standard_normal((4, 5, LENGTH))
    class_ids = [0, 1, 2, 1]
    permutations = [random_permutations(5, 25, np.random.default_rng(seed)) for seed in range(4)]
    # Width 3 under a cap of 8, and a materialisation cap small enough that
    # every instance is its own group: each group's 25 missing rows go
    # through one forward call of widths 3, 3, ..., 1.
    # The hand-off from layer 1 to block 2: layer 1's 5·3 rows over n and
    # block 2's 4·3 rows over D·n.
    per_item = 8 * (5 * 3 * LENGTH + 4 * 3 * 5 * LENGTH)
    monkeypatch.setattr(core_dcam, "_FORWARD_BYTES", 3 * per_item)
    monkeypatch.setattr(core_dcam, "_BATCH_MATERIALIZE_BYTES", 10 * 2 * 5 * LENGTH * 8)
    assert _forward_width(model, 5, LENGTH, 8) == 3

    expected = compute_dcam_batch(model, X, class_ids, permutations=permutations, batch_size=8)
    explainer = DCAMExplainer(model, batch_size=8, cache=ExplanationCache(max_memory_bytes=None))
    cached = explainer.explain_batch(X, class_ids, permutations=permutations)
    for explanation, result in zip(cached, expected):
        assert np.array_equal(explanation.heatmap, result.dcam)
        assert np.array_equal(explanation.details.m_bar, result.m_bar)
        assert explanation.details.n_correct == result.n_correct


def test_paper_scale_peak_allocation_stays_bounded():
    model = paper_dcnn()
    series = np.random.default_rng(1).standard_normal((40, 100))
    tracemalloc.start()
    try:
        compute_dcam(model, series, 1, k=100, rng=np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 * 1024
