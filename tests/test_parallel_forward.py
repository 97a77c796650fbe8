"""dCAM's permutation forwards split over the forward thread pool.

Pinned here: every thread count gives the serial result bit for bit on all
three d-architectures and every dCAM entry point; the pool is used only when
each thread gets a full-width forward and BLAS can be pinned; a failing
slice surfaces only after every slice has finished, with the BLAS thread
count restored; and a child forked after a fan-out can fan out itself.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

import repro.core.dcam as core_dcam
from repro.core.dcam import _forward_width, compute_dcam, compute_dcam_batch
from repro.core.input_transform import random_permutations
from repro.explain import DCAMExplainer
from repro.models import DCNNClassifier, DInceptionTimeClassifier, DResNetClassifier
from repro.nn import blas
from repro.serve import ExplanationCache

LENGTH = 24
WIDTH = 4  # the batch_size cap; these models' im2col fits the budget far wider

MODELS = {
    "dcnn": lambda rng: DCNNClassifier(5, LENGTH, 3, filters=(4, 8), rng=rng),
    "dresnet": lambda rng: DResNetClassifier(5, LENGTH, 3, filters=(4, 4, 4), rng=rng),
    "dinceptiontime": lambda rng: DInceptionTimeClassifier(5, LENGTH, 3, depth=2, n_filters=4,
                                                           rng=rng),
}


def reset_pool():
    if core_dcam._pool is not None:
        core_dcam._pool.shutdown()
    core_dcam._drop_pool()


@pytest.fixture
def threads(monkeypatch):
    """``threads(count)`` runs later forwards on a fresh pool of ``count`` threads."""
    def use(count):
        reset_pool()
        monkeypatch.setattr(core_dcam, "_FORWARD_THREADS", count)
    yield use
    reset_pool()


@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in BLAS thread control: the count lives in ``state["threads"]``."""
    state = {"threads": 2, "sets": []}

    def set_threads(count):
        time.sleep(0)  # a ctypes call releases the interpreter lock too
        state["threads"] = count
        state["sets"].append(count)

    monkeypatch.setattr(blas, "_control", (lambda: state["threads"], set_threads))
    return state


@pytest.fixture
def slices(monkeypatch):
    """Record each ``(start, stop, thread name)`` the forward runs."""
    calls = []
    original = core_dcam._forward_rows

    def recording(*args, start, stop, **kwargs):
        calls.append((start, stop, threading.current_thread().name))
        return original(*args, start=start, stop=stop, **kwargs)

    monkeypatch.setattr(core_dcam, "_forward_rows", recording)
    return calls


def explain_everything(model):
    """compute_dcam, compute_dcam_batch and a cold-then-warm cached explainer."""
    series = np.random.default_rng(1).standard_normal((3, 5, LENGTH))
    permutations = [random_permutations(5, 13, np.random.default_rng(seed)) for seed in range(3)]
    single = compute_dcam(model, series[0], 1, k=40, rng=np.random.default_rng(2),
                          batch_size=WIDTH)
    batch = compute_dcam_batch(model, series, [0, 1, 2], permutations=permutations,
                               batch_size=WIDTH)
    explainer = DCAMExplainer(model, batch_size=WIDTH,
                              cache=ExplanationCache(max_memory_bytes=None))
    cold = [e.details for e in explainer.explain_batch(series, [2, 0, 1],
                                                       permutations=permutations)]
    warm = [e.details for e in explainer.explain_batch(series, [2, 0, 1],
                                                       permutations=permutations)]
    return [single, *batch, *cold, *warm]


def assert_same_results(results, expected):
    assert len(results) == len(expected)
    for result, reference in zip(results, expected):
        assert np.array_equal(result.dcam, reference.dcam)
        assert np.array_equal(result.m_bar, reference.m_bar)
        assert result.n_correct == reference.n_correct


@pytest.mark.parametrize("architecture", sorted(MODELS))
def test_every_thread_count_matches_the_serial_result_bitwise(architecture, threads, fake_blas,
                                                             slices):
    model = MODELS[architecture](np.random.default_rng(0)).eval()
    assert _forward_width(model, 5, LENGTH, WIDTH) == WIDTH
    threads(1)
    expected = explain_everything(model)
    assert {name for _, _, name in slices} == {threading.current_thread().name}
    for count in (2, 3):
        threads(count)
        slices.clear()
        assert_same_results(explain_everything(model), expected)
        assert all(name.startswith("dcam-forward") for _, _, name in slices)
        assert all(start % WIDTH == 0 for start, _, _ in slices)
    assert fake_blas["threads"] == 2


def test_real_blas_fan_out_matches_serial(threads, slices):
    if not blas.can_set_threads():
        pytest.skip(f"BLAS thread count not settable: {blas.reason}")
    model = MODELS["dcnn"](np.random.default_rng(0)).eval()
    threads(1)
    expected = explain_everything(model)
    threads(2)
    assert_same_results(explain_everything(model), expected)
    assert any(name.startswith("dcam-forward") for _, _, name in slices)


@pytest.mark.parametrize("k, fans_out", [(7, False), (8, True)])
def test_fans_out_only_with_a_full_width_forward_per_thread(k, fans_out, threads, fake_blas):
    model = MODELS["dcnn"](np.random.default_rng(0)).eval()
    threads(2)
    compute_dcam(model, np.ones((5, LENGTH)), 1, k=k, rng=np.random.default_rng(0),
                 batch_size=WIDTH)
    assert (core_dcam._pool is not None) == fans_out
    assert fake_blas["sets"] == ([1, 2] if fans_out else [])


def test_a_tiny_scale_evaluation_never_fans_out(threads, fake_blas):
    # 48 rows at the default cap of 32: fewer than one full forward per thread.
    model = DCNNClassifier(4, 48, 2, filters=(8, 16, 16), rng=np.random.default_rng(0)).eval()
    threads(2)
    compute_dcam(model, np.ones((4, 48)), 1, k=48, rng=np.random.default_rng(0))
    assert core_dcam._pool is None


def test_runs_serially_without_blas_control(threads, monkeypatch, slices):
    model = MODELS["dcnn"](np.random.default_rng(0)).eval()
    threads(1)
    expected = explain_everything(model)
    threads(2)
    monkeypatch.setattr(blas, "_control", None)
    slices.clear()
    assert_same_results(explain_everything(model), expected)
    assert core_dcam._pool is None
    assert {name for _, _, name in slices} == {threading.current_thread().name}


def test_a_missing_blas_control_is_looked_up_once_and_explained(monkeypatch):
    lookups = []
    monkeypatch.setattr(blas, "_control", blas._UNRESOLVED)
    monkeypatch.setattr(blas, "reason", None)
    monkeypatch.setattr(blas, "_find_openblas",
                        lambda: lookups.append(1) or (None, "no OpenBLAS library is loaded"))
    with blas.blas_threads(1):
        assert not blas.can_set_threads()
    assert blas.reason == "no OpenBLAS library is loaded"
    assert lookups == [1]


def test_a_failing_slice_surfaces_after_every_slice_finished(threads, fake_blas, monkeypatch):
    model = MODELS["dcnn"](np.random.default_rng(0)).eval()
    threads(3)
    finished = []

    def failing(*args, start, stop, **kwargs):
        if start == 0:
            time.sleep(0.2)
            finished.append(start)
            raise ValueError("slice 0")
        if stop == 40:
            raise KeyError("last slice")
        time.sleep(0.3)
        finished.append(start)

    monkeypatch.setattr(core_dcam, "_forward_rows", failing)
    with blas.blas_threads(1):
        with pytest.raises(ValueError, match="slice 0"):
            compute_dcam(model, np.ones((5, LENGTH)), 1, k=40, rng=np.random.default_rng(0),
                         batch_size=WIDTH)
        assert sorted(finished) == [0, 12]
        assert fake_blas["threads"] == 1
    assert fake_blas["threads"] == 2
    assert fake_blas["sets"] == [1, 2]


def test_nested_and_overlapping_pins_restore_the_real_count():
    if not blas.can_set_threads():
        pytest.skip(f"BLAS thread count not settable: {blas.reason}")
    get = blas._control[0]
    before = get()
    entered, release = threading.Event(), threading.Event()

    def hold():
        with blas.blas_threads(1):
            entered.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    with blas.blas_threads(1):
        holder.start()
        entered.wait(10)
        with blas.blas_threads(1):
            assert get() == 1
    assert get() == 1  # the other thread still holds its pin
    release.set()
    holder.join(10)
    assert not holder.is_alive()
    assert get() == before


def run_concurrently(target, count):
    """Run ``target(index)`` on ``count`` threads with a tiny switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=target, args=(index,)) for index in range(count)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)


def test_concurrent_fan_outs_share_the_pool(threads, fake_blas):
    model = MODELS["dcnn"](np.random.default_rng(0)).eval()
    series = np.random.default_rng(1).standard_normal((5, LENGTH))

    def explain(seed):
        return compute_dcam(model, series, seed % 3, k=40, rng=np.random.default_rng(seed),
                            batch_size=WIDTH)

    threads(1)
    expected = [explain(seed) for seed in range(12)]
    threads(3)
    results = [None] * len(expected)

    def caller(seed):
        results[seed] = explain(seed)

    run_concurrently(caller, len(expected))
    assert_same_results(results, expected)
    assert fake_blas["threads"] == 2


def test_overlapping_pins_keep_the_count_until_the_last_leaves(fake_blas):
    seen = []

    def pin(index):
        for _ in range(300):
            with blas.blas_threads(1):
                seen.append(fake_blas["threads"])

    run_concurrently(pin, 8)
    assert set(seen) == {1}
    assert fake_blas["threads"] == 2
    assert blas._holders == 0


def _explain_in_child(connection):
    try:
        pool_was_dropped = core_dcam._pool is None
        model = MODELS["dcnn"](np.random.default_rng(0)).eval()
        result = compute_dcam(model, np.ones((5, LENGTH)), 1, k=40,
                              rng=np.random.default_rng(0), batch_size=WIDTH)
        connection.send((pool_was_dropped, result.dcam))
    finally:
        connection.close()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_a_child_forked_after_a_fan_out_can_fan_out(threads, monkeypatch):
    if not blas.can_set_threads():
        monkeypatch.setattr(blas, "_control", (lambda: 1, lambda count: None))
    model = MODELS["dcnn"](np.random.default_rng(0)).eval()
    threads(2)
    expected = compute_dcam(model, np.ones((5, LENGTH)), 1, k=40, rng=np.random.default_rng(0),
                            batch_size=WIDTH)
    assert core_dcam._pool is not None
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_explain_in_child, args=(sender,))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child's fan-out did not finish"
        pool_was_dropped, dcam = receiver.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert pool_was_dropped
    assert np.array_equal(dcam, expected.dcam)
    assert child.exitcode == 0
