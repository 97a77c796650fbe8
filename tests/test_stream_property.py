"""Random hop / push / cache-hit / swap sequences against the naive oracle.

The incremental :class:`~repro.stream.StreamSession` keeps its feature maps,
``M̄`` and CAM in ring layout behind one offset, advanced by the gap since the
last computed window: ``hop``, or a multiple of it after cache hits.  A wrong
offset still emits a plausible heatmap, so every emission is compared with a
naive session fed the same pushes: discrete outputs with ``==``, heatmaps and
logits within 1e-10, and the heatmap of every dCNN/cCNN cold start bitwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import CCNNClassifier, CNNClassifier, DCNNClassifier
from repro.serve import ExplanationCache
from repro.stream import StreamConfig, StreamSession

D, CLASSES, K, SEED = 3, 3, 4, 7
TOLERANCE = 1e-10


@st.composite
def scenarios(draw):
    length = draw(st.integers(12, 24))
    total = length + draw(st.integers(0, 5 * length))
    sizes = draw(st.lists(st.integers(1, 2 * length), min_size=1, max_size=6))
    chunks, start = [], 0
    while start < total:
        chunks.append((start, min(total, start + sizes[len(chunks) % len(sizes)])))
        start = chunks[-1][1]
    return dict(
        cls=draw(st.sampled_from([DCNNClassifier, CCNNClassifier, CNNClassifier])),
        length=length,
        kernel=draw(st.sampled_from([3, 5])),
        filters=draw(st.sampled_from([(3, 4), (3, 3, 4)])),
        hop=draw(st.integers(1, length + 8)),
        explain_class=draw(st.sampled_from([None, 1])),
        chunks=chunks,
        swap_at=draw(st.none() | st.integers(0, len(chunks) - 1)),
        hits=draw(st.lists(st.booleans(), max_size=48)),
        feed_seed=draw(st.integers(0, 2**16)),
    )


def drive(session, feed, chunks, swap_at, swapped_in):
    """Push ``chunks`` of ``feed``; returns ``(emission, model epoch)`` pairs."""
    emitted, epoch = [], 0
    for position, (lo, hi) in enumerate(chunks):
        if position == swap_at:
            session.set_model(swapped_in)
            epoch = 1
        emitted.extend((result, epoch) for result in session.push(feed[:, lo:hi]))
    return emitted


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_random_hit_miss_gap_sequences_match_naive(scenario):
    length, hop = scenario["length"], scenario["hop"]
    models = [
        scenario["cls"](D, length, CLASSES, filters=scenario["filters"],
                        kernel_size=scenario["kernel"], rng=np.random.default_rng(seed))
        for seed in (1, 2)
    ]
    feed = np.random.default_rng(scenario["feed_seed"]).standard_normal(
        (D, scenario["chunks"][-1][1]))
    config = dict(hop=hop, k=K, seed=SEED, explain_class=scenario["explain_class"])
    chunks, swap_at = scenario["chunks"], scenario["swap_at"]
    oracle = drive(StreamSession(models[0], StreamConfig(engine="naive", **config)),
                   feed, chunks, swap_at, models[1])

    # A naive session on the chosen windows alone pre-fills the cache, so the
    # incremental session skips them and resumes behind by the gap.
    hits = [index < len(scenario["hits"]) and scenario["hits"][index]
            for index in range(len(oracle))]
    cache = ExplanationCache()
    for epoch, model in enumerate(models):
        chosen = [feed[:, result.t_start:result.t_end]
                  for (result, at), hit in zip(oracle, hits) if hit and at == epoch]
        if chosen:
            filler = StreamSession(model, StreamConfig(
                **dict(config, engine="naive", hop=length)), cache=cache)
            assert len(filler.push(np.concatenate(chosen, axis=1))) == len(chosen)

    session = StreamSession(models[0], StreamConfig(**config), cache=cache)
    emitted = drive(session, feed, chunks, swap_at, models[1])
    assert session.engine == "incremental"
    assert len(emitted) == len(oracle)
    cold_starts, last_computed = 0, None
    for (ours, epoch), (theirs, _), hit in zip(emitted, oracle, hits):
        assert (ours.index, ours.t_start, ours.t_end) == (theirs.index, theirs.t_start, theirs.t_end)
        assert ours.cached == hit
        assert ours.predicted == theirs.predicted
        assert ours.class_id == theirs.class_id
        assert ours.success_ratio == theirs.success_ratio
        np.testing.assert_allclose(ours.logits, theirs.logits, atol=TOLERANCE, rtol=TOLERANCE)
        np.testing.assert_allclose(ours.heatmap, theirs.heatmap, atol=TOLERANCE, rtol=TOLERANCE)
        if hit:
            continue
        if (last_computed is None or last_computed[0] != epoch
                or ours.t_end - last_computed[1] >= length):
            cold_starts += 1
            # The 1D CNN's naive features run its Conv1d layers, not the fused
            # row kernel the trunk issues, so its cold starts agree to
            # round-off only.
            if scenario["cls"] is not CNNClassifier:
                assert np.array_equal(ours.heatmap, theirs.heatmap)
        last_computed = (epoch, ours.t_end)
    assert session.stats["cold_starts"] == cold_starts
    assert session.stats["cache_hits"] == sum(hits)
