"""Hop-throughput benchmark: incremental vs naive streaming explanation.

One untrained (seeded) dCNN watches a synthetic multivariate feed through two
:class:`repro.stream.StreamSession` engines:

* **naive** — every window recomputed from scratch through the offline
  pipeline (``k`` permuted forwards + the full dCAM merge per hop);
* **incremental** — feature maps and ``M̄`` kept in ring layout behind one
  offset: a hop runs one fused-kernel call per layer over the dirty columns
  (layer 1's slab gathered straight from the raw ring buffer) and one
  einsum-and-gather ``M̄`` delta, and copies no cached column.  The GAP, the
  ``extract_dcam`` over ``M̄`` and the heatmap's rotation into window order
  remain O(window) per hop.

Weights do not affect flop counts, so an untrained model measures the same
work a trained one would.  Before a single hop is timed the two engines
replay an identical stream and every emission is compared — logits and
heatmaps to 1e-10, predicted class and success ratio exactly, the first
window bitwise — and the benchmark exits non-zero on any mismatch
(explanation speed means nothing if the numbers are wrong).  Timed rounds
exclude the first-window cold start: the steady-state hop is the number that
matters for a live feed.  Emits JSON to
``benchmarks/results/stream_window.json`` for the CI perf gate.

Run directly (no install needed)::

    python benchmarks/bench_stream_window.py [--hops 40] [--repeats 3]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time

# Allow running straight from a checkout without installing the package.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.models import DCNNClassifier  # noqa: E402
from repro.stream import StreamConfig, StreamSession  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def make_model(args):
    return DCNNClassifier(
        args.dimensions, args.window, args.classes,
        filters=tuple(args.filters), rng=np.random.default_rng(0),
    )


def make_config(engine, args):
    return StreamConfig(hop=args.hop, engine=engine, k=args.k, seed=0)


def make_stream(args, n_hops):
    rng = np.random.default_rng(1)
    return rng.standard_normal((args.dimensions, args.window + n_hops * args.hop))


def replay(model, engine, feed, args, chunk=None):
    """Run one session over ``feed``; returns the emitted results."""
    session = StreamSession(model, make_config(engine, args))
    chunk = chunk or args.hop
    results = []
    for offset in range(0, feed.shape[1], chunk):
        results.extend(session.push(feed[:, offset : offset + chunk]))
    return results


def verify_parity(model, args):
    """Every incremental emission must match the naive oracle — before timing."""
    feed = make_stream(args, max(8, args.hops // 4))
    incremental = replay(model, "incremental", feed, args)
    naive = replay(model, "naive", feed, args)
    if len(incremental) != len(naive) or not incremental:
        raise SystemExit(
            f"FAIL: emission counts diverge ({len(incremental)} vs {len(naive)})"
        )
    if not np.array_equal(incremental[0].heatmap, naive[0].heatmap):
        raise SystemExit("FAIL: first-window heatmap is not bitwise-identical")
    for left, right in zip(incremental, naive):
        if left.predicted != right.predicted:
            raise SystemExit(f"FAIL: predicted class diverges at emission #{left.index}")
        if left.success_ratio != right.success_ratio:
            raise SystemExit(f"FAIL: success ratio diverges at emission #{left.index}")
        if not np.allclose(left.logits, right.logits, atol=1e-10, rtol=1e-10):
            raise SystemExit(f"FAIL: logits diverge at emission #{left.index}")
        if not np.allclose(left.heatmap, right.heatmap, atol=1e-10, rtol=1e-10):
            raise SystemExit(f"FAIL: heatmap diverges at emission #{left.index}")
    print(f"[parity] {len(incremental)} incremental emissions match the naive "
          f"oracle (first window bitwise, hops <= 1e-10)")


def timed_round(model, engine, warm_feed, hop_feed, args):
    """Steady-state seconds per hop: cold-start on ``warm_feed``, time ``hop_feed``."""
    session = StreamSession(model, make_config(engine, args))
    warm = session.push(warm_feed)
    assert len(warm) == 1, "warmup must emit exactly the first window"
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        emitted = len(session.push(hop_feed))
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert emitted == args.hops, f"expected {args.hops} timed emissions, got {emitted}"
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dimensions", type=int, default=6,
                        help="stream dimensions D (default: 6)")
    parser.add_argument("--window", type=int, default=128,
                        help="window length in timesteps (default: 128)")
    parser.add_argument("--classes", type=int, default=3,
                        help="classifier classes (default: 3)")
    parser.add_argument("--filters", type=int, nargs="+", default=[8, 16],
                        help="dCNN trunk filters (default: 8 16)")
    parser.add_argument("--k", type=int, default=8,
                        help="dCAM permutations per window (default: 8)")
    parser.add_argument("--hop", type=int, default=1,
                        help="samples per emission (default: 1)")
    parser.add_argument("--hops", type=int, default=40,
                        help="timed steady-state hops per round (default: 40)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement repetitions (best-of is reported)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="exit non-zero if incremental/naive falls below "
                             "this (default: 2.0; 0 disables)")
    parser.add_argument("--output",
                        default=os.path.join(RESULTS_DIR, "stream_window.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    model = make_model(args)
    print(f"[setup] untrained dCNN D={args.dimensions} window={args.window} "
          f"filters={tuple(args.filters)} k={args.k} hop={args.hop}")
    verify_parity(model, args)

    rng = np.random.default_rng(2)
    warm_feed = rng.standard_normal((args.dimensions, args.window))
    hop_feed = rng.standard_normal((args.dimensions, args.hops * args.hop))
    naive_seconds = min(
        timed_round(model, "naive", warm_feed, hop_feed, args)
        for _ in range(args.repeats)
    )
    incremental_seconds = min(
        timed_round(model, "incremental", warm_feed, hop_feed, args)
        for _ in range(args.repeats)
    )
    speedup = naive_seconds / incremental_seconds
    naive_rate = args.hops / naive_seconds
    incremental_rate = args.hops / incremental_seconds
    print(f"[stream] naive       {naive_rate:8.1f} hops/s "
          f"({1e3 * naive_seconds / args.hops:.2f} ms/hop)")
    print(f"[stream] incremental {incremental_rate:8.1f} hops/s "
          f"({1e3 * incremental_seconds / args.hops:.2f} ms/hop)")
    print(f"[stream] speedup {speedup:.2f}x ({args.hops} hops, best of {args.repeats})")

    record = {
        "benchmark": "stream_window",
        "dimensions": args.dimensions,
        "window": args.window,
        "filters": list(args.filters),
        "k": args.k,
        "hop": args.hop,
        "hops": args.hops,
        "naive_seconds": naive_seconds,
        "incremental_seconds": incremental_seconds,
        "naive_hops_per_second": naive_rate,
        "incremental_hops_per_second": incremental_rate,
        "speedup": speedup,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    output_dir = os.path.dirname(args.output)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"[written to {args.output}]")

    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: incremental streaming speedup {speedup:.2f}x "
              f"below required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
