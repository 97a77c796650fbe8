"""Observability overhead gate: tracing must be ~free when off, cheap when on.

Metrics/histograms are always-on in the serving and streaming layers, and
sampled tracing rides the same hot paths; this benchmark pins both costs.

* **serve** — a tiny trained cCNN serves a concurrent classify load through
  two :class:`repro.serve.ExplanationService` instances that differ only in
  ``ObsConfig.trace_sample_rate`` (0.0 vs 1.0).  Each request is wrapped in
  ``maybe_trace`` against the service tracer — the same edge decision the
  HTTP handler makes — so the traced round records the full span tree
  (request → batcher queue/flush → engine → cache) for *every* request.
* **stream** — an untrained (seeded) dCNN replays an identical incremental
  feed through three :class:`repro.stream.StreamSession` variants: ``plain``
  (no telemetry, no ambient trace — the pure no-op path), ``off``
  (telemetry-attached hop timer, unsampled tracer) and ``traced``
  (telemetry plus a sample-everything tracer around each push).

Before any timing, responses/emissions are verified **byte-identical**
across variants (exits non-zero otherwise): observability is out-of-band
and must never change a served bit.  The traced/off ratios are then gated
in-process (``--max-overhead`` / ``--max-off-overhead``) and the absolute
rates are emitted to ``benchmarks/results/obs_overhead.json`` for the CI
``check_regression`` gate.

The gates are sized to catch *structural* regressions (an accidental span
allocation on the unsampled path shows up as +50..100%), not scheduler
noise: at tiny per-request cost (~0.3 ms classify) best-of-round timing on
a 1-CPU CI runner still jitters by up to ~15%, and the sample-everything
span tree is itself a visible fraction of such cheap requests — on real
loads both shrink proportionally with request cost.

Run directly (no install needed)::

    python benchmarks/bench_obs_overhead.py [--requests 96] [--repeats 3]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

# Allow running straight from a checkout without installing the package.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.data.synthetic import make_type1_dataset  # noqa: E402
from repro.experiments.config import get_scale  # noqa: E402
from repro.models import DCNNClassifier  # noqa: E402
from repro.models.registry import create_model  # noqa: E402
from repro.obs import ObsConfig, Telemetry, Tracer, maybe_trace  # noqa: E402
from repro.serve import (  # noqa: E402
    ExplanationCache,
    ExplanationService,
    ModelArtifactStore,
    ServeConfig,
)
from repro.stream import StreamConfig, StreamSession  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


# --------------------------------------------------------------------------
# serve path
# --------------------------------------------------------------------------

def build_store(directory, scale, dataset, epochs):
    store = ModelArtifactStore(directory)
    print("[setup] training tiny ccnn ...")
    model = create_model("ccnn", dataset.n_dimensions, dataset.length,
                         dataset.n_classes, rng=np.random.default_rng(0),
                         **scale.model_kwargs("ccnn"))
    training = scale.training.__class__(epochs=epochs, batch_size=8,
                                        learning_rate=3e-3, random_state=0)
    model.fit(dataset.X, dataset.y, config=training)
    store.register("ccnn-obs", model, model_name="ccnn",
                   metadata={"model_kwargs": scale.model_kwargs("ccnn")})
    return store


def build_requests(dataset, n_requests):
    # Unique bytes per request so nothing short-circuits through the
    # response cache mid-round.
    return [dataset.X[index % len(dataset)] * (1.0 + 1e-3 * (index // len(dataset)))
            for index in range(n_requests)]


def make_service(store, sample_rate, args):
    config = ServeConfig(max_batch_size=args.max_batch_size,
                         obs=ObsConfig(trace_sample_rate=sample_rate))
    return ExplanationService(store, cache=ExplanationCache(), config=config)


def serve_replay(service, requests, n_clients, pool=None):
    """Replay the load from ``n_clients`` threads; returns ordered logits.

    Every request runs under the same ``maybe_trace`` edge decision the HTTP
    handler makes, so a sample-everything tracer records a full span tree
    per request while an unsampled one costs a single check.
    """

    def one(series):
        with maybe_trace(service.tracer, "bench.request"):
            return service.classify("ccnn-obs", series).logits

    if pool is not None:
        return list(pool.map(one, requests))
    with ThreadPoolExecutor(max_workers=n_clients) as fresh_pool:
        return list(fresh_pool.map(one, requests))


def verify_serve_parity(store, requests, args):
    """Traced and untraced responses must be byte-identical."""
    with make_service(store, 0.0, args) as off_service:
        off = serve_replay(off_service, requests, args.clients)
    with make_service(store, 1.0, args) as traced_service:
        traced = serve_replay(traced_service, requests, args.clients)
    assert traced_service.tracer.ring.recorded > 0, \
        "traced round recorded no spans; the bench is not measuring tracing"
    for index, (left, right) in enumerate(zip(off, traced)):
        if left.tobytes() != right.tobytes():
            raise SystemExit(f"FAIL: traced response #{index} deviates from untraced")
    print(f"[parity] {len(requests)} traced serve responses byte-identical to untraced")


def serve_timed_round(store, requests, sample_rate, args):
    """Wall-clock seconds to serve the load with a fresh service."""
    service = make_service(store, sample_rate, args)
    try:
        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            serve_replay(service, requests[: args.clients], args.clients, pool=pool)
            service.cache = ExplanationCache(telemetry=service.telemetry)
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            serve_replay(service, requests, args.clients, pool=pool)
            return time.perf_counter() - start
    finally:
        gc.enable()
        service.close()


# --------------------------------------------------------------------------
# stream path
# --------------------------------------------------------------------------

def make_stream_model(args):
    # Weights do not affect flop counts; a seeded untrained dCNN measures
    # the same per-hop work a trained one would.
    return DCNNClassifier(args.dimensions, args.window, args.classes,
                          filters=tuple(args.filters),
                          rng=np.random.default_rng(0))


def make_stream_session(model, args, variant):
    config = StreamConfig(hop=1, engine="incremental", k=args.k, seed=0)
    telemetry = None if variant == "plain" else Telemetry()
    session = StreamSession(model, config, telemetry=telemetry)
    tracer = None
    if variant == "traced":
        tracer = Tracer(sample_rate=1.0, process="bench-stream")
    elif variant == "off":
        tracer = Tracer(sample_rate=0.0, process="bench-stream")
    return session, tracer


def stream_replay(model, feed, args, variant):
    """Push ``feed`` one hop at a time; returns the emitted results."""
    session, tracer = make_stream_session(model, args, variant)
    results = list(session.push(feed[:, : args.window]))  # cold start
    for offset in range(args.window, feed.shape[1]):
        chunk = feed[:, offset : offset + 1]
        if tracer is None:
            results.extend(session.push(chunk))
        else:
            with maybe_trace(tracer, "bench.push"):
                results.extend(session.push(chunk))
    return results


def verify_stream_parity(model, feed, args):
    """Every instrumented emission must match the plain session, bitwise."""
    plain = stream_replay(model, feed, args, "plain")
    for variant in ("off", "traced"):
        other = stream_replay(model, feed, args, variant)
        if len(other) != len(plain):
            raise SystemExit(f"FAIL [{variant}]: emission counts diverge "
                             f"({len(other)} vs {len(plain)})")
        for left, right in zip(other, plain):
            if left.predicted != right.predicted:
                raise SystemExit(f"FAIL [{variant}]: predicted class diverges "
                                 f"at emission #{left.index}")
            if not np.array_equal(left.logits, right.logits):
                raise SystemExit(f"FAIL [{variant}]: logits diverge at #{left.index}")
            if not np.array_equal(left.heatmap, right.heatmap):
                raise SystemExit(f"FAIL [{variant}]: heatmap diverges at #{left.index}")
    print(f"[parity] {len(plain)} instrumented stream emissions bitwise-identical "
          f"to the plain session (off + traced)")


def stream_timed_round(model, warm_feed, hop_feed, args, variant):
    """Steady-state seconds for ``args.hops`` single-sample hops."""
    session, tracer = make_stream_session(model, args, variant)
    warm = session.push(warm_feed)
    assert len(warm) == 1, "warmup must emit exactly the first window"
    gc.collect()
    gc.disable()
    try:
        emitted = 0
        start = time.perf_counter()
        for offset in range(hop_feed.shape[1]):
            chunk = hop_feed[:, offset : offset + 1]
            if tracer is None:
                emitted += len(session.push(chunk))
            else:
                with maybe_trace(tracer, "bench.push"):
                    emitted += len(session.push(chunk))
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert emitted == args.hops, f"expected {args.hops} timed emissions, got {emitted}"
    return elapsed


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small"],
                        help="experiment scale of the served model / dataset")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent serve client threads (default: 8)")
    parser.add_argument("--requests", type=int, default=192,
                        help="classify requests per serve round (default: 192)")
    parser.add_argument("--epochs", type=int, default=3,
                        help="training epochs of the tiny served model")
    parser.add_argument("--max-batch-size", type=int, default=8,
                        help="micro-batcher flush size")
    parser.add_argument("--dimensions", type=int, default=6,
                        help="stream dimensions D (default: 6)")
    parser.add_argument("--window", type=int, default=128,
                        help="stream window length (default: 128)")
    parser.add_argument("--classes", type=int, default=3,
                        help="stream classifier classes (default: 3)")
    parser.add_argument("--filters", type=int, nargs="+", default=[8, 16],
                        help="stream dCNN trunk filters (default: 8 16)")
    parser.add_argument("--k", type=int, default=8,
                        help="dCAM permutations per stream window (default: 8)")
    parser.add_argument("--hops", type=int, default=80,
                        help="timed steady-state stream hops per round")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement repetitions (best-of is reported)")
    parser.add_argument("--max-overhead", type=float, default=0.30,
                        help="exit non-zero if sample-everything tracing costs "
                             "more than this fraction over untraced "
                             "(default: 0.30; negative disables)")
    parser.add_argument("--max-off-overhead", type=float, default=0.20,
                        help="exit non-zero if telemetry with tracing *off* "
                             "costs more than this fraction over the plain "
                             "stream session (default: 0.20; negative disables)")
    parser.add_argument("--output",
                        default=os.path.join(RESULTS_DIR, "obs_overhead.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    # --- serve ------------------------------------------------------------
    scale = get_scale(args.scale, random_state=0)
    dataset = make_type1_dataset(scale.synthetic)
    requests = build_requests(dataset, args.requests)
    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(tmp, scale, dataset, args.epochs)
        store.load("ccnn-obs")  # warm the artifact cache outside the timers
        verify_serve_parity(store, requests, args)
        serve_seconds = {
            name: min(serve_timed_round(store, requests, rate, args)
                      for _ in range(args.repeats))
            for name, rate in (("off", 0.0), ("traced", 1.0))
        }
    serve_rates = {name: len(requests) / seconds
                   for name, seconds in serve_seconds.items()}
    serve_overhead = serve_seconds["traced"] / serve_seconds["off"] - 1.0
    for name in ("off", "traced"):
        print(f"[serve ] {name:6s} {serve_rates[name]:8.1f} req/s "
              f"({1e3 * serve_seconds[name] / len(requests):.2f} ms/req)")
    print(f"[serve ] sample-everything tracing overhead {serve_overhead:+.1%}")

    # --- stream -----------------------------------------------------------
    model = make_stream_model(args)
    rng = np.random.default_rng(1)
    parity_feed = rng.standard_normal((args.dimensions, args.window + 8))
    verify_stream_parity(model, parity_feed, args)
    warm_feed = rng.standard_normal((args.dimensions, args.window))
    hop_feed = rng.standard_normal((args.dimensions, args.hops))
    stream_seconds = {
        variant: min(stream_timed_round(model, warm_feed, hop_feed, args, variant)
                     for _ in range(args.repeats))
        for variant in ("plain", "off", "traced")
    }
    stream_rates = {variant: args.hops / seconds
                    for variant, seconds in stream_seconds.items()}
    stream_off_overhead = stream_seconds["off"] / stream_seconds["plain"] - 1.0
    stream_traced_overhead = stream_seconds["traced"] / stream_seconds["plain"] - 1.0
    for variant in ("plain", "off", "traced"):
        print(f"[stream] {variant:6s} {stream_rates[variant]:8.1f} hops/s "
              f"({1e3 * stream_seconds[variant] / args.hops:.2f} ms/hop)")
    print(f"[stream] tracing-off overhead {stream_off_overhead:+.1%}, "
          f"sample-everything {stream_traced_overhead:+.1%}")

    record = {
        "benchmark": "obs_overhead",
        "scale": args.scale,
        "clients": args.clients,
        "requests": args.requests,
        "hops": args.hops,
        "k": args.k,
        "serve_off_requests_per_second": serve_rates["off"],
        "serve_traced_requests_per_second": serve_rates["traced"],
        "serve_traced_overhead": serve_overhead,
        "stream_plain_hops_per_second": stream_rates["plain"],
        "stream_off_hops_per_second": stream_rates["off"],
        "stream_traced_hops_per_second": stream_rates["traced"],
        "stream_off_overhead": stream_off_overhead,
        "stream_traced_overhead": stream_traced_overhead,
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

    failures = []
    if args.max_overhead >= 0.0:
        if serve_overhead > args.max_overhead:
            failures.append(f"serve tracing overhead {serve_overhead:+.1%} exceeds "
                            f"{args.max_overhead:.0%}")
        if stream_traced_overhead > args.max_overhead:
            failures.append(f"stream tracing overhead {stream_traced_overhead:+.1%} "
                            f"exceeds {args.max_overhead:.0%}")
    if args.max_off_overhead >= 0.0 and stream_off_overhead > args.max_off_overhead:
        failures.append(f"stream tracing-OFF overhead {stream_off_overhead:+.1%} "
                        f"exceeds {args.max_off_overhead:.0%}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
