"""Throughput benchmark: batched vs serial explanation serving.

Two tiny models (a cCNN for the CAM family, a dCNN for dCAM) are trained and
registered into a model artifact store; three request loads — classify, CAM
explain, dCAM explain — are then replayed by 8 concurrent client threads
against two :class:`repro.serve.ExplanationService` configurations:

* **serial** — ``max_batch_size=1``: every request is dispatched alone, the
  per-request reference the serving layer's exactness contract is defined
  against;
* **batched** — the dynamic micro-batcher coalesces concurrent requests for
  one model into single engine calls (one ``features()`` forward per flush
  for classify/CAM, merged permutation pipelines for dCAM).

Before timing, the two modes' responses are verified **byte-identical**
(exits non-zero otherwise) — batching must never change a single bit.  Each
timed round uses a fresh service (and a fresh explanation cache) so the
numbers measure engine execution, not response-cache hits.  The record
reports per-phase speedups plus the aggregate requests/s headline, whose
speedup is total serial over total batched wall clock.  Every phase times
the same number of requests, so the dCAM phase, the slowest per request,
weighs most in the aggregate (at tiny scale with 8 clients on 2 cores:
about 2x for classify and CAM, 1.05-1.4x for dCAM, 1.27-1.59x aggregate).
Emits JSON to
``benchmarks/results/serve_throughput.json`` for the CI perf gate.

Run directly (no install needed)::

    python benchmarks/bench_serve_throughput.py [--clients 8] [--repeats 3]
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
from repro.models.registry import create_model  # noqa: E402
from repro.serve import (  # noqa: E402
    ExplanationCache,
    ExplanationService,
    ModelArtifactStore,
    ServeConfig,
    probe_batch_parity,
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: (artifact name, registry model name) pairs served by the benchmark.
MODELS = (("ccnn-bench", "ccnn"), ("dcnn-bench", "dcnn"))


def build_store(directory, scale, dataset, epochs):
    store = ModelArtifactStore(directory)
    for artifact_name, model_name in MODELS:
        print(f"[setup] training tiny {model_name} ...")
        model = create_model(model_name, dataset.n_dimensions, dataset.length,
                             dataset.n_classes, rng=np.random.default_rng(0),
                             **scale.model_kwargs(model_name))
        training = scale.training.__class__(epochs=epochs, batch_size=8,
                                            learning_rate=3e-3, random_state=0)
        model.fit(dataset.X, dataset.y, config=training)
        parity = probe_batch_parity(model)
        if not (parity.classify and parity.explain):
            raise SystemExit(
                f"FAIL [{model_name}]: batch-parity probe failed ({parity.to_json()}); "
                "the batched mode would fall back to serial and measure nothing"
            )
        store.register(artifact_name, model, model_name=model_name,
                       metadata={"model_kwargs": scale.model_kwargs(model_name),
                                 "batch_parity": parity.to_json()})
    return store


def build_phases(dataset, args):
    """``{phase: request list}`` — one hot model/kind per phase.

    Every phase times ``--requests`` requests, so the dCAM ratio rests on
    about a dozen flushes rather than on one or two; a phase of a few
    requests timed that briefly mostly measures the host's noise.
    """

    def instance(index):
        # Unique bytes per request: repeats would short-circuit through the
        # response cache mid-round and measure lookups instead of serving.
        return dataset.X[index % len(dataset)] * (1.0 + 1e-3 * (index // len(dataset)))

    def classify(index):
        return ("classify", "ccnn-bench", instance(index), None, None, None)

    def cam(index):
        return ("explain", "ccnn-bench", instance(index),
                int(dataset.y[index % len(dataset)]), None, None)

    def dcam(index):
        return ("explain", "dcnn-bench", instance(index),
                int(dataset.y[index % len(dataset)]), args.k, index)

    return {
        "classify": [classify(index) for index in range(args.requests)],
        "cam_explain": [cam(index) for index in range(args.requests)],
        "dcam_explain": [dcam(index) for index in range(args.requests)],
    }


def replay(service, requests, n_clients, pool=None):
    """Replay the load from ``n_clients`` threads; returns ordered responses."""

    def one(request):
        kind, model_name, series, class_id, k, seed = request
        if kind == "classify":
            response = service.classify(model_name, series)
            return ("classify", response.logits)
        response = service.explain(model_name, series, class_id=class_id,
                                   k=k, seed=seed)
        return ("explain", response.heatmap, response.success_ratio)

    if pool is not None:
        return list(pool.map(one, requests))
    with ThreadPoolExecutor(max_workers=n_clients) as fresh_pool:
        return list(fresh_pool.map(one, requests))


def make_service(store, batched, args):
    config = ServeConfig(max_batch_size=args.max_batch_size if batched else 1)
    return ExplanationService(store, cache=ExplanationCache(), config=config)


def verify_parity(store, phases, args):
    """Batched and serial responses must be byte-identical."""
    requests = [request for phase in phases.values() for request in phase]
    with make_service(store, batched=True, args=args) as batched_service:
        batched = replay(batched_service, requests, args.clients)
    with make_service(store, batched=False, args=args) as serial_service:
        serial = replay(serial_service, requests, args.clients)
    for index, (left, right) in enumerate(zip(batched, serial)):
        if left[0] != right[0] or not np.array_equal(left[1], right[1]):
            raise SystemExit(f"FAIL: batched response #{index} deviates from serial")
        if len(left) > 2 and left[2] != right[2]:
            raise SystemExit(f"FAIL: batched success_ratio #{index} deviates")
    print(f"[parity] {len(requests)} batched responses byte-identical to serial")


def timed_round(store, requests, batched, args):
    """Wall-clock seconds to serve one phase with a fresh service.

    The client thread pool is spun up (and the service warmed with a handful
    of requests) before the timer starts, so the measurement covers request
    dispatch and engine execution, not thread creation.  A fresh service per
    round means a fresh response cache — the numbers measure execution.
    """
    service = make_service(store, batched=batched, args=args)
    try:
        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            replay(service, requests[: args.clients], args.clients, pool=pool)
            # Drop the warmup's response-cache entries so the timed replay
            # executes every request instead of replaying stored bytes.
            service.cache = ExplanationCache(telemetry=service.telemetry)
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            replay(service, requests, args.clients, pool=pool)
            return time.perf_counter() - start
    finally:
        gc.enable()
        service.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small"],
                        help="experiment scale of the trained models / dataset")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default: 8)")
    parser.add_argument("--requests", type=int, default=96,
                        help="requests per phase (default: 96)")
    parser.add_argument("--k", type=int, default=8,
                        help="dCAM permutations per explain request")
    parser.add_argument("--epochs", type=int, default=5,
                        help="training epochs of the tiny served models")
    parser.add_argument("--max-batch-size", type=int, default=8,
                        help="micro-batcher flush size in batched mode")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement repetitions (best-of is reported)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit non-zero if the aggregate batched/serial "
                             "speedup falls below this")
    parser.add_argument("--output",
                        default=os.path.join(RESULTS_DIR, "serve_throughput.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    scale = get_scale(args.scale, random_state=0)
    dataset = make_type1_dataset(scale.synthetic)
    phases = build_phases(dataset, args)

    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(tmp, scale, dataset, args.epochs)
        for artifact_name, _ in MODELS:
            store.load(artifact_name)  # warm the artifact cache outside the timers
        verify_parity(store, phases, args)

        phase_records = {}
        total_requests = total_serial = total_batched = 0.0
        for phase_name, requests in phases.items():
            serial_seconds = min(timed_round(store, requests, False, args)
                                 for _ in range(args.repeats))
            batched_seconds = min(timed_round(store, requests, True, args)
                                  for _ in range(args.repeats))
            speedup = serial_seconds / batched_seconds
            phase_records[phase_name] = {
                "requests": len(requests),
                "serial_seconds": serial_seconds,
                "batched_seconds": batched_seconds,
                "serial_requests_per_second": len(requests) / serial_seconds,
                "batched_requests_per_second": len(requests) / batched_seconds,
                "speedup": speedup,
            }
            total_requests += len(requests)
            total_serial += serial_seconds
            total_batched += batched_seconds
            print(f"[serve] {phase_name:13s} serial {len(requests) / serial_seconds:8.1f} req/s"
                  f"   batched {len(requests) / batched_seconds:8.1f} req/s"
                  f"   speedup {speedup:.2f}x")

    aggregate_speedup = total_serial / total_batched
    print(f"[serve] aggregate     serial {total_requests / total_serial:8.1f} req/s"
          f"   batched {total_requests / total_batched:8.1f} req/s"
          f"   speedup {aggregate_speedup:.2f}x "
          f"({args.clients} clients, flush<= {args.max_batch_size})")

    record = {
        "benchmark": "serve_throughput",
        "scale": args.scale,
        "clients": args.clients,
        "k": args.k,
        "max_batch_size": args.max_batch_size,
        "phases": phase_records,
        "total_requests": total_requests,
        "serial_requests_per_second": total_requests / total_serial,
        "batched_requests_per_second": total_requests / total_batched,
        "speedup": aggregate_speedup,
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

    if args.min_speedup and aggregate_speedup < args.min_speedup:
        print(f"FAIL: aggregate batched serving speedup {aggregate_speedup:.2f}x "
              f"below required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
