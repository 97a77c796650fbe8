"""Load benchmark: the serving path under closed- and open-loop load.

A tiny dCNN is trained and registered into a model artifact store, then a
live HTTP server (ephemeral port, stdlib ``ThreadingHTTPServer``) is put
under dCAM-explain load — the expensive request class the paper's serving
story is about — by an in-process load generator with persistent HTTP/1.1
connections, in two shapes:

* **closed loop** — N client threads re-issue as fast as responses return;
  measures the service's capacity (goodput = successful requests/s).
* **open loop** — requests arrive on a fixed schedule regardless of
  responses; latency is measured from each request's *scheduled arrival*,
  so queueing delay under overload is visible (the coordinated-omission
  trap a closed loop hides).  Offered rates are auto-calibrated as
  multiples (default ``0.5 / 1.0 / 1.2x``) of the measured closed-loop
  capacity, so the sweep spans under-load to overload on any host CI runs
  it on.

Every server runs the service as configured by default apart from the
admission bound (``--max-queue-depth``): it flushes up to
``--max-batch-size`` queued requests at once.  Before timing, its responses
are verified **byte-identical** to serial per-request execution
(``max_batch_size=1``; exits non-zero otherwise) — coalescing may not change
response bytes.  Under overload the bounded per-group queue sheds with 429 +
``Retry-After``; shed requests are counted and excluded from goodput.

At the highest offered rate the harness runs ``--pairs`` trial groups, each
a fresh server whose offered rate is re-calibrated from its own closed-loop
probe, plus a repeat at the same rate; ``static_goodput_per_second`` is the
median over those trials.  That line and the closed-loop
``closed_loop.static.goodput_per_second`` are gated against the committed
baseline by ``check_regression.py``.  Emits JSON to
``benchmarks/results/serve_load.json``.

Run directly (no install needed)::

    python benchmarks/bench_serve_load.py [--clients 24] [--duration 2.0]
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import platform
import socket
import sys
import tempfile
import threading
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
    serve_in_background,
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

ARTIFACT = "dcnn-load"

#: Seeds are globally unique across every run of the benchmark process so no
#: request can short-circuit through a service's response cache.
_seed_counter = [0]
_seed_lock = threading.Lock()


def next_seeds(count):
    with _seed_lock:
        start = _seed_counter[0]
        _seed_counter[0] += count
    return range(start, start + count)


def build_store(directory, scale, dataset, epochs):
    store = ModelArtifactStore(directory)
    print("[setup] training tiny dcnn ...")
    model = create_model("dcnn", dataset.n_dimensions, dataset.length,
                         dataset.n_classes, rng=np.random.default_rng(0),
                         **scale.model_kwargs("dcnn"))
    training = scale.training.__class__(epochs=epochs, batch_size=8,
                                        learning_rate=3e-3, random_state=0)
    model.fit(dataset.X, dataset.y, config=training)
    parity = probe_batch_parity(model)
    if not (parity.classify and parity.explain):
        raise SystemExit(
            f"FAIL: batch-parity probe failed ({parity.to_json()}); the batched "
            "modes would fall back to serial and measure nothing"
        )
    store.register(ARTIFACT, model, model_name="dcnn",
                   metadata={"model_kwargs": scale.model_kwargs("dcnn"),
                             "batch_parity": parity.to_json()})
    return store


def make_service(store, args):
    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        max_queue_depth=args.max_queue_depth,
    )
    return ExplanationService(store, cache=ExplanationCache(), config=config)


# ---------------------------------------------------------------------------
# Request bodies / HTTP client
# ---------------------------------------------------------------------------

def body_templates(dataset, k, n_instances=16):
    """Pre-serialised request-body halves; a seed between them finishes one.

    Serialising the instance once per template (instead of per request)
    keeps the in-process load generator's CPU out of the measurement — the
    GIL is shared with the server under test.
    """
    templates = []
    for index in range(n_instances):
        series = dataset.X[index % len(dataset)]
        class_id = int(dataset.y[index % len(dataset)])
        templates.append(
            '{"model": "%s", "instance": %s, "class_id": %d, "k": %d, "seed": '
            % (ARTIFACT, json.dumps(series.tolist()), class_id, k)
        )
    return templates


def make_body(templates, seed):
    return (templates[seed % len(templates)] + str(seed) + "}").encode("utf-8")


class LoadConnection:
    """A persistent HTTP/1.1 connection that reconnects on transport errors."""

    def __init__(self, host, port):
        self.host, self.port = host, port
        self.connection = self._dial()

    def _dial(self):
        connection = http.client.HTTPConnection(self.host, self.port)
        connection.connect()
        # Request bodies ride in their own segment; without TCP_NODELAY they
        # stall behind the server's delayed ACK exactly like the response
        # direction (see ServiceHTTPServer.disable_nagle_algorithm).
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def post_explain(self, body):
        """Issue one ``/explain``; returns the HTTP status (body drained).

        A dropped keep-alive connection is re-dialled once; a failure on the
        fresh connection is reported as status 599 (a transport error the
        summary counts under ``errors``), never raised — a load generator
        must outlive the server's worst moment.
        """
        for attempt in (0, 1):
            try:
                self.connection.request(
                    "POST", "/explain", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = self.connection.getresponse()
                response.read()  # drain so the keep-alive connection is reusable
                return response.status
            except (http.client.HTTPException, OSError):
                self.connection.close()
                try:
                    self.connection = self._dial()
                except OSError:
                    return 599
        return 599

    def close(self):
        self.connection.close()


# ---------------------------------------------------------------------------
# Load shapes
# ---------------------------------------------------------------------------

def percentile(values, q):
    if not values:
        return float("nan")
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def summarize(latencies, statuses, elapsed):
    successes = sum(1 for status in statuses if status == 200)
    shed = sum(1 for status in statuses if status == 429)
    errors = len(statuses) - successes - shed
    return {
        "requests": len(statuses),
        "successes": successes,
        "shed": shed,
        "errors": errors,
        "elapsed_seconds": elapsed,
        "goodput_per_second": successes / elapsed if elapsed > 0 else 0.0,
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p99_ms": percentile(latencies, 0.99) * 1000.0,
    }


def closed_loop(address, templates, n_clients, duration):
    """N clients re-issue as fast as responses return; measures capacity."""
    host, port = address
    start = time.perf_counter()
    stop = start + duration

    def worker(worker_id):
        connection = LoadConnection(host, port)
        latencies, statuses = [], []
        seeds = iter(next_seeds(1_000_000))
        while time.perf_counter() < stop:
            body = make_body(templates, next(seeds))
            issued = time.perf_counter()
            status = connection.post_explain(body)
            if status == 200:
                latencies.append(time.perf_counter() - issued)
            statuses.append(status)
        connection.close()
        return latencies, statuses

    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        outcomes = list(pool.map(worker, range(n_clients)))
    elapsed = time.perf_counter() - start
    latencies = [value for lat, _ in outcomes for value in lat]
    statuses = [status for _, stat in outcomes for status in stat]
    return summarize(latencies, statuses, elapsed)


def open_loop(address, templates, rate, duration, n_workers):
    """Fixed-schedule arrivals; latency measured from the scheduled time."""
    host, port = address
    n_requests = max(1, int(rate * duration))
    seeds = list(next_seeds(n_requests))
    start = time.perf_counter() + 0.05  # headroom so arrival 0 is not late
    arrivals = [start + index / rate for index in range(n_requests)]
    cursor = [0]
    cursor_lock = threading.Lock()

    def worker(worker_id):
        connection = LoadConnection(host, port)
        latencies, statuses = [], []
        while True:
            with cursor_lock:
                index = cursor[0]
                if index >= n_requests:
                    break
                cursor[0] += 1
            scheduled = arrivals[index]
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            body = make_body(templates, seeds[index])
            status = connection.post_explain(body)
            if status == 200:
                # From the *scheduled* arrival: queueing delay (including any
                # generator lateness under overload) counts against the tail.
                latencies.append(time.perf_counter() - scheduled)
            statuses.append(status)
        connection.close()
        return latencies, statuses

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        outcomes = list(pool.map(worker, range(n_workers)))
    elapsed = time.perf_counter() - start
    latencies = [value for lat, _ in outcomes for value in lat]
    statuses = [status for _, stat in outcomes for status in stat]
    record = summarize(latencies, statuses, elapsed)
    record["offered_per_second"] = rate
    return record


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

def verify_parity(store, dataset, args):
    """Batched responses must be byte-identical to serial execution."""
    seeds = list(next_seeds(48))

    def replay(service):
        def one(seed):
            series = dataset.X[seed % len(dataset)]
            response = service.explain(
                ARTIFACT, series, class_id=int(dataset.y[seed % len(dataset)]),
                k=args.k, seed=seed,
            )
            return response.heatmap, response.success_ratio

        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            return list(pool.map(one, seeds))

    batched = make_service(store, args)
    serial = ExplanationService(
        store, cache=ExplanationCache(),
        config=ServeConfig(max_batch_size=1),
    )
    try:
        left, right = replay(batched), replay(serial)
    finally:
        batched.close()
        serial.close()
    for index, ((heatmap_a, ratio_a), (heatmap_b, ratio_b)) in enumerate(zip(left, right)):
        if not np.array_equal(heatmap_a, heatmap_b) or ratio_a != ratio_b:
            raise SystemExit(f"FAIL: batched response #{index} deviates from serial")
    print(f"[parity] {len(seeds)} batched responses byte-identical to serial")


# ---------------------------------------------------------------------------
# Measurement points
# ---------------------------------------------------------------------------

def with_server(store, args, measure):
    """Spin an ephemeral server, warm it under load, measure, tear down."""
    service = make_service(store, args)
    server, _thread = serve_in_background(service)
    try:
        address = server.server_address[:2]
        templates = args._templates
        # Warm under concurrency: fills the artifact cache and spins up the
        # per-group worker before the timer starts.
        closed_loop(address, templates, args.clients, args.warmup)
        gc.collect()
        return measure(address, templates)
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def main(argv=None):
    defaults = ServeConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small"],
                        help="experiment scale of the trained model / dataset")
    parser.add_argument("--clients", type=int, default=24,
                        help="closed-loop client threads (default: 24)")
    parser.add_argument("--open-workers", type=int, default=48,
                        help="open-loop dispatcher threads (default: 48)")
    parser.add_argument("--duration", type=float, default=1.5,
                        help="seconds per measured point (default: 1.5)")
    parser.add_argument("--warmup", type=float, default=0.5,
                        help="seconds of closed-loop warmup per server")
    parser.add_argument("--rates", default="0.5,1.0,1.2",
                        help="open-loop offered rates as multiples of the "
                             "measured closed-loop capacity")
    parser.add_argument("--k", type=int, default=8,
                        help="dCAM permutations per explain request")
    parser.add_argument("--epochs", type=int, default=5,
                        help="training epochs of the tiny served model")
    parser.add_argument("--max-batch-size", type=int, default=defaults.max_batch_size,
                        help="flush size (default: ServeConfig's)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="re-calibrated trial groups at the top offered "
                             "rate, each a calibrated trial and a repeat")
    parser.add_argument("--max-queue-depth", type=int, default=256,
                        help="admission watermark (in-flight bound per group)")
    parser.add_argument("--output",
                        default=os.path.join(RESULTS_DIR, "serve_load.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    scale = get_scale(args.scale, random_state=0)
    dataset = make_type1_dataset(scale.synthetic)
    args._templates = body_templates(dataset, args.k)
    rate_factors = [float(part) for part in args.rates.split(",") if part]

    with tempfile.TemporaryDirectory() as tmp:
        store = build_store(tmp, scale, dataset, args.epochs)
        store.load(ARTIFACT)  # warm the artifact cache outside the timers
        verify_parity(store, dataset, args)

        closed = with_server(
            store, args,
            lambda address, templates: closed_loop(
                address, templates, args.clients, args.duration),
        )
        print(f"[closed] goodput {closed['goodput_per_second']:8.1f} req/s"
              f"   p50 {closed['p50_ms']:7.1f}ms"
              f"   p99 {closed['p99_ms']:7.1f}ms")

        capacity = closed["goodput_per_second"]

        def report(result):
            print(f"[open] offered {result['offered_per_second']:7.1f}/s"
                  f"   goodput {result['goodput_per_second']:8.1f}/s"
                  f"   p99 {result['p99_ms']:8.1f}ms"
                  f"   shed {result['shed']}")
            return result

        def open_point(rate):
            return report(with_server(
                store, args,
                lambda address, templates: open_loop(
                    address, templates, rate, args.duration, args.open_workers),
            ))

        open_points = []
        for factor in rate_factors[:-1]:
            rate = capacity * factor
            open_points.append({"factor": factor, "offered_per_second": rate,
                                "static": open_point(rate)})

        # Top offered rate: each trial group re-calibrates its offered rate
        # from a closed-loop probe of its own first server, then repeats the
        # point on a fresh server at the same rate.  Host speed drifts on
        # shared machines, and a stale capacity estimate would land the
        # "overload" point anywhere between underload and deep collapse.
        top_factor = rate_factors[-1]
        trials = []
        for _ in range(max(1, args.pairs)):

            def calibrated(address, templates):
                probe = closed_loop(address, templates, args.clients,
                                    max(0.75, args.warmup))
                rate = probe["goodput_per_second"] * top_factor
                result = open_loop(address, templates, rate, args.duration,
                                   args.open_workers)
                result["calibrated_capacity"] = probe["goodput_per_second"]
                return result

            first = report(with_server(store, args, calibrated))
            trials.extend([first, open_point(first["offered_per_second"])])
        top = {
            "factor": top_factor,
            "offered_per_second": percentile(
                [trial["offered_per_second"] for trial in trials], 0.5),
            "static": percentile(
                [trial["goodput_per_second"] for trial in trials], 0.5),
            "static_trials": trials,
        }
        open_points.append(top)
    print(f"[serve-load] closed-loop goodput {capacity:.1f} req/s;"
          f" top offered rate ({top['factor']:g}x capacity)"
          f" median goodput {top['static']:.1f} req/s"
          f" over {len(trials)} trials")

    record = {
        "benchmark": "serve_load",
        "scale": args.scale,
        "clients": args.clients,
        "open_workers": args.open_workers,
        "duration_seconds": args.duration,
        "k": args.k,
        "max_batch_size": args.max_batch_size,
        "max_queue_depth": args.max_queue_depth,
        "closed_loop": {"static": closed},
        "open_loop": open_points,
        "static_goodput_per_second": top["static"],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[serve-load] wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
