"""``python -m repro`` — run the paper's experiment suite from the shell.

Examples::

    python -m repro list
    python -m repro run table3 --scale tiny --workers 4 --json out.json
    python -m repro run figure9 --scale small --workers 8 --cache-dir .repro-cache
    python -m repro run table3 --models resnet,dcnn --dimensions 4 --epochs 5
    python -m repro export-model --model dcnn --scale tiny --store ./models
    python -m repro serve --store ./models --port 8080
    python -m repro stream --store ./models --hop 8 --samples 256 --json-lines
    python -m repro byte-store-server --port 7070 --dir /srv/repro-store
    python -m repro run table3 --executor fleet --fleet-port 7075 --cache-dir .repro-cache
    python -m repro worker --connect 127.0.0.1:7075 --cache-dir .repro-cache

Every experiment goes through the :mod:`repro.runtime` job-graph executor:
``--workers N`` fans the independent (dataset, model, seed) cells out over a
process pool (serial and parallel runs produce identical numbers), and
``--cache-dir`` enables the content-addressed result cache so drivers sharing
a protocol (Table 3 / Figure 9, Table 2 / Figure 8) and repeated invocations
reuse trained-model results.

``export-model`` trains (or loads from the result cache) one classifier and
registers it into a :class:`repro.serve.ModelArtifactStore`; ``serve`` answers
classify/explain requests over HTTP from such a store (see
:mod:`repro.serve`); ``stream`` replays a feed through a
:class:`repro.stream.StreamSession`, emitting one classification +
explanation per window hop (see :mod:`repro.stream` / docs/streaming.md).

Distribution (see :mod:`repro.dist`): ``byte-store-server`` runs the shared
remote cache tier every store can point at via ``--remote-store host:port``;
``run --executor fleet`` publishes work units to an embedded coordinator that
``worker --connect host:port`` processes (on any machine) pull from.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from .cache import ResultCache
from .executor import Executor, executor_label, make_executor


@dataclass(frozen=True)
class ExperimentEntry:
    """One CLI-runnable experiment: driver adapter + JSON projection."""

    name: str
    description: str
    run: Callable[[Any, argparse.Namespace, Executor, Optional[ResultCache]], Any]
    to_json: Callable[[Any], Any]
    format: Callable[[Any], str]
    #: Which of the filter flags (--models/--dimensions/--seeds/--datasets)
    #: this experiment consumes; others are rejected rather than silently
    #: ignored.
    options: frozenset = frozenset()


def _csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _csv_ints(value: Optional[str]) -> Optional[List[int]]:
    items = _csv(value)
    return None if items is None else [int(item) for item in items]


def _series_json(result) -> Dict[str, Any]:
    """Figure 9 result → JSON-friendly nested dicts."""
    return {
        "dimensions": result.dimensions,
        "models": result.models,
        "c_acc": {str(dataset_type): mapping for dataset_type, mapping in result.c_acc.items()},
        "dr_acc": {str(dataset_type): mapping for dataset_type, mapping in result.dr_acc.items()},
    }


def _figure10_json(result) -> Dict[str, Any]:
    return {
        "k_values": result.k_values,
        "curves": {
            f"{model}-type{dataset_type}-D{dims}": values
            for (model, dataset_type, dims), values in result.curves.items()
        },
        "k_to_90pct": {
            f"{model}-type{dataset_type}-D{dims}": int(needed)
            for (model, dataset_type, dims), needed in result.permutations_to_reach().items()
        },
    }


def _figure12_json(result) -> Dict[str, Any]:
    return {
        "lengths": result.lengths,
        "dimensions": result.dimensions,
        "k_values": result.k_values,
        "epoch_time_vs_length": result.epoch_time_vs_length,
        "epoch_time_vs_dimensions": result.epoch_time_vs_dimensions,
        "dcam_time_vs_dimensions": result.dcam_time_vs_dimensions,
        "dcam_time_vs_length": result.dcam_time_vs_length,
        "dcam_time_vs_k": result.dcam_time_vs_k,
        "convergence": result.convergence,
    }


def _figure13_json(result) -> Dict[str, Any]:
    return {
        "train_accuracy": result.train_accuracy,
        "test_accuracy": result.test_accuracy,
        "top_sensors": [result.sensor_names[s] for s in result.top_sensors],
        "top_gestures": [[gesture, float(score)] for gesture, score in result.top_gestures],
        "sensor_recovery_rate": result.sensor_recovery_rate(),
        "gesture_recovery_rate": result.gesture_recovery_rate(),
    }


def _experiment_table() -> Dict[str, ExperimentEntry]:
    """Build the name → entry table (imports the drivers lazily)."""
    from ..experiments import (
        run_extraction_ablation,
        run_figure8,
        run_figure9,
        run_figure10,
        run_figure11,
        run_figure12,
        run_figure13,
        run_ng_filter_ablation,
        run_table2,
        run_table3,
    )

    return {
        "table2": ExperimentEntry(
            "table2",
            "C-acc over (simulated) UCR/UEA datasets",
            lambda scale, args, ex, cache: run_table2(
                scale,
                dataset_names=_csv(args.datasets),
                models=_csv(args.models),
                base_seed=args.base_seed,
                executor=ex,
                cache=cache,
            ),
            lambda result: result.as_rows(),
            lambda result: result.format(),
            options=frozenset({"models", "datasets"}),
        ),
        "table3": ExperimentEntry(
            "table3",
            "C-acc and Dr-acc on the synthetic Type 1 / Type 2 benchmarks",
            lambda scale, args, ex, cache: run_table3(
                scale,
                seeds=_csv(args.seeds),
                dimensions=_csv_ints(args.dimensions),
                models=_csv(args.models),
                base_seed=args.base_seed,
                executor=ex,
                cache=cache,
            ),
            lambda result: result.as_rows(),
            lambda result: result.format(),
            options=frozenset({"models", "dimensions", "seeds"}),
        ),
        "figure8": ExperimentEntry(
            "figure8",
            "d-architectures vs counterparts scatter (Table 2 protocol)",
            lambda scale, args, ex, cache: run_figure8(
                scale, dataset_names=_csv(args.datasets), base_seed=args.base_seed, executor=ex, cache=cache
            ),
            lambda result: result.as_rows(),
            lambda result: result.format(),
            options=frozenset({"datasets"}),
        ),
        "figure9": ExperimentEntry(
            "figure9",
            "C-acc / Dr-acc vs number of dimensions (Table 3 protocol)",
            lambda scale, args, ex, cache: run_figure9(
                scale,
                dimensions=_csv_ints(args.dimensions),
                models=_csv(args.models),
                base_seed=args.base_seed,
                executor=ex,
                cache=cache,
            ),
            _series_json,
            lambda result: result.format(),
            options=frozenset({"models", "dimensions"}),
        ),
        "figure10": ExperimentEntry(
            "figure10",
            "Dr-acc vs number of permutations k",
            lambda scale, args, ex, cache: run_figure10(
                scale,
                dimensions=_csv_ints(args.dimensions),
                models=_csv(args.models),
                base_seed=args.base_seed,
                executor=ex,
                cache=cache,
            ),
            _figure10_json,
            lambda result: result.format(),
            options=frozenset({"models", "dimensions"}),
        ),
        "figure11": ExperimentEntry(
            "figure11",
            "C-acc / Dr-acc / ng-over-k relations per configuration",
            lambda scale, args, ex, cache: run_figure11(
                scale,
                models=_csv(args.models),
                seeds=_csv(args.seeds),
                dimensions=_csv_ints(args.dimensions),
                base_seed=args.base_seed,
                executor=ex,
                cache=cache,
            ),
            lambda result: result.as_rows(),
            lambda result: result.format(),
            options=frozenset({"models", "seeds", "dimensions"}),
        ),
        "figure12": ExperimentEntry(
            "figure12",
            "training / dCAM execution-time panels",
            lambda scale, args, ex, cache: run_figure12(
                scale,
                models=_csv(args.models),
                dimensions=_csv_ints(args.dimensions),
                base_seed=args.base_seed,
                executor=ex,
                cache=cache,
            ),
            _figure12_json,
            lambda result: result.format(),
            options=frozenset({"models", "dimensions"}),
        ),
        "figure13": ExperimentEntry(
            "figure13",
            "surgeon-skill use case (simulated JIGSAWS)",
            lambda scale, args, ex, cache: run_figure13(
                scale, base_seed=args.base_seed, executor=ex, cache=cache
            ),
            _figure13_json,
            lambda result: result.format(),
        ),
        "ablation-extraction": ExperimentEntry(
            "ablation-extraction",
            "dCAM extraction-rule ablation",
            lambda scale, args, ex, cache: run_extraction_ablation(
                scale, base_seed=args.base_seed, executor=ex, cache=cache
            ),
            lambda result: result.rows,
            lambda result: result.format("Ablation — dCAM extraction rules"),
        ),
        "ablation-ng-filter": ExperimentEntry(
            "ablation-ng-filter",
            "dCAM permutation-filter ablation",
            lambda scale, args, ex, cache: run_ng_filter_ablation(
                scale, base_seed=args.base_seed, executor=ex, cache=cache
            ),
            lambda result: result.rows,
            lambda result: result.format("Ablation — ng/k permutation filter"),
        ),
    }


def _build_scale(args: argparse.Namespace):
    from ..experiments import get_scale

    scale = get_scale(args.scale, random_state=args.random_state)
    overrides = {}
    if args.n_runs is not None:
        overrides["n_runs"] = args.n_runs
    if args.k is not None:
        overrides["k_permutations"] = args.k
    training_overrides = {}
    if args.epochs is not None:
        training_overrides["epochs"] = args.epochs
    if args.precision is not None:
        training_overrides["precision"] = args.precision
    if training_overrides:
        overrides["training"] = replace(scale.training, **training_overrides)
    return scale.with_overrides(**overrides) if overrides else scale


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "experiment", metavar="EXPERIMENT", help="experiment name (see `python -m repro list`)"
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=["tiny", "small", "paper"],
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; >1 enables the parallel executor",
    )
    parser.add_argument(
        "--executor",
        default="auto",
        choices=["auto", "serial", "parallel", "fleet"],
        help="execution strategy: auto derives serial/parallel from "
        "--workers; fleet publishes units to an embedded coordinator "
        "that `python -m repro worker` processes pull from "
        "(default: auto)",
    )
    parser.add_argument(
        "--fleet-host",
        default="127.0.0.1",
        metavar="HOST",
        help="interface the fleet coordinator listens on (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--fleet-port",
        type=int,
        default=0,
        metavar="PORT",
        help="fleet coordinator port; 0 picks an ephemeral port, printed at start (default: 0)",
    )
    parser.add_argument(
        "--json", dest="json_path", metavar="PATH", help="write the result (plus run metadata) as JSON"
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", help="enable the content-addressed result cache, persisted here"
    )
    parser.add_argument(
        "--remote-store",
        metavar="HOST:PORT",
        help="shared remote byte-store tier behind the result cache "
        "(see `python -m repro byte-store-server`); enables the "
        "cache even without --cache-dir",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0, help="base seed the per-unit seeds derive from (default: 0)"
    )
    parser.add_argument(
        "--random-state", type=int, default=0, help="random state baked into the scale preset (default: 0)"
    )
    parser.add_argument("--models", metavar="A,B,...", help="comma-separated model subset (driver-dependent)")
    parser.add_argument(
        "--dimensions", metavar="D1,D2,...", help="comma-separated dimension sweep (driver-dependent)"
    )
    parser.add_argument(
        "--seeds", metavar="NAME,...", help="comma-separated synthetic seed datasets (driver-dependent)"
    )
    parser.add_argument(
        "--datasets", metavar="NAME,...", help="comma-separated UEA dataset names (table2 / figure8)"
    )
    parser.add_argument(
        "--n-runs", type=int, metavar="N", help="override the scale's train/evaluate repetitions"
    )
    parser.add_argument("--k", type=int, metavar="K", help="override the scale's dCAM permutation count")
    parser.add_argument("--epochs", type=int, metavar="N", help="override the scale's training epochs")
    parser.add_argument(
        "--precision",
        choices=["float64", "float32"],
        help="training compute precision: float64 (the "
        "bit-exact reference, default) or float32 (the "
        "opt-in fast tier)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per finished work unit plus the run's telemetry counters",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the formatted table/figure output")


def _remote_store(address: Optional[str]):
    """``--remote-store host:port`` → :class:`repro.dist.RemoteByteStore` (or None)."""
    if not address:
        return None
    from ..dist import RemoteByteStore

    return RemoteByteStore(address)


def _make_run_executor(args: argparse.Namespace) -> Executor:
    if args.executor == "fleet":
        from ..dist import FleetConfig, FleetExecutor

        executor = FleetExecutor(FleetConfig(host=args.fleet_host, port=args.fleet_port))
        print(
            f"[repro] fleet coordinator listening on {executor.address} — start workers "
            f"with `python -m repro worker --connect {executor.address}`",
            file=sys.stderr,
        )
        return executor
    if args.executor == "serial":
        return make_executor(1)
    if args.executor == "parallel":
        return make_executor(max(2, args.workers))
    return make_executor(args.workers)


def _command_list() -> int:
    entries = _experiment_table()
    width = max(len(name) for name in entries)
    print("Available experiments (python -m repro run <name> [options]):")
    for name, entry in entries.items():
        print(f"  {name.ljust(width)}  {entry.description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    entries = _experiment_table()
    if args.experiment not in entries:
        print(
            f"error: unknown experiment {args.experiment!r}; choose from: {', '.join(entries)}",
            file=sys.stderr,
        )
        return 2
    entry = entries[args.experiment]
    # Reject filter flags this experiment does not consume — silently
    # ignoring them would run (and label) the default configuration.
    unsupported = [
        f"--{name}"
        for name in ("models", "dimensions", "seeds", "datasets")
        if getattr(args, name) is not None and name not in entry.options
    ]
    if unsupported:
        supported = ", ".join(f"--{name}" for name in sorted(entry.options)) or "none"
        print(
            f"error: {entry.name} does not support {', '.join(unsupported)} "
            f"(supported filter flags: {supported})",
            file=sys.stderr,
        )
        return 2
    scale = _build_scale(args)
    executor = _make_run_executor(args)
    cache = (
        ResultCache(directory=args.cache_dir, remote=_remote_store(args.remote_store))
        if args.cache_dir or args.remote_store
        else None
    )

    print(
        f"[repro] running {entry.name} at scale={scale.name} "
        f"executor={executor_label(executor)}"
        + (f" cache={args.cache_dir}" if args.cache_dir else "")
        + (f" remote-store={args.remote_store}" if args.remote_store else ""),
        file=sys.stderr,
    )
    start = time.perf_counter()
    try:
        if args.progress:
            from ..obs import Telemetry
            from .api import progress_hooks

            telemetry = Telemetry()

            def on_unit(index, total, unit, source):
                print(f"[repro] unit {index + 1}/{total} {unit.describe()} [{source}]", file=sys.stderr)

            with progress_hooks(telemetry, on_unit):
                result = entry.run(scale, args, executor, cache)
            counters = ", ".join(f"{name}={value}" for name, value in sorted(telemetry.snapshot().items()))
            print(f"[repro] telemetry: {counters}", file=sys.stderr)
        else:
            result = entry.run(scale, args, executor, cache)
    finally:
        close = getattr(executor, "close", None)
        if close is not None:
            close()  # a fleet coordinator signals its workers to shut down
    elapsed = time.perf_counter() - start
    cache_line = ""
    if cache is not None:
        cache_line = f" cache hits={cache.stats.hits}" f" misses={cache.stats.misses}"
    print(f"[repro] {entry.name} finished in {elapsed:.2f}s{cache_line}", file=sys.stderr)

    if not args.quiet:
        print(entry.format(result))

    if args.json_path:
        json_dir = os.path.dirname(args.json_path)
        if json_dir:
            os.makedirs(json_dir, exist_ok=True)
        record = {
            "experiment": entry.name,
            "scale": scale.name,
            "workers": args.workers,
            "base_seed": args.base_seed,
            "elapsed_seconds": elapsed,
            "cache": None if cache is None else {"hits": cache.stats.hits, "misses": cache.stats.misses},
            "result": entry.to_json(result),
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"[repro] JSON written to {args.json_path}", file=sys.stderr)
    return 0


def _add_export_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", required=True, metavar="DIR", help="model artifact store directory (created if missing)"
    )
    parser.add_argument(
        "--model", required=True, metavar="NAME", help="architecture to train/export (see repro.models)"
    )
    parser.add_argument("--name", metavar="ARTIFACT", help="artifact name (default: <model>-<scale>)")
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "small", "paper"],
        help="experiment scale preset (default: tiny)",
    )
    parser.add_argument(
        "--seed-name", default="starlight", help="synthetic seed dataset to train on (default: starlight)"
    )
    parser.add_argument(
        "--dataset-type", type=int, default=1, choices=[1, 2], help="synthetic benchmark type (default: 1)"
    )
    parser.add_argument(
        "--dimensions", type=int, metavar="D", help="number of dimensions (default: the scale's synthetic D)"
    )
    parser.add_argument(
        "--base-seed", type=int, default=0, help="config seed the training run derives from (default: 0)"
    )
    parser.add_argument(
        "--random-state", type=int, default=0, help="random state baked into the scale preset (default: 0)"
    )
    parser.add_argument("--epochs", type=int, metavar="N", help="override the scale's training epochs")
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="runtime result cache: re-exports (and sweeps that "
        "already trained this configuration) skip training",
    )
    parser.add_argument(
        "--remote-store",
        metavar="HOST:PORT",
        help="shared remote byte store: the artifact is also published "
        "fleet-wide so other hosts can serve it without re-exporting",
    )
    parser.add_argument(
        "--overwrite", action="store_true", help="replace an existing artifact of the same name"
    )


def _command_export_model(args: argparse.Namespace) -> int:
    from ..experiments import get_scale
    from ..models.registry import available_models, create_model
    from ..serve.engine import probe_batch_parity
    from ..serve.store import ModelArtifactStore
    from .api import run as run_spec
    from .spec import ExperimentSpec, WorkUnit

    if args.model not in available_models():
        print(
            f"error: unknown model {args.model!r}; choose from: {', '.join(available_models())}",
            file=sys.stderr,
        )
        return 2
    scale = get_scale(args.scale, random_state=args.random_state)
    if args.epochs is not None:
        scale = scale.with_overrides(training=replace(scale.training, epochs=args.epochs))
    n_dimensions = args.dimensions or scale.synthetic.n_dimensions
    unit = WorkUnit.create(
        "trained_model_state",
        seed_name=args.seed_name,
        dataset_type=args.dataset_type,
        n_dimensions=n_dimensions,
        model_name=args.model,
        config_seed=args.base_seed,
    )
    spec = ExperimentSpec(name="export-model", scale=scale, units=(unit,))
    cache = (
        ResultCache(directory=args.cache_dir, remote=_remote_store(args.remote_store))
        if args.cache_dir or args.remote_store
        else None
    )

    print(
        f"[repro] training {args.model} at scale={scale.name} "
        f"(D={n_dimensions}, type={args.dataset_type}, seed={args.base_seed})"
        + (f" cache={args.cache_dir}" if args.cache_dir else ""),
        file=sys.stderr,
    )
    start = time.perf_counter()
    payload = run_spec(spec, cache=cache)[0]
    trained = "cache" if cache is not None and cache.stats.hits else "trained"
    print(f"[repro] model state ready in {time.perf_counter() - start:.2f}s [{trained}]", file=sys.stderr)

    model = create_model(
        args.model,
        payload["n_dimensions"],
        payload["length"],
        payload["n_classes"],
        **scale.model_kwargs(args.model),
    )
    model.load_state_dict(payload["state"])
    if payload.get("training_mode"):
        model.train()
    else:
        model.eval()
    parity = probe_batch_parity(model)
    store = ModelArtifactStore(args.store, remote=_remote_store(args.remote_store))
    artifact_name = args.name or f"{args.model}-{scale.name}"
    artifact = store.register(
        artifact_name,
        model,
        model_name=args.model,
        metadata={
            "model_kwargs": scale.model_kwargs(args.model),
            "scale": scale.name,
            "seed_name": args.seed_name,
            "dataset_type": args.dataset_type,
            "config_seed": args.base_seed,
            "dataset_fingerprint": payload["dataset_fingerprint"],
            "epochs_run": payload["epochs_run"],
            "default_k": scale.k_permutations,
            "batch_parity": parity.to_json(),
        },
        overwrite=args.overwrite,
    )
    print(
        f"[repro] registered {artifact_name!r} in {args.store} "
        f"(state {artifact.state_hash[:12]}…, family {artifact.explainer_family}, "
        f"batch parity {parity.to_json()})",
        file=sys.stderr,
    )
    return 0


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    from ..serve.service import ServeConfig

    defaults = ServeConfig()
    parser.add_argument(
        "--store", required=True, metavar="DIR", help="model artifact store directory (see export-model)"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port; 0 picks an ephemeral port (default: 8080)"
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=defaults.max_batch_size,
        metavar="N",
        help="most requests one micro-batcher flush takes; 1 disables "
        "coalescing; the adaptive policy starts here "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--policy",
        default=defaults.batch_policy,
        choices=["static", "adaptive"],
        help="batching policy: a fixed flush size, or a "
        "feedback-driven size adapted to observed "
        "queue depth / flush latency (default: %(default)s)",
    )
    parser.add_argument(
        "--max-adaptive-batch-size",
        type=int,
        default=defaults.max_adaptive_batch_size,
        metavar="N",
        help="hard upper bound of the adaptive policy's flush size (default: %(default)s)",
    )
    parser.add_argument(
        "--latency-budget-ms",
        type=float,
        default=defaults.policy_latency_budget_ms,
        metavar="MS",
        help="adaptive policy's per-flush latency budget: "
        "sustained flushes above it shrink the batch "
        "(default: %(default)g)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=defaults.max_queue_depth,
        metavar="N",
        help="per-(model, kind) in-flight bound; requests "
        "over it are shed with HTTP 429 + Retry-After; "
        "0 disables shedding (default: %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=defaults.drain_timeout_s,
        metavar="S",
        help="graceful-shutdown drain bound: queued requests unserved after this "
        "fail fast (default: %(default)g)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", help="persist the explanation cache here (memory-only otherwise)"
    )
    parser.add_argument(
        "--cache-memory-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="LRU bound of the in-memory cache tier (default: 64)",
    )
    parser.add_argument(
        "--cache-disk-mb",
        type=float,
        metavar="MB",
        help="LRU bound of the on-disk cache tier (default: unbounded)",
    )
    parser.add_argument(
        "--precision",
        default="float64",
        choices=["float64", "float32"],
        help="serving compute precision: float64 (bit-exact "
        "reference, default) or float32 (opt-in fast tier; "
        "responses cached under precision-qualified keys)",
    )
    parser.add_argument(
        "--max-total-depth",
        type=int,
        metavar="N",
        help="global in-flight bound across all (model, kind) groups; "
        "explains shed at 75%% of it, classifies at 100%% "
        "(default: disabled)",
    )
    parser.add_argument(
        "--remote-store",
        metavar="HOST:PORT",
        help="shared remote byte store backing the artifact store and "
        "the explanation cache: artifacts exported on other hosts "
        "become servable here, and cache entries are fleet-shared",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fraction of requests traced end-to-end (0..1); sampled "
        "spans are exported at /trace and `repro trace-dump --url` "
        "(default: 0, tracing off)",
    )


def _command_serve(args: argparse.Namespace) -> int:
    from ..obs import ObsConfig
    from ..serve.cache import ExplanationCache
    from ..serve.http import run_server
    from ..serve.service import ExplanationService, ServeConfig
    from ..serve.store import ModelArtifactStore

    store = ModelArtifactStore(args.store, remote=_remote_store(args.remote_store))
    names = store.list_names()
    if not names:
        print(
            f"error: no model artifacts in {args.store!r}; register one with "
            "`python -m repro export-model` first",
            file=sys.stderr,
        )
        return 2
    cache = ExplanationCache(
        directory=args.cache_dir,
        max_memory_bytes=int(args.cache_memory_mb * 1024 * 1024),
        max_disk_bytes=None if args.cache_disk_mb is None else int(args.cache_disk_mb * 1024 * 1024),
        remote=_remote_store(args.remote_store),
    )
    config = ServeConfig(
        max_batch_size=args.max_batch_size,
        batch_policy=args.policy,
        max_adaptive_batch_size=args.max_adaptive_batch_size,
        policy_latency_budget_ms=args.latency_budget_ms,
        max_queue_depth=args.max_queue_depth or None,
        max_total_depth=args.max_total_depth,
        drain_timeout_s=args.drain_timeout_s,
        precision=args.precision,
        obs=ObsConfig(trace_sample_rate=args.trace_sample_rate),
    )
    service = ExplanationService(store, cache=cache, config=config)
    print(
        f"[repro] serving {len(names)} model(s) from {args.store}: "
        f"{', '.join(names)} "
        f"[policy {service.batcher.policy.describe()}, "
        f"queue bound {config.max_queue_depth or 'unbounded'}]"
        + (f" [remote store {args.remote_store}]" if args.remote_store else ""),
        file=sys.stderr,
    )

    def announce(host, port):
        print(
            f"[repro] listening on http://{host}:{port} "
            f"(/models /classify /explain /healthz /metrics /trace; Ctrl-C stops)"
            + (
                f" [tracing {args.trace_sample_rate:g} sampled]"
                if args.trace_sample_rate
                else ""
            ),
            file=sys.stderr,
        )

    run_server(service, args.host, args.port, announce=announce)
    return 0


def _add_stream_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", required=True, metavar="DIR", help="model artifact store directory (see export-model)"
    )
    parser.add_argument(
        "--model",
        metavar="ARTIFACT",
        help="artifact name to stream against (default: the store's only artifact)",
    )
    parser.add_argument(
        "--engine",
        default="incremental",
        choices=["incremental", "naive"],
        help="incremental carries window/cube/feature state across hops; "
        "naive recomputes every window (the parity oracle; default: incremental)",
    )
    parser.add_argument(
        "--hop", type=int, default=1, metavar="N", help="emit one result every N new samples (default: 1)"
    )
    parser.add_argument(
        "--k",
        type=int,
        metavar="K",
        help="dCAM permutations per window (default: the artifact's default_k, else 20)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="dCAM permutation seed, fixed per session (default: 0)"
    )
    parser.add_argument(
        "--explain",
        default="auto",
        choices=["auto", "none"],
        help="auto explains with the model's family (dCAM/CAM); none classifies only (default: auto)",
    )
    parser.add_argument(
        "--explain-class",
        type=int,
        metavar="C",
        help="pin the explained class (default: each window's predicted class)",
    )
    parser.add_argument(
        "--input",
        metavar="FILE.npy",
        help="stream a saved (D, T) float array instead of synthetic noise",
    )
    parser.add_argument(
        "--samples",
        type=int,
        metavar="T",
        help="synthetic stream length in timesteps (default: 2x the model's window)",
    )
    parser.add_argument(
        "--stream-seed", type=int, default=0, help="synthetic stream RNG seed (default: 0)"
    )
    parser.add_argument(
        "--chunk", type=int, default=16, metavar="M", help="push block size in timesteps (default: 16)"
    )
    parser.add_argument(
        "--json-lines",
        action="store_true",
        help="print one JSON object per emission on stdout (heatmap summarised, not inlined)",
    )
    parser.add_argument(
        "--heatmaps", metavar="FILE.npz", help="save every emitted heatmap into one .npz archive"
    )


def _command_stream(args: argparse.Namespace) -> int:
    import numpy as np

    from ..serve.store import ModelArtifactStore
    from ..stream import StreamConfig, StreamSession

    store = ModelArtifactStore(args.store)
    names = store.list_names()
    if not names:
        print(
            f"error: no model artifacts in {args.store!r}; register one with "
            "`python -m repro export-model` first",
            file=sys.stderr,
        )
        return 2
    if args.model is None:
        if len(names) > 1:
            print(
                f"error: store has {len(names)} artifacts ({', '.join(names)}); pick one with --model",
                file=sys.stderr,
            )
            return 2
        name = names[0]
    elif args.model in names:
        name = args.model
    else:
        print(
            f"error: unknown artifact {args.model!r}; store has: {', '.join(names)}",
            file=sys.stderr,
        )
        return 2
    artifact = store.artifact(name)
    model = store.load(name)
    k = args.k if args.k is not None else int(artifact.metadata.get("default_k", 20))
    config = StreamConfig(
        hop=args.hop,
        engine=args.engine,
        explain=args.explain,
        k=k,
        seed=args.seed,
        explain_class=args.explain_class,
    )
    session = StreamSession(model, config, state_hash=artifact.state_hash)

    if args.input:
        feed = np.load(args.input)
        if feed.ndim != 2 or feed.shape[0] != model.n_dimensions:
            print(
                f"error: {args.input} has shape {feed.shape}, expected "
                f"({model.n_dimensions}, T)",
                file=sys.stderr,
            )
            return 2
        feed = np.asarray(feed, dtype=np.float64)
    else:
        total = args.samples if args.samples is not None else 2 * model.length
        rng = np.random.default_rng(args.stream_seed)
        feed = rng.standard_normal((model.n_dimensions, total))

    print(
        f"[repro] streaming {feed.shape[1]} samples (D={model.n_dimensions}) through "
        f"{name!r} [{session.engine} engine, window {session.window}, hop {config.hop}"
        + (f", {session.family} x k={k}" if session.family == "dcam" else f", {session.family}")
        + "]",
        file=sys.stderr,
    )
    start = time.perf_counter()
    results = []
    for offset in range(0, feed.shape[1], args.chunk):
        results.extend(session.push(feed[:, offset : offset + args.chunk]))
    elapsed = time.perf_counter() - start
    for result in results:
        if args.json_lines:
            record = {
                "index": result.index,
                "t_start": result.t_start,
                "t_end": result.t_end,
                "predicted": result.predicted,
                "logits": [float(v) for v in result.logits],
                "engine": result.engine,
            }
            if result.class_id is not None:
                record["class_id"] = result.class_id
                record["heatmap_shape"] = list(result.heatmap.shape)
                record["heatmap_max"] = float(result.heatmap.max())
            if result.success_ratio is not None:
                record["success_ratio"] = result.success_ratio
            print(json.dumps(record))
    if args.heatmaps:
        explained = {f"window_{r.index:05d}": r.heatmap for r in results if r.heatmap is not None}
        np.savez(args.heatmaps, **explained)
        print(f"[repro] {len(explained)} heatmap(s) written to {args.heatmaps}", file=sys.stderr)
    stats = session.stats
    rate = len(results) / elapsed if elapsed > 0 else float("inf")
    print(
        f"[repro] {len(results)} emission(s) in {elapsed:.2f}s ({rate:.1f}/s) — "
        f"cold starts {stats['cold_starts']}, incremental hops {stats['incremental_hops']}, "
        f"cam rebuilds {stats['cam_rebuilds']}",
        file=sys.stderr,
    )
    return 0


def _add_byte_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=7070, help="bind port; 0 picks an ephemeral port (default: 7070)"
    )
    parser.add_argument(
        "--dir", dest="directory", metavar="DIR", help="persist blobs here (memory-only otherwise)"
    )
    parser.add_argument(
        "--memory-mb",
        type=float,
        default=256.0,
        metavar="MB",
        help="LRU bound of the in-memory tier (default: 256)",
    )
    parser.add_argument(
        "--disk-mb",
        type=float,
        metavar="MB",
        help="LRU bound of the on-disk tier (default: unbounded)",
    )
    parser.add_argument(
        "--max-payload-mb",
        type=float,
        metavar="MB",
        help="largest frame payload the server buffers per connection; the "
        "protocol is unauthenticated, so keep it near your largest real "
        "blob (default: 256)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve /metrics (JSON or Prometheus text) and /trace for this "
        "process on 127.0.0.1:PORT; 0 picks an ephemeral port "
        "(default: no metrics endpoint)",
    )


def _command_byte_store_server(args: argparse.Namespace) -> int:
    from ..dist import ByteStoreServer

    server = ByteStoreServer(
        host=args.host,
        port=args.port,
        directory=args.directory,
        max_memory_bytes=int(args.memory_mb * 1024 * 1024),
        max_disk_bytes=None if args.disk_mb is None else int(args.disk_mb * 1024 * 1024),
        max_payload_bytes=(
            None if args.max_payload_mb is None else int(args.max_payload_mb * 1024 * 1024)
        ),
    )
    metrics_server = _start_metrics_sidecar(args, server.wire.telemetry, server.wire.tracer)
    print(
        f"[repro] byte-store server listening on {server.address}"
        + (f" (dir {args.directory})" if args.directory else " (memory-only)")
        + " — point clients at it with --remote-store; Ctrl-C stops",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("[repro] byte-store server stopping", file=sys.stderr)
        server.close()
    finally:
        if metrics_server is not None:
            metrics_server.close()
    return 0


def _start_metrics_sidecar(args: argparse.Namespace, telemetry, tracer):
    """Start the /metrics + /trace HTTP sidecar when ``--metrics-port`` was given."""
    if getattr(args, "metrics_port", None) is None:
        return None
    from ..obs import MetricsHTTPServer

    sidecar = MetricsHTTPServer(telemetry, tracer=tracer, port=args.metrics_port).start()
    print(
        f"[repro] metrics endpoint on http://{sidecar.address} (/metrics /trace /healthz)",
        file=sys.stderr,
    )
    return sidecar


def _add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="fleet coordinator address (printed by `repro run --executor fleet`)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="local result-cache directory for unit dedupe (shared via --remote-store)",
    )
    parser.add_argument(
        "--remote-store",
        metavar="HOST:PORT",
        help="shared remote byte-store tier behind the worker's result cache",
    )
    parser.add_argument(
        "--provider",
        action="append",
        default=[],
        metavar="MODULE",
        help="extra module to import before serving (registers work kinds); repeatable",
    )
    parser.add_argument(
        "--worker-id", metavar="ID", help="lease/heartbeat identity (default: hostname-pid)"
    )
    parser.add_argument(
        "--poll-interval-s",
        type=float,
        default=0.2,
        metavar="S",
        help="idle re-poll delay when the queue is empty (default: 0.2)",
    )
    parser.add_argument(
        "--max-idle-s",
        type=float,
        metavar="S",
        help="exit after this long without work (default: wait for the coordinator to drain)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve /metrics (JSON or Prometheus text) and /trace for this "
        "worker on 127.0.0.1:PORT; 0 picks an ephemeral port "
        "(default: no metrics endpoint)",
    )


def _command_worker(args: argparse.Namespace) -> int:
    from ..dist.worker import default_worker_id, run_worker
    from ..obs.tracing import Tracer
    from ..obs import Telemetry

    cache = (
        ResultCache(directory=args.cache_dir, remote=_remote_store(args.remote_store))
        if args.cache_dir or args.remote_store
        else None
    )
    worker_id = args.worker_id or default_worker_id()
    telemetry = Telemetry()
    tracer = Tracer(sample_rate=0.0, process=f"worker:{worker_id}")
    metrics_server = _start_metrics_sidecar(args, telemetry, tracer)
    print(
        f"[repro] worker connecting to {args.connect}"
        + (f" cache={args.cache_dir}" if args.cache_dir else "")
        + (f" remote-store={args.remote_store}" if args.remote_store else ""),
        file=sys.stderr,
    )
    try:
        completed = run_worker(
            args.connect,
            cache=cache,
            providers=args.provider,
            worker_id=worker_id,
            poll_interval_s=args.poll_interval_s,
            max_idle_s=args.max_idle_s,
            telemetry=telemetry,
            tracer=tracer,
        )
    except KeyboardInterrupt:
        print("[repro] worker interrupted", file=sys.stderr)
        return 130
    finally:
        if metrics_server is not None:
            metrics_server.close()
    print(f"[repro] worker done: {completed} unit(s) completed", file=sys.stderr)
    return 0


def _add_trace_dump_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--url",
        metavar="http://HOST:PORT",
        help="base URL of a serving host or metrics sidecar; spans are "
        "fetched from its /trace endpoint",
    )
    source.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="wire-protocol address of a byte-store server or fleet "
        "coordinator; spans are fetched via the trace-dump op",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the JSONL export here instead of stdout",
    )


def _command_trace_dump(args: argparse.Namespace) -> int:
    import json as _json

    if args.url:
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/trace"
        try:
            with urlopen(url, timeout=10.0) as response:
                payload = _json.loads(response.read().decode("utf-8"))
        except (OSError, ValueError) as error:
            print(f"error: could not fetch {url}: {error}", file=sys.stderr)
            return 2
        spans = payload.get("spans", [])
    else:
        from ..dist.client import RemoteStoreConfig, RemoteUnavailableError, WireClient

        client = WireClient(RemoteStoreConfig(address=args.connect, retries=0))
        try:
            header, _ = client.request({"op": "trace-dump"})
        except RemoteUnavailableError as error:
            print(f"error: could not reach {args.connect}: {error}", file=sys.stderr)
            return 2
        finally:
            client.close()
        spans = header.get("spans", [])
    lines = "".join(_json.dumps(span, sort_keys=True) + "\n" for span in spans)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(lines)
        print(f"[repro] wrote {len(spans)} span(s) to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(lines)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="dCAM reproduction experiment suite (declarative job-graph runtime).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the runnable experiments")
    run_parser = subparsers.add_parser(
        "run",
        help="run one experiment",
        description="Run one table/figure driver through the repro.runtime executor.",
    )
    _add_run_arguments(run_parser)
    export_parser = subparsers.add_parser(
        "export-model",
        help="train (or load) a model and register it for serving",
        description="Train one classifier on the synthetic benchmark — or load "
        "its state from the runtime result cache — and register it "
        "into a serve model store.",
    )
    _add_export_arguments(export_parser)
    serve_parser = subparsers.add_parser(
        "serve",
        help="serve classify/explain requests over HTTP",
        description="Serve the models of an artifact store with dynamic "
        "micro-batching and a content-addressed explanation cache.",
    )
    _add_serve_arguments(serve_parser)
    stream_parser = subparsers.add_parser(
        "stream",
        help="replay a feed through a streaming explanation session",
        description="Push a (D, T) feed — synthetic noise or a saved .npy — "
        "through a repro.stream.StreamSession, emitting one "
        "classification + CAM/dCAM heatmap per window hop.",
    )
    _add_stream_arguments(stream_parser)
    byte_store_parser = subparsers.add_parser(
        "byte-store-server",
        help="serve the shared remote byte-store tier",
        description="Run the reference remote byte-store server every cache "
        "and artifact store can point at via --remote-store. "
        "Unauthenticated: bind only on trusted networks.",
    )
    _add_byte_store_arguments(byte_store_parser)
    worker_parser = subparsers.add_parser(
        "worker",
        help="pull and execute fleet work units",
        description="Run one fleet worker against a `repro run --executor "
        "fleet` coordinator: lease units, dedupe against the "
        "(optionally remote-backed) result cache, execute, report.",
    )
    _add_worker_arguments(worker_parser)
    trace_dump_parser = subparsers.add_parser(
        "trace-dump",
        help="export collected trace spans as JSONL",
        description="Fetch the span ring of a serving host (--url, HTTP "
        "/trace) or of a wire-protocol server (--connect, the "
        "trace-dump op) and emit one JSON span per line.",
    )
    _add_trace_dump_arguments(trace_dump_parser)

    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "export-model":
        return _command_export_model(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "stream":
        return _command_stream(args)
    if args.command == "byte-store-server":
        return _command_byte_store_server(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "trace-dump":
        return _command_trace_dump(args)
    return _command_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
