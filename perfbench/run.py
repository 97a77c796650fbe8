"""Run one workload of the explain benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_tiny --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``'s
``end_to_end``); ``--trace 1`` reruns the same workload with span wrappers
around each layer's entry points and prints the per-layer metrics
(``per_layer``), the stage table and the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record goes to
``perfbench/results/<workload>-trace<0|1>.json`` and, for traced runs, the
spans to ``perfbench/results/<workload>-spans.jsonl``.

Exit codes: 0 success, 1 an output check failed during timing, 2 the
program's sources are missing, 3 a correctness gate failed before timing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = {"serve_tiny": "serve", "serve_paper": "serve", "stream_hop": "stream",
           "sweep_tiny": "sweep"}
#: Fresh interpreters started to time the import; a single one varies by
#: a third from run to run on a shared host, the median of five by a tenth.
IMPORT_REPEATS = 5


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded (None if unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "blas_threads": blas_threads(),
        "numpy": numpy.__version__, "python": platform.python_version(),
    }


def wake_cpus(seconds: float = 1.0) -> None:
    """Keep every core busy for ``seconds`` before anything is timed.

    On a virtual machine that sat idle, the first second of BLAS work can
    run an order of magnitude slower; this keeps that out of set-up times.
    """
    import numpy

    block = numpy.random.default_rng(0).standard_normal((256, 256))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        block @ block


def import_seconds(module: str):
    """Median time for a fresh interpreter to start and import ``module``.

    The workload's module loads numpy and the program, so this is the part of
    set-up every process pays before its first call.  Returns the median and
    every time.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, SRC]))
    seconds = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env, check=True)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), seconds


def run_workload(module, name: str, seed: int, seconds: float, trace: bool, workdir: str):
    if name in ("serve_tiny", "serve_paper"):
        shape = module.TINY if name == "serve_tiny" else module.PAPER
        return module.run(shape, seed, seconds, trace, workdir)
    return module.run(seed, seconds, trace, workdir)


def report(args, env: dict, result) -> dict:
    from perfbench.catalog import END_TO_END, MOVES, PER_LAYER

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env))
    for phase in result.phases:
        print("phase " + json.dumps(phase))
    metrics = {}
    if args.trace:
        print("per-layer metrics (self time per operation unless the name says otherwise):")
        for metric in PER_LAYER:
            name, unit = metric["name"], metric["unit"]
            value = float(result.per_layer[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<30} {value:>14.6g} {unit:<6} moves: {MOVES[name]}")
        print(f"stage table (ms per operation, {result.stage_table[-1]['calls']} operations):")
        for row in result.stage_table:
            print(f"  {row['stage']:<28} calls={row['calls']:<8} self={row['self_ms_per_op']:<12.6g}"
                  f" inclusive={row['inclusive_ms_per_op']:.6g}")
    else:
        print("end-to-end metrics:")
        for metric in END_TO_END:
            name, unit = metric["name"], metric["unit"]
            value = float(result.end_to_end[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<16} {value:>14.6g} {unit}")
        print("named figures (with sample counts):")
        for name, figure in result.details.items():
            print(f"  {name:<22} {json.dumps(figure)}")
    return metrics


def main(argv=None) -> int:
    # The script's own directory would shadow stdlib-like names; import as a package.
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    from perfbench.catalog import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources under src/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    from perfbench.common import GateError

    module_name = f"perfbench.{MODULES[args.workload]}"
    module = importlib.import_module(module_name)
    results_dir = os.path.join(HERE, "results")
    work_root = os.path.join(HERE, ".work")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    env = environment(args)
    wake_cpus()
    import_s, imports = import_seconds(module_name)
    try:
        result = run_workload(module, args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir)
    except GateError as error:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # From process start to the first timed operation: the interpreter's start
    # and import, then the workload's own set-up, each the median of repeats.
    # The benchmark's own CPU wake-up and correctness gates are left out.
    result.end_to_end["setup_s"] += import_s
    result.details["import_s_each"] = imports
    metrics = report(args, env, result)
    record = {"environment": env, "phases": result.phases, "details": result.details,
              "end_to_end": result.end_to_end, "per_layer": result.per_layer,
              "stage_table": result.stage_table, "correct": result.correct}
    with open(os.path.join(results_dir, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    if result.recorder is not None:
        result.recorder.dump_jsonl(os.path.join(results_dir, f"{args.workload}-spans.jsonl"))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
