"""Throughput benchmark: batched no-grad dCAM vs the legacy per-permutation path.

Trains a tiny dCNN, then explains a handful of test instances with ``k``
permutations twice:

* **legacy** — the seed implementation's strategy: one autograd-recording
  batch-size-1 forward pass per permutation (``permutation_cam`` from
  ``tests/oracles/dcam.py``),
  followed by the per-pair ``M``-transform merge; and
* **batched** — the production pipeline: micro-batched graph-free forward
  passes under ``inference_mode`` with the vectorised merge.

Emits a JSON record to ``benchmarks/results/dcam_throughput.json`` so the
speedup is tracked across the bench trajectory, and verifies that both paths
agree to 1e-10 (exits non-zero otherwise).

Run directly (no install needed)::

    python benchmarks/bench_dcam_throughput.py [--scale tiny] [--k 100]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time

# Allow running straight from a checkout without installing the package; the
# reference oracle lives with the tests.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_REPO_ROOT, "src"), os.path.join(_REPO_ROOT, "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from oracles.dcam import permutation_cam  # noqa: E402
from repro.core.dcam import (  # noqa: E402
    compute_dcam,
    extract_dcam,
    merge_permutation_cams,
)
from repro.core.input_transform import random_permutations  # noqa: E402
from repro.data.synthetic import make_type1_dataset  # noqa: E402
from repro.experiments.config import get_scale  # noqa: E402
from repro.models.cnn import DCNNClassifier  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def compute_dcam_legacy(model, series, class_id, permutations):
    """The seed's evaluation strategy: k independent graph-recording passes."""
    collected = []
    n_correct = 0
    for order in permutations:
        cam_rows, predicted = permutation_cam(model, series, class_id, order)
        collected.append((cam_rows, order))
        if predicted == class_id:
            n_correct += 1
    m_bar = merge_permutation_cams(collected)
    dcam, _ = extract_dcam(m_bar)
    return dcam, n_correct


def best_of(fn, repeats):
    """Best-of-N wall-clock with the cyclic GC paused (its collection pauses
    are the dominant noise source for millisecond-scale measurements)."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small"],
                        help="experiment scale of the trained model / dataset")
    parser.add_argument("--k", type=int, default=100,
                        help="number of permutations per explanation (paper: 100)")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="micro-batch size of the batched pipeline")
    parser.add_argument("--instances", type=int, default=3,
                        help="number of test instances explained per measurement")
    parser.add_argument("--repeats", type=int, default=5,
                        help="measurement repetitions (best-of is reported)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit non-zero if the speedup falls below this")
    parser.add_argument("--output", default=os.path.join(RESULTS_DIR, "dcam_throughput.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    scale = get_scale(args.scale, random_state=0)
    dataset = make_type1_dataset(scale.synthetic)
    model = DCNNClassifier(dataset.n_dimensions, dataset.length, dataset.n_classes,
                           rng=np.random.default_rng(0), **scale.model_kwargs("dcnn"))
    print(f"training tiny dCNN on {dataset.n_dimensions}x{dataset.length} synthetic data ...")
    training = scale.training.__class__(epochs=5, batch_size=8, learning_rate=3e-3,
                                        random_state=0)
    model.fit(dataset.X, dataset.y, config=training)
    model.eval()

    instances = [
        (dataset.X[index], int(dataset.y[index]))
        for index in range(min(args.instances, len(dataset)))
    ]
    permutation_sets = [
        random_permutations(dataset.n_dimensions, args.k, np.random.default_rng(seed))
        for seed in range(len(instances))
    ]

    def run_legacy():
        for (series, label), perms in zip(instances, permutation_sets):
            compute_dcam_legacy(model, series, label, perms)

    def run_batched():
        for (series, label), perms in zip(instances, permutation_sets):
            compute_dcam(model, series, label, permutations=perms,
                         batch_size=args.batch_size)

    # Correctness first: both paths must agree to 1e-10 on the same permutations.
    max_abs_diff = 0.0
    for (series, label), perms in zip(instances, permutation_sets):
        legacy_dcam, legacy_correct = compute_dcam_legacy(model, series, label, perms)
        result = compute_dcam(model, series, label, permutations=perms,
                              batch_size=args.batch_size)
        max_abs_diff = max(max_abs_diff, float(np.abs(result.dcam - legacy_dcam).max()))
        if result.n_correct != legacy_correct:
            print(f"FAIL: n_correct mismatch ({result.n_correct} != {legacy_correct})")
            return 1
    if max_abs_diff > 1e-10:
        print(f"FAIL: batched dCAM deviates from legacy path by {max_abs_diff:.2e} > 1e-10")
        return 1

    run_legacy()  # warm-up
    run_batched()
    legacy_seconds = best_of(run_legacy, args.repeats)
    batched_seconds = best_of(run_batched, args.repeats)
    n_explanations = len(instances)
    speedup = legacy_seconds / batched_seconds

    record = {
        "benchmark": "dcam_throughput",
        "scale": args.scale,
        "k": args.k,
        "batch_size": args.batch_size,
        "n_explanations": n_explanations,
        "legacy_seconds": legacy_seconds,
        "batched_seconds": batched_seconds,
        "legacy_explanations_per_second": n_explanations / legacy_seconds,
        "batched_explanations_per_second": n_explanations / batched_seconds,
        "speedup": speedup,
        "max_abs_diff": max_abs_diff,
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
    print(f"\nlegacy:  {n_explanations / legacy_seconds:8.2f} explanations/s")
    print(f"batched: {n_explanations / batched_seconds:8.2f} explanations/s")
    print(f"speedup: {speedup:.1f}x (numerically identical to {max_abs_diff:.2e})")
    print(f"[written to {args.output}]")

    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
