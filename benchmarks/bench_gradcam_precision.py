"""Benchmark: graph-free grad-CAM vs the recorded-graph path, and the
float32 compute tier vs the float64 reference.

Two measurements on a tiny MTEX-CNN (the grad-CAM architecture):

* **vjp vs recorded** — the explicit-VJP batch engine
  (``GradCAMExplainer.explain_batch``, forwards under ``inference_mode``, no
  autograd tape) against the recorded-graph oracle
  (``mtex_explanation`` in ``tests/oracles/gradcam.py``, one tracked
  forward + backward per instance).  Parity to 1e-10 is verified first
  (exit non-zero otherwise).
* **float32 vs float64** — the same trained weights cast to the opt-in
  float32 tier: batched inference (logits) and batched explanation are timed
  at both precisions and the maximum relative deviation is recorded.  The
  deviation must stay within the documented 1e-5 inference tolerance; the
  speedup is host-dependent (bandwidth-bound at tiny sizes) and is reported
  for tracking, gated only through the committed baseline.

Emits ``benchmarks/results/gradcam_precision.json`` for the perf-regression
gate.  Run directly (no install needed)::

    python benchmarks/bench_gradcam_precision.py [--scale tiny]
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import sys
import time

# Allow running straight from a checkout without installing the package; the
# recorded-graph oracle lives with the tests.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_REPO_ROOT, "src"), os.path.join(_REPO_ROOT, "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from oracles.gradcam import mtex_explanation  # noqa: E402
from repro.data.synthetic import make_type1_dataset  # noqa: E402
from repro.experiments.config import get_scale  # noqa: E402
from repro.explain import get_explainer  # noqa: E402
from repro.models.registry import create_model  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Documented relative tolerance of float32 inference against the float64
#: reference (same weights, cast); mirrors tests/test_fused_precision.py.
FLOAT32_RTOL = 1e-5


def best_of(fn, repeats):
    """Best-of-N wall clock with the cyclic GC paused."""
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


def relative_error(value, reference):
    scale = max(float(np.abs(reference).max()), 1e-12)
    return float(np.abs(np.asarray(value, dtype=np.float64) - reference).max() / scale)


def bench_vjp_vs_recorded(model, X, class_ids, repeats):
    """Time the explicit-VJP batch engine against the recorded-graph path."""
    explainer = get_explainer(model)

    def run_recorded():
        return [mtex_explanation(model, series, class_id)
                for series, class_id in zip(X, class_ids)]

    def run_vjp():
        return [e.heatmap for e in explainer.explain_batch(X, class_ids)]

    max_rel = max(relative_error(vjp, recorded)
                  for vjp, recorded in zip(run_vjp(), run_recorded()))
    if max_rel > 1e-10:
        raise SystemExit(f"FAIL: VJP grad-CAM deviates from the recorded path "
                         f"by {max_rel:.2e} > 1e-10")

    recorded_seconds = best_of(run_recorded, repeats)
    vjp_seconds = best_of(run_vjp, repeats)
    n = len(X)
    speedup = recorded_seconds / vjp_seconds
    print(f"[gradcam] recorded {n / recorded_seconds:8.2f} expl/s   "
          f"vjp {n / vjp_seconds:8.2f} expl/s   speedup {speedup:.2f}x "
          f"(max rel diff {max_rel:.2e})")
    return {
        "n_explanations": n,
        "recorded_seconds": recorded_seconds,
        "vjp_seconds": vjp_seconds,
        "recorded_explanations_per_second": n / recorded_seconds,
        "vjp_explanations_per_second": n / vjp_seconds,
        "speedup": speedup,
        "max_relative_diff": max_rel,
    }


def bench_float32_tier(model, X, class_ids, repeats):
    """Time float32 inference/explanation against the float64 reference."""
    fast = copy.deepcopy(model).astype(np.float32)

    reference_logits = model.logits(X)
    fast_logits = fast.logits(X)
    logit_rel = relative_error(fast_logits, reference_logits)

    reference_maps = [e.heatmap for e in get_explainer(model).explain_batch(X, class_ids)]
    fast_maps = [e.heatmap for e in get_explainer(fast).explain_batch(X, class_ids)]
    explain_rel = max(relative_error(a, b) for a, b in zip(fast_maps, reference_maps))
    worst = max(logit_rel, explain_rel)
    if worst > FLOAT32_RTOL:
        raise SystemExit(f"FAIL: float32 tier deviates from float64 by "
                         f"{worst:.2e} > documented tolerance {FLOAT32_RTOL:.0e}")

    n = len(X)
    logits64 = best_of(lambda: model.logits(X), repeats)
    logits32 = best_of(lambda: fast.logits(X), repeats)
    explain64 = best_of(lambda: get_explainer(model).explain_batch(X, class_ids), repeats)
    explain32 = best_of(lambda: get_explainer(fast).explain_batch(X, class_ids), repeats)
    logit_speedup = logits64 / logits32
    explain_speedup = explain64 / explain32
    print(f"[float32] logits {logit_speedup:.2f}x (rel err {logit_rel:.2e})   "
          f"explain {explain_speedup:.2f}x (rel err {explain_rel:.2e})")
    return {
        "n_instances": n,
        "float64_logit_seconds": logits64,
        "float32_logit_seconds": logits32,
        "float32_logits_per_second": n / logits32,
        "float32_logit_speedup": logit_speedup,
        "float64_explain_seconds": explain64,
        "float32_explain_seconds": explain32,
        "float32_explanations_per_second": n / explain32,
        "float32_explain_speedup": explain_speedup,
        "logit_relative_error": logit_rel,
        "explain_relative_error": explain_rel,
        "tolerance": FLOAT32_RTOL,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small"],
                        help="experiment scale of the trained model / dataset")
    parser.add_argument("--instances", type=int, default=12,
                        help="number of test instances per measurement")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measurement repetitions (best-of is reported)")
    parser.add_argument("--output",
                        default=os.path.join(RESULTS_DIR, "gradcam_precision.json"),
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    scale = get_scale(args.scale, random_state=0)
    dataset = make_type1_dataset(scale.synthetic)
    model = create_model("mtex", dataset.n_dimensions, dataset.length,
                         dataset.n_classes, rng=np.random.default_rng(0),
                         **scale.model_kwargs("mtex"))
    print(f"[gradcam] training tiny mtex on "
          f"{dataset.n_dimensions}x{dataset.length} synthetic data ...")
    training = scale.training.__class__(epochs=5, batch_size=8, learning_rate=3e-3,
                                        random_state=0)
    model.fit(dataset.X, dataset.y, config=training)
    model.eval()

    n = min(args.instances, len(dataset))
    X = dataset.X[:n]
    class_ids = [int(label) for label in dataset.y[:n]]

    record = {
        "benchmark": "gradcam_precision",
        "scale": args.scale,
        "gradcam": bench_vjp_vs_recorded(model, X, class_ids, args.repeats),
        "float32": bench_float32_tier(model, X, class_ids, args.repeats),
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
