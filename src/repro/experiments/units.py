"""Work functions behind every experiment driver's :class:`WorkUnit` kinds.

Each function evaluates one self-contained cell of the paper's evaluation —
generate the dataset deterministically from the unit's config seed, train the
model with the unit's derived run seed, measure the metrics — and returns a
plain picklable result.  They are registered with
:func:`repro.runtime.register_work` so the runtime can evaluate them in the
calling process (:class:`~repro.runtime.SerialExecutor`) or in worker
processes (:class:`~repro.runtime.ParallelExecutor`) interchangeably.

Determinism contract: a work function must derive every RNG it uses from its
own parameters (``config_seed`` / ``run_seed`` / ``seed``), never from shared
or global state.  This is what makes serial and parallel execution produce
bit-identical numbers and what makes the unit fingerprint a sound cache key.

The seed derivations reproduce the legacy drivers' nested loops exactly:
``config_seed = base_seed + 1000*seed_index + 100*dataset_type + D`` for the
synthetic sweeps and ``run_seed = config_seed + run``, so results are
float-identical to the pre-runtime serial implementations.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from ..data.jigsaws import JigsawsConfig
from ..data.splits import train_validation_split
from ..data.synthetic import SyntheticConfig, make_type1_dataset
from ..data.uea import make_uea_dataset
from ..eval.dr_acc import dr_acc
from ..explain.evaluation import evaluate_explainer, select_explainable_instances
from ..explain.registry import get_explainer
from ..models.base import TrainingConfig
from ..models.registry import create_model
from ..runtime.registry import register_work
from ..runtime.spec import scale_fingerprint_payload
from .ablation import EXTRACTION_VARIANTS, extract_variant
from .runner import (
    classification_accuracy_of,
    explanation_accuracy_of,
    random_explanation_accuracy,
    synthetic_train_test,
    train_model,
)


# ----------------------------------------------------------------------
# Per-process dataset memo: many units of one sweep share a configuration
# (the legacy loops generated each (train, test) pair once per config, then
# evaluated every model/run against it).  Generation is deterministic, so
# memoizing changes nothing numerically — it only removes redundant work
# within a worker process.  Keyed on the scale fingerprint + config params;
# small and FIFO-bounded because executors walk configurations in order.
_DATASET_MEMO: "OrderedDict[Tuple, Any]" = OrderedDict()
_DATASET_MEMO_SIZE = 4


def _memoized(key: Tuple, build) -> Any:
    value = _DATASET_MEMO.get(key)
    if value is None:
        value = build()
        _DATASET_MEMO[key] = value
        while len(_DATASET_MEMO) > _DATASET_MEMO_SIZE:
            _DATASET_MEMO.popitem(last=False)
    else:
        _DATASET_MEMO.move_to_end(key)
    return value


def _synthetic_pair(scale, seed_name: str, dataset_type: int, n_dimensions: int,
                    config_seed: int):
    key = ("synthetic", scale_fingerprint_payload(scale), seed_name,
           dataset_type, n_dimensions, config_seed)
    return _memoized(key, lambda: synthetic_train_test(
        seed_name, dataset_type, n_dimensions, scale, config_seed))


def _uea_pair(scale, dataset_name: str, split_seed: int):
    def build():
        dataset = make_uea_dataset(dataset_name, scale.uea)
        train, test = train_validation_split(dataset, 0.75, random_state=split_seed)
        return dataset, train, test

    key = ("uea", scale_fingerprint_payload(scale), dataset_name, split_seed)
    return _memoized(key, build)


@register_work("synthetic_cell")
def synthetic_cell(scale, *, seed_name: str, dataset_type: int, n_dimensions: int,
                   model_name: str, config_seed: int, run_seed: int,
                   target_class: int = 1) -> Dict[str, Any]:
    """One Table 3 / Figure 9 / Figure 11 cell: train + C-acc + Dr-acc.

    The (train, test) pair is regenerated deterministically from
    ``config_seed`` (memoized per process), so cells sharing a configuration
    agree with the legacy build-once-per-config loops bit for bit.
    """
    train, test = _synthetic_pair(scale, seed_name, dataset_type, n_dimensions,
                                  config_seed)
    model, _ = train_model(model_name, train, scale, random_state=run_seed)
    c_acc = classification_accuracy_of(model, test)
    dr_score, success_ratio = explanation_accuracy_of(
        model, model_name, test, scale, target_class=target_class,
        random_state=run_seed)
    return {"c_acc": c_acc, "dr_acc": dr_score, "success_ratio": success_ratio}


@register_work("synthetic_random_baseline")
def synthetic_random_baseline(scale, *, seed_name: str, dataset_type: int,
                              n_dimensions: int, config_seed: int,
                              target_class: int = 1) -> float:
    """Dr-acc of random scores on one synthetic configuration (Table 3 "Random")."""
    _, test = _synthetic_pair(scale, seed_name, dataset_type, n_dimensions,
                              config_seed)
    return random_explanation_accuracy(test, scale, target_class)


@register_work("uea_cell")
def uea_cell(scale, *, dataset_name: str, model_name: str, split_seed: int,
             run_seed: int) -> Dict[str, Any]:
    """One Table 2 / Figure 8 cell: train on a UEA dataset, measure C-acc."""
    dataset, train, test = _uea_pair(scale, dataset_name, split_seed)
    model, _ = train_model(model_name, train, scale, random_state=run_seed)
    n_classes, length, n_dims = dataset.metadata["scaled_metadata"]
    return {
        "c_acc": classification_accuracy_of(model, test),
        "metadata": {"classes": int(n_classes), "length": int(length),
                     "dimensions": int(n_dims)},
    }


@register_work("figure10_curve")
def figure10_curve(scale, *, seed_name: str, dataset_type: int, n_dimensions: int,
                   model_name: str, k_values: Sequence[int],
                   config_seed: int) -> Dict[str, Any]:
    """Train once, then re-evaluate Dr-acc at each permutation count ``k``.

    The per-``k`` evaluations share an in-memory
    :class:`~repro.serve.cache.ExplanationCache`: every evaluation seeds its
    permutation generator identically, so the ``k₁`` draw is a prefix of any
    ``k₂ > k₁`` draw and the dCAM explainer reuses the cached permutation
    CAMs — the sweep costs ``max(k)`` forwards per instance instead of
    ``sum(k)``, with bit-identical Dr-acc values (pinned by tests).
    """
    from ..serve.cache import ExplanationCache

    train, test = _synthetic_pair(scale, seed_name, dataset_type, n_dimensions,
                                  config_seed)
    model, _ = train_model(model_name, train, scale, random_state=config_seed)
    permutation_cams = ExplanationCache(max_memory_bytes=None)
    curve = [evaluate_explainer(model, test, scale, k=int(k),
                                random_state=config_seed,
                                cache=permutation_cams).dr_acc
             for k in k_values]
    return {"dr_acc": curve}


@register_work("trained_model_state")
def trained_model_state(scale, *, seed_name: str, dataset_type: int,
                        n_dimensions: int, model_name: str,
                        config_seed: int) -> Dict[str, Any]:
    """Train one model and return its full serialisable state (no metrics).

    The unit behind ``python -m repro export-model``: its result — the state
    dict plus the problem shape and a content fingerprint of the training
    data — is everything the serving layer's artifact store needs, and it is
    cached by the runtime :class:`~repro.runtime.ResultCache` like any other
    unit, so re-exporting (or exporting after a sweep already trained the
    configuration) performs no training at all.
    """
    from ..serve.cache import content_key

    train, _ = _synthetic_pair(scale, seed_name, dataset_type, n_dimensions,
                               config_seed)
    model, history = train_model(model_name, train, scale, random_state=config_seed)
    return {
        "state": model.state_dict(),
        "training_mode": bool(model.training),
        "n_dimensions": int(train.n_dimensions),
        "length": int(train.length),
        "n_classes": int(train.n_classes),
        "dataset_fingerprint": content_key("synthetic-train", train.X, train.y),
        "epochs_run": int(history.epochs_run),
        "best_epoch": int(history.best_epoch),
    }


@register_work("figure12_epoch_time")
def figure12_epoch_time(scale, *, model_name: str, n_dimensions: int, length: int,
                        seed: int, n_instances: int = 8) -> float:
    """Wall-clock seconds for one training epoch on a synthetic dataset.

    Timed around the whole one-epoch ``fit`` call rather than via
    ``history.epoch_seconds``: the fused engine prepares inputs (including the
    D-dependent ``C(T)`` cube of the d-architectures) once *before* its epoch
    loop, so the inner-loop timer alone would drop exactly the input-pipeline
    cost whose scaling this figure reproduces.
    """
    config = SyntheticConfig(n_dimensions=n_dimensions,
                             n_instances_per_class=n_instances // 2,
                             series_length=length,
                             seed_instance_length=max(8, length // 4),
                             pattern_length=max(4, length // 8), random_state=seed)
    dataset = make_type1_dataset(config)
    rng = np.random.default_rng(seed)
    model = create_model(model_name, dataset.n_dimensions, dataset.length,
                         dataset.n_classes, rng=rng, **scale.model_kwargs(model_name))
    training = TrainingConfig(epochs=1, batch_size=scale.training.batch_size,
                              learning_rate=scale.training.learning_rate,
                              patience=10, random_state=seed)
    start = time.perf_counter()
    model.fit(dataset.X, dataset.y, config=training)
    return time.perf_counter() - start


@register_work("figure12_dcam_time")
def figure12_dcam_time(scale, *, model_name: str, n_dimensions: int, length: int,
                       k: int, seed: int) -> float:
    """Wall-clock seconds of one dCAM computation on an untrained d-model."""
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((n_dimensions, length))
    model = create_model(model_name, n_dimensions, length, 2, rng=rng,
                         **scale.model_kwargs(model_name))
    explainer = get_explainer(model, k=k, rng=rng,
                              batch_size=scale.dcam_batch_size)
    start = time.perf_counter()
    explainer.explain(series, 0)
    return time.perf_counter() - start


@register_work("figure12_convergence")
def figure12_convergence(scale, *, model_name: str, n_dimensions: int,
                         seed_name: str = "shapes", dataset_type: int = 1,
                         base_seed: int = 0) -> Dict[str, Any]:
    """Epochs / seconds for a training run to reach 90% of its best loss."""
    train, _ = _synthetic_pair(scale, seed_name, dataset_type, n_dimensions,
                               base_seed)
    _, history = train_model(model_name, train, scale, random_state=base_seed)
    epochs_needed = history.epochs_to_fraction_of_best(0.9)
    # prepare_seconds is the engine's hoisted input-pipeline cost; reaching
    # any epoch requires it.
    seconds = float(history.prepare_seconds
                    + np.sum(history.epoch_seconds[:epochs_needed]))
    return {
        "model": model_name,
        "epochs_to_90pct": epochs_needed,
        "seconds_to_90pct": seconds,
        "epochs_run": history.epochs_run,
    }


@register_work("figure13_usecase")
def figure13_usecase(scale, *, jigsaws: Dict[str, Any], model_name: str,
                     top_k_sensors: int, top_k_gestures: int, base_seed: int):
    """The whole surgeon-skill use case (one coarse unit; see figure13.py)."""
    from .figure13 import compute_figure13

    return compute_figure13(scale, JigsawsConfig(**jigsaws), model_name,
                            top_k_sensors, top_k_gestures, base_seed)


@register_work("ablation_extraction_cell")
def ablation_extraction_cell(scale, *, seed_name: str, dataset_type: int,
                             n_dimensions: int, model_name: str,
                             config_seed: int) -> Dict[str, Any]:
    """Dr-acc of the three dCAM extraction rules on one configuration."""
    train, test = _synthetic_pair(scale, seed_name, dataset_type, n_dimensions,
                                  config_seed)
    model, _ = train_model(model_name, train, scale, random_state=config_seed)
    indices = select_explainable_instances(test, target_class=1,
                                           n_instances=scale.n_explained_instances)
    scores: Dict[str, list] = {variant: [] for variant in EXTRACTION_VARIANTS}
    explainer = get_explainer(model, k=scale.k_permutations,
                              rng=np.random.default_rng(config_seed),
                              batch_size=scale.dcam_batch_size)
    # Per-instance explain keeps only one (D, D, n) M̄ payload alive at a
    # time; the draws come off the shared generator in sequence, so the
    # results match the batch engine exactly.
    for index in indices:
        explanation = explainer.explain(test.X[index], int(test.y[index]))
        for variant in EXTRACTION_VARIANTS:
            heatmap = extract_variant(explanation.details.m_bar, variant)
            scores[variant].append(dr_acc(heatmap, test.ground_truth[index]))
    row: Dict[str, Any] = {"dataset": f"{seed_name}-type{dataset_type}-D{n_dimensions}",
                           "model": model_name}
    for variant in EXTRACTION_VARIANTS:
        row[variant] = float(np.mean(scores[variant]))
    return row


@register_work("ablation_ng_filter_cell")
def ablation_ng_filter_cell(scale, *, seed_name: str, dataset_type: int,
                            n_dimensions: int, model_name: str,
                            config_seed: int) -> Dict[str, Any]:
    """All-permutations vs only-correct averaging on one configuration."""
    train, test = _synthetic_pair(scale, seed_name, dataset_type, n_dimensions,
                                  config_seed)
    model, _ = train_model(model_name, train, scale, random_state=config_seed)
    indices = select_explainable_instances(test, target_class=1,
                                           n_instances=scale.n_explained_instances)
    all_scores, correct_scores, ratios = [], [], []
    for index in indices:
        # Fresh generators so both variants see the same permutations on
        # every instance (the ablated quantity is the filter, not the draw).
        explanation_all = get_explainer(
            model, k=scale.k_permutations, rng=np.random.default_rng(config_seed),
            batch_size=scale.dcam_batch_size, use_only_correct=False,
        ).explain(test.X[index], int(test.y[index]))
        explanation_correct = get_explainer(
            model, k=scale.k_permutations, rng=np.random.default_rng(config_seed),
            batch_size=scale.dcam_batch_size, use_only_correct=True,
        ).explain(test.X[index], int(test.y[index]))
        all_scores.append(dr_acc(explanation_all.heatmap, test.ground_truth[index]))
        correct_scores.append(dr_acc(explanation_correct.heatmap,
                                     test.ground_truth[index]))
        ratios.append(explanation_all.success_ratio)
    return {
        "dataset": f"{seed_name}-type{dataset_type}-D{n_dimensions}",
        "model": model_name,
        "all_permutations": float(np.mean(all_scores)),
        "only_correct": float(np.mean(correct_scores)),
        "ng/k": float(np.mean(ratios)),
    }


__all__ = [
    "synthetic_cell",
    "synthetic_random_baseline",
    "uea_cell",
    "figure10_curve",
    "trained_model_state",
    "figure12_epoch_time",
    "figure12_dcam_time",
    "figure12_convergence",
    "figure13_usecase",
    "ablation_extraction_cell",
    "ablation_ng_filter_cell",
]
