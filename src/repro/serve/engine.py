"""Coalescing-invariant execution engine behind the serving facade.

The micro-batching scheduler's contract is that a response does not depend on
*which other requests happened to share its flush* — the bytes a client gets
for a request are the same whether it was executed alone or coalesced into a
batch.  That is stricter than it sounds: the NumPy substrate's BLAS-backed
matrix multiplications select kernels by operand shape, so a dense layer
evaluated at batch width 1 can differ from the same row inside a width-8
batch by a few ulps.  This module therefore pins one *canonical execution*
per request kind and family — the repository's batched inference engines,
evaluated identically whether a flush holds one request or many:

* **classify** — for GAP-headed architectures, one batched graph-free
  ``features()`` forward (whose per-row bits do not depend on batch width for
  the served architectures — verified per artifact by
  :func:`probe_batch_parity`), the per-row global average, and an ``einsum``
  dense head (``einsum`` contracts each row independently at every width,
  unlike BLAS ``matmul``; it differs from :meth:`BaseClassifier.logits` by
  BLAS kernel rounding only, ≤ 1e-10, pinned by tests).  Other architectures
  (the recurrent baselines, MTEX-CNN) are evaluated one instance at a time
  via :meth:`~repro.models.base.BaseClassifier.logits`.
* **explain / cam** — one :meth:`CAMExplainer.explain_batch` call, the
  repo's micro-batched CAM engine (one graph-free ``features()`` forward per
  flush).  Bit-identical across coalescing patterns; agrees with the
  per-instance ``Explainer.explain`` graph path to float round-off (≤ 1e-10).
* **explain / dcam** — each request carries its own permutation seed; the
  permutations are drawn up front and pushed through the cross-instance
  micro-batched pipeline (:meth:`DCAMExplainer.explain_batch` with explicit
  ``permutations``), whose forward passes run at the same micro-batch quantum
  as the per-request path — responses are bit-identical to
  ``Explainer.explain`` with the request's seeded generator.
* **explain / gradcam** — one :meth:`GradCAMExplainer.explain_batch` call:
  MTEX-grad's backward is an explicit VJP (:func:`repro.core.gradcam.
  mtex_vjp_maps`) whose forward runs under ``inference_mode`` and whose
  gradient kernels touch rows independently (einsum contractions, masks, the
  per-row col2im scatter) — no width-sensitive BLAS matmul anywhere, so a
  coalesced flush produces the same bytes as per-request execution (probed
  per artifact like the other families).

:func:`probe_batch_parity` verifies the classify/explain coalescing
invariance empirically on random instances at registration time; the
scheduler falls back to per-request execution for any artifact
(architecture × BLAS build) whose probe fails, trading throughput for
exactness instead of serving coalescing-dependent bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.input_transform import random_permutations
from ..explain.registry import get_explainer
from ..models.base import BaseClassifier
from ..nn import inference_mode

#: Instances per probe; every coalesced width from 2 up to this must agree
#: with width-1 execution bit for bit.
_PROBE_INSTANCES = 6
#: Micro-batch width used while probing (matches the serving default).
DEFAULT_PROBE_BATCH_SIZE = 32
#: Permutations per instance in the dCAM probe (kept small — the probe runs
#: at registration time, not per request).
_PROBE_K = 4


@dataclass
class ExplainOutput:
    """One explain result as assembled by the engine (pre-serialisation)."""

    heatmap: np.ndarray
    class_id: int
    family: str
    success_ratio: Optional[float] = None


@dataclass
class ClassifyOutput:
    """One classify result: raw logits plus the argmax prediction."""

    logits: np.ndarray
    predicted: int


def has_gap_head(model: BaseClassifier) -> bool:
    """Whether ``model`` exposes the shared GAP + dense head contract."""
    return bool(getattr(model, "fused_head", False)) and all(
        hasattr(model, attribute) for attribute in ("features", "gap", "classifier")
    )


def serve_logits(model: BaseClassifier, X: np.ndarray) -> np.ndarray:
    """Canonical width-invariant logits of a request batch ``(B, D, n)``.

    For GAP-headed models this agrees with :meth:`BaseClassifier.logits` to
    float round-off (≤ 1e-10; the dense head is contracted by ``einsum``
    instead of BLAS ``matmul`` so every row's bits are independent of the
    batch width).  Other architectures fall back to per-instance
    :meth:`~repro.models.base.BaseClassifier.logits`, which is trivially
    width-invariant.
    """
    X = np.asarray(X, dtype=getattr(model, "compute_dtype", np.float64))
    if not has_gap_head(model):
        return np.concatenate([model.logits(X[index : index + 1]) for index in range(len(X))])
    was_training = model.training
    try:
        model.eval()
        with inference_mode():
            features = model.features(model.prepare_input(X)).data
        # ascontiguousarray: einsum's SIMD accumulation is stride-sensitive,
        # so the head must see one layout at every batch width.  The conv
        # trunks all land contiguous NCHW; canonicalising makes the width
        # invariance a property of this function, not of the trunks.
        pooled = np.ascontiguousarray(
            features.mean(axis=tuple(range(2, features.ndim)))  # (B, F)
        )
        weight = np.ascontiguousarray(model.classifier.weight.data)  # (C, F)
        logits = np.einsum("bf,cf->bc", pooled, weight)
        bias = getattr(model.classifier, "bias", None)
        if bias is not None:
            logits = logits + bias.data
        return logits
    finally:
        if was_training:
            model.train()


def classify_outputs(model: BaseClassifier, X: np.ndarray) -> List[ClassifyOutput]:
    """Per-request classify outputs for a coalesced batch."""
    logits = serve_logits(model, X)
    return [
        ClassifyOutput(logits=logits[index], predicted=int(logits[index].argmax()))
        for index in range(len(logits))
    ]


def _cam_outputs(
    model: BaseClassifier, X: np.ndarray, class_ids: Sequence[int], batch_size: int
) -> List[ExplainOutput]:
    """CAM for a coalesced batch via the repo's ``explain_batch`` engine.

    One graph-free ``features()`` forward per micro-batch; each row's bits
    are independent of the batch width (probed per artifact), so a lone
    request and a coalesced one receive identical bytes.
    """
    explainer = get_explainer(model, batch_size=batch_size, keep_details=False)
    explanations = explainer.explain_batch(X, class_ids)
    return [
        ExplainOutput(heatmap=explanation.heatmap, class_id=explanation.class_id, family="cam")
        for explanation in explanations
    ]


def _gradcam_outputs(
    model: BaseClassifier, X: np.ndarray, class_ids: Sequence[int], batch_size: int
) -> List[ExplainOutput]:
    """MTEX-grad for a coalesced batch via the graph-free VJP batch engine.

    One ``inference_mode`` forward plus one explicit backward per micro-batch
    (:func:`repro.core.gradcam.mtex_vjp_maps`); every kernel is per-row
    independent, so the bytes match per-request execution at any coalescing
    width (probed per artifact).
    """
    explainer = get_explainer(model, batch_size=batch_size, keep_details=False)
    explanations = explainer.explain_batch(X, class_ids)
    return [
        ExplainOutput(
            heatmap=explanation.heatmap, class_id=explanation.class_id, family="gradcam"
        )
        for explanation in explanations
    ]


def draw_request_permutations(n_dimensions: int, k: int, seed: int) -> List[np.ndarray]:
    """The permutation sequence a dCAM request's ``(k, seed)`` denotes.

    Shared by the coalesced executor and the per-request reference: both
    paths explain with *these* permutations, which is what makes batched
    responses bit-identical to ``explain(series, class_id)`` with
    ``rng=np.random.default_rng(seed)``.
    """
    return random_permutations(n_dimensions, k, np.random.default_rng(seed))


def _dcam_outputs(
    model: BaseClassifier,
    X: np.ndarray,
    class_ids: Sequence[int],
    ks: Sequence[int],
    seeds: Sequence[int],
    batch_size: int,
    cache=None,
    model_hash: Optional[str] = None,
) -> List[ExplainOutput]:
    """dCAM for a coalesced batch of requests with per-request ``(k, seed)``."""
    permutations = [
        draw_request_permutations(X.shape[1], int(k), int(seed)) for k, seed in zip(ks, seeds)
    ]
    explainer = get_explainer(
        model, batch_size=batch_size, keep_details=False, cache=cache, model_hash=model_hash
    )
    explanations = explainer.explain_batch(X, class_ids, permutations=permutations)
    return [
        ExplainOutput(
            heatmap=explanation.heatmap,
            class_id=explanation.class_id,
            family="dcam",
            success_ratio=explanation.success_ratio,
        )
        for explanation in explanations
    ]


def explain_outputs(
    model: BaseClassifier,
    family: str,
    X: np.ndarray,
    class_ids: Sequence[int],
    ks: Sequence[int],
    seeds: Sequence[int],
    batch_size: int,
    cache=None,
    model_hash: Optional[str] = None,
) -> List[ExplainOutput]:
    """Dispatch a coalesced explain batch to its family executor."""
    X = np.asarray(X, dtype=getattr(model, "compute_dtype", np.float64))
    if family == "cam":
        return _cam_outputs(model, X, class_ids, batch_size)
    if family == "gradcam":
        return _gradcam_outputs(model, X, class_ids, batch_size)
    if family == "dcam":
        return _dcam_outputs(
            model, X, class_ids, ks, seeds, batch_size, cache=cache, model_hash=model_hash
        )
    # Internal invariant, not a client lookup failure (the HTTP layer maps
    # KeyError to 404): the family came from a registered artifact.
    raise RuntimeError(f"no serve executor for explainer family {family!r}")


def per_request_explain(
    model: BaseClassifier,
    family: str,
    series: np.ndarray,
    class_id: int,
    k: int,
    seed: int,
    batch_size: int,
    cache=None,
    model_hash: Optional[str] = None,
) -> ExplainOutput:
    """The single-request reference path (used for fallback and probing).

    One request through the same canonical execution a coalesced flush uses:
    the family batch engine at width 1.  For dCAM this equals
    :meth:`Explainer.explain` with the request's seeded permutation draw bit
    for bit; for CAM and grad-CAM it is the batch engine at width 1, which
    agrees with the per-instance recorded-graph paths to float round-off
    (≤ 1e-10).
    """
    series = np.asarray(series, dtype=getattr(model, "compute_dtype", np.float64))
    if family == "dcam":
        explainer = get_explainer(
            model, batch_size=batch_size, keep_details=False, cache=cache, model_hash=model_hash
        )
        permutations = draw_request_permutations(series.shape[0], int(k), int(seed))
        explanation = explainer.explain(series, int(class_id), permutations=permutations)
        return ExplainOutput(
            heatmap=explanation.heatmap,
            class_id=int(class_id),
            family=family,
            success_ratio=explanation.success_ratio,
        )
    return explain_outputs(
        model,
        family,
        series[None],
        [int(class_id)],
        [int(k)],
        [int(seed)],
        batch_size,
        cache=cache,
        model_hash=model_hash,
    )[0]


@dataclass
class ParityReport:
    """Result of :func:`probe_batch_parity` (stored in artifact metadata)."""

    classify: bool
    explain: Optional[bool]  # None when the model declares no explainer family

    def to_json(self) -> Dict[str, Optional[bool]]:
        return {"classify": self.classify, "explain": self.explain}


def probe_batch_parity(model: BaseClassifier, random_state: int = 0) -> ParityReport:
    """Empirically verify that coalesced execution is bit-exact for ``model``.

    Runs the canonical executors on a few random instances both coalesced and
    one request at a time and compares the bytes.  The result is recorded in
    the artifact metadata at registration; the scheduler only coalesces
    request kinds whose probe passed, so a width-sensitive architecture is
    served per-request (slower, never wrong).
    """
    rng = np.random.default_rng(random_state)
    X = rng.standard_normal((_PROBE_INSTANCES, model.n_dimensions, model.length))
    class_ids = [index % model.n_classes for index in range(_PROBE_INSTANCES)]

    singles = np.concatenate(
        [serve_logits(model, X[index : index + 1]) for index in range(len(X))]
    )
    classify_ok = True
    for width in range(2, _PROBE_INSTANCES + 1):
        batched = np.concatenate(
            [
                serve_logits(model, X[start : start + width])
                for start in range(0, _PROBE_INSTANCES, width)
            ]
        )
        if not np.array_equal(batched, singles):
            classify_ok = False
            break

    family = getattr(model, "explainer_family", None)
    if family is None:
        return ParityReport(classify=classify_ok, explain=None)

    ks = [_PROBE_K] * _PROBE_INSTANCES
    seeds = list(range(_PROBE_INSTANCES))
    references = [
        per_request_explain(
            model,
            family,
            X[index],
            class_ids[index],
            ks[index],
            seeds[index],
            batch_size=DEFAULT_PROBE_BATCH_SIZE,
        )
        for index in range(_PROBE_INSTANCES)
    ]
    explain_ok = True
    for width in range(2, _PROBE_INSTANCES + 1):
        coalesced = []
        for start in range(0, _PROBE_INSTANCES, width):
            stop = min(start + width, _PROBE_INSTANCES)
            coalesced.extend(
                explain_outputs(
                    model,
                    family,
                    X[start:stop],
                    class_ids[start:stop],
                    ks[start:stop],
                    seeds[start:stop],
                    batch_size=DEFAULT_PROBE_BATCH_SIZE,
                )
            )
        for output, reference in zip(coalesced, references):
            if not np.array_equal(output.heatmap, reference.heatmap):
                explain_ok = False
            elif output.success_ratio != reference.success_ratio:
                explain_ok = False
        if not explain_ok:
            break
    return ParityReport(classify=classify_ok, explain=explain_ok)
