"""The serving facade: cache → micro-batcher → engine, behind two methods.

:class:`ExplanationService` is the in-process API the HTTP layer, the CLI and
the benchmarks all talk to:

>>> service = ExplanationService(store)                      # doctest: +SKIP
>>> service.classify("dcnn-tiny", series).predicted          # doctest: +SKIP
>>> service.explain("dcnn-tiny", series, class_id=1).heatmap # doctest: +SKIP

A request first consults the content-addressed response cache (keyed on the
artifact's state hash plus everything in the request that determines the
bytes of the answer), then joins the dynamic micro-batcher, whose flushes run
the coalescing-invariant executors of :mod:`repro.serve.engine`.  Artifacts
whose registration-time parity probe failed for a request kind are executed
one request at a time inside the flush — exactness always wins over
throughput.  All counters (requests, batches, cache traffic, engine time)
accumulate in one shared :class:`~repro.obs.Telemetry` registry that
:meth:`metrics` (and the HTTP ``/metrics`` endpoint) snapshots.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..explain.base import DEFAULT_K
from ..obs.config import ObsConfig
from ..obs.tracing import Tracer, span
from ..obs import Telemetry
from . import engine
from .batcher import DEFAULT_MAX_BATCH_SIZE, MicroBatcher, group_key_of
from .cache import ExplanationCache, response_cache_key
from .store import ModelArtifact, ModelArtifactStore

#: Distinguishes "no timeout argument" from an explicit ``timeout=None``.
_UNSET = object()


@dataclass
class ServeConfig:
    """Knobs of one service instance."""

    #: Most requests one micro-batcher flush takes; 1 = serial per-request
    #: dispatch.  The batcher never waits for companions: a flush takes what
    #: is already queued, up to this size.  Response bytes do not depend on
    #: it.
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    #: Per-(model, kind) bound on in-flight requests (queued + executing).
    #: Submits over it shed with :class:`repro.serve.batcher.QueueFullError`
    #: (HTTP 429 + ``Retry-After``); ``None`` disables load-shedding.
    max_queue_depth: Optional[int] = 512
    #: Global bound on in-flight requests across every (model, kind) group;
    #: ``None`` (the default) disables it.  Priority-aware: cheap classify
    #: requests may fill the whole bound, expensive explain requests shed
    #: once the total reaches ``shed_watermark`` of it — under fleet-wide
    #: pressure ``/classify`` outlives ``/explain``.
    max_total_depth: Optional[int] = None
    #: Fraction of ``max_total_depth`` where explain (priority-0) submits
    #: start shedding.
    shed_watermark: float = 0.75
    #: Seconds :meth:`ExplanationService.close` waits for queued requests to
    #: drain before failing the remainder fast; ``None`` waits indefinitely.
    drain_timeout_s: Optional[float] = 30.0
    #: Micro-batch width of the underlying engines; for dCAM a cap, narrowed
    #: to an 8 MiB working-set budget at large D·n.  A speed knob that never
    #: changes response bytes.
    engine_batch_size: int = 32
    #: Default permutation count for dCAM explains that do not send ``k``.
    default_k: int = DEFAULT_K
    #: Largest accepted per-request ``k``: a request's permutation draw and
    #: forward work scale with ``k``, so an unbounded value would let one
    #: client stall the group's flush worker (the paper never exceeds 100).
    max_k: int = 4096
    #: Default permutation seed for explains that do not send ``seed``.
    default_seed: int = 0
    #: Re-verify the batch-parity probe on this host before coalescing.
    #: Parity is a property of architecture × BLAS build, so a report
    #: recorded at registration does not transfer between machines; the
    #: local probe (sub-second) runs once per artifact at first flush.
    reprobe_parity: bool = True
    #: Serving compute precision: "float64" (the reference — responses are
    #: bit-identical to offline evaluation) or "float32" (the opt-in fast
    #: tier — loaded models are cast once and every forward/VJP kernel runs
    #: in single precision; responses agree with float64 to documented
    #: tolerances and are cached under precision-qualified keys).  The parity
    #: probe runs against the cast model, so coalescing stays bit-exact
    #: within the chosen tier.
    precision: str = "float64"
    #: Observability knobs (trace sampling, span-ring size); metrics and
    #: latency histograms are always on.  Tracing is strictly out of band:
    #: response bytes and cache keys are identical at any sample rate.
    obs: ObsConfig = field(default_factory=ObsConfig)


@dataclass
class ClassifyResponse:
    """Logits (and derived prediction/probabilities) for one instance."""

    model: str
    logits: np.ndarray
    cached: bool = False

    @property
    def predicted(self) -> int:
        return int(self.logits.argmax())

    @property
    def probabilities(self) -> np.ndarray:
        shifted = self.logits - self.logits.max()
        exps = np.exp(shifted)
        return exps / exps.sum()


@dataclass
class ExplainResponse:
    """One explanation heatmap plus its request echo."""

    model: str
    family: str
    class_id: int
    heatmap: np.ndarray
    success_ratio: Optional[float] = None
    k: Optional[int] = None
    seed: Optional[int] = None
    cached: bool = False


@dataclass
class _ClassifyWork:
    instance: np.ndarray
    cache_key: str


@dataclass
class _ExplainWork:
    instance: np.ndarray
    class_id: int
    k: int
    seed: int
    cache_key: str


class ExplanationService:
    """Online classify/explain over a :class:`ModelArtifactStore`."""

    def __init__(
        self,
        store: ModelArtifactStore,
        *,
        cache: Optional[ExplanationCache] = None,
        telemetry: Optional[Telemetry] = None,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.store = store
        self.config = config or ServeConfig()
        if self.config.precision not in ("float64", "float32"):
            raise ValueError(f"unknown precision {self.config.precision!r}; "
                             "expected 'float64' or 'float32'")
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = Tracer(
            sample_rate=self.config.obs.trace_sample_rate,
            ring_size=self.config.obs.trace_ring_size,
            process=self.config.obs.process_label,
        )
        self.cache = cache if cache is not None else ExplanationCache(telemetry=self.telemetry)
        if self.cache.telemetry is not self.telemetry:
            # One registry for the whole service, whatever the caller built.
            self.cache.telemetry = self.telemetry
        remote = getattr(self.cache, "remote", None)
        if remote is not None and getattr(remote, "telemetry", None) is not self.telemetry:
            # Remote-tier traffic (hits/misses/errors/latency) belongs in the
            # same /metrics snapshot as the rest of the service.
            remote.telemetry = self.telemetry
        self._parity: Dict[str, engine.ParityReport] = {}
        self.batcher = MicroBatcher(
            self._execute_group,
            max_batch_size=self.config.max_batch_size,
            max_queue_depth=self.config.max_queue_depth,
            max_total_depth=self.config.max_total_depth,
            shed_watermark=self.config.shed_watermark,
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def models(self) -> List[Dict[str, Any]]:
        """Artifact records of every registered model."""
        return [self.store.artifact(name).to_json() for name in self.store.list_names()]

    def healthz(self) -> Dict[str, Any]:
        return {"status": "ok", "models": len(self.store.list_names())}

    def metrics(self) -> Dict[str, Any]:
        """The flat snapshot plus per-histogram percentile summaries."""
        payload: Dict[str, Any] = self.telemetry.snapshot()
        payload["histograms"] = self.telemetry.histogram_summaries()
        return payload

    def close(self, timeout: Any = _UNSET) -> None:
        """Drain the batcher and stop its workers.

        ``timeout`` defaults to the config's ``drain_timeout_s``; queued
        requests still unserved when it expires fail fast instead of
        hanging their callers.  Pass ``None`` to wait indefinitely.
        """
        if timeout is _UNSET:
            timeout = self.config.drain_timeout_s
        self.batcher.close(timeout=timeout)

    def __enter__(self) -> "ExplanationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def _model(self, name: str):
        """The live model for ``name``, cast to the serving precision.

        The store's warm-cached instance is cast in place exactly once (the
        cast is idempotent); do not share one store between services running
        at different precisions.
        """
        model = self.store.load(name)
        if self.config.precision == "float32" and model.compute_dtype != np.float32:
            model.astype(np.float32)
        return model

    def _serving_hash(self, artifact: ModelArtifact) -> str:
        """The artifact's state hash, qualified by the serving precision.

        float32 responses are legitimately different bytes from the float64
        reference, so they must never collide in the response or
        permutation-row caches.
        """
        if self.config.precision == "float32" and artifact.state_hash:
            return f"{artifact.state_hash}:float32"
        return artifact.state_hash

    def _check_instance(self, artifact: ModelArtifact, instance) -> np.ndarray:
        series = np.asarray(instance, dtype=np.float64)
        if series.shape != (artifact.n_dimensions, artifact.length):
            raise ValueError(
                f"instance must have shape ({artifact.n_dimensions}, "
                f"{artifact.length}) for model {artifact.name!r}, got {series.shape}"
            )
        # json.loads accepts NaN and Infinity; they would come back as a
        # partly-NaN heatmap (and a non-JSON NaN token) and be cached.
        if not np.isfinite(series).all():
            raise ValueError(
                f"instance for model {artifact.name!r} holds NaN or infinite values"
            )
        return series

    def classify(self, model_name: str, instance) -> ClassifyResponse:
        """Class logits for one ``(D, n)`` instance of ``model_name``."""
        self.telemetry.increment("requests_classify")
        artifact = self.store.artifact(model_name)
        series = self._check_instance(artifact, instance)
        key = response_cache_key(self._serving_hash(artifact), "classify", series, None, None, None)
        blob = self.cache.get(key)
        if blob is not None:
            return ClassifyResponse(model=model_name, logits=pickle.loads(blob), cached=True)
        work = _ClassifyWork(instance=series, cache_key=key)
        # Priority 1: under a global depth bound, classifies keep being
        # admitted after explains have started shedding.
        future = self.batcher.submit(group_key_of(model_name, "classify"), work, priority=1)
        return ClassifyResponse(model=model_name, logits=future.result())

    def explain(
        self,
        model_name: str,
        instance,
        class_id: Optional[int] = None,
        k: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> ExplainResponse:
        """Explanation heatmap for one ``(D, n)`` instance of ``model_name``.

        ``class_id`` defaults to the model's prediction (via
        :meth:`classify`, so the lookup itself batches and caches).  ``k`` and
        ``seed`` parameterise the dCAM permutation draw and are ignored by
        the other families; two requests differing only in ignored knobs
        share one cache entry.
        """
        self.telemetry.increment("requests_explain")
        artifact = self.store.artifact(model_name)
        family = artifact.explainer_family
        if family is None:
            raise KeyError(
                f"model {model_name!r} ({artifact.model_name}) declares no "
                "explainer family and cannot be explained"
            )
        series = self._check_instance(artifact, instance)
        if class_id is None:
            class_id = self.classify(model_name, series).predicted
        class_id = int(class_id)
        if not 0 <= class_id < artifact.n_classes:
            raise ValueError(
                f"class_id {class_id} out of range for {artifact.n_classes} classes"
            )
        uses_permutations = family == "dcam"
        k = int(k) if k is not None else self.config.default_k
        if uses_permutations and not 1 <= k <= self.config.max_k:
            raise ValueError(
                f"k must be between 1 and {self.config.max_k}, got {k}"
            )
        seed = int(seed) if seed is not None else self.config.default_seed
        key = response_cache_key(
            self._serving_hash(artifact),
            "explain",
            series,
            class_id,
            k if uses_permutations else None,
            seed if uses_permutations else None,
        )
        blob = self.cache.get(key)
        if blob is not None:
            heatmap, success_ratio = pickle.loads(blob)
            return ExplainResponse(
                model=model_name,
                family=family,
                class_id=class_id,
                heatmap=heatmap,
                success_ratio=success_ratio,
                k=k if uses_permutations else None,
                seed=seed if uses_permutations else None,
                cached=True,
            )
        work = _ExplainWork(instance=series, class_id=class_id, k=k, seed=seed, cache_key=key)
        future = self.batcher.submit(group_key_of(model_name, "explain"), work)
        output: engine.ExplainOutput = future.result()
        return ExplainResponse(
            model=model_name,
            family=family,
            class_id=class_id,
            heatmap=output.heatmap,
            success_ratio=output.success_ratio,
            k=k if uses_permutations else None,
            seed=seed if uses_permutations else None,
        )

    # ------------------------------------------------------------------
    # Flush execution (worker thread)
    # ------------------------------------------------------------------
    def parity(self, model_name: str) -> engine.ParityReport:
        """The artifact's batch-parity report, verified on *this* host.

        Parity is a property of the architecture × BLAS build, so the report
        recorded at registration is advisory only: unless
        ``config.reprobe_parity`` is off, the probe re-runs locally once per
        artifact (at its first flush) and wins over the recorded value — a
        store exported on a machine whose kernels batch exactly must not
        make a different serving host coalesce unverified.
        """
        report = self._parity.get(model_name)
        if report is not None:
            return report
        artifact = self.store.artifact(model_name)
        recorded = artifact.metadata.get("batch_parity")
        if self.config.reprobe_parity or recorded is None:
            report = engine.probe_batch_parity(self._model(model_name))
            if recorded is not None and report.to_json() != recorded:
                self.telemetry.increment("parity_probe_mismatches")
        else:
            report = engine.ParityReport(
                classify=bool(recorded.get("classify")),
                explain=recorded.get("explain"),
            )
        self._parity[model_name] = report
        return report

    def _execute_group(self, group_key, requests: List[Any]) -> List[Any]:
        model_name, kind = group_key
        model = self._model(model_name)
        parity = self.parity(model_name)
        with self.telemetry.timer("engine"):
            with span("engine", model=model_name, kind=kind, width=len(requests)):
                if kind == "classify":
                    return self._execute_classify(model_name, model, requests, parity.classify)
                return self._execute_explain(model_name, model, requests, bool(parity.explain))

    def _execute_classify(
        self, model_name: str, model, requests: List[_ClassifyWork], coalesce: bool
    ) -> List[np.ndarray]:
        if coalesce or len(requests) == 1:
            X = np.stack([work.instance for work in requests])
            outputs = engine.classify_outputs(model, X)
        else:
            self.telemetry.increment("coalesce_fallbacks")
            outputs = [engine.classify_outputs(model, work.instance[None])[0] for work in requests]
        results = []
        for work, output in zip(requests, outputs):
            self.cache.put(
                work.cache_key, pickle.dumps(output.logits, protocol=pickle.HIGHEST_PROTOCOL)
            )
            results.append(output.logits)
        return results

    def _execute_explain(
        self, model_name: str, model, requests: List[_ExplainWork], coalesce: bool
    ) -> List[engine.ExplainOutput]:
        artifact = self.store.artifact(model_name)
        family = artifact.explainer_family
        if coalesce or len(requests) == 1:
            X = np.stack([work.instance for work in requests])
            outputs = engine.explain_outputs(
                model,
                family,
                X,
                [work.class_id for work in requests],
                [work.k for work in requests],
                [work.seed for work in requests],
                batch_size=self.config.engine_batch_size,
                cache=self.cache,
                model_hash=self._serving_hash(artifact) or None,
            )
        else:
            self.telemetry.increment("coalesce_fallbacks")
            outputs = [
                engine.per_request_explain(
                    model,
                    family,
                    work.instance,
                    work.class_id,
                    work.k,
                    work.seed,
                    batch_size=self.config.engine_batch_size,
                    cache=self.cache,
                    model_hash=self._serving_hash(artifact) or None,
                )
                for work in requests
            ]
        for work, output in zip(requests, outputs):
            self.cache.put(
                work.cache_key,
                pickle.dumps(
                    (output.heatmap, output.success_ratio), protocol=pickle.HIGHEST_PROTOCOL
                ),
            )
        return outputs
