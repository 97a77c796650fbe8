"""Streaming classify-and-explain sessions over a live multivariate feed.

:class:`StreamSession` consumes samples one timestep (or block) at a time and
emits one :class:`StreamResult` — logits, predicted class and a CAM/dCAM
heatmap — per window, every ``hop`` samples once the first window has filled.
Two engines share the exact same emission semantics:

* ``engine="naive"`` — the oracle: every window is recomputed from scratch
  through the same code paths the offline pipeline uses
  (:func:`repro.core.compute_dcam` with session-fixed permutations, the
  CAM tensordot over full feature maps);
* ``engine="incremental"`` — the production path: a ring buffer holds the
  raw window, the ``C(T)`` cube stack is rolled column-wise
  (:func:`repro.core.roll_cube_batch`), conv feature maps are shifted and
  only dirty columns recomputed (:class:`~repro.stream.incremental.
  IncrementalTrunk`), and the permutation CAMs / ``M̄`` are delta-updated
  over the same dirty region.  Each hop costs O(changed region) instead of
  O(window).

Parity: a cold start (first window, post-swap, post-cache-hit) is
bitwise-identical to the naive engine per feature map; steady-state hops
agree to ≤ 1e-10 at float64 (einsum/BLAS accumulation is layout-sensitive,
so shifted columns can differ from full-width recomputation in the last
ulps).  The float32 tier inherits the documented ~1e-5 inference tolerance.
``tests/test_stream.py`` pins both; ``benchmarks/bench_stream_window.py``
asserts parity before timing a single hop.

Caching: pass a :class:`repro.serve.ExplanationCache` and every emission is
keyed by :func:`repro.serve.cache.stream_window_key` — the serving model-state
hash plus the exact window bytes — so replayed streams and fleets of hosts
watching one feed share warm results.  A cache hit skips computation, which
leaves incremental state behind the stream; the session tracks the lag and
the next miss either slides by the accumulated gap or cold-starts.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.dcam import _stack_orders, compute_dcam, extract_dcam, permutation_rows
from ..core.input_transform import build_cube_batch, random_permutations, roll_cube_batch
from ..nn import inference_mode
from ..obs.tracing import span
from ..serve.cache import stream_window_key
from .config import StreamConfig
from .incremental import IncrementalTrunk, UnsupportedArchitectureError, supports_incremental

__all__ = ["StreamResult", "StreamSession"]

#: Explanation families the streaming layer knows how to emit.
_SUPPORTED_FAMILIES = ("cam", "dcam")


@dataclass
class StreamResult:
    """One emitted window: classification plus (optionally) an explanation.

    Attributes
    ----------
    index:
        Emission counter, 0-based.
    t_start, t_end:
        The window's position in the stream: samples ``[t_start, t_end)``
        of everything pushed so far.
    logits:
        Raw classifier scores for the window, shape ``(n_classes,)``.
    predicted:
        ``argmax`` of ``logits``.
    class_id:
        The class the heatmap explains (``predicted`` unless
        ``StreamConfig.explain_class`` pinned one); ``None`` when the session
        classifies only.
    heatmap:
        The explanation — ``(D, n)`` for dCAM and the c-variants' CAM,
        ``(n,)`` for the univariate CNN CAM; ``None`` when classifying only.
    success_ratio:
        dCAM's label-free quality proxy ``n_g / k``; ``None`` for CAM.
    engine:
        Which engine produced the emission (after any fallback).
    cached:
        True when the emission was answered from the explanation cache.
    """

    index: int
    t_start: int
    t_end: int
    logits: np.ndarray
    predicted: int
    class_id: Optional[int]
    heatmap: Optional[np.ndarray]
    success_ratio: Optional[float]
    engine: str
    cached: bool = False


class _RingWindow:
    """Fixed-capacity ring over the last ``capacity`` stream columns."""

    def __init__(self, n_dimensions: int, capacity: int) -> None:
        self._buf = np.empty((n_dimensions, capacity), dtype=np.float64)
        self._pos = 0  # next write column
        self._count = 0
        self.capacity = capacity

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def push(self, block: np.ndarray) -> None:
        """Append ``(D, m)`` columns, overwriting the oldest on wrap."""
        m = block.shape[1]
        if m >= self.capacity:
            self._buf[...] = block[:, -self.capacity :]
            self._pos = 0
            self._count = self.capacity
            return
        first = min(m, self.capacity - self._pos)
        self._buf[:, self._pos : self._pos + first] = block[:, :first]
        if m > first:
            self._buf[:, : m - first] = block[:, first:]
        self._pos = (self._pos + m) % self.capacity
        self._count = min(self.capacity, self._count + m)

    def window(self) -> np.ndarray:
        """The full window, oldest column first (contiguous copy)."""
        if not self.full:
            raise RuntimeError("ring window is not full yet")
        if self._pos == 0:
            return self._buf.copy()
        return np.concatenate(
            (self._buf[:, self._pos :], self._buf[:, : self._pos]), axis=1
        )

    def tail(self, m: int) -> np.ndarray:
        """The newest ``m`` columns (contiguous copy)."""
        if m > self._count:
            raise ValueError(f"only {self._count} columns buffered, asked for {m}")
        lo = (self._pos - m) % self.capacity
        if lo + m <= self.capacity:
            return self._buf[:, lo : lo + m].copy()
        return np.concatenate((self._buf[:, lo:], self._buf[:, : self._pos]), axis=1)


class StreamSession:
    """Push samples, get per-window classifications and explanations.

    Parameters
    ----------
    model:
        A trained classifier.  dCAM streaming needs a d-architecture
        (``explainer_family == "dcam"``); the plain/c-variants stream CAM.
    config:
        A :class:`~repro.stream.StreamConfig` (defaults throughout when
        omitted).
    cache:
        Optional :class:`repro.serve.ExplanationCache`; emissions are stored
        under window-state-qualified keys and replays hit.
    state_hash:
        Optional precomputed model-state hash for the cache keys (e.g. the
        artifact store's); derived from the weights when omitted.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` registry; each emission
        records its compute latency into the ``stream_hop`` timer/histogram
        (cache hits excluded — they measure the cache, not the engine).
        Omitted: only the session's own ``stats`` counters are kept.
    """

    def __init__(self, model, config: Optional[StreamConfig] = None, *,
                 cache=None, state_hash: Optional[str] = None,
                 telemetry=None) -> None:
        self.config = config if config is not None else StreamConfig()
        self.config.validate()
        self.telemetry = telemetry
        window = self.config.window if self.config.window is not None else model.length
        if window != model.length:
            raise ValueError(
                f"window ({window}) must equal the model's trained input length "
                f"({model.length}); the architectures are fixed-length"
            )
        self.window = int(window)
        self.cache = cache
        self._ring = _RingWindow(model.n_dimensions, self.window)
        self._total = 0  # samples consumed so far
        self._next_emission = self.window
        self._emitted = 0
        #: Counters exposed for tests/telemetry: emissions, cache hits, cold
        #: starts vs incremental hops, and full CAM-stack rebuilds (class
        #: changes).
        self.stats: Dict[str, int] = {
            "emissions": 0,
            "cache_hits": 0,
            "cold_starts": 0,
            "incremental_hops": 0,
            "cam_rebuilds": 0,
        }
        # dCAM permutations are drawn once per session and shared by every
        # window (and both engines), so incremental per-permutation state
        # stays valid across hops.  The identity permutation comes first;
        # its row doubles as the window's own classification.
        rng = np.random.default_rng(self.config.seed)
        self._orders = _stack_orders(
            random_permutations(model.n_dimensions, self.config.k, rng),
            model.n_dimensions,
        )
        self._rows = permutation_rows(self._orders)
        self._install_model(model, state_hash)

    # ------------------------------------------------------------------
    # Model installation / mid-stream swap
    # ------------------------------------------------------------------
    def _install_model(self, model, state_hash: Optional[str]) -> None:
        if model.n_dimensions != self._ring._buf.shape[0]:
            raise ValueError(
                f"model expects {model.n_dimensions} dimensions, stream has "
                f"{self._ring._buf.shape[0]}"
            )
        if model.length != self.window:
            raise ValueError(
                f"model expects length {model.length}, session window is {self.window}"
            )
        if self.config.explain == "none":
            family = None
        else:
            family = getattr(model, "explainer_family", None)
            if family not in _SUPPORTED_FAMILIES:
                raise ValueError(
                    f"streaming explains the {_SUPPORTED_FAMILIES} families; "
                    f"{type(model).__name__} declares {family!r} — use "
                    f"StreamConfig(explain='none') to classify only"
                )
        model.eval()
        self.model = model
        self.family = family
        self._state_hash: Optional[str] = state_hash
        self.engine = self.config.engine
        self._trunk: Optional[IncrementalTrunk] = None
        if self.engine == "incremental":
            if supports_incremental(model):
                self._trunk = IncrementalTrunk(model)
            elif self.config.on_unsupported == "error":
                # Re-raise the specific reason.
                from .incremental import _validate_trunk

                _validate_trunk(model)
            else:
                self.engine = "naive"
        self._invalidate_state()

    def set_model(self, model, state_hash: Optional[str] = None) -> None:
        """Swap the served model mid-stream.

        The ring buffer and emission schedule carry over; all incremental
        state is invalidated, so the next emission cold-starts against the
        new weights.  The new model must share the stream's dimension count
        and window length.
        """
        self._install_model(model, state_hash)

    def _invalidate_state(self) -> None:
        self._state_total: Optional[int] = None  # self._total at last compute
        self._inputs: Optional[np.ndarray] = None
        self._cams: Optional[np.ndarray] = None
        self._m_bar: Optional[np.ndarray] = None
        self._cam: Optional[np.ndarray] = None
        self._last_class: Optional[int] = None
        if self._trunk is not None:
            self._trunk.invalidate()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def push(self, samples) -> List[StreamResult]:
        """Consume new samples; return the windows they completed (often []).

        ``samples`` is one timestep ``(D,)`` or a block ``(D, m)``.  A block
        crossing several emission points yields several results, identical
        to pushing one timestep at a time.  A block holding NaN or infinite
        values raises :class:`ValueError` and consumes nothing.
        """
        block = np.asarray(samples, dtype=np.float64)
        if block.ndim == 1:
            block = block[:, None]
        if block.ndim != 2 or block.shape[0] != self._ring._buf.shape[0]:
            raise ValueError(
                f"samples must be (D,) or (D, m) with D={self._ring._buf.shape[0]}, "
                f"got shape {np.asarray(samples).shape}"
            )
        # Checked before the ring is touched: a rejected push leaves the
        # window, and so every later emission, as it was.
        if not np.isfinite(block).all():
            raise ValueError("samples hold NaN or infinite values")
        results: List[StreamResult] = []
        offset, m = 0, block.shape[1]
        while offset < m:
            take = min(self._next_emission - self._total, m - offset)
            self._ring.push(block[:, offset : offset + take])
            self._total += take
            offset += take
            if self._total == self._next_emission:
                results.append(self._emit())
                self._next_emission += self.config.hop
        return results

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _qualified_hash(self) -> str:
        if self._state_hash is None:
            from ..nn.serialization import state_hash

            self._state_hash = state_hash(self.model)
        if self.model.compute_dtype == np.float32:
            return f"{self._state_hash}:float32"
        return self._state_hash

    def _emit(self) -> StreamResult:
        self.stats["emissions"] += 1
        index, t_end = self._emitted, self._total
        self._emitted += 1
        key = None
        if self.cache is not None:
            window = self._ring.window()
            key = stream_window_key(
                self._qualified_hash(), window, self.family or "none",
                self.config.explain_class,
                self.config.k if self.family == "dcam" else None,
                self.config.seed if self.family == "dcam" else None,
            )
            blob = self.cache.get(key)
            if blob is not None:
                self.stats["cache_hits"] += 1
                payload = pickle.loads(blob)
                return self._result(index, t_end, payload, cached=True)
        started = time.perf_counter()
        with span("stream.hop", index=index, engine=self.engine):
            if self.engine == "incremental":
                payload = self._compute_incremental()
            else:
                payload = self._compute_naive()
        if self.telemetry is not None:
            self.telemetry.timer("stream_hop").add(time.perf_counter() - started)
        if key is not None:
            self.cache.put(key, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        return self._result(index, t_end, payload, cached=False)

    def _result(self, index: int, t_end: int, payload: dict, cached: bool) -> StreamResult:
        return StreamResult(
            index=index,
            t_start=t_end - self.window,
            t_end=t_end,
            logits=payload["logits"],
            predicted=payload["predicted"],
            class_id=payload["class_id"],
            heatmap=payload["heatmap"],
            success_ratio=payload["success_ratio"],
            engine=self.engine,
            cached=cached,
        )

    def _explained_class(self, predicted: int) -> int:
        if self.config.explain_class is not None:
            return int(self.config.explain_class)
        return int(predicted)

    # ------------------------------------------------------------------
    # Naive engine (the oracle)
    # ------------------------------------------------------------------
    def _compute_naive(self) -> dict:
        window = self._ring.window()
        model = self.model
        with inference_mode():
            prepared = model.prepare_input(window[None])
            if self.family is None or self.family == "dcam":
                logits = model.forward(prepared).data[0]
                features = None
            else:
                features = model.features(prepared)
                logits = model.classifier(model.gap(features)).data[0]
        predicted = int(logits.argmax())
        if self.family is None:
            return {"logits": logits, "predicted": predicted, "class_id": None,
                    "heatmap": None, "success_ratio": None}
        class_id = self._explained_class(predicted)
        if self.family == "cam":
            heatmap = np.tensordot(
                model.class_weights[class_id], features.data[0], axes=(0, 0)
            )
            return {"logits": logits, "predicted": predicted, "class_id": class_id,
                    "heatmap": heatmap, "success_ratio": None}
        result = compute_dcam(
            model, window, class_id,
            permutations=self._orders,
            use_only_correct=False,
            batch_size=self.config.batch_size,
        )
        return {"logits": logits, "predicted": predicted, "class_id": class_id,
                "heatmap": result.dcam, "success_ratio": result.success_ratio}

    # ------------------------------------------------------------------
    # Incremental engine
    # ------------------------------------------------------------------
    def _prepared_inputs(self, window: np.ndarray) -> np.ndarray:
        """The model-ready 4D input batch for the current window."""
        dtype = self.model.compute_dtype
        kind = getattr(self.model, "input_kind", "raw")
        if self.family == "dcam":
            permuted = window[self._orders].astype(dtype)
            return build_cube_batch(permuted)  # (k, D, D, W)
        if kind == "channel":
            return window.astype(dtype)[None, None, :, :]  # (1, 1, D, W)
        return window.astype(dtype)[None, :, None, :]  # (1, D, 1, W) lifted 1D

    def _slide_inputs(self, tail: np.ndarray) -> None:
        """Roll the owned input batch forward by ``tail.shape[-1]`` columns."""
        dtype = self.model.compute_dtype
        s = tail.shape[-1]
        if self.family == "dcam":
            roll_cube_batch(self._inputs, tail[self._orders].astype(dtype))
            return
        kind = getattr(self.model, "input_kind", "raw")
        block = tail.astype(dtype)
        lifted = block[None, None, :, :] if kind == "channel" else block[None, :, None, :]
        self._inputs[..., :-s] = self._inputs[..., s:]
        self._inputs[..., -s:] = lifted

    def _compute_incremental(self) -> dict:
        width = self.window
        stale_by = None if self._state_total is None else self._total - self._state_total
        if stale_by is None or stale_by >= width or self._inputs is None:
            self.stats["cold_starts"] += 1
            slide = 0  # a >= b below: the CAM/M̄ caches rebuild, never shift
            self._inputs = self._prepared_inputs(self._ring.window())
            features, (a, b) = self._trunk.reset(self._inputs)
        else:
            # Cache hits leave state behind, so the gap can be any multiple
            # of hop: everything downstream must shift by the same amount.
            self.stats["incremental_hops"] += 1
            slide = stale_by
            self._slide_inputs(self._ring.tail(stale_by))
            features, (a, b) = self._trunk.slide(self._inputs, stale_by)
        self._state_total = self._total

        # Head: the same GAP + dense arithmetic the Tensor path runs.
        model = self.model
        pooled = features.mean(axis=(2, 3))  # (B, F)
        logits_all = pooled @ model.classifier.weight.data.T + model.classifier.bias.data
        logits = logits_all[0]  # identity permutation == the window itself
        predicted = int(logits.argmax())
        if self.family is None:
            return {"logits": logits, "predicted": predicted, "class_id": None,
                    "heatmap": None, "success_ratio": None}
        class_id = self._explained_class(predicted)
        if self.family == "cam":
            heatmap = self._update_cam(features, class_id, a, b, slide)
            return {"logits": logits, "predicted": predicted, "class_id": class_id,
                    "heatmap": heatmap.copy(), "success_ratio": None}
        dcam = self._update_dcam(features, class_id, a, b, slide)
        predicted_all = logits_all.argmax(axis=1)
        n_correct = int((predicted_all == class_id).sum())
        return {"logits": logits, "predicted": predicted, "class_id": class_id,
                "heatmap": dcam, "success_ratio": n_correct / len(self._orders)}

    def _update_cam(
        self, features: np.ndarray, class_id: int, a: int, b: int, slide: int
    ) -> np.ndarray:
        """Maintain the CAM heatmap, delta-updating when the class held.

        ``slide`` is how far the trunk actually shifted this emission — the
        accumulated gap after cache hits, not necessarily ``config.hop``.
        """
        weights = self.model.class_weights[class_id]
        feats = features[0]
        if feats.shape[-2] == 1 and getattr(self.model, "input_kind", "raw") == "raw":
            feats = feats[:, 0, :]  # un-lift the 1D trunk: (F, W)
        width = feats.shape[-1]
        rebuild = (
            self._cam is None or a >= b or class_id != self._last_class
        )
        if rebuild:
            if self._cam is not None and class_id != self._last_class:
                self.stats["cam_rebuilds"] += 1
            self._cam = np.tensordot(weights, feats, axes=(0, 0))
        else:
            self._cam[..., : width - slide] = self._cam[..., slide:]
            for lo, hi in ((0, a), (b, width)):
                if lo < hi:
                    self._cam[..., lo:hi] = np.tensordot(
                        weights, feats[..., lo:hi], axes=(0, 0)
                    )
        self._last_class = class_id
        return self._cam

    def _update_dcam(
        self, features: np.ndarray, class_id: int, a: int, b: int, slide: int
    ) -> np.ndarray:
        """Maintain the permutation CAM stack and ``M̄``, then extract dCAM.

        CAMs depend on the explained class, so a class flip forces a full
        CAM/``M̄`` rebuild from the (still incremental) feature maps; while
        the class holds, only the dirty columns ``[0, a) ∪ [b, W)`` are
        re-gathered.  ``slide`` is the trunk's actual shift this emission
        (the accumulated gap after cache hits, not necessarily
        ``config.hop``).  The ``(k, D, D, dirty)`` merge scratch is small at
        streaming scale, so no chunking (cf. ``_merge_cam_stack``).
        """
        k, n_dimensions = self._orders.shape
        width = self.window
        weights = np.broadcast_to(
            self.model.class_weights[class_id], (k, features.shape[1])
        )
        gather = np.arange(k)[:, None, None]
        if self._cams is None or a >= b or class_id != self._last_class:
            if self._cams is not None and class_id != self._last_class:
                self.stats["cam_rebuilds"] += 1
            if self._cams is None:
                self._cams = np.empty((k, n_dimensions, width))
                self._m_bar = np.empty((n_dimensions, n_dimensions, width))
            self._cams[...] = np.einsum("bf,bfdn->bdn", weights, features)
            self._m_bar[...] = self._cams[gather, self._rows].sum(axis=0) / k
        else:
            self._cams[..., : width - slide] = self._cams[..., slide:]
            self._m_bar[..., : width - slide] = self._m_bar[..., slide:]
            for lo, hi in ((0, a), (b, width)):
                if lo < hi:
                    self._cams[..., lo:hi] = np.einsum(
                        "bf,bfdn->bdn", weights, features[..., lo:hi]
                    )
                    self._m_bar[..., lo:hi] = (
                        self._cams[..., lo:hi][gather, self._rows].sum(axis=0) / k
                    )
        self._last_class = class_id
        dcam, _averaged = extract_dcam(self._m_bar)
        return dcam
