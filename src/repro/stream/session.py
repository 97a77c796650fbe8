"""Streaming classify-and-explain sessions over a live multivariate feed.

:class:`StreamSession` consumes samples one timestep (or block) at a time and
emits one :class:`StreamResult` — logits, predicted class and a CAM/dCAM
heatmap — per window, every ``hop`` samples once the first window has filled.
Two engines share the exact same emission semantics:

* ``engine="naive"`` — the oracle: every window is recomputed from scratch
  through the same code paths the offline pipeline uses
  (:func:`repro.core.compute_dcam` with session-fixed permutations, the
  CAM tensordot over full feature maps);
* ``engine="incremental"`` — the production path: every piece of state —
  the conv feature maps (:class:`~repro.stream.incremental.
  IncrementalTrunk`), ``M̄`` and the CAM heatmap — stores window column
  ``t`` at ring position ``(offset + t) mod W``, so a slide advances one
  offset and moves no column.  Per layer, one fused-kernel call recomputes
  the dirty columns, with layer 1's slab gathered straight from the raw ring
  buffer (through the permutation rows for dCAM); the ``M̄`` (or CAM) delta
  is one einsum and one gather over the same dirty ring positions.  What
  stays O(window) per hop is the GAP over the last map, dCAM's extraction
  over ``M̄`` and the heatmap's rotation into window order.

Parity: a cold start (first window, post-swap, post-cache-hit) runs at
offset 0 and is bitwise-identical to the naive engine per feature map and
heatmap; later hops agree to ≤ 1e-10 at float64 (BLAS accumulation depends
on the product's width and the GAP sums ring-ordered columns, so bits can
differ from full-width recomputation in the last ulps).  The float32 tier
inherits the documented ~1e-5 inference tolerance.
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

from ..core.dcam import _require_class, compute_dcam, draw_orders, extract_dcam, permutation_rows
# roll_cube_batch is unused here but stays bound: perfbench/layers.py wraps this module's name.
from ..core.input_transform import roll_cube_batch  # noqa: F401
from ..nn import inference_mode
from ..obs.tracing import span
from ..serve.cache import stream_window_key
from .config import StreamConfig
from .incremental import (IncrementalTrunk, UnsupportedArchitectureError, ring_read, ring_write,
                          supports_incremental, window_order)

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
        Optional :class:`~repro.obs.Telemetry` registry; each emission
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
        self._orders = draw_orders(1, model.n_dimensions, self.config.k, rng, None)[0]
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
            if self.config.explain_class is not None:
                _require_class(model, int(self.config.explain_class))
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
    def _lift(self, raw: np.ndarray) -> np.ndarray:
        """Layer 1's input for raw window columns ``(D, n)``.

        A d-architecture's layer 1 reads the series itself — row 0 of each
        permutation's ``C(T)`` cube, one row per permutation for dCAM; the
        other families read the lifted ``(1, D, 1, n)`` / ``(1, 1, D, n)``
        batch.
        """
        dtype = self.model.compute_dtype
        kind = getattr(self.model, "input_kind", "raw")
        if kind == "cube":
            rows = raw[self._orders] if self.family == "dcam" else raw[None]
            return rows.astype(dtype, copy=False)
        block = raw.astype(dtype, copy=False)
        return block[None, None, :, :] if kind == "channel" else block[None, :, None, :]

    def _compute_incremental(self) -> dict:
        width = self.window
        trunk = self._trunk
        stale_by = None if self._state_total is None else self._total - self._state_total
        if stale_by is None or stale_by >= width or not trunk.has_state:
            self.stats["cold_starts"] += 1
            features, (a, b) = trunk.reset(self._lift(self._ring.window()))
        else:
            # Cache hits leave state behind, so the gap can be any multiple
            # of hop; the trunk's offset advances by all of it.
            self.stats["incremental_hops"] += 1
            ring = self._ring
            features, (a, b) = trunk.slide(stale_by, ring._buf, ring._pos, self._lift)
        self._state_total = self._total

        # Head: the same GAP + dense arithmetic the Tensor path runs, over
        # ring-ordered columns (so it agrees with naive to round-off).
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
            heatmap = self._update_cam(features, class_id, a, b)
            return {"logits": logits, "predicted": predicted, "class_id": class_id,
                    "heatmap": heatmap, "success_ratio": None}
        dcam = self._update_dcam(features, class_id, a, b)
        predicted_all = logits_all.argmax(axis=1)
        n_correct = int((predicted_all == class_id).sum())
        return {"logits": logits, "predicted": predicted, "class_id": class_id,
                "heatmap": dcam, "success_ratio": n_correct / len(self._orders)}

    def _rebuild(self, state: Optional[np.ndarray], class_id: int, a: int, b: int) -> bool:
        """Rebuild, not delta-update, the CAM/``M̄``: none yet, a wholly
        recomputed last map, or a class flip (CAMs depend on the class)."""
        flipped = state is not None and class_id != self._last_class
        self.stats["cam_rebuilds"] += flipped
        self._last_class = class_id
        return state is None or a >= b or flipped

    def _update_cam(self, features: np.ndarray, class_id: int, a: int, b: int) -> np.ndarray:
        """Maintain the ring-layout CAM; return a fresh window-ordered copy."""
        weights = self.model.class_weights[class_id]
        feats = features[0]
        if feats.shape[-2] == 1 and getattr(self.model, "input_kind", "raw") == "raw":
            feats = feats[:, 0, :]  # un-lift the 1D trunk: (F, W)
        width, offset = feats.shape[-1], self._trunk.offset
        rebuild = self._rebuild(self._cam, class_id, a, b)
        columns = feats if rebuild else ring_read(feats, offset, b, width - b + a)
        cam = np.tensordot(weights, columns, axes=(0, 0))
        if rebuild:
            self._cam = cam
        else:
            ring_write(self._cam, offset, b, cam)
        return window_order(self._cam, offset)

    def _update_dcam(self, features: np.ndarray, class_id: int, a: int, b: int) -> np.ndarray:
        """Maintain the ring-layout ``M̄``, then extract dCAM in window order.

        CAMs depend on the explained class, so a class flip rebuilds ``M̄``
        from the ring feature maps; while the class holds, one einsum and one
        permutation-row gather redo the dirty columns ``[0, a) ∪ [b, W)``,
        one run of ring positions.  The merge stays float64, as offline.
        :func:`extract_dcam` reduces each column on its own, so rotating its
        ``(D, W)`` map equals extracting a window-ordered ``M̄`` bitwise.
        """
        k = len(self._orders)
        width, offset = self.window, self._trunk.offset
        weights = np.broadcast_to(
            self.model.class_weights[class_id], (k, features.shape[1])
        )
        rebuild = self._rebuild(self._m_bar, class_id, a, b)
        columns = features if rebuild else ring_read(features, offset, b, width - b + a)
        cams = np.einsum("bf,bfdn->bdn", weights, columns).astype(np.float64, copy=False)
        merged = cams[np.arange(k)[:, None, None], self._rows].sum(axis=0) / k
        if rebuild:
            self._m_bar = merged
        else:
            ring_write(self._m_bar, offset, b, merged)
        dcam, _averaged = extract_dcam(self._m_bar)
        return window_order(dcam, offset)
