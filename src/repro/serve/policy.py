"""Batching policies: how large a flush may grow.

The micro-batcher (:mod:`repro.serve.batcher`) is work-conserving: it
flushes as soon as a group holds a request, so a policy decides no wait,
only the flush size.  The batcher asks for it once per flush — the most
requests the *next* batch of one ``(model, kind)`` group may take — and
reports every executed flush back through :meth:`BatchPolicy.observe`.  A
policy therefore closes a feedback loop over exactly the two signals the
serving layer already measures (queue depth and per-flush latency); it never
touches request payloads, so **no policy can change response bytes** — the
engines of :mod:`repro.serve.engine` are coalescing-invariant and the parity
probe / per-request fallback sits below the policy layer.

Two implementations:

* :class:`StaticBatchPolicy` — the reference behaviour: a constant flush
  size.  Retained as the baseline the load benchmark
  (``benchmarks/bench_serve_load.py``) compares against.
* :class:`AdaptiveBatchPolicy` — feedback-driven (the Bao move: replace
  fixed heuristics with decisions driven by observed behaviour).  Per group
  it tracks an exponentially-weighted mean of queue depth and of per-flush
  latency — the depth weighted by per-request *cost* when the submitter
  reports one (dCAM explains pass their permutation count ``k``, so a short
  queue of heavy explains registers as the backlog it really is) — then
  walks the flush size up when a backlog persists (deep queue
  → bigger batches amortise per-flush overhead → higher goodput) and back
  down when the queue idles or flushes exceed a latency budget (→ bounded
  tail latency).  Both walks require ``hysteresis`` *consecutive* signals
  before stepping, so scheduler noise cannot flap the size, and every
  decision is clamped to hard bounds from :class:`~repro.serve.service.ServeConfig`.

Policy state is only read and mutated from the owning group's single worker
thread, so implementations need no internal locking (the per-group state
dict itself is guarded for concurrent first access).
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Optional

from ..obs import Telemetry


class BatchPolicy:
    """Decide the flush size per group; observe every executed flush."""

    def decision(self, group_key: Hashable) -> int:
        """The most requests the group's worker takes into its next flush."""
        raise NotImplementedError

    def observe(
        self,
        group_key: Hashable,
        batch_size: int,
        flush_seconds: float,
        queue_depth: int,
        batch_cost: Optional[float] = None,
        queue_cost: Optional[float] = None,
        queue_seconds: Optional[float] = None,
    ) -> None:
        """Feedback after a flush: its width, wall clock and the backlog left.

        ``batch_cost`` / ``queue_cost`` carry the summed request costs of the
        flushed batch and of the remaining backlog (e.g. dCAM permutation
        counts ``k``) when the submitter provided them; cost-aware policies
        may size flushes from them instead of raw request counts.
        ``queue_seconds`` is the batcher-visible queueing delay of the flush
        (how long its oldest request waited before execution started) —
        together with ``flush_seconds`` it approximates the end-to-end
        latency a client observed.
        """

    def describe(self) -> str:
        return type(self).__name__


class StaticBatchPolicy(BatchPolicy):
    """A constant flush size — the reference behaviour."""

    def __init__(self, max_batch_size: int = 8) -> None:
        self.max_batch_size = max(1, int(max_batch_size))

    def decision(self, group_key: Hashable) -> int:
        return self.max_batch_size

    def describe(self) -> str:
        return f"static(max_batch_size={self.max_batch_size})"


class _GroupState:
    """Per-(model, kind) feedback state of the adaptive policy."""

    __slots__ = (
        "batch_size",
        "depth_ewma",
        "latency_ewma",
        "queue_ewma",
        "cost_ewma",
        "grow_streak",
        "shrink_streak",
    )

    def __init__(self, batch_size: int) -> None:
        self.batch_size = batch_size
        self.depth_ewma = 0.0
        self.latency_ewma: Optional[float] = None
        self.queue_ewma = 0.0
        self.cost_ewma: Optional[float] = None
        self.grow_streak = 0
        self.shrink_streak = 0


class AdaptiveBatchPolicy(BatchPolicy):
    """Feedback-driven flush size with hysteresis and hard clamps.

    Parameters
    ----------
    min_batch_size, max_batch_size:
        Hard bounds of the flush size; the policy starts at
        ``initial_batch_size`` (clamped) and doubles / halves within them.
    latency_budget_ms:
        Soft ceiling on the smoothed per-flush wall clock.  Flushes slower
        than this shrink the batch even under backlog — the knob that keeps
        p99 bounded instead of letting goodput greed grow flushes without
        limit.  The same budget is also held against the smoothed
        *end-to-end* latency (batcher-visible queueing + flush): when
        queueing pushes it over budget while flushes themselves are fine,
        that is a **grow** signal — wider flushes drain the queue — so the
        width answers to what clients actually wait, not just flush wall
        clock.
    hysteresis:
        Consecutive same-direction signals required before the policy steps.
    ewma_alpha:
        Smoothing factor of the depth/latency averages (higher = twitchier).
    telemetry:
        Optional registry; the policy publishes its current flush size per
        group as gauge ``policy_batch_size[<model>/<kind>]`` and counts
        ``policy_grow_steps`` / ``policy_shrink_steps``.
    """

    def __init__(
        self,
        initial_batch_size: int = 8,
        min_batch_size: int = 1,
        max_batch_size: int = 24,
        latency_budget_ms: float = 250.0,
        hysteresis: int = 3,
        ewma_alpha: float = 0.3,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if min_batch_size < 1:
            raise ValueError(f"min_batch_size must be >= 1, got {min_batch_size}")
        if max_batch_size < min_batch_size:
            raise ValueError(
                f"max_batch_size {max_batch_size} below min_batch_size {min_batch_size}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.min_batch_size = int(min_batch_size)
        self.max_batch_size = int(max_batch_size)
        self.initial_batch_size = min(
            self.max_batch_size, max(self.min_batch_size, int(initial_batch_size))
        )
        self.latency_budget_s = max(0.0, float(latency_budget_ms)) / 1000.0
        self.hysteresis = max(1, int(hysteresis))
        self.ewma_alpha = float(ewma_alpha)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._states: Dict[Hashable, _GroupState] = {}
        self._states_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _state(self, group_key: Hashable) -> _GroupState:
        state = self._states.get(group_key)
        if state is None:
            with self._states_lock:
                state = self._states.setdefault(group_key, _GroupState(self.initial_batch_size))
        return state

    def decision(self, group_key: Hashable) -> int:
        return self._state(group_key).batch_size

    def observe(
        self,
        group_key: Hashable,
        batch_size: int,
        flush_seconds: float,
        queue_depth: int,
        batch_cost: Optional[float] = None,
        queue_cost: Optional[float] = None,
        queue_seconds: Optional[float] = None,
    ) -> None:
        state = self._state(group_key)
        alpha = self.ewma_alpha
        # Cost-aware depth: when the submitter reports per-request costs
        # (dCAM explains pass their permutation count ``k``), measure the
        # backlog in units of *average-cost requests* — four queued k=100
        # explains against a smoothed cost of 25 press as hard as sixteen
        # typical ones.  Uniform costs of 1.0 reduce this to the raw depth,
        # so count-only groups (classify) behave exactly as before.
        if batch_cost is not None and batch_size > 0:
            per_request_cost = float(batch_cost) / float(batch_size)
            if state.cost_ewma is None:
                state.cost_ewma = per_request_cost
            else:
                state.cost_ewma += alpha * (per_request_cost - state.cost_ewma)
        effective_depth = float(queue_depth)
        if queue_cost is not None and state.cost_ewma is not None and state.cost_ewma > 0.0:
            effective_depth = float(queue_cost) / state.cost_ewma
        state.depth_ewma += alpha * (effective_depth - state.depth_ewma)
        if state.latency_ewma is None:
            state.latency_ewma = float(flush_seconds)
        else:
            state.latency_ewma += alpha * (float(flush_seconds) - state.latency_ewma)
        if queue_seconds is not None:
            state.queue_ewma += alpha * (float(queue_seconds) - state.queue_ewma)

        # Two views of the latency budget.  *Flush* time over budget means
        # the batches themselves are too slow: shrink.  *End-to-end* time
        # (queueing + flush) over budget while flushes are fine means
        # requests are dying in the queue — the cure is wider flushes that
        # drain the backlog, so it counts as a grow signal (given there is a
        # backlog at all), never a shrink one.
        flush_over = (
            self.latency_budget_s > 0.0 and state.latency_ewma > self.latency_budget_s
        )
        e2e_over = (
            self.latency_budget_s > 0.0
            and state.latency_ewma + state.queue_ewma > self.latency_budget_s
        )
        # A backlog deeper than one full flush means the group is falling
        # behind at the current width; an (EWMA) backlog below half a flush
        # means the width is oversized for the offered load.
        backlogged = not flush_over and (
            state.depth_ewma >= float(state.batch_size)
            or (e2e_over and state.depth_ewma >= 1.0)
        )
        idle = flush_over or (
            state.depth_ewma < 0.5 * float(state.batch_size) and not e2e_over
        )

        state.grow_streak = state.grow_streak + 1 if backlogged else 0
        state.shrink_streak = state.shrink_streak + 1 if idle else 0

        changed = False
        if state.grow_streak >= self.hysteresis:
            state.grow_streak = 0
            grown = min(self.max_batch_size, state.batch_size * 2)
            if grown != state.batch_size:
                state.batch_size = grown
                self.telemetry.increment("policy_grow_steps")
                changed = True
        elif state.shrink_streak >= self.hysteresis:
            state.shrink_streak = 0
            shrunk = max(self.min_batch_size, state.batch_size // 2)
            if shrunk != state.batch_size:
                state.batch_size = shrunk
                self.telemetry.increment("policy_shrink_steps")
                changed = True
        if changed:
            self.telemetry.increment("policy_adjustments")
        self.telemetry.gauge(_gauge_name(group_key)).set(state.batch_size)

    def describe(self) -> str:
        return (
            f"adaptive(batch {self.min_batch_size}..{self.max_batch_size}, "
            f"latency budget {self.latency_budget_s * 1000.0:g}ms, "
            f"hysteresis {self.hysteresis})"
        )


def _gauge_name(group_key: Hashable) -> str:
    if isinstance(group_key, tuple):
        label = "/".join(str(part) for part in group_key)
    else:
        label = str(group_key)
    return f"policy_batch_size[{label}]"
