"""The ``repro.run`` facade: evaluate an :class:`ExperimentSpec`.

``run(spec)`` is the single entry point every experiment driver goes
through.  It resolves cached units, fans the misses out through the chosen
executor (serial by default, a process pool via
:class:`~repro.runtime.executor.ParallelExecutor`) and returns results in
unit order, so a driver is just a spec-builder plus a result-assembler.

Long sweeps can observe progress through two hooks: a shared
:class:`~repro.obs.Telemetry` registry (unit counters plus the total
execution wall clock — the same primitive the serving layer's ``/metrics``
endpoint renders) and an ``on_unit`` callback fired as every unit resolves,
cached or executed.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Iterator, List, Optional, Tuple

from ..obs import ProgressHook, Telemetry
from .cache import ResultCache
from .executor import Executor, SerialExecutor
from .registry import execute_payload
from .spec import ExperimentSpec

#: Ambient (telemetry, on_unit) hooks installed by :func:`progress_hooks`.
_AMBIENT_HOOKS: "contextvars.ContextVar[Tuple[Optional[Telemetry], Optional[ProgressHook]]]" = (
    contextvars.ContextVar("repro_run_hooks", default=(None, None))
)


@contextlib.contextmanager
def progress_hooks(
    telemetry: Optional[Telemetry] = None,
    on_unit: Optional[ProgressHook] = None,
) -> Iterator[None]:
    """Install ambient hooks picked up by every :func:`run` in the block.

    The experiment drivers call :func:`run` internally without exposing its
    hook parameters; wrapping a driver call in this context (as the CLI's
    ``--progress`` flag does) observes their sweeps without widening every
    driver signature.  Explicit ``run(..., telemetry=..., on_unit=...)``
    arguments win over the ambient hooks.
    """
    token = _AMBIENT_HOOKS.set((telemetry, on_unit))
    try:
        yield
    finally:
        _AMBIENT_HOOKS.reset(token)


def run(
    spec: ExperimentSpec,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[Telemetry] = None,
    on_unit: Optional[ProgressHook] = None,
) -> List[Any]:
    """Evaluate every unit of ``spec`` and return results in unit order.

    Parameters
    ----------
    spec:
        The declarative description of the experiment (scale + work units).
    executor:
        Where units are evaluated; defaults to :class:`SerialExecutor`.
        Units never share state, so any executor yields identical numbers.
    cache:
        Optional content-addressed :class:`ResultCache`.  Hits skip
        execution entirely; misses are stored *as they complete* (via the
        executor's ordered ``imap`` when it provides one), so an interrupted
        or partially-failed sweep keeps every finished unit's result.
    telemetry:
        Optional shared registry; the run counts ``units_total`` /
        ``units_cached`` / ``units_executed`` and accumulates the execution
        wall clock under the ``run_execute`` timer.
    on_unit:
        Optional ``on_unit(index, total, unit, source)`` callback fired once
        per unit as its result lands, with ``source`` being ``"cache"`` or
        ``"executed"``.  Runs in the calling process (also under a parallel
        executor), so it may print or update UI state freely.
    """
    executor = executor or SerialExecutor()
    ambient_telemetry, ambient_on_unit = _AMBIENT_HOOKS.get()
    if telemetry is None:
        telemetry = ambient_telemetry
    if on_unit is None:
        on_unit = ambient_on_unit
    total = len(spec.units)
    if telemetry is not None:
        telemetry.increment("units_total", total)
    results: List[Any] = [None] * total
    pending_indices: List[int] = []

    if cache is not None:
        fingerprints = spec.fingerprints()
        for index, key in enumerate(fingerprints):
            hit, value = cache.lookup(key)
            if hit:
                results[index] = value
                if telemetry is not None:
                    telemetry.increment("units_cached")
                if on_unit is not None:
                    on_unit(index, total, spec.units[index], "cache")
            else:
                pending_indices.append(index)
    else:
        fingerprints = None
        pending_indices = list(range(total))

    if pending_indices:
        # Specs may legitimately repeat a unit (e.g. Figure 12's base-config
        # timing appears in two panels); evaluate each distinct unit once and
        # fan its result out to every position.
        distinct: "dict[Any, List[int]]" = {}
        for index in pending_indices:
            distinct.setdefault(spec.units[index], []).append(index)
        payloads = [(spec.scale, unit) for unit in distinct]
        imap = getattr(executor, "imap", None)
        timer = telemetry.timer("run_execute") if telemetry is not None else None
        if timer is not None:
            timer.__enter__()
        try:
            if imap is not None:
                computed = imap(execute_payload, payloads)
            else:  # executors only providing the barrier-style map
                computed = iter(executor.map(execute_payload, payloads))
            for indices, result in zip(distinct.values(), computed):
                for index in indices:
                    results[index] = result
                if cache is not None:
                    cache.store(fingerprints[indices[0]], result)
                if telemetry is not None:
                    telemetry.increment("units_executed", len(indices))
                if on_unit is not None:
                    for index in indices:
                        on_unit(index, total, spec.units[index], "executed")
        finally:
            if timer is not None:
                timer.__exit__(None, None, None)
    return results
