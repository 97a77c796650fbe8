"""Content-addressed explanation cache with memory/disk tiers and LRU bounds.

The serving layer answers many requests for the *same* explanation: repeated
classify/explain calls on hot instances, and the dCAM family's permutation
CAMs of instances explained again with another seed or ``k``.  Both are
served from one :class:`ExplanationCache`:

* **response level** — whole classify/explain response payloads, keyed by
  :func:`response_cache_key` (SHA-256 over the model-state hash, the instance
  bytes, the class, ``k`` and the permutation seed — everything that
  determines the bytes of a response);
* **permutation level** — the dCAM family's permutation-row tables via the
  :class:`~repro.explain.base.Explainer` cache hook: one entry per
  (model-state hash, instance, class) holding the CAM rows of the orders
  already forwarded, stored empty on an instance's first explain and filled
  from its second up to a 4 MiB cap (:func:`repro.core.dcam.iter_dcam`).  This also serves
  Figure 10's growing-``k`` sweep below the unit level.

Entries are raw bytes, so warm hits are byte-identical to the stored cold
computation.  Both tiers live in the same LRU-bounded
:class:`~repro.runtime.eviction.TieredByteStore` that backs the runtime
:class:`~repro.runtime.cache.ResultCache`; this module adds the content keys
and the telemetry counters.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional, Union

import numpy as np

from ..obs.tracing import span
from ..runtime.eviction import TieredByteStore
from ..obs import Telemetry

#: Default in-memory budget: enough for thousands of tiny-scale heatmaps
#: while bounding a long-lived server.
DEFAULT_MEMORY_BYTES = 64 * 1024 * 1024

_SUFFIX = ".blob"


def content_key(*parts: Union[str, bytes, int, float, np.ndarray]) -> str:
    """SHA-256 hex digest over a sequence of typed, length-delimited parts.

    Arrays are folded in with their dtype and shape, so e.g. a float64 and a
    float32 view of the same bytes can never collide.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            encoded = (
                str(part.dtype).encode("ascii")
                + str(part.shape).encode("ascii")
                + part.tobytes()
            )
        elif isinstance(part, bytes):
            encoded = part
        else:
            encoded = repr(part).encode("utf-8")
        digest.update(str(len(encoded)).encode("ascii"))
        digest.update(b":")
        digest.update(encoded)
    return digest.hexdigest()


def response_cache_key(
    model_hash: str,
    kind: str,
    instance: np.ndarray,
    class_id: Optional[int],
    k: Optional[int],
    seed: Optional[int],
) -> str:
    """Key of one served response: model state + request content.

    ``kind`` is ``"classify"`` or ``"explain"``; ``class_id``/``k``/``seed``
    are ``None`` where the request kind does not consume them (classify), so
    requests differing only in irrelevant knobs share an entry.
    """
    return content_key(
        "serve-response", kind, model_hash,
        np.ascontiguousarray(instance, dtype=np.float64),
        "-" if class_id is None else int(class_id),
        "-" if k is None else int(k),
        "-" if seed is None else int(seed),
    )


def stream_window_key(
    model_hash: str,
    window: np.ndarray,
    family: str,
    class_id: Optional[int],
    k: Optional[int],
    seed: Optional[int],
) -> str:
    """Key of one streaming emission: model state + exact window bytes.

    The streaming layer (:mod:`repro.stream`) qualifies every cached
    emission by the serving model-state hash (``:float32``-suffixed on the
    single-precision tier, like :meth:`ExplanationService._serving_hash`)
    and the full window content, so a replayed stream — or two hosts
    watching the same feed — hits without recomputing.  ``class_id`` is the
    *requested* class (``None`` when each window explains its own predicted
    class, which is itself a function of the window bytes); ``k``/``seed``
    pin the dCAM permutation draw and are ``None`` for the CAM families.

    The key is deliberately engine-agnostic: the incremental and naive
    engines agree within documented tolerances (docs/streaming.md), and
    whichever computes a window first populates the entry both serve.
    """
    return content_key(
        "stream-window",
        family,
        model_hash,
        np.ascontiguousarray(window, dtype=np.float64),
        "-" if class_id is None else int(class_id),
        "-" if k is None else int(k),
        "-" if seed is None else int(seed),
    )


class ExplanationCache:
    """Two-tier (memory + optional disk) content-addressed byte store.

    Parameters
    ----------
    directory:
        If given, entries are persisted as ``<directory>/<key>.blob`` and
        lookups fall back to disk, so a restarted server keeps its warm set.
    max_memory_bytes:
        LRU bound of the in-memory tier (``None`` disables eviction).
    max_disk_bytes:
        LRU bound of the disk tier, enforced after every store; least
        recently *used* entry files are deleted first (recency is file
        mtime, bumped on every disk hit).
    telemetry:
        Optional shared :class:`~repro.obs.Telemetry` registry; the
        cache counts ``cache_hits`` / ``cache_misses`` / ``cache_stores`` /
        ``cache_evictions`` into it (the serve ``/metrics`` endpoint exposes
        them).
    remote:
        Optional remote tier (a :class:`repro.dist.RemoteByteStore`): misses
        fall through to it and stores write through, so every serving host
        sharing one byte-store server shares one warm explanation set.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_memory_bytes: Optional[int] = DEFAULT_MEMORY_BYTES,
        max_disk_bytes: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        remote: Optional[object] = None,
    ) -> None:
        self.directory = directory
        self.remote = remote
        self._store = TieredByteStore(
            directory=directory,
            suffix=_SUFFIX,
            max_memory_bytes=max_memory_bytes,
            max_disk_bytes=max_disk_bytes,
            remote=remote,
        )
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    def get(self, key: str) -> Optional[bytes]:
        """The stored bytes for ``key`` (``None`` on miss); counts telemetry.

        Besides the hit/miss counters, the lookup latency is recorded into a
        per-tier ``cache_get[...]`` histogram (memory/disk/remote/miss) and,
        for traced requests, a ``cache.get`` span carrying the serving tier.
        """
        with span("cache.get") as ctx:
            started = time.perf_counter()
            blob, tier = self._store.get_with_tier(key)
            self.telemetry.timer(f"cache_get[{tier}]").add(time.perf_counter() - started)
            if ctx is not None:
                ctx.attrs["tier"] = tier
        if blob is None:
            self.telemetry.increment("cache_misses")
        else:
            self.telemetry.increment("cache_hits")
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Store ``blob`` under ``key`` in both tiers; enforces the bounds."""
        before = self._store.evictions
        with span("cache.put", size=len(blob)):
            self._store.put(key, blob)
        evicted = self._store.evictions - before
        self.telemetry.increment("cache_stores")
        if evicted:
            self.telemetry.increment("cache_evictions", evicted)

    def invalidate(self, key: str) -> None:
        """Drop ``key`` from the local tiers (an entry that failed to parse).

        Counted as ``cache_invalidations``; the remote tier keeps its copy.
        """
        self._store.invalidate(key)
        self.telemetry.increment("cache_invalidations")

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)
