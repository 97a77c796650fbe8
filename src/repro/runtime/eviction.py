"""LRU-bounded byte-store tiers shared by the runtime and serving caches.

Both content-addressed stores of the repo — the runtime
:class:`~repro.runtime.cache.ResultCache` and the serving
:class:`~repro.serve.cache.ExplanationCache` — persist entries as one file per
key inside a flat directory.  This module owns the mechanics they share:

* :class:`BoundedMemoryStore` — an ``OrderedDict``-backed byte store with a
  total-size bound, evicting least-recently-used entries;
* :func:`enforce_disk_budget` — trim a directory of entry files to a byte
  budget by deleting the least-recently-*used* files (recency is file mtime;
  readers bump it via :func:`touch`);
* :class:`TieredByteStore` — the tiers combined: a memory tier in front of an
  optional directory tier and an optional *remote* tier (a
  :class:`repro.dist.RemoteByteStore` shared by a whole fleet), torn-file-safe
  writes, promote-on-hit from the slower tiers, local tiers LRU-bounded.  The
  caches wrap it with their own policy (pickle + hit/miss stats for the
  runtime, telemetry counters for serving).

Eviction is size-triggered, never time-triggered, so a store below its budget
behaves exactly like the unbounded caches these helpers replaced.  Both local
tiers charge every entry its payload plus :data:`ENTRY_OVERHEAD_BYTES`, so
even zero-byte entries (the dCAM family's empty permutation-row tables) fill
a budget and get evicted.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

#: What every entry costs against a budget on top of its payload: about a
#: memory entry's key string, bytes header and ordered-dict slot, and well
#: under a disk entry's inode and directory record.
ENTRY_OVERHEAD_BYTES = 256


class BoundedMemoryStore:
    """LRU-ordered ``{key: bytes}`` store bounded by total charged size.

    Each entry is charged its payload plus :data:`ENTRY_OVERHEAD_BYTES`.

    ``max_bytes=None`` disables eviction (the store behaves like a plain
    dict).  A single entry larger than the whole budget is still admitted —
    the bound is a working-set target, not an admission filter — and then
    evicted as soon as any other entry lands.

    Thread-safe: the serving layer's cache shares one store between HTTP
    handler threads and the batcher worker, so the recency bump in ``get``
    and the evicting ``put`` are serialised by a lock (an unguarded
    ``get``/``move_to_end`` pair races a concurrent eviction).
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
            return blob

    def put(self, key: str, blob: bytes) -> None:
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._total_bytes -= len(previous) + ENTRY_OVERHEAD_BYTES
            self._entries[key] = blob
            self._total_bytes += len(blob) + ENTRY_OVERHEAD_BYTES
            if self.max_bytes is not None:
                while self._total_bytes > self.max_bytes and len(self._entries) > 1:
                    _, evicted = self._entries.popitem(last=False)
                    self._total_bytes -= len(evicted) + ENTRY_OVERHEAD_BYTES
                    self.evictions += 1

    def discard(self, key: str) -> None:
        with self._lock:
            blob = self._entries.pop(key, None)
            if blob is not None:
                self._total_bytes -= len(blob) + ENTRY_OVERHEAD_BYTES

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._entries))

    @property
    def total_bytes(self) -> int:
        return self._total_bytes


def touch(path: str) -> None:
    """Bump ``path``'s mtime so LRU eviction sees the read (best-effort)."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def _entry_files(directory: str, suffix: str) -> List[Tuple[float, int, str]]:
    """``(mtime, charged size, path)`` for every entry file, least recent first.

    The charged size is the file size plus :data:`ENTRY_OVERHEAD_BYTES`.
    """
    entries = []
    for name in os.listdir(directory):
        if not name.endswith(suffix):
            continue
        path = os.path.join(directory, name)
        try:
            stat = os.stat(path)
        except OSError:
            continue  # concurrently evicted by another process
        entries.append((stat.st_mtime, stat.st_size + ENTRY_OVERHEAD_BYTES, path))
    entries.sort()
    return entries


def enforce_disk_budget(directory: str, max_bytes: Optional[int], suffix: str = ".pkl") -> int:
    """Delete least-recently-used ``suffix`` files until the directory fits.

    Each file is charged its size plus :data:`ENTRY_OVERHEAD_BYTES`.
    Returns the number of files evicted.  The most recent file always
    survives, mirroring :class:`BoundedMemoryStore`'s single-entry
    admission.  Concurrent deletions by other processes are tolerated.
    """
    if max_bytes is None or not os.path.isdir(directory):
        return 0
    entries = _entry_files(directory, suffix)
    total = sum(size for _, size, _ in entries)
    evicted = 0
    for _, size, path in entries[:-1]:  # keep the newest entry
        if total <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        evicted += 1
    return evicted


class TieredByteStore:
    """Memory tier (+ optional disk and remote tiers) with LRU bounds.

    ``get`` falls back to disk on a memory miss — promoting the entry back
    into memory and bumping the file's mtime — and then to the optional
    *remote* tier (any object with ``get``/``put``/``contains``, typically a
    :class:`repro.dist.RemoteByteStore`); a remote hit is materialised into
    both local tiers so subsequent reads never touch the network.  ``put``
    writes memory-first, then the file via write-then-rename so concurrent
    readers never see a torn entry, then write-through to the remote
    (best-effort: a down remote never fails a local write), and finally
    enforces the disk budget.  ``evictions`` counts both local tiers.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        suffix: str = ".pkl",
        max_memory_bytes: Optional[int] = None,
        max_disk_bytes: Optional[int] = None,
        remote: Optional[object] = None,
    ) -> None:
        self.directory = directory
        self.suffix = suffix
        self.max_disk_bytes = max_disk_bytes
        self.remote = remote
        self.memory = BoundedMemoryStore(max_memory_bytes)
        self.disk_evictions = 0
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Disk sweeps walk the whole directory (O(entries) stat calls), so a
        # sweep per put would make a busy cache quadratic.  Track the size
        # approximately — puts add, sweeps resync to the real total — and
        # sweep only when the estimate crosses the budget.  External
        # deletions only make the estimate overshoot, i.e. sweep early.
        self._approx_disk_bytes = (
            sum(size for _, size, _ in _entry_files(directory, suffix))
            if directory and max_disk_bytes is not None
            else 0
        )

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}{self.suffix}")

    def get(self, key: str) -> Optional[bytes]:
        return self.get_with_tier(key)[0]

    def get_with_tier(self, key: str) -> Tuple[Optional[bytes], str]:
        """``(blob, tier)`` where tier is the serving one: ``"memory"`` /
        ``"disk"`` / ``"remote"`` on a hit, ``"miss"`` otherwise — the
        observability layer records per-tier hit latency from this."""
        blob = self.memory.get(key)
        if blob is not None:
            return blob, "memory"
        if self.directory:
            path = self.path(key)
            try:  # a torn/evicted-underneath-us file is a miss, not a crash
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = None
            else:
                touch(path)
                self.memory.put(key, blob)
                return blob, "disk"
        if self.remote is not None:
            blob = self.remote.get(key)
            if blob is not None:  # promote so the next read stays local
                self.memory.put(key, blob)
                self._store_disk(key, blob)
                return blob, "remote"
        return None, "miss"

    def put(self, key: str, blob: bytes) -> None:
        self.memory.put(key, blob)
        self._store_disk(key, blob)
        if self.remote is not None:
            self.remote.put(key, blob)  # best-effort write-through

    def invalidate(self, key: str) -> None:
        """Drop ``key`` from the local tiers (e.g. a blob that failed to parse).

        The remote tier is left alone: its frames are checksum-verified in
        transit, so local corruption says nothing about the remote copy — the
        next ``get`` re-fetches and re-materialises it.
        """
        self.memory.discard(key)
        if self.directory:
            try:
                os.unlink(self.path(key))
            except OSError:
                pass

    def _store_disk(self, key: str, blob: bytes) -> None:
        if not self.directory:
            return
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, self.path(key))
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        if self.max_disk_bytes is not None:
            self._approx_disk_bytes += len(blob) + ENTRY_OVERHEAD_BYTES
            if self._approx_disk_bytes > self.max_disk_bytes:
                self.disk_evictions += enforce_disk_budget(
                    self.directory, self.max_disk_bytes, suffix=self.suffix
                )
                self._approx_disk_bytes = sum(
                    size for _, size, _ in _entry_files(self.directory, self.suffix)
                )

    @property
    def evictions(self) -> int:
        return self.memory.evictions + self.disk_evictions

    def __contains__(self, key: str) -> bool:
        if key in self.memory:
            return True
        if bool(self.directory) and os.path.exists(self.path(key)):
            return True
        return self.remote is not None and self.remote.contains(key)

    def __len__(self) -> int:
        keys = set(self.memory)
        if self.directory:
            keys.update(
                name[: -len(self.suffix)]
                for name in os.listdir(self.directory)
                if name.endswith(self.suffix)
            )
        return len(keys)
