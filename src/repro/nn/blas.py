"""Runtime control of the BLAS thread count, through OpenBLAS's C API.

Small GEMMs gain almost nothing from BLAS threads, so code that runs many of
them on its own threads pins BLAS to one thread while it does
(:func:`blas_threads`).  The library is the OpenBLAS numpy loaded, found in
``/proc/self/maps`` on the first call and driven through :mod:`ctypes`.  When
none is found (another BLAS, another OS) :func:`can_set_threads` is False and
:data:`reason` says why; :func:`blas_threads` is then a no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Iterator, Optional

__all__ = ["blas_threads", "can_set_threads"]

#: Thread-count setters, tried in order; each has a ``get`` twin.
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
            "openblas_set_num_threads")

_UNRESOLVED = object()
#: ``(get, set)`` of the loaded OpenBLAS, None when unavailable.
_control = _UNRESOLVED
#: Why the thread count cannot be set (None while it can, or before the lookup).
reason: Optional[str] = None

_lock = threading.Lock()
_holders = 0
_restore = 0


def _find_openblas():
    """``((get, set), None)`` for the loaded OpenBLAS, or ``(None, why not)``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError as error:
        return None, f"cannot list the loaded libraries: {error}"
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was deleted
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            getter = getattr(library, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return (getter, setter), None
    if not paths:
        return None, "no OpenBLAS library is loaded"
    return None, f"{', '.join(sorted(paths))} exports none of {', '.join(_SETTERS)}"


def can_set_threads() -> bool:
    """Whether :func:`blas_threads` can change the BLAS thread count."""
    global _control, reason
    with _lock:
        if _control is _UNRESOLVED:
            _control, reason = _find_openblas()
        return _control is not None


@contextlib.contextmanager
def blas_threads(count: int) -> Iterator[None]:
    """Run the block with BLAS limited to ``count`` threads, process-wide.

    Holders nest and may overlap across threads: the first to enter reads the
    current count and sets ``count``, the last to leave restores what it read.
    """
    global _holders, _restore
    if not can_set_threads():
        yield
        return
    get, set_ = _control
    with _lock:
        if _holders == 0:
            _restore = get()
            set_(count)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                set_(_restore)


def _after_fork_in_child() -> None:
    # Only the forking thread survives: a lock held elsewhere would never be
    # released, and the holders that pinned the count are gone.
    global _lock, _holders
    _lock = threading.Lock()
    if _holders:
        _holders = 0
        _control[1](_restore)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
