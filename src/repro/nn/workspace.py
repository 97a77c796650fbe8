"""Reusable scratch buffers for the fused training pipeline and dCAM forwards.

The im2col / col2im strategy of :mod:`repro.nn.functional` allocates a patch
matrix on every convolution forward and a padded gradient image on every
backward.  During training those allocations repeat with identical shapes on
every mini-batch of every epoch, so a :class:`Workspace` lets the training
engine check buffers out per step and return them afterwards instead of
round-tripping through the allocator.

Checkout semantics: :meth:`Workspace.acquire` hands out a buffer and marks it
in use until :meth:`Workspace.release_all` — two convolution layers with the
same patch shape therefore never alias within one forward/backward step, and
a buffer is only ever reused *across* steps, after the autograd closures that
captured it have run.  Buffer contents are either fully overwritten (im2col)
or explicitly zero-filled (col2im) before use, so reuse is invisible to the
numerics.

A :class:`SliceScratch` is the inference twin, entered by one dCAM forward
slice (:func:`repro.core.dcam._forward_rows`) and read by the row kernel
(:func:`repro.nn.functional._row_conv_bn_relu`).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Workspace:
    """A pool of shape-keyed scratch buffers with checkout semantics."""

    def __init__(self) -> None:
        self._free: Dict[Tuple, List[np.ndarray]] = {}
        self._used: List[Tuple[Tuple, np.ndarray]] = []
        #: Number of fresh allocations performed (reuse keeps this constant).
        self.allocations = 0

    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Check a buffer of ``(shape, dtype)`` out until :meth:`release_all`."""
        key = (tuple(shape), np.dtype(dtype))
        stack = self._free.get(key)
        if stack:
            buffer = stack.pop()
        else:
            buffer = np.empty(key[0], dtype=key[1])
            self.allocations += 1
        self._used.append((key, buffer))
        return buffer

    def release_all(self) -> None:
        """Return every checked-out buffer to the pool.

        Call only once the autograd closures that captured the buffers have
        run (i.e. after ``optimizer.step()`` of the current mini-batch).
        """
        for key, buffer in self._used:
            self._free.setdefault(key, []).append(buffer)
        self._used.clear()

    @property
    def in_use(self) -> int:
        """Number of currently checked-out buffers."""
        return len(self._used)

    def nbytes(self) -> int:
        """Total bytes held by the workspace (free and in use)."""
        total = sum(b.nbytes for stack in self._free.values() for b in stack)
        return total + sum(b.nbytes for _, b in self._used)


class _ActiveScratch(threading.local):
    scratch: Optional["SliceScratch"] = None


_active = _ActiveScratch()


def active_slice_scratch() -> Optional["SliceScratch"]:
    """The :class:`SliceScratch` entered on this thread, if any."""
    return _active.scratch


class SliceScratch(Workspace):
    """One forward slice's scratch: buffers plus a memo of folded blocks.

    A context manager that makes itself this thread's
    :func:`active_slice_scratch` and restores the previous one on exit, on
    return or raise alike.  Weights and BatchNorm statistics may change
    between slices, never within one, so the memo lives exactly as long as
    the scratch.
    """

    def __init__(self) -> None:
        super().__init__()
        self._folds: Dict[tuple, tuple] = {}
        self._previous: List[Optional[SliceScratch]] = []

    def fold(self, conv, bn, rotate: bool, build: Callable[[], tuple]) -> tuple:
        """``build()`` for the ``(conv, bn, rotate)`` block, once per scratch."""
        key = (id(conv), id(bn), rotate)
        entry = self._folds.get(key)
        if entry is None:
            # Holding the modules keeps their ids from being reused.
            entry = self._folds[key] = (conv, bn, build())
        return entry[2]

    def __enter__(self) -> "SliceScratch":
        self._previous.append(_active.scratch)
        _active.scratch = self
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        _active.scratch = self._previous.pop()
        return False
