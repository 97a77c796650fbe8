"""Streaming incremental explanation: classify + explain a live feed.

Push multivariate samples one timestep (or block) at a time into a
:class:`StreamSession`; once the first window fills, every ``hop`` new
samples emit a :class:`StreamResult` with the window's logits and a CAM/dCAM
heatmap.  The ``incremental`` engine keeps its conv feature maps and ``M̄``
in ring layout behind one offset, so each hop recomputes only the changed
columns and copies no cached state; the ``naive`` engine recomputes each
window through the offline pipeline and serves as the pinned parity oracle.
See docs/streaming.md.

Like :mod:`repro.serve` and :mod:`repro.dist`, this package is not imported
eagerly by ``import repro`` — ``import repro.stream`` (or ``from repro.stream
import StreamSession``) explicitly.
"""

from .config import StreamConfig
from .incremental import (
    IncrementalTrunk,
    UnsupportedArchitectureError,
    supports_incremental,
)
from .session import StreamResult, StreamSession

__all__ = [
    "StreamConfig",
    "StreamSession",
    "StreamResult",
    "IncrementalTrunk",
    "UnsupportedArchitectureError",
    "supports_incremental",
]
