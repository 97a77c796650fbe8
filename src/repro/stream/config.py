"""Configuration of one streaming session (:class:`repro.stream.StreamSession`).

Every field carries a ``#:`` doc comment; ``scripts/gen_config_docs.py``
renders them into ``docs/config.md`` and CI fails on drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Engine names accepted by :attr:`StreamConfig.engine`.
ENGINES = ("incremental", "naive")

#: Explanation modes accepted by :attr:`StreamConfig.explain`.
EXPLAIN_MODES = ("auto", "none")

#: Policies accepted by :attr:`StreamConfig.on_unsupported`.
UNSUPPORTED_POLICIES = ("fallback", "error")


@dataclass
class StreamConfig:
    """Knobs of one :class:`~repro.stream.StreamSession`."""

    #: Window length in timesteps.  ``None`` (the default) uses the model's
    #: trained input length — the only valid value for the fixed-length
    #: architectures, so set it explicitly only for clarity; a mismatch
    #: raises at session construction.
    window: Optional[int] = None
    #: Emit one classification (+ explanation) every ``hop`` new samples once
    #: the first window has filled.  ``hop=1`` explains every slide; larger
    #: hops trade explanation density for throughput.  A hop at or above the
    #: window length makes consecutive windows disjoint, so the incremental
    #: engine degenerates to per-window recomputation.
    hop: int = 1
    #: ``"incremental"`` carries ring-buffer / C(T)-cube / conv-feature state
    #: across hops so each emission costs O(changed region); ``"naive"``
    #: recomputes every window from scratch and is the parity oracle the
    #: incremental path is pinned against (see docs/streaming.md).
    engine: str = "incremental"
    #: What each window emits: ``"auto"`` explains with the model's declared
    #: ``explainer_family`` (dCAM for d-architectures, CAM for the plain and
    #: c-variants), ``"none"`` classifies only.
    explain: str = "auto"
    #: Number of random dimension permutations per dCAM explanation.
    #: Ignored by the CAM families.
    k: int = 20
    #: Seed of the dCAM permutation draw.  Permutations are drawn **once per
    #: session** and reused for every window — that is what lets hops share
    #: per-permutation feature state — so two sessions with equal seeds see
    #: equal permutations.
    seed: int = 0
    #: Class to explain.  ``None`` explains each window's predicted class
    #: (re-deriving it per window as the stream drifts).
    explain_class: Optional[int] = None
    #: Cap on the naive engine's dCAM forward width (``batch_size`` of
    #: :func:`repro.core.compute_dcam`).  The incremental engine keeps all
    #: ``k`` permutations resident and ignores it.
    batch_size: int = 32
    #: Policy when the incremental engine cannot handle the architecture
    #: (only the CNN family's stride-1 Conv→BN→ReLU trunks qualify):
    #: ``"fallback"`` silently runs the naive engine, ``"error"`` raises
    #: :class:`~repro.stream.UnsupportedArchitectureError`.
    on_unsupported: str = "fallback"

    def validate(self) -> None:
        """Raise :class:`ValueError` on out-of-range fields (shape checks
        against a concrete model happen in the session constructor)."""
        if self.window is not None and self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.explain not in EXPLAIN_MODES:
            raise ValueError(
                f"explain must be one of {EXPLAIN_MODES}, got {self.explain!r}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.on_unsupported not in UNSUPPORTED_POLICIES:
            raise ValueError(
                f"on_unsupported must be one of {UNSUPPORTED_POLICIES}, "
                f"got {self.on_unsupported!r}"
            )
