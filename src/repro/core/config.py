"""Configuration for ν-LPA runs.

Defaults mirror the paper exactly: asynchronous updates, at most 20
iterations, per-iteration tolerance τ = 0.05, Pick-Less every ρ = 4
iterations, quadratic-double probing, switch degree 32, fp32 hashtable
values, vertex pruning on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.device import A100, DeviceSpec
from repro.hashing.probing import ProbeStrategy
from repro.types import VALUE_DTYPE_F32, VALUE_DTYPE_F64

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see resilience/)
    from repro.integrity.config import IntegrityConfig
    from repro.resilience.faults import FaultSpec

__all__ = ["LPAConfig", "ResilienceConfig", "SwapPrevention"]


class SwapPrevention(enum.Enum):
    """Symmetry-breaking method families from the swap-prevention study."""

    NONE = "none"
    PICK_LESS = "pick-less"
    CROSS_CHECK = "cross-check"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class LPAConfig:
    """All tunables of ν-LPA; immutable so runs can share one instance.

    Not tunables: both engines always use a workspace arena, and the
    hashtable engine always runs its one fused sweep (docs/performance.md).

    Attributes
    ----------
    max_iterations:
        Hard iteration cap (paper: 20).
    tolerance:
        Per-iteration convergence threshold τ on the changed-vertex
        fraction (paper: 0.05).
    pl_period:
        Apply Pick-Less every this many iterations (paper default ρ = 4,
        i.e. iterations 0, 4, 8, ...); ``None`` disables PL.
    cc_period:
        Apply Cross-Check after iterations divisible by this period;
        ``None`` (default) disables CC.  Setting both periods gives the
        paper's Hybrid (H) method.
    switch_degree:
        Degree threshold between the thread-per-vertex and block-per-vertex
        kernels (paper: 32).
    probing:
        Hashtable collision-resolution strategy (paper: quadratic-double).
    value_dtype:
        Hashtable value dtype, fp32 (paper default) or fp64 (Figure 5).
    pruning:
        Vertex pruning: skip vertices none of whose neighbours changed.
    shared_memory_tables:
        Place the hashtables of sufficiently-low-degree thread-kernel
        vertices in per-SM shared memory instead of the global buffers.
        The paper tried this and "saw little to no performance gain"
        (ablation A3); off by default, like the paper's final design.
    compact_layout:
        Run on 32-bit ids when the graph fits: int32 CSR offsets/targets
        and int32 labels whenever ``num_vertices`` and ``num_edges`` are
        at most ``2**31 - 1``.  Built graphs are already stored that way,
        so the run uses the caller's graph with no copy (a graph passed
        in wide is copied via
        :meth:`~repro.graph.csr.CSRGraph.with_compact_layout`).  ``False``
        runs on a 64-bit copy (:meth:`~repro.graph.csr.CSRGraph.
        with_wide_layout`) with int64 labels.  Results are bit-identical
        either way because every id fits both widths.  Graphs too large
        for 32 bits always run wide.
    device:
        Simulated device (default A100).
    memory_budget_bytes:
        Device-memory budget enforced by a
        :class:`~repro.gpu.governor.MemoryGovernor` allocation ledger.
        ``None`` (default) disables the ledger entirely — zero overhead —
        unless the run injects ``oom`` faults, in which case the budget
        defaults to the device's ``global_memory_bytes``.  Reservations
        that would exceed the budget raise a typed retryable
        :class:`~repro.errors.DeviceOomError`; the resilience ladder
        answers with memory rungs (compact layout, hashtable shrink,
        fallback).  Accounting never changes the computation: labels are
        bit-identical to an unconstrained run whenever no rung fires.
    reserved_memory_fraction:
        Fraction of the budget held back from the ledger (modeling the
        CUDA context, co-tenant allocations, fragmentation slack).  Must
        be in ``[0, 1)``.
    """

    max_iterations: int = 20
    tolerance: float = 0.05
    pl_period: int | None = 4
    cc_period: int | None = None
    switch_degree: int = 32
    probing: ProbeStrategy = ProbeStrategy.QUADRATIC_DOUBLE
    value_dtype: type = VALUE_DTYPE_F32
    pruning: bool = True
    shared_memory_tables: bool = False
    compact_layout: bool = True
    device: DeviceSpec = field(default=A100)
    memory_budget_bytes: int | None = None
    reserved_memory_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1; got {self.max_iterations}"
            )
        if not 0.0 <= self.tolerance <= 1.0:
            raise ConfigurationError(
                f"tolerance must be in [0, 1]; got {self.tolerance}"
            )
        for name, period in (("pl_period", self.pl_period), ("cc_period", self.cc_period)):
            if period is not None and period < 1:
                raise ConfigurationError(f"{name} must be >= 1 or None; got {period}")
        if self.switch_degree < 0:
            raise ConfigurationError(
                f"switch_degree must be non-negative; got {self.switch_degree}"
            )
        if np.dtype(self.value_dtype) not in (
            np.dtype(VALUE_DTYPE_F32),
            np.dtype(VALUE_DTYPE_F64),
        ):
            raise ConfigurationError(
                f"value_dtype must be float32 or float64; got {self.value_dtype}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ConfigurationError(
                f"memory_budget_bytes must be >= 1 or None; got {self.memory_budget_bytes}"
            )
        if not 0.0 <= self.reserved_memory_fraction < 1.0:
            raise ConfigurationError(
                "reserved_memory_fraction must be in [0, 1); "
                f"got {self.reserved_memory_fraction}"
            )

    @property
    def swap_prevention(self) -> SwapPrevention:
        """Which method family this configuration uses."""
        if self.pl_period is not None and self.cc_period is not None:
            return SwapPrevention.HYBRID
        if self.pl_period is not None:
            return SwapPrevention.PICK_LESS
        if self.cc_period is not None:
            return SwapPrevention.CROSS_CHECK
        return SwapPrevention.NONE

    def pick_less_active(self, iteration: int) -> bool:
        """Algorithm 1 line 5: PL mode is on in iterations ≡ 0 (mod ρ)."""
        return self.pl_period is not None and iteration % self.pl_period == 0

    def cross_check_active(self, iteration: int) -> bool:
        """CC validation runs after iterations ≡ 0 (mod cc_period)."""
        return self.cc_period is not None and iteration % self.cc_period == 0

    def with_(self, **changes) -> "LPAConfig":
        """Functional update (``dataclasses.replace`` convenience)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Short label used in experiment tables, e.g. ``PL4`` or ``H(2,4)``."""
        kind = self.swap_prevention
        if kind is SwapPrevention.PICK_LESS:
            return f"PL{self.pl_period}"
        if kind is SwapPrevention.CROSS_CHECK:
            return f"CC{self.cc_period}"
        if kind is SwapPrevention.HYBRID:
            return f"H(CC{self.cc_period},PL{self.pl_period})"
        return "none"


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerant execution policy for a ν-LPA run.

    Passing a ``ResilienceConfig`` to :func:`~repro.core.lpa.nu_lpa`
    routes every engine move through the
    :class:`~repro.resilience.supervisor.KernelSupervisor` (invariant
    checks + the retry → regrow → fallback → abort degradation ladder) and
    optionally enables checkpoint/resume and fault injection.

    Attributes
    ----------
    max_retries:
        Ladder rung 1: how many times a faulted move is retried from the
        restored pre-move snapshot before descending.
    backoff_base_s:
        Base of the exponential retry backoff (``base * 2**attempt``
        seconds).  0 (default) disables sleeping — the simulator's faults
        are deterministic, so backoff only matters when modelling wall
        time.
    allow_regrow:
        Ladder rung 2: rebuild the per-vertex hashtables at the next
        power-of-two capacity after a persistent overflow or corruption
        (also scrubs the flat buffers).
    allow_fallback:
        Ladder rung 3: recompute the affected move on a fresh, hook-free
        :class:`~repro.core.engine_vectorized.VectorizedEngine`.
    validate_invariants:
        Run the invariant checks (label range after each move, finite
        values within each wave).
    deep_checks:
        Include the finite-value check of each hashtable wave's table
        values (run inside the wave; O(|E|) per move in total).
    strict_pl_monotone:
        Escalate a rising changed-vertex fraction across Pick-Less rounds
        from a flagged report entry to a hard
        :class:`~repro.errors.InvariantViolation` raised to the caller
        (re-execution cannot change a deterministic outcome, so this
        anomaly bypasses the ladder).
    checkpoint_dir:
        Directory for iteration-boundary snapshots; ``None`` disables
        checkpointing.
    checkpoint_every:
        Snapshot every this many iterations (k).
    checkpoint_keep:
        Retention ring size: keep only the newest N generations on disk
        (superseded ones are pruned after each save).  ``None`` (default)
        keeps every generation.
    resume:
        Continue from the newest *readable* checkpoint in
        ``checkpoint_dir`` if one exists (bit-identical to the
        uninterrupted run; corrupt generations are skipped newest-first);
        start fresh otherwise.
    faults:
        Optional :class:`~repro.resilience.faults.FaultSpec` describing
        faults to inject (testing / chaos engineering).
    checkpoint_factory:
        Callable with the :class:`~repro.resilience.checkpoint.\
CheckpointManager` constructor signature
        (``factory(directory, every=..., keep=...)``) used to build the
        run's manager.  ``None`` (default) uses ``CheckpointManager``
        itself; the chaos harness substitutes a crash-injecting subclass.
    integrity:
        Optional :class:`~repro.integrity.config.IntegrityConfig` enabling
        the ABFT corruption guards (CSR scrub checksums, label-conservation
        audits, hashtable spot-audits, shadow replay, ECC model).  ``None``
        (default) keeps the hot path untouched.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.0
    allow_regrow: bool = True
    allow_fallback: bool = True
    validate_invariants: bool = True
    deep_checks: bool = True
    strict_pl_monotone: bool = False
    checkpoint_dir: str | Path | None = None
    checkpoint_every: int = 1
    checkpoint_keep: int | None = None
    resume: bool = False
    faults: "FaultSpec | None" = None
    checkpoint_factory: object | None = None
    integrity: "IntegrityConfig | None" = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0; got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ConfigurationError(
                f"backoff_base_s must be >= 0; got {self.backoff_base_s}"
            )
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1; got {self.checkpoint_every}"
            )
        if self.checkpoint_keep is not None and self.checkpoint_keep < 1:
            raise ConfigurationError(
                f"checkpoint_keep must be >= 1 or None; got {self.checkpoint_keep}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError("resume=True requires checkpoint_dir")
        if self.checkpoint_factory is not None and not callable(self.checkpoint_factory):
            raise ConfigurationError("checkpoint_factory must be callable or None")

    def with_(self, **changes) -> "ResilienceConfig":
        """Functional update (``dataclasses.replace`` convenience)."""
        return replace(self, **changes)
