"""The kernel supervisor: every supervised ``lpaMove`` flows through here.

One :meth:`KernelSupervisor.move` call is one *supervised* iteration: the
pre-move state (labels + frontier flags) is snapshotted, the engine runs,
and the output is validated against the invariants in
:mod:`repro.resilience.invariants` (finite values inside each wave, see
:meth:`KernelSupervisor._wave_hook`).  Any device fault or invariant failure
restores the snapshot and descends the degradation ladder:

1. **retry** the move with exponential backoff (transient faults — CAS
   storms, watchdog timeouts, one-shot corruption — clear on re-run);
2. **regrow** the per-vertex hashtables to the next power of two
   (:meth:`~repro.core.engine_hashtable.HashtableEngine.grow_tables`) —
   rebuilding the flat buffers both fixes genuine capacity overflow and
   scrubs persistent buffer corruption, like an ECC scrub cycle;
3. **fall back** to a fresh, unsupervised
   :class:`~repro.core.engine_vectorized.VectorizedEngine` for the
   affected move (the fallback engine has no fault hook, so injected
   faults cannot reach it);
4. **abort** with :class:`~repro.errors.ResilienceExhaustedError` carrying
   a structured :class:`~repro.resilience.report.FaultReport`.

A memory-specific rung sits in front of the ladder: when a typed
:class:`~repro.errors.DeviceOomError` leaves the wired
:class:`~repro.gpu.governor.MemoryGovernor` over budget, **shrink-tables**
rungs halve the hashtable ``capacity_scale`` (floor 1) until the ledger
fits again and the move is re-attempted without consuming a retry.  The
fallback rung also releases the supervised engine's ledger regions and
runs unmetered, so an OOM storm is always absorbed rather than aborted.

Because every rung restarts from the restored snapshot, a fault-free rung
produces exactly the move an unfaulted engine would have produced — which
is what makes "forced overflow every iteration" converge to the same
communities as a clean vectorized run (see ``tests/resilience``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.engine_vectorized import VectorizedEngine
from repro.core.pruning import Frontier
from repro.errors import (
    DeviceOomError,
    HashtableFullError,
    InvariantViolation,
    KernelLaunchError,
    KernelTimeoutError,
    ResilienceExhaustedError,
    TransientKernelError,
)
from repro.gpu.kernel import LaunchStatus
from repro.graph.csr import CSRGraph
from repro.observe.trace import FaultRungEvent
from repro.hashing.parallel_hashtable import segment_index_arrays
from repro.resilience.faults import FaultContext, FaultInjector
from repro.resilience.invariants import (
    check_finite_values,
    check_label_range,
    check_pl_monotone,
)
from repro.resilience.report import FaultEvent, FaultReport, classify_fault

__all__ = ["KernelSupervisor", "SUPERVISED_FAULTS"]

#: Exception classes the ladder handles; anything else propagates (it is a
#: programming error, not a device fault).
SUPERVISED_FAULTS = (
    HashtableFullError,
    KernelTimeoutError,
    TransientKernelError,
    KernelLaunchError,
    InvariantViolation,
)


class KernelSupervisor:
    """Wraps an engine's ``move`` with checks, retries, and fallback."""

    def __init__(
        self,
        engine,
        graph: CSRGraph,
        config: LPAConfig,
        resilience: ResilienceConfig,
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.config = config
        self.resilience = resilience
        self.report = FaultReport(engine=engine.name)
        self.injector: FaultInjector | None = None
        if resilience.faults is not None:
            self.injector = FaultInjector(resilience.faults)
        #: Whether :meth:`_wave_hook` runs the finite-value deep check.
        self._deep_checks = (
            resilience.validate_invariants
            and resilience.deep_checks
            and hasattr(engine, "tables")
        )
        if self.injector is not None or self._deep_checks:
            engine.fault_hook = self._wave_hook
        self._fallback: VectorizedEngine | None = None
        #: Changed fraction of the last completed Pick-Less round.
        self.last_pl_fraction: float | None = None
        #: Optional :class:`~repro.integrity.guard.IntegrityGuard` run on
        #: every accepted move (wired by the driver; ``None`` = no ABFT).
        self.guard = None
        #: Optional :class:`~repro.gpu.governor.MemoryGovernor` (wired by
        #: the driver).  When a :class:`~repro.errors.DeviceOomError`
        #: leaves the ledger over budget, the ladder inserts
        #: ``shrink-tables`` rungs — halving the hashtable
        #: ``capacity_scale`` down to its floor of 1 — before retrying.
        self.governor = None

    # ------------------------------------------------------------------ #

    @property
    def events(self) -> list[FaultEvent]:
        """All fault events recorded so far."""
        return self.report.events

    @property
    def capacity_scale(self) -> int:
        """The engine's hashtable ``capacity_scale`` (1 without tables)."""
        return getattr(getattr(self.engine, "tables", None), "capacity_scale", 1)

    def checkpoint_fields(self) -> dict:
        """The cross-iteration state a checkpoint carries for this
        supervisor (:class:`~repro.resilience.checkpoint.CheckpointState`
        keyword arguments; :meth:`restore_state` reads them back)."""
        return {
            "injector_fires": self.injector.fires if self.injector is not None else 0,
            "last_pl_fraction": self.last_pl_fraction,
            "capacity_scale": self.capacity_scale,
        }

    def restore_state(self, state) -> None:
        """Reinstate :meth:`checkpoint_fields` from a checkpoint ``state``.

        Slot order follows table capacity and breaks max-reduce ties, so
        the tables are resized to the checkpoint's scale (the integrity
        guard's DMR twin follows the engine the same way).
        """
        if self.injector is not None:
            self.injector.fires = state.injector_fires
        self.last_pl_fraction = state.last_pl_fraction
        while self.capacity_scale < state.capacity_scale:
            self.engine.grow_tables()
        while self.capacity_scale > state.capacity_scale:
            self.engine.shrink_tables()

    def _wave_hook(self, ctx: FaultContext) -> None:
        """Fire any armed fault, then check the wave's table values are
        finite — at the reduce point, the one moment they hold the wave's
        accumulations (the fused sweep re-clears them before the move
        returns)."""
        if self.injector is not None:
            self.injector(ctx)
        if self._deep_checks and ctx.phase == "reduce":
            flat, _, _ = segment_index_arrays(ctx.base, ctx.p1)
            check_finite_values(ctx.values[flat])

    # ------------------------------------------------------------------ #

    def move(
        self,
        labels: np.ndarray,
        frontier: Frontier,
        *,
        pick_less: bool,
        iteration: int,
    ):
        """One supervised ``lpaMove``; returns the engine's ``MoveOutcome``."""
        snapshot_labels = labels.copy()
        snapshot_flags = frontier.flags.copy()

        def restore() -> None:
            labels[:] = snapshot_labels
            frontier.flags[:] = snapshot_flags

        attempt = 0
        regrown = False
        while True:
            if self.injector is not None:
                self.injector.arm(iteration, attempt)
            try:
                outcome = self.engine.move(
                    labels, frontier, pick_less=pick_less, iteration=iteration
                )
                if self.resilience.validate_invariants:
                    check_label_range(labels, self.graph.num_vertices)
                if self.guard is not None:
                    # ABFT audits run inside the try block so a detection
                    # (IntegrityError/EccError) restores the snapshot and
                    # descends the same ladder as any device fault.
                    self.guard.validate_move(
                        labels, self.engine,
                        snapshot_labels=snapshot_labels,
                        snapshot_flags=snapshot_flags,
                        pick_less=pick_less,
                        iteration=iteration,
                    )
            except SUPERVISED_FAULTS as exc:
                restore()
                if self.injector is not None:
                    self.injector.disarm()
                if self._shrink_for_oom(exc, iteration, attempt):
                    # The shrink rungs freed device memory without
                    # consuming a retry: re-attempt the move at the same
                    # attempt number (the capacity-scale floor of 1
                    # bounds how often this branch can fire).
                    continue
                if attempt < self.resilience.max_retries:
                    backoff = self._backoff(attempt)
                    self._record(iteration, attempt, exc, "retry", backoff)
                    attempt += 1
                    continue
                if (
                    not regrown
                    and self.resilience.allow_regrow
                    and isinstance(exc, (HashtableFullError, InvariantViolation))
                    and hasattr(self.engine, "grow_tables")
                ):
                    self._record(iteration, attempt, exc, "regrow", 0.0)
                    self.engine.grow_tables()
                    regrown = True
                    attempt += 1
                    continue
                return self._fall_back(
                    labels, frontier, restore, exc,
                    pick_less=pick_less, iteration=iteration, attempt=attempt,
                )
            else:
                self._note_pick_less(pick_less, outcome, iteration)
                return outcome

    # ------------------------------------------------------------------ #

    def _shrink_for_oom(self, exc: BaseException, iteration: int, attempt: int) -> bool:
        """Memory rung: halve the hashtable ``capacity_scale`` until the
        ledger fits the (possibly fault-shrunken) budget again.

        Only fires for :class:`DeviceOomError` when a governor is wired
        and reports ``over_budget()``.  Each halving is recorded as a
        ``shrink-tables`` rung; returns ``True`` if at least one fired so
        the caller re-attempts the move with the smaller tables.
        """
        if (
            not isinstance(exc, DeviceOomError)
            or self.governor is None
            or not hasattr(self.engine, "shrink_tables")
        ):
            return False
        shrunk = False
        while self.governor.over_budget() and self.capacity_scale > 1:
            self._record(iteration, attempt, exc, "shrink-tables", 0.0)
            self.engine.shrink_tables()
            shrunk = True
        return shrunk

    def _fall_back(
        self,
        labels: np.ndarray,
        frontier: Frontier,
        restore,
        cause: BaseException,
        *,
        pick_less: bool,
        iteration: int,
        attempt: int,
    ):
        """Ladder rung 3: recompute the move on the unsupervised fallback."""
        if not self.resilience.allow_fallback:
            return self._abort(iteration, attempt, cause)
        self._record(iteration, attempt, cause, "fallback", 0.0)
        if self._fallback is None:
            # Return the supervised engine's device regions (hashtables,
            # arena high-water charges) to the governor before standing
            # up the fallback: the fallback engine is deliberately
            # unmetered — just as it has no fault hook, modeled memory
            # pressure cannot reach it, which is what makes this rung a
            # guaranteed absorber for injected OOM storms.
            release = getattr(self.engine, "release_memory", None)
            if release is not None and self.governor is not None:
                release()
            self._fallback = VectorizedEngine(self.graph, self.config)
        # The fallback move belongs to the same run: route its kernel/wave
        # events into the supervised engine's tracer (if any) so the trace
        # shows which iterations were completed by the degraded path.
        self._fallback.tracer = getattr(self.engine, "tracer", None)
        try:
            outcome = self._fallback.move(
                labels, frontier, pick_less=pick_less, iteration=iteration
            )
            check_label_range(labels, self.graph.num_vertices)
        except SUPERVISED_FAULTS as exc:
            restore()
            return self._abort(iteration, attempt + 1, exc)
        self._note_pick_less(pick_less, outcome, iteration)
        return outcome

    def _abort(self, iteration: int, attempt: int, cause: BaseException):
        self._record(iteration, attempt, cause, "abort", 0.0)
        self.report.aborted_at = iteration
        raise ResilienceExhaustedError(
            f"degradation ladder exhausted at iteration {iteration}: "
            f"{type(cause).__name__}: {cause} ({self.report.summary()})",
            report=self.report,
        ) from cause

    # ------------------------------------------------------------------ #

    def _note_pick_less(self, pick_less: bool, outcome, iteration: int) -> None:
        """Track the PL changed-fraction invariant on successful moves."""
        n = self.graph.num_vertices
        if not pick_less or n == 0:
            return
        fraction = outcome.changed / n
        message = check_pl_monotone(self.last_pl_fraction, fraction)
        if message is not None:
            if self.resilience.strict_pl_monotone:
                self.last_pl_fraction = fraction
                raise InvariantViolation(message)
            self.record_completed(iteration, "pl-monotone", message, "flagged")
        self.last_pl_fraction = fraction

    # ------------------------------------------------------------------ #

    def _backoff(self, attempt: int) -> float:
        delay = self.resilience.backoff_base_s * (2.0 ** attempt)
        if delay > 0:
            time.sleep(delay)
        return delay

    def record_completed(
        self, iteration: int, fault: str, detail: str, action: str
    ) -> None:
        """Record a decision taken on a completed launch (no ladder rung):
        a flagged invariant, a budget stop, a skipped checkpoint."""
        self.report.append(FaultEvent(
            iteration=iteration, attempt=0, fault=fault, detail=detail,
            action=action, engine=self.engine.name,
            status=LaunchStatus.COMPLETED,
        ))

    def _record(
        self,
        iteration: int,
        attempt: int,
        exc: BaseException,
        action: str,
        backoff: float,
    ) -> None:
        self.report.append(
            FaultEvent(
                iteration=iteration,
                attempt=attempt,
                fault=type(exc).__name__,
                detail=str(exc),
                action=action,
                engine=self.engine.name,
                status=classify_fault(exc),
                backoff_s=backoff,
            )
        )
        tracer = getattr(self.engine, "tracer", None)
        if tracer is not None and tracer.enabled:
            tracer.emit(FaultRungEvent(
                iteration=iteration,
                attempt=attempt,
                fault=type(exc).__name__,
                action=action,
            ))
