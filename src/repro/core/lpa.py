"""ν-LPA driver: Algorithm 1's ``lpa()`` main loop.

The driver owns everything iteration-shaped: label initialisation, the
Pick-Less schedule (every ρ iterations), the optional Cross-Check pass,
the tolerance test (which is suppressed while PL is active, per Algorithm 1
line 9), and the iteration cap.  The per-iteration ``lpaMove`` is delegated
to one of the two engines — or, when a
:class:`~repro.core.config.ResilienceConfig` is supplied, to the
:class:`~repro.resilience.supervisor.KernelSupervisor`, which becomes the
single choke point through which every kernel launch flows (invariant
checks, the retry → regrow → fallback degradation ladder, fault
injection).  The same configuration enables iteration-boundary
checkpointing and deterministic, bit-identical resume.

:func:`nu_lpa` is three stages over one run state: :func:`_prepare`,
:func:`_iterate` (Algorithm 1's loop plus the *boundary steps* the run
configured: budget, cancel, integrity audit, checkpoint save, in that
order) and :func:`_finalize`.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.budget import BudgetMeter, RunBudget
from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.engine_hashtable import HashtableEngine
from repro.core.engine_vectorized import VectorizedEngine
from repro.core.pruning import Frontier
from repro.core.result import IterationStats, LPAResult
from repro.core.swap_prevention import cross_check_revert
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ConvergenceWarning,
    CorruptionDetectedError,
    DeviceOomError,
)
from repro.gpu.governor import MemoryGovernor
from repro.graph.csr import CSRGraph
from repro.integrity.guard import IntegrityGuard
from repro.observe.trace import (
    BudgetEvent,
    ConvergenceEvent,
    IntegrityEvent,
    IterationEvent,
    Tracer,
)
from repro.resilience.checkpoint import CheckpointManager, CheckpointState, run_digest
from repro.resilience.supervisor import KernelSupervisor
from repro.resilience.validate import validate_graph
from repro.types import VERTEX_DTYPE

__all__ = ["nu_lpa", "make_engine"]

_ENGINES = {
    "hashtable": HashtableEngine,
    "vectorized": VectorizedEngine,
}


def _engine_class(engine: str):
    """The engine class registered as ``engine``, or a typed error."""
    try:
        return _ENGINES[engine]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
        ) from None


def make_engine(graph: CSRGraph, config: LPAConfig, engine: str):
    """Instantiate an engine by name (``"hashtable"`` or ``"vectorized"``)."""
    return _engine_class(engine)(graph, config)


def _make_governor(
    config: LPAConfig,
    resilience: ResilienceConfig | None,
    tracer: Tracer | None,
) -> MemoryGovernor | None:
    """Build the run's allocation ledger, or ``None`` for the free path.

    A governor exists when the config names a budget, or when the run
    injects ``oom`` faults (the injector needs a ledger to shrink; the
    budget then defaults to the device's ``global_memory_bytes``).
    """
    wants_oom = (
        resilience is not None
        and resilience.faults is not None
        and "oom" in resilience.faults.kinds
    )
    if config.memory_budget_bytes is None and not wants_oom:
        return None
    return MemoryGovernor(
        config.device,
        budget_bytes=config.memory_budget_bytes,
        reserved_fraction=config.reserved_memory_fraction,
        tracer=tracer,
    )


def nu_lpa(
    graph: CSRGraph,
    config: LPAConfig | None = None,
    *,
    engine: str = "vectorized",
    initial_labels: np.ndarray | None = None,
    initial_active: np.ndarray | None = None,
    warn_on_no_convergence: bool = True,
    resilience: ResilienceConfig | None = None,
    profile: bool = False,
    tracer: Tracer | None = None,
    validate: str | None = None,
    budget: RunBudget | None = None,
    cancel=None,
) -> LPAResult:
    """Run ν-LPA community detection on ``graph``.

    Parameters
    ----------
    graph:
        Undirected weighted CSR graph.
    config:
        Run configuration; defaults to the paper's settings (PL4,
        quadratic-double probing, τ = 0.05, ≤ 20 iterations).
    engine:
        ``"vectorized"`` (fast application path, default) or
        ``"hashtable"`` (instrumented Algorithm 2 simulation used by the
        experiments).
    initial_labels:
        Optional starting labels; defaults to each vertex in its own
        community (Algorithm 1 line 2).
    initial_active:
        Optional vertex set to seed the pruning frontier with (default:
        all vertices).  Warm restarts — incremental re-detection after a
        graph update — pass the affected region here; label changes still
        propagate outward because every change re-activates its
        neighbourhood.  Ignored when ``config.pruning`` is off.
    warn_on_no_convergence:
        Emit :class:`~repro.errors.ConvergenceWarning` when the iteration
        cap is hit without meeting τ (on by default; the result's
        ``converged`` flag carries the same information for programmatic
        use).  Pass ``False`` for batch experiments where hitting the cap
        is expected behaviour, e.g. runs without swap mitigation.
    resilience:
        Optional fault-tolerance policy.  When given, every move runs
        under the kernel supervisor, and ``resilience.checkpoint_dir`` /
        ``resilience.resume`` enable snapshotting and bit-identical
        resume from the newest checkpoint.
    profile:
        Build a :class:`~repro.observe.profile.RunProfile` (per-kernel /
        per-iteration modelled-seconds breakdown, traffic, histograms)
        and attach it as ``result.profile``.  Implies tracing: a
        :class:`~repro.observe.trace.Tracer` is created when none is
        passed.
    tracer:
        Optional :class:`~repro.observe.trace.Tracer` to record kernel
        launch, wave, iteration, and fault-rung events into (attached as
        ``result.trace``).  A disabled tracer records nothing at no
        measurable cost.
    validate:
        Input-validation policy (``"strict"``, ``"repair"``, or
        ``"quarantine"``; see :mod:`repro.resilience.validate`).  The
        sweep runs before the driver loop; ``strict`` raises
        :class:`~repro.errors.GraphValidationError` on any error-severity
        defect, the other policies run on the cleaned graph.  The
        :class:`~repro.resilience.validate.ValidationReport` is attached
        as ``result.validation``.  ``None`` (default) skips validation.
    budget:
        Optional :class:`~repro.core.budget.RunBudget`.  On breach the
        driver stops at the next iteration boundary and returns the
        best-so-far partition with ``result.degraded = True`` and
        ``result.degraded_reason`` set (a budget trace event and, for
        supervised runs, a ``budget-stop`` fault event are recorded) —
        it does not raise.
    cancel:
        Optional zero-argument callable polled at every iteration
        boundary.  When it returns truthy the run stops cooperatively:
        a final checkpoint is written (when checkpointing is on), and the
        best-so-far labels are returned with
        ``result.degraded_reason = "interrupted"``.  The CLI's
        SIGINT/SIGTERM handlers use this so a long ``repro detect`` exits
        with a resumable snapshot instead of an unhandled
        ``KeyboardInterrupt`` traceback.

    Returns
    -------
    LPAResult
        Final labels, per-iteration statistics, kernel counters, fault
        events (for supervised runs).
    """
    run = _prepare(
        graph, config or LPAConfig(), engine=engine,
        initial_labels=initial_labels, initial_active=initial_active,
        resilience=resilience,
        tracer=Tracer() if profile and tracer is None else tracer,
        validate=validate, budget=budget, cancel=cancel,
    )
    try:
        _iterate(run)
        return _finalize(run, warn_on_no_convergence=warn_on_no_convergence, profile=profile)
    finally:
        # The boundary steps close over ``run``, and a supervisor's wave
        # hook is bound to the supervisor that holds the engine: dropping
        # both breaks those cycles, so the engine, its arena and the
        # frontier are freed when this call returns instead of at some
        # later cyclic collection.
        run.boundary = ()
        run.eng.fault_hook = None


# --------------------------------------------------------------------- #
# The three stages and the run state they share
# --------------------------------------------------------------------- #


@dataclass(eq=False)
class _Run:
    """State shared by :func:`_prepare`, :func:`_iterate` and :func:`_finalize`."""

    config: LPAConfig
    graph: CSRGraph | None = None
    eng: object = None
    #: ``supervisor.move`` for supervised runs, else the engine's ``move``.
    move: Callable | None = None
    labels: np.ndarray | None = None
    frontier: Frontier | None = None
    tracer: Tracer | None = None
    tracing: bool = False
    validation: object = None
    governor: MemoryGovernor | None = None
    #: Construction-time ledger charges, by region, in reservation order.
    charges: dict = field(default_factory=dict)
    construction_rungs: list = field(default_factory=list)
    supervisor: KernelSupervisor | None = None
    guard: IntegrityGuard | None = None
    #: Iteration-boundary steps, in order; each returns ``True`` when it
    #: restored an earlier boundary (the loop then restarts from ``li``).
    boundary: tuple = ()
    iterations: list = field(default_factory=list)
    converged: bool = False
    li: int = 0
    resumed_from: int | None = None
    degraded_reason: str | None = None
    wall: float = 0.0


def _prepare(
    graph: CSRGraph,
    config: LPAConfig,
    *,
    engine: str,
    initial_labels,
    initial_active,
    resilience: ResilienceConfig | None,
    tracer: Tracer | None,
    validate: str | None,
    budget: RunBudget | None,
    cancel,
) -> _Run:
    """Stage 1: everything the loop needs, in construction order."""
    run = _Run(config=config, tracer=tracer)
    run.tracing = tracer is not None and tracer.enabled
    if validate is not None:
        graph, run.validation = validate_graph(graph, validate)

    # Built graphs are already stored with 32-bit offsets/targets when
    # they fit, so the compact run takes the caller's graph as is; a wide
    # run (``compact_layout=False``) works on a 64-bit copy.  Values are
    # unchanged — every kernel widens on the fly — so labels and counters
    # are bit-identical across the two layouts.
    if config.compact_layout:
        graph = graph.with_compact_layout()
    else:
        graph = graph.with_wide_layout()

    # Device-memory governor: every region below is reserved against the
    # budget before it is allocated, so an oversized run fails here with
    # a typed DeviceOomError (which the service's admission/degradation
    # ladder turns into backpressure or a smaller rung) instead of
    # producing a silently impossible footprint.  ``governor is None`` is
    # the default zero-overhead path — no ledger, no charging, no checks.
    governor = run.governor = _make_governor(config, resilience, tracer)
    if governor is not None:
        if not governor.would_fit(graph.memory_bytes()) and not graph.is_compact:
            # Construction-time memory rung: drop to the 32-bit layout
            # even when the config left it wide — results stay
            # bit-identical, the topology halves.
            compacted = graph.with_compact_layout()
            if compacted is not graph:
                graph = compacted
                run.construction_rungs.append("compact-layout")
        run.charges["csr"] = governor.reserve("csr", graph.memory_bytes())
    eng = run.eng = make_engine(graph, config, engine)
    if governor is not None:
        tables = getattr(eng, "tables", None)
        if tables is not None:
            governor.reserve("hashtable", tables.memory_bytes())
        # Hand the ledger to the engine: regrow/shrink move the
        # ``hashtable`` charge, arena growth charges its byte delta.
        eng.governor = governor
        eng.arena.governor = governor
    if tracer is not None:
        eng.tracer = tracer
    run.graph = graph

    labels = run.labels = _initial_labels(
        graph.num_vertices, initial_labels, graph.is_compact
    )
    if governor is not None:
        # Labels plus the one working copy every iteration makes (the
        # supervisor snapshot / Cross-Check ``previous``).
        run.charges["labels"] = governor.reserve("labels", 2 * labels.nbytes)
    run.frontier = _initial_frontier(run, initial_active)
    run.converged = graph.num_vertices == 0

    steps = dict.fromkeys(("budget", "cancel", "audit", "save"))
    ckpt: CheckpointManager | None = None
    digest = ""
    if resilience is not None:
        supervisor = run.supervisor = KernelSupervisor(eng, graph, config, resilience)
        if governor is not None:
            supervisor.governor = governor
            if supervisor.injector is not None:
                supervisor.injector.governor = governor
        if resilience.checkpoint_dir is not None:
            factory = resilience.checkpoint_factory or CheckpointManager
            ckpt = factory(
                resilience.checkpoint_dir,
                every=resilience.checkpoint_every,
                keep=resilience.checkpoint_keep,
            )
            digest = run_digest(graph, config, engine)
            state = ckpt.latest() if resilience.resume else None
            if state is not None:
                if state.digest != digest:
                    raise CheckpointError(
                        f"checkpoint in {resilience.checkpoint_dir} was "
                        f"written by a different run (digest "
                        f"{state.digest} != {digest}); refusing to resume"
                    )
                _restore(run, state)
                run.resumed_from = state.iteration
            steps["save"] = _save_step(run, ckpt, digest)

    if budget is not None and not budget.unlimited:
        steps["budget"] = _budget_step(run, BudgetMeter(budget, config.device))
    if cancel is not None:
        steps["cancel"] = _cancel_step(run, cancel)

    if (
        run.supervisor is not None
        and resilience.integrity is not None
        and resilience.integrity.enabled
    ):
        guard = run.guard = IntegrityGuard(
            graph, config, resilience.integrity, tracer=tracer, governor=governor
        )
        run.supervisor.guard = guard
        steps["audit"] = _audit_step(run, guard, ckpt, digest)

    run.move = run.supervisor.move if run.supervisor is not None else eng.move
    run.boundary = tuple(step for step in steps.values() if step is not None)
    return run


def _initial_labels(n: int, initial_labels, compact: bool) -> np.ndarray:
    """Algorithm 1 line 2 (each vertex its own community), or the caller's
    labels — int32 on compact runs unless the caller's ids need 64 bits."""
    label_dtype = np.dtype(np.int32) if compact else VERTEX_DTYPE
    if initial_labels is None:
        return np.arange(n, dtype=label_dtype)
    arr = np.asarray(initial_labels)
    if label_dtype != VERTEX_DTYPE and arr.shape[0]:
        ii = np.iinfo(np.int32)
        if int(arr.min()) < ii.min or int(arr.max()) > ii.max:
            label_dtype = VERTEX_DTYPE
    labels = arr.astype(label_dtype, copy=True)
    if labels.shape[0] != n:
        raise ConfigurationError(
            f"initial_labels length {labels.shape[0]} != num_vertices {n}"
        )
    return labels


def _initial_frontier(run: _Run, initial_active) -> Frontier:
    """The pruning frontier, seeded with ``initial_active``."""
    frontier = Frontier(run.graph, enabled=run.config.pruning, arena=run.eng.arena)
    if initial_active is not None:
        n = run.graph.num_vertices
        active = np.asarray(initial_active, dtype=np.int64)
        if active.shape[0] and (active.min() < 0 or active.max() >= n):
            raise ConfigurationError("initial_active vertex id out of range")
        frontier.flags[:] = 0
        frontier.flags[active] = 1
    return frontier


def _iterate(run: _Run) -> None:
    """Stage 2: Algorithm 1's loop, then the run's boundary steps."""
    config = run.config
    n = run.graph.num_vertices
    t0 = time.perf_counter()
    # A while (not a range) so a boundary step can *rewind* ``run.li`` to
    # a restored checkpoint when boundary corruption is detected.
    while not run.converged and run.li < config.max_iterations:
        li = run.li
        pick_less = config.pick_less_active(li)
        cross_check = config.cross_check_active(li)

        previous = run.labels.copy() if cross_check else None
        outcome = run.move(run.labels, run.frontier, pick_less=pick_less, iteration=li)

        reverted = 0
        if previous is not None:
            reverted = cross_check_revert(run.labels, previous, outcome.changed_vertices)

        if run.guard is not None:
            # Record the committed label CRC for the boundary audit and
            # fold the accumulated audit/scrub/replay cost into this
            # iteration's counters, so profiles and the budget meter
            # price integrity as real modelled work.
            run.guard.note_move(run.labels)
            outcome.counters = outcome.counters + run.guard.drain()

        record = dict(
            iteration=li,
            changed=outcome.changed,
            processed=outcome.processed,
            pick_less=pick_less,
            cross_check=cross_check,
            reverted=reverted,
        )
        if run.tracing:
            run.tracer.emit(IterationEvent(**record))
        run.iterations.append(IterationStats(**record, counters=outcome.counters))

        # Algorithm 1 line 9: converge only when PL was off this iteration.
        if not pick_less and n > 0 and outcome.changed / n < config.tolerance:
            run.converged = True

        if any(step(li, outcome) for step in run.boundary):
            continue
        if run.converged or run.degraded_reason is not None:
            break
        run.li += 1
    run.wall = time.perf_counter() - t0


def _finalize(run: _Run, *, warn_on_no_convergence: bool, profile: bool) -> LPAResult:
    """Stage 3: warn, widen the labels, release the ledger."""
    config, iterations = run.config, run.iterations
    n = run.graph.num_vertices
    if not run.converged and run.degraded_reason is None:
        final_fraction = (
            iterations[-1].changed / n if iterations and n > 0 else 0.0
        )
        if run.tracing:
            run.tracer.emit(ConvergenceEvent(
                iteration=len(iterations) - 1 if iterations else 0,
                iterations=len(iterations),
                final_fraction=final_fraction,
                tolerance=config.tolerance,
            ))
        if warn_on_no_convergence:
            warnings.warn(
                ConvergenceWarning(
                    f"LPA hit max_iterations={config.max_iterations} without "
                    f"meeting tolerance {config.tolerance} "
                    f"(final changed fraction {final_fraction:.4f} after "
                    f"{len(iterations)} iteration(s))",
                    iterations=len(iterations),
                    final_fraction=final_fraction,
                ),
                stacklevel=3,
            )
    # Compact-layout runs compute in int32; the public result is always
    # the canonical wide dtype.
    labels = run.labels.astype(VERTEX_DTYPE, copy=False)
    memory_stats: dict | None = None
    if run.governor is not None:
        # Return every region to the ledger before snapshotting the
        # stats: high-water marks survive release, and a non-zero final
        # ``in_use_bytes`` is a charging bug the tests can see.  The
        # engine/guard releases are idempotent, so a supervisor fallback
        # that already freed the engine's regions is fine.
        release = getattr(run.eng, "release_memory", None)
        if release is not None:
            release()
        if run.guard is not None:
            run.guard.release_memory()
        for region, nbytes in reversed(run.charges.items()):
            if nbytes:
                run.governor.release(region, nbytes)
        memory_stats = run.governor.stats()
        memory_stats["construction_rungs"] = list(run.construction_rungs)
    supervisor = run.supervisor
    result = LPAResult(
        labels=labels,
        iterations=iterations,
        converged=run.converged,
        config=config,
        wall_seconds=run.wall,
        algorithm=f"nu-lpa[{run.eng.name}]",
        fault_events=list(supervisor.events) if supervisor is not None else [],
        resumed_from=run.resumed_from,
        degraded_reason=run.degraded_reason,
        validation=run.validation,
        trace=run.tracer,
        integrity=run.guard.stats() if run.guard is not None else None,
        memory=memory_stats,
    )
    if profile:
        # Deferred import: repro.observe.profile pulls in the perf stack
        # (and through it the baselines), which imports this module.
        from repro.observe.profile import build_profile

        result.profile = build_profile(result, device=config.device, tracer=run.tracer)
    return result


def _restore(run: _Run, state: CheckpointState) -> None:
    """Reinstate a checkpointed boundary (resume and integrity rewind)."""
    run.labels[:] = state.labels
    run.frontier.flags[:] = state.flags
    run.iterations = list(state.stats)
    run.converged = state.converged
    run.degraded_reason = None
    run.li = state.iteration
    run.supervisor.restore_state(state)


# --------------------------------------------------------------------- #
# Iteration-boundary steps, in the order they run
# --------------------------------------------------------------------- #


def _budget_step(run: _Run, meter: BudgetMeter):
    """Budget check: a breach stops the run with the best-so-far partition
    instead of raising — LPA's partition at any boundary is a valid (if
    unpolished) answer.  Every iteration is charged — including the
    converging one, whose work is just as real — but a converged run is
    complete, so only unconverged runs can be degraded by a breach."""

    def charge(li: int, outcome) -> None:
        meter.charge(outcome.counters)
        if run.converged:
            return
        run.degraded_reason = reason = meter.breached()
        if reason is None:
            return
        if run.tracing:
            run.tracer.emit(BudgetEvent(
                iteration=li,
                reason=reason,
                wall_spent=meter.wall_spent,
                gpu_spent=meter.gpu_spent,
            ))
        if run.supervisor is not None:
            run.supervisor.record_completed(
                li, "RunBudgetBreach",
                f"budget limit {reason!r} reached after {meter.iterations} "
                f"iteration(s); returning best-so-far partition",
                "budget-stop",
            )

    return charge


def _cancel_step(run: _Run, cancel):
    """Cooperative cancellation (signal handlers, service shutdown),
    handled like a budget breach: final snapshot, best-so-far labels, no
    exception."""

    def poll(li: int, outcome) -> None:
        if run.degraded_reason is None and not run.converged and cancel():
            run.degraded_reason = "interrupted"

    return poll


def _audit_step(run: _Run, guard: IntegrityGuard, ckpt, digest: str):
    """Boundary integrity audit — *before* the checkpoint save, so a
    corrupted state is never made durable.  The supervisor ladder cannot
    replay a whole boundary; the repair rung here is a rewind to the
    newest verified checkpoint (bounded by ``max_rewinds``), after which
    the loop redoes the lost work."""

    def audit(li: int, outcome) -> bool:
        try:
            guard.at_boundary(run.labels, iteration=li)
        except CorruptionDetectedError:
            state = ckpt.latest() if ckpt is not None else None
            if (
                state is None
                or state.digest != digest
                or guard.rewinds >= guard.config.max_rewinds
            ):
                raise
            _restore(run, state)
            guard.note_rewind(run.labels)
            if run.tracing:
                run.tracer.emit(IntegrityEvent(
                    iteration=run.li,
                    check="boundary",
                    action="rewind",
                    detail=(
                        f"restored verified checkpoint at iteration "
                        f"{run.li} (rewind {guard.rewinds}/"
                        f"{guard.config.max_rewinds})"
                    ),
                ))
            return True
        return False

    return audit


def _save_step(run: _Run, ckpt: CheckpointManager, digest: str):
    """Snapshot at the iteration boundary: the state here is exactly what
    a deterministic re-run would hold entering iteration ``li + 1``, so a
    killed run resumes bit-identically.  A budget breach or a cancel also
    snapshots, so a later resume can finish the work."""

    def save(li: int, outcome) -> None:
        if not (ckpt.due(li + 1) or run.converged or run.degraded_reason is not None):
            return
        # Checkpoint staging is a real (transient) device buffer: reserve
        # it for the duration of the save.  Under memory pressure the
        # snapshot is *skipped* — a missing checkpoint costs redone work
        # on resume, never correctness — and the skip is recorded.
        governor, staging = run.governor, 0
        if governor is not None:
            try:
                staging = governor.reserve(
                    "checkpoint", run.labels.nbytes + run.frontier.flags.nbytes
                )
            except DeviceOomError as exc:
                run.supervisor.record_completed(
                    li, type(exc).__name__,
                    f"checkpoint staging skipped: {exc}", "checkpoint-skip",
                )
                return
        try:
            ckpt.save(CheckpointState(
                labels=run.labels,
                flags=run.frontier.flags,
                iteration=li + 1,
                digest=digest,
                converged=run.converged,
                stats=run.iterations,
                **run.supervisor.checkpoint_fields(),
            ))
        finally:
            if staging:
                governor.release("checkpoint", staging)

    return save
