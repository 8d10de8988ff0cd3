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
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace

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
from repro.gpu.kernel import LaunchStatus
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
from repro.resilience.report import FaultEvent
from repro.resilience.supervisor import KernelSupervisor
from repro.resilience.validate import validate_graph
from repro.types import VERTEX_DTYPE

__all__ = ["nu_lpa", "make_engine"]

_ENGINES = {
    "hashtable": HashtableEngine,
    "vectorized": VectorizedEngine,
}


def make_engine(graph: CSRGraph, config: LPAConfig, engine: str):
    """Instantiate an engine by name (``"hashtable"`` or ``"vectorized"``)."""
    try:
        cls = _ENGINES[engine]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
        ) from None
    return cls(graph, config)


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
    config = config or LPAConfig()
    validation = None
    if validate is not None:
        graph, validation = validate_graph(graph, validate)

    if config.degree_renumber and graph.num_vertices:
        return _run_renumbered(
            graph,
            config,
            engine=engine,
            initial_labels=initial_labels,
            initial_active=initial_active,
            warn_on_no_convergence=warn_on_no_convergence,
            resilience=resilience,
            profile=profile,
            tracer=tracer,
            budget=budget,
            cancel=cancel,
            validation=validation,
        )

    # Data-layout shrinking: 32-bit offsets/targets (and labels) whenever
    # the graph fits.  Values are unchanged — every kernel widens on the
    # fly — so labels and counters stay bit-identical to the wide layout.
    if config.compact_layout:
        graph = graph.with_compact_layout()

    if profile and tracer is None:
        tracer = Tracer()

    # Device-memory governor: every region below is reserved against the
    # budget before it is allocated, so an oversized run fails here with
    # a typed DeviceOomError (which the service's admission/degradation
    # ladder turns into backpressure or a smaller rung) instead of
    # producing a silently impossible footprint.  ``governor is None`` is
    # the default zero-overhead path — no ledger, no charging, no checks.
    governor = _make_governor(config, resilience, tracer)
    csr_charge = labels_charge = 0
    construction_rungs: list[str] = []
    if governor is not None:
        csr_charge = graph.memory_bytes()
        if not governor.would_fit(csr_charge) and not graph.is_compact:
            # Construction-time memory rung: drop to the 32-bit layout
            # even when the config left it wide — results stay
            # bit-identical, the topology halves.
            compacted = graph.with_compact_layout()
            if compacted is not graph:
                graph = compacted
                csr_charge = graph.memory_bytes()
                construction_rungs.append("compact-layout")
        governor.reserve("csr", csr_charge)
    eng = make_engine(graph, config, engine)
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
    tracing = tracer is not None and tracer.enabled

    n = graph.num_vertices
    label_dtype: np.dtype = VERTEX_DTYPE
    if graph.is_compact and (config.compact_layout or construction_rungs):
        label_dtype = np.dtype(np.int32)
    if initial_labels is None:
        labels = np.arange(n, dtype=label_dtype)
    else:
        arr = np.asarray(initial_labels)
        if label_dtype != VERTEX_DTYPE and arr.shape[0]:
            lo, hi = int(arr.min()), int(arr.max())
            ii = np.iinfo(np.int32)
            if lo < ii.min or hi > ii.max:  # caller's ids need 64 bits
                label_dtype = VERTEX_DTYPE
        labels = arr.astype(label_dtype, copy=True)
        if labels.shape[0] != n:
            raise ConfigurationError(
                f"initial_labels length {labels.shape[0]} != num_vertices {n}"
            )
    if governor is not None:
        # Labels plus the one working copy every iteration makes (the
        # supervisor snapshot / Cross-Check ``previous``).
        labels_charge = 2 * labels.nbytes
        governor.reserve("labels", labels_charge)

    frontier = Frontier(graph, enabled=config.pruning, arena=eng.arena)
    if initial_active is not None:
        active = np.asarray(initial_active, dtype=np.int64)
        if active.shape[0] and (active.min() < 0 or active.max() >= n):
            raise ConfigurationError("initial_active vertex id out of range")
        frontier.flags[:] = 0
        frontier.flags[active] = 1

    supervisor: KernelSupervisor | None = None
    ckpt: CheckpointManager | None = None
    digest = ""
    start_iteration = 0
    resumed_from: int | None = None
    iterations: list[IterationStats] = []
    converged = n == 0

    if resilience is not None:
        supervisor = KernelSupervisor(eng, graph, config, resilience)
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
            if resilience.resume:
                state = ckpt.latest()
                if state is not None:
                    if state.digest != digest:
                        raise CheckpointError(
                            f"checkpoint in {resilience.checkpoint_dir} was "
                            f"written by a different run (digest "
                            f"{state.digest} != {digest}); refusing to resume"
                        )
                    labels[:] = state.labels
                    frontier.flags[:] = state.flags
                    start_iteration = state.iteration
                    resumed_from = state.iteration
                    iterations = list(state.stats)
                    converged = state.converged or converged
                    supervisor.restore_state(
                        injector_fires=state.injector_fires,
                        last_pl_fraction=state.last_pl_fraction,
                        capacity_scale=state.capacity_scale,
                    )

    meter: BudgetMeter | None = None
    if budget is not None and not budget.unlimited:
        meter = BudgetMeter(budget, config.device)
    degraded_reason: str | None = None

    guard: IntegrityGuard | None = None
    if (
        supervisor is not None
        and resilience.integrity is not None
        and resilience.integrity.enabled
    ):
        guard = IntegrityGuard(
            graph, config, resilience.integrity, tracer=tracer, governor=governor
        )
        supervisor.guard = guard

    t0 = time.perf_counter()
    li = start_iteration
    if not converged:
        # A while (not a range) so the integrity guard can *rewind* ``li``
        # to a restored checkpoint when boundary corruption is detected.
        while not converged and li < config.max_iterations:
            pick_less = config.pick_less_active(li)
            cross_check = config.cross_check_active(li)

            previous = labels.copy() if cross_check else None
            if supervisor is not None:
                outcome = supervisor.move(
                    labels, frontier, pick_less=pick_less, iteration=li
                )
            else:
                outcome = eng.move(labels, frontier, pick_less=pick_less, iteration=li)

            reverted = 0
            if cross_check and previous is not None:
                reverted = cross_check_revert(labels, previous, outcome.changed_vertices)

            if guard is not None:
                # Record the committed label CRC for the boundary audit and
                # fold the accumulated audit/scrub/replay cost into this
                # iteration's counters, so profiles and the budget meter
                # price integrity as real modelled work.
                guard.note_move(labels)
                outcome.counters = outcome.counters + guard.drain()

            if tracing:
                tracer.emit(IterationEvent(
                    iteration=li,
                    changed=outcome.changed,
                    processed=outcome.processed,
                    pick_less=pick_less,
                    cross_check=cross_check,
                    reverted=reverted,
                ))

            iterations.append(
                IterationStats(
                    iteration=li,
                    changed=outcome.changed,
                    processed=outcome.processed,
                    pick_less=pick_less,
                    cross_check=cross_check,
                    reverted=reverted,
                    counters=outcome.counters,
                )
            )

            # Algorithm 1 line 9: converge only when PL was off this iteration.
            if not pick_less and n > 0 and outcome.changed / n < config.tolerance:
                converged = True

            # Budget check at the boundary: a breach stops the run with the
            # best-so-far partition instead of raising — LPA's partition at
            # any boundary is a valid (if unpolished) answer.  Every
            # iteration is charged — including the converging one, whose
            # work is just as real — but a converged run is complete, so
            # only unconverged runs can be degraded by a breach.
            if meter is not None:
                meter.charge(outcome.counters)
            if meter is not None and not converged:
                degraded_reason = meter.breached()
                if degraded_reason is not None:
                    if tracing:
                        tracer.emit(BudgetEvent(
                            iteration=li,
                            reason=degraded_reason,
                            wall_spent=meter.wall_spent,
                            gpu_spent=meter.gpu_spent,
                        ))
                    if supervisor is not None:
                        supervisor.report.append(FaultEvent(
                            iteration=li,
                            attempt=0,
                            fault="RunBudgetBreach",
                            detail=(
                                f"budget limit {degraded_reason!r} reached after "
                                f"{meter.iterations} iteration(s); returning "
                                f"best-so-far partition"
                            ),
                            action="budget-stop",
                            engine=eng.name,
                            status=LaunchStatus.COMPLETED,
                        ))

            # Cooperative cancellation (signal handlers, service shutdown):
            # checked at the boundary like a budget breach, and handled the
            # same way — final snapshot, best-so-far labels, no exception.
            if (
                degraded_reason is None
                and not converged
                and cancel is not None
                and cancel()
            ):
                degraded_reason = "interrupted"

            # Boundary integrity audit — *before* the checkpoint save, so a
            # corrupted state is never made durable.  The supervisor ladder
            # cannot replay a whole boundary; the repair rung here is a
            # rewind to the newest verified checkpoint (bounded by
            # ``max_rewinds``), after which the loop redoes the lost work.
            if guard is not None:
                try:
                    guard.at_boundary(labels, iteration=li)
                except CorruptionDetectedError:
                    state = ckpt.latest() if ckpt is not None else None
                    if (
                        state is not None
                        and state.digest == digest
                        and guard.rewinds < guard.config.max_rewinds
                    ):
                        labels[:] = state.labels
                        frontier.flags[:] = state.flags
                        iterations = list(state.stats)
                        converged = state.converged
                        degraded_reason = None
                        li = state.iteration
                        if supervisor is not None:
                            supervisor.restore_state(
                                injector_fires=state.injector_fires,
                                last_pl_fraction=state.last_pl_fraction,
                                capacity_scale=state.capacity_scale,
                            )
                        guard.note_rewind(labels)
                        if tracing:
                            tracer.emit(IntegrityEvent(
                                iteration=li,
                                check="boundary",
                                action="rewind",
                                detail=(
                                    f"restored verified checkpoint at "
                                    f"iteration {li} "
                                    f"(rewind {guard.rewinds}/"
                                    f"{guard.config.max_rewinds})"
                                ),
                            ))
                        continue
                    raise

            # Snapshot at the iteration boundary: the state here is exactly
            # what a deterministic re-run would hold entering iteration
            # li + 1, so a killed run resumes bit-identically.  A budget
            # breach also snapshots, so a later resume can finish the work.
            if ckpt is not None and (
                ckpt.due(li + 1) or converged or degraded_reason is not None
            ):
                # Checkpoint staging is a real (transient) device buffer:
                # reserve it for the duration of the save.  Under memory
                # pressure the snapshot is *skipped* — a missing
                # checkpoint costs redone work on resume, never
                # correctness — and the skip is recorded, not silent.
                staging = 0
                skip_save = False
                if governor is not None:
                    staging = labels.nbytes + frontier.flags.nbytes
                    try:
                        governor.reserve("checkpoint", staging)
                    except DeviceOomError as exc:
                        staging = 0
                        skip_save = True
                        if supervisor is not None:
                            supervisor.report.append(FaultEvent(
                                iteration=li,
                                attempt=0,
                                fault=type(exc).__name__,
                                detail=f"checkpoint staging skipped: {exc}",
                                action="checkpoint-skip",
                                engine=eng.name,
                                status=LaunchStatus.COMPLETED,
                            ))
                if not skip_save:
                    try:
                        ckpt.save(
                            CheckpointState(
                                labels=labels,
                                flags=frontier.flags,
                                iteration=li + 1,
                                digest=digest,
                                converged=converged,
                                stats=iterations,
                                injector_fires=(
                                    supervisor.injector.fires
                                    if supervisor is not None
                                    and supervisor.injector is not None
                                    else 0
                                ),
                                last_pl_fraction=(
                                    supervisor.last_pl_fraction
                                    if supervisor is not None else None
                                ),
                                capacity_scale=(
                                    supervisor.capacity_scale
                                    if supervisor is not None else 1
                                ),
                            )
                        )
                    finally:
                        if staging:
                            governor.release("checkpoint", staging)

            if converged or degraded_reason is not None:
                break
            li += 1

    wall = time.perf_counter() - t0
    if not converged and degraded_reason is None:
        final_fraction = (
            iterations[-1].changed / n if iterations and n > 0 else 0.0
        )
        if tracing:
            tracer.emit(ConvergenceEvent(
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
                stacklevel=2,
            )
    if labels.dtype != VERTEX_DTYPE:
        # Compact-layout runs compute in int32; the public result is
        # always the canonical wide dtype.
        labels = labels.astype(VERTEX_DTYPE)
    memory_stats: dict | None = None
    if governor is not None:
        # Return every region to the ledger before snapshotting the
        # stats: high-water marks survive release, and a non-zero final
        # ``in_use_bytes`` is a charging bug the tests can see.  The
        # engine/guard releases are idempotent, so a supervisor fallback
        # that already freed the engine's regions is fine.
        release = getattr(eng, "release_memory", None)
        if release is not None:
            release()
        if guard is not None:
            guard.release_memory()
        if labels_charge:
            governor.release("labels", labels_charge)
        if csr_charge:
            governor.release("csr", csr_charge)
        memory_stats = governor.stats()
        memory_stats["construction_rungs"] = list(construction_rungs)
    result = LPAResult(
        labels=labels,
        iterations=iterations,
        converged=converged,
        config=config,
        wall_seconds=wall,
        algorithm=f"nu-lpa[{eng.name}]",
        fault_events=list(supervisor.events) if supervisor is not None else [],
        resumed_from=resumed_from,
        degraded_reason=degraded_reason,
        validation=validation,
        trace=tracer,
        integrity=guard.stats() if guard is not None else None,
        memory=memory_stats,
    )
    if profile:
        # Deferred import: repro.observe.profile pulls in the perf stack
        # (and through it the baselines), which imports this module.
        from repro.observe.profile import build_profile

        result.profile = build_profile(result, device=config.device, tracer=tracer)
    return result


def _run_renumbered(
    graph: CSRGraph,
    config: LPAConfig,
    *,
    engine: str,
    initial_labels,
    initial_active,
    warn_on_no_convergence: bool,
    resilience,
    profile: bool,
    tracer,
    budget,
    cancel,
    validation,
) -> LPAResult:
    """``config.degree_renumber``: run on the degree-sorted graph.

    Renumbering vertices by ascending degree makes each wave's adjacency
    gathers walk near-contiguous CSR ranges (the two-kernel partition is a
    *slice* of the id space instead of a scatter), at the cost of one up-
    front permutation.  The returned labels are mapped back to the original
    numbering, and because default labels are vertex ids the label *values*
    are permuted too — the partition is identical to a non-renumbered run
    up to this renaming, but not bit-identical (documented on the flag).

    ``initial_labels`` is rejected: caller-supplied label values are opaque
    (they need not be vertex ids), so there is no faithful way to renumber
    them and un-renumber the result.
    """
    if initial_labels is not None:
        raise ConfigurationError(
            "degree_renumber cannot be combined with initial_labels: "
            "custom label values are opaque and cannot be renumbered"
        )
    n = graph.num_vertices
    sorted_graph, perm = graph.sorted_by_degree()
    inner_config = replace(config, degree_renumber=False)

    remapped_active = None
    if initial_active is not None:
        active = np.asarray(initial_active, dtype=np.int64)
        if active.shape[0] and (active.min() < 0 or active.max() >= n):
            raise ConfigurationError("initial_active vertex id out of range")
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n, dtype=np.int64)
        remapped_active = inverse[active]

    result = nu_lpa(
        sorted_graph,
        inner_config,
        engine=engine,
        initial_active=remapped_active,
        warn_on_no_convergence=warn_on_no_convergence,
        resilience=resilience,
        profile=profile,
        tracer=tracer,
        budget=budget,
        cancel=cancel,
    )
    # New vertex k is old vertex perm[k]; a label is itself a (new) vertex
    # id, so both the positions and the values map through perm.
    restored = np.empty(n, dtype=VERTEX_DTYPE)
    restored[perm] = perm[result.labels]
    result.labels = restored
    result.validation = validation
    return result
