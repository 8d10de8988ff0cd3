"""Structured tracing over the simulated GPU.

A :class:`Tracer` collects typed event records from the instrumented hook
points — kernel launches, per-wave :class:`~repro.gpu.metrics.KernelCounters`
deltas, iteration boundaries, and the resilience supervisor's degradation
rungs.  Hook sites are written so a *disabled* (or absent) tracer costs one
attribute test and one boolean check per wave and nothing else; the
per-wave counter snapshotting that makes deltas possible only happens when
a tracer is both attached and enabled.

Events are plain dataclasses with an ``as_dict()`` so the whole trace
serialises to JSON without custom encoders; :mod:`repro.observe.profile`
aggregates them into a :class:`~repro.observe.profile.RunProfile`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator

__all__ = [
    "TraceEvent",
    "KernelLaunchEvent",
    "WaveEvent",
    "IterationEvent",
    "FaultRungEvent",
    "BudgetEvent",
    "ConvergenceEvent",
    "JobEvent",
    "BreakerEvent",
    "ServiceStatsEvent",
    "EpochEvent",
    "QueryEvent",
    "QueryStatsEvent",
    "ScrubEvent",
    "IntegrityEvent",
    "EccEvent",
    "MemoryEvent",
    "OomEvent",
    "SnapshotSkipEvent",
    "Tracer",
    "counter_delta",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base record: every event knows its LPA iteration."""

    iteration: int

    #: Discriminator used in serialised form; overridden per subclass.
    kind = "event"

    def as_dict(self) -> dict:
        """JSON-ready representation (adds the ``kind`` discriminator)."""
        d = asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class KernelLaunchEvent(TraceEvent):
    """One simulated kernel launch (one degree-class per iteration)."""

    kernel: str
    num_items: int
    num_waves: int

    kind = "kernel_launch"


@dataclass(frozen=True)
class WaveEvent(TraceEvent):
    """One residency wave and the counter increments it produced."""

    kernel: str
    wave_index: int
    #: Half-open item range ``[lo, hi)`` of the wave within its grid.
    lo: int
    hi: int
    #: :class:`KernelCounters` delta for this wave, as a plain dict.
    counters: dict = field(default_factory=dict)

    kind = "wave"


@dataclass(frozen=True)
class IterationEvent(TraceEvent):
    """One completed LPA iteration (driver-level boundary record)."""

    changed: int
    processed: int
    pick_less: bool
    cross_check: bool
    reverted: int

    kind = "iteration"


@dataclass(frozen=True)
class FaultRungEvent(TraceEvent):
    """One step down the resilience supervisor's degradation ladder."""

    attempt: int
    fault: str
    action: str

    kind = "fault_rung"


@dataclass(frozen=True)
class BudgetEvent(TraceEvent):
    """A :class:`~repro.core.budget.RunBudget` limit stopped the run early.

    Recorded at the iteration boundary where the breach was detected; the
    run returns its best-so-far partition with ``result.degraded`` set
    rather than raising.
    """

    #: Which limit tripped: ``wall-clock`` | ``gpu-seconds`` | ``iterations``.
    reason: str
    #: Wall-clock seconds spent by the driver loop when it stopped.
    wall_spent: float
    #: Modelled GPU seconds charged to the run when it stopped (0.0 when
    #: no ``gpu_seconds`` budget was set — uncharged, not free).
    gpu_spent: float

    kind = "budget_breach"


@dataclass(frozen=True)
class ConvergenceEvent(TraceEvent):
    """The run ended without meeting τ (the trace twin of
    :class:`~repro.errors.ConvergenceWarning`).

    Emitted at the final iteration boundary when ``max_iterations`` was
    exhausted, so service logs and ``degraded_reason`` strings can report
    *why* a job stopped without re-deriving it from the iteration list.
    """

    #: Iterations performed (== the config's cap when this event fires).
    iterations: int
    #: Changed-vertex fraction of the final iteration.
    final_fraction: float
    #: The tolerance τ the run failed to meet.
    tolerance: float

    kind = "no_convergence"


@dataclass(frozen=True)
class JobEvent(TraceEvent):
    """One job-service lifecycle transition.

    Service events reuse the ``iteration`` base field for the job's
    *attempt* index (0-based), which plays the same role at the job level
    that the LPA iteration plays inside a run.
    """

    job_id: str
    #: ``admitted`` | ``started`` | ``retrying`` | ``rerouted`` |
    #: ``completed`` | ``degraded`` | ``failed`` | ``recovered`` |
    #: ``interrupted``.
    state: str
    #: Degradation-ladder rung that produced (or will produce) the labels:
    #: ``full`` | ``fallback-engine`` | ``coarsened`` |
    #: ``checkpoint-labels`` (empty while not yet known).
    rung: str = ""
    detail: str = ""

    kind = "job"


@dataclass(frozen=True)
class BreakerEvent(TraceEvent):
    """A per-engine circuit breaker changed state.

    ``iteration`` carries the completed-job count at transition time (the
    service's discrete clock tick).
    """

    engine: str
    #: ``closed->open`` | ``open->half-open`` | ``half-open->closed`` |
    #: ``half-open->open``.
    transition: str
    #: Failure rate over the sliding window when the transition happened.
    failure_rate: float

    kind = "breaker"


@dataclass(frozen=True)
class ServiceStatsEvent(TraceEvent):
    """A periodic health snapshot of the job service.

    ``iteration`` carries the snapshot sequence number.  The full
    machine-readable snapshot is the schema-validated document from
    :meth:`repro.service.DetectionService.stats`; this event carries the
    headline numbers so a trace alone can reconstruct the service's
    trajectory.
    """

    queue_depth: int
    running: int
    completed: int
    failed: int
    degraded: int
    #: Modelled-clock p50/p95 job latency (seconds; 0.0 with no data).
    p50_latency_s: float
    p95_latency_s: float
    #: ``engine:state`` pairs, e.g. ``("hashtable:open", "vectorized:closed")``.
    breaker_states: tuple[str, ...] = ()

    kind = "service_stats"


@dataclass(frozen=True)
class EpochEvent(TraceEvent):
    """One streaming epoch: a delta batch applied and labels re-detected.

    ``iteration`` carries the epoch number (== the sequence number of the
    batch that produced it; epoch 0 is the initial full detection).
    """

    #: Applied op counts by kind (quarantined ops excluded).
    added: int
    removed: int
    updated: int
    #: Ops dropped to the dead-letter file by this batch.
    quarantined: int
    #: Vertices incident to applied ops.
    touched: int
    #: Warm-start frontier size (``touched`` plus its hops-neighbourhood).
    frontier: int
    #: ``frontier / num_vertices`` (0.0 on an empty graph).
    frontier_fraction: float
    #: Graph shape at this epoch.
    num_vertices: int
    num_edges: int
    #: LPA iterations the incremental re-detection needed.
    lpa_iterations: int = 0
    #: |Q_incremental - Q_scratch| when the differential check ran.
    modularity_gap: float | None = None

    kind = "epoch"


@dataclass(frozen=True)
class QueryEvent(TraceEvent):
    """One read-path query served from a published snapshot.

    ``iteration`` carries the engine's running op count.  Only emitted
    while a tracer is enabled — the serving hot path stays untraced by
    default.
    """

    job_id: str
    #: ``membership`` | ``roster`` | ``community_sizes`` | ``diff``.
    op: str
    #: The queried key: vertex id, community label, or target version
    #: (-1 for keyless ops).
    key: int
    #: Elements in the answer (1 for membership, |C| for roster, ...).
    result_size: int
    #: Snapshot version that served the answer.
    snapshot_version: int

    kind = "query"


@dataclass(frozen=True)
class QueryStatsEvent(TraceEvent):
    """Periodic read-path health snapshot (op counters by kind).

    ``iteration`` carries the snapshot sequence number, mirroring
    :class:`ServiceStatsEvent` on the write side.
    """

    membership: int
    roster: int
    community_sizes: int
    diff: int
    refresh: int
    #: Jobs with an open served snapshot.
    served_jobs: int
    #: Corrupt snapshot files the catalog skipped over so far.
    skipped_snapshots: int

    kind = "query_stats"


@dataclass(frozen=True)
class ScrubEvent(TraceEvent):
    """One ABFT scrub pass over the immutable CSR arrays.

    Emitted every time the :class:`~repro.integrity.guard.IntegrityGuard`
    walks the offsets/targets/weights checksums, clean or not, so a trace
    shows the amortised scrub cadence alongside its modelled cost.
    """

    #: Arrays whose running checksum no longer matched (empty = clean).
    mismatched: tuple[str, ...]
    #: Arrays re-materialised in place from the golden copies.
    repaired: tuple[str, ...]
    #: Bytes the scrub sweep read (charged to the perf model).
    scrubbed_bytes: int
    #: Modelled GPU seconds the sweep cost.
    modeled_seconds: float

    kind = "scrub"


@dataclass(frozen=True)
class IntegrityEvent(TraceEvent):
    """An ABFT guard verdict: a detected corruption or a repair action.

    ``check`` names the guard that fired (``csr-checksum`` |
    ``label-conservation`` | ``community-trajectory`` | ``label-crc`` |
    ``spot-audit`` | ``shadow-replay``); ``action`` says what happened
    next (``detected`` | ``repaired`` | ``rewind`` | ``verified``).
    """

    check: str
    action: str
    detail: str = ""

    kind = "integrity"


@dataclass(frozen=True)
class EccEvent(TraceEvent):
    """SEC-DED activity observed by one scrub pass.

    Single-bit upsets are corrected silently by the hardware model and
    only counted here; a non-zero ``detected`` means a double-bit error
    was found and an :class:`~repro.errors.EccError` was raised.
    """

    #: Single-bit errors corrected in place this pass.
    corrected: int
    #: Uncorrectable (double-bit) errors found this pass.
    detected: int
    #: Cumulative corrected count for the run.
    corrected_total: int

    kind = "ecc"


@dataclass(frozen=True)
class MemoryEvent(TraceEvent):
    """One ledger transaction of the device-memory governor.

    Emitted by :class:`repro.gpu.governor.MemoryGovernor` for every
    reserve/release and for injected budget shrinks, so a trace can
    replay the modeled memory timeline of a run exactly.  ``iteration``
    carries the governor's transaction sequence number (the governor
    has no view of the LPA iteration).
    """

    #: Ledger region: ``csr`` | ``labels`` | ``hashtable`` | ``arena`` |
    #: ``integrity`` | ``checkpoint``.
    region: str
    #: ``reserve`` | ``release`` | ``shrink-budget``.
    action: str
    #: Bytes moved by this transaction (budget delta for a shrink).
    nbytes: int
    #: Ledger total after the transaction.
    in_use_bytes: int
    #: Effective budget after the transaction.
    budget_bytes: int

    kind = "memory"


@dataclass(frozen=True)
class OomEvent(TraceEvent):
    """A reservation (or injected shrink) pushed the ledger over budget.

    The trace twin of :class:`~repro.errors.DeviceOomError`:
    ``iteration`` carries the governor's transaction sequence number,
    and the byte fields mirror the error's attributes so either record
    alone reconstructs the failure.
    """

    #: Region of the failed reservation (``""`` for an injected shrink).
    region: str
    #: Bytes the failed reservation asked for (0 for a shrink).
    requested_bytes: int
    #: Ledger total at failure time.
    in_use_bytes: int
    #: Effective budget the check ran against.
    budget_bytes: int

    kind = "oom"


@dataclass(frozen=True)
class SnapshotSkipEvent(TraceEvent):
    """The snapshot catalog skipped a damaged version file.

    ``iteration`` carries the skipped snapshot's version number.  Emitted
    by :meth:`repro.service.read.SnapshotCatalog.latest` as it falls back
    generation-by-generation, so operators watching the trace stream see
    at-rest corruption the moment the read path routes around it.
    """

    job_id: str
    #: File name of the damaged snapshot (not the full path).
    path: str
    reason: str

    kind = "snapshot_skip"


def counter_delta(before: dict, after: dict) -> dict:
    """Per-field difference of two counter dicts, zero fields dropped."""
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


class Tracer:
    """Collects :class:`TraceEvent` records from instrumented hook points.

    Attach to an engine (``engine.tracer = tracer``) or pass
    ``tracer=``/``profile=True`` to :func:`~repro.core.lpa.nu_lpa`.  The
    ``enabled`` flag is the single switch hook sites test; a disabled
    tracer records nothing and costs nothing measurable (see
    ``tests/observe/test_overhead.py``).
    """

    __slots__ = ("enabled", "events")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    # ------------------------------------------------------------------ #

    def emit(self, event: TraceEvent) -> None:
        """Append one event (no-op while disabled)."""
        if self.enabled:
            self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events whose ``kind`` discriminator matches."""
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        """Drop all recorded events (the enabled flag is untouched)."""
        self.events.clear()

    def as_dicts(self) -> list[dict]:
        """The whole trace as JSON-ready dicts, in record order."""
        return [e.as_dict() for e in self.events]
