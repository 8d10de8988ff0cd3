"""The detection service: a resilient multi-run job layer over ``nu_lpa``.

Every robustness mechanism built so far — supervisor ladder, checkpoints,
budgets, validation — protects *one* run.  :class:`DetectionService`
manages a fleet of them with production failure semantics:

* **admission control + backpressure** — a bounded priority queue with
  per-tenant in-flight caps; a full queue rejects with a typed
  :class:`~repro.errors.ServiceOverloaded` carrying a retry-after hint;
* **retries** — capped exponential backoff with deterministic seeded
  jitter, only for fault classes a retry can clear (never validation);
* **per-engine circuit breakers** — a persistently failing engine trips
  its breaker and jobs route to the healthy engine without paying the
  failure latency every time;
* **a degradation ladder per job** — full run → fallback engine →
  coarsened-graph approximation → best-so-far checkpoint labels, each
  rung recorded in the outcome's ``degraded_reason`` and the trace;
* **deadline propagation** — a job's :class:`~repro.core.budget.RunBudget`
  shrinks across retries, so attempt N runs under what attempts 1..N-1
  left behind;
* **crash recovery** — job state journals through the checkpoint layer's
  durability protocol; a restarted service re-admits unfinished jobs
  (resuming partial runs bit-identically) and *proves* completed labels
  via CRC instead of recomputing them.

Execution is deterministic and cooperative: ``drain()`` marks up to
``workers`` jobs running (so a crash observes a realistic in-flight set)
and executes them in admission order on the caller's thread.  The service
clock is *modelled* GPU seconds, which keeps breaker cooldowns and latency
percentiles replayable — the same determinism contract the checkpoint and
chaos layers are built on.
"""

from __future__ import annotations

import mmap
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.budget import RunBudget
from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DuplicateJobError,
    JobNotFoundError,
    MemoryPressure,
    ReproError,
    ServiceOverloaded,
)
from repro.graph.csr import CSRGraph
from repro.observe.schema import SERVICE_SCHEMA_VERSION
from repro.observe.trace import (
    BreakerEvent,
    JobEvent,
    ServiceStatsEvent,
    Tracer,
)
from repro.service.backoff import BackoffPolicy, is_retryable
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.job import (
    GraphRef,
    JobOutcome,
    JobRecord,
    JobSpec,
    JobState,
    RUNGS,
)
from repro.service.journal import ServiceJournal, epoch_dir
from repro.service.queue import AdmissionQueue

if TYPE_CHECKING:
    from repro.stream.processor import StreamProcessor

__all__ = ["ServiceConfig", "DetectionService"]

_ENGINES = ("vectorized", "hashtable")


def _alternate(engine: str) -> str:
    return "vectorized" if engine == "hashtable" else "hashtable"


def _price(result, cfg: LPAConfig) -> float:
    """Modelled GPU seconds of one detection run."""
    from repro.observe.profile import platform_for_device
    from repro.perf.model import estimate_gpu_seconds

    return estimate_gpu_seconds(
        result.total_counters, platform_for_device(cfg.device)
    )


def _held_bytes(arr: np.ndarray) -> int:
    """Bytes ``arr`` holds: none for a stride-0 unit-weight view."""
    return 0 if arr.strides == (0,) else arr.nbytes


def _off_heap(graph: CSRGraph) -> CSRGraph:
    """``graph`` copied into one anonymous memory mapping.

    A resident subscription graph is replaced at every advance.  On the
    malloc heap the replaced arrays leave holes the next epoch's do not
    fit, so peak RSS creeps up; a mapping's pages go back to the OS when
    its last array view is freed.  A unit-weight graph's weights hold no
    buffer, so its copy is built unit-weight too.
    """
    arrays = (graph.offsets, graph.targets, graph.weights)
    arrays = arrays[: 2 if graph.unit_weight else 3]
    starts, size = [], 0
    for arr in arrays:
        size += -size % arr.itemsize  # align each array to its dtype
        starts.append(size)
        size += arr.nbytes
    buf = mmap.mmap(-1, max(size, 1))
    views = []
    for arr, start in zip(arrays, starts):
        view = np.frombuffer(buf, arr.dtype, arr.shape[0], start)
        view[:] = arr
        views.append(view)
    return CSRGraph(*views, validate=False)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning of one :class:`DetectionService` (see docs/service.md).

    Attributes
    ----------
    workers:
        Logical worker slots; bounds how many jobs are in flight at once.
    queue_capacity:
        Bounded admission queue size (pending jobs).
    tenant_inflight:
        Per-tenant pending+running cap (``None`` disables).
    max_attempts:
        Full-run attempts per job before descending the ladder.
    backoff:
        Retry :class:`~repro.service.backoff.BackoffPolicy`.  The default
        has ``base_s=0`` — delays are *recorded* but nothing sleeps, which
        is right for tests and simulation; give a real base to actually
        pace retries.
    breaker:
        Per-engine :class:`~repro.service.breaker.BreakerConfig`.
    breaker_enabled:
        Master switch (the differential test runs both ways).
    lpa:
        Base :class:`~repro.core.config.LPAConfig`; per-job
        ``max_iterations`` / ``tolerance`` overrides apply on top.
    resilience:
        Template :class:`~repro.core.config.ResilienceConfig` for
        supervised runs; per-job checkpoint paths and per-engine fault
        specs are filled in by the service.  ``None`` runs unsupervised
        (no supervisor, no checkpoints) unless a journal is configured.
    engine_faults:
        Optional per-engine fault injection (chaos / breaker testing):
        ``{"hashtable": FaultSpec(...)}`` faults only that engine.
    journal_dir:
        Durable job journal root; ``None`` disables journaling *and*
        crash recovery.
    checkpoint_every / checkpoint_keep:
        Per-job checkpoint cadence and retention inside the journal.
    coarsen_target_fraction:
        Ladder rung 3: coarsen the graph to roughly this fraction of its
        vertices before the approximate run.
    default_deadline_s:
        Deadline applied to jobs that do not set one (``None`` = none).
    retry_after_base_s:
        Fallback retry-after hint before any latency data exists.
    checkpoint_factory:
        Factory with the ``CheckpointManager`` constructor signature used
        for per-job checkpointing (the kill/restart soak injects a
        crashing one).  ``None`` uses the real manager.
    chaos_hook:
        Optional callable ``hook(point, record)`` invoked at deterministic
        execution points (``"job-finished"``, and for subscription jobs
        the stream processor's ``"pre-epoch"`` / ``"mid-epoch-apply"`` /
        ``"post-epoch"``); the soak harnesses raise
        :class:`~repro.resilience.chaos.InjectedCrash` from it.
    stream_differential_every:
        For subscription jobs: every this many epochs, re-detect from
        scratch and record the modularity gap in the epoch trace
        (0 disables — the default; the differential is a test/bench tool).
    snapshot_dir:
        Root of the query :class:`~repro.service.read.SnapshotCatalog`.
        When set, every completed detect job publishes its labels as a
        versioned snapshot (``source="job"``) and every subscription
        epoch publishes one too (``source="epoch"``), atomically — the
        read path (:class:`~repro.service.read.QueryEngine`, ``repro
        query``) serves from here.  ``None`` disables publishing.
    snapshot_keep:
        Per-job snapshot retention ring (``None`` keeps every version).
    memory_budget_bytes:
        Modelled device-memory budget for admission control (see
        docs/service.md).  When set, every submission is checked against
        an analytic peak-footprint estimate
        (:func:`repro.gpu.governor.footprint_for`): a job that cannot fit
        *alone* is rejected with a typed
        :class:`~repro.errors.MemoryPressure`, and jobs whose combined
        footprint would exceed the budget are serialised instead of run
        concurrently.  The budget is also propagated into each job's
        :class:`~repro.core.config.LPAConfig`, so runs enforce it live
        through a :class:`~repro.gpu.governor.MemoryGovernor`.  ``None``
        (the default) disables all memory accounting — the zero-overhead
        path.
    reserved_memory_fraction:
        Fraction of ``memory_budget_bytes`` held back from jobs (runtime,
        fragmentation slack); forwarded to the per-run config.
    """

    workers: int = 2
    queue_capacity: int = 64
    tenant_inflight: int | None = None
    max_attempts: int = 3
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    breaker_enabled: bool = True
    lpa: LPAConfig = field(default_factory=LPAConfig)
    resilience: ResilienceConfig | None = None
    engine_faults: dict | None = None
    journal_dir: str | Path | None = None
    checkpoint_every: int = 1
    checkpoint_keep: int | None = 3
    coarsen_target_fraction: float = 0.125
    default_deadline_s: float | None = None
    retry_after_base_s: float = 1.0
    checkpoint_factory: object | None = None
    chaos_hook: object | None = None
    stream_differential_every: int = 0
    snapshot_dir: str | Path | None = None
    snapshot_keep: int | None = None
    memory_budget_bytes: int | None = None
    reserved_memory_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ConfigurationError(
                f"memory_budget_bytes must be >= 1 (or None); "
                f"got {self.memory_budget_bytes}"
            )
        if not 0.0 <= self.reserved_memory_fraction < 1.0:
            raise ConfigurationError(
                f"reserved_memory_fraction must be in [0, 1); "
                f"got {self.reserved_memory_fraction}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1; got {self.workers}")
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1; got {self.queue_capacity}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1; got {self.max_attempts}"
            )
        if not 0.0 < self.coarsen_target_fraction <= 1.0:
            raise ConfigurationError(
                f"coarsen_target_fraction must be in (0, 1]; "
                f"got {self.coarsen_target_fraction}"
            )
        if self.engine_faults:
            unknown = set(self.engine_faults) - set(_ENGINES)
            if unknown:
                raise ConfigurationError(
                    f"engine_faults names unknown engines {sorted(unknown)}"
                )

    def with_(self, **changes) -> "ServiceConfig":
        """Functional update (``dataclasses.replace`` convenience)."""
        return replace(self, **changes)


class DetectionService:
    """A long-running community-detection job service.

    Typical use::

        service = DetectionService(ServiceConfig(journal_dir="jobs/"))
        service.submit(JobSpec.dataset("j1", "asia_osm", scale=0.1))
        service.drain()
        labels = service.result("j1").outcome.labels

    A service constructed over a journal directory that already holds
    state *recovers* it: completed jobs keep their (CRC-verified) labels,
    pending and in-flight jobs are re-admitted in their original order and
    resume from their per-job checkpoints bit-identically.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        tracer: Tracer | None = None,
        recover: bool = True,
    ) -> None:
        self.config = config or ServiceConfig()
        # Tracer has __len__, so an empty (but enabled) tracer is falsy —
        # test identity, not truthiness.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            tenant_inflight=self.config.tenant_inflight,
        )
        self.breakers = {
            name: CircuitBreaker(name, self.config.breaker) for name in _ENGINES
        }
        self.journal: ServiceJournal | None = None
        if self.config.journal_dir is not None:
            self.journal = ServiceJournal(self.config.journal_dir)
        self.read_catalog = None
        if self.config.snapshot_dir is not None:
            from repro.service.read import SnapshotCatalog

            self.read_catalog = SnapshotCatalog(
                self.config.snapshot_dir,
                keep=self.config.snapshot_keep,
                tracer=self.tracer,
            )
        #: Every job this service knows, admitted or recovered, by id.
        self.jobs: dict[str, JobRecord] = {}
        self._running: deque[JobRecord] = deque()
        self._memory_graphs: dict[str, object] = {}
        #: Caught-up stream processors of subscriptions, by job id; see
        #: :meth:`_execute_subscription`.
        self._processors: dict[str, StreamProcessor] = {}
        self._seq = 0
        self._snapshot_seq = 0
        #: Service clock: modelled GPU seconds of completed work.
        self.clock_s = 0.0
        self._wall_start = time.perf_counter()
        #: Set via :meth:`request_stop` (signal handlers); drain() exits
        #: between jobs and the in-flight run stops at its next boundary.
        self.stop_requested = False
        self.counters = {
            "submitted": 0,
            "rejected": 0,
            "retries": 0,
            "reroutes": 0,
            "recovered": 0,
            "memory_rejected": 0,
            "memory_serialized": 0,
            "memory_degraded": 0,
        }
        #: High-water mark of the combined footprint estimate of the
        #: concurrently scheduled job set (bytes).
        self._memory_inflight_high = 0
        #: Running (sum, count) of completed-job modelled latencies so
        #: :meth:`retry_after_hint` — called on *every* submit — is O(1)
        #: instead of rescanning the whole job table.
        self._latency_sum = 0.0
        self._latency_count = 0
        self.rung_counts = {rung: 0 for rung in RUNGS}
        if self.journal is not None and recover:
            self._recover()

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def submit(self, spec: JobSpec) -> str:
        """Admit one job or raise (``ServiceOverloaded`` on backpressure).

        Returns the job id.  Raises
        :class:`~repro.errors.DuplicateJobError` for an id the service
        already knows — ids are the idempotency key crash recovery is
        built on.
        """
        self.counters["submitted"] += 1
        if spec.job_id in self.jobs:
            raise DuplicateJobError(
                f"job id {spec.job_id!r} was already submitted "
                f"(state: {self.jobs[spec.job_id].state.value})"
            )
        if spec.deadline_s is None and self.config.default_deadline_s is not None:
            spec = replace(spec, deadline_s=self.config.default_deadline_s)
        footprint = self._admission_estimate(spec)
        budget = self.memory_budget()
        if footprint is not None and budget is not None and footprint > budget:
            # No degradation rung can shrink an oversized job under the
            # device: admitting it only burns queue capacity on a
            # guaranteed OOM.  Reject with both sides of the comparison.
            self.counters["memory_rejected"] += 1
            self._emit_job_raw(
                job_id=spec.job_id, state="rejected",
                detail=f"memory pressure: estimate {footprint} B > "
                       f"budget {budget} B",
            )
            raise MemoryPressure(
                f"job {spec.job_id!r} needs an estimated {footprint} bytes "
                f"but the effective device budget is {budget} bytes; "
                f"shrink the graph or raise the budget",
                estimate_bytes=footprint,
                budget_bytes=budget,
                retry_after_s=self.retry_after_hint(),
                queue_depth=self.queue.depth,
            )
        record = JobRecord(
            spec=spec, seq=self._seq, admitted_clock_s=self.clock_s,
            footprint_bytes=footprint,
        )
        try:
            self.queue.push(record, retry_after_s=self.retry_after_hint())
        except ServiceOverloaded:
            self.counters["rejected"] += 1
            raise
        self._seq += 1
        self.jobs[spec.job_id] = record
        if self.journal is not None:
            self.journal.record(record)
        self._emit_job(record, "admitted")
        return spec.job_id

    def submit_graph(self, graph, job_id: str, **kwargs) -> str:
        """Submit an in-memory graph (not crash-recoverable; see GraphRef)."""
        self._memory_graphs[job_id] = graph
        return self.submit(
            JobSpec(job_id=job_id, graph=GraphRef(kind="memory", name=job_id), **kwargs)
        )

    def retry_after_hint(self) -> float:
        """Backpressure hint: expected seconds until a queue slot frees.

        Observed mean modelled job latency times the backlog per worker;
        falls back to ``retry_after_base_s`` before any job has finished.
        """
        per_job = (
            self._latency_sum / self._latency_count
            if self._latency_count
            else self.config.retry_after_base_s
        )
        backlog = self.queue.depth + len(self._running) + 1
        return max(
            self.config.retry_after_base_s,
            per_job * backlog / self.config.workers,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> JobRecord | None:
        """Run the next scheduled job to completion; ``None`` when idle."""
        self._fill_workers()
        if not self._running:
            return None
        record = self._running.popleft()
        self._execute(record)
        return record

    def drain(self, max_jobs: int | None = None) -> int:
        """Run jobs until the queue is empty (or ``max_jobs`` done).

        Returns the number of jobs executed.  Honours
        :meth:`request_stop` between jobs.
        """
        done = 0
        while not self.stop_requested:
            if max_jobs is not None and done >= max_jobs:
                break
            record = self.step()
            if record is None:
                break
            done += 1
        return done

    def request_stop(self) -> None:
        """Ask the service to stop: drain() exits between jobs, and the
        currently running job checkpoints and returns at its next
        iteration boundary (its journal entry stays pending, so a
        restarted service resumes it)."""
        self.stop_requested = True

    def result(self, job_id: str) -> JobRecord:
        """The record of one job; raises ``JobNotFoundError`` if unknown."""
        record = self.jobs.get(job_id)
        if record is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return record

    def _fill_workers(self) -> None:
        """Move pending jobs into the running set, up to ``workers``.

        With a memory budget configured, a job whose footprint would push
        the combined running-set estimate past the budget is *serialised*:
        it stays at the front of the queue and claims its slot once the
        current set retires, instead of running concurrently and tripping
        a live OOM.
        """
        while len(self._running) < self.config.workers and self.queue.depth > 0:
            record = self.queue.pop()
            if not self._memory_admits(record):
                self.queue.requeue(record)
                break
            # Not journaled: recovery re-admits a pending record and
            # resumes it from its checkpoints exactly as it would a
            # running one, so this transition adds nothing it reads.
            record.state = JobState.RUNNING
            self._running.append(record)
            self._emit_job(record, "started")
        inflight = self._memory_inflight()
        if inflight > self._memory_inflight_high:
            self._memory_inflight_high = inflight

    # ------------------------------------------------------------------ #
    # The per-job degradation ladder
    # ------------------------------------------------------------------ #

    def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        if spec.kind == "subscription":
            self._execute_subscription(record)
            return
        graph = self._load_graph(record)
        if graph is None:
            return

        outcome = self._ladder(record, graph)
        if outcome is None:
            if self.stop_requested:
                # Interrupted mid-job: journaled as pending with its spent
                # attempts and budget, so a restart resumes it from its
                # checkpoints.
                record.state = JobState.RUNNING
                if self.journal is not None:
                    self.journal.record(record)
                self._emit_job(record, "interrupted")
                self._running.appendleft(record)
                return
            self._finish_failed(
                record, "every degradation rung failed; see trace for rungs"
            )
            return
        self._finish_completed(record, outcome)

    def _load_graph(self, record: JobRecord):
        """The job's base graph, or ``None`` after failing the job."""
        try:
            return record.spec.graph.load(self._memory_graphs)
        except ReproError as exc:
            self._finish_failed(record, f"graph load failed: {exc}")
            return None

    def _execute_subscription(self, record: JobRecord) -> None:
        """Step one subscription job's stream processor to the log head.

        The job completes when every acknowledged batch has become an
        epoch, and its caught-up processor then stays resident in
        :attr:`_processors`: the execution an :meth:`advance_subscription`
        queues steps it from its current epoch, with no base-graph load
        and no replay.  It goes back only after a clean return, caught up
        or paused by :meth:`request_stop`; any exception leaves none.  An
        execution without one (the first, or any after a restart or a
        failure) builds a processor whose own recovery loads the newest
        journaled epoch and replays the delta log up to it, resuming
        bit-identically (determinism of both application and detection).
        """
        processor = self._processors.pop(record.job_id, None)
        if processor is None:
            graph = self._load_graph(record)
            if graph is None:
                return
        else:
            processor.gpu_seconds = 0.0  # charged per execution
        t0 = time.perf_counter()
        try:
            if processor is None:
                # Construction opens (and fscks) the delta log, so it
                # belongs inside the failure boundary too.
                processor = self._subscription_processor(record, graph)
                processor.recover()
            while not self.stop_requested:
                if processor.step() is None:
                    break
        except ReproError as exc:
            spent = processor.gpu_seconds if processor is not None else 0.0
            record.wall_spent_s += time.perf_counter() - t0
            record.gpu_spent_s += spent
            self.clock_s += spent
            self._finish_failed(record, f"subscription failed: {exc}")
            return
        wall = time.perf_counter() - t0
        record.wall_spent_s += wall
        record.gpu_spent_s += processor.gpu_seconds
        self.clock_s += processor.gpu_seconds
        if processor.graph is not processor.base_graph:
            processor.graph = _off_heap(processor.graph)
        self._processors[record.job_id] = processor
        if self.stop_requested and processor.lag:
            record.state = JobState.RUNNING
            if self.journal is not None:
                self.journal.record(record)
            self._emit_job(
                record, "interrupted",
                detail=f"subscription paused at epoch {processor.epoch} "
                       f"(lag {processor.lag})",
            )
            self._running.appendleft(record)
            return
        self._finish_completed(record, JobOutcome(
            labels=processor.labels,
            rung="full",
            converged=True,
            iterations=processor.epoch,
            stop_detail=f"subscription caught up at epoch {processor.epoch} "
                        f"(log head {processor.log.head_seq})",
            modeled_seconds=processor.gpu_seconds,
            wall_seconds=wall,
        ))

    def _subscription_processor(
        self, record: JobRecord, graph: CSRGraph
    ) -> StreamProcessor:
        """A new processor for subscription ``record`` over base ``graph``.

        Its hooks capture the record, the job config and the catalog but
        never the service, so dropping the service frees its resident
        processors by reference counting.
        """
        from repro.stream.processor import StreamProcessor

        spec = record.spec
        cfg = self._job_config(spec)
        hook = self.config.chaos_hook
        catalog = self.read_catalog
        return StreamProcessor(
            graph,
            spec.stream_dir,
            epoch_dir(self.journal, spec),
            config=cfg,
            engine=spec.engine,
            hops=spec.hops,
            policy=spec.delta_policy,
            tracer=self.tracer,
            differential_every=self.config.stream_differential_every,
            chaos=(None if hook is None
                   else (lambda point: hook(point, record))),
            price=(lambda result: _price(result, cfg)),
            publish=(
                None if catalog is None
                else (lambda state: catalog.publish(
                    spec.job_id, state.labels,
                    source="epoch", epoch=state.epoch,
                ))
            ),
        )

    def advance_subscription(self, job_id: str) -> bool:
        """Re-admit a completed subscription whose log has new batches.

        Returns ``True`` when the job was re-queued (call :meth:`drain`
        to process the new epochs), ``False`` when it is already caught
        up or not yet finished.  The delta log opened here to read the
        head is the one the job's resident processor steps from.
        """
        record = self.result(job_id)
        if record.spec.kind != "subscription":
            raise ConfigurationError(
                f"job {job_id!r} is not a subscription (kind="
                f"{record.spec.kind!r})"
            )
        if record.state is not JobState.COMPLETED:
            return False
        epoch, log = self._subscription_position(record)
        if epoch is not None and epoch >= log.head_seq:
            return False
        self.queue.push(record, retry_after_s=self.retry_after_hint())
        resident = self._processors.get(job_id)
        if resident is not None:
            resident.log = log
        # Not journaled: the record on disk still names the completed
        # epoch, and :meth:`_recover` re-admits a completed subscription
        # whose log head is past it, so the log already records this work.
        record.state = JobState.PENDING
        record.outcome = None
        record.admitted_clock_s = self.clock_s
        self._emit_job(
            record, "admitted",
            detail=f"subscription advanced (epoch "
                   f"{0 if epoch is None else epoch} -> head {log.head_seq})",
        )
        return True

    def _subscription_position(self, record: JobRecord):
        """``(epoch, log)`` of a subscription: its epoch (``None`` when it
        has none journaled) and its freshly opened, fscked ``DeltaLog``.

        A completed outcome's iterations are the processor's epoch, so
        the epoch journal is read only for a record without one.
        """
        from repro.stream.log import DeltaLog

        if record.outcome is not None:
            epoch = record.outcome.iterations
        else:
            from repro.stream.epoch import EpochJournal

            state = EpochJournal(epoch_dir(self.journal, record.spec)).latest()
            epoch = None if state is None else state.epoch
        return epoch, DeltaLog(record.spec.stream_dir)

    def _advance_interrupted(self, record: JobRecord) -> bool:
        """Whether a recovered completed subscription lags its log head:
        an advance was admitted (or batches arrived) before the restart."""
        if (
            record.spec.kind != "subscription"
            or record.state is not JobState.COMPLETED
            or not record.spec.graph.recoverable
        ):
            return False
        try:
            epoch, log = self._subscription_position(record)
        except ReproError:
            return False  # the next advance_subscription reports the log
        return epoch is None or epoch < log.head_seq

    def _ladder(self, record: JobRecord, graph) -> JobOutcome | None:
        """Descend the ladder until some rung produces labels."""
        spec = record.spec
        requested = spec.engine

        # Rung 1: full run on the requested engine (breaker permitting),
        # with job-level retries.
        if self._breaker_allows(requested):
            outcome = self._full_rung(record, graph, requested)
            if outcome is not None or self.stop_requested:
                return outcome
            if record.last_error is not None and not is_retryable(record.last_error):
                # Permanent input problem (validation, format, config):
                # every rung would reject the same bytes the same way.
                return None
        else:
            self._emit_job(
                record, "rerouted", rung="fallback-engine",
                detail=f"breaker open for {requested!r}",
            )
            self.counters["reroutes"] += 1

        # A spent deadline skips straight to the cheapest rung: both the
        # alternate engine and the coarsened run still cost real work.
        budget = record.remaining_budget()
        if budget is not None and budget.exhausted:
            return self._checkpoint_rung(record, graph)

        # Rung 2: one shot on the alternate engine, no injected faults.
        alt = _alternate(requested)
        if self._breaker_allows(alt):
            outcome = self._attempt(
                record, graph, alt, supervised=False,
                rung="fallback-engine",
                reason=f"breaker:{requested}->{alt}"
                if not self._breaker_allows(requested, peek=True)
                else f"fallback:{requested}->{alt}",
            )
            if outcome is not None or self.stop_requested:
                return outcome

        # Rung 3: coarsened-graph approximation.
        outcome = self._coarsened_rung(record, graph)
        if outcome is not None:
            return outcome

        # Rung 4: best-so-far checkpoint labels.
        return self._checkpoint_rung(record, graph)

    def _full_rung(self, record, graph, engine: str) -> JobOutcome | None:
        """Rung 1: supervised full runs with retry + backoff."""
        while record.attempts < self.config.max_attempts:
            budget = record.remaining_budget()
            if budget is not None and budget.exhausted:
                self._emit_job(
                    record, "degraded", rung="checkpoint-labels",
                    detail="propagated deadline exhausted before attempt",
                )
                return None
            attempt = record.attempts
            record.attempts += 1
            outcome = self._attempt(
                record, graph, engine, supervised=True, rung="full",
                reason=None,
            )
            if outcome is not None or self.stop_requested:
                return outcome
            if record.last_error is not None and not is_retryable(record.last_error):
                return None  # permanent: the ladder cannot help either,
                # but the caller will fail the job via _finish_failed.
            delay = self.config.backoff.jittered_delay(record.job_id, attempt)
            record.backoffs.append(delay)
            record.wall_spent_s += delay
            self.counters["retries"] += 1
            self._emit_job(
                record, "retrying",
                detail=f"attempt {attempt + 1} failed "
                       f"({type(record.last_error).__name__}); "
                       f"backoff {delay:.3f}s",
            )
            if delay > 0:
                time.sleep(delay)
            if not self._breaker_allows(engine):
                return None  # breaker tripped mid-retry: descend.
        return None

    def _attempt(
        self, record, graph, engine: str, *, supervised: bool,
        rung: str, reason: str | None,
    ) -> JobOutcome | None:
        """One run attempt on one engine; returns None on failure."""
        spec = record.spec
        cfg = self._job_config(spec)
        resilience = self._resilience_for(spec, engine) if supervised else None
        budget = record.remaining_budget()

        def detect():
            return nu_lpa(
                graph, cfg, engine=engine,
                warn_on_no_convergence=False,
                resilience=resilience,
                validate=spec.validate,
                budget=budget,
                cancel=(lambda: self.stop_requested),
            )

        t0 = time.perf_counter()
        try:
            result = detect()
        except CheckpointError:
            # A stale per-job checkpoint (e.g. the breaker rerouted this
            # job to a different engine than a pre-crash attempt used):
            # scrub it and rerun fresh — determinism makes that safe.
            self._scrub_job_checkpoints(spec.job_id)
            try:
                result = detect()
            except ReproError as exc:
                return self._attempt_failed(record, engine, exc, t0)
        except ReproError as exc:
            return self._attempt_failed(record, engine, exc, t0)

        wall = time.perf_counter() - t0
        gpu = _price(result, cfg)
        record.wall_spent_s += wall
        record.gpu_spent_s += gpu
        record.last_error = None
        self.clock_s += gpu

        if result.degraded_reason == "interrupted":
            return None  # handled by _execute via stop_requested

        # Engine health signal: a clean run closes the loop; a run that
        # needed the supervisor's per-iteration fallback is distress.
        distressed = any(ev.action == "fallback" for ev in result.fault_events)
        self._breaker_record(engine, success=not distressed)

        mem = result.memory
        if mem is not None and (
            mem.get("ooms") or mem.get("shrinks")
            or mem.get("construction_rungs")
        ):
            # The run only fit the device by descending a memory rung
            # (compact layout, table shrink, ...) — count it so operators
            # can see sustained pressure before jobs start failing.
            self.counters["memory_degraded"] += 1

        degraded_reason = result.degraded_reason
        if reason is not None:
            degraded_reason = (
                reason if degraded_reason is None
                else f"{reason};{degraded_reason}"
            )
        elif distressed:
            degraded_reason = degraded_reason or "engine-fallback-iterations"

        stop_detail = ""
        if not result.converged and result.degraded_reason is None:
            n = graph.num_vertices
            frac = result.iterations[-1].changed / n if result.iterations and n else 0.0
            stop_detail = (
                f"max-iterations ({result.num_iterations} iterations, "
                f"final changed fraction {frac:.4f} >= tol {cfg.tolerance})"
            )

        return JobOutcome(
            labels=result.labels,
            rung=rung,
            converged=result.converged,
            iterations=result.num_iterations,
            degraded_reason=degraded_reason,
            stop_detail=stop_detail,
            modeled_seconds=gpu,
            wall_seconds=wall,
        )

    def _attempt_failed(self, record, engine, exc, t0) -> None:
        record.wall_spent_s += time.perf_counter() - t0
        record.last_error = exc
        self._breaker_record(engine, success=False)
        return None

    def _coarsened_rung(self, record, graph) -> JobOutcome | None:
        """Rung 3: approximate answer from the coarsened graph."""
        if graph.num_vertices == 0:
            return None
        from repro.graph.coarsen import coarsen

        spec = record.spec
        cfg = self._job_config(spec)
        target = max(32, int(graph.num_vertices * self.config.coarsen_target_fraction))
        t0 = time.perf_counter()
        try:
            hierarchy = coarsen(graph, target_vertices=target)
            coarse = nu_lpa(
                hierarchy.coarsest, cfg, engine="vectorized",
                warn_on_no_convergence=False,
                budget=record.remaining_budget(),
                cancel=(lambda: self.stop_requested),
            )
        except ReproError as exc:
            record.wall_spent_s += time.perf_counter() - t0
            record.last_error = exc
            return None
        wall = time.perf_counter() - t0
        gpu = _price(coarse, cfg)
        record.wall_spent_s += wall
        record.gpu_spent_s += gpu
        self.clock_s += gpu
        if coarse.degraded_reason == "interrupted":
            return None
        labels = coarse.labels[hierarchy.mapping]
        self._emit_job(
            record, "degraded", rung="coarsened",
            detail=f"approximated on {hierarchy.coarsest.num_vertices} "
                   f"super-vertices (reduction {hierarchy.reduction:.1f}x)",
        )
        return JobOutcome(
            labels=labels,
            rung="coarsened",
            converged=coarse.converged,
            iterations=coarse.num_iterations,
            degraded_reason="coarsened-approximation",
            modeled_seconds=gpu,
            wall_seconds=wall,
        )

    def _checkpoint_rung(self, record, graph) -> JobOutcome | None:
        """Rung 4: the best-so-far labels a failed attempt left behind."""
        if self.journal is None:
            return None
        from repro.resilience.checkpoint import CheckpointManager

        ckpt_dir = self.journal.checkpoint_dir(record.job_id)
        if not ckpt_dir.is_dir():
            return None
        state = CheckpointManager(ckpt_dir).latest()
        if state is None or state.labels.shape[0] != graph.num_vertices:
            return None
        self._emit_job(
            record, "degraded", rung="checkpoint-labels",
            detail=f"best-so-far snapshot at iteration {state.iteration}",
        )
        return JobOutcome(
            labels=state.labels,
            rung="checkpoint-labels",
            converged=state.converged,
            iterations=state.iteration,
            degraded_reason="checkpoint-labels",
        )

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #

    def _finish_completed(self, record: JobRecord, outcome: JobOutcome) -> None:
        record.state = JobState.COMPLETED
        record.outcome = outcome
        record.finished_clock_s = self.clock_s
        self._track_latency(record.latency_s)
        self.rung_counts[outcome.rung] = self.rung_counts.get(outcome.rung, 0) + 1
        self.queue.release(record)
        if self.journal is not None:
            self.journal.record(record)
        # Publish *after* the journal write: a crash mid-publish leaves the
        # catalog serving the previous CRC-verified version while the job
        # itself is durably completed (the recovery republish heals it).
        if (
            self.read_catalog is not None
            and outcome.labels is not None
            and record.spec.kind == "detect"
        ):
            self.read_catalog.publish(
                record.job_id, outcome.labels, source="job"
            )
        self._emit_job(
            record,
            "completed" if not outcome.degraded else "degraded",
            rung=outcome.rung,
            detail=outcome.degraded_reason or outcome.stop_detail or "",
        )
        self._chaos("job-finished", record)

    def _finish_failed(self, record: JobRecord, error: str) -> None:
        record.state = JobState.FAILED
        record.outcome = JobOutcome(labels=None, rung="full", error=error)
        record.finished_clock_s = self.clock_s
        self.queue.release(record)
        if self.journal is not None:
            self.journal.record(record)
        self._emit_job(record, "failed", detail=error)
        self._chaos("job-finished", record)

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #

    def _recover(self) -> None:
        """Replay the journal: completed jobs keep their labels, unfinished
        jobs re-enter the queue in their original order."""
        records, skipped = self.journal.load_all()
        for record in records:
            if self._advance_interrupted(record):
                record.state = JobState.PENDING
                record.outcome = None
        # Journaled jobs were already admitted once; capacity must never
        # drop them on replay, so widen the queue if the journal is bigger.
        unfinished = sum(1 for r in records if r.state is JobState.PENDING)
        self.queue.capacity = max(self.queue.capacity, unfinished)
        saved_cap = self.queue.tenant_inflight
        self.queue.tenant_inflight = None  # same reasoning for tenant caps
        for record in records:
            self.jobs[record.job_id] = record
            self._seq = max(self._seq, record.seq + 1)
            if record.state in (JobState.COMPLETED, JobState.FAILED):
                if record.state is JobState.COMPLETED:
                    self._track_latency(record.latency_s)
                    # Heal a crash between journal write and publish; the
                    # catalog dedupes, so an already-published job is a
                    # no-op and versions stay stable across restarts.
                    if (
                        self.read_catalog is not None
                        and record.outcome is not None
                        and record.outcome.labels is not None
                        and record.spec.kind == "detect"
                    ):
                        self.read_catalog.publish(
                            record.job_id, record.outcome.labels,
                            source="job",
                        )
                if record.outcome is not None and record.outcome.rung in self.rung_counts:
                    if record.state is JobState.COMPLETED:
                        self.rung_counts[record.outcome.rung] += 1
                continue
            if not record.spec.graph.recoverable:
                self._finish_failed(
                    record,
                    "in-memory graph died with the crashed process; resubmit",
                )
                continue
            record.state = JobState.PENDING
            self.counters["recovered"] += 1
            self.queue.push(record, retry_after_s=self.config.retry_after_base_s)
            self._emit_job(
                record, "recovered",
                detail=f"re-admitted after restart (attempts so far: "
                       f"{record.attempts})",
            )
        self.queue.tenant_inflight = saved_cap
        for path in skipped:
            self._emit_job_raw(
                job_id=path.stem, state="failed",
                detail=f"unreadable journal record {path.name} skipped",
            )

    # ------------------------------------------------------------------ #
    # Health / stats
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Schema-validated health snapshot (``repro.observe/service``)."""
        by_state = {state: 0 for state in JobState}
        for record in self.jobs.values():
            by_state[record.state] += 1
        completed = [
            r for r in self.jobs.values() if r.state is JobState.COMPLETED
        ]
        degraded = sum(
            1 for r in completed
            if r.outcome is not None and r.outcome.degraded
        )
        lat_model = np.asarray([r.latency_s for r in completed], dtype=np.float64)
        lat_wall = np.asarray([r.wall_spent_s for r in completed], dtype=np.float64)

        def pct(arr: np.ndarray, q: float) -> float:
            return float(np.percentile(arr, q)) if arr.size else 0.0

        return {
            "schema": "repro.observe/service",
            "version": SERVICE_SCHEMA_VERSION,
            "clock_s": self.clock_s,
            "wall_seconds": time.perf_counter() - self._wall_start,
            "workers": self.config.workers,
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "tenants": self.queue.tenant_loads(),
                "rejected_queue_full": self.queue.rejected_queue_full,
                "rejected_tenant_cap": self.queue.rejected_tenant_cap,
            },
            "jobs": {
                "submitted": self.counters["submitted"],
                "rejected": self.counters["rejected"],
                "recovered": self.counters["recovered"],
                "retries": self.counters["retries"],
                "reroutes": self.counters["reroutes"],
                "pending": by_state[JobState.PENDING],
                "running": by_state[JobState.RUNNING],
                "completed": by_state[JobState.COMPLETED],
                "failed": by_state[JobState.FAILED],
                "degraded": degraded,
            },
            "rungs": dict(self.rung_counts),
            "memory": {
                "enabled": self.config.memory_budget_bytes is not None,
                "budget_bytes": self.memory_budget() or 0,
                "in_flight_bytes": self._memory_inflight(),
                "high_water_bytes": self._memory_inflight_high,
                "rejections": self.counters["memory_rejected"],
                "serialized": self.counters["memory_serialized"],
                "degradations": self.counters["memory_degraded"],
            },
            "subscriptions": {
                "resident": len(self._processors),
                "resident_bytes": sum(
                    _held_bytes(arr)
                    for p in self._processors.values()
                    for arr in (p.graph.offsets, p.graph.targets,
                                p.graph.weights, p.labels)
                ),
            },
            "breakers": [b.snapshot() for b in self.breakers.values()],
            "latency": {
                "count": int(lat_model.size),
                "p50_modeled_s": pct(lat_model, 50),
                "p95_modeled_s": pct(lat_model, 95),
                "p50_wall_s": pct(lat_wall, 50),
                "p95_wall_s": pct(lat_wall, 95),
            },
            "totals": {
                "modeled_seconds": self.clock_s,
                "wall_spent_s": float(
                    sum(r.wall_spent_s for r in self.jobs.values())
                ),
            },
        }

    def snapshot(self) -> dict:
        """Emit a :class:`ServiceStatsEvent` and return the full stats."""
        doc = self.stats()
        self._snapshot_seq += 1
        self.tracer.emit(ServiceStatsEvent(
            iteration=self._snapshot_seq,
            queue_depth=doc["queue"]["depth"],
            running=doc["jobs"]["running"],
            completed=doc["jobs"]["completed"],
            failed=doc["jobs"]["failed"],
            degraded=doc["jobs"]["degraded"],
            p50_latency_s=doc["latency"]["p50_modeled_s"],
            p95_latency_s=doc["latency"]["p95_modeled_s"],
            breaker_states=tuple(
                f"{b['engine']}:{b['state']}" for b in doc["breakers"]
            ),
        ))
        return doc

    # ------------------------------------------------------------------ #
    # Memory-aware admission
    # ------------------------------------------------------------------ #

    def memory_budget(self) -> int | None:
        """Effective admission budget in bytes (``None`` = unmetered).

        ``memory_budget_bytes`` minus the reserved fraction — the same
        arithmetic the per-run :class:`~repro.gpu.governor.MemoryGovernor`
        applies, so admission and live enforcement agree on the ceiling.
        """
        raw = self.config.memory_budget_bytes
        if raw is None:
            return None
        return max(1, int(raw * (1.0 - self.config.reserved_memory_fraction)))

    def _admission_estimate(self, spec: JobSpec) -> int | None:
        """Analytic peak-footprint estimate for one submission, in bytes.

        Returns ``None`` when no budget is configured (zero-overhead
        path) or when the graph cannot be materialised here — the load
        error then surfaces through the normal execution path with its
        own typed error instead of masquerading as memory pressure.
        """
        if self.config.memory_budget_bytes is None:
            return None
        try:
            graph = spec.graph.load(self._memory_graphs)
        except ReproError:
            return None
        from repro.gpu.governor import footprint_for

        template = self.config.resilience
        estimate = footprint_for(
            graph,
            self._job_config(spec),
            engine=spec.engine,
            integrity=(template is not None and template.integrity is not None),
            checkpointing=(self.journal is not None
                           or (template is not None
                               and template.checkpoint_dir is not None)),
        )
        return int(estimate["total"])

    def _memory_admits(self, record: JobRecord) -> bool:
        """Whether this job fits next to the currently scheduled set."""
        budget = self.memory_budget()
        if budget is None:
            return True
        if record.footprint_bytes is None:
            # Recovered record (footprint is not journaled): re-estimate.
            record.footprint_bytes = self._admission_estimate(record.spec)
        if record.footprint_bytes is None or not self._running:
            # Unknown estimate, or nothing else running: admit — a job
            # that fits alone must always make progress (the per-run
            # governor still enforces the budget live).
            return True
        if self._memory_inflight() + record.footprint_bytes <= budget:
            return True
        self.counters["memory_serialized"] += 1
        self._emit_job(
            record, "serialized",
            detail=f"footprint {record.footprint_bytes} B would exceed "
                   f"budget {budget} B next to {len(self._running)} "
                   f"running job(s); waiting for memory",
        )
        return False

    def _memory_inflight(self) -> int:
        """Combined footprint estimate of the scheduled set, in bytes."""
        return sum(r.footprint_bytes or 0 for r in self._running)

    def _job_config(self, spec: JobSpec) -> LPAConfig:
        cfg = self.config.lpa
        changes = {}
        if spec.max_iterations is not None:
            changes["max_iterations"] = spec.max_iterations
        if spec.tolerance is not None:
            changes["tolerance"] = spec.tolerance
        if (self.config.memory_budget_bytes is not None
                and cfg.memory_budget_bytes is None):
            changes["memory_budget_bytes"] = self.config.memory_budget_bytes
            changes["reserved_memory_fraction"] = (
                self.config.reserved_memory_fraction
            )
        return cfg.with_(**changes) if changes else cfg

    def _resilience_for(self, spec: JobSpec, engine: str) -> ResilienceConfig | None:
        template = self.config.resilience or ResilienceConfig()
        faults = (self.config.engine_faults or {}).get(engine)
        if self.journal is None:
            if faults is None and self.config.resilience is None:
                return None
            return template.with_(faults=faults)
        return template.with_(
            faults=faults,
            checkpoint_dir=self.journal.checkpoint_dir(spec.job_id),
            checkpoint_every=self.config.checkpoint_every,
            checkpoint_keep=self.config.checkpoint_keep,
            resume=True,
            checkpoint_factory=self.config.checkpoint_factory,
        )

    def _scrub_job_checkpoints(self, job_id: str) -> None:
        if self.journal is None:
            return
        ckpt_dir = self.journal.checkpoint_dir(job_id)
        if ckpt_dir.is_dir():
            for path in ckpt_dir.glob("*"):
                path.unlink(missing_ok=True)

    def _breaker_allows(self, engine: str, *, peek: bool = False) -> bool:
        if not self.config.breaker_enabled:
            return True
        breaker = self.breakers[engine]
        if peek:
            return breaker.state != "open"
        before = len(breaker.transitions)
        allowed = breaker.allow(self.clock_s)
        self._mirror_breaker(breaker, before)
        return allowed

    def _breaker_record(self, engine: str, *, success: bool) -> None:
        if not self.config.breaker_enabled:
            return
        breaker = self.breakers[engine]
        before = len(breaker.transitions)
        breaker.record(success, self.clock_s)
        self._mirror_breaker(breaker, before)

    def _mirror_breaker(self, breaker: CircuitBreaker, before: int) -> None:
        for clock, transition, rate in breaker.transitions[before:]:
            self.tracer.emit(BreakerEvent(
                iteration=sum(
                    1 for r in self.jobs.values()
                    if r.state in (JobState.COMPLETED, JobState.FAILED)
                ),
                engine=breaker.engine,
                transition=transition,
                failure_rate=rate,
            ))

    def _emit_job(self, record: JobRecord, state: str, *, rung: str = "",
                  detail: str = "") -> None:
        self.tracer.emit(JobEvent(
            iteration=record.attempts,
            job_id=record.job_id,
            state=state,
            rung=rung,
            detail=detail,
        ))

    def _emit_job_raw(self, *, job_id: str, state: str, detail: str) -> None:
        self.tracer.emit(JobEvent(
            iteration=0, job_id=job_id, state=state, detail=detail,
        ))

    def _track_latency(self, latency_s: float) -> None:
        """Fold one completed job's latency into the running mean."""
        if latency_s > 0:
            self._latency_sum += latency_s
            self._latency_count += 1

    def _chaos(self, point: str, record: JobRecord) -> None:
        hook = self.config.chaos_hook
        if hook is not None:
            hook(point, record)
