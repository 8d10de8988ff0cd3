"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` from misuse of NumPy, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "GraphConstructionError",
    "GraphValidationError",
    "HashtableFullError",
    "KernelLaunchError",
    "KernelTimeoutError",
    "TransientKernelError",
    "EccError",
    "DeviceOomError",
    "InvariantViolation",
    "IntegrityError",
    "CorruptionDetectedError",
    "ResilienceExhaustedError",
    "ContainerError",
    "CheckpointError",
    "CheckpointResumeError",
    "CheckpointNotFoundError",
    "CheckpointCorruptError",
    "ConfigurationError",
    "DatasetError",
    "SchemaValidationError",
    "StreamError",
    "DeltaLogCorruptError",
    "DeltaValidationError",
    "SnapshotError",
    "SnapshotCorruptError",
    "SnapshotNotFoundError",
    "ServiceOverloaded",
    "MemoryPressure",
    "DuplicateJobError",
    "JobNotFoundError",
    "JournalVersionError",
    "ConvergenceWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphFormatError(ReproError):
    """A graph file could not be parsed (bad header, ragged row, ...)."""


class GraphConstructionError(ReproError):
    """Edge data passed to a builder is structurally invalid.

    Examples: negative vertex ids, mismatched ``src``/``dst`` lengths, or a
    requested vertex count smaller than the largest endpoint.
    """


class GraphValidationError(ReproError):
    """A graph failed validation under the ``strict`` policy.

    Raised by :func:`repro.resilience.validate.validate_graph`; carries the
    machine-readable :class:`~repro.resilience.validate.ValidationReport`
    listing every issue found in :attr:`report`.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        #: The :class:`~repro.resilience.validate.ValidationReport`.
        self.report = report


class HashtableFullError(ReproError):
    """An open-addressing insert exhausted ``MAX_RETRIES`` probes.

    The paper sizes every per-vertex table so this "is avoided by ensuring
    the hashtable has sufficient capacity for all entries"; hitting this
    error therefore indicates a sizing bug rather than expected behaviour.
    """


class KernelLaunchError(ReproError):
    """A simulated kernel was launched with an invalid configuration."""


class KernelTimeoutError(KernelLaunchError):
    """A simulated kernel exceeded its watchdog budget and was killed.

    Real GPUs kill kernels that hold an SM past the driver watchdog; the
    fault injector raises this to model that class of failure.  The kernel
    supervisor treats it as retryable.
    """


class TransientKernelError(ReproError):
    """A transient device fault (e.g. an ``atomicCAS`` retry storm).

    Models faults that clear on re-execution: contention storms, spurious
    ECC corrections, scheduler hiccups.  The kernel supervisor retries
    these with backoff before descending the degradation ladder.
    """


class EccError(TransientKernelError):
    """A SEC-DED scrub found an uncorrectable (double-bit) memory error.

    Single-bit upsets are corrected in place and only counted; a double-bit
    error within one ECC word is *detected but uncorrectable* — the device
    poisons the page and the kernel must be replayed from clean state.  The
    supervisor treats this like any transient fault: restore the pre-move
    snapshot and retry (the scrub model redraws its upsets per attempt).
    """


class DeviceOomError(TransientKernelError):
    """A modeled device-memory reservation exceeded the effective budget.

    Raised by :class:`repro.gpu.governor.MemoryGovernor` when a
    ``reserve`` would push the allocation ledger past
    ``global_memory_bytes`` (minus the reserved fraction), and by the
    ``"oom"`` fault kind when an injected budget shrink leaves the
    ledger over budget.  Subclasses :class:`TransientKernelError` so
    the kernel supervisor (and the service's job-level retry
    classifier) treat it as retryable: memory pressure is relieved by
    the ladder's memory rungs (compact layout, smaller hashtables,
    engine fallback, coarsening), not by giving up.
    """

    def __init__(
        self,
        message: str,
        *,
        region: str = "",
        requested_bytes: int = 0,
        in_use_bytes: int = 0,
        budget_bytes: int = 0,
    ) -> None:
        super().__init__(message)
        #: Ledger region of the failed reservation (``""`` for a shrink).
        self.region = region
        #: Bytes the failed reservation asked for (0 for a shrink).
        self.requested_bytes = requested_bytes
        #: Ledger total at the time of the failure.
        self.in_use_bytes = in_use_bytes
        #: Effective budget the reservation was checked against.
        self.budget_bytes = budget_bytes


class InvariantViolation(ReproError):
    """A post-kernel invariant check failed (suspected silent corruption).

    Raised by :mod:`repro.resilience.invariants` when a supervised move
    produces labels outside ``[0, |V|)`` or non-finite hashtable values.
    The supervisor restores the pre-move snapshot and retries.
    """


class IntegrityError(InvariantViolation):
    """An ABFT integrity guard detected corruption a cheap invariant missed.

    Raised by :class:`repro.integrity.guard.IntegrityGuard` when a CSR
    checksum, label-conservation audit, hashtable spot-audit, or shadow
    replay disagrees with the primary computation.  Subclasses
    :class:`InvariantViolation` so the existing supervisor ladder
    (retry → regrow → fallback → abort) applies unchanged.
    """


class CorruptionDetectedError(IntegrityError):
    """Corruption detected at an iteration boundary, outside any one move.

    The supervisor ladder cannot help here — the committed label state
    itself is suspect — so the driver rewinds to the last good checkpoint
    (when one exists and the rewind budget allows) before re-raising.
    """


class ResilienceExhaustedError(ReproError):
    """Every rung of the degradation ladder failed for one iteration.

    Carries the structured :class:`~repro.resilience.report.FaultReport`
    describing each attempt in :attr:`report`.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        #: The :class:`~repro.resilience.report.FaultReport` of the run.
        self.report = report


class ContainerError(ReproError):
    """A durable container file could not be written, read, or verified.

    Raised only by :mod:`repro.container`; each store re-raises it as its
    own type (:class:`CheckpointError`, :class:`StreamError`,
    :class:`SnapshotCorruptError`, ...).
    """


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or matched to this run."""


class CheckpointResumeError(CheckpointError):
    """A resume was requested in a way that can never succeed.

    The misuse class (e.g. ``--resume`` without ``--checkpoint-dir``):
    the request itself is malformed, before any directory is even looked
    at.  Gets its own CLI exit code (3) so scripts can tell "fix the
    invocation" from "nothing to resume" (4) and "checkpoints damaged"
    (5).
    """


class CheckpointNotFoundError(CheckpointError):
    """A resume was requested but the directory holds no checkpoint at all.

    Raised by :func:`repro.resilience.checkpoint.preflight_resume` when the
    checkpoint directory is missing or contains no ``ckpt-*.ckpt`` file —
    distinct from :class:`CheckpointCorruptError` so callers (and the CLI's
    exit codes) can tell "nothing was ever written" from "everything that
    was written is damaged".
    """


class CheckpointCorruptError(CheckpointError):
    """Every checkpoint generation in a directory failed verification (or
    every one is in an earlier build's layout).

    Carries the per-generation failure reasons in :attr:`reasons` (newest
    first), mirroring what ``repro ckpt fsck`` would print.
    """

    def __init__(self, message: str, reasons: list[str] | None = None) -> None:
        super().__init__(message)
        #: Why each generation was rejected, newest first.
        self.reasons = reasons or []


class ConfigurationError(ReproError):
    """An :class:`repro.core.config.LPAConfig` field is out of range."""


class DatasetError(ReproError):
    """A dataset name is unknown or its generator parameters are invalid."""


class SchemaValidationError(ReproError):
    """A profile/bench JSON document does not match its declared schema.

    Raised by :mod:`repro.observe.schema`; the message names the offending
    field path (e.g. ``bench.graphs[3].counters.probes``).
    """


class StreamError(ReproError):
    """A streaming-graph pipeline operation failed (log, epoch, or replay)."""


class DeltaLogCorruptError(StreamError):
    """A delta-log segment is damaged beyond its recoverable torn tail.

    A torn *tail* — the last frames of the newest segment, killed mid-
    append before the fsync — is expected and silently truncated on open.
    This error means something stronger: a CRC-invalid frame in the middle
    of the committed record stream, where truncation would silently drop
    acknowledged batches.  Carries the per-segment findings in
    :attr:`reasons`, mirroring ``repro stream fsck``.
    """

    def __init__(self, message: str, reasons: list[str] | None = None) -> None:
        super().__init__(message)
        #: Per-segment damage descriptions, in segment order.
        self.reasons = reasons or []


class DeltaValidationError(StreamError):
    """A delta batch failed validation under the ``strict`` policy.

    Carries the machine-readable
    :class:`~repro.stream.delta.DeltaValidationReport` in :attr:`report`,
    the same contract :class:`GraphValidationError` keeps for whole-graph
    sweeps.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        #: The :class:`~repro.stream.delta.DeltaValidationReport`.
        self.report = report


class SnapshotError(ReproError):
    """A query snapshot could not be written, read, or verified."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file is unreadable or failed its structural or CRC
    verification.

    Raised by :meth:`repro.service.read.Snapshot.open` /
    :meth:`~repro.service.read.Snapshot.verify`; the catalog's
    :meth:`~repro.service.read.SnapshotCatalog.latest` catches it and
    falls back generation-by-generation past the damage, recording each
    skipped file.
    """


class SnapshotNotFoundError(SnapshotError):
    """A job has no readable snapshot in the catalog.

    Distinct from :class:`SnapshotCorruptError` so callers can tell
    "nothing was ever published" from "everything published is damaged"
    (the message says which of the two happened).
    """


class ServiceOverloaded(ReproError):
    """The job service refused a submission (backpressure).

    Raised by :meth:`repro.service.DetectionService.submit` when the bounded
    admission queue is full (``reason="queue-full"``) or the submitting
    tenant is at its in-flight cap (``reason="tenant-cap"``).  The
    :attr:`retry_after_s` hint tells the client how long to wait before
    resubmitting — derived from the observed modelled job latency and the
    current queue depth, so it shrinks as the backlog drains.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "queue-full",
        retry_after_s: float = 1.0,
        queue_depth: int = 0,
    ) -> None:
        super().__init__(message)
        #: ``"queue-full"`` or ``"tenant-cap"``.
        self.reason = reason
        #: Suggested client wait before resubmitting, in seconds.
        self.retry_after_s = retry_after_s
        #: Pending jobs at rejection time.
        self.queue_depth = queue_depth


class MemoryPressure(ReproError):
    """The job service refused a submission for memory reasons.

    Raised by :meth:`repro.service.DetectionService.submit` when the
    admission-time footprint estimate of a job (graph + engine tables +
    workspace + integrity overhead) exceeds the device memory budget:
    no degradation rung can make the job fit, so admitting it would
    only burn queue capacity on a guaranteed
    :class:`DeviceOomError`.  Carries both sides of the comparison so
    a client can right-size the resubmission.
    """

    def __init__(
        self,
        message: str,
        *,
        estimate_bytes: int = 0,
        budget_bytes: int = 0,
        retry_after_s: float = 1.0,
        queue_depth: int = 0,
    ) -> None:
        super().__init__(message)
        #: Analytic peak-footprint estimate of the rejected job.
        self.estimate_bytes = estimate_bytes
        #: Effective device budget the estimate was checked against.
        self.budget_bytes = budget_bytes
        #: Suggested client wait before resubmitting, in seconds.
        self.retry_after_s = retry_after_s
        #: Pending jobs at rejection time.
        self.queue_depth = queue_depth


class DuplicateJobError(ReproError):
    """A job id was submitted twice.

    Job ids are the service's idempotency key: crash recovery replays the
    journal by id, so admitting a second job under an existing id could
    silently drop or double-run work.
    """


class JobNotFoundError(ReproError):
    """A job id is unknown to the service (never admitted, or evicted)."""


class JournalVersionError(ReproError):
    """A service journal record was written in another on-disk format.

    Raised instead of skipping the record: skipping would silently drop
    an admitted job, and reading it under this build's layout could
    serve labels from the wrong place.
    """

    def __init__(self, message: str, *, found, expected: int) -> None:
        super().__init__(message)
        #: Version the record declares.
        self.found = found
        #: Version this build reads and writes.
        self.expected = expected


class ConvergenceWarning(UserWarning):
    """LPA hit ``max_iterations`` without meeting the tolerance.

    Carries the facts a log line or a service's ``degraded_reason`` needs
    to say *why* the run stopped: the number of iterations performed and
    the changed-vertex fraction of the final iteration (``None`` when the
    warning was constructed without them, e.g. by third-party code).
    """

    def __init__(
        self,
        message: str,
        *,
        iterations: int | None = None,
        final_fraction: float | None = None,
    ) -> None:
        super().__init__(message)
        #: Iterations performed before the cap stopped the run.
        self.iterations = iterations
        #: Changed-vertex fraction of the last iteration (vs tolerance τ).
        self.final_fraction = final_fraction
