"""Job descriptions and lifecycle records for the detection service.

A :class:`JobSpec` is everything the service needs to (re)run one
community-detection job: a *journalable* reference to the input graph, the
requested engine, tenant/priority metadata for admission control, and the
job's deadline.  Specs are immutable and JSON-serialisable, because crash
recovery replays them from the journal — a job whose graph only ever lived
in the dead process's memory cannot be recovered, so in-memory graphs are
explicitly marked non-recoverable.

A :class:`JobRecord` is the service-side mutable state of one admitted job:
its state machine position, attempt count, degradation rung, clocks, and
(once finished) the :class:`JobOutcome`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph

__all__ = ["GraphRef", "JobSpec", "JobState", "JobOutcome", "JobRecord", "RUNGS"]

#: Degradation-ladder rungs, cheapest last; the order is the ladder.
RUNGS = ("full", "fallback-engine", "coarsened", "checkpoint-labels")


@dataclass(frozen=True)
class GraphRef:
    """A journalable reference to a job's input graph.

    ``kind`` is one of:

    * ``"dataset"`` — a Table-1 stand-in by name: regenerated
      deterministically from ``(name, scale, seed)``, fully recoverable;
    * ``"file"`` — a graph file on disk, recoverable while the file lives;
    * ``"memory"`` — a :class:`~repro.graph.csr.CSRGraph` held only by the
      submitting process.  Not crash-recoverable: a restarted service fails
      such a job with a clear error instead of silently dropping it.
    """

    kind: str
    name: str = ""
    scale: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.kind not in ("dataset", "file", "memory"):
            raise ConfigurationError(
                f"unknown GraphRef kind {self.kind!r}; "
                f"choose dataset, file, or memory"
            )

    @property
    def recoverable(self) -> bool:
        """Whether a restarted service can reload this graph."""
        return self.kind != "memory"

    def load(self, memory_graphs: dict[str, CSRGraph] | None = None) -> CSRGraph:
        """Materialise the graph this reference points at."""
        if self.kind == "dataset":
            from repro.graph.datasets import generate_standin

            return generate_standin(self.name, scale=self.scale, seed=self.seed)
        if self.kind == "file":
            from repro.graph.io import load_graph

            return load_graph(Path(self.name))
        graph = (memory_graphs or {}).get(self.name)
        if graph is None:
            raise ConfigurationError(
                f"in-memory graph {self.name!r} is gone (it died with the "
                f"process that submitted it); resubmit the job"
            )
        return graph

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "kind": self.kind,
            "name": self.name,
            "scale": self.scale,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "GraphRef":
        return cls(
            kind=str(raw["kind"]),
            name=str(raw["name"]),
            scale=float(raw["scale"]),
            seed=int(raw["seed"]),
        )


@dataclass(frozen=True)
class JobSpec:
    """One community-detection job as submitted.

    Attributes
    ----------
    job_id:
        Caller-chosen idempotency key; resubmitting an id the service
        already knows raises :class:`~repro.errors.DuplicateJobError`.
    graph:
        :class:`GraphRef` to the input graph.
    engine:
        Requested engine (``"vectorized"`` or ``"hashtable"``); the
        breaker may reroute to the other one.
    tenant:
        Admission-control bucket for the per-tenant in-flight cap.
    priority:
        Smaller runs earlier; ties break by submission order.
    deadline_s:
        Wall-clock budget for the *whole job* including retries (deadline
        propagation shrinks what each attempt gets); ``None`` = unlimited.
    gpu_budget_s:
        Modelled GPU-seconds budget, propagated the same way.
    max_iterations / tolerance:
        Per-job LPA overrides (``None`` = service defaults).  Only these
        two are exposed because they must survive a journal round-trip.
    validate:
        Input-validation policy forwarded to ``nu_lpa`` (``"strict"`` /
        ``"repair"`` / ``"quarantine"``; ``None`` skips validation).
    kind:
        ``"detect"`` (default) is a one-shot detection; ``"subscription"``
        follows a durable delta log (:mod:`repro.stream`): the job
        completes when every acknowledged batch has become an epoch, and
        a restarted service replays the log past the last journaled
        epoch and resumes bit-identically.
    stream_dir:
        Delta-log directory of a subscription job (required for
        ``kind="subscription"``); the graph ref is the stream's *base*
        (epoch-0) graph.
    hops:
        Subscription warm-start frontier radius (forwarded to
        ``nu_lpa_incremental``).
    delta_policy:
        Subscription delta-validation policy (``strict`` / ``repair`` /
        ``quarantine``).
    """

    job_id: str
    graph: GraphRef
    engine: str = "vectorized"
    tenant: str = "default"
    priority: int = 0
    deadline_s: float | None = None
    gpu_budget_s: float | None = None
    max_iterations: int | None = None
    tolerance: float | None = None
    validate: str | None = None
    kind: str = "detect"
    stream_dir: str | None = None
    hops: int = 1
    delta_policy: str = "strict"

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be a non-empty string")
        if self.engine not in ("vectorized", "hashtable"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; "
                f"choose vectorized or hashtable"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be > 0; got {self.deadline_s}"
            )
        if self.gpu_budget_s is not None and self.gpu_budget_s <= 0:
            raise ConfigurationError(
                f"gpu_budget_s must be > 0; got {self.gpu_budget_s}"
            )
        if self.kind not in ("detect", "subscription"):
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; "
                f"choose detect or subscription"
            )
        if self.kind == "subscription" and not self.stream_dir:
            raise ConfigurationError(
                "subscription jobs require stream_dir (the delta log "
                "directory)"
            )
        if self.hops < 0:
            raise ConfigurationError(f"hops must be >= 0; got {self.hops}")
        if self.delta_policy not in ("strict", "repair", "quarantine"):
            raise ConfigurationError(
                f"unknown delta_policy {self.delta_policy!r}; "
                f"choose strict, repair, or quarantine"
            )

    @classmethod
    def dataset(cls, job_id: str, name: str, *, scale: float = 1.0,
                seed: int = 42, **kwargs) -> "JobSpec":
        """Convenience constructor for a Table-1 stand-in job."""
        return cls(
            job_id=job_id,
            graph=GraphRef(kind="dataset", name=name, scale=scale, seed=seed),
            **kwargs,
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (the journal's admission record)."""
        return {
            "job_id": self.job_id,
            "graph": self.graph.as_dict(),
            "engine": self.engine,
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "gpu_budget_s": self.gpu_budget_s,
            "max_iterations": self.max_iterations,
            "tolerance": self.tolerance,
            "validate": self.validate,
            "kind": self.kind,
            "stream_dir": self.stream_dir,
            "hops": self.hops,
            "delta_policy": self.delta_policy,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "JobSpec":
        # Stream fields default for records journaled before they existed.
        return cls(
            job_id=str(raw["job_id"]),
            graph=GraphRef.from_dict(raw["graph"]),
            engine=str(raw["engine"]),
            tenant=str(raw["tenant"]),
            priority=int(raw["priority"]),
            deadline_s=raw["deadline_s"],
            gpu_budget_s=raw["gpu_budget_s"],
            max_iterations=raw["max_iterations"],
            tolerance=raw["tolerance"],
            validate=raw["validate"],
            kind=str(raw.get("kind", "detect")),
            stream_dir=raw.get("stream_dir"),
            hops=int(raw.get("hops", 1)),
            delta_policy=str(raw.get("delta_policy", "strict")),
        )


class JobState(enum.Enum):
    """Lifecycle of an admitted job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class JobOutcome:
    """What a finished job produced."""

    #: Final community label per vertex (``None`` for failed jobs).
    labels: np.ndarray | None = None
    #: Degradation rung that produced the labels (one of :data:`RUNGS`).
    rung: str = "full"
    converged: bool = False
    iterations: int = 0
    #: ``result.degraded_reason`` of the producing run, or the service's
    #: rung annotation (e.g. ``"breaker:hashtable->vectorized"``).
    degraded_reason: str | None = None
    #: Why an unconverged run stopped, e.g.
    #: ``"max-iterations (final changed fraction 0.0712 > tol 0.05)"``.
    stop_detail: str = ""
    #: Terminal error string for failed jobs.
    error: str = ""
    #: Modelled GPU seconds of the *successful* run (failed attempts are
    #: accounted in the record's totals, not here).
    modeled_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def degraded(self) -> bool:
        """Whether the labels came from anything but a clean full run."""
        return self.rung != "full" or self.degraded_reason is not None


@dataclass
class JobRecord:
    """Service-side mutable state of one admitted job."""

    spec: JobSpec
    state: JobState = JobState.PENDING
    #: Admission order (the priority queue's tie-breaker, preserved across
    #: restarts so recovery replays in the original order).
    seq: int = 0
    attempts: int = 0
    #: Per-attempt backoff delays actually applied (seconds).
    backoffs: list[float] = field(default_factory=list)
    #: Service modelled clock at admission / completion.
    admitted_clock_s: float = 0.0
    finished_clock_s: float = 0.0
    #: Wall seconds burned by every attempt (feeds deadline propagation).
    wall_spent_s: float = 0.0
    #: Modelled GPU seconds burned by every attempt, failed ones included.
    gpu_spent_s: float = 0.0
    outcome: JobOutcome | None = None
    #: True when this record was replayed from the journal after a restart.
    recovered: bool = False
    #: Admission-time analytic peak-footprint estimate in bytes (from
    #: :func:`repro.gpu.governor.footprint_for`); ``None`` when the service
    #: has no memory budget configured.  Not journaled — a recovered
    #: service re-estimates lazily at claim time.
    footprint_bytes: int | None = None
    #: Exception of the most recent failed attempt (transient, not
    #: journaled — it only steers the retry/ladder decision in-process).
    last_error: BaseException | None = None

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def latency_s(self) -> float:
        """Modelled-clock latency from admission to completion."""
        return max(0.0, self.finished_clock_s - self.admitted_clock_s)

    def remaining_budget(self):
        """The job's propagated deadline as a RunBudget (or ``None``)."""
        from repro.core.budget import RunBudget

        if self.spec.deadline_s is None and self.spec.gpu_budget_s is None:
            return None
        return RunBudget(
            wall_seconds=self.spec.deadline_s,
            gpu_seconds=self.spec.gpu_budget_s,
        ).shrunk(wall_spent=self.wall_spent_s, gpu_spent=self.gpu_spent_s)
