"""Kill/restart soak harness for the detection service.

The recovery contract the service sells is strong: *kill the process at
any instant, restart it over the same journal, and every admitted job
still completes exactly once with bit-identical labels* — no lost jobs,
no duplicated completions, no drifted results.  This harness proves it
the same way the chaos layer proves single-run recovery:

1. run a reference service to completion with no crashes and record each
   job's final labels;
2. replay the same workload under a seeded schedule of injected process
   deaths — between jobs (via the service's ``chaos_hook``) and *inside*
   checkpoint writes (via :class:`CrashingCheckpointManager`) — restarting
   a fresh service over the surviving journal after each death;
3. assert every job completed exactly once, with labels equal bit-for-bit
   to the reference.

Crashes surface as :class:`~repro.soak.InjectedCrash`, which
deliberately is *not* a ``ReproError`` — anything in the service that
swallowed it broadly would invalidate the soak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, JobNotFoundError
from repro.resilience.chaos import CrashingCheckpointManager, CrashPoint
from repro.service.job import JobSpec, JobState
from repro.service.journal import ServiceJournal
from repro.service.service import DetectionService, ServiceConfig
from repro.soak import InjectedCrash, drain_through_crashes

__all__ = ["ServiceSoakOutcome", "run_service_soak"]

#: Process deaths scheduled per run: between job completions, and inside
#: a checkpoint write.
_CRASH_BETWEEN_JOBS = 2
_CRASH_IN_CHECKPOINT = 1


@dataclass
class ServiceSoakOutcome:
    """Result of one seeded kill/restart schedule."""

    seed: int
    jobs: int
    crashes: int
    restarts: int
    #: Jobs whose recovered labels matched the reference bit-for-bit.
    identical: int
    lost: list[str] = field(default_factory=list)
    duplicated: list[str] = field(default_factory=list)
    mismatched: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.identical == self.jobs
            and not self.lost
            and not self.duplicated
            and not self.mismatched
        )

    @property
    def silent(self) -> int:
        """Jobs that completed with drifted labels and no error."""
        return len(self.mismatched)

    def counts(self) -> dict[str, int]:
        return {"crash(es)": self.crashes, "job(s) identical": self.identical}


def _reference_labels(
    specs: list[JobSpec], config: ServiceConfig
) -> dict[str, np.ndarray]:
    """Crash-free run of the workload; the ground truth to compare against."""
    service = DetectionService(config, recover=False)
    for spec in specs:
        service.submit(spec)
    service.drain()
    out: dict[str, np.ndarray] = {}
    for spec in specs:
        record = service.result(spec.job_id)
        if record.state is not JobState.COMPLETED or record.outcome is None:
            raise ConfigurationError(
                f"soak workload job {spec.job_id!r} does not complete even "
                f"without crashes ({record.state.value}); fix the workload"
            )
        out[spec.job_id] = record.outcome.labels.copy()
    return out


def run_service_soak(
    specs: list[JobSpec],
    *,
    journal_dir: str | Path,
    config: ServiceConfig | None = None,
    seed: int = 0,
) -> ServiceSoakOutcome:
    """Run one seeded kill/restart schedule over ``specs``.

    Parameters
    ----------
    specs:
        The workload.  Every spec must use a *recoverable* graph ref
        (``dataset`` or ``file``) — that is the soak's whole point.
    journal_dir:
        Journal root for the chaos run (must start empty).
    config:
        Service tuning shared by the reference and chaos runs; the harness
        fills in ``journal_dir`` / ``chaos_hook`` / ``checkpoint_factory``
        itself.
    seed:
        Seeds the schedule: which jobs die between completions, which die
        mid-checkpoint, and at which checkpoint iteration.
    """
    base = (config or ServiceConfig()).with_(
        journal_dir=None, chaos_hook=None, checkpoint_factory=None
    )
    for spec in specs:
        if not spec.graph.recoverable:
            raise ConfigurationError(
                f"soak job {spec.job_id!r} uses an in-memory graph; "
                f"only recoverable graph refs can survive a kill"
            )
    reference = _reference_labels(specs, base)

    rng = np.random.default_rng([seed & 0x7FFFFFFF, len(specs)])
    n = len(specs)
    # Each scheduled death fires once: the hooks below pop from these sets,
    # which outlive every restart.
    between = {
        specs[i].job_id
        for i in rng.choice(n, size=min(_CRASH_BETWEEN_JOBS, n), replace=False)
    } if n else set()
    journal = ServiceJournal(journal_dir)
    in_ckpt = {
        journal.checkpoint_dir(specs[i].job_id)
        for i in rng.choice(n, size=min(_CRASH_IN_CHECKPOINT, n), replace=False)
    } if n else set()
    ckpt_crash = CrashPoint(iteration=int(rng.integers(1, 4)), mode="after-write")
    completions: dict[str, int] = {}

    def chaos_hook(point: str, record) -> None:
        if point != "job-finished":
            return
        # Duplicate-work detector: a completion observed here is real
        # executed work (recovery replays of already-completed jobs load
        # journaled labels and never come through this hook again).
        if record.state is JobState.COMPLETED:
            completions[record.job_id] = completions.get(record.job_id, 0) + 1
        if record.job_id in between:
            between.discard(record.job_id)
            raise InjectedCrash(
                f"scheduled process death after job {record.job_id!r}"
            )

    def checkpoint_factory(directory, *, every=1, keep=None):
        """Arm a crash in the first checkpoint manager of a scheduled job."""
        armed = Path(directory) in in_ckpt
        in_ckpt.discard(Path(directory))
        return CrashingCheckpointManager(
            directory, every=every, keep=keep,
            crash=ckpt_crash if armed else None,
        )

    chaos_config = base.with_(
        journal_dir=journal.directory,
        chaos_hook=chaos_hook,
        checkpoint_factory=checkpoint_factory,
    )
    service, crashes = drain_through_crashes(
        lambda: DetectionService(chaos_config), specs
    )

    lost: list[str] = []
    mismatched: list[str] = []
    identical = 0
    for spec in specs:
        try:
            record = service.result(spec.job_id)
        except JobNotFoundError:
            lost.append(spec.job_id)
            continue
        if record.state is not JobState.COMPLETED or record.outcome is None:
            lost.append(spec.job_id)
            continue
        if np.array_equal(record.outcome.labels, reference[spec.job_id]):
            identical += 1
        else:
            mismatched.append(spec.job_id)
    duplicated = sorted(j for j, c in completions.items() if c > 1)

    return ServiceSoakOutcome(
        seed=seed,
        jobs=len(specs),
        crashes=crashes,
        restarts=crashes,
        identical=identical,
        lost=lost,
        duplicated=duplicated,
        mismatched=mismatched,
    )
