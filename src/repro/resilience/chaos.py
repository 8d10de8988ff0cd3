"""Chaos soak harness: randomized fault + crash schedules with differential
resume checks.

The correctness contract of the whole resilience stack is *strict-LPA
determinism* (Sahu, arXiv 2301.09125): state at an iteration boundary plus
the same configuration must reproduce the final communities bit for bit.
The supervisor's ladder, the checkpoint CRCs, and the fsync protocol all
exist to preserve that contract under fire — and this module is the fire.

One :class:`ChaosSchedule` describes one adversarial session, all derived
deterministically from a single seed: which device faults to inject (and
how often), the iteration boundary at which the process "crashes", whether
the crash lands before, in the middle of, or just after a checkpoint
write, and whether the newest on-disk checkpoint additionally gets
corrupted while the process is down (bit rot / torn sector).  The harness
then runs each schedule three ways:

1. **reference** — same faults, never crashed, no checkpointing;
2. **crashed** — same faults, checkpointing on, killed at the scheduled
   point by an :class:`InjectedCrash` raised from a crash-injecting
   :class:`CrashingCheckpointManager`;
3. **resumed** — restarted with ``resume=True`` against whatever the
   crash left on disk.

The differential assertion is that (3) ends bit-identical to (1) — the
resumed run may limp through retries and fallbacks, but it must not
drift.  ``benchmarks/bench_soak.py`` runs 25 schedules and writes the
:class:`~repro.soak.SoakReport` as a CI artifact.

:class:`~repro.soak.InjectedCrash` deliberately derives from plain
:class:`Exception` rather than ``ReproError``: nothing in the library may
catch it, exactly like a SIGKILL.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.graph.csr import CSRGraph
from repro.resilience.checkpoint import CheckpointManager, CheckpointState
from repro.resilience.faults import FAULT_KINDS, FaultSpec
from repro.soak import InjectedCrash, SoakReport

__all__ = [
    "CRASH_MODES",
    "InjectedCrash",
    "CrashPoint",
    "CrashingCheckpointManager",
    "ChaosSchedule",
    "SoakRecord",
    "corrupt_checkpoint",
    "make_schedule",
    "run_chaos_soak",
]

#: Where a crash may land relative to the checkpoint write at its boundary.
CRASH_MODES = ("before-write", "mid-write", "after-write")

#: Latest checkpoint boundary a schedule may crash at.
_MAX_CRASH_ITERATION = 4


@dataclass(frozen=True)
class CrashPoint:
    """Kill the process at checkpoint boundary ``iteration``."""

    #: The ``CheckpointState.iteration`` value whose save triggers the crash.
    iteration: int
    #: ``before-write`` (boundary reached, nothing persisted),
    #: ``mid-write`` (a partial temp file is left behind, the final name
    #: never appears — what fsync+rename guarantees a real torn write looks
    #: like), or ``after-write`` (the snapshot is durable, then death).
    mode: str = "after-write"


class CrashingCheckpointManager(CheckpointManager):
    """A :class:`CheckpointManager` that dies on cue.

    Bind it into a run via ``ResilienceConfig.checkpoint_factory``::

        crash = CrashPoint(iteration=3, mode="mid-write")
        cfg = ResilienceConfig(
            checkpoint_dir=d,
            checkpoint_factory=CrashingCheckpointManager.factory(crash),
        )
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 1,
        keep: int | None = None,
        crash: CrashPoint | None = None,
    ) -> None:
        super().__init__(directory, every=every, keep=keep)
        self.crash = crash

    @classmethod
    def factory(cls, crash: CrashPoint | None):
        """A ``checkpoint_factory`` callable binding ``crash``."""
        def build(directory, *, every: int = 1, keep: int | None = None):
            return cls(directory, every=every, keep=keep, crash=crash)

        return build

    def save(self, state: CheckpointState) -> Path:
        crash = self.crash
        if crash is None or state.iteration != crash.iteration:
            return super().save(state)
        if crash.mode == "before-write":
            raise InjectedCrash(
                f"killed at boundary {state.iteration} before the write"
            )
        if crash.mode == "mid-write":
            # A torn write under the fsync+rename protocol: a partial temp
            # file exists, the final name was never replaced.
            tmp = self.directory / f".tmp-torn-{state.iteration:06d}.npz"
            tmp.write_bytes(b"\x93NUMPY torn mid-write")
            raise InjectedCrash(
                f"killed mid-write at boundary {state.iteration}"
            )
        path = super().save(state)
        raise InjectedCrash(
            f"killed at boundary {state.iteration} after durable write to {path.name}"
        )


def corrupt_checkpoint(path: str | Path, rng: np.random.Generator) -> str:
    """Damage one checkpoint file in place; returns what was done.

    Half the time the file is truncated (unreadable container), half the
    time a run of bytes in its middle is bit-flipped (readable container,
    CRC32 mismatch) — the two corruption shapes ``latest()`` must survive.
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if rng.random() < 0.5 or len(blob) < 64:
        path.write_bytes(bytes(blob[: len(blob) // 2]))
        return "truncated"
    mid = len(blob) // 2
    for i in range(mid, min(mid + 32, len(blob))):
        blob[i] ^= 0xFF
    path.write_bytes(bytes(blob))
    return "bit-flipped"


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChaosSchedule:
    """One deterministic adversarial session."""

    seed: int
    fault_kinds: tuple[str, ...]
    fault_rate: float
    fault_seed: int
    max_fires: int | None
    crash: CrashPoint
    #: Additionally corrupt the newest on-disk checkpoint after the crash.
    corrupt_newest: bool

    def fault_spec(self) -> FaultSpec:
        """The schedule's injection policy as a :class:`FaultSpec`."""
        return FaultSpec(
            kinds=self.fault_kinds,
            rate=self.fault_rate,
            seed=self.fault_seed,
            max_fires=self.max_fires,
        )


def make_schedule(seed: int) -> ChaosSchedule:
    """Derive one schedule deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    n_kinds = int(rng.integers(1, len(FAULT_KINDS) + 1))
    picked = tuple(
        sorted(rng.choice(list(FAULT_KINDS), size=n_kinds, replace=False).tolist())
    )
    return ChaosSchedule(
        seed=seed,
        fault_kinds=picked,
        fault_rate=float(np.round(rng.uniform(0.2, 1.0), 3)),
        fault_seed=int(rng.integers(0, 2**31)),
        max_fires=None if rng.random() < 0.5 else int(rng.integers(1, 6)),
        crash=CrashPoint(
            iteration=int(rng.integers(1, _MAX_CRASH_ITERATION + 1)),
            mode=CRASH_MODES[int(rng.integers(len(CRASH_MODES)))],
        ),
        corrupt_newest=bool(rng.random() < 0.3),
    )


# --------------------------------------------------------------------- #
# The soak
# --------------------------------------------------------------------- #


@dataclass
class SoakRecord:
    """Outcome of one schedule."""

    schedule: ChaosSchedule
    #: Whether the scheduled crash actually fired (it does not when the run
    #: converges before reaching the crash boundary).
    crash_fired: bool
    #: How the post-crash corruption damaged the newest checkpoint
    #: (``""`` when the schedule did not corrupt or nothing was on disk).
    corruption: str
    #: Iteration the resumed run continued from (``None`` = started fresh,
    #: e.g. every generation was lost).
    resumed_from: int | None
    #: The contract: resumed final communities == never-crashed final
    #: communities, bit for bit.
    identical: bool
    reference_iterations: int = 0
    final_iterations: int = 0
    fault_events: int = 0

    @property
    def ok(self) -> bool:
        return self.identical

    @property
    def silent(self) -> int:
        """A drifted resume is a wrong answer nothing flagged."""
        return int(not self.identical)

    def counts(self) -> dict[str, int]:
        return {
            "crash(es) fired": self.crash_fired,
            "checkpoint(s) corrupted": bool(self.corruption),
        }


def _run_one(
    graph: CSRGraph,
    config: LPAConfig,
    engine: str,
    schedule: ChaosSchedule,
    workdir: Path,
) -> SoakRecord:
    spec = schedule.fault_spec()
    reference = nu_lpa(
        graph, config, engine=engine, warn_on_no_convergence=False,
        resilience=ResilienceConfig(faults=spec),
    )

    ckpt_dir = workdir / f"schedule-{schedule.seed}"
    crash_cfg = ResilienceConfig(
        faults=spec,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=1,
        checkpoint_factory=CrashingCheckpointManager.factory(schedule.crash),
    )
    crash_fired = False
    try:
        final = nu_lpa(
            graph, config, engine=engine, warn_on_no_convergence=False,
            resilience=crash_cfg,
        )
    except InjectedCrash:
        crash_fired = True

    corruption = ""
    if crash_fired:
        if schedule.corrupt_newest:
            found = sorted(ckpt_dir.glob("ckpt-*.npz"))
            if found:
                corruption = corrupt_checkpoint(
                    found[-1], np.random.default_rng(schedule.seed + 1)
                )
        final = nu_lpa(
            graph, config, engine=engine, warn_on_no_convergence=False,
            resilience=ResilienceConfig(
                faults=spec,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=1,
                resume=True,
            ),
        )

    return SoakRecord(
        schedule=schedule,
        crash_fired=crash_fired,
        corruption=corruption,
        resumed_from=final.resumed_from,
        identical=bool(np.array_equal(final.labels, reference.labels)),
        reference_iterations=reference.num_iterations,
        final_iterations=final.num_iterations,
        fault_events=len(final.fault_events),
    )


def run_chaos_soak(
    graph: CSRGraph,
    workdir: str | Path,
    *,
    schedules: int = 25,
    seed: int = 0,
    engine: str = "hashtable",
    config: LPAConfig | None = None,
) -> SoakReport:
    """Run ``schedules`` randomized crash/fault sessions against ``graph``.

    Schedule *i* derives from ``seed + i``, so a failing schedule can be
    replayed in isolation with ``make_schedule(seed + i)``.  ``workdir``
    holds one checkpoint directory per schedule (left on disk for
    post-mortem).
    """
    config = config or LPAConfig()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return SoakReport(
        kind="chaos",
        metadata={
            "engine": engine,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
        records=[
            _run_one(graph, config, engine, make_schedule(seed + i), workdir)
            for i in range(schedules)
        ],
    )
