"""Checkpoint/resume for LPA runs.

A checkpoint is everything the driver loop needs to continue a run
bit-identically from an iteration boundary: the membership (label) vector,
the frontier's processed flags, the next iteration index, the per-iteration
statistics so far, and the supervisor's cross-iteration state (injector
fire count, last Pick-Less changed fraction).  Because the simulator is
deterministic, ``state at iteration k`` + ``same config`` =>
``bit-identical final communities`` — per-iteration state is a restartable
queue, not a monolithic pass.

Format and durability
---------------------
One ``ckpt-NNNNNN.ckpt`` per snapshot: an RPSNAP01 container
(:mod:`repro.container`, which owns the crash-consistent write, the CRCs
and the keep ring) with ``labels`` and ``flags`` sections and a header
holding the run digest, iteration, convergence flag, iteration stats and
supervisor state.  :meth:`CheckpointManager.latest` falls back past
damaged generations; ``repro ckpt fsck`` exposes :func:`fsck`.  An
earlier build's ``ckpt-*.npz`` files are refused by name, never read.

The *run digest* binds a checkpoint to the (graph, engine, config) that
produced it; resuming against anything else raises
:class:`~repro.errors.CheckpointError` instead of silently computing
garbage.  ``max_iterations`` is deliberately excluded so a killed run can
be resumed with a different cap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import container
from repro.core.config import LPAConfig
from repro.core.result import IterationStats
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointNotFoundError,
    ContainerError,
)
from repro.gpu.metrics import KernelCounters
from repro.graph.csr import CSRGraph
from repro.types import FLAG_DTYPE, VERTEX_DTYPE

__all__ = [
    "CheckpointState",
    "CheckpointManager",
    "FsckEntry",
    "checkpoint_ring",
    "fsck",
    "preflight_resume",
    "run_digest",
]

#: Bump when the on-disk schema changes incompatibly.
#: v2 adds mandatory per-array CRC32 checksums to the meta blob.
#: v3 moves from npz to the RPSNAP01 container.
_SCHEMA_VERSION = 3
_FORMAT = "repro.resilience/checkpoint"

_PREFIX = "ckpt-"
_SUFFIX = ".ckpt"

#: :class:`CheckpointState` fields the header carries as they are (the
#: arrays are sections; the stats are serialized).
_FIELDS = ("iteration", "digest", "converged", "injector_fires",
           "last_pl_fraction", "capacity_scale")


def checkpoint_ring(directory: str | Path, keep: int | None = None) -> container.Ring:
    """The generation ring of the checkpoints in ``directory``."""
    return container.Ring(
        directory, _PREFIX, _SUFFIX, load=CheckpointManager.load,
        error=CheckpointError, keep=keep, legacy=".npz",
    )


def run_digest(graph: CSRGraph, config: LPAConfig, engine: str) -> str:
    """Fingerprint of everything that must match for a resume to be valid."""
    parts = [
        graph.num_vertices,
        graph.num_edges,
        engine,
        config.tolerance,
        config.pl_period,
        config.cc_period,
        config.switch_degree,
        config.probing.value,
        np.dtype(config.value_dtype).name,
        config.pruning,
        config.shared_memory_tables,
    ]
    payload = "|".join(str(part) for part in parts)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class CheckpointState:
    """In-memory image of one checkpoint."""

    labels: np.ndarray
    flags: np.ndarray
    #: Next iteration the driver loop should execute.
    iteration: int
    digest: str
    converged: bool = False
    stats: list[IterationStats] = field(default_factory=list)
    #: Fault-injector fires so far (keeps a resumed injection budget exact).
    injector_fires: int = 0
    #: Supervisor's last Pick-Less changed fraction, if any.
    last_pl_fraction: float | None = None
    #: Hashtable ``capacity_scale`` the regrow/shrink rungs left behind:
    #: slot order breaks max-reduce ties, so a resumed run must continue
    #: at the same scale to stay bit-identical.
    capacity_scale: int = 1


class CheckpointManager:
    """Writes and restores iteration-boundary snapshots of one run.

    Parameters
    ----------
    directory:
        Where snapshots live; created if missing.
    every:
        Snapshot every this many iterations.
    keep:
        Retention ring size: after each successful save, delete all but the
        newest ``keep`` generations.  ``None`` (default) keeps everything.
    """

    def __init__(
        self, directory: str | Path, *, every: int = 1, keep: int | None = None
    ) -> None:
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1; got {every}")
        if keep is not None and keep < 1:
            raise CheckpointError(f"checkpoint keep must be >= 1 or None; got {keep}")
        self.directory = Path(directory)
        self.every = every
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Paths written by this manager instance, in order (pruned entries
        #: included — this is a log of writes, not a directory listing).
        self.written: list[Path] = []
        self.ring = checkpoint_ring(self.directory, keep)
        #: ``(path, reason)`` of checkpoints :meth:`latest` skipped as
        #: corrupt or unreadable, newest first.
        self.skipped = self.ring.skipped

    # ------------------------------------------------------------------ #

    def due(self, iteration: int) -> bool:
        """Whether the boundary after ``iteration`` completed is a snapshot point."""
        return iteration % self.every == 0

    def save(self, state: CheckpointState) -> Path:
        """Crash-consistently persist ``state``; returns the checkpoint path.

        A crash at any point leaves either the previous generation or
        this one — never a torn file under the final name.
        """
        # Canonical on-disk dtypes, whatever the engine ran internally
        # (compact-layout runs carry int32 labels).
        sections = {
            "labels": np.ascontiguousarray(state.labels, dtype=VERTEX_DTYPE),
            "flags": np.ascontiguousarray(state.flags, dtype=FLAG_DTYPE),
        }
        header = {
            "format": _FORMAT,
            "version": _SCHEMA_VERSION,
            **{key: getattr(state, key) for key in _FIELDS},
            "stats": [
                {**vars(s), "counters": s.counters.as_dict()} for s in state.stats
            ],
            "arrays": container.plan(sections),
        }
        final = self.directory / f"{_PREFIX}{state.iteration:06d}{_SUFFIX}"
        try:
            container.write(final, header, sections)
        except ContainerError as exc:
            raise CheckpointError(f"cannot write checkpoint {exc}") from exc
        self.written.append(final)
        self.ring.prune(protect=final)
        return final

    # ------------------------------------------------------------------ #

    def checkpoints(self) -> list[Path]:
        """All well-named checkpoints in the directory, oldest first."""
        return self.ring.files()

    def latest(self) -> CheckpointState | None:
        """Load the newest *readable* checkpoint, or ``None`` if there is none.

        Corrupt or unreadable generations (torn write that beat the fsync,
        bit rot caught by the CRC32s, truncation) are skipped newest-first
        and recorded in :attr:`skipped` — losing one generation of progress
        beats losing the run.
        """
        return self.ring.latest()

    @staticmethod
    def load(path: str | Path) -> CheckpointState:
        """Load and checksum-verify one checkpoint file."""
        try:
            file = container.read(
                path, _FORMAT, _SCHEMA_VERSION, ("labels", "flags")
            )
        except ContainerError as exc:
            raise CheckpointError(f"unreadable checkpoint {exc}") from exc
        return CheckpointState(
            labels=file.arrays["labels"].astype(VERTEX_DTYPE),
            flags=file.arrays["flags"].astype(FLAG_DTYPE),
            stats=[
                IterationStats(**{**s, "counters": KernelCounters(**s["counters"])})
                for s in file.header["stats"]
            ],
            **{key: file.header[key] for key in _FIELDS},
        )


def preflight_resume(directory: str | Path) -> CheckpointState:
    """Verify an explicit resume request *can* succeed before starting.

    ``nu_lpa``'s resume path is deliberately lenient — ``latest()`` falls
    back past corrupt generations and silently starts fresh when nothing
    is on disk, because a crash-recovering caller (the chaos harness, the
    job service) prefers recomputing to dying.  But when a *user* types
    ``--resume``, a silent fresh start hides a real problem.  This helper
    gives that case sharp edges:

    * missing directory, or no checkpoint in any layout →
      :class:`~repro.errors.CheckpointNotFoundError`;
    * checkpoints exist but every generation fails verification, or
      all of them are an earlier build's ``ckpt-*.npz`` →
      :class:`~repro.errors.CheckpointCorruptError` carrying the
      per-generation reasons (newest first).

    Returns the newest readable :class:`CheckpointState` on success.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CheckpointNotFoundError(
            f"cannot resume: checkpoint directory {directory} does not exist"
        )
    ring = checkpoint_ring(directory)
    state = ring.latest()
    if state is not None:
        return state
    reasons = [f"{path.name}: {why}" for path, why in ring.skipped] or [
        ring.legacy_reason(path) for path in reversed(ring.legacy_files())
    ]
    if not reasons:
        raise CheckpointNotFoundError(
            f"cannot resume: no checkpoint in {directory} "
            f"(expected {_PREFIX}NNNNNN{_SUFFIX} files)"
        )
    raise CheckpointCorruptError(
        f"cannot resume: all {len(reasons)} checkpoint generation(s) in "
        f"{directory} are damaged or from an earlier build (newest: "
        f"{reasons[0]}); run `repro ckpt fsck {directory}` to inspect",
        reasons=reasons,
    )


# --------------------------------------------------------------------- #
# Offline inspection (`repro ckpt fsck`)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FsckEntry:
    """Verdict on one file in a checkpoint directory."""

    path: Path
    #: ``"ok"`` | ``"corrupt"`` | ``"stale-tmp"``.
    status: str
    #: Next iteration encoded in the checkpoint (``None`` unless ``ok``).
    iteration: int | None = None
    digest: str = ""
    detail: str = ""


def fsck(directory: str | Path) -> list[FsckEntry]:
    """Verify every checkpoint (and flag stale temp files) in ``directory``.

    Returns one :class:`FsckEntry` per file, stale temp files first, then
    checkpoints oldest first; raises :class:`CheckpointError` if the
    directory itself is missing.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CheckpointError(f"checkpoint directory {directory} does not exist")
    entries: list[FsckEntry] = []
    for found in checkpoint_ring(directory).audit():
        state = found.value
        if state is None:
            entries.append(FsckEntry(found.path, found.status, detail=found.detail))
        else:
            entries.append(FsckEntry(
                path=found.path, status="ok",
                iteration=state.iteration, digest=state.digest,
                detail=f"{state.labels.shape[0]} vertices"
                       f"{', converged' if state.converged else ''}",
            ))
    return entries
