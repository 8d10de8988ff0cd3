"""Checkpoint/resume for LPA runs.

A checkpoint is everything the driver loop needs to continue a run
bit-identically from an iteration boundary: the membership (label) vector,
the frontier's processed flags, the next iteration index, the per-iteration
statistics so far, and the supervisor's cross-iteration state (injector
fire count, last Pick-Less changed fraction).  Because the simulator is
deterministic, ``state at iteration k`` + ``same config`` =>
``bit-identical final communities`` — per-iteration state is a restartable
queue, not a monolithic pass.

Format
------
One ``ckpt-NNNNNN.npz`` per snapshot inside the checkpoint directory:
``labels`` and ``flags`` arrays plus a JSON ``meta`` blob (schema version,
run digest, iteration, convergence flag, serialized iteration stats,
supervisor state, and a CRC32 per array).

Durability
----------
Writes are crash-consistent: the snapshot goes to a temporary file in the
same directory, the temp file is fsynced *before* the atomic
:func:`os.replace`, and the directory is fsynced *after* it — so a power
loss at any instant leaves either the previous generation or the new one,
never a zero-length or torn "latest".  :meth:`CheckpointManager.load`
verifies the per-array CRC32s, so corruption that slips past the npz
container (bit rot, a torn sector) is detected instead of resumed from;
:meth:`CheckpointManager.latest` then falls back generation-by-generation
past corrupt or unreadable files rather than raising.  A ``keep=N``
retention ring prunes superseded generations after every successful save.
``repro ckpt fsck`` exposes :func:`fsck` for offline inspection.

The *run digest* binds a checkpoint to the (graph, engine, config) that
produced it; resuming against anything else raises
:class:`~repro.errors.CheckpointError` instead of silently computing
garbage.  ``max_iterations`` is deliberately excluded so a killed run can
be resumed with a different cap.
"""

from __future__ import annotations

import hashlib
import json
import os
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import LPAConfig
from repro.core.result import IterationStats
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointNotFoundError,
)
from repro.gpu.metrics import KernelCounters
from repro.graph.csr import CSRGraph
from repro.types import FLAG_DTYPE, VERTEX_DTYPE

__all__ = [
    "CheckpointState",
    "CheckpointManager",
    "FsckEntry",
    "fsck",
    "preflight_resume",
    "run_digest",
]

#: Bump when the on-disk schema changes incompatibly.
#: v2 adds mandatory per-array CRC32 checksums to the meta blob.
_SCHEMA_VERSION = 2

_PREFIX = "ckpt-"
_SUFFIX = ".npz"


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


def _stats_to_json(stats: list[IterationStats]) -> list[dict]:
    return [
        {
            "iteration": s.iteration,
            "changed": s.changed,
            "processed": s.processed,
            "pick_less": s.pick_less,
            "cross_check": s.cross_check,
            "reverted": s.reverted,
            "counters": s.counters.as_dict(),
        }
        for s in stats
    ]


def _stats_from_json(raw: list[dict]) -> list[IterationStats]:
    return [
        IterationStats(
            iteration=int(item["iteration"]),
            changed=int(item["changed"]),
            processed=int(item["processed"]),
            pick_less=bool(item["pick_less"]),
            cross_check=bool(item["cross_check"]),
            reverted=int(item["reverted"]),
            counters=KernelCounters(**{k: int(v) for k, v in item["counters"].items()}),
        )
        for item in raw
    ]


def _fsync_dir(directory: Path) -> None:
    """Flush directory metadata (the rename) to stable storage."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; nothing more we can do
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse; the data fsync already happened
    finally:
        os.close(fd)


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
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Paths written by this manager instance, in order (pruned entries
        #: included — this is a log of writes, not a directory listing).
        self.written: list[Path] = []
        #: ``(path, reason)`` of checkpoints :meth:`latest` skipped as
        #: corrupt or unreadable, newest first.
        self.skipped: list[tuple[Path, str]] = []

    # ------------------------------------------------------------------ #

    def due(self, iteration: int) -> bool:
        """Whether the boundary after ``iteration`` completed is a snapshot point."""
        return iteration % self.every == 0

    def save(self, state: CheckpointState) -> Path:
        """Crash-consistently persist ``state``; returns the checkpoint path.

        The temp file is fsynced before the atomic rename and the directory
        is fsynced after it, so a crash at any point leaves either the
        previous generation or this one — never a torn file under the
        final name.
        """
        # Canonical on-disk dtypes, whatever the engine ran internally
        # (compact-layout runs carry int32 labels): the load-side CRC is
        # verified after widening, so the save-side CRC must cover the
        # same canonical bytes.
        labels = np.ascontiguousarray(state.labels, dtype=VERTEX_DTYPE)
        flags = np.ascontiguousarray(state.flags, dtype=FLAG_DTYPE)
        meta = {
            "version": _SCHEMA_VERSION,
            "iteration": state.iteration,
            "digest": state.digest,
            "converged": state.converged,
            "injector_fires": state.injector_fires,
            "last_pl_fraction": state.last_pl_fraction,
            "capacity_scale": state.capacity_scale,
            "stats": _stats_to_json(state.stats),
            "crc32": {
                "labels": zlib.crc32(labels.tobytes()),
                "flags": zlib.crc32(flags.tobytes()),
            },
        }
        final = self.directory / f"{_PREFIX}{state.iteration:06d}{_SUFFIX}"
        tmp = self.directory / f".tmp-{os.getpid()}-{state.iteration:06d}{_SUFFIX}"
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    labels=labels,
                    flags=flags,
                    meta=np.array(json.dumps(meta)),
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            _fsync_dir(self.directory)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(f"cannot write checkpoint {final}: {exc}") from exc
        self.written.append(final)
        self._prune(protect=final)
        return final

    def _prune(self, protect: Path) -> None:
        """Enforce the ``keep=N`` retention ring after a successful save."""
        if self.keep is None:
            return
        found = self.checkpoints()
        removed = False
        for stale in found[: max(0, len(found) - self.keep)]:
            if stale != protect:
                stale.unlink(missing_ok=True)
                removed = True
        if removed:
            _fsync_dir(self.directory)

    # ------------------------------------------------------------------ #

    def checkpoints(self) -> list[Path]:
        """All well-named checkpoints in the directory, oldest first."""
        return sorted(self.directory.glob(f"{_PREFIX}*{_SUFFIX}"))

    def latest(self) -> CheckpointState | None:
        """Load the newest *readable* checkpoint, or ``None`` if there is none.

        Corrupt or unreadable generations (torn write that beat the fsync,
        bit rot caught by the CRC32s, truncation) are skipped newest-first
        and recorded in :attr:`skipped` — losing one generation of progress
        beats losing the run.
        """
        self.skipped = []
        for path in reversed(self.checkpoints()):
            try:
                return self.load(path)
            except CheckpointError as exc:
                self.skipped.append((path, str(exc)))
        return None

    @staticmethod
    def load(path: str | Path) -> CheckpointState:
        """Load and checksum-verify one checkpoint file."""
        try:
            with np.load(path, allow_pickle=False) as data:
                labels = data["labels"].astype(VERTEX_DTYPE)
                flags = data["flags"].astype(FLAG_DTYPE)
                meta = json.loads(str(data["meta"]))
        except (
            OSError,
            KeyError,
            ValueError,
            EOFError,
            SyntaxError,
            tokenize.TokenError,
            zipfile.BadZipFile,
            NotImplementedError,
            json.JSONDecodeError,
        ) as exc:
            # BadZipFile and EOFError subclass Exception directly, not
            # OSError — a truncated container raises them from np.load.
            # A bit flip inside an npy member's own header escapes numpy's
            # parser as SyntaxError (ast.literal_eval) or tokenize.TokenError;
            # one in a member's compression-method field makes zipfile raise
            # NotImplementedError.
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if meta.get("version") != _SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has schema version {meta.get('version')}; "
                f"this build reads version {_SCHEMA_VERSION}"
            )
        crcs = meta.get("crc32", {})
        for name, array in (("labels", labels), ("flags", flags)):
            expected = crcs.get(name)
            actual = zlib.crc32(np.ascontiguousarray(array).tobytes())
            if expected is None or int(expected) != actual:
                raise CheckpointError(
                    f"checkpoint {path}: CRC32 mismatch on {name!r} "
                    f"(stored {expected}, computed {actual}) — corrupt snapshot"
                )
        last_pl = meta.get("last_pl_fraction")
        return CheckpointState(
            labels=labels,
            flags=flags,
            iteration=int(meta["iteration"]),
            digest=str(meta["digest"]),
            converged=bool(meta.get("converged", False)),
            stats=_stats_from_json(meta.get("stats", [])),
            injector_fires=int(meta.get("injector_fires", 0)),
            last_pl_fraction=None if last_pl is None else float(last_pl),
            capacity_scale=int(meta.get("capacity_scale", 1)),
        )


def preflight_resume(directory: str | Path) -> CheckpointState:
    """Verify an explicit resume request *can* succeed before starting.

    ``nu_lpa``'s resume path is deliberately lenient — ``latest()`` falls
    back past corrupt generations and silently starts fresh when nothing
    is on disk, because a crash-recovering caller (the chaos harness, the
    job service) prefers recomputing to dying.  But when a *user* types
    ``--resume``, a silent fresh start hides a real problem.  This helper
    gives that case sharp edges:

    * missing directory or no ``ckpt-*.npz`` files at all →
      :class:`~repro.errors.CheckpointNotFoundError`;
    * files exist but every generation fails verification →
      :class:`~repro.errors.CheckpointCorruptError` carrying the
      per-generation reasons (newest first).

    Returns the newest readable :class:`CheckpointState` on success.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CheckpointNotFoundError(
            f"cannot resume: checkpoint directory {directory} does not exist"
        )
    found = sorted(directory.glob(f"{_PREFIX}*{_SUFFIX}"))
    if not found:
        raise CheckpointNotFoundError(
            f"cannot resume: no checkpoint in {directory} "
            f"(expected {_PREFIX}NNNNNN{_SUFFIX} files)"
        )
    reasons: list[str] = []
    for path in reversed(found):
        try:
            return CheckpointManager.load(path)
        except CheckpointError as exc:
            reasons.append(f"{path.name}: {exc}")
    raise CheckpointCorruptError(
        f"cannot resume: all {len(found)} checkpoint generation(s) in "
        f"{directory} are damaged (newest: {reasons[0]}); "
        f"run `repro ckpt fsck {directory}` to inspect",
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

    Returns one :class:`FsckEntry` per file, oldest first; raises
    :class:`CheckpointError` if the directory itself is missing.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CheckpointError(f"checkpoint directory {directory} does not exist")
    entries: list[FsckEntry] = []
    for tmp in sorted(directory.glob(".tmp-*")):
        entries.append(FsckEntry(
            path=tmp, status="stale-tmp",
            detail="partial write left by an interrupted save; safe to delete",
        ))
    for path in sorted(directory.glob(f"{_PREFIX}*{_SUFFIX}")):
        try:
            state = CheckpointManager.load(path)
        except CheckpointError as exc:
            entries.append(FsckEntry(path=path, status="corrupt", detail=str(exc)))
        else:
            entries.append(FsckEntry(
                path=path, status="ok",
                iteration=state.iteration, digest=state.digest,
                detail=f"{state.labels.shape[0]} vertices"
                       f"{', converged' if state.converged else ''}",
            ))
    return entries
