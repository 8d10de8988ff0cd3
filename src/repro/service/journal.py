"""Crash-consistent job journal: the service's durable source of truth.

Each job has one JSON record under ``<journal>/jobs/``, written with the
durable stores' one atomic write (:func:`repro.container.atomic_write`),
so a crash at any instant leaves either the previous record or the new
one, never a torn file.  A record is rewritten only at the transitions
recovery reads: admission (the spec to replay), completion and failure
(the answer, or the error), and a graceful stop (attempts and spent
budget).  A job's running-ness dies with its process, so the journal
never stores it: recovery re-admits a pending job and resumes it from
its per-job checkpoints.

Every completed label vector has exactly one durable owner, which the
record names by CRC32 so a restarted service can *prove* it still has
the answer instead of re-running the job (the "no duplicated work" half
of the recovery contract; replaying pending specs is the "no lost work"
half):

* a batch job's labels live in ``<journal>/labels/<job>.labels``, an
  RPSNAP01 container (:mod:`repro.container`);
* a subscription's labels are its newest epoch snapshot in the stream's
  :class:`~repro.stream.epoch.EpochJournal`, and the record stores that
  epoch instead of a second copy.

A copy that is missing, unreadable or CRC-mismatched demotes the job to
pending, so it re-runs deterministically rather than serving rot.

Per-job checkpoint directories live under ``<journal>/ckpt/<job>/`` and
are managed by the normal :mod:`repro.resilience.checkpoint` machinery —
the journal only hands out the paths.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro import container
from repro.errors import (
    CheckpointError, ContainerError, JournalVersionError, StreamError,
)
from repro.service.job import JobOutcome, JobRecord, JobSpec, JobState
from repro.types import VERTEX_DTYPE

__all__ = [
    "LabelsOwner", "ServiceJournal", "check_version", "epoch_dir",
    "resolve_labels",
]

#: On-disk record layout; a record of any other version is refused.
#: Version 2: compact JSON, and a subscription's labels are referenced in
#: its epoch journal (``labels_epoch``) instead of copied to ``labels/``.
#: Version 3: a batch job's labels file is an RPSNAP01 container, not npz.
_VERSION = 3
_LABELS_FORMAT = "repro.service/labels"
_LABELS_SUFFIX = ".labels"

#: Owner directories under the journal root: batch-job labels files, and
#: one epoch journal per subscription.
_LABELS_DIR = "labels"
_STREAMS_DIR = "streams"


def _safe_name(job_id: str) -> str:
    """Filesystem-safe, collision-free file stem for a job id."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in job_id)
    return f"{safe[:80]}-{zlib.crc32(job_id.encode()):08x}"


def _durably(write, path: Path, *args) -> None:
    """Run one of the container's atomic writes for a journal file."""
    try:
        write(path, *args)
    except ContainerError as exc:
        raise CheckpointError(f"cannot write journal file {exc}") from exc


def _crc(labels: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(labels))


def check_version(doc: dict, path: Path) -> None:
    """Refuse a journal record of any layout version but this one."""
    version = doc["version"]
    if version != _VERSION:
        raise JournalVersionError(
            f"journal record {path} is version {version}; this "
            f"build reads only version {_VERSION} (start the "
            f"service over a fresh journal directory)",
            found=version, expected=_VERSION,
        )


class LabelsOwner(NamedTuple):
    """The one durable copy of a record's labels, and what it holds."""

    path: Path
    #: The labels, or ``None`` when the copy is missing, unreadable or
    #: not the labels the record names (``problem`` says which).
    labels: np.ndarray | None
    problem: str = ""
    #: The copy is intact but contradicts the record (another epoch, or
    #: another labels CRC).
    contradicts: bool = False


def resolve_labels(root: Path, stem: str, doc: dict) -> LabelsOwner | None:
    """Find and CRC-check the labels a job record names.

    ``root`` is the journal directory and ``stem`` the record's file
    stem.  A record with ``labels_epoch`` is owned by that epoch snapshot
    under ``streams/<stem>/``; any other by ``labels/<stem>.labels``.
    Returns ``None`` for a record that names no labels.  Reads only: it
    creates nothing, so an audit can call it too.
    """
    from repro.stream.epoch import EpochJournal, epoch_path

    crc = doc.get("labels_crc32")
    if crc is None:
        return None
    epoch = doc.get("labels_epoch")
    if epoch is None:
        path = Path(root) / _LABELS_DIR / f"{stem}{_LABELS_SUFFIX}"
        try:
            file = container.read(path, _LABELS_FORMAT, _VERSION, ("labels",))
        except ContainerError as exc:
            return LabelsOwner(path, None, f"labels unreadable: {exc}")
        labels = file.arrays["labels"].astype(VERTEX_DTYPE)
    else:
        path = epoch_path(Path(root) / _STREAMS_DIR / stem, int(epoch))
        try:
            state = EpochJournal.load(path)
        except StreamError as exc:
            return LabelsOwner(path, None, f"labels unreadable: {exc}")
        if state.epoch != int(epoch):
            return LabelsOwner(
                path, None,
                f"snapshot holds epoch {state.epoch}, record names {epoch}",
                contradicts=True,
            )
        labels = state.labels
    actual = _crc(labels)
    if actual != int(crc):
        return LabelsOwner(
            path, None, f"labels CRC {actual} != recorded {int(crc)}",
            contradicts=epoch is not None,
        )
    return LabelsOwner(path, labels)


def epoch_dir(journal: "ServiceJournal | None", spec: JobSpec) -> Path:
    """The epoch-journal directory of subscription ``spec``: under the
    service journal when there is one, else next to the stream's WAL."""
    if journal is not None:
        return journal.stream_dir(spec.job_id)
    return Path(spec.stream_dir) / "epochs"


class ServiceJournal:
    """Durable per-job state under one journal directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.jobs_dir = self.directory / "jobs"
        self.labels_dir = self.directory / _LABELS_DIR
        self.ckpt_root = self.directory / "ckpt"
        self.stream_root = self.directory / _STREAMS_DIR
        for d in (self.jobs_dir, self.labels_dir, self.ckpt_root):
            d.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #

    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{_safe_name(job_id)}.json"

    def labels_path(self, job_id: str) -> Path:
        return self.labels_dir / f"{_safe_name(job_id)}{_LABELS_SUFFIX}"

    def checkpoint_dir(self, job_id: str) -> Path:
        """Per-job checkpoint directory (created on demand by the manager)."""
        return self.ckpt_root / _safe_name(job_id)

    def stream_dir(self, job_id: str) -> Path:
        """Per-subscription epoch-journal directory (created on demand by
        the :class:`~repro.stream.epoch.EpochJournal`)."""
        return self.stream_root / _safe_name(job_id)

    # ------------------------------------------------------------------ #

    def record(self, record: JobRecord) -> None:
        """Persist one job's current state (atomic, durable)."""
        state = record.state
        if state is JobState.RUNNING:
            state = JobState.PENDING  # recovery re-admits both alike
        doc: dict = {
            "version": _VERSION,
            "spec": record.spec.as_dict(),
            "state": state.value,
            "seq": record.seq,
            "attempts": record.attempts,
            "wall_spent_s": record.wall_spent_s,
            "gpu_spent_s": record.gpu_spent_s,
            "admitted_clock_s": record.admitted_clock_s,
            "finished_clock_s": record.finished_clock_s,
            "outcome": None,
            "labels_crc32": None,
            "labels_epoch": None,
        }
        if record.outcome is not None:
            out = record.outcome
            doc["outcome"] = {
                "rung": out.rung,
                "converged": out.converged,
                "iterations": out.iterations,
                "degraded_reason": out.degraded_reason,
                "stop_detail": out.stop_detail,
                "error": out.error,
                "modeled_seconds": out.modeled_seconds,
                "wall_seconds": out.wall_seconds,
            }
            if out.labels is not None and record.spec.kind == "subscription":
                # The epoch snapshot already holds these labels; a
                # subscription's outcome iterations are its epoch.
                doc["labels_crc32"] = _crc(out.labels)
                doc["labels_epoch"] = out.iterations
            elif out.labels is not None:
                doc["labels_crc32"] = self._write_labels(record.job_id, out.labels)
        _durably(
            container.atomic_write, self.job_path(record.job_id),
            [json.dumps(doc, separators=(",", ":")).encode()],
        )

    def _write_labels(self, job_id: str, labels: np.ndarray) -> int:
        """Durably write a batch job's labels; returns their CRC32."""
        sections = {"labels": np.ascontiguousarray(labels)}
        header = {
            "format": _LABELS_FORMAT, "version": _VERSION,
            "arrays": container.plan(sections),
        }
        _durably(container.write, self.labels_path(job_id), header, sections)
        return header["arrays"]["labels"]["crc32"]

    # ------------------------------------------------------------------ #

    def load(self, path: Path) -> JobRecord | None:
        """Rehydrate one job record; ``None`` for unreadable files.

        Unreadable journal records are skipped (and reported by the
        caller) rather than fatal: one torn record must not block
        recovery of every other job.  A readable record of another
        layout version raises :class:`~repro.errors.JournalVersionError`.
        """
        try:
            doc = json.loads(path.read_text())
            check_version(doc, path)
            spec = JobSpec.from_dict(doc["spec"])
            record = JobRecord(
                spec=spec,
                state=JobState(doc["state"]),
                seq=int(doc["seq"]),
                attempts=int(doc["attempts"]),
                wall_spent_s=float(doc["wall_spent_s"]),
                gpu_spent_s=float(doc["gpu_spent_s"]),
                admitted_clock_s=float(doc["admitted_clock_s"]),
                finished_clock_s=float(doc["finished_clock_s"]),
                recovered=True,
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None
        raw_outcome = doc.get("outcome")
        if raw_outcome is not None:
            owner = resolve_labels(self.directory, path.stem, doc)
            labels = None if owner is None else owner.labels
            if owner is not None and owner.contradicts:
                # A readable epoch snapshot that contradicts its record:
                # set it aside, or the re-run's recovery would adopt it.
                # If the record was the wrong side, that costs a replay.
                owner.path.replace(
                    owner.path.with_name(f".rejected-{owner.path.name}")
                )
            if (
                owner is not None and labels is None
                and record.state is JobState.COMPLETED
            ):
                # The completion record survived but its labels did
                # not: demote to pending so the job re-runs (the
                # deterministic re-run reproduces the same labels).
                record.state = JobState.PENDING
                record.outcome = None
                return record
            record.outcome = JobOutcome(
                labels=labels,
                rung=str(raw_outcome["rung"]),
                converged=bool(raw_outcome["converged"]),
                iterations=int(raw_outcome["iterations"]),
                degraded_reason=raw_outcome["degraded_reason"],
                stop_detail=str(raw_outcome["stop_detail"] or ""),
                error=str(raw_outcome["error"] or ""),
                modeled_seconds=float(raw_outcome["modeled_seconds"]),
                wall_seconds=float(raw_outcome["wall_seconds"]),
            )
        return record

    def load_all(self) -> tuple[list[JobRecord], list[Path]]:
        """All readable records (by seq order) plus the skipped paths."""
        records: list[JobRecord] = []
        skipped: list[Path] = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            record = self.load(path)
            if record is None:
                skipped.append(path)
            else:
                records.append(record)
        records.sort(key=lambda r: r.seq)
        return records, skipped
