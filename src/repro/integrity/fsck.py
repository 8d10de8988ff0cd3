"""Unified at-rest integrity audit: ``repro fsck --all``.

Every durable layer already verifies itself — checkpoints
(:func:`repro.resilience.checkpoint.fsck`), delta WALs
(:func:`repro.stream.log.fsck_log`), epoch journals
(:meth:`repro.stream.epoch.EpochJournal.load`), service job journals
(each record's labels CRC against the copy it names), and RPSNAP01 snapshots
(:meth:`repro.service.read.Snapshot.open`).  What was missing is one walk
that finds *all* of them under a directory tree and folds the verdicts
into a single machine-readable :class:`IntegrityReport` with one exit-code
contract:

* ``0`` — every store clean (recoverable findings like a WAL torn tail or
  a stale temp file don't count as damage);
* ``1`` — at least one damaged entry;
* ``2`` — the root directory is missing or unreadable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    CheckpointError, JournalVersionError, SnapshotError, StreamError,
)

__all__ = ["FsckFinding", "StoreReport", "IntegrityReport", "fsck_all"]

#: Entry statuses that indicate real damage (vs recoverable findings).
_DAMAGED = ("corrupt", "unreadable")


@dataclass(frozen=True)
class FsckFinding:
    """Verdict for one file inside one store."""

    path: str
    #: ``ok`` | ``corrupt`` | ``unreadable`` | ``torn-tail`` | ``stale-tmp``.
    status: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"path": self.path, "status": self.status, "detail": self.detail}


@dataclass
class StoreReport:
    """All findings for one discovered store directory."""

    #: ``checkpoint`` | ``wal`` | ``epoch-journal`` | ``snapshot-catalog``
    #: | ``service-journal``.
    kind: str
    path: str
    findings: list[FsckFinding] = field(default_factory=list)

    @property
    def damaged(self) -> int:
        return sum(1 for f in self.findings if f.status in _DAMAGED)

    @property
    def ok(self) -> bool:
        return self.damaged == 0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "ok": self.ok,
            "damaged": self.damaged,
            "findings": [f.as_dict() for f in self.findings],
        }


@dataclass
class IntegrityReport:
    """The unified audit result for one directory tree."""

    root: str
    stores: list[StoreReport] = field(default_factory=list)
    #: Why the walk itself failed ("" = it didn't).
    error: str = ""

    @property
    def damaged(self) -> int:
        return sum(s.damaged for s in self.stores)

    @property
    def ok(self) -> bool:
        return not self.error and self.damaged == 0

    @property
    def exit_code(self) -> int:
        """The unified fsck contract: 0 clean / 1 damaged / 2 unreadable."""
        if self.error:
            return 2
        return 0 if self.damaged == 0 else 1

    def as_dict(self) -> dict:
        return {
            "schema": "repro.integrity/fsck",
            "version": 1,
            "root": self.root,
            "ok": self.ok,
            "error": self.error,
            "stores": [s.as_dict() for s in self.stores],
            "summary": {
                "stores": len(self.stores),
                "entries": sum(len(s.findings) for s in self.stores),
                "damaged": self.damaged,
            },
        }


# ---------------------------------------------------------------------- #
# Per-store walkers
# ---------------------------------------------------------------------- #

def _fsck_checkpoints(directory: Path) -> StoreReport:
    from repro.resilience.checkpoint import fsck

    report = StoreReport(kind="checkpoint", path=str(directory))
    try:
        entries = fsck(directory)
    except CheckpointError as exc:
        report.findings.append(
            FsckFinding(path=str(directory), status="unreadable", detail=str(exc))
        )
        return report
    for entry in entries:
        report.findings.append(FsckFinding(
            path=str(entry.path), status=entry.status, detail=entry.detail
        ))
    return report


def _fsck_wal(directory: Path) -> StoreReport:
    from repro.stream.log import fsck_log

    report = StoreReport(kind="wal", path=str(directory))
    try:
        entries = fsck_log(directory)
    except StreamError as exc:
        report.findings.append(
            FsckFinding(path=str(directory), status="unreadable", detail=str(exc))
        )
        return report
    for entry in entries:
        report.findings.append(FsckFinding(
            path=str(entry.path), status=entry.status, detail=entry.detail
        ))
    return report


def _fsck_epochs(directory: Path) -> StoreReport:
    from repro.stream.epoch import EpochJournal

    report = StoreReport(kind="epoch-journal", path=str(directory))
    for path in sorted(directory.glob("epoch-*.npz")):
        try:
            EpochJournal.load(path)
        except (StreamError, OSError, ValueError) as exc:
            report.findings.append(
                FsckFinding(path=str(path), status="corrupt", detail=str(exc))
            )
        else:
            report.findings.append(FsckFinding(path=str(path), status="ok"))
    for tmp in sorted(directory.glob(".tmp-*")):
        report.findings.append(FsckFinding(
            path=str(tmp), status="stale-tmp", detail="orphaned temp file"
        ))
    return report


def _fsck_snapshots(directory: Path) -> StoreReport:
    from repro.service.read import Snapshot

    report = StoreReport(kind="snapshot-catalog", path=str(directory))
    for path in sorted(directory.glob("v*.snap")):
        try:
            snap = Snapshot.open(path, verify=True)
        except SnapshotError as exc:
            report.findings.append(
                FsckFinding(path=str(path), status="corrupt", detail=str(exc))
            )
        else:
            snap.close()
            report.findings.append(FsckFinding(path=str(path), status="ok"))
    for tmp in sorted(directory.glob(".tmp-*")):
        report.findings.append(FsckFinding(
            path=str(tmp), status="stale-tmp", detail="orphaned temp file"
        ))
    return report


def _fsck_service_journal(directory: Path) -> StoreReport:
    """Verify jobs/*.json records and the labels CRC of each against the
    one copy it names (:func:`repro.service.journal.resolve_labels`).

    (Deliberately does not instantiate
    :class:`~repro.service.journal.ServiceJournal` — an audit must not
    create directories in the tree it inspects.)
    """
    from repro.service.journal import check_version, resolve_labels

    report = StoreReport(kind="service-journal", path=str(directory))
    for path in sorted((directory / "jobs").glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict) or "version" not in doc:
                raise ValueError("not a job record")
            check_version(doc, path)
        except (OSError, ValueError, JournalVersionError) as exc:
            report.findings.append(
                FsckFinding(path=str(path), status="corrupt", detail=str(exc))
            )
            continue
        owner = resolve_labels(directory, path.stem, doc)
        if owner is None or owner.labels is not None:
            report.findings.append(FsckFinding(path=str(path), status="ok"))
        elif _pruned_epoch(owner.path, doc.get("labels_epoch")):
            # Restart demotes the record and re-runs the subscription from
            # the newer epoch, as it does after any interrupted advance.
            report.findings.append(FsckFinding(
                path=str(path), status="ok",
                detail=f"named epoch pruned; restart re-runs from a newer "
                       f"one ({owner.path.name} is gone)",
            ))
        else:
            report.findings.append(FsckFinding(
                path=str(owner.path), status="corrupt", detail=owner.problem,
            ))
    return report


def _pruned_epoch(snapshot: Path, epoch: int | None) -> bool:
    """Whether a subscription record's missing ``snapshot`` was pruned by
    its epoch journal's retention ring: a newer readable epoch is there."""
    from repro.stream.epoch import EpochJournal

    if epoch is None or snapshot.exists() or not snapshot.parent.is_dir():
        return False
    newest = EpochJournal(snapshot.parent).latest()
    return newest is not None and newest.epoch > int(epoch)


# ---------------------------------------------------------------------- #

def _classify(directory: Path, names: list[str], dirnames: list[str]) -> list[str]:
    """Which store kinds live directly in ``directory``."""
    kinds = []
    if any(n.startswith("ckpt-") and n.endswith(".npz") for n in names):
        kinds.append("checkpoint")
    if any(n.startswith("segment-") and n.endswith(".wal") for n in names):
        kinds.append("wal")
    if any(n.startswith("epoch-") and n.endswith(".npz") for n in names):
        kinds.append("epoch-journal")
    if any(n.startswith("v") and n.endswith(".snap") for n in names):
        kinds.append("snapshot-catalog")
    if "jobs" in dirnames and any((directory / "jobs").glob("*.json")):
        kinds.append("service-journal")
    return kinds


_WALKERS = {
    "checkpoint": _fsck_checkpoints,
    "wal": _fsck_wal,
    "epoch-journal": _fsck_epochs,
    "snapshot-catalog": _fsck_snapshots,
    "service-journal": _fsck_service_journal,
}


def fsck_all(root: str | Path) -> IntegrityReport:
    """Walk ``root`` recursively, verify every durable store found.

    Never raises for damage — the report carries every verdict; a missing
    or unreadable ``root`` is reported via :attr:`IntegrityReport.error`
    (exit code 2).
    """
    root = Path(root)
    report = IntegrityReport(root=str(root))
    if not root.is_dir():
        report.error = f"{root} is not a readable directory"
        return report
    for current, dirnames, filenames in os.walk(root):
        current = Path(current)
        dirnames.sort()
        for kind in _classify(current, sorted(filenames), dirnames):
            report.stores.append(_WALKERS[kind](current))
    return report
