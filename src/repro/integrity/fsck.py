"""Unified at-rest integrity audit: ``repro fsck --all``.

Every durable layer already verifies itself — the three generation
rings of RPSNAP01 containers (checkpoints, epoch journals and snapshot
catalogs, each audited by :meth:`repro.container.Ring.audit`), delta WALs
(:func:`repro.stream.log.fsck_log`) and service job journals (each
record's labels CRC against the copy it names).  What was missing is one walk
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

from repro.errors import JournalVersionError, StreamError

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
    from repro.stream.epoch import epoch_ring

    if epoch is None or snapshot.exists() or not snapshot.parent.is_dir():
        return False
    newest = epoch_ring(snapshot.parent).latest()
    return newest is not None and newest.epoch > int(epoch)


# ---------------------------------------------------------------------- #

def _audit(directory: Path, names: list[str], dirnames: list[str]) -> list[StoreReport]:
    """Audit every store that lives directly in ``directory``: the three
    generation rings through :meth:`repro.container.Ring.audit`, then a
    WAL and a service journal."""
    from repro.resilience.checkpoint import checkpoint_ring
    from repro.service.read import snapshot_ring
    from repro.stream.epoch import epoch_ring

    rings = {
        "checkpoint": checkpoint_ring(directory),
        "epoch-journal": epoch_ring(directory),
        "snapshot-catalog": snapshot_ring(directory),
    }
    reports = [
        StoreReport(kind, str(directory), [
            FsckFinding(str(f.path), f.status, f.detail) for f in ring.audit()
        ])
        for kind, ring in rings.items() if any(ring.owns(n) for n in names)
    ]
    if any(n.startswith("segment-") and n.endswith(".wal") for n in names):
        reports.append(_fsck_wal(directory))
    if "jobs" in dirnames and any((directory / "jobs").glob("*.json")):
        reports.append(_fsck_service_journal(directory))
    return reports


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
        report.stores.extend(_audit(current, sorted(filenames), dirnames))
    return report
