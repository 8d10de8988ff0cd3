"""The versioned snapshot read path: published labels served as queries.

The write side of the repo (service jobs, streaming epochs) produces label
arrays; this module is the read side that makes them *queryable* under
load.  Three layers:

* :class:`Snapshot` — one immutable, mmap-backed snapshot file.  The
  ``.snap`` format stores the labels plus a precomputed CSR-style
  community index (members grouped by community with an offsets array and
  a dense label→row map), so ``membership(v)`` is one O(1) array read and
  ``roster(c)`` is an O(|C|) slice copy — no scan, no sort, no hash at
  query time.  The file is an RPSNAP01 container (:mod:`repro.container`,
  the layout every label-carrying store shares): every array section
  carries a CRC32 in the header and is verified on open.  An open is one
  file open and one mapping of the whole file.
* :class:`SnapshotCatalog` — job_id → ordered versions on disk.
  :meth:`~SnapshotCatalog.publish` builds the index and writes it with
  the container's atomic durable write, so a crash at any instant leaves
  either the previous version set or the new one — never a torn file
  that :meth:`~SnapshotCatalog.latest` could serve.
  ``latest()`` falls back generation-by-generation past corrupt files,
  CRC-verified, recording each skip.
* :class:`QueryEngine` — the serving front end: caches one open snapshot
  per job (and the one served before it, for ``diff``), exposes
  ``membership`` / ``roster`` / ``community_sizes`` / ``diff``, counts
  ops, and emits
  :class:`~repro.observe.trace.QueryEvent` /
  :class:`~repro.observe.trace.QueryStatsEvent` observability.

Publishers: :class:`~repro.service.service.DetectionService` publishes
one snapshot per completed job (``source="job"``) and one per streaming
epoch (``source="epoch"``) when configured with a ``snapshot_dir``; see
docs/query.md for the format and the atomicity guarantees.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro import container
from repro.errors import (
    ConfigurationError,
    ContainerError,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotNotFoundError,
)
from repro.observe.trace import (
    QueryEvent,
    QueryStatsEvent,
    SnapshotSkipEvent,
    Tracer,
)
from repro.service.journal import _safe_name

__all__ = [
    "Snapshot",
    "SnapshotCatalog",
    "SnapshotDiff",
    "QueryEngine",
    "diff_snapshots",
    "write_snapshot",
    "read_header",
    "snapshot_ring",
]

#: Bump when the snapshot layout changes incompatibly.
#: v2: a CRC32 of the JSON header follows the header-length word, so a
#: bit-flip anywhere in the header (not just the array sections) is
#: detected at open time.
FORMAT = "repro.service/snapshot"
FORMAT_VERSION = 2

_PREFIX = "v"
_SUFFIX = ".snap"

#: Section order in the file; also the required set at open time.
_ARRAY_NAMES = ("labels", "comm_ids", "comm_offsets", "comm_members", "label_rows")

#: Header fields every snapshot carries besides its format and sections.
_FIELDS = ("job_id", "snapshot_version", "source", "num_vertices",
           "num_communities", "labels_crc32")


def snapshot_ring(
    directory: str | Path, keep: int | None = None, *, verify: bool = True
) -> container.Ring:
    """The generation ring of one job's snapshot versions in ``directory``."""
    return container.Ring(
        directory, _PREFIX, _SUFFIX, load=partial(Snapshot.open, verify=verify),
        error=SnapshotError, keep=keep,
    )


def _build_index(labels: np.ndarray) -> dict[str, np.ndarray]:
    """Precompute the CSR-style community index for one label array.

    ``comm_members`` holds vertex ids grouped by community (stable order
    within each group), ``comm_offsets`` delimits the groups, ``comm_ids``
    names them, and ``label_rows`` is the dense label→group-row map that
    makes ``roster`` O(1) + output size.
    """
    labels = np.ascontiguousarray(np.asarray(labels), dtype=np.int64)
    if labels.ndim != 1:
        raise SnapshotError(f"labels must be 1-D; got shape {labels.shape}")
    n = labels.shape[0]
    if n and int(labels.min()) < 0:
        raise SnapshotError("labels must be non-negative")
    order = np.argsort(labels, kind="stable").astype(np.int64, copy=False)
    # Groups are the runs of the sorted labels: one sort serves the member
    # order, the community ids and the offsets.
    ordered = labels[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    comm_ids = ordered[starts]
    comm_offsets = np.append(starts, n).astype(np.int64, copy=False)
    rows = int(ordered[-1]) + 1 if n else 0
    label_rows = np.full(rows, -1, dtype=np.int64)
    label_rows[comm_ids] = np.arange(comm_ids.shape[0], dtype=np.int64)
    return {
        "labels": labels,
        "comm_ids": comm_ids,
        "comm_offsets": comm_offsets,
        "comm_members": order,
        "label_rows": label_rows,
    }


def write_snapshot(
    path: str | Path,
    labels: np.ndarray,
    *,
    job_id: str,
    snapshot_version: int,
    source: str = "job",
    epoch: int | None = None,
) -> Path:
    """Atomically write one snapshot file (used by the catalog).

    The container's durable write: a reader (or a crash) can never
    observe a half-written snapshot under the published name.
    """
    if source not in ("job", "epoch"):
        raise SnapshotError(f"unknown snapshot source {source!r}")
    path = Path(path)
    arrays = _build_index(labels)
    entries = container.plan(arrays)
    header = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "job_id": job_id,
        "snapshot_version": int(snapshot_version),
        "source": source,
        "epoch": None if epoch is None else int(epoch),
        "num_vertices": int(arrays["labels"].shape[0]),
        "num_communities": int(arrays["comm_ids"].shape[0]),
        "labels_crc32": entries["labels"]["crc32"],
        "arrays": entries,
    }
    try:
        container.write(path, header, arrays)
    except ContainerError as exc:
        raise SnapshotError(f"cannot write snapshot {exc}") from exc
    return path


class Snapshot:
    """One open, mmap-backed, CRC-verified snapshot file.

    Opening costs one file open, one ``fstat`` and one mapping of the
    whole file; the five sections are read-only
    ``np.frombuffer`` views into that mapping.  Nothing is deserialised
    up front beyond the JSON header, so an open is O(header) + one CRC
    pass (skippable with ``verify=False`` for callers that already trust
    the file).
    """

    def __init__(self, file: container.Container) -> None:
        header = file.header
        self.path = file.path
        self.job_id: str = header["job_id"]
        self.snapshot_version: int = int(header["snapshot_version"])
        self.source: str = header["source"]
        self.epoch: int | None = (
            None if header["epoch"] is None else int(header["epoch"])
        )
        self.num_vertices: int = int(header["num_vertices"])
        self.num_communities: int = int(header["num_communities"])
        self._labels = file.arrays["labels"]
        self._comm_ids = file.arrays["comm_ids"]
        self._comm_offsets = file.arrays["comm_offsets"]
        self._comm_members = file.arrays["comm_members"]
        self._label_rows = file.arrays["label_rows"]
        #: The opened container (it holds the mapping), minus the parsed
        #: header: the attributes above keep what a snapshot serves of it.
        file.header = {}
        self._file = file

    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, path: str | Path, *, verify: bool = True) -> "Snapshot":
        """Map one snapshot file; raises :class:`SnapshotCorruptError` on
        any read failure, structural damage or (with ``verify=True``) CRC
        damage."""
        path = Path(path)
        snap = cls(_read(path, _ARRAY_NAMES, verify=verify))
        if snap._comm_offsets.shape[0] != snap.num_communities + 1:
            raise SnapshotCorruptError(
                f"snapshot {path}: community offsets length "
                f"{snap._comm_offsets.shape[0]} != num_communities + 1"
            )
        return snap

    def unchanged_on_disk(self) -> bool:
        """Whether :attr:`path` still holds exactly the bytes this object
        maps, checked in place with no new open, read or mapping
        (:meth:`repro.container.Container.unchanged_on_disk`)."""
        return self._file.unchanged_on_disk()

    def verify(self) -> None:
        """Re-check the file; raises :class:`SnapshotCorruptError` on damage.

        In place while the file is unchanged since open
        (:meth:`unchanged_on_disk`); otherwise by a full verified open of
        :attr:`path`, which names the damage.
        """
        if not self.unchanged_on_disk():
            Snapshot.open(self.path, verify=True).close()

    def close(self) -> None:
        """Drop this object's references to the mapping.

        Never unmaps: an array a caller took from :attr:`labels` stays
        valid, and the mapping goes when its last view does.  Queries on
        this object after close are undefined.
        """
        for name in _ARRAY_NAMES:
            arr = getattr(self, "_" + name)
            setattr(self, "_" + name, np.empty(0, dtype=arr.dtype))
        self._file.arrays, self._file.buffer = {}, None

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def labels(self) -> np.ndarray:
        """The label array (a read-only view into the mapping)."""
        return self._labels

    def membership(self, vertex: int) -> int:
        """Community label of one vertex — one O(1) array read."""
        if not 0 <= vertex < self.num_vertices:
            raise ConfigurationError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )
        return int(self._labels[vertex])

    def has_community(self, label: int) -> bool:
        """Whether any vertex carries ``label`` in this snapshot."""
        return (
            0 <= label < self._label_rows.shape[0]
            and int(self._label_rows[label]) >= 0
        )

    def roster(self, label: int) -> np.ndarray:
        """All vertices in community ``label`` — O(|C|) via the index.

        Unknown labels return an empty array (a community that churned
        away between epochs is a normal query, not an error).
        """
        if not self.has_community(label):
            return np.empty(0, dtype=np.int64)
        row = int(self._label_rows[label])
        lo = int(self._comm_offsets[row])
        hi = int(self._comm_offsets[row + 1])
        return self._comm_members[lo:hi].copy()

    def community_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(community_ids, sizes)`` — O(num_communities)."""
        return self._comm_ids.copy(), np.diff(self._comm_offsets)


def _read(path: Path, names: tuple[str, ...], verify: bool = True):
    """Map one snapshot container and check the header fields readers use."""
    try:
        file = container.read(
            path, FORMAT, FORMAT_VERSION, names, verify=verify, mapped=True
        )
    except ContainerError as exc:
        raise SnapshotCorruptError(f"snapshot {exc}") from exc
    for key in _FIELDS:
        if key not in file.header:
            raise SnapshotCorruptError(f"snapshot {path}: header missing {key!r}")
    file.header.setdefault("epoch", None)
    return file


def read_header(path: str | Path) -> dict:
    """Parse and structurally check one snapshot header.

    The header's own CRC32 (format v2) is always verified — only the
    array sections have a skippable CRC pass.
    """
    return _read(Path(path), ()).header


# --------------------------------------------------------------------- #
# Diff
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SnapshotDiff:
    """Epoch-over-epoch churn between two snapshots of one job."""

    from_version: int
    to_version: int
    from_epoch: int | None
    to_epoch: int | None
    #: Vertices (present in both snapshots) whose label changed.
    changed: np.ndarray
    #: Vertices present in only the larger snapshot (graph growth).
    grown: np.ndarray
    #: ``(|changed| + |grown|) / max(num_vertices)`` — the churn fraction.
    fraction: float

    @property
    def total(self) -> int:
        return int(self.changed.shape[0] + self.grown.shape[0])


def diff_snapshots(a: Snapshot, b: Snapshot) -> SnapshotDiff:
    """Label churn from snapshot ``a`` to snapshot ``b`` (one O(N) pass)."""
    la = np.asarray(a.labels)
    lb = np.asarray(b.labels)
    common = min(la.shape[0], lb.shape[0])
    larger = max(la.shape[0], lb.shape[0])
    changed = np.flatnonzero(la[:common] != lb[:common]).astype(np.int64)
    grown = np.arange(common, larger, dtype=np.int64)
    return SnapshotDiff(
        from_version=a.snapshot_version,
        to_version=b.snapshot_version,
        from_epoch=a.epoch,
        to_epoch=b.epoch,
        changed=changed,
        grown=grown,
        fraction=(changed.shape[0] + grown.shape[0]) / max(larger, 1),
    )


# --------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------- #


class SnapshotCatalog:
    """job_id → ordered snapshot versions under one root directory.

    Layout: ``<root>/<safe-job-id>/v00000001.snap`` — version numbers are
    monotone per job and never reused, even past unreadable files (a
    corrupt ``v7`` still burns the number; the next publish is ``v8``).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        keep: int | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if keep is not None and keep < 1:
            raise SnapshotError(f"keep must be >= 1 or None; got {keep}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        #: Emits a :class:`~repro.observe.trace.SnapshotSkipEvent` whenever
        #: :meth:`latest` steps past a damaged version file.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: ``(path, reason)`` of snapshots :meth:`latest` skipped.
        self.skipped: list[tuple[Path, str]] = []

    # ------------------------------------------------------------------ #

    def job_dir(self, job_id: str) -> Path:
        return self.root / _safe_name(job_id)

    def job_ids_on_disk(self) -> list[str]:
        """Sanitised per-job directory names present under the root."""
        return sorted(p.name for p in self.root.iterdir() if p.is_dir())

    def versions(self, job_id: str) -> list[Path]:
        """All well-named snapshot files of one job, oldest first."""
        return snapshot_ring(self.job_dir(job_id), self.keep).files()

    @staticmethod
    def version_of(path: Path) -> int:
        """Version number encoded in a snapshot filename (-1 if malformed)."""
        stem = path.name[len(_PREFIX):-len(_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            return -1

    # ------------------------------------------------------------------ #

    def publish(
        self,
        job_id: str,
        labels: np.ndarray,
        *,
        source: str = "job",
        epoch: int | None = None,
        dedupe: bool = True,
    ) -> Path:
        """Atomically publish the next snapshot version for one job.

        With ``dedupe=True`` (the default) a publish whose labels, source,
        and epoch match the newest existing version's header is a no-op
        returning that version's path — which makes the recovery path's
        re-publish after a crash idempotent instead of version-inflating.
        """
        labels = np.ascontiguousarray(np.asarray(labels), dtype=np.int64)
        ring = snapshot_ring(self.job_dir(job_id), self.keep)
        ring.directory.mkdir(parents=True, exist_ok=True)
        existing = ring.files()
        if dedupe and existing:
            try:
                head = read_header(existing[-1])
            except SnapshotError:
                head = None
            if (
                head is not None
                and int(head["labels_crc32"]) == zlib.crc32(labels)
                and head["source"] == source
                and head["epoch"] == (None if epoch is None else int(epoch))
            ):
                return existing[-1]
        next_version = 1 + max(
            [self.version_of(p) for p in existing], default=0
        )
        path = ring.directory / f"{_PREFIX}{next_version:08d}{_SUFFIX}"
        write_snapshot(
            path, labels,
            job_id=job_id, snapshot_version=next_version,
            source=source, epoch=epoch,
        )
        ring.prune(protect=path, listing=[*existing, path])
        return path

    # ------------------------------------------------------------------ #

    def latest(self, job_id: str, *, verify: bool = True) -> Snapshot:
        """Newest *readable* snapshot of one job, CRC-verified.

        Falls back generation-by-generation past damaged files (recorded
        in :attr:`skipped`); raises :class:`SnapshotNotFoundError` when
        nothing was ever published or everything published is damaged.
        """
        ring = snapshot_ring(self.job_dir(job_id), self.keep, verify=verify)
        snap = ring.latest()
        self.skipped = ring.skipped
        if self.tracer.enabled:
            for path, reason in self.skipped:
                self.tracer.emit(SnapshotSkipEvent(
                    iteration=self.version_of(path),
                    job_id=job_id,
                    path=path.name,
                    reason=reason,
                ))
        if snap is not None:
            return snap
        if self.skipped:
            raise SnapshotNotFoundError(
                f"job {job_id!r}: all {len(self.skipped)} published "
                f"snapshot(s) are damaged (newest: {self.skipped[0][1]})"
            )
        raise SnapshotNotFoundError(
            f"job {job_id!r} has no published snapshot under {self.root}"
        )

    def latest_or_none(self, job_id: str) -> Snapshot | None:
        """Like :meth:`latest` but ``None`` instead of raising."""
        try:
            return self.latest(job_id)
        except SnapshotNotFoundError:
            return None

    def open_version(self, job_id: str, version: int) -> Snapshot:
        """Open one specific version, CRC-verified."""
        for path in self.versions(job_id):
            if self.version_of(path) == version:
                return Snapshot.open(path)
        raise SnapshotNotFoundError(
            f"job {job_id!r} has no snapshot version {version}"
        )


# --------------------------------------------------------------------- #
# Query engine
# --------------------------------------------------------------------- #


class QueryEngine:
    """The serving front end over a :class:`SnapshotCatalog`.

    Keeps one open snapshot per job (explicitly refreshed — the hot path
    never stats the directory) plus the one it served before, which the
    default :meth:`diff` reuses; counts every op, and emits
    :class:`~repro.observe.trace.QueryEvent` per query when a tracer is
    enabled plus :class:`~repro.observe.trace.QueryStatsEvent` from
    :meth:`snapshot_stats`.
    """

    def __init__(
        self,
        catalog: SnapshotCatalog | str | Path,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.catalog = (
            catalog if isinstance(catalog, SnapshotCatalog)
            else SnapshotCatalog(catalog, tracer=self.tracer)
        )
        if not self.catalog.tracer.enabled:
            # Skip events from refresh() surface in the engine's trace.
            self.catalog.tracer = self.tracer
        self._cache: dict[str, Snapshot] = {}
        #: The version each job served before its last refresh moved on.
        self._previous: dict[str, Snapshot] = {}
        self.op_counts = {
            "membership": 0, "roster": 0, "community_sizes": 0,
            "diff": 0, "refresh": 0,
        }
        self._stats_seq = 0

    # ------------------------------------------------------------------ #

    def refresh(self, job_id: str) -> Snapshot:
        """(Re)load the newest readable snapshot of one job.

        The version served until now, if it is another file, is kept as
        the job's previous version (the one before it is released), so a
        default :meth:`diff` right after a refresh maps nothing new.
        """
        snap = self.catalog.latest(job_id)
        old = self._cache.get(job_id)
        if old is not None and old.path != snap.path:
            displaced = self._previous.get(job_id)
            if displaced is not None:
                displaced.close()
            self._previous[job_id] = old
        self._cache[job_id] = snap
        self.op_counts["refresh"] += 1
        return snap

    def snapshot_for(self, job_id: str) -> Snapshot:
        """The cached snapshot of one job (loading it on first use)."""
        snap = self._cache.get(job_id)
        if snap is None:
            snap = self.refresh(job_id)
        return snap

    def close(self) -> None:
        """Release every mapped version: served and previous."""
        for snap in (*self._cache.values(), *self._previous.values()):
            snap.close()
        self._cache.clear()
        self._previous.clear()

    def _served(self, job_id: str, path: Path) -> Snapshot | None:
        """This engine's mapping of ``path`` if the file is unchanged since.

        Only the job's served and previous versions are candidates; either
        is reused when :meth:`Snapshot.unchanged_on_disk` holds, so a
        version damaged or replaced after it was mapped is re-opened (and
        skipped if damaged) exactly as a never-served one would be.
        """
        for snap in (self._cache.get(job_id), self._previous.get(job_id)):
            if snap is not None and snap.path == path:
                return snap if snap.unchanged_on_disk() else None
        return None

    # ------------------------------------------------------------------ #

    def membership(self, job_id: str, vertex: int) -> int:
        """O(1): community label of ``vertex`` in the served snapshot."""
        snap = self.snapshot_for(job_id)
        label = snap.membership(vertex)
        self.op_counts["membership"] += 1
        if self.tracer.enabled:
            self.tracer.emit(QueryEvent(
                iteration=self._total_ops(), job_id=job_id, op="membership",
                key=vertex, result_size=1,
                snapshot_version=snap.snapshot_version,
            ))
        return label

    def roster(self, job_id: str, label: int) -> np.ndarray:
        """O(|C|): every vertex in community ``label``."""
        snap = self.snapshot_for(job_id)
        members = snap.roster(label)
        self.op_counts["roster"] += 1
        if self.tracer.enabled:
            self.tracer.emit(QueryEvent(
                iteration=self._total_ops(), job_id=job_id, op="roster",
                key=label, result_size=int(members.shape[0]),
                snapshot_version=snap.snapshot_version,
            ))
        return members

    def community_sizes(self, job_id: str) -> tuple[np.ndarray, np.ndarray]:
        """``(community_ids, sizes)`` of the served snapshot."""
        snap = self.snapshot_for(job_id)
        ids, sizes = snap.community_sizes()
        self.op_counts["community_sizes"] += 1
        if self.tracer.enabled:
            self.tracer.emit(QueryEvent(
                iteration=self._total_ops(), job_id=job_id,
                op="community_sizes", key=-1,
                result_size=int(ids.shape[0]),
                snapshot_version=snap.snapshot_version,
            ))
        return ids, sizes

    def diff(
        self,
        job_id: str,
        from_version: int | None = None,
        to_version: int | None = None,
    ) -> SnapshotDiff:
        """Churn between two versions (default: the two newest readable).

        The default pair reuses the engine's served and previous mappings
        (see :meth:`_served`) and opens only what they do not cover.
        """
        if (from_version is None) != (to_version is None):
            raise ConfigurationError(
                "diff needs both versions or neither (neither = the two "
                "newest readable)"
            )
        # Versions opened here are dropped on return, which is all that
        # Snapshot.close() would do.
        if from_version is None:
            readable: list[Snapshot] = []
            for path in reversed(self.catalog.versions(job_id)):
                snap = self._served(job_id, path)
                if snap is None:
                    try:
                        snap = Snapshot.open(path)
                    except SnapshotError:
                        continue
                readable.append(snap)
                if len(readable) == 2:
                    break
            if len(readable) < 2:
                raise SnapshotNotFoundError(
                    f"job {job_id!r} has fewer than two readable snapshot "
                    f"versions; nothing to diff"
                )
            newer, older = readable
        else:
            older = self.catalog.open_version(job_id, from_version)
            newer = self.catalog.open_version(job_id, to_version)
        result = diff_snapshots(older, newer)
        self.op_counts["diff"] += 1
        if self.tracer.enabled:
            self.tracer.emit(QueryEvent(
                iteration=self._total_ops(), job_id=job_id, op="diff",
                key=result.to_version, result_size=result.total,
                snapshot_version=result.to_version,
            ))
        return result

    # ------------------------------------------------------------------ #

    def _total_ops(self) -> int:
        return sum(self.op_counts.values())

    def stats(self) -> dict:
        """Op counters plus the set of currently served snapshots."""
        return {
            "ops": dict(self.op_counts),
            "total_ops": self._total_ops(),
            "served_jobs": sorted(self._cache),
            "versions": {
                job_id: snap.snapshot_version
                for job_id, snap in sorted(self._cache.items())
            },
            "skipped": len(self.catalog.skipped),
        }

    def snapshot_stats(self) -> dict:
        """Emit a :class:`QueryStatsEvent` and return :meth:`stats`."""
        doc = self.stats()
        self._stats_seq += 1
        self.tracer.emit(QueryStatsEvent(
            iteration=self._stats_seq,
            membership=doc["ops"]["membership"],
            roster=doc["ops"]["roster"],
            community_sizes=doc["ops"]["community_sizes"],
            diff=doc["ops"]["diff"],
            refresh=doc["ops"]["refresh"],
            served_jobs=len(doc["served_jobs"]),
            skipped_snapshots=doc["skipped"],
        ))
        return doc
