"""The one durable container for every label-carrying file.

Checkpoints, epoch snapshots, finished-job labels and read snapshots each
store a few named arrays plus a JSON header.  This leaf module (stdlib,
numpy and :mod:`repro.errors` only) owns their one byte layout, their one
crash-consistent write, and the keep-``N`` generation ring three of them
share.

Layout (RPSNAP01)::

    b"RPSNAP01" | u32 header length | u32 header CRC32 | JSON header
    | zero padding | sections at 64-byte-aligned offsets

Both words are little-endian.  The header names its ``format`` and
``version`` and maps each section under ``arrays`` to its ``offset``
(from the first 64-byte boundary after the header), ``dtype``, ``shape``
and ``crc32``.  Every failure to write or read a container, I/O errors
included, raises :class:`~repro.errors.ContainerError`; each store
re-raises it as its own error type.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.errors import ContainerError

__all__ = [
    "MAGIC", "Container", "Finding", "Ring", "atomic_write", "fsync_dir",
    "plan", "read", "write",
]

#: File magic: 8 bytes at offset 0 of every container.
MAGIC = b"RPSNAP01"

#: Sections are aligned to this many bytes (mmap-friendly).
ALIGN = 64

#: Magic plus the two u32 header words; the JSON header starts here.
HEADER_AT = len(MAGIC) + 8


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def fsync_dir(directory: Path) -> None:
    """Flush directory metadata (a rename or create) to stable storage."""
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


def atomic_write(path: Path, chunks) -> None:
    """Crash-consistently replace ``path`` with the bytes-like ``chunks``.

    Writes a ``.tmp-*`` sibling, fsyncs it, renames it over ``path`` and
    fsyncs the directory: a crash at any instant leaves either the old
    file or the new one under ``path``, never a torn one.
    """
    path = Path(path)
    tmp = path.parent / f".tmp-{os.getpid()}-{path.name}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ContainerError(f"{path}: {exc}") from exc


def plan(sections: dict[str, np.ndarray]) -> dict[str, dict]:
    """The header's ``arrays`` entry for C-contiguous ``sections``, in order."""
    entries: dict[str, dict] = {}
    offset = 0
    for name, arr in sections.items():
        offset = _align(offset)
        entries[name] = {
            "offset": offset,
            "dtype": arr.dtype.name,
            "shape": list(arr.shape),
            "crc32": zlib.crc32(arr),
        }
        offset += arr.nbytes
    return entries


def write(path: Path, header: dict, sections: dict[str, np.ndarray]) -> None:
    """Atomically write one container.

    ``header["arrays"]`` must be :func:`plan` of ``sections``; each
    section is written from its own buffer, with no intermediate copy.
    """
    encoded = json.dumps(header).encode()
    data_start = _align(HEADER_AT + len(encoded))
    chunks: list = [
        MAGIC, struct.pack("<II", len(encoded), zlib.crc32(encoded)), encoded,
    ]
    at = HEADER_AT + len(encoded)
    for name, arr in sections.items():
        start = data_start + header["arrays"][name]["offset"]
        chunks += [b"\0" * (start - at), arr]
        at = start + arr.nbytes
    atomic_write(path, chunks)


def _check_header(path: Path, buffer, fmt: str, version: int) -> tuple[dict, int, int]:
    """Parse the header at the start of ``buffer``.

    Returns ``(header, header_len, header_crc32)``.  The header's own
    CRC32 is always verified.
    """
    if buffer[:len(MAGIC)] != MAGIC:
        raise ContainerError(
            f"{path}: bad magic {bytes(buffer[:len(MAGIC)])!r} (want {MAGIC!r})"
        )
    if len(buffer) < HEADER_AT:
        raise ContainerError(f"{path}: truncated header")
    header_len, header_crc = struct.unpack_from("<II", buffer, len(MAGIC))
    raw = buffer[HEADER_AT:HEADER_AT + header_len]
    if len(raw) != header_len:
        raise ContainerError(f"{path}: truncated header")
    if zlib.crc32(raw) != header_crc:
        raise ContainerError(
            f"{path}: header CRC {zlib.crc32(raw)} != recorded {header_crc}"
        )
    try:
        header = json.loads(raw)
    except ValueError as exc:
        raise ContainerError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        found = header.get("format") if isinstance(header, dict) else header
        raise ContainerError(f"{path}: unknown format {found!r} (want {fmt!r})")
    if header.get("version") != version:
        raise ContainerError(
            f"{path}: format version {header.get('version')} unsupported "
            f"(this build reads {version})"
        )
    if not isinstance(header.get("arrays"), dict):
        raise ContainerError(f"{path}: header missing 'arrays'")
    return header, header_len, header_crc


@dataclass
class Container:
    """One opened container: its header and its sections.

    The sections are read-only views into :attr:`buffer`, the whole file
    (a read-only mapping when opened ``mapped``); copy what must outlive
    it or be written to.
    """

    path: Path
    header: dict
    arrays: dict[str, np.ndarray]
    buffer: Any
    #: ``(st_ino, st_size, st_mtime_ns)`` of the file when read.
    identity: tuple[int, int, int]
    #: ``(header_len, header_crc32)`` as read.
    header_span: tuple[int, int]
    #: Section name -> the CRC32 its header entry records.
    crcs: dict[str, int]

    def unchanged_on_disk(self) -> bool:
        """Whether :attr:`path` still holds exactly the bytes read.

        True when the file's identity equals the one taken at read *and*
        the magic, the header CRC and every section CRC still pass when
        re-run over :attr:`buffer` in place.  The identity check comes
        first, so a file truncated since it was mapped is never read
        through the (then partly unbacked) mapping.
        """
        if self.buffer is None:
            return False
        try:
            st = os.stat(self.path)
        except OSError:
            return False
        if (st.st_ino, st.st_size, st.st_mtime_ns) != self.identity:
            return False
        header_len, header_crc = self.header_span
        buffer = self.buffer
        if (
            buffer[:len(MAGIC)] != MAGIC
            or zlib.crc32(buffer[HEADER_AT:HEADER_AT + header_len]) != header_crc
        ):
            return False
        return all(
            zlib.crc32(arr) == self.crcs[name] for name, arr in self.arrays.items()
        )


def read(
    path: Path,
    fmt: str,
    version: int,
    names: tuple[str, ...],
    *,
    verify: bool = True,
    mapped: bool = False,
) -> Container:
    """Open one container of format ``fmt`` and ``version``.

    ``names`` are the sections the caller needs; each must be present
    (with none, only the header is read).  With ``mapped`` the file is
    mapped instead of read; with ``verify=False`` the section CRCs (not
    the header's) are skipped.
    """
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if not names:  # the header alone
                buffer = fh.read(HEADER_AT)
                if len(buffer) == HEADER_AT:
                    # A damaged length word must not size the read.
                    length = struct.unpack_from("<I", buffer, len(MAGIC))[0]
                    buffer += fh.read(min(length, st.st_size))
            elif mapped and st.st_size:
                buffer = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            else:
                buffer = fh.read()
    except OSError as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    header, header_len, header_crc = _check_header(path, buffer, fmt, version)
    size = len(buffer)
    data_start = _align(HEADER_AT + header_len)
    arrays: dict[str, np.ndarray] = {}
    crcs: dict[str, int] = {}
    for name in names:
        entry = header["arrays"].get(name)
        if entry is None:
            raise ContainerError(f"{path}: missing array section {name!r}")
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            offset = data_start + int(entry["offset"])
            crcs[name] = crc = int(entry["crc32"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ContainerError(
                f"{path}: bad metadata for {name!r}: {exc}"
            ) from exc
        if dtype.hasobject or offset < data_start or any(s < 0 for s in shape):
            raise ContainerError(
                f"{path}: bad metadata for {name!r}: object dtype, negative "
                f"offset or negative shape"
            )
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if offset + nbytes > size:
            raise ContainerError(
                f"{path}: section {name!r} extends past EOF (needs "
                f"{offset + nbytes} bytes, file has {size}) — truncated file"
            )
        if nbytes:
            arr = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
        else:
            arr = np.empty(shape, dtype=dtype)
        if verify and (actual := zlib.crc32(arr)) != crc:
            raise ContainerError(
                f"{path}: CRC32 mismatch on {name!r} (stored {crc}, "
                f"computed {actual})"
            )
        arrays[name] = arr
    return Container(
        path, header, arrays,
        buffer if isinstance(buffer, mmap.mmap) else None,
        identity=(st.st_ino, st.st_size, st.st_mtime_ns),
        header_span=(header_len, header_crc),
        crcs=crcs,
    )


# --------------------------------------------------------------------- #
# The generation ring
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Finding:
    """An fsck verdict on one file of a ring."""

    path: Path
    #: ``"ok"`` | ``"corrupt"`` | ``"stale-tmp"``.
    status: str
    detail: str = ""
    #: What the ring's ``load`` returned (``ok`` findings only).
    value: Any = None


@dataclass
class Ring:
    """One store's generation files in one directory, oldest first.

    A generation is a file named ``<prefix>…<suffix>``; names sort in
    generation order.  ``load`` reads one generation and raises ``error``
    on any damage.  Files named ``<prefix>…<legacy>`` are an earlier
    build's layout, refused by name.  A ring creates nothing on disk.

    :meth:`prune` never fsyncs the directory: an unlink that a crash
    forgets only leaves a superseded generation behind, which
    :meth:`latest` never prefers over a newer readable one and the next
    prune removes.
    """

    directory: Path
    prefix: str
    suffix: str
    load: Callable[[Path], Any]
    error: type[Exception]
    keep: int | None = None
    legacy: str | None = None
    #: ``(path, reason)`` of generations :meth:`latest` skipped, newest first.
    skipped: list[tuple[Path, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    def owns(self, name: str) -> bool:
        """Whether a file called ``name`` is a generation (either layout)."""
        return name.startswith(self.prefix) and (
            name.endswith(self.suffix)
            or (self.legacy is not None and name.endswith(self.legacy))
        )

    def files(self) -> list[Path]:
        """Every generation on disk, oldest first (none if no directory)."""
        return sorted(self.directory.glob(f"{self.prefix}*{self.suffix}"))

    def legacy_files(self) -> list[Path]:
        """Generations in the refused earlier layout, oldest first."""
        if self.legacy is None:
            return []
        return sorted(self.directory.glob(f"{self.prefix}*{self.legacy}"))

    def legacy_reason(self, path: Path) -> str:
        return (
            f"{path.name} is in an earlier build's {self.legacy} layout; "
            f"this build reads only {self.prefix}*{self.suffix} containers"
        )

    def prune(self, protect: Path, listing: list[Path] | None = None) -> None:
        """Unlink all but the newest ``keep`` generations, never ``protect``.

        ``listing`` is the save's one listing of the directory (taken
        here when ``None``).
        """
        if self.keep is None:
            return
        found = self.files() if listing is None else listing
        for stale in found[: max(0, len(found) - self.keep)]:
            if stale != protect:
                stale.unlink(missing_ok=True)

    def latest(self) -> Any:
        """The newest generation ``load`` reads, or ``None``; damaged
        generations are skipped newest-first and recorded in :attr:`skipped`."""
        self.skipped.clear()
        for path in reversed(self.files()):
            try:
                return self.load(path)
            except self.error as exc:
                self.skipped.append((path, str(exc)))
        return None

    def audit(self) -> list[Finding]:
        """A verdict on every file the ring owns, plus stale temp files.

        Stale temp files come first, then generations (earlier-layout
        files included, as ``corrupt``) in name order.
        """
        findings = [
            Finding(tmp, "stale-tmp",
                    "partial write left by an interrupted save; safe to delete")
            for tmp in sorted(self.directory.glob(".tmp-*"))
        ]
        for path in sorted([*self.legacy_files(), *self.files()]):
            if not path.name.endswith(self.suffix):
                findings.append(Finding(path, "corrupt", self.legacy_reason(path)))
                continue
            try:
                value = self.load(path)
            except self.error as exc:
                findings.append(Finding(path, "corrupt", str(exc)))
            else:
                findings.append(Finding(path, "ok", value=value))
        return findings
