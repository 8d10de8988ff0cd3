"""The durable write-ahead delta log.

Every acknowledged :class:`~repro.stream.delta.DeltaBatch` is one framed
record in a segment file::

    MAGIC(4) | seq u64 | payload_len u32 | payload_crc32 u32 | payload

(little-endian header, JSON payload).  :meth:`DeltaLog.append` returns
only after the frame is flushed *and fsynced*, so an acknowledged batch
survives any crash; rotation creates the next ``segment-NNNNNN.wal`` and
fsyncs the directory, mirroring the checkpoint layer's durability
protocol.

Opening a log runs fsck over every segment:

* a torn *tail* of the newest segment — partial header, truncated
  payload, or CRC mismatch with nothing valid after it — is the expected
  signature of a crash mid-append (the writer died before the fsync that
  would have acknowledged the batch).  It is truncated away and recorded
  in :attr:`DeltaLog.repairs`.
* damage anywhere *before* the committed head — a CRC-invalid frame in a
  non-final segment, a sequence-number gap, or a bad frame in the final
  segment with a valid acknowledged frame after it (bit rot, not a torn
  append) — raises :class:`~repro.errors.DeltaLogCorruptError`:
  truncating there would silently drop acknowledged batches, which the
  log must never do.

``repro stream fsck`` exposes :func:`fsck_log` for offline inspection.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import DeltaLogCorruptError, StreamError
from repro.container import fsync_dir
from repro.stream.delta import DeltaBatch

__all__ = ["DeltaLog", "StreamFsckEntry", "encode_frame", "fsck_log"]

_MAGIC = b"DLG1"
_HEADER = struct.Struct("<4sQII")  # magic, seq, payload_len, payload_crc32

_PREFIX = "segment-"
_SUFFIX = ".wal"

#: Refuse absurd frames instead of allocating gigabytes on a bad length
#: field (a corrupted header must not look like a huge valid payload).
_MAX_PAYLOAD = 64 * 1024 * 1024


@dataclass(frozen=True)
class _Frame:
    seq: int
    offset: int  # byte offset of the header within its segment
    length: int  # total frame length (header + payload)
    payload: bytes


def encode_frame(seq: int, batch: DeltaBatch) -> bytes:
    """One framed record: header, then the batch's canonical JSON."""
    payload = json.dumps(
        batch.as_dict(), separators=(",", ":"), sort_keys=True
    ).encode()
    return _HEADER.pack(_MAGIC, seq, len(payload), zlib.crc32(payload)) + payload


def _segment_index(path: Path) -> int:
    return int(path.name[len(_PREFIX):-len(_SUFFIX)])


def _scan_segment(data: bytes) -> tuple[list[_Frame], int, str | None]:
    """Parse frames from raw segment bytes.

    Returns ``(frames, valid_end, damage)`` where ``valid_end`` is the
    byte offset just past the last good frame and ``damage`` describes the
    first problem found after it (``None`` for a perfectly parsed
    segment).
    """
    frames: list[_Frame] = []
    pos = 0
    total = len(data)
    while pos < total:
        if total - pos < _HEADER.size:
            return frames, pos, f"partial header ({total - pos} byte(s)) at offset {pos}"
        magic, seq, length, crc = _HEADER.unpack_from(data, pos)
        if magic != _MAGIC:
            return frames, pos, f"bad magic at offset {pos}"
        if length > _MAX_PAYLOAD:
            return frames, pos, f"implausible payload length {length} at offset {pos}"
        start = pos + _HEADER.size
        if total - start < length:
            return frames, pos, (
                f"truncated payload at offset {pos} "
                f"(need {length}, have {total - start})"
            )
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return frames, pos, f"CRC32 mismatch at offset {pos} (seq {seq})"
        frames.append(_Frame(
            seq=int(seq), offset=pos, length=_HEADER.size + length,
            payload=payload,
        ))
        pos = start + length
    return frames, pos, None


def _has_valid_frame_after(data: bytes, start: int, min_seq: int) -> bool:
    """Whether a well-formed frame with ``seq >= min_seq`` exists past
    ``start`` — the bit-rot detector: a torn *append* leaves only garbage
    after the tear, never another acknowledged frame."""
    pos = data.find(_MAGIC, start + 1)
    while pos != -1:
        if len(data) - pos >= _HEADER.size:
            magic, seq, length, crc = _HEADER.unpack_from(data, pos)
            payload_start = pos + _HEADER.size
            if (
                length <= _MAX_PAYLOAD
                and len(data) - payload_start >= length
                and zlib.crc32(data[payload_start:payload_start + length]) == crc
                and seq >= min_seq
            ):
                return True
        pos = data.find(_MAGIC, pos + 1)
    return False


class DeltaLog:
    """Durable, CRC-framed, segment-rotated log of delta batches.

    Parameters
    ----------
    directory:
        Segment directory; created if missing.
    segment_bytes:
        Rotation threshold: a segment that reaches this size after an
        append is sealed and the next append opens a fresh segment.
    """

    def __init__(
        self, directory: str | Path, *, segment_bytes: int = 1 << 20
    ) -> None:
        if segment_bytes < _HEADER.size + 2:
            raise StreamError(
                f"segment_bytes must be >= {_HEADER.size + 2}; got {segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        #: Torn-tail truncations performed on open, as human-readable
        #: descriptions (empty = the log was clean).
        self.repairs: list[str] = []
        #: Sequence number of the newest acknowledged batch (0 = empty).
        self.head_seq = 0
        #: ``(segment, offset, length)`` of the frame of seq ``i + 1``:
        #: filled by the open-time scan, extended by :meth:`append`.
        self._frames: list[tuple[Path, int, int]] = []
        self._recover()

    # ------------------------------------------------------------------ #
    # Open / recovery
    # ------------------------------------------------------------------ #

    def segments(self) -> list[Path]:
        """All segment files, oldest first."""
        return sorted(self.directory.glob(f"{_PREFIX}*{_SUFFIX}"))

    def _recover(self) -> None:
        segments = self.segments()
        expected = 1
        reasons: list[str] = []
        for i, path in enumerate(segments):
            data = path.read_bytes()
            frames, valid_end, damage = _scan_segment(data)
            is_last = i == len(segments) - 1
            for frame in frames:
                if frame.seq != expected:
                    raise DeltaLogCorruptError(
                        f"delta log {self.directory}: sequence gap in "
                        f"{path.name} (expected seq {expected}, found "
                        f"{frame.seq}) — acknowledged batches are missing",
                        reasons=[f"{path.name}: seq gap at offset {frame.offset}"],
                    )
                self._frames.append((path, frame.offset, frame.length))
                expected += 1
            if damage is not None:
                if not is_last:
                    reasons.append(f"{path.name}: {damage} (not the final segment)")
                    raise DeltaLogCorruptError(
                        f"delta log {self.directory}: {path.name} is damaged "
                        f"mid-stream ({damage}); refusing to drop "
                        f"acknowledged batches",
                        reasons=reasons,
                    )
                if _has_valid_frame_after(data, valid_end, expected):
                    raise DeltaLogCorruptError(
                        f"delta log {self.directory}: {path.name} has a "
                        f"damaged frame ({damage}) followed by a valid "
                        f"acknowledged frame — mid-stream corruption, not a "
                        f"torn tail",
                        reasons=[f"{path.name}: {damage}"],
                    )
                # Torn tail: the classic crash-mid-append signature.
                with open(path, "r+b") as fh:
                    fh.truncate(valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())
                fsync_dir(self.directory)
                self.repairs.append(
                    f"{path.name}: truncated torn tail at offset "
                    f"{valid_end} ({damage})"
                )
        self.head_seq = expected - 1

    # ------------------------------------------------------------------ #
    # Append
    # ------------------------------------------------------------------ #

    def current_segment(self) -> Path:
        """The segment file the next append writes to."""
        segments = self.segments()
        if not segments:
            return self.directory / f"{_PREFIX}{1:06d}{_SUFFIX}"
        last = segments[-1]
        if last.stat().st_size >= self.segment_bytes:
            return self.directory / (
                f"{_PREFIX}{_segment_index(last) + 1:06d}{_SUFFIX}"
            )
        return last

    def append(self, batch: DeltaBatch) -> int:
        """Durably append one batch; returns its sequence number.

        The frame is flushed and fsynced before this method returns —
        the returned seq is the acknowledgement.  A crash before the
        fsync leaves at most a torn tail, which the next open truncates.
        """
        seq = self.head_seq + 1
        frame = encode_frame(seq, batch)
        path = self.current_segment()
        fresh = not path.exists()
        try:
            with open(path, "ab") as fh:
                offset = fh.tell()
                fh.write(frame)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StreamError(f"cannot append to {path}: {exc}") from exc
        if fresh:
            fsync_dir(self.directory)
        self._frames.append((path, offset, len(frame)))
        self.head_seq = seq
        return seq

    # ------------------------------------------------------------------ #
    # Read
    # ------------------------------------------------------------------ #

    def replay(self, start: int = 1) -> Iterator[tuple[int, DeltaBatch]]:
        """Yield ``(seq, batch)`` for every acknowledged batch with
        ``seq >= start``, in order.  Reads from disk, so a fresh
        :class:`DeltaLog` over the same directory replays identically."""
        for path in self.segments():
            frames, _, _ = _scan_segment(path.read_bytes())
            for frame in frames:
                if frame.seq < start or frame.seq > self.head_seq:
                    continue
                yield frame.seq, DeltaBatch.from_dict(json.loads(frame.payload))

    def read(self, seq: int) -> DeltaBatch:
        """The batch with sequence number ``seq``.

        Reads that one frame at the segment offset the open-time scan (or
        :meth:`append`) recorded, and re-checks its magic, seq and CRC
        before decoding: a frame damaged on disk since then raises
        :class:`~repro.errors.DeltaLogCorruptError`, never a wrong batch.
        """
        if not 1 <= seq <= self.head_seq:
            raise StreamError(
                f"batch seq {seq} is not in the log (head is {self.head_seq})"
            )
        path, offset, length = self._frames[seq - 1]
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read(length)
        except OSError as exc:
            raise StreamError(f"cannot read {path}: {exc}") from exc
        frames, _, damage = _scan_segment(data)
        if damage is None and [f.seq for f in frames] != [seq]:
            damage = f"found seq(s) {[f.seq for f in frames]}, want [{seq}]"
        if damage is not None:
            raise DeltaLogCorruptError(
                f"delta log {self.directory}: batch seq {seq} at "
                f"{path.name} offset {offset} is damaged ({damage})",
                reasons=[f"{path.name}: {damage}"],
            )
        return DeltaBatch.from_dict(json.loads(frames[0].payload))


# --------------------------------------------------------------------- #
# Offline inspection (`repro stream fsck`)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StreamFsckEntry:
    """Verdict on one segment file."""

    path: Path
    #: ``"ok"`` | ``"torn-tail"`` | ``"corrupt"``.
    status: str
    frames: int
    #: Sequence range ``[first, last]`` of readable frames (0, 0 if none).
    first_seq: int = 0
    last_seq: int = 0
    detail: str = ""


def fsck_log(directory: str | Path) -> list[StreamFsckEntry]:
    """Verify every segment in ``directory`` without modifying anything.

    A ``torn-tail`` verdict on the *final* segment is recoverable (the
    next :class:`DeltaLog` open truncates it); ``corrupt`` anywhere means
    acknowledged batches are damaged.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise StreamError(f"delta log directory {directory} does not exist")
    segments = sorted(directory.glob(f"{_PREFIX}*{_SUFFIX}"))
    entries: list[StreamFsckEntry] = []
    expected = 1
    for i, path in enumerate(segments):
        data = path.read_bytes()
        frames, valid_end, damage = _scan_segment(data)
        first = frames[0].seq if frames else 0
        last = frames[-1].seq if frames else 0
        gap = next(
            (
                (expected + j, f)
                for j, f in enumerate(frames)
                if f.seq != expected + j
            ),
            None,
        )
        expected = last + 1 if frames else expected
        if gap is not None:
            entries.append(StreamFsckEntry(
                path=path, status="corrupt", frames=len(frames),
                first_seq=first, last_seq=last,
                detail=f"sequence gap: expected {gap[0]}, found {gap[1].seq}",
            ))
        elif damage is None:
            entries.append(StreamFsckEntry(
                path=path, status="ok", frames=len(frames),
                first_seq=first, last_seq=last,
            ))
        elif i == len(segments) - 1 and not _has_valid_frame_after(
            data, valid_end, expected
        ):
            entries.append(StreamFsckEntry(
                path=path, status="torn-tail", frames=len(frames),
                first_seq=first, last_seq=last, detail=damage,
            ))
        else:
            entries.append(StreamFsckEntry(
                path=path, status="corrupt", frames=len(frames),
                first_seq=first, last_seq=last, detail=damage,
            ))
    return entries
