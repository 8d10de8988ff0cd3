"""Tests for the write-ahead delta log: framing, rotation, fsck."""

import struct

import pytest

from repro.errors import DeltaLogCorruptError, StreamError
from repro.stream.delta import DeltaBatch, DeltaOp
from repro.stream.log import DeltaLog, fsck_log


def _batch(i):
    return DeltaBatch(ops=(DeltaOp("add", 0, i + 1, weight=float(i + 1)),),
                      num_vertices=i + 2)


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        log = DeltaLog(tmp_path)
        for i in range(5):
            assert log.append(_batch(i)) == i + 1
        assert log.head_seq == 5
        replayed = list(DeltaLog(tmp_path).replay())
        assert [seq for seq, _ in replayed] == [1, 2, 3, 4, 5]
        assert all(batch == _batch(seq - 1) for seq, batch in replayed)

    def test_read_by_seq(self, tmp_path):
        log = DeltaLog(tmp_path)
        for i in range(3):
            log.append(_batch(i))
        assert log.read(2) == _batch(1)
        with pytest.raises(StreamError):
            log.read(9)
        with pytest.raises(StreamError):
            log.read(0)

    def test_read_matches_replay_across_rotation(self, tmp_path):
        # Seqs 1-4 are indexed by the open-time scan of the second
        # instance, 5-12 by its own appends; both span several segments.
        first = DeltaLog(tmp_path, segment_bytes=128)
        for i in range(4):
            first.append(_batch(i))
        log = DeltaLog(tmp_path, segment_bytes=128)
        for i in range(4, 12):
            log.append(_batch(i))
        assert len(log.segments()) > 2
        for reader in (log, DeltaLog(tmp_path, segment_bytes=128)):
            replayed = dict(reader.replay())
            assert sorted(replayed) == list(range(1, 13))
            for seq, batch in replayed.items():
                assert reader.read(seq) == batch

    def test_read_refuses_frame_damaged_after_open(self, tmp_path):
        log = DeltaLog(tmp_path)
        for i in range(3):
            log.append(_batch(i))
        path = log.segments()[0]
        raw = bytearray(path.read_bytes())
        second = raw.index(b"DLG1", 1)
        raw[second + 30] ^= 0xFF  # a payload byte of seq 2
        path.write_bytes(bytes(raw))
        with pytest.raises(DeltaLogCorruptError, match="seq 2"):
            log.read(2)
        assert log.read(1) == _batch(0)
        assert log.read(3) == _batch(2)

    def test_read_refuses_frame_truncated_after_open(self, tmp_path):
        log = DeltaLog(tmp_path)
        for i in range(2):
            log.append(_batch(i))
        path = log.segments()[0]
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DeltaLogCorruptError):
            log.read(2)

    def test_rotation_spans_segments(self, tmp_path):
        log = DeltaLog(tmp_path, segment_bytes=128)
        for i in range(10):
            log.append(_batch(i))
        assert len(log.segments()) > 1
        again = DeltaLog(tmp_path, segment_bytes=128)
        assert again.head_seq == 10
        assert [seq for seq, _ in again.replay()] == list(range(1, 11))


class TestCrashRecovery:
    def test_torn_tail_truncated(self, tmp_path):
        log = DeltaLog(tmp_path)
        for i in range(3):
            log.append(_batch(i))
        seg = log.segments()[-1]
        with open(seg, "ab") as fh:
            fh.write(b"DLG1" + b"\x00" * 5)  # partial header
        again = DeltaLog(tmp_path)
        assert again.head_seq == 3
        assert again.repairs and "torn tail" in again.repairs[0]
        # The repair is durable: a third open sees a clean log.
        assert DeltaLog(tmp_path).repairs == []

    def test_torn_payload_truncated(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.append(_batch(0))
        header = struct.Struct("<4sQII").pack(b"DLG1", 2, 100, 0)
        with open(log.segments()[-1], "ab") as fh:
            fh.write(header + b"short")
        again = DeltaLog(tmp_path)
        assert again.head_seq == 1
        assert again.repairs

    def test_midstream_corruption_raises(self, tmp_path):
        log = DeltaLog(tmp_path)
        for i in range(3):
            log.append(_batch(i))
        seg = log.segments()[0]
        data = bytearray(seg.read_bytes())
        data[30] ^= 0xFF  # flip a payload byte of frame 1
        seg.write_bytes(bytes(data))
        with pytest.raises(DeltaLogCorruptError):
            DeltaLog(tmp_path)

    def test_damaged_nonfinal_segment_raises(self, tmp_path):
        log = DeltaLog(tmp_path, segment_bytes=64)
        for i in range(4):
            log.append(_batch(i))
        assert len(log.segments()) > 1
        first = log.segments()[0]
        first.write_bytes(first.read_bytes()[:-3])
        with pytest.raises(DeltaLogCorruptError):
            DeltaLog(tmp_path, segment_bytes=64)

    def test_missing_segment_raises(self, tmp_path):
        log = DeltaLog(tmp_path, segment_bytes=64)
        for i in range(4):
            log.append(_batch(i))
        log.segments()[0].unlink()
        with pytest.raises(DeltaLogCorruptError):
            DeltaLog(tmp_path, segment_bytes=64)


class TestFsck:
    def test_clean_log(self, tmp_path):
        log = DeltaLog(tmp_path, segment_bytes=128)
        for i in range(6):
            log.append(_batch(i))
        entries = fsck_log(tmp_path)
        assert len(entries) == len(log.segments())
        assert all(e.status == "ok" for e in entries)
        assert entries[0].first_seq == 1
        assert entries[-1].last_seq == 6

    def test_torn_tail_reported_not_modified(self, tmp_path):
        log = DeltaLog(tmp_path)
        log.append(_batch(0))
        seg = log.segments()[-1]
        size_before = seg.stat().st_size
        with open(seg, "ab") as fh:
            fh.write(b"DLG1partial")
        entries = fsck_log(tmp_path)
        assert entries[-1].status == "torn-tail"
        assert seg.stat().st_size > size_before  # fsck is read-only

    def test_corrupt_frame_reported(self, tmp_path):
        log = DeltaLog(tmp_path)
        for i in range(2):
            log.append(_batch(i))
        seg = log.segments()[0]
        data = bytearray(seg.read_bytes())
        data[30] ^= 0xFF
        seg.write_bytes(bytes(data))
        entries = fsck_log(tmp_path)
        assert entries[0].status == "corrupt"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StreamError):
            fsck_log(tmp_path / "nope")
