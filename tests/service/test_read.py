"""The versioned snapshot read path: format, catalog, and query engine."""

import gc
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotNotFoundError,
)
from repro.container import MAGIC
from repro.observe.trace import Tracer
from repro.service.read import (
    QueryEngine,
    _build_index,
    Snapshot,
    SnapshotCatalog,
    diff_snapshots,
    read_header,
    write_snapshot,
)


def _labels(n=100, communities=7, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, communities, size=n).astype(np.int64)


class TestSnapshotFormat:
    def test_roundtrip_preserves_labels(self, tmp_path):
        labels = _labels()
        path = tmp_path / "v00000001.snap"
        write_snapshot(path, labels, job_id="j", snapshot_version=1)
        with Snapshot.open(path) as snap:
            assert np.array_equal(np.asarray(snap.labels), labels)
            assert snap.job_id == "j"
            assert snap.snapshot_version == 1
            assert snap.source == "job"
            assert snap.epoch is None
            assert snap.num_vertices == labels.shape[0]
            assert snap.num_communities == np.unique(labels).shape[0]

    def test_epoch_source_roundtrip(self, tmp_path):
        path = tmp_path / "v00000002.snap"
        write_snapshot(
            path, _labels(), job_id="s", snapshot_version=2,
            source="epoch", epoch=5,
        )
        snap = Snapshot.open(path)
        assert snap.source == "epoch" and snap.epoch == 5

    def test_unknown_source_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            write_snapshot(
                tmp_path / "x.snap", _labels(),
                job_id="j", snapshot_version=1, source="cache",
            )

    def test_two_dimensional_labels_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            write_snapshot(
                tmp_path / "x.snap", np.zeros((4, 4), dtype=np.int64),
                job_id="j", snapshot_version=1,
            )

    def test_negative_labels_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            write_snapshot(
                tmp_path / "x.snap", np.asarray([0, -1, 2]),
                job_id="j", snapshot_version=1,
            )

    def test_empty_labels_roundtrip(self, tmp_path):
        path = tmp_path / "v00000001.snap"
        write_snapshot(
            path, np.empty(0, dtype=np.int64), job_id="j",
            snapshot_version=1,
        )
        snap = Snapshot.open(path)
        assert snap.num_vertices == 0 and snap.num_communities == 0
        ids, sizes = snap.community_sizes()
        assert ids.shape == (0,) and sizes.shape == (0,)

    @pytest.mark.parametrize("labels", [
        _labels(n=300, communities=40, seed=5),
        np.empty(0, dtype=np.int64),
        np.asarray([7]),
        np.asarray([9, 0, 9, 1000, 3, 0, 1000, 9]),  # gapped ids
    ], ids=["random", "empty", "single", "gapped"])
    def test_index_matches_unique_construction(self, labels):
        got = _build_index(labels)
        ids, counts = np.unique(labels.astype(np.int64), return_counts=True)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        rows = np.full(int(labels.max()) + 1 if labels.size else 0, -1)
        rows[ids] = np.arange(ids.shape[0])
        want = {
            "labels": labels.astype(np.int64),
            "comm_ids": ids.astype(np.int64),
            "comm_offsets": offsets,
            "comm_members": np.argsort(labels, kind="stable"),
            "label_rows": rows.astype(np.int64),
        }
        for name, arr in want.items():
            assert got[name].dtype == np.int64, name
            assert np.array_equal(got[name], arr), name

    @pytest.mark.parametrize("closer", ["snapshot", "engine"])
    def test_labels_outlive_close(self, tmp_path, closer):
        labels = _labels()
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", labels)
        if closer == "snapshot":
            snap = cat.latest("j")
            held = snap.labels
            snap.close()
        else:
            eng = QueryEngine(cat)
            held = eng.refresh("j").labels
            cat.publish("j", labels + 1)
            eng.refresh("j")
            eng.close()
        gc.collect()
        assert np.array_equal(held, labels)

    def test_membership_matches_labels_everywhere(self, tmp_path):
        labels = _labels(n=257)
        path = tmp_path / "v.snap"
        write_snapshot(path, labels, job_id="j", snapshot_version=1)
        snap = Snapshot.open(path)
        got = np.asarray([snap.membership(v) for v in range(257)])
        assert np.array_equal(got, labels)

    def test_membership_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "v.snap"
        write_snapshot(path, _labels(n=10), job_id="j", snapshot_version=1)
        snap = Snapshot.open(path)
        with pytest.raises(ConfigurationError):
            snap.membership(10)
        with pytest.raises(ConfigurationError):
            snap.membership(-1)

    def test_roster_matches_reference(self, tmp_path):
        labels = _labels(n=300, communities=11)
        path = tmp_path / "v.snap"
        write_snapshot(path, labels, job_id="j", snapshot_version=1)
        snap = Snapshot.open(path)
        for label in np.unique(labels):
            expected = np.flatnonzero(labels == label)
            assert np.array_equal(np.sort(snap.roster(int(label))), expected)

    def test_roster_unknown_label_is_empty(self, tmp_path):
        path = tmp_path / "v.snap"
        write_snapshot(
            path, np.asarray([0, 0, 2]), job_id="j", snapshot_version=1
        )
        snap = Snapshot.open(path)
        assert snap.roster(1).shape == (0,)     # gap inside the range
        assert snap.roster(99).shape == (0,)    # beyond the range
        assert snap.roster(-5).shape == (0,)

    def test_community_sizes_sum_to_n(self, tmp_path):
        labels = _labels(n=500)
        path = tmp_path / "v.snap"
        write_snapshot(path, labels, job_id="j", snapshot_version=1)
        ids, sizes = Snapshot.open(path).community_sizes()
        assert int(sizes.sum()) == 500
        for label, size in zip(ids, sizes):
            assert int((labels == label).sum()) == int(size)

    def test_non_int64_input_is_cast(self, tmp_path):
        labels32 = _labels().astype(np.int32)
        path = tmp_path / "v.snap"
        write_snapshot(path, labels32, job_id="j", snapshot_version=1)
        snap = Snapshot.open(path)
        assert np.asarray(snap.labels).dtype == np.int64
        assert np.array_equal(np.asarray(snap.labels), labels32)


#: A committed format-v2 snapshot: the writer must reproduce it byte for
#: byte, and the reader must open it.
_GOLDEN_SNAP = Path(__file__).parent / "data" / "golden-v2.snap"
_GOLDEN_LABELS = np.asarray([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.int64)


class TestGoldenBytes:
    def test_written_bytes_are_pinned(self, tmp_path):
        path = write_snapshot(
            tmp_path / "v00000007.snap", _GOLDEN_LABELS, job_id="golden",
            snapshot_version=7, source="epoch", epoch=4,
        )
        blob = path.read_bytes()
        assert (len(blob), zlib.crc32(blob)) == (1168, 4018511790)
        assert blob == _GOLDEN_SNAP.read_bytes()

    def test_earlier_written_file_opens(self):
        with Snapshot.open(_GOLDEN_SNAP) as snap:
            assert np.array_equal(np.asarray(snap.labels), _GOLDEN_LABELS)
            assert (snap.job_id, snap.snapshot_version) == ("golden", 7)
            assert (snap.source, snap.epoch) == ("epoch", 4)
            assert snap.roster(5).tolist() == [4, 8, 10]


class TestCorruptionDetection:
    def _published(self, tmp_path):
        path = tmp_path / "v00000001.snap"
        write_snapshot(path, _labels(), job_id="j", snapshot_version=1)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._published(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="magic"):
            Snapshot.open(path)

    def test_truncated_file(self, tmp_path):
        path = self._published(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptError):
            Snapshot.open(path)

    def test_flipped_label_byte_fails_crc(self, tmp_path):
        path = self._published(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="CRC32"):
            Snapshot.open(path)

    def test_garbage_header_json(self, tmp_path):
        path = self._published(tmp_path)
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
        for i in range(len(MAGIC) + 4, len(MAGIC) + 4 + header_len):
            raw[i] = 0x7B
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError):
            Snapshot.open(path)

    def test_unknown_format_version(self, tmp_path):
        path = self._published(tmp_path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
        start = len(MAGIC) + 8
        header = json.loads(raw[start:start + header_len])
        header["version"] = 999
        # Re-encode at the same length (and with a matching header CRC)
        # so only the version check can object.
        encoded = json.dumps(header).encode()
        encoded += b" " * (header_len - len(encoded))
        crc = struct.pack("<I", zlib.crc32(encoded))
        path.write_bytes(
            raw[:len(MAGIC) + 4] + crc + encoded + raw[start + header_len:]
        )
        with pytest.raises(SnapshotCorruptError, match="version"):
            Snapshot.open(path)

    def test_flipped_header_bit_fails_header_crc(self, tmp_path):
        # Format v2: the header region has its own CRC32, so bit rot in
        # the JSON (not just the array sections) is detected at open.
        path = self._published(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 8 + 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="header CRC"):
            Snapshot.open(path)

    @pytest.mark.parametrize("raw", [b"", MAGIC[:5], MAGIC + b"\x10\x00"],
                             ids=["empty", "short-magic", "short-words"])
    def test_file_shorter_than_header(self, tmp_path, raw):
        path = tmp_path / "v00000001.snap"
        path.write_bytes(raw)
        with pytest.raises(SnapshotCorruptError):
            Snapshot.open(path)

    def test_verify_false_skips_crc(self, tmp_path):
        path = self._published(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        snap = Snapshot.open(path, verify=False)  # trusts the caller
        assert snap.num_vertices == 100
        with pytest.raises(SnapshotCorruptError):
            snap.verify()


class TestCatalog:
    def test_publish_assigns_monotone_versions(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        p1 = cat.publish("j", np.asarray([0, 1]))
        p2 = cat.publish("j", np.asarray([1, 1]))
        assert cat.version_of(p1) == 1 and cat.version_of(p2) == 2
        assert [cat.version_of(p) for p in cat.versions("j")] == [1, 2]

    def test_latest_serves_newest(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", np.asarray([0, 0]))
        cat.publish("j", np.asarray([1, 1]))
        snap = cat.latest("j")
        assert snap.snapshot_version == 2
        assert np.array_equal(np.asarray(snap.labels), [1, 1])

    def test_latest_skips_corrupt_newest(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", np.asarray([0, 0]))
        newest = cat.publish("j", np.asarray([1, 1]))
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        snap = cat.latest("j")
        assert snap.snapshot_version == 1
        assert len(cat.skipped) == 1 and cat.skipped[0][0] == newest

    def test_latest_emits_skip_event_when_traced(self, tmp_path):
        tracer = Tracer(enabled=True)
        cat = SnapshotCatalog(tmp_path, tracer=tracer)
        cat.publish("j", np.asarray([0, 0]))
        newest = cat.publish("j", np.asarray([1, 1]))
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))
        cat.latest("j")
        skips = [e for e in tracer.events if e.kind == "snapshot_skip"]
        assert len(skips) == 1
        assert skips[0].job_id == "j"
        assert skips[0].path == newest.name
        assert skips[0].iteration == 2  # the skipped version number
        assert skips[0].reason
        # Once the damaged file is gone, lookups emit nothing further.
        newest.unlink()
        cat.latest("j")
        assert len([e for e in tracer.events if e.kind == "snapshot_skip"]) == 1

    def test_latest_raises_when_all_damaged(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        p = cat.publish("j", np.asarray([0, 0]))
        p.write_bytes(b"garbage")
        with pytest.raises(SnapshotNotFoundError, match="damaged"):
            cat.latest("j")

    def test_latest_raises_when_never_published(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError, match="no published"):
            SnapshotCatalog(tmp_path).latest("ghost")
        assert SnapshotCatalog(tmp_path).latest_or_none("ghost") is None

    def test_corrupt_version_number_is_burned(self, tmp_path):
        # A damaged v2 must not cause the next publish to reuse 2.
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", np.asarray([0]))
        v2 = cat.publish("j", np.asarray([1]))
        v2.write_bytes(b"garbage")
        p = cat.publish("j", np.asarray([2]))
        assert cat.version_of(p) == 3

    def test_dedupe_makes_republish_idempotent(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        labels = _labels()
        first = cat.publish("j", labels)
        again = cat.publish("j", labels)
        assert again == first and len(cat.versions("j")) == 1
        # Different content is a new version even under dedupe.
        other = labels.copy()
        other[0] += 1
        assert cat.version_of(cat.publish("j", other)) == 2

    def test_dedupe_distinguishes_epochs(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        labels = _labels()
        cat.publish("j", labels, source="epoch", epoch=1)
        p = cat.publish("j", labels, source="epoch", epoch=2)
        assert cat.version_of(p) == 2

    def test_keep_ring_prunes_oldest(self, tmp_path):
        cat = SnapshotCatalog(tmp_path, keep=2)
        for i in range(5):
            cat.publish("j", np.asarray([i]))
        assert [cat.version_of(p) for p in cat.versions("j")] == [4, 5]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotCatalog(tmp_path, keep=0)

    def test_awkward_job_ids_get_distinct_dirs(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("a/b", np.asarray([0]))
        cat.publish("a_b", np.asarray([1]))
        assert cat.job_dir("a/b") != cat.job_dir("a_b")
        assert np.asarray(cat.latest("a/b").labels)[0] == 0
        assert np.asarray(cat.latest("a_b").labels)[0] == 1

    def test_crash_mid_publish_leaves_previous_version(self, tmp_path, monkeypatch):
        """An interrupted publish must never disturb what latest() serves."""
        cat = SnapshotCatalog(tmp_path)
        labels_v1 = _labels(seed=1)
        cat.publish("j", labels_v1)

        import repro.container as container_mod

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(container_mod.os, "replace", exploding_replace)
        with pytest.raises(SnapshotError):
            cat.publish("j", _labels(seed=2))
        monkeypatch.undo()

        snap = cat.latest("j")
        assert snap.snapshot_version == 1
        assert np.array_equal(np.asarray(snap.labels), labels_v1)
        # The failed attempt left no half-written published file behind.
        assert len(cat.versions("j")) == 1


class TestDiff:
    def test_diff_reports_changed_vertices(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        a = _labels(n=50, seed=1)
        b = a.copy()
        b[[3, 7, 40]] += 100
        cat.publish("j", a)
        cat.publish("j", b)
        d = QueryEngine(cat).diff("j")
        assert d.from_version == 1 and d.to_version == 2
        assert np.array_equal(d.changed, [3, 7, 40])
        assert d.grown.shape == (0,)
        assert d.total == 3
        assert d.fraction == pytest.approx(3 / 50)

    def test_diff_counts_growth(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", np.asarray([0, 1]))
        cat.publish("j", np.asarray([0, 2, 5, 5]))
        d = QueryEngine(cat).diff("j")
        assert np.array_equal(d.changed, [1])
        assert np.array_equal(d.grown, [2, 3])

    def test_diff_explicit_versions(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        for i in range(3):
            cat.publish("j", np.asarray([i, i]))
        d = QueryEngine(cat).diff("j", from_version=1, to_version=3)
        assert d.changed.shape == (2,)

    def test_diff_one_sided_versions_rejected(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", np.asarray([0]))
        with pytest.raises(ConfigurationError):
            QueryEngine(cat).diff("j", from_version=1)

    def test_diff_needs_two_readable_versions(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", np.asarray([0]))
        with pytest.raises(SnapshotNotFoundError):
            QueryEngine(cat).diff("j")

    def test_diff_skips_corrupt_middle_version(self, tmp_path):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", np.asarray([0, 0]))
        bad = cat.publish("j", np.asarray([1, 1]))
        cat.publish("j", np.asarray([2, 2]))
        bad.write_bytes(b"garbage")
        d = QueryEngine(cat).diff("j")
        assert (d.from_version, d.to_version) == (1, 3)

    def test_diff_snapshots_direct(self, tmp_path):
        pa = tmp_path / "a.snap"
        pb = tmp_path / "b.snap"
        write_snapshot(pa, np.asarray([0, 1]), job_id="j",
                       snapshot_version=1, source="epoch", epoch=3)
        write_snapshot(pb, np.asarray([0, 2]), job_id="j",
                       snapshot_version=2, source="epoch", epoch=4)
        d = diff_snapshots(Snapshot.open(pa), Snapshot.open(pb))
        assert (d.from_epoch, d.to_epoch) == (3, 4)
        assert np.array_equal(d.changed, [1])


class TestDiffReusesServedVersions:
    """The default diff reuses the engine's own mappings when unchanged."""

    @staticmethod
    def _count_opens(monkeypatch):
        opened = []
        real = Snapshot.open.__func__

        def counting(cls, path, **kw):
            opened.append(path)
            return real(cls, path, **kw)

        monkeypatch.setattr(Snapshot, "open", classmethod(counting))
        return opened

    @staticmethod
    def _served_pair(tmp_path, versions=2):
        """An engine that served the newest version, then refreshed to a
        freshly published one (the read pattern of a live subscription)."""
        cat = SnapshotCatalog(tmp_path)
        for i in range(versions):
            cat.publish("j", _labels(seed=i))
        eng = QueryEngine(cat)
        eng.refresh("j")
        newest = cat.publish("j", _labels(seed=versions))
        eng.refresh("j")
        return cat, eng, newest

    @staticmethod
    def _flip_section_byte(path, keep_mtime):
        st = os.stat(path)
        with open(path, "r+b") as fh:
            fh.seek(-3, os.SEEK_END)  # inside label_rows
            byte = fh.read(1)
            fh.seek(-3, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        if keep_mtime:
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))

    def test_diff_after_refresh_opens_nothing(self, tmp_path, monkeypatch):
        cat, eng, newest = self._served_pair(tmp_path)
        opened = self._count_opens(monkeypatch)
        d = eng.diff("j")
        assert opened == []
        with Snapshot.open(cat.versions("j")[-2]) as a, \
                Snapshot.open(newest) as b:
            want = diff_snapshots(a, b)
        assert (d.from_version, d.to_version) == (2, 3)
        assert np.array_equal(d.changed, want.changed)
        assert np.array_equal(d.grown, want.grown)
        assert d.fraction == want.fraction

    @pytest.mark.parametrize("keep_mtime", [False, True],
                             ids=["stat-differs", "stat-same"])
    def test_damaged_served_version_is_skipped(self, tmp_path, keep_mtime):
        cat, eng, _ = self._served_pair(tmp_path)
        previous = cat.versions("j")[-2]
        self._flip_section_byte(previous, keep_mtime)
        d = eng.diff("j")
        assert (d.from_version, d.to_version) == (1, 3)
        fresh = QueryEngine(SnapshotCatalog(tmp_path)).diff("j")
        assert (fresh.from_version, fresh.to_version) == (1, 3)
        assert np.array_equal(d.changed, fresh.changed)

    def test_replaced_served_version_is_reopened(self, tmp_path, monkeypatch):
        cat, eng, newest = self._served_pair(tmp_path)
        previous = cat.versions("j")[-2]
        replacement = tmp_path / "replacement.snap"
        write_snapshot(replacement, _labels(seed=99), job_id="j",
                       snapshot_version=2)
        os.replace(replacement, previous)
        opened = self._count_opens(monkeypatch)
        d = eng.diff("j")
        assert opened == [previous]
        want = _labels(seed=99) != _labels(seed=2)
        assert np.array_equal(d.changed, np.flatnonzero(want))

    def test_close_releases_served_and_previous(self, tmp_path, monkeypatch):
        _, eng, _ = self._served_pair(tmp_path)
        eng.close()
        assert eng.stats()["served_jobs"] == []
        opened = self._count_opens(monkeypatch)
        eng.diff("j")
        assert len(opened) == 2


class TestQueryEngine:
    def _catalog(self, tmp_path, labels):
        cat = SnapshotCatalog(tmp_path)
        cat.publish("j", labels)
        return cat

    def test_ops_count_and_stats(self, tmp_path):
        labels = _labels()
        eng = QueryEngine(self._catalog(tmp_path, labels))
        eng.membership("j", 0)
        eng.membership("j", 1)
        eng.roster("j", int(labels[0]))
        eng.community_sizes("j")
        doc = eng.stats()
        assert doc["ops"]["membership"] == 2
        assert doc["ops"]["roster"] == 1
        assert doc["ops"]["community_sizes"] == 1
        assert doc["ops"]["refresh"] == 1  # first touch loads the snapshot
        assert doc["served_jobs"] == ["j"]
        assert doc["versions"] == {"j": 1}

    def test_refresh_picks_up_new_version(self, tmp_path):
        cat = self._catalog(tmp_path, np.asarray([0, 0]))
        eng = QueryEngine(cat)
        assert eng.membership("j", 1) == 0
        cat.publish("j", np.asarray([0, 9]))
        assert eng.membership("j", 1) == 0  # cached until refreshed
        eng.refresh("j")
        assert eng.membership("j", 1) == 9

    def test_query_events_emitted_when_traced(self, tmp_path):
        labels = _labels()
        tracer = Tracer()
        eng = QueryEngine(self._catalog(tmp_path, labels), tracer=tracer)
        eng.membership("j", 5)
        eng.roster("j", int(labels[5]))
        events = tracer.of_kind("query")
        assert [e.op for e in events] == ["membership", "roster"]
        assert events[0].key == 5 and events[0].result_size == 1
        assert events[1].result_size == int((labels == labels[5]).sum())
        assert all(e.snapshot_version == 1 for e in events)

    def test_no_events_when_tracer_disabled(self, tmp_path):
        tracer = Tracer(enabled=False)
        eng = QueryEngine(
            self._catalog(tmp_path, _labels()), tracer=tracer
        )
        eng.membership("j", 0)
        assert len(tracer.events) == 0

    def test_snapshot_stats_event(self, tmp_path):
        tracer = Tracer()
        eng = QueryEngine(self._catalog(tmp_path, _labels()), tracer=tracer)
        eng.membership("j", 0)
        doc = eng.snapshot_stats()
        events = tracer.of_kind("query_stats")
        assert len(events) == 1
        assert events[0].membership == doc["ops"]["membership"] == 1
        assert events[0].served_jobs == 1

    def test_engine_accepts_bare_path(self, tmp_path):
        SnapshotCatalog(tmp_path).publish("j", np.asarray([4]))
        eng = QueryEngine(tmp_path)
        assert eng.membership("j", 0) == 4


class TestServicePublishing:
    def test_completed_job_is_served(self, tmp_path):
        from repro.service import DetectionService, JobSpec, ServiceConfig

        svc = DetectionService(ServiceConfig(snapshot_dir=tmp_path / "snaps"))
        svc.submit(JobSpec.dataset("j1", "asia_osm", scale=0.02, seed=7))
        svc.drain()
        labels = svc.result("j1").outcome.labels
        eng = QueryEngine(svc.read_catalog)
        assert eng.membership("j1", 0) == int(labels[0])
        ids, sizes = eng.community_sizes("j1")
        assert int(sizes.sum()) == labels.shape[0]

    def test_restart_republish_is_dedupe_noop(self, tmp_path):
        from repro.service import DetectionService, JobSpec, ServiceConfig

        cfg = ServiceConfig(
            journal_dir=tmp_path / "jobs", snapshot_dir=tmp_path / "snaps"
        )
        svc = DetectionService(cfg)
        svc.submit(JobSpec.dataset("j1", "asia_osm", scale=0.02, seed=7))
        svc.drain()
        labels = svc.result("j1").outcome.labels

        again = DetectionService(cfg)  # recovery republishes, dedupe absorbs
        assert len(again.read_catalog.versions("j1")) == 1
        snap = again.read_catalog.latest("j1")
        assert np.array_equal(np.asarray(snap.labels), labels)

    def test_crash_between_journal_and_publish_heals_on_restart(self, tmp_path):
        from repro.service import DetectionService, JobSpec, ServiceConfig
        from repro.service.read import SnapshotCatalog as Cat

        cfg = ServiceConfig(
            journal_dir=tmp_path / "jobs", snapshot_dir=tmp_path / "snaps"
        )
        svc = DetectionService(cfg)
        svc.submit(JobSpec.dataset("j1", "asia_osm", scale=0.02, seed=7))
        svc.drain()
        labels = svc.result("j1").outcome.labels
        # Simulate the crash window: job durably completed, snapshot lost.
        for path in Cat(tmp_path / "snaps").versions("j1"):
            path.unlink()

        again = DetectionService(cfg)
        snap = again.read_catalog.latest("j1")
        assert np.array_equal(np.asarray(snap.labels), labels)
