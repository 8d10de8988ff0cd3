"""The durable container: byte layout, atomic write, and the shared ring."""

import os

import numpy as np
import pytest

from repro import container
from repro.container import HEADER_AT, MAGIC, Ring
from repro.errors import ContainerError
from repro.resilience.checkpoint import CheckpointManager, CheckpointState
from repro.service.read import SnapshotCatalog
from repro.stream.epoch import EpochJournal, EpochState

FMT = "repro.test/container"


def _write(path, **sections):
    sections = {k: np.ascontiguousarray(v) for k, v in sections.items()}
    header = {"format": FMT, "version": 1, "note": "x",
              "arrays": container.plan(sections)}
    container.write(path, header, sections)
    return path


class TestLayout:
    def test_roundtrip_sections_and_header(self, tmp_path):
        path = _write(
            tmp_path / "a.bin",
            labels=np.arange(5, dtype=np.int64),
            flags=np.array([1, 0, 1], dtype=np.uint8),
            empty=np.empty(0, dtype=np.float32),
        )
        file = container.read(path, FMT, 1, ("labels", "flags", "empty"))
        assert file.header["note"] == "x"
        assert file.arrays["labels"].tolist() == [0, 1, 2, 3, 4]
        assert file.arrays["flags"].dtype == np.uint8
        assert file.arrays["empty"].shape == (0,)

    def test_sections_are_64_byte_aligned(self, tmp_path):
        path = _write(
            tmp_path / "a.bin",
            a=np.arange(3, dtype=np.uint8), b=np.arange(3, dtype=np.int64),
        )
        blob = path.read_bytes()
        file = container.read(path, FMT, 1, ("a", "b"))
        start = (HEADER_AT + file.header_span[0] + 63) // 64 * 64
        for name, arr in file.arrays.items():
            offset = start + file.header["arrays"][name]["offset"]
            assert offset % 64 == 0
            assert blob[offset:offset + arr.nbytes] == arr.tobytes()

    def test_mapped_read_equals_plain_read(self, tmp_path):
        path = _write(tmp_path / "a.bin", labels=np.arange(100, dtype=np.int64))
        plain = container.read(path, FMT, 1, ("labels",))
        mapped = container.read(path, FMT, 1, ("labels",), mapped=True)
        assert np.array_equal(plain.arrays["labels"], mapped.arrays["labels"])
        assert mapped.unchanged_on_disk() and not plain.unchanged_on_disk()

    @pytest.mark.parametrize("blob, reason", [
        (b"", "bad magic"),
        (b"PK\x03\x04\x14\x00\x00\x00", "bad magic"),
        (MAGIC + b"\x10\x00", "truncated header"),
        (MAGIC + b"\xff\x00\x00\x00\x00\x00\x00\x00{}", "truncated header"),
    ], ids=["empty", "zip-magic", "short-words", "short-header"])
    def test_damaged_prefix_is_container_error(self, tmp_path, blob, reason):
        path = tmp_path / "a.bin"
        path.write_bytes(blob)
        with pytest.raises(ContainerError, match=reason):
            container.read(path, FMT, 1, ())

    def test_header_read_is_not_sized_by_a_damaged_length_word(self, tmp_path):
        import tracemalloc

        path = _write(tmp_path / "a.bin", labels=np.arange(3))
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC) + 3] ^= 0x80  # the header length now reads > 2 GiB
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ContainerError, match="truncated header"):
                container.read(path, FMT, 1, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_wrong_format_or_version_refused(self, tmp_path):
        path = _write(tmp_path / "a.bin", labels=np.arange(3))
        with pytest.raises(ContainerError, match="unknown format"):
            container.read(path, "repro.test/other", 1, ())
        with pytest.raises(ContainerError, match="version 1 unsupported"):
            container.read(path, FMT, 2, ())

    def test_missing_section_and_missing_file(self, tmp_path):
        path = _write(tmp_path / "a.bin", labels=np.arange(3))
        with pytest.raises(ContainerError, match="missing array section"):
            container.read(path, FMT, 1, ("flags",))
        with pytest.raises(ContainerError, match="No such file"):
            container.read(tmp_path / "gone.bin", FMT, 1, ())

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(container.os, "replace", refuse)
        with pytest.raises(ContainerError, match="disk gone"):
            _write(tmp_path / "a.bin", labels=np.arange(3))
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# The three rings share one prune rule
# --------------------------------------------------------------------- #


class _Store:
    """One generation-ring store behind a common face: ``save(g)`` writes
    generation ``g`` (labels all ``g``) and ``latest()`` names the
    generation served."""

    def __init__(self, kind, directory, keep):
        self.kind = kind
        if kind == "checkpoint":
            self.store = CheckpointManager(directory, keep=keep)
        elif kind == "epoch":
            self.store = EpochJournal(directory, keep=keep)
        else:
            self.store = SnapshotCatalog(directory, keep=keep)

    def save(self, g):
        labels = np.full(4, g, dtype=np.int64)
        if self.kind == "checkpoint":
            return self.store.save(CheckpointState(
                labels=labels, flags=np.zeros(4, dtype=np.uint8),
                iteration=g, digest="d",
            ))
        if self.kind == "epoch":
            return self.store.save(EpochState(epoch=g, labels=labels))
        return self.store.publish("job", labels)

    def files(self):
        if self.kind == "checkpoint":
            return self.store.checkpoints()
        if self.kind == "epoch":
            return self.store.epochs()
        return self.store.versions("job")

    def latest(self):
        if self.kind == "snapshot":
            return int(self.store.latest("job").labels[0])
        return int(self.store.latest().labels[0])


STORES = ["checkpoint", "epoch", "snapshot"]


@pytest.mark.parametrize("kind", STORES)
def test_forgotten_unlink_only_leaves_a_superseded_generation(tmp_path, kind):
    """A crash that loses a prune's unlink (no directory fsync) brings
    back an older generation; ``latest`` never prefers it, and the next
    save's prune removes it."""
    store = _Store(kind, tmp_path, keep=2)
    first = store.save(1)
    saved = first.read_bytes()
    store.save(2)
    store.save(3)
    assert not first.exists()
    first.write_bytes(saved)  # the unlink the crash forgot
    assert store.latest() == 3
    store.save(4)
    assert not first.exists() and len(store.files()) == 2
    assert store.latest() == 4


@pytest.mark.parametrize("kind", STORES)
def test_prune_adds_no_fsync(tmp_path, monkeypatch, kind):
    """Every save costs the temp-file fsync and the directory fsync after
    the rename, whether or not its prune unlinks anything."""
    calls = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
    store = _Store(kind, tmp_path, keep=1)
    store.save(1)
    assert len(calls) == 2
    store.save(2)  # prunes generation 1
    assert len(calls) == 4
    assert len(store.files()) == 1


def test_ring_audit_orders_and_classifies(tmp_path):
    def load(path):
        if b"bad" in path.read_bytes():
            raise ValueError("damaged")
        return path.name

    ring = Ring(tmp_path, "g-", ".new", load=load, error=ValueError,
                legacy=".old")
    for name, body in [("g-2.new", b"ok"), ("g-1.new", b"bad"),
                       ("g-0.old", b"ok"), (".tmp-1-g-3.new", b""),
                       ("other.new", b"ok")]:
        (tmp_path / name).write_bytes(body)
    verdicts = [(f.path.name, f.status, f.value) for f in ring.audit()]
    assert verdicts == [
        (".tmp-1-g-3.new", "stale-tmp", None),
        ("g-0.old", "corrupt", None),
        ("g-1.new", "corrupt", None),
        ("g-2.new", "ok", "g-2.new"),
    ]
    assert ring.latest() == "g-2.new" and ring.skipped == []
    assert ring.owns("g-0.old") and not ring.owns("other.new")
