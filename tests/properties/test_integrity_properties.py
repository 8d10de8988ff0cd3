"""Property-based at-rest integrity: any single-bit flip is detected or harmless.

The soak samples random flips; these properties let hypothesis drive the
flip position over the whole file and assert the dichotomy directly —
every single-bit flip in any label-carrying file (a published read
snapshot, a committed checkpoint generation, an epoch snapshot, a
finished job's labels; all RPSNAP01 containers) is either *detected* by
the store's own read/fsck path, as the store's typed error, or *provably
harmless* (the decoded payload is bit-identical: the flip landed in
alignment padding).
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.errors import SnapshotError, StreamError
from repro.graph.generators import web_graph
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.checkpoint import fsck as ckpt_fsck
from repro.service.journal import ServiceJournal, resolve_labels
from repro.service.read import Snapshot, SnapshotCatalog
from repro.stream.epoch import EpochJournal, EpochState

_DAMAGED = ("corrupt", "unreadable")


def _flipped(original: bytes, data) -> bytes:
    position = data.draw(st.integers(0, len(original) * 8 - 1), label="bit")
    blob = bytearray(original)
    blob[position // 8] ^= 1 << (position % 8)
    return bytes(blob)


@pytest.fixture(scope="module")
def snapshot_blob(tmp_path_factory):
    """(original bytes, reference labels, scratch path) for one snapshot."""
    root = tmp_path_factory.mktemp("snap-prop")
    labels = np.arange(97, dtype=np.int64) % 13
    catalog = SnapshotCatalog(root / "catalog")
    path = catalog.publish("prop", labels)
    scratch = root / "scratch.snap"
    return path.read_bytes(), labels, scratch


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    """(original bytes, reference labels, scratch dir, victim name)."""
    root = tmp_path_factory.mktemp("ckpt-prop")
    graph = web_graph(80, seed=4)
    result = nu_lpa(
        graph, LPAConfig(max_iterations=4), warn_on_no_convergence=False,
        resilience=ResilienceConfig(
            checkpoint_dir=root / "ring", checkpoint_every=1,
        ),
    )
    victims = CheckpointManager(root / "ring").checkpoints()
    victim = victims[-1]
    scratch = root / "scratch"
    scratch.mkdir()
    # The scratch ring holds only the newest generation, so a harmless
    # flip must decode to exactly the final state (no older fallback).
    original = victim.read_bytes()
    return original, result.labels.copy(), scratch, victim.name


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_snapshot_single_bit_flip_detected_or_harmless(snapshot_blob, data):
    original, labels, scratch = snapshot_blob
    scratch.write_bytes(_flipped(original, data))
    try:
        snap = Snapshot.open(scratch, verify=True)
    except SnapshotError:
        return  # detected
    try:
        # Harmless: the flip must have landed in alignment padding — the
        # decoded labels are bit-identical to what was published.
        assert np.array_equal(np.asarray(snap.labels), labels)
    finally:
        snap.close()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_checkpoint_single_bit_flip_detected_or_harmless(checkpoint_blob, data):
    original, labels, scratch, victim_name = checkpoint_blob
    (scratch / victim_name).write_bytes(_flipped(original, data))
    entries = ckpt_fsck(scratch)
    if any(e.status in _DAMAGED for e in entries):
        return  # detected
    # fsck says clean: loading must reproduce the committed state exactly.
    state = CheckpointManager(scratch).latest()
    assert state is not None
    assert np.array_equal(state.labels, labels)


_EPOCH = EpochState(
    epoch=3, labels=np.arange(97, dtype=np.int64) % 13,
    num_vertices=97, num_edges=400, modularity_gap=0.125,
)


@pytest.fixture(scope="module")
def epoch_blob(tmp_path_factory):
    """(original bytes, scratch path) for one epoch snapshot."""
    root = tmp_path_factory.mktemp("epoch-prop")
    path = EpochJournal(root / "journal").save(_EPOCH)
    return path.read_bytes(), root / "scratch.epoch"


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_epoch_snapshot_single_bit_flip_detected_or_harmless(epoch_blob, data):
    original, scratch = epoch_blob
    scratch.write_bytes(_flipped(original, data))
    try:
        state = EpochJournal.load(scratch)
    except StreamError:
        return  # detected
    assert np.array_equal(state.labels, _EPOCH.labels)
    assert (state.epoch, state.num_vertices, state.num_edges,
            state.modularity_gap) == (3, 97, 400, 0.125)


@pytest.fixture(scope="module")
def job_labels_blob(tmp_path_factory):
    """(original bytes, labels, journal root, record stem, record doc)."""
    root = tmp_path_factory.mktemp("labels-prop") / "journal"
    journal = ServiceJournal(root)
    labels = (np.arange(89, dtype=np.int64) * 7) % 11
    journal._write_labels("job", labels)
    path = journal.labels_path("job")
    doc = {"labels_crc32": zlib.crc32(labels), "labels_epoch": None}
    return path.read_bytes(), labels, root, path, doc


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_job_labels_single_bit_flip_detected_or_harmless(job_labels_blob, data):
    original, labels, root, path, doc = job_labels_blob
    path.write_bytes(_flipped(original, data))
    owner = resolve_labels(root, path.stem, doc)
    if owner.labels is None:
        # Detected by the container itself, not only by the record's CRC.
        assert owner.problem.startswith("labels unreadable")
        return
    assert np.array_equal(owner.labels, labels)
