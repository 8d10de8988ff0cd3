"""Tests for epoch-versioned batch application and the epoch journal."""

import numpy as np
import pytest

from repro.container import HEADER_AT
from repro.errors import DeltaValidationError, StreamError
from repro.graph.build import from_edges
from repro.stream.delta import DeadLetterFile, DeltaBatch, DeltaOp
from repro.stream.epoch import EpochJournal, EpochState, apply_batch


@pytest.fixture
def square():
    # 4-cycle: 0-1-2-3-0
    return from_edges([0, 1, 2, 3], [1, 2, 3, 0], symmetrize=True)


def _batch(*ops, num_vertices=None):
    return DeltaBatch(ops=tuple(ops), num_vertices=num_vertices)


class TestApplyBatch:
    def test_add_then_update_same_batch(self, square):
        out = apply_batch(square, _batch(
            DeltaOp("add", 0, 2, weight=1.0),
            DeltaOp("update", 0, 2, weight=5.0),
        ))
        assert out.added == 1 and out.updated == 1
        idx = out.graph.neighbors(0).tolist().index(2)
        assert out.graph.weights[out.graph.offsets[0] + idx] == 5.0
        assert out.touched.tolist() == [0, 2]

    def test_remove_then_read_same_batch_strict(self, square):
        # Removing an edge then updating it must fail strictly: the update
        # names an edge that no longer exists at its point in the sequence.
        with pytest.raises(DeltaValidationError) as exc:
            apply_batch(square, _batch(
                DeltaOp("remove", 0, 1),
                DeltaOp("update", 0, 1, weight=2.0),
            ))
        assert "missing-edge" in exc.value.report.by_code()

    def test_strict_is_all_or_nothing(self, square):
        before_edges = square.num_edges
        with pytest.raises(DeltaValidationError):
            apply_batch(square, _batch(
                DeltaOp("add", 0, 2),
                DeltaOp("remove", 1, 3),  # not an edge of the 4-cycle
            ))
        assert square.num_edges == before_edges  # input untouched

    def test_quarantine_applies_the_rest(self, square, tmp_path):
        dead = DeadLetterFile(tmp_path / "dead.jsonl")
        out = apply_batch(
            square,
            _batch(DeltaOp("add", 0, 2), DeltaOp("remove", 1, 3)),
            policy="quarantine", dead_letter=dead, seq=4,
        )
        assert out.added == 1 and out.removed == 0
        assert out.report.quarantined_ops == 1
        (entry,) = dead.entries()
        assert entry["reasons"] == ["missing-edge"] and entry["seq"] == 4

    def test_growth_pads_vertices(self, square):
        out = apply_batch(square, _batch(
            DeltaOp("add", 0, 5), num_vertices=6,
        ))
        assert out.graph.num_vertices == 6
        assert 5 in out.graph.neighbors(0).tolist()
        assert out.graph.neighbors(4).shape[0] == 0  # isolated newcomer

    def test_deterministic(self, square):
        batch = _batch(
            DeltaOp("add", 1, 3, weight=2.0),
            DeltaOp("remove", 0, 1),
            DeltaOp("update", 2, 3, weight=0.5),
        )
        a = apply_batch(square, batch).graph
        b = apply_batch(square, batch).graph
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.weights, b.weights)

    def test_reversed_duplicate_update_keeps_arcs_symmetric(self, square):
        # Two updates of one edge, named both ways round, applied in order:
        # the later weight lands on both arcs.
        out = apply_batch(square, _batch(
            DeltaOp("update", 0, 1, weight=2.0),
            DeltaOp("update", 1, 0, weight=5.0),
        ))
        g = out.graph
        assert out.updated == 2
        assert g.weights[g.offsets[0] + g.neighbors(0).tolist().index(1)] == 5.0
        assert g.weights[g.offsets[1] + g.neighbors(1).tolist().index(0)] == 5.0

    def test_empty_batch_noop(self, square):
        out = apply_batch(square, _batch())
        assert out.touched.shape[0] == 0
        assert out.graph.num_edges == square.num_edges


class TestEpochJournal:
    def _state(self, epoch, n=6):
        return EpochState(
            epoch=epoch,
            labels=np.full(n, epoch, dtype=np.uint32),
            num_vertices=n,
            num_edges=10,
            modularity_gap=0.001 * epoch,
        )

    def test_save_load_roundtrip(self, tmp_path):
        journal = EpochJournal(tmp_path)
        path = journal.save(self._state(3))
        state = EpochJournal.load(path)
        assert state.epoch == 3
        assert state.modularity_gap == pytest.approx(0.003)
        assert np.array_equal(state.labels, np.full(6, 3, dtype=np.uint32))

    def test_latest_falls_back_past_damage(self, tmp_path):
        journal = EpochJournal(tmp_path)
        for e in range(3):
            journal.save(self._state(e))
        newest = journal.path_for(2)
        newest.write_bytes(newest.read_bytes()[:40])  # truncate
        state = journal.latest()
        assert state.epoch == 1
        assert journal.skipped and journal.skipped[0][0] == newest

    def test_crc_mismatch_detected(self, tmp_path):
        journal = EpochJournal(tmp_path)
        path = journal.save(self._state(1))
        # Flip a byte of the labels section (the file's last bytes).
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StreamError):
            EpochJournal.load(path)

    @pytest.mark.parametrize("damage, reason", [
        ("truncated-header", "truncated header"),
        ("foreign-magic", "bad magic"),
    ])
    def test_container_damage_is_stream_error(self, tmp_path, damage, reason):
        path = EpochJournal(tmp_path).save(self._state(1))
        blob = path.read_bytes()
        if damage == "truncated-header":
            blob = blob[:HEADER_AT + 5]
        else:
            blob = b"PK\x03\x04" + blob[4:]  # a zip (npz) local header
        path.write_bytes(blob)
        with pytest.raises(StreamError, match=f"unreadable.*{reason}"):
            EpochJournal.load(path)

    def test_keep_ring_prunes(self, tmp_path):
        journal = EpochJournal(tmp_path, keep=2)
        for e in range(5):
            journal.save(self._state(e))
        assert [p.name for p in journal.epochs()] == [
            "epoch-000003.epoch", "epoch-000004.epoch",
        ]

    def test_bad_keep_rejected(self, tmp_path):
        with pytest.raises(StreamError):
            EpochJournal(tmp_path, keep=0)

    def test_empty_journal_latest_none(self, tmp_path):
        assert EpochJournal(tmp_path).latest() is None
