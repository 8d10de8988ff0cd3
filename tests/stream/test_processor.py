"""Tests for the stream processor: epochs, recovery, trace events."""

import numpy as np
import pytest

from repro.core import incremental
from repro.errors import StreamError
from repro.graph.datasets import generate_standin
from repro.observe.trace import Tracer
from repro.stream.delta import DeltaBatch, DeltaOp
from repro.stream import processor
from repro.stream.epoch import EpochJournal, apply_batch
from repro.stream.log import DeltaLog
from repro.stream.processor import StreamProcessor
from repro.stream.soak import random_delta_batches


@pytest.fixture(scope="module")
def base():
    return generate_standin("com-Orkut", scale=0.03, seed=3)


def _filled_log(tmp_path, base, batches=3, seed=3):
    rng = np.random.default_rng(seed)
    log = DeltaLog(tmp_path / "wal")
    for batch in random_delta_batches(
        base, rng, num_batches=batches, batch_size=4, grow_every=2
    ):
        log.append(batch)
    return log


class TestProcessing:
    def test_epochs_advance_to_head(self, tmp_path, base):
        log = _filled_log(tmp_path, base)
        proc = StreamProcessor(base, log, tmp_path / "epochs")
        assert proc.recover() == 0
        assert proc.lag == 3
        assert proc.run_to_head() == 3
        assert proc.epoch == 3 and proc.lag == 0
        assert proc.step() is None  # at the head

    def test_epoch_zero_snapshot_written(self, tmp_path, base):
        log = DeltaLog(tmp_path / "wal")
        proc = StreamProcessor(base, log, tmp_path / "epochs")
        proc.recover()
        state = EpochJournal(tmp_path / "epochs").latest()
        assert state is not None and state.epoch == 0
        assert np.array_equal(state.labels, proc.labels)

    def test_trace_events_emitted(self, tmp_path, base):
        log = _filled_log(tmp_path, base)
        tracer = Tracer()
        proc = StreamProcessor(
            base, log, tmp_path / "epochs", tracer=tracer,
            differential_every=3,
        )
        proc.recover()
        proc.run_to_head()
        events = [e for e in tracer if e.kind == "epoch"]
        assert [e.iteration for e in events] == [1, 2, 3]
        for e in events:
            assert e.added + e.removed + e.updated >= 1
            assert 0.0 <= e.frontier_fraction <= 1.0
            assert e.frontier >= e.touched
        # The differential ran at epoch 3 and recorded its bound.
        assert events[-1].modularity_gap is not None

    def test_one_frontier_bfs_per_epoch(self, tmp_path, base, monkeypatch):
        """The step's frontier seeds the warm start as it is (hops=0): one
        BFS per epoch, and the labels of a warm start that expands the
        touched set itself."""
        log = _filled_log(tmp_path, base, batches=1)
        proc = StreamProcessor(base, log, tmp_path / "epochs")
        proc.recover()
        before_graph, before_labels = proc.graph, proc.labels
        real = incremental.affected_vertices
        bfs_hops = []

        def counting(graph, touched, *, hops=1):
            if hops:
                bfs_hops.append(hops)
            return real(graph, touched, hops=hops)

        monkeypatch.setattr(processor, "affected_vertices", counting)
        monkeypatch.setattr(incremental, "affected_vertices", counting)
        state = proc.step()
        assert bfs_hops == [proc.hops]
        monkeypatch.undo()

        outcome = apply_batch(before_graph, log.read(1), policy=proc.policy)
        assert outcome.graph.num_vertices == before_labels.shape[0]
        expected = incremental.nu_lpa_incremental(
            outcome.graph, before_labels, outcome.touched, hops=proc.hops,
            config=proc.config, engine=proc.engine,
        )
        assert np.array_equal(state.labels, expected.labels)

    def test_growth_pads_labels(self, tmp_path, base):
        log = DeltaLog(tmp_path / "wal")
        log.append(DeltaBatch(
            ops=(DeltaOp("add", 0, base.num_vertices),),
            num_vertices=base.num_vertices + 1,
        ))
        proc = StreamProcessor(base, log, tmp_path / "epochs")
        proc.recover()
        proc.run_to_head()
        assert proc.labels.shape[0] == base.num_vertices + 1


class TestRecovery:
    def test_fresh_processor_resumes_bit_identical(self, tmp_path, base):
        log = _filled_log(tmp_path, base)
        ref = StreamProcessor(base, log, tmp_path / "epochs")
        ref.recover()
        ref.run_to_head()

        again = StreamProcessor(base, tmp_path / "wal", tmp_path / "epochs")
        again.recover()
        assert again.epoch == ref.epoch
        assert np.array_equal(again.labels, ref.labels)
        assert np.array_equal(again.graph.targets, ref.graph.targets)
        assert np.array_equal(again.graph.weights, ref.graph.weights)

    def test_resume_from_older_epoch_replays_tail(self, tmp_path, base):
        log = _filled_log(tmp_path, base)
        ref = StreamProcessor(base, log, tmp_path / "epochs")
        ref.recover()
        ref.run_to_head()

        # Lose the newest snapshots; recovery falls back then replays.
        journal = EpochJournal(tmp_path / "epochs")
        for path in journal.epochs()[-2:]:
            path.unlink()
        again = StreamProcessor(base, tmp_path / "wal", tmp_path / "epochs")
        again.recover()
        assert again.epoch < ref.epoch
        again.run_to_head()
        assert again.epoch == ref.epoch
        assert np.array_equal(again.labels, ref.labels)

    def test_journal_ahead_of_log_rejected(self, tmp_path, base):
        log = _filled_log(tmp_path, base)
        proc = StreamProcessor(base, log, tmp_path / "epochs")
        proc.recover()
        proc.run_to_head()
        # Simulate a log directory that lost acknowledged batches.
        fresh = StreamProcessor(base, tmp_path / "empty-wal", tmp_path / "epochs")
        with pytest.raises(StreamError):
            fresh.recover()

    def test_chaos_points_fire_in_order(self, tmp_path, base):
        log = _filled_log(tmp_path, base, batches=1)
        points = []
        proc = StreamProcessor(
            base, log, tmp_path / "epochs", chaos=points.append,
        )
        proc.recover()
        proc.run_to_head()
        assert points == ["pre-epoch", "mid-epoch-apply", "post-epoch"]
