"""Unit tests for the ABFT integrity guard."""

import numpy as np
import pytest

from repro.core.config import LPAConfig
from repro.core.engine_hashtable import HashtableEngine
from repro.core.pruning import Frontier
from repro.errors import ConfigurationError, CorruptionDetectedError, IntegrityError
from repro.graph.generators import web_graph
from repro.integrity import IntegrityConfig, IntegrityGuard
from repro.integrity.guard import array_crc32
from repro.observe.trace import Tracer
from repro.types import EMPTY_KEY


@pytest.fixture(scope="module")
def graph():
    return web_graph(150, seed=5)


def _guard(graph, **overrides) -> IntegrityGuard:
    return IntegrityGuard(
        graph, LPAConfig(), IntegrityConfig(**overrides), tracer=None
    )


class TestConfig:
    def test_defaults_valid(self):
        cfg = IntegrityConfig()
        assert cfg.enabled and cfg.scrub_interval == 4

    def test_bad_intervals_rejected(self):
        with pytest.raises(ConfigurationError):
            IntegrityConfig(scrub_interval=0)
        with pytest.raises(ConfigurationError):
            IntegrityConfig(verify_interval=0)
        with pytest.raises(ConfigurationError):
            IntegrityConfig(max_rewinds=-1)
        with pytest.raises(ConfigurationError):
            IntegrityConfig(ecc_ber=-1e-9)

    def test_with_override(self):
        assert IntegrityConfig().with_(scrub_interval=1).scrub_interval == 1


class TestCsrScrub:
    def test_clean_scrub_charges_cost(self, graph):
        guard = _guard(graph, scrub_interval=1)
        guard._scrub(iteration=0)
        assert guard.scrubs == 1
        counters = guard.drain()
        assert counters.launches >= 1
        assert counters.sectors_read > 0
        # Drained: the next drain is empty.
        assert guard.drain().launches == 0

    def test_corrupted_csr_detected_and_repaired(self, graph):
        guard = _guard(graph)
        targets = graph.targets
        original = targets[0]
        targets.setflags(write=True)
        try:
            targets[0] = (original + 1) % graph.num_vertices
        finally:
            targets.setflags(write=False)
        with pytest.raises(IntegrityError, match="checksum"):
            guard._scrub(iteration=0)
        # Repair happened in place from the golden copy.
        assert graph.targets[0] == original
        assert guard.scrub_repairs == 1
        # The next scrub is clean again.
        guard._scrub(iteration=4)
        assert guard.scrubs == 2

    def test_stats_shape(self, graph):
        guard = _guard(graph)
        stats = guard.stats()
        for key in ("scrubs", "scrub_repairs", "shadow_replays",
                    "spot_audits", "violations", "rewinds", "ecc"):
            assert key in stats


class TestLabelConservation:
    def test_subset_passes(self, graph):
        guard = _guard(graph)
        before = np.arange(graph.num_vertices, dtype=np.int64)
        after = before.copy()
        after[1] = 0  # adopted an existing label
        guard._audit_label_conservation(after, before, iteration=0)

    def test_novel_label_detected(self, graph):
        guard = _guard(graph)
        n = graph.num_vertices
        before = np.zeros(n, dtype=np.int64)  # only label 0 is live
        after = before.copy()
        after[3] = 7  # label 7 was never present: corruption
        with pytest.raises(IntegrityError, match="conservation"):
            guard._audit_label_conservation(after, before, iteration=0)
        assert guard.violations == 1


class TestSpotAudit:
    def test_clean_tables_pass(self, graph):
        guard = _guard(graph, spot_audit_slots=32)
        engine = HashtableEngine(graph, LPAConfig())
        labels = np.arange(graph.num_vertices, dtype=np.int64)
        frontier = Frontier(graph)
        engine.move(labels, frontier, pick_less=False, iteration=0)
        guard._spot_audit(engine, graph.num_vertices, iteration=0)
        assert guard.spot_audits == 1

    def test_fused_sweep_leaves_tables_clean(self, graph):
        # The fused sweep re-empties every claimed slot at the end of the
        # wave, so there is no inter-wave residue to audit — the spot
        # audit sees clean tables by construction.
        engine = HashtableEngine(graph, LPAConfig())
        labels = np.arange(graph.num_vertices, dtype=np.int64)
        engine.move(labels, Frontier(graph), pick_less=False, iteration=0)
        assert np.all(engine.tables.keys == EMPTY_KEY)
        assert not np.any(engine.tables.values)

    def _moved_engine(self, graph) -> HashtableEngine:
        engine = HashtableEngine(graph, LPAConfig())
        labels = np.arange(graph.num_vertices, dtype=np.int64)
        engine.move(labels, Frontier(graph), pick_less=False, iteration=0)
        return engine

    def test_out_of_range_key_detected(self, graph):
        guard = _guard(graph, spot_audit_slots=10_000)
        engine = self._moved_engine(graph)
        # Plant the corruption in the at-rest tables: the audit samples
        # slots with replacement, so corrupt every slot and any draw
        # trips it.
        engine.tables.keys[:] = graph.num_vertices + 99
        with pytest.raises(IntegrityError, match="spot"):
            guard._spot_audit(engine, graph.num_vertices, iteration=0)

    def test_non_finite_value_detected(self, graph):
        guard = _guard(graph, spot_audit_slots=10_000)
        engine = self._moved_engine(graph)
        # Occupied slots (in-range key) holding a non-finite value.
        engine.tables.keys[:] = 0
        engine.tables.values[:] = np.nan
        with pytest.raises(IntegrityError, match="spot"):
            guard._spot_audit(engine, graph.num_vertices, iteration=0)


class TestBoundaryAudit:
    def test_crc_continuity_violation_detected(self, graph):
        guard = _guard(graph)
        labels = np.arange(graph.num_vertices, dtype=np.int64)
        guard.note_move(labels)
        labels[0] = 5  # mutated after the move was committed
        with pytest.raises(CorruptionDetectedError, match="CRC"):
            guard.at_boundary(labels, iteration=0)

    def test_resurrected_label_detected(self, graph):
        guard = _guard(graph)
        n = graph.num_vertices
        labels = np.zeros(n, dtype=np.int64)
        guard.note_move(labels)
        guard.at_boundary(labels, iteration=0)  # baseline: {0}
        labels[2] = 9  # a dead label reappears at the next boundary
        guard.note_move(labels)
        with pytest.raises(CorruptionDetectedError, match="trajectory"):
            guard.at_boundary(labels, iteration=1)

    def test_shrinking_label_set_passes(self, graph):
        guard = _guard(graph)
        n = graph.num_vertices
        labels = np.arange(n, dtype=np.int64)
        guard.note_move(labels)
        guard.at_boundary(labels, iteration=0)
        labels[labels > 0] = 0
        guard.note_move(labels)
        guard.at_boundary(labels, iteration=1)

    def test_note_rewind_rebaselines(self, graph):
        guard = _guard(graph)
        n = graph.num_vertices
        labels = np.zeros(n, dtype=np.int64)
        guard.note_move(labels)
        guard.at_boundary(labels, iteration=0)
        restored = np.arange(n, dtype=np.int64)
        guard.note_rewind(restored)
        assert guard.rewinds == 1
        # The restored (wider) label set is the new baseline, and the CRC
        # matches the restored labels.
        guard.at_boundary(restored, iteration=0)


class TestShadowReplay:
    def test_matching_replay_verifies(self, graph):
        config = LPAConfig()
        guard = _guard(graph, verify_interval=1)
        engine = HashtableEngine(graph, config)
        labels = np.arange(graph.num_vertices, dtype=np.int64)
        frontier = Frontier(graph)
        snapshot_labels = labels.copy()
        snapshot_flags = frontier.flags.copy()
        engine.move(labels, frontier, pick_less=False, iteration=0)
        guard._shadow_replay(
            labels, engine,
            snapshot_labels=snapshot_labels,
            snapshot_flags=snapshot_flags,
            pick_less=False, iteration=0,
        )
        assert guard.shadow_replays == 1

    def test_divergent_labels_detected(self, graph):
        config = LPAConfig()
        guard = _guard(graph, verify_interval=1)
        engine = HashtableEngine(graph, config)
        labels = np.arange(graph.num_vertices, dtype=np.int64)
        frontier = Frontier(graph)
        snapshot_labels = labels.copy()
        snapshot_flags = frontier.flags.copy()
        engine.move(labels, frontier, pick_less=False, iteration=0)
        victim = int(np.flatnonzero(labels != snapshot_labels)[0])
        labels[victim] = snapshot_labels[victim]  # silently wrong output
        with pytest.raises(IntegrityError, match="replay"):
            guard._shadow_replay(
                labels, engine,
                snapshot_labels=snapshot_labels,
                snapshot_flags=snapshot_flags,
                pick_less=False, iteration=0,
            )


class TestTraceEvents:
    def test_scrub_event_emitted_when_traced(self, graph):
        tracer = Tracer(enabled=True)
        guard = IntegrityGuard(
            graph, LPAConfig(), IntegrityConfig(scrub_interval=1),
            tracer=tracer,
        )
        guard._scrub(iteration=0)
        scrubs = [e for e in tracer.events if e.kind == "scrub"]
        assert len(scrubs) == 1
        assert scrubs[0].scrubbed_bytes > 0
        assert scrubs[0].modeled_seconds > 0
        assert scrubs[0].mismatched == ()


class TestArrayCrc:
    def test_crc_sees_content_not_identity(self):
        a = np.arange(10, dtype=np.int64)
        assert array_crc32(a) == array_crc32(a.copy())
        b = a.copy()
        b[0] = 99
        assert array_crc32(a) != array_crc32(b)

    def test_non_contiguous_views_hash_consistently(self):
        a = np.arange(20, dtype=np.int64)
        assert array_crc32(a[::2]) == array_crc32(a[::2].copy())
