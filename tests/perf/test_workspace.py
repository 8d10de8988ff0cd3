"""Unit tests for the WorkspaceArena and the bench-baseline perf gate."""

import numpy as np
import pytest

from repro.perf.baseline import compare_to_baseline, measure_calibration
from repro.perf.workspace import WorkspaceArena, iota, take


class TestWorkspaceArena:
    def test_take_size_and_dtype(self):
        arena = WorkspaceArena()
        buf = arena.take("x", 10, np.float32)
        assert buf.shape == (10,) and buf.dtype == np.float32

    def test_steady_state_reuses_backing_buffer(self):
        arena = WorkspaceArena()
        first = arena.take("x", 100, np.int64)
        first[:] = 7
        again = arena.take("x", 60, np.int64)
        # Same backing memory, zero-copy slice.
        assert again.base is first.base or again.base is first
        assert arena.stats()["grows"] == 1

    def test_grow_only_geometric(self):
        arena = WorkspaceArena()
        arena.take("x", 100, np.int64)
        arena.take("x", 101, np.int64)  # grows to >= 200
        grows = arena.stats()["grows"]
        arena.take("x", 180, np.int64)  # inside the doubled capacity
        assert arena.stats()["grows"] == grows

    def test_dtype_tags_are_separate_slots(self):
        arena = WorkspaceArena()
        a = arena.take("x", 16, np.int64)
        b = arena.take("x", 16, np.float64)
        a[:] = 1
        b[:] = 2.0
        assert (arena.take("x", 16, np.int64) == 1).all()
        assert arena.stats()["slots"] == 2

    def test_different_names_never_alias(self):
        arena = WorkspaceArena()
        a = arena.take("a", 8, np.int64)
        b = arena.take("b", 8, np.int64)
        a[:] = 1
        b[:] = 2
        assert (a == 1).all() and (b == 2).all()

    def test_iota_contents_and_reuse(self):
        arena = WorkspaceArena()
        r = arena.iota(5)
        assert np.array_equal(r, np.arange(5))
        r2 = arena.iota(3)
        assert np.array_equal(r2, np.arange(3))
        assert np.shares_memory(r, r2)

    def test_module_take_without_arena_allocates_fresh(self):
        a = take(None, "x", 12, np.float32)
        b = take(None, "x", 12, np.float32)
        assert a.shape == (12,) and not np.shares_memory(a, b)
        assert np.array_equal(iota(None, 4), np.arange(4))

    def test_module_take_with_arena_delegates(self):
        arena = WorkspaceArena()
        a = take(arena, "x", 12, np.float32)
        b = take(arena, "x", 12, np.float32)
        assert np.shares_memory(a, b)

    def test_stats_counts_takes(self):
        arena = WorkspaceArena()
        arena.take("x", 4, np.int64)
        arena.take("x", 4, np.int64)
        stats = arena.stats()
        assert stats["takes"] == 2 and stats["grown_bytes"] > 0


def _bench_doc(**overrides):
    doc = {
        "scale": 0.1,
        "seed": 42,
        "engine": "hashtable",
        "calibration_seconds": 2e-3,
        "graphs": [
            {"name": "asia_osm", "modeled_seconds": 1e-3, "wall_seconds": 5e-3},
            {"name": "sk-2005", "modeled_seconds": 4e-3, "wall_seconds": 9e-2},
        ],
    }
    doc.update(overrides)
    return doc


class TestCompareToBaseline:
    def test_identical_docs_pass(self):
        assert compare_to_baseline(_bench_doc(), _bench_doc()) == []

    def test_modeled_regression_detected_per_graph(self):
        current = _bench_doc()
        current["graphs"][1] = dict(current["graphs"][1], modeled_seconds=5e-3)
        problems = compare_to_baseline(current, _bench_doc())
        assert len(problems) == 1 and "sk-2005" in problems[0]
        assert "modelled seconds" in problems[0]

    def test_modeled_improvement_passes(self):
        current = _bench_doc()
        current["graphs"][1] = dict(current["graphs"][1], modeled_seconds=1e-3)
        assert compare_to_baseline(current, _bench_doc()) == []

    def test_wall_regression_is_calibration_normalised(self):
        # 2x slower walls on a 2x slower machine is NOT a regression...
        current = _bench_doc(calibration_seconds=4e-3)
        current["graphs"] = [
            dict(g, wall_seconds=g["wall_seconds"] * 2)
            for g in current["graphs"]
        ]
        assert compare_to_baseline(current, _bench_doc()) == []
        # ...but 2x slower walls at equal calibration is.
        current = _bench_doc()
        current["graphs"] = [
            dict(g, wall_seconds=g["wall_seconds"] * 2)
            for g in current["graphs"]
        ]
        problems = compare_to_baseline(current, _bench_doc())
        assert len(problems) == 1 and "wall clock" in problems[0]

    def test_small_wall_noise_tolerated(self):
        current = _bench_doc()
        current["graphs"] = [
            dict(g, wall_seconds=g["wall_seconds"] * 1.05)
            for g in current["graphs"]
        ]
        assert compare_to_baseline(current, _bench_doc()) == []

    def test_pinned_counters_and_iterations_must_match_exactly(self):
        def pinned():
            doc = _bench_doc()
            doc["graphs"] = [
                dict(g, iterations=4, counters={"probes": 100, "atomic_add": 60})
                for g in doc["graphs"]
            ]
            return doc

        assert compare_to_baseline(pinned(), pinned()) == []
        current = pinned()
        current["graphs"][0]["counters"] = {"probes": 101, "atomic_add": 60}
        problems = compare_to_baseline(current, pinned())
        assert len(problems) == 1
        assert "asia_osm" in problems[0] and "probes 100 -> 101" in problems[0]
        assert "atomic_add" not in problems[0]
        current = pinned()
        current["graphs"][1]["iterations"] = 5
        problems = compare_to_baseline(current, pinned())
        assert len(problems) == 1
        assert "sk-2005" in problems[0] and "iterations changed" in problems[0]

    def test_scale_mismatch_refuses_to_gate(self):
        problems = compare_to_baseline(_bench_doc(scale=0.25), _bench_doc())
        assert len(problems) == 1 and "refresh the baseline" in problems[0]

    def test_missing_and_extra_graphs_reported(self):
        current = _bench_doc()
        current["graphs"][1] = dict(current["graphs"][1], name="kmer_A2a")
        problems = compare_to_baseline(current, _bench_doc())
        assert any("kmer_A2a" in p and "missing from baseline" in p
                   for p in problems)
        assert any("sk-2005" in p and "not in current" in p for p in problems)


class TestCalibration:
    def test_calibration_positive_and_fast(self):
        secs = measure_calibration(repeats=2)
        assert 0 < secs < 5.0
