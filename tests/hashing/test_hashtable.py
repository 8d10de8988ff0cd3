"""Tests for the scalar per-vertex hashtable (Algorithm 2 reference)."""

import numpy as np
import pytest

from repro.errors import HashtableFullError
from repro.graph.build import from_edges
from repro.hashing.hashtable import MAX_RETRIES, PerVertexHashtables
from repro.hashing.primes import table_capacity
from repro.hashing.probing import ProbeStrategy
from repro.types import EMPTY_KEY


@pytest.fixture
def tables(star):
    return PerVertexHashtables(star)


class TestLayout:
    def test_buffers_are_2E(self, star):
        t = PerVertexHashtables(star)
        assert t.keys.shape[0] == 2 * star.num_edges
        assert t.values.shape[0] == 2 * star.num_edges

    def test_base_is_twice_offset(self, star):
        t = PerVertexHashtables(star)
        for i in range(star.num_vertices):
            assert t.table(i).base == 2 * star.offsets[i]

    def test_capacity_formula(self, star):
        t = PerVertexHashtables(star)
        for i in range(star.num_vertices):
            assert t.table(i).p1 == table_capacity(star.degree(i))

    def test_tables_do_not_overlap(self, small_road):
        t = PerVertexHashtables(small_road)
        for i in range(small_road.num_vertices - 1):
            view = t.table(i)
            assert view.base + view.p1 <= t.table(i + 1).base

    def test_memory_accounting_fp32_vs_fp64(self, star):
        f32 = PerVertexHashtables(star, value_dtype=np.float32)
        f64 = PerVertexHashtables(star, value_dtype=np.float64)
        assert f64.memory_bytes() > f32.memory_bytes()


class TestAccumulate:
    def test_insert_and_lookup(self, tables):
        tables.clear(0)
        tables.accumulate(0, key=42, value=2.0)
        tables.accumulate(0, key=42, value=3.0)
        assert tables.entries(0) == {42: 5.0}

    def test_distinct_keys(self, tables):
        tables.clear(0)
        for k in range(8):
            tables.accumulate(0, key=100 + k, value=1.0)
        assert len(tables.entries(0)) == 8

    def test_max_key_returns_heaviest(self, tables):
        tables.clear(0)
        tables.accumulate(0, key=5, value=1.0)
        tables.accumulate(0, key=9, value=3.0)
        tables.accumulate(0, key=7, value=2.0)
        assert tables.max_key(0) == 9

    def test_max_key_empty_table(self, tables):
        tables.clear(0)
        assert tables.max_key(0) == -1

    def test_clear_resets(self, tables):
        tables.accumulate(0, key=1, value=1.0)
        tables.clear(0)
        assert tables.entries(0) == {}
        view = tables.table(0)
        assert np.all(tables.keys[view.base : view.base + view.p1] == EMPTY_KEY)

    @pytest.mark.parametrize("strategy", list(ProbeStrategy))
    def test_full_capacity_insert_all_strategies(self, star, strategy):
        # Degree-8 hub: capacity 15; insert 15 distinct keys = 100% load.
        t = PerVertexHashtables(star, strategy=strategy)
        t.clear(0)
        view = t.table(0)
        for k in range(view.p1):
            t.accumulate(0, key=1000 + 37 * k, value=1.0)
        assert len(t.entries(0)) == view.p1

    def test_full_table_error_reports_the_real_probe_budget(self):
        # A hub whose p1 exceeds 2016 probes 2*p1 + 64 times, more than
        # MAX_RETRIES, before giving up; the error must say so.
        hub = from_edges(np.zeros(2048, dtype=np.int64), np.arange(1, 2049))
        t = PerVertexHashtables(hub)
        view = t.table(0)
        assert view.p1 > 2016
        t.keys[view.base : view.base + view.p1] = np.arange(view.p1) + 10
        budget = 2 * view.p1 + 64
        assert budget > MAX_RETRIES
        before = t.total_probes
        with pytest.raises(HashtableFullError, match=f"no slot in {budget} probes"):
            t.accumulate(0, key=5, value=1.0)
        assert t.total_probes - before == budget

    def test_probe_counter_increases(self, tables):
        before = tables.total_probes
        tables.clear(0)
        tables.accumulate(0, key=3, value=1.0)
        assert tables.total_probes > before


class TestNeighborhood:
    def test_matches_dict_accumulation(self, small_road):
        t = PerVertexHashtables(small_road)
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 50, size=small_road.num_vertices)
        for v in range(0, small_road.num_vertices, 17):
            got = t.accumulate_neighborhood(v, labels)
            weights: dict[int, float] = {}
            for j, w in zip(small_road.neighbors(v), small_road.neighbor_weights(v)):
                if j == v:
                    continue
                weights[labels[j]] = weights.get(labels[j], 0.0) + float(w)
            if weights:
                assert weights[got] == pytest.approx(max(weights.values()))
            else:
                assert got == labels[v]

    def test_self_loops_skipped(self):
        g = from_edges(np.array([0, 0]), np.array([0, 1]), dedupe=False)
        t = PerVertexHashtables(g)
        labels = np.array([7, 9])
        assert t.accumulate_neighborhood(0, labels) == 9

    def test_isolated_vertex_keeps_label(self):
        g = from_edges(np.array([0]), np.array([1]), num_vertices=3)
        t = PerVertexHashtables(g)
        labels = np.array([0, 1, 2])
        assert t.accumulate_neighborhood(2, labels) == 2
