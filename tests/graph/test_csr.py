"""Tests for the CSR graph container."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.csr import CSRGraph
from repro.graph.build import from_edges


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_isolated_vertices(self):
        g = CSRGraph(np.array([0, 0, 0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 2
        assert g.degree(0) == 0 and g.degree(1) == 0

    def test_basic_shape(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 6  # each edge stored twice
        assert triangle.num_undirected_edges == 3

    def test_default_weights_are_one(self, triangle):
        assert np.all(triangle.weights == 1.0)

    def test_rejects_bad_offsets_start(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))

    def test_rejects_offset_target_mismatch(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_rejects_misaligned_weights(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(
                np.array([0, 1, 2]),
                np.array([1, 0]),
                np.array([1.0], dtype=np.float32),
            )

    def test_arrays_are_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.targets[0] = 2
        with pytest.raises(ValueError):
            triangle.offsets[0] = 1
        with pytest.raises(ValueError):
            triangle.weights[0] = 9.0


class TestAccessors:
    def test_neighbors(self, triangle):
        assert set(triangle.neighbors(0).tolist()) == {1, 2}

    def test_neighbor_weights(self, weighted_triangle):
        # Vertex 0 has edges to 1 (w=1) and 2 (w=3).
        nbrs = weighted_triangle.neighbors(0)
        wts = weighted_triangle.neighbor_weights(0)
        lookup = dict(zip(nbrs.tolist(), wts.tolist()))
        assert lookup[1] == pytest.approx(1.0)
        assert lookup[2] == pytest.approx(3.0)

    def test_degrees_match_offsets(self, star):
        assert star.degree(0) == 8
        assert all(star.degree(i) == 1 for i in range(1, 9))

    def test_source_ids(self, triangle):
        src = triangle.source_ids()
        assert src.shape[0] == triangle.num_edges
        for i in range(triangle.num_vertices):
            lo, hi = triangle.offsets[i], triangle.offsets[i + 1]
            assert np.all(src[lo:hi] == i)

    def test_iter_edges_count(self, triangle):
        assert len(list(triangle.iter_edges())) == triangle.num_edges


class TestWeightedQuantities:
    def test_weighted_degrees_unweighted(self, star):
        wd = star.weighted_degrees()
        assert wd[0] == pytest.approx(8.0)
        assert np.allclose(wd[1:], 1.0)

    def test_total_weight(self, weighted_triangle):
        assert weighted_triangle.total_weight() == pytest.approx(6.0)

    def test_total_weight_matches_sum_of_degrees(self, small_web):
        assert small_web.weighted_degrees().sum() == pytest.approx(
            2 * small_web.total_weight(), rel=1e-6
        )


class TestEqualityAndSort:
    def test_equality(self, triangle):
        other = from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]))
        assert triangle == other

    def test_inequality(self, triangle, path6):
        assert triangle != path6

    def test_memory_bytes_accounting(self, triangle):
        # Built compact: 4 offsets * 4B + 6 arcs * (4B id + 4B weight) —
        # derived from the actual itemsizes, not hardcoded widths.
        assert triangle.is_compact
        assert triangle.memory_bytes() == 4 * 4 + 6 * (4 + 4)

    def test_memory_bytes_tracks_compact_layout(self, triangle):
        wide = triangle.with_wide_layout()
        # 4 offsets * 8B + 6 arcs * (8B id + 4B weight).
        assert wide.memory_bytes() == 4 * 8 + 6 * (8 + 4)
        compact = wide.with_compact_layout()
        assert compact.memory_bytes() == 4 * 4 + 6 * (4 + 4)
        assert compact.memory_bytes() < wide.memory_bytes()


class TestHashAudit:
    """Regression tests for the sampled structural hash."""

    def test_hash_consistent_with_eq_across_layouts(self, small_web):
        compact = small_web.with_compact_layout()
        assert compact == small_web
        assert hash(compact) == hash(small_web)

    def test_hash_samples_offsets(self):
        # Same target stream, different row boundaries: the pre-audit hash
        # (targets-only samples) collided these two graphs.
        targets = np.arange(8, dtype=np.int64) % 4
        a = CSRGraph(np.array([0, 2, 4, 6, 8]), targets, validate=False)
        b = CSRGraph(np.array([0, 1, 2, 6, 8]), targets, validate=False)
        assert a != b
        assert hash(a) != hash(b)

    def test_weights_never_hashed(self, triangle):
        heavier = CSRGraph(
            triangle.offsets, triangle.targets,
            np.full(triangle.num_edges, 2.0, dtype=np.float32),
            validate=False,
        )
        assert heavier != triangle
        assert hash(heavier) == hash(triangle)


class TestCompactLayout:
    def test_round_trip_values(self, small_web):
        wide = small_web.with_wide_layout()
        compact = wide.with_compact_layout()
        assert compact.is_compact
        assert not wide.is_compact
        assert wide.offsets.dtype == wide.targets.dtype == np.int64
        assert compact.offsets.dtype == compact.targets.dtype == np.int32
        for graph in (wide, compact):
            assert np.array_equal(graph.offsets, small_web.offsets)
            assert np.array_equal(graph.targets, small_web.targets)
            assert np.array_equal(graph.weights, small_web.weights)

    def test_idempotent(self, small_web):
        compact = small_web.with_compact_layout()
        assert compact.with_compact_layout() is compact

    def test_built_graphs_are_compact(self, small_web):
        assert small_web.is_compact
        assert small_web.with_compact_layout() is small_web
        wide = small_web.with_wide_layout()
        assert wide.with_wide_layout() is wide

    def test_layout_copies_keep_the_self_loop_cache(self, small_web):
        assert not small_web.has_self_loops
        wide = small_web.with_wide_layout()
        assert wide._has_self_loops is False
        assert wide.with_compact_layout()._has_self_loops is False

    def test_mixed_widths_are_widened(self):
        g = CSRGraph(
            np.array([0, 1, 2], dtype=np.int64), np.array([1, 0], dtype=np.int32)
        )
        assert g.offsets.dtype == g.targets.dtype == np.int64
        g = CSRGraph(
            np.array([0, 1, 2], dtype=np.int32), np.array([1, 0], dtype=np.int64)
        )
        assert g.offsets.dtype == g.targets.dtype == np.int64
        assert not g.is_compact
