"""Tests for graph transformations."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph.build import from_edges
from repro.graph.properties import is_symmetric
from repro.graph.transform import (
    ArcIndex,
    add_edges,
    remove_edges,
    update_weights,
    community_subgraph,
    induced_subgraph,
    largest_component,
    permute_vertices,
    remove_self_loops,
)


class TestInducedSubgraph:
    def test_clique_extraction(self, two_cliques):
        sub, mapping = induced_subgraph(two_cliques, np.arange(5))
        assert sub.num_vertices == 5
        assert sub.num_undirected_edges == 10  # K5
        assert mapping.tolist() == [0, 1, 2, 3, 4]

    def test_preserves_symmetry(self, small_web):
        sub, _ = induced_subgraph(small_web, np.arange(0, 500, 2))
        assert is_symmetric(sub)

    def test_cross_edges_dropped(self, two_cliques):
        sub, _ = induced_subgraph(two_cliques, np.array([4, 5]))
        # Only the bridge edge survives.
        assert sub.num_undirected_edges == 1

    def test_duplicates_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            induced_subgraph(triangle, np.array([0, 0]))

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            induced_subgraph(triangle, np.array([5]))

    def test_weights_carried(self, weighted_triangle):
        sub, _ = induced_subgraph(weighted_triangle, np.array([0, 1]))
        assert sub.weights[0] == pytest.approx(1.0)


class TestLargestComponent:
    def test_selects_biggest(self):
        g = from_edges(np.array([0, 1, 5]), np.array([1, 2, 6]), num_vertices=8)
        sub, mapping = largest_component(g)
        assert sub.num_vertices == 3
        assert set(mapping.tolist()) == {0, 1, 2}

    def test_connected_graph_unchanged(self, triangle):
        sub, mapping = largest_component(triangle)
        assert sub == triangle

    def test_empty(self):
        g = from_edges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        sub, mapping = largest_component(g)
        assert sub.num_vertices == 0


class TestPermute:
    def test_roundtrip(self, small_road):
        perm = np.random.default_rng(0).permutation(small_road.num_vertices)
        permuted = permute_vertices(small_road, perm)
        assert permuted.num_edges == small_road.num_edges
        assert is_symmetric(permuted)
        # Degree multiset preserved; degrees follow the permutation.
        assert np.array_equal(permuted.degrees, small_road.degrees[perm])

    def test_identity(self, triangle):
        assert permute_vertices(triangle, np.arange(3)) == triangle

    def test_non_permutation_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            permute_vertices(triangle, np.array([0, 0, 2]))


class TestRemoveSelfLoops:
    def test_removes_only_loops(self):
        g = from_edges(np.array([0, 1]), np.array([0, 2]), dedupe=False)
        clean = remove_self_loops(g)
        assert clean.num_vertices == g.num_vertices
        src = clean.source_ids()
        assert np.all(src != clean.targets)

    def test_noop_without_loops(self, triangle):
        assert remove_self_loops(triangle) == triangle


class TestCommunitySubgraph:
    def test_extracts_community(self, two_cliques):
        labels = np.array([0] * 5 + [1] * 5)
        sub, mapping = community_subgraph(two_cliques, labels, 1)
        assert sub.num_vertices == 5
        assert set(mapping.tolist()) == {5, 6, 7, 8, 9}

    def test_missing_community_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            community_subgraph(triangle, np.zeros(3, dtype=int), 7)


class TestAddEdges:
    def test_inserts_both_directions(self, triangle):
        g = add_edges(triangle, [0], [3], num_vertices=4)
        assert g.num_vertices == 4
        assert 3 in g.neighbors(0).tolist()
        assert 0 in g.neighbors(3).tolist()
        assert is_symmetric(g)

    def test_reinsert_existing_is_idempotent(self, weighted_triangle):
        before = weighted_triangle
        after = add_edges(before, [0], [1], [0.5])  # existing weight higher
        assert after.num_edges == before.num_edges
        assert is_symmetric(after)

    def test_duplicate_within_call_coalesces(self, triangle):
        g = add_edges(triangle, [0, 3, 3], [3, 0, 0], [1.0, 2.0, 3.0],
                      num_vertices=4)
        # one undirected edge -> exactly two arcs, combine="max" keeps 3.0
        assert g.num_edges == triangle.num_edges + 2
        idx = g.neighbors(0).tolist().index(3)
        assert g.weights[g.offsets[0] + idx] == 3.0

    def test_growth_without_edges(self, triangle):
        g = add_edges(triangle, [], [], num_vertices=5)
        assert g.num_vertices == 5
        assert g.num_edges == triangle.num_edges
        assert g.neighbors(4).shape[0] == 0

    def test_shrinking_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            add_edges(triangle, [0], [1], num_vertices=2)

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            add_edges(triangle, [0], [7])

    def test_nonfinite_weight_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            add_edges(triangle, [0], [3], [float("nan")], num_vertices=4)


class TestRemoveEdges:
    def test_removes_both_directions(self, triangle):
        g = remove_edges(triangle, [0], [1])
        assert 1 not in g.neighbors(0).tolist()
        assert 0 not in g.neighbors(1).tolist()
        assert g.num_edges == triangle.num_edges - 2
        assert is_symmetric(g)

    def test_missing_edge_raises_by_default(self, path6):
        with pytest.raises(GraphConstructionError):
            remove_edges(path6, [0], [5])  # path ends are not adjacent

    def test_duplicate_within_call_coalesces(self, triangle):
        # Existence is checked against the input graph, so naming the same
        # edge twice in one call removes it once (sequential double-removal
        # is the stream layer's job to reject).
        g = remove_edges(triangle, [0, 0], [1, 1])
        assert g.num_edges == triangle.num_edges - 2

    def test_missing_ignore_skips(self, triangle):
        g = remove_edges(triangle, [0, 0], [1, 1], missing="ignore")
        assert g.num_edges == triangle.num_edges - 2

    def test_bad_missing_mode_rejected(self, triangle):
        with pytest.raises(GraphConstructionError):
            remove_edges(triangle, [0], [1], missing="maybe")


class TestUpdateWeights:
    def test_updates_both_directions(self, weighted_triangle):
        g = update_weights(weighted_triangle, [0], [1], [9.0])
        i01 = g.neighbors(0).tolist().index(1)
        i10 = g.neighbors(1).tolist().index(0)
        assert g.weights[g.offsets[0] + i01] == 9.0
        assert g.weights[g.offsets[1] + i10] == 9.0
        assert g.num_edges == weighted_triangle.num_edges

    def test_duplicate_update_last_wins(self, weighted_triangle):
        g = update_weights(weighted_triangle, [0, 0], [1, 1], [5.0, 7.0])
        idx = g.neighbors(0).tolist().index(1)
        assert g.weights[g.offsets[0] + idx] == 7.0

    def test_missing_edge_raises_by_default(self, triangle):
        with pytest.raises(GraphConstructionError):
            update_weights(triangle, [0], [7], [1.0])

    def test_structure_untouched(self, weighted_triangle):
        g = update_weights(weighted_triangle, [1], [2], [4.0])
        assert np.array_equal(g.offsets, weighted_triangle.offsets)
        assert np.array_equal(g.targets, weighted_triangle.targets)

    def test_reversed_duplicate_update_keeps_arcs_symmetric(self, weighted_triangle):
        # The later update names the edge the other way round; it still
        # wins on both arcs, as it would applied one after the other.
        g = update_weights(weighted_triangle, [0, 1], [1, 0], [2.0, 5.0])
        assert _weight(g, 0, 1) == 5.0
        assert _weight(g, 1, 0) == 5.0


def _weight(graph, a, b):
    return graph.weights[graph.offsets[a] + graph.neighbors(a).tolist().index(b)]


def _unsorted_rows():
    """A path 0-1-2-3 renumbered so rows are not key-sorted."""
    g = permute_vertices(from_edges([0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]),
                         np.array([2, 0, 3, 1]))
    assert g.neighbors(0).tolist() == [3, 2]
    return g


class TestArcIndex:
    def test_update_and_remove_keep_unsorted_row_order(self):
        g = _unsorted_rows()
        up = update_weights(g, [3], [0], [9.0])
        assert np.array_equal(up.targets, g.targets)
        assert _weight(up, 0, 3) == _weight(up, 3, 0) == 9.0
        cut = remove_edges(g, [1], [3])
        assert cut.neighbors(0).tolist() == [3, 2]
        assert cut.neighbors(3).tolist() == [0]

    def test_add_returns_key_sorted_rows(self):
        g = add_edges(_unsorted_rows(), [0], [3])
        for v in range(g.num_vertices):
            assert np.all(np.diff(g.neighbors(v)) > 0)

    def test_add_coalesces_parallel_arcs(self):
        multi = from_edges([0, 0], [1, 1], [2.0, 5.0], dedupe=False)
        assert multi.num_edges == 4
        g = add_edges(multi, [1], [2], num_vertices=3)
        assert g.num_edges == 4
        assert _weight(g, 0, 1) == _weight(g, 1, 0) == 5.0

    def test_insert_needs_resort(self, triangle):
        arcs = ArcIndex(triangle, 4)  # growth implies resort
        assert arcs.resort
        arcs = ArcIndex(triangle)
        with pytest.raises(GraphConstructionError):
            arcs.merge(arcs.key(np.array([0]), np.array([0])),
                       np.ones(1, dtype=np.float32), np.ones(1, dtype=bool))
