"""Tests for edge-array builders."""

from unittest import mock

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph import build
from repro.graph.build import (
    coo_to_csr,
    deduplicate_edges,
    from_edges,
    from_networkx,
    from_scipy_sparse,
    symmetrize_edges,
)
from repro.graph.properties import is_symmetric


class TestSymmetrize:
    def test_adds_reverse_edges(self):
        src, dst, w = symmetrize_edges(np.array([0, 1]), np.array([1, 2]))
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert pairs == {(0, 1), (1, 2), (1, 0), (2, 1)}

    def test_self_loop_not_duplicated(self):
        src, dst, _ = symmetrize_edges(np.array([3]), np.array([3]))
        assert src.tolist() == [3] and dst.tolist() == [3]

    def test_weights_copied_to_reverse(self):
        _, _, w = symmetrize_edges(
            np.array([0]), np.array([1]), np.array([2.5], dtype=np.float32)
        )
        assert w.tolist() == [2.5, 2.5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphConstructionError):
            symmetrize_edges(np.array([0, 1]), np.array([1]))

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphConstructionError):
            symmetrize_edges(np.array([-1]), np.array([0]))


class TestDeduplicate:
    def test_max_combine_is_idempotent_under_symmetrize(self):
        src = np.array([0, 1, 0])
        dst = np.array([1, 0, 1])
        s, d, w = deduplicate_edges(src, dst, np.ones(3, dtype=np.float32))
        assert s.shape[0] == 2  # (0,1) and (1,0)
        assert np.all(w == 1.0)

    def test_sum_combine(self):
        s, d, w = deduplicate_edges(
            np.array([0, 0]), np.array([1, 1]),
            np.array([1.0, 2.0], dtype=np.float32), combine="sum",
        )
        assert w.tolist() == [3.0]

    def test_first_combine(self):
        s, d, w = deduplicate_edges(
            np.array([0, 0]), np.array([1, 1]),
            np.array([5.0, 2.0], dtype=np.float32), combine="first",
        )
        assert w.tolist() == [5.0]

    def test_unknown_combine_rejected(self):
        with pytest.raises(GraphConstructionError):
            deduplicate_edges(np.array([0]), np.array([1]), combine="weird")

    def test_empty_input(self):
        s, d, w = deduplicate_edges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert s.shape[0] == 0

    @pytest.mark.parametrize("src, dst, w, n", [
        ([0, 1], [5, 2], [1.0, 7.0], 3),  # (0, 5) once aliased (1, 2)
        ([0], [2], None, 2),  # (0, 2) once aliased (1, 0)
        ([4], [0], None, 2),
    ])
    def test_id_at_or_above_num_vertices_rejected(self, src, dst, w, n):
        with pytest.raises(GraphConstructionError, match="too small"):
            deduplicate_edges(src, dst, w, num_vertices=n)


class TestFromEdges:
    def test_validates_its_input_once(self):
        with mock.patch.object(
            build, "_as_edge_arrays", wraps=build._as_edge_arrays
        ) as validate:
            from_edges(np.array([0, 1, 1]), np.array([1, 2, 2]))
        assert validate.call_count == 1

    def test_symmetry_of_result(self):
        g = from_edges(np.array([0, 2, 3]), np.array([1, 1, 0]))
        assert is_symmetric(g)

    def test_num_vertices_inferred(self):
        g = from_edges(np.array([0]), np.array([7]))
        assert g.num_vertices == 8

    def test_explicit_num_vertices(self):
        g = from_edges(np.array([0]), np.array([1]), num_vertices=10)
        assert g.num_vertices == 10
        assert g.degree(9) == 0

    def test_num_vertices_too_small_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edges(np.array([0]), np.array([5]), num_vertices=3)

    def test_no_symmetrize(self):
        g = from_edges(np.array([0]), np.array([1]), symmetrize=False)
        assert g.num_edges == 1
        assert not is_symmetric(g)

    def test_empty_graph(self):
        g = from_edges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.num_vertices == 0

    def test_parallel_edges_merged(self):
        g = from_edges(np.array([0, 0, 0]), np.array([1, 1, 1]))
        assert g.num_edges == 2  # one per direction

    def test_targets_sorted_within_rows_after_dedupe(self):
        g = from_edges(np.array([0, 0, 0]), np.array([3, 1, 2]))
        assert g.neighbors(0).tolist() == [1, 2, 3]


class TestCooToCsr:
    def test_roundtrip(self):
        src = np.array([1, 0, 1], dtype=np.int64)
        dst = np.array([0, 1, 2], dtype=np.int64)
        w = np.ones(3, dtype=np.float32)
        g = coo_to_csr(src, dst, w, 3)
        assert g.neighbors(1).tolist() == [0, 2]
        assert g.neighbors(0).tolist() == [1]


class TestInterop:
    def test_from_scipy_sparse(self):
        import scipy.sparse as sp

        mat = sp.coo_matrix(
            (np.ones(2), (np.array([0, 1]), np.array([1, 2]))), shape=(3, 3)
        )
        g = from_scipy_sparse(mat)
        assert g.num_vertices == 3
        assert is_symmetric(g)

    def test_from_scipy_rejects_non_square(self):
        import scipy.sparse as sp

        mat = sp.coo_matrix((np.ones(1), ([0], [1])), shape=(2, 3))
        with pytest.raises(GraphConstructionError):
            from_scipy_sparse(mat)

    def test_from_networkx(self):
        nx = pytest.importorskip("networkx")
        h = nx.path_graph(4)
        g = from_networkx(h)
        assert g.num_vertices == 4
        assert g.num_undirected_edges == 3

    def test_from_networkx_weights(self):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(range(2))
        h.add_edge(0, 1, weight=4.0)
        g = from_networkx(h)
        assert g.neighbor_weights(0)[0] == pytest.approx(4.0)

    def test_from_networkx_rejects_gapped_labels(self):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_edge("a", "b")
        with pytest.raises(GraphConstructionError):
            from_networkx(h)


class TestWeightValidation:
    def test_nan_weights_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edges(
                np.array([0]), np.array([1]),
                np.array([np.nan], dtype=np.float32),
            )

    def test_inf_weights_rejected(self):
        with pytest.raises(GraphConstructionError):
            from_edges(
                np.array([0]), np.array([1]),
                np.array([np.inf], dtype=np.float32),
            )

    def test_negative_weights_allowed(self):
        # Signed graphs are structurally valid; algorithms define semantics.
        g = from_edges(
            np.array([0]), np.array([1]),
            np.array([-1.0], dtype=np.float32),
        )
        assert g.weights[0] == -1.0
