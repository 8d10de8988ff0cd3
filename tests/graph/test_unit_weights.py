"""Unit-weight graphs hold no weight buffer, and every path keeps the rule.

A graph built without weights (the paper's default weight of 1) stores
its weights as a read-only stride-0 view of one ``1.0``.  Every builder,
reader and transform returns such a view exactly when every weight is 1
by construction — no weight column, only arcs moved, or a merge that
writes only 1 — and materialises an array otherwise.  Whichever it
returns, the values equal the same computation on explicit ones.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.build import (
    coo_to_csr,
    deduplicate_edges,
    from_edges,
    from_networkx,
    symmetrize_edges,
)
from repro.graph.csr import CSRGraph, is_unit, unit_weights
from repro.graph.io import read_edgelist, read_matrix_market, read_metis
from repro.graph.transform import (
    add_edges,
    induced_subgraph,
    largest_component,
    permute_vertices,
    remove_edges,
    remove_self_loops,
    update_weights,
)
from repro.resilience.validate import validate_graph
from repro.stream.delta import DeltaBatch, DeltaOp
from repro.stream.epoch import apply_batch

COMBINES = ("max", "sum", "first")


def assert_unit(graph):
    assert graph.unit_weight
    assert graph.weights.strides == (0,)
    assert not graph.weights.flags.writeable
    assert graph.weights.shape == graph.targets.shape


def assert_materialised(graph):
    """Weights held in an array (an arc-free graph is unit either way)."""
    if graph.num_edges:
        assert not graph.unit_weight
        assert graph.weights.strides != (0,)


def assert_same_values(got, want):
    assert got == want
    assert got.weights.dtype == want.weights.dtype
    assert got.targets.dtype == want.targets.dtype


def has_parallel(src, dst, n):
    keys = np.asarray(src, dtype=np.int64) * max(n, 1) + np.asarray(dst)
    return np.unique(keys).shape[0] < keys.shape[0]


@st.composite
def arc_lists(draw, max_vertices=30, max_arcs=90):
    """Few vertices, so parallel arcs and self-loops are common."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_arcs))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.asarray(draw(ids), dtype=np.int64)
    dst = np.asarray(draw(ids), dtype=np.int64)
    return src, dst, n


@st.composite
def graphs(draw):
    """A unit-weight graph and the same arcs with explicit weights."""
    src, dst, n = draw(arc_lists())
    weights = np.asarray(draw(st.lists(
        st.sampled_from([0.5, 1.0, 2.0, 3.25]),
        min_size=src.shape[0], max_size=src.shape[0],
    )), dtype=np.float32)
    return (from_edges(src, dst, num_vertices=n),
            from_edges(src, dst, weights, num_vertices=n))


class TestCSRGraph:
    def test_unit_view_holds_one_element(self, small_web):
        assert_unit(small_web)
        assert np.all(small_web.weights == 1)
        assert small_web.weights.base.nbytes == 4

    def test_explicit_ones_stay_an_array(self, small_web):
        ones = CSRGraph(small_web.offsets, small_web.targets,
                        np.ones(small_web.num_edges, dtype=np.float32))
        assert_materialised(ones)
        assert ones == small_web

    def test_modelled_and_weighted_quantities_match_explicit_ones(
        self, small_web
    ):
        ones = CSRGraph(small_web.offsets, small_web.targets,
                        np.ones(small_web.num_edges, dtype=np.float32))
        # The device model prices 4-byte weights either way.
        assert small_web.memory_bytes() == ones.memory_bytes()
        assert small_web.weights.nbytes == ones.weights.nbytes
        assert small_web.total_weight() == ones.total_weight()
        assert np.array_equal(small_web.weighted_degrees(),
                              ones.weighted_degrees())
        assert (small_web.weighted_degrees().dtype
                == ones.weighted_degrees().dtype)

    def test_a_short_unit_view_fails_validation(self, triangle):
        from repro.errors import GraphConstructionError

        with pytest.raises(GraphConstructionError, match="weights length"):
            CSRGraph(triangle.offsets, triangle.targets, unit_weights(2))

    def test_only_views_of_one_are_unit(self):
        assert is_unit(unit_weights(5)) and is_unit(unit_weights(0))
        assert is_unit(np.ones(0, dtype=np.float32))
        assert not is_unit(np.ones(5, dtype=np.float32))
        assert not is_unit(np.broadcast_to(np.float32(2.0), (5,)))
        assert not is_unit(np.broadcast_to(np.float64(1.0), (5,)))


class TestBuilders:
    @given(arc_lists(), st.sampled_from(COMBINES), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_from_edges(self, arcs, combine, symmetrize, dedupe):
        src, dst, n = arcs
        kwargs = dict(num_vertices=n, symmetrize=symmetrize, dedupe=dedupe,
                      combine=combine)
        unit = from_edges(src, dst, **kwargs)
        ones = from_edges(src, dst, np.ones(src.shape[0]), **kwargs)
        assert_same_values(unit, ones)
        assert_materialised(ones)
        if symmetrize:
            src, dst = (np.concatenate([src, dst[src != dst]]),
                        np.concatenate([dst, src[src != dst]]))
        if dedupe and combine == "sum" and has_parallel(src, dst, n):
            assert_materialised(unit)
        else:
            assert_unit(unit)

    @given(arc_lists(), st.sampled_from(COMBINES))
    @settings(max_examples=100, deadline=None)
    def test_symmetrize_then_deduplicate(self, arcs, combine):
        src, dst, n = arcs
        s, d, w = symmetrize_edges(src, dst)
        assert is_unit(w) and w.shape == s.shape
        s2, d2, w2 = deduplicate_edges(s, d, w, num_vertices=n, combine=combine)
        _, _, ones = deduplicate_edges(s, d, np.ones(s.shape[0]),
                                       num_vertices=n, combine=combine)
        assert np.array_equal(w2, ones)
        assert not ones.shape[0] or not is_unit(ones)
        merged = combine == "sum" and has_parallel(s, d, n)
        assert is_unit(w2) is (not merged)

    @given(arc_lists())
    @settings(max_examples=50, deadline=None)
    def test_coo_to_csr_carries_unit(self, arcs):
        src, dst, n = arcs
        graph = coo_to_csr(src, dst, unit_weights(src.shape[0]), n)
        assert_unit(graph)
        assert_same_values(
            graph, coo_to_csr(src, dst, np.ones(src.shape[0], np.float32), n)
        )


class TestReaders:
    def test_edge_lists(self, tmp_path):
        plain, weighted = tmp_path / "a.txt", tmp_path / "b.txt"
        plain.write_text("0 1\n1 2\n2 0\n")
        weighted.write_text("0 1 1\n1 2 1\n2 0 1\n")
        assert_unit(read_edgelist(plain))
        assert_materialised(read_edgelist(weighted))
        assert read_edgelist(plain) == read_edgelist(weighted)

    def test_matrix_market(self, tmp_path):
        pattern, real = tmp_path / "p.mtx", tmp_path / "r.mtx"
        pattern.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                           "3 3 2\n2 1\n3 2\n")
        real.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 2\n2 1 1\n3 2 1\n")
        assert_unit(read_matrix_market(pattern))
        assert_materialised(read_matrix_market(real))
        assert read_matrix_market(pattern) == read_matrix_market(real)

    def test_metis(self, tmp_path):
        plain, weighted = tmp_path / "a.graph", tmp_path / "b.graph"
        plain.write_text("3 2\n2\n1 3\n2\n")
        weighted.write_text("3 2 001\n2 1\n1 1 3 1\n2 1\n")
        assert_unit(read_metis(plain))
        assert_materialised(read_metis(weighted))
        assert read_metis(plain) == read_metis(weighted)

    def test_empty_edge_list(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        assert_unit(read_edgelist(path))

    def test_networkx(self):
        nx = pytest.importorskip("networkx")
        plain = nx.cycle_graph(5)
        weighted = nx.cycle_graph(5)
        nx.set_edge_attributes(weighted, 1.0, "weight")
        assert_unit(from_networkx(plain))
        assert_materialised(from_networkx(weighted))
        assert from_networkx(plain) == from_networkx(weighted)


def _transforms(graph, rng):
    n = graph.num_vertices
    keep = np.flatnonzero(rng.random(n) < 0.6)
    perm = rng.permutation(n)
    return {
        "induced_subgraph": induced_subgraph(graph, keep)[0],
        "largest_component": largest_component(graph)[0],
        "permute_vertices": permute_vertices(graph, perm),
        "remove_self_loops": remove_self_loops(graph),
        "with_wide_layout": graph.with_wide_layout(),
        "with_compact_layout": graph.with_wide_layout().with_compact_layout(),
    }


class TestTransforms:
    @given(graphs(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_arc_moving_transforms_keep_the_representation(self, pair, seed):
        unit, weighted = pair
        ones = CSRGraph(unit.offsets, unit.targets,
                        np.ones(unit.num_edges, dtype=np.float32))
        got = _transforms(unit, np.random.default_rng(seed))
        want = _transforms(ones, np.random.default_rng(seed))
        for name, graph in got.items():
            assert_unit(graph)
            assert_same_values(graph, want[name])
            assert_materialised(want[name])
        for graph in _transforms(weighted, np.random.default_rng(seed)).values():
            assert_materialised(graph)


def _edges(graph):
    src = graph.source_ids()
    keep = src < graph.targets
    return src[keep], graph.targets[keep]


class TestDeltas:
    @given(graphs(), arc_lists(max_arcs=8), st.sampled_from(COMBINES))
    @settings(max_examples=80, deadline=None)
    def test_add_edges(self, pair, arcs, combine):
        unit, _ = pair
        src, dst, _ = arcs
        src, dst = src % unit.num_vertices, dst % unit.num_vertices
        ones = CSRGraph(unit.offsets, unit.targets,
                        np.ones(unit.num_edges, dtype=np.float32))
        got = add_edges(unit, src, dst, combine=combine)
        assert_same_values(got, add_edges(ones, src, dst, combine=combine))
        # A sum merges a run of two or more arcs where an inserted arc
        # already exists or the call names it twice.
        s, d, _ = symmetrize_edges(src, dst)
        existing = unit.source_ids() * unit.num_vertices + unit.targets
        named = s * unit.num_vertices + d
        merged = combine == "sum" and (
            has_parallel(s, d, unit.num_vertices)
            or np.isin(named, existing).any()
        )
        if merged:
            assert_materialised(got)
        else:
            assert_unit(got)
        if src.shape[0]:
            assert_materialised(add_edges(unit, src, dst, np.full(
                src.shape[0], 2.0, dtype=np.float32)))

    @given(graphs(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_remove_and_update(self, pair, seed):
        unit, weighted = pair
        src, dst = _edges(unit)
        if src.shape[0] == 0:
            return
        pick = np.random.default_rng(seed).random(src.shape[0]) < 0.5
        s, d = src[pick], dst[pick]
        assert_unit(remove_edges(unit, s, d))
        assert_unit(update_weights(unit, s, d, np.ones(s.shape[0])))
        if s.shape[0]:
            assert_materialised(update_weights(unit, s, d, np.full(
                s.shape[0], 2.5)))
        assert_materialised(remove_edges(weighted, *_edges(weighted)))

    def test_apply_batch(self, small_web):
        src, dst = _edges(small_web)
        n = small_web.num_vertices
        adds = [DeltaOp("add", 0, v) for v in range(n - 4, n)]
        adds.append(DeltaOp("add", 3, 7, 1.0))
        removes = [DeltaOp("remove", int(s), int(d))
                   for s, d in zip(src[:5], dst[:5])]
        plain = apply_batch(small_web, DeltaBatch(tuple(adds + removes)))
        assert plain.added == 5 and plain.removed == 5
        assert_unit(plain.graph)
        ones = CSRGraph(small_web.offsets, small_web.targets,
                        np.ones(small_web.num_edges, dtype=np.float32))
        assert_same_values(
            plain.graph, apply_batch(ones, DeltaBatch(tuple(adds + removes))).graph
        )
        update = DeltaOp("update", int(src[9]), int(dst[9]), 3.0)
        assert_materialised(apply_batch(
            small_web, DeltaBatch(tuple(adds + [update]))).graph)
        heavy = DeltaOp("add", 3, 8, 2.0)
        assert_materialised(apply_batch(small_web, DeltaBatch((heavy,))).graph)


class TestValidation:
    def test_repairing_a_unit_graph_keeps_it_unit(self):
        # 0->1 has no reverse arc: repair adds it at the same weight.
        offsets = np.array([0, 2, 3, 4], dtype=np.int32)
        targets = np.array([1, 2, 2, 1], dtype=np.int32)
        for weights in (None, np.ones(4, dtype=np.float32)):
            graph, report = validate_graph(
                CSRGraph(offsets, targets, weights), "repair"
            )
            assert report.repaired_arcs
            if weights is None:
                assert_unit(graph)
            else:
                assert_materialised(graph)


@pytest.mark.parametrize("engine", ["hashtable", "vectorized"])
@pytest.mark.parametrize("value_dtype", [np.float32, np.float64])
def test_detection_is_identical_to_explicit_ones(
    small_web, small_road, engine, value_dtype
):
    from repro.core.config import LPAConfig
    from repro.core.lpa import nu_lpa

    loops = np.arange(0, small_web.num_vertices, 7)
    loopy = from_edges(
        np.concatenate([small_web.source_ids(), loops]),
        np.concatenate([small_web.targets, loops]),
        num_vertices=small_web.num_vertices,
    )
    for graph, compact in itertools.product(
        (small_web, small_road, loopy), (True, False)
    ):
        assert_unit(graph)
        ones = CSRGraph(graph.offsets, graph.targets,
                        np.ones(graph.num_edges, dtype=np.float32))
        config = LPAConfig(value_dtype=value_dtype, compact_layout=compact)
        a = nu_lpa(graph, config, engine=engine, warn_on_no_convergence=False)
        b = nu_lpa(ones, config, engine=engine, warn_on_no_convergence=False)
        assert np.array_equal(a.labels, b.labels)
        assert [it.counters.as_dict() for it in a.iterations] == [
            it.counters.as_dict() for it in b.iterations
        ]
        assert [it.changed for it in a.iterations] == [
            it.changed for it in b.iterations
        ]
