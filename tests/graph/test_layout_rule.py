"""One layout rule for every graph the library builds.

Graphs are stored in the layout the engines run on: offsets and targets
share one width, and that width is int32 exactly when the vertex and arc
counts fit int32.  Builders, generators, readers and the re-packing
transforms (:func:`permute_vertices`, :func:`induced_subgraph`,
:func:`coarsen`, ...) produce it; the delta transforms and the
off-heap copy keep their input's width, so an explicitly wide graph
stays wide.  On every result the
memory governor's ``csr`` charge must equal what
:func:`~repro.gpu.governor.footprint_for` prices, for the compact run
and for the wide one.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LPAConfig
from repro.core.lpa import nu_lpa
from repro.gpu.governor import footprint_for
from repro.graph import transform
from repro.graph.build import coo_to_csr, from_edges
from repro.graph.coarsen import coarsen
from repro.graph.csr import index_dtype
from repro.graph.datasets import dataset_names, generate_standin
from repro.graph.generators import web_graph
from repro.graph.io import (
    read_edgelist,
    read_matrix_market,
    read_metis,
    write_edgelist,
    write_matrix_market,
    write_metis,
)
from repro.graph.transform import (
    add_edges,
    induced_subgraph,
    permute_vertices,
    remove_edges,
    remove_self_loops,
    update_weights,
)
from repro.service.service import _off_heap
from repro.stream.delta import DeltaBatch, DeltaOp
from repro.stream.epoch import apply_batch

INT32 = np.dtype(np.int32)
INT64 = np.dtype(np.int64)
INT32_MAX = np.iinfo(np.int32).max


def assert_layout(graph, width=None):
    """One width for offsets and targets: ``width``, or by default int32
    exactly when the sizes fit."""
    fits = graph.num_vertices <= INT32_MAX and graph.num_edges <= INT32_MAX
    want = width if width is not None else (INT32 if fits else INT64)
    assert graph.offsets.dtype == graph.targets.dtype == want
    assert graph.is_compact == (want == INT32)


def assert_ledger_matches_estimate(graph):
    """The ``csr`` ledger charge equals the estimator's, compact and wide."""
    for compact in (True, False):
        config = LPAConfig(max_iterations=2, compact_layout=compact)
        est = footprint_for(graph, config, engine="vectorized")
        result = nu_lpa(
            graph,
            # Ample: tiny graphs' arena slots round up past the estimate.
            config.with_(memory_budget_bytes=4 * est["total"] + (1 << 20)),
            engine="vectorized",
            warn_on_no_convergence=False,
        )
        assert result.memory["region_high_water"]["csr"] == est["csr"], compact


@st.composite
def arc_lists(draw, max_vertices=30, max_arcs=80):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(1, max_arcs))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return (
        np.asarray(draw(ids), dtype=np.int64),
        np.asarray(draw(ids), dtype=np.int64),
        draw(st.sampled_from([None, n, n + 5])),
    )


def _web(layout):
    graph = web_graph(200, avg_degree=6, seed=5)
    return graph if layout == "compact" else graph.with_wide_layout()


def _width(layout):
    return INT32 if layout == "compact" else INT64


class TestBuilders:
    def test_index_dtype_boundary(self):
        assert index_dtype(INT32_MAX, INT32_MAX) == INT32
        assert index_dtype(INT32_MAX + 1, 0) == INT64
        assert index_dtype(0, INT32_MAX + 1) == INT64

    @given(arc_lists(), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_from_edges(self, arcs, symmetrize, dedupe):
        src, dst, n = arcs
        graph = from_edges(src, dst, num_vertices=n, symmetrize=symmetrize,
                           dedupe=dedupe)
        assert_layout(graph)
        assert_ledger_matches_estimate(graph)

    @given(arc_lists())
    @settings(max_examples=40, deadline=None)
    def test_coo_to_csr(self, arcs):
        src, dst, n = arcs
        n = n or int(max(src.max(), dst.max())) + 1
        graph = coo_to_csr(src, dst, np.ones(src.shape[0], np.float32), n)
        assert_layout(graph)
        assert_ledger_matches_estimate(graph)

    @pytest.mark.parametrize("name", dataset_names())
    def test_standins(self, name):
        graph = generate_standin(name, scale=0.05, seed=3)
        assert_layout(graph)
        assert_ledger_matches_estimate(graph)

    @pytest.mark.parametrize("fmt", ["edgelist", "mtx", "metis"])
    def test_readers(self, tmp_path, fmt):
        writer, reader = {
            "edgelist": (write_edgelist, read_edgelist),
            "mtx": (write_matrix_market, read_matrix_market),
            "metis": (write_metis, read_metis),
        }[fmt]
        path = tmp_path / f"g.{fmt}"
        writer(_web("wide"), path)
        graph = reader(path)
        assert_layout(graph)
        assert graph == _web("compact")


@pytest.mark.parametrize("layout", ["compact", "wide"])
class TestTransformsKeepTheirInputWidth:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_edge_deltas(self, layout, data):
        graph = _web(layout)
        n = graph.num_vertices
        k = data.draw(st.integers(1, 12))
        ids = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
        src = np.asarray(data.draw(ids))
        dst = np.asarray(data.draw(ids))
        grow = data.draw(st.sampled_from([None, n + 3]))
        added = add_edges(graph, src, dst, num_vertices=grow)
        assert_layout(added, _width(layout))
        # Existing arcs, named in either orientation.
        arcs = data.draw(st.lists(st.integers(0, graph.num_edges - 1),
                                  min_size=1, max_size=12))
        a = graph.source_ids()[arcs]
        b = graph.targets[arcs]
        removed = remove_edges(graph, a, b)
        updated = update_weights(graph, b, a, np.full(len(arcs), 2.5, np.float32))
        for out in (removed, updated):
            assert_layout(out, _width(layout))
        assert_ledger_matches_estimate(removed)

    def test_apply_batch(self, layout):
        graph = _web(layout)
        ops = (
            DeltaOp("add", 0, 199, 2.0),
            DeltaOp("remove", int(graph.source_ids()[0]), int(graph.targets[0])),
            DeltaOp("update", int(graph.source_ids()[9]), int(graph.targets[9]), 3.0),
            DeltaOp("add", 3, 201),
        )
        out = apply_batch(graph, DeltaBatch(ops=ops, num_vertices=204)).graph
        assert_layout(out, _width(layout))
        only_updates = apply_batch(graph, DeltaBatch(ops=ops[2:3])).graph
        assert_layout(only_updates, _width(layout))

    def test_off_heap(self, layout):
        graph = _web(layout)
        parked = _off_heap(graph)
        assert_layout(parked, _width(layout))
        # A unit-weight graph parks its weight view, not an array of ones.
        assert graph.unit_weight and parked.unit_weight
        assert parked == graph

    def test_repacking_transforms_build_compact(self, layout):
        graph = _web(layout)
        perm = np.random.default_rng(1).permutation(graph.num_vertices)
        levels = coarsen(graph, max_weight=4).levels
        assert len(levels) > 1
        for out in (
            permute_vertices(graph, perm),
            induced_subgraph(graph, np.arange(0, graph.num_vertices, 3))[0],
            remove_self_loops(graph),
            *levels[1:],
        ):
            assert_layout(out)
            assert_ledger_matches_estimate(out)


def test_remove_edges_charges_what_it_is_priced():
    # The 200-vertex case that used to mix int64 offsets with int32 targets
    # and charge the ledger more than the estimate.
    graph = web_graph(200, avg_degree=6, seed=5)
    out = remove_edges(graph, graph.source_ids()[:5], graph.targets[:5])
    assert_layout(out)
    assert_ledger_matches_estimate(out)


def test_merge_widens_when_the_sizes_stop_fitting():
    graph = web_graph(200, avg_degree=6, seed=5)
    # Pretend the int32 limit is 210 vertices: growing past it must widen
    # offsets and targets together, not wrap the new ids.
    limit = lambda n, m: INT64 if n > 210 else INT32  # noqa: E731
    with mock.patch.object(transform, "index_dtype", limit):
        out = add_edges(graph, np.array([0]), np.array([214]), num_vertices=215)
    assert_layout(out, INT64)
    assert int(out.targets[out.offsets[214]]) == 0
