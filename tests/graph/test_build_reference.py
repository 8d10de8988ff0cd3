"""Graph preparation equals its literal statement, byte for byte.

:mod:`tests.reference_build` states the Section 5.1.3 pipeline with a
stable argsort per dedupe, an argsort per CSR pack and draw-order
inverse-CDF sampling; the production builders sort each arc once.  Every
output array must match the reference's in dtype and bytes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import build
from repro.graph.build import coo_to_csr, deduplicate_edges, from_edges
from repro.graph.datasets import dataset_names, generate_standin
from tests.reference_build import (
    reference_build,
    reference_coo_to_csr,
    reference_deduplicate_edges,
    reference_from_edges,
)

COMBINES = ("max", "sum", "first")


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        # Unit weights (stride-0 views) on exactly the same outputs.
        assert not a.shape[0] or (a.strides == (0,)) == (b.strides == (0,))


def assert_same_graph(got, want):
    assert_same_arrays(
        (got.offsets, got.targets, got.weights),
        (want.offsets, want.targets, want.weights),
    )


@st.composite
def arc_lists(draw, max_vertices=40, max_arcs=120):
    """Arcs over few vertices (parallel arcs and self-loops are common),
    with weights drawn from a small set so ties between merged weights
    happen, or no weights at all."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_arcs))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.asarray(draw(ids), dtype=np.int64)
    dst = np.asarray(draw(ids), dtype=np.int64)
    weights = draw(st.one_of(
        st.none(),
        st.lists(
            st.sampled_from([1.0, 0.5, 2.0, -1.5, 3.25, 1e-3]),
            min_size=m, max_size=m,
        ).map(lambda w: np.asarray(w, dtype=np.float32)),
    ))
    num_vertices = draw(st.sampled_from([None, n, n + 7]))
    return src, dst, weights, num_vertices


class TestAgainstReference:
    @given(
        arc_lists(), st.sampled_from(COMBINES), st.booleans(), st.booleans()
    )
    @settings(max_examples=150, deadline=None)
    def test_from_edges(self, arcs, combine, symmetrize, dedupe):
        src, dst, w, n = arcs
        kwargs = dict(num_vertices=n, symmetrize=symmetrize, dedupe=dedupe,
                      combine=combine)
        assert_same_graph(
            from_edges(src, dst, w, **kwargs),
            reference_from_edges(src, dst, w, **kwargs),
        )

    @given(arc_lists(), st.sampled_from(COMBINES))
    @settings(max_examples=150, deadline=None)
    def test_deduplicate_edges(self, arcs, combine):
        src, dst, w, n = arcs
        assert_same_arrays(
            deduplicate_edges(src, dst, w, num_vertices=n, combine=combine),
            reference_deduplicate_edges(src, dst, w, num_vertices=n,
                                        combine=combine),
        )

    @given(arc_lists(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_coo_to_csr(self, arcs, presorted):
        src, dst, w, n = arcs
        n = n or (int(max(src.max(), dst.max())) + 1 if src.shape[0] else 0)
        w = np.ones(src.shape[0], dtype=np.float32) if w is None else w
        if presorted:
            order = np.argsort(src, kind="stable")
            src, dst, w = src[order], dst[order], w[order]
        got = coo_to_csr(src, dst, w, n)
        assert_same_graph(got, reference_coo_to_csr(src, dst, w, n))
        # The CSR owns its arrays: the caller's stay writeable and apart.
        assert dst.flags.writeable and w.flags.writeable
        assert not np.shares_memory(got.targets, dst)
        assert not np.shares_memory(got.weights, w)

    @pytest.mark.parametrize("combine", COMBINES)
    def test_wide_vertex_count_takes_the_argsort_fallback(self, combine):
        # Keys up to (2^30)^2 plus a 7-bit index overflow the 63-bit pack.
        n = 1 << 30
        rng = np.random.default_rng(11)
        ends = np.array([0, 1, n - 2, n - 1], dtype=np.int64)
        src = ends[rng.integers(0, 4, 100)]
        dst = ends[rng.integers(0, 4, 100)]
        w = rng.choice(np.array([1.0, 2.0, 0.5], dtype=np.float32), 100)
        with mock.patch.object(
            build.np, "argsort", wraps=np.argsort
        ) as argsort:
            got = deduplicate_edges(src, dst, w, num_vertices=n, combine=combine)
        assert argsort.call_count == 1
        assert_same_arrays(
            got,
            reference_deduplicate_edges(src, dst, w, num_vertices=n,
                                        combine=combine),
        )

    def test_packed_path_sorts_without_argsort(self):
        src = np.array([3, 0, 3, 1, 0], dtype=np.int64)
        dst = np.array([1, 2, 1, 1, 2], dtype=np.int64)
        with mock.patch.object(
            build.np, "argsort", wraps=np.argsort
        ) as argsort:
            got = deduplicate_edges(src, dst, num_vertices=4)
        assert argsort.call_count == 0
        assert_same_arrays(got, reference_deduplicate_edges(src, dst, num_vertices=4))


@pytest.mark.parametrize("name", dataset_names())
def test_standin_equals_its_reference_build(name):
    graph = generate_standin(name, scale=0.05, seed=3)
    with reference_build() as patched:
        assert patched  # the generators' from_edges really was swapped
        reference = generate_standin(name, scale=0.05, seed=3)
    assert_same_graph(graph, reference)
