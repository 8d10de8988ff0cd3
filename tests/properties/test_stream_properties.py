"""Property-based tests for the streaming pipeline (hypothesis).

The replay contract behind crash recovery: applying a delta log is a
*pure function* of (base graph, batch prefix).  Re-applying the same log,
or resuming from any intermediate epoch and replaying the tail, must
yield bit-identical CSR arrays — that is what lets snapshots store labels
only and lets a killed processor resume anywhere.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.build import from_edges
from repro.graph.datasets import dataset_names, generate_standin
from repro.stream.delta import DeltaBatch, DeltaOp
from repro.stream.epoch import apply_batch


def _base_graph(n):
    # Ring over n vertices: every vertex has degree 2, ids stay small.
    src = np.arange(n, dtype=np.int64)
    dst = (src + 1) % n
    return from_edges(src, dst, num_vertices=n, symmetrize=True)


@st.composite
def delta_logs(draw, max_vertices=12, max_batches=5, max_ops=6):
    """A base graph plus a batch sequence that is valid when replayed.

    Ops are generated against a tracked edge set so removes/updates always
    name a live edge — the property under test is replay determinism, not
    quarantine (covered by the unit tests).  Removes and updates name the
    edge in either orientation.
    """
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    num_batches = draw(st.integers(min_value=1, max_value=max_batches))
    batches = []
    for _ in range(num_batches):
        ops = []
        for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
            kind = draw(st.sampled_from(["add", "remove", "update"]))
            if kind == "add":
                a = draw(st.integers(0, n - 1))
                b = draw(st.integers(0, n - 1))
                key = (min(a, b), max(a, b))
                if a == b or key in edges:
                    continue
                edges.add(key)
                w = draw(st.floats(0.1, 10.0, allow_nan=False))
                ops.append(DeltaOp("add", a, b, weight=w))
            elif edges:
                key = draw(st.sampled_from(sorted(edges)))
                a, b = key if draw(st.booleans()) else key[::-1]
                if kind == "remove":
                    edges.discard(key)
                    ops.append(DeltaOp("remove", a, b))
                else:
                    w = draw(st.floats(0.1, 10.0, allow_nan=False))
                    ops.append(DeltaOp("update", a, b, weight=w))
        batches.append(DeltaBatch(ops=tuple(ops)))
    return n, batches


def _replay(graph, batches):
    for batch in batches:
        graph = apply_batch(graph, batch).graph
    return graph


def _arrays(graph):
    return (graph.offsets, graph.targets, graph.weights)


def _identical(a, b):
    return all(np.array_equal(x, y) for x, y in zip(_arrays(a), _arrays(b)))


class TestReplayDeterminism:
    @given(delta_logs())
    @settings(max_examples=50, deadline=None)
    def test_double_replay_is_idempotent(self, data):
        n, batches = data
        base = _base_graph(n)
        assert _identical(_replay(base, batches), _replay(base, batches))

    @given(delta_logs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_prefix_resume_matches_straight_replay(self, data, rnd):
        """Snapshot-at-epoch-k + tail replay == replay of the whole log."""
        n, batches = data
        base = _base_graph(n)
        k = rnd.draw(st.integers(0, len(batches)))
        straight = _replay(base, batches)
        resumed = _replay(_replay(base, batches[:k]), batches[k:])
        assert _identical(straight, resumed)

    @given(delta_logs())
    @settings(max_examples=30, deadline=None)
    def test_symmetry_survives_every_epoch(self, data):
        from repro.graph.properties import is_symmetric

        n, batches = data
        graph = _base_graph(n)
        for batch in batches:
            graph = apply_batch(graph, batch).graph
            assert is_symmetric(graph)


def _key_sorted(graph):
    """Every row's targets strictly increase: arc keys ``src * n + dst``
    are strictly increasing in CSR order (the order the delta merge
    relies on)."""
    keys = graph.source_ids() * max(graph.num_vertices, 1) + graph.targets
    return bool(np.all(np.diff(keys) > 0))


class TestKeySortedRows:
    def test_standins_are_key_sorted(self):
        for name in dataset_names():
            assert _key_sorted(generate_standin(name, scale=0.05, seed=3)), name

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_from_edges_is_key_sorted(self, edges):
        graph = from_edges([e[0] for e in edges], [e[1] for e in edges],
                           num_vertices=16)
        assert _key_sorted(graph)

    @given(delta_logs())
    @settings(max_examples=50, deadline=None)
    def test_apply_batch_keeps_rows_key_sorted(self, data):
        n, batches = data
        graph = _base_graph(n)
        for batch in batches:
            graph = apply_batch(graph, batch).graph
            assert _key_sorted(graph)
