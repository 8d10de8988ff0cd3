"""``apply_batch`` against the literal per-op reference in
:mod:`tests.reference_delta`: CSR arrays and dtypes, ``touched``, the
add/remove/update counts and the missing-edge dead letters must match on
every batch."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.build import from_edges
from repro.graph.datasets import generate_standin
from repro.graph.transform import permute_vertices
from repro.stream.delta import DeltaBatch, DeltaOp
from tests.reference_delta import POLICIES, assert_matches_reference, mixed_batches

WEIGHTS = [0.5, 1.0, 1.5, 2.0, 3.0]


@st.composite
def graphs_and_batches(draw):
    """A small base graph, key-sorted or with unsorted rows, and one batch
    of self-loops, growth, repeated or reversed edges, missing edges and
    weight defects."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from(WEIGHTS)),
                          max_size=3 * n))
    graph = from_edges(
        [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges],
        num_vertices=n,
    )
    if draw(st.booleans()):
        graph = permute_vertices(graph, np.asarray(draw(st.permutations(range(n)))))
    arcs = list(zip(graph.source_ids().tolist(), graph.targets.tolist()))

    grow = draw(st.one_of(st.none(), st.integers(n, n + 3)))
    hi = grow or n
    ops: list[DeltaOp] = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["add", "remove", "update"]))
        source = draw(st.sampled_from(["arc", "earlier", "loop", "any"]))
        if source == "arc" and arcs:
            a, b = draw(st.sampled_from(arcs))
        elif source == "earlier" and ops:
            prev = draw(st.sampled_from(ops))
            a, b = draw(st.sampled_from([(prev.src, prev.dst), (prev.dst, prev.src)]))
        elif source == "loop":
            a = b = draw(st.integers(0, hi - 1))
        else:
            a, b = draw(st.integers(0, hi - 1)), draw(st.integers(0, hi - 1))
        weight = draw(st.sampled_from(WEIGHTS + [-1.0]))
        if kind == "remove" or (kind == "add" and draw(st.booleans())):
            weight = None
        ops.append(DeltaOp(kind, a, b, weight))
    return graph, DeltaBatch(ops=tuple(ops), num_vertices=grow)


class TestApplyBatchMatchesReference:
    @given(graphs_and_batches(), st.sampled_from(POLICIES))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_batches(self, tmp_path, case, policy):
        graph, batch = case
        assert_matches_reference(graph, batch, policy, tmp_path / "dead.jsonl")

    def test_standin_mixed_batches(self, tmp_path):
        for seed in range(2):
            graph = generate_standin("com-LiveJournal", scale=0.05, seed=seed)
            rng = np.random.default_rng(seed)
            batches = mixed_batches(graph, rng, num_batches=9, batch_size=8)
            for i, batch in enumerate(batches):
                graph = assert_matches_reference(
                    graph, batch, POLICIES[i % 3], tmp_path / "dead.jsonl", seq=i + 1
                )
