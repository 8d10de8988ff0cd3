"""Engine-level tests: one lpaMove at a time."""

from unittest import mock

import numpy as np
import pytest

from repro.core import engine_hashtable, engine_vectorized
from repro.core.config import LPAConfig
from repro.core.engine_hashtable import HashtableEngine
from repro.core.engine_vectorized import VectorizedEngine, best_labels_groupby
from repro.core.pruning import Frontier
from repro.graph.build import from_edges
from repro.types import VERTEX_DTYPE


ENGINE_CLASSES = [VectorizedEngine, HashtableEngine]


class TestGroupby:
    def test_basic_argmax(self):
        table_id = np.array([0, 0, 0, 1])
        keys = np.array([7, 7, 3, 9])
        values = np.array([1.0, 1.0, 1.5, 2.0])
        out = best_labels_groupby(table_id, keys, values, np.array([-1, -1]))
        assert out.tolist() == [7, 9]

    def test_tie_breaks_to_smallest(self):
        table_id = np.array([0, 0])
        keys = np.array([9, 4])
        values = np.array([1.0, 1.0])
        out = best_labels_groupby(table_id, keys, values, np.array([-1]))
        assert out[0] == 4

    def test_hash_tie_break_differs_deterministically(self):
        table_id = np.zeros(4, dtype=np.int64)
        keys = np.array([1, 2, 3, 4])
        values = np.ones(4)
        a = best_labels_groupby(table_id, keys, values, np.array([-1]),
                                tie_break="hash")
        b = best_labels_groupby(table_id, keys, values, np.array([-1]),
                                tie_break="hash")
        assert a[0] == b[0]
        assert a[0] in keys

    def test_unknown_tie_break_rejected(self):
        with pytest.raises(ValueError):
            best_labels_groupby(
                np.array([0]), np.array([1]), np.array([1.0]),
                np.array([-1]), tie_break="random",
            )

    def test_empty_tables_get_fallback(self):
        out = best_labels_groupby(
            np.array([1]), np.array([5]), np.array([1.0]),
            np.array([10, 11, 12]),
        )
        assert out.tolist() == [10, 5, 12]

    def test_weights_accumulate_across_duplicate_keys(self):
        table_id = np.array([0, 0, 0])
        keys = np.array([4, 9, 4])
        values = np.array([1.0, 1.5, 1.0])  # 4 totals 2.0 > 9's 1.5
        out = best_labels_groupby(table_id, keys, values, np.array([-1]))
        assert out[0] == 4


@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
class TestMove:
    def test_first_move_changes_vertices(self, two_cliques, engine_cls):
        config = LPAConfig()
        engine = engine_cls(two_cliques, config)
        labels = np.arange(two_cliques.num_vertices, dtype=VERTEX_DTYPE)
        frontier = Frontier(two_cliques)
        out = engine.move(labels, frontier, pick_less=True, iteration=0)
        assert out.changed > 0
        assert out.processed == two_cliques.num_vertices
        assert np.array_equal(np.sort(out.changed_vertices),
                              np.flatnonzero(labels != np.arange(labels.shape[0])))

    def test_pick_less_only_lowers_labels(self, small_web, engine_cls):
        config = LPAConfig()
        engine = engine_cls(small_web, config)
        labels = np.arange(small_web.num_vertices, dtype=VERTEX_DTYPE)
        before = labels.copy()
        frontier = Frontier(small_web)
        engine.move(labels, frontier, pick_less=True, iteration=0)
        assert np.all(labels <= before)

    def test_processed_vertices_marked(self, star, engine_cls):
        config = LPAConfig()
        engine = engine_cls(star, config)
        labels = np.arange(star.num_vertices, dtype=VERTEX_DTYPE)
        frontier = Frontier(star)
        out = engine.move(labels, frontier, pick_less=False, iteration=0)
        # Changed vertices re-marked their neighbours; everything else done.
        assert frontier.num_active() <= star.num_vertices

    def test_move_without_changes_empties_frontier(self, triangle, engine_cls):
        config = LPAConfig()
        engine = engine_cls(triangle, config)
        labels = np.zeros(3, dtype=VERTEX_DTYPE)  # already converged
        frontier = Frontier(triangle)
        out = engine.move(labels, frontier, pick_less=False, iteration=0)
        assert out.changed == 0
        assert frontier.num_active() == 0

    def test_processed_counts_retired_isolated_vertices(self, engine_cls):
        # Triangle 0-1-2 plus isolated vertices 3 and 4.  Degree-0
        # vertices are retired from the frontier without entering a
        # kernel wave, but they were still handed to the move and must
        # show up in its processed-vertex accounting.
        graph = from_edges(
            np.array([0, 1, 2]), np.array([1, 2, 0]), num_vertices=5
        )
        engine = engine_cls(graph, LPAConfig())
        labels = np.arange(5, dtype=VERTEX_DTYPE)
        frontier = Frontier(graph)
        out = engine.move(labels, frontier, pick_less=False, iteration=0)
        assert out.processed == 5
        assert out.counters.vertices_processed == 5
        active = frontier.active_vertices()
        assert 3 not in active and 4 not in active

    @pytest.mark.parametrize("name", [
        "gather_edges", "partition_by_degree", "pick_less_filter", "plan_waves",
    ])
    def test_driver_calls_helpers_by_engine_hashtable_attribute(
        self, small_web, engine_cls, name
    ):
        # Both engines run the one driver in engine_hashtable, which looks
        # these helpers up at that module's attributes: the benchmark's
        # traced run wraps them there (and at engine_vectorized's copies).
        real = getattr(engine_hashtable, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        engine = engine_cls(small_web, LPAConfig())
        labels = np.arange(small_web.num_vertices, dtype=VERTEX_DTYPE)
        with mock.patch.object(engine_hashtable, name, spy):
            engine.move(labels, Frontier(small_web), pick_less=False, iteration=0)
        assert calls
        assert getattr(engine_vectorized, name) is real


class TestValueDtypeFidelity:
    """``config.value_dtype`` reaches the accumulator (Figure-5 ablation).

    The discriminating instance: label B's weight arrives split over two
    edges as ``2**24`` and ``2.5``; label A's as a single ``2**24 + 2``.
    A float32 accumulator rounds the only inexact sum, ``2**24 + 2.5``,
    down to ``2**24 + 2`` (the ulp there is 2), tying the labels; float64
    keeps the 0.5 margin and B wins outright.  Two-term sums make the
    rounding independent of summation order, so the fp32/fp64 split is a
    property of the configured precision, not of numpy's reduction
    blocking.
    """

    @pytest.mark.parametrize(
        "accum_dtype,expected", [(np.float32, 100), (np.float64, 300)]
    )
    def test_groupby_accumulates_in_configured_dtype(
        self, accum_dtype, expected
    ):
        # Regression for the Figure-5 fp32 ablation: this used to
        # accumulate in float64 unconditionally, returning 300 for both.
        big = float(2**24)
        out = best_labels_groupby(
            np.array([0, 0, 0]),
            np.array([300, 300, 100]),
            np.array([big, 2.5, big + 2.0]),
            np.array([-1]),
            accum_dtype=accum_dtype,
        )
        assert out[0] == expected

    @pytest.mark.parametrize("engine_cls", ENGINE_CLASSES)
    @pytest.mark.parametrize(
        "value_dtype,expected", [(np.float32, 10), (np.float64, 20)]
    )
    def test_engines_agree_on_dtype_sensitive_vote(
        self, engine_cls, value_dtype, expected
    ):
        # Cross-engine parity: both engines resolve the same instance the
        # same way under each precision.  In the float32 tie the group-by
        # prefers the smallest label and the hashtable the lowest slot
        # holding the max; label ids 10 < 20 are chosen so the two rules
        # coincide for this table size.
        big = float(2**24)
        graph = from_edges(
            np.zeros(3, dtype=np.int64),
            np.arange(1, 4),
            np.array([big, 2.5, big + 2.0]),
        )
        engine = engine_cls(graph, LPAConfig(value_dtype=value_dtype))
        labels = np.array([999, 20, 20, 10], dtype=VERTEX_DTYPE)
        frontier = Frontier(graph)
        # Only vertex 0 votes; its neighbours keep their labels fixed.
        frontier.mark_processed(np.arange(1, 4))
        engine.move(labels, frontier, pick_less=False, iteration=0)
        assert labels[0] == expected
