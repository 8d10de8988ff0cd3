"""End-to-end tests of the ν-LPA driver."""

import numpy as np
import pytest

from repro.core import LPAConfig, nu_lpa
from repro.errors import ConfigurationError
from repro.graph.build import from_edges
from repro.graph.generators import watts_strogatz
from repro.metrics import modularity, normalized_mutual_information


ENGINES = ["vectorized", "hashtable"]


class TestBasics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_cliques_found(self, two_cliques, engine):
        r = nu_lpa(two_cliques, engine=engine)
        labels = r.labels
        # Each clique ends in one community; communities differ.
        assert np.unique(labels[:5]).shape[0] == 1
        assert np.unique(labels[5:]).shape[0] == 1
        assert labels[0] != labels[5]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_labels_are_valid_vertex_ids(self, small_web, engine):
        r = nu_lpa(small_web, engine=engine)
        assert r.labels.min() >= 0
        assert r.labels.max() < small_web.num_vertices

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_graph(self, engine):
        g = from_edges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        r = nu_lpa(g, engine=engine)
        assert r.labels.shape[0] == 0
        assert r.converged

    @pytest.mark.parametrize("engine", ENGINES)
    def test_isolated_vertices_keep_own_label(self, engine):
        g = from_edges(np.array([0]), np.array([1]), num_vertices=4)
        r = nu_lpa(g, engine=engine)
        assert r.labels[2] == 2 and r.labels[3] == 3

    def test_unknown_engine_rejected(self, triangle):
        with pytest.raises(ConfigurationError):
            nu_lpa(triangle, engine="cuda")

    def test_bad_initial_labels_rejected(self, triangle):
        with pytest.raises(ConfigurationError):
            nu_lpa(triangle, initial_labels=np.array([0]))

    def test_initial_labels_used(self, two_cliques):
        init = np.zeros(10, dtype=np.int64)
        r = nu_lpa(two_cliques, initial_labels=init)
        # Everything starts merged; nothing can split in LPA.
        assert r.num_communities() == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpointed_run_leaves_no_cyclic_garbage(self, small_web, engine, tmp_path):
        # The run's boundary steps close over its state; if that cycle
        # outlived the call, the engine's buffers would wait for the
        # cyclic collector instead of being freed on return.
        import gc

        from repro.core.config import ResilienceConfig

        gc.collect()
        gc.disable()
        try:
            nu_lpa(small_web, engine=engine,
                   resilience=ResilienceConfig(checkpoint_dir=tmp_path))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_deterministic(self, small_web):
        a = nu_lpa(small_web, engine="hashtable")
        b = nu_lpa(small_web, engine="hashtable")
        assert np.array_equal(a.labels, b.labels)


class TestConvergence:
    def test_respects_max_iterations(self, small_web):
        r = nu_lpa(small_web, LPAConfig(max_iterations=3))
        assert r.num_iterations <= 3

    def test_no_convergence_check_during_pick_less(self, two_cliques):
        # With pl_period=1, PL is active every iteration, so the tolerance
        # test never fires and the driver runs to the iteration cap.
        r = nu_lpa(two_cliques, LPAConfig(pl_period=1, max_iterations=5))
        assert r.num_iterations == 5
        assert not r.converged

    def test_swap_pathology_without_mitigation(self):
        # A perfectly symmetric ring with synchronous waves oscillates.
        ring = watts_strogatz(64, 2, 0.0, seed=1)
        r = nu_lpa(ring, LPAConfig(pl_period=None), engine="hashtable")
        assert not r.converged

    def test_changed_history_recorded(self, small_web):
        r = nu_lpa(small_web)
        assert r.changed_history.shape[0] == r.num_iterations
        assert r.changed_history[0] > 0

    def test_warns_on_no_convergence(self):
        from repro.errors import ConvergenceWarning

        ring = watts_strogatz(64, 2, 0.0, seed=1)
        with pytest.warns(ConvergenceWarning):
            nu_lpa(
                ring, LPAConfig(pl_period=None), warn_on_no_convergence=True
            )


class TestQuality:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_planted_partition_recovered(self, planted, engine):
        g, truth = planted
        r = nu_lpa(g, engine=engine)
        assert normalized_mutual_information(truth, r.labels) > 0.7

    def test_engines_agree_on_quality(self, planted):
        g, _ = planted
        q = {
            e: modularity(g, nu_lpa(g, engine=e).labels) for e in ENGINES
        }
        assert abs(q["vectorized"] - q["hashtable"]) < 0.1

    def test_pl4_beats_pl1(self, small_web):
        q1 = modularity(small_web, nu_lpa(small_web, LPAConfig(pl_period=1)).labels)
        q4 = modularity(small_web, nu_lpa(small_web, LPAConfig(pl_period=4)).labels)
        assert q4 > q1

    def test_cross_check_produces_valid_result(self, small_web):
        r = nu_lpa(small_web, LPAConfig(pl_period=None, cc_period=1))
        assert modularity(small_web, r.labels) > 0.3


class TestCounters:
    def test_hashtable_engine_counts_work(self, small_web):
        r = nu_lpa(small_web, engine="hashtable")
        c = r.total_counters
        assert c.edges_scanned > 0
        assert c.probes >= c.edges_scanned  # at least one probe per entry
        assert c.launches >= r.num_iterations
        assert c.sectors_read > 0

    def test_pruning_reduces_scanned_edges(self, small_web):
        on = nu_lpa(small_web, LPAConfig(pruning=True), engine="hashtable")
        off = nu_lpa(small_web, LPAConfig(pruning=False), engine="hashtable")
        assert on.total_counters.edges_scanned < off.total_counters.edges_scanned

    def test_atomics_only_from_block_kernel(self, small_road):
        # Road networks have max degree < 32: everything runs in the
        # thread-per-vertex kernel, which needs no atomics.
        r = nu_lpa(small_road, engine="hashtable")
        assert r.total_counters.atomic_add == 0
        assert r.total_counters.atomic_cas == 0

    def test_result_metadata(self, small_web):
        r = nu_lpa(small_web, engine="hashtable")
        assert r.algorithm == "nu-lpa[hashtable]"
        assert r.wall_seconds > 0
        assert r.config is not None


class TestWeightedGraphs:
    def test_heavier_edge_wins(self):
        """A vertex between two groups follows the heavier connection."""
        from repro.graph.build import from_edges

        # Vertex 2 bridges cliques {0,1} and {3,4}; its edge into the
        # right group is 5x heavier.
        src = np.array([0, 0, 1, 3, 2, 2])
        dst = np.array([1, 2, 2, 4, 3, 4])
        w = np.array([1, 1, 1, 1, 5, 5], dtype=np.float32)
        g = from_edges(src, dst, w)
        for engine in ENGINES:
            r = nu_lpa(g, engine=engine)
            assert r.labels[2] == r.labels[3] == r.labels[4]
            assert r.labels[0] != r.labels[2]

    def test_weighted_engines_agree(self):
        from repro.graph.generators import web_graph
        from repro.graph.build import from_edges

        base = web_graph(800, avg_degree=6, seed=4)
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 4.0, size=base.num_edges).astype(np.float32)
        # Rebuild with random symmetric weights (max-combine keeps symmetry).
        g = from_edges(base.source_ids(), base.targets, weights,
                       num_vertices=base.num_vertices)
        q = {
            e: modularity(g, nu_lpa(g, engine=e).labels) for e in ENGINES
        }
        assert abs(q["vectorized"] - q["hashtable"]) < 0.12


class TestConvergenceWarningDefault:
    """The warning must be emitted *by default*, not only on request, and
    the result must carry the same information programmatically."""

    def test_warns_by_default(self):
        from repro.errors import ConvergenceWarning

        ring = watts_strogatz(64, 2, 0.0, seed=1)
        with pytest.warns(ConvergenceWarning, match="max_iterations"):
            r = nu_lpa(ring, LPAConfig(pl_period=None))
        assert r.converged is False

    def test_warning_points_at_the_caller(self):
        from repro.errors import ConvergenceWarning

        ring = watts_strogatz(64, 2, 0.0, seed=1)
        with pytest.warns(ConvergenceWarning) as record:
            nu_lpa(ring, LPAConfig(pl_period=None))
        assert [w.filename for w in record] == [__file__]

    def test_opt_out_suppresses(self):
        import warnings

        ring = watts_strogatz(64, 2, 0.0, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = nu_lpa(
                ring, LPAConfig(pl_period=None), warn_on_no_convergence=False
            )
        assert r.converged is False

    def test_converged_run_does_not_warn(self, small_web):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = nu_lpa(small_web)
        assert r.converged is True
