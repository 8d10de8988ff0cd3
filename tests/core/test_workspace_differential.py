"""Differential tests for the workspace arena: on vs off, bit for bit.

The arena's contract is that it only changes *where scratch memory comes
from*, never what is computed: every hot-path function runs the same
arithmetic on arena slots or on fresh ``np.empty`` buffers.  These tests
pin that contract across both engines, every probing strategy, and
pruning on/off — production against engines built with no arena
(:func:`tests.reference_sweep.no_arena`); labels, per-iteration stats,
and every kernel counter must match exactly — and verify the performance
half of the bargain with ``tracemalloc``: a warmed engine re-running a
converged workload performs no array allocation on the hot path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import LPAConfig
from repro.core.lpa import make_engine, nu_lpa
from repro.core.pruning import Frontier
from repro.graph.build import from_edges
from repro.graph.generators import rmat_graph, web_graph
from repro.hashing.probing import ProbeStrategy
from repro.types import VERTEX_DTYPE
from tests.reference_sweep import no_arena

ENGINES = ["vectorized", "hashtable"]


def _run(graph, engine, *, arena=True, **config_kwargs):
    config = LPAConfig(**config_kwargs)
    if arena:
        return nu_lpa(graph, config, engine=engine, warn_on_no_convergence=False)
    with no_arena() as engines:
        result = nu_lpa(graph, config, engine=engine, warn_on_no_convergence=False)
    assert engines and all(e.arena is None for e in engines)
    return result


def _assert_identical(a, b, context):
    assert np.array_equal(a.labels, b.labels), context
    assert len(a.iterations) == len(b.iterations), context
    for it_a, it_b in zip(a.iterations, b.iterations):
        assert it_a.changed == it_b.changed, context
        assert it_a.processed == it_b.processed, context
        assert it_a.reverted == it_b.reverted, context
        assert it_a.counters.as_dict() == it_b.counters.as_dict(), context


class TestArenaDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("pruning", [True, False])
    def test_bit_identical_labels_and_counters(self, small_web, engine, pruning):
        on = _run(small_web, engine, pruning=pruning)
        off = _run(small_web, engine, arena=False, pruning=pruning)
        _assert_identical(on, off, f"{engine}, pruning={pruning}")

    @pytest.mark.parametrize("probing", list(ProbeStrategy))
    def test_bit_identical_across_probing_strategies(self, small_social, probing):
        on = _run(small_social, "hashtable", probing=probing)
        off = _run(small_social, "hashtable", arena=False, probing=probing)
        _assert_identical(on, off, probing.value)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_with_fp64_values(self, small_web, engine):
        on = _run(small_web, engine, value_dtype=np.float64)
        off = _run(small_web, engine, arena=False, value_dtype=np.float64)
        _assert_identical(on, off, engine)


def _converge(eng, graph, config, max_iterations=64, label_dtype=VERTEX_DTYPE):
    """Run full-wave moves to the fixed point; returns (labels, frontier).

    Pruning is disabled so *every* move — including post-convergence ones —
    processes all vertices through the complete wave pipeline (gather,
    group-by/hashtable reduce, adoption filter).  The run both reaches the
    fixed point and grows every arena slot to its high-water mark.
    """
    frontier = Frontier(graph, enabled=False, arena=eng.arena)
    labels = np.arange(graph.num_vertices, dtype=label_dtype)
    for it in range(max_iterations):
        outcome = eng.move(
            labels, frontier, pick_less=config.pick_less_active(it),
            iteration=it,
        )
        if outcome.changed == 0:
            return labels, frontier
    pytest.fail("workload did not converge while warming the arena")


class TestSteadyStateAllocations:
    """tracemalloc proof that steady-state iterations allocate nothing.

    Measured at the fixed point rather than from a cold start: early
    iterations legitimately allocate their *outputs* (the documented
    ``changed_vertices`` copy is proportional to adopting vertices), but
    the scratch pipeline itself must come entirely from the arena.
    """

    #: Covers interpreter-level object churn (MoveOutcome, KernelCounters,
    #: zero-length changed copies) plus numpy-internal *constant-size*
    #: transients: ``ufunc.at`` — the simulated atomics, whose duplicate
    #: scattered indices rule out a reduceat rewrite without reordering
    #: float accumulation — holds a ~5 KB iterator buffer per call, and
    #: ``ndarray.sort`` a ~3 KB one.  None of it scales with the graph
    #: (the size parametrisation below pins that); anything wave-sized
    #: (hundreds of KB at these graph sizes) fails both sizes.
    _SLACK_BYTES = 16384

    def _assert_steady_moves_allocate_nothing(self, eng, graph, label_dtype):
        """Converge ``eng``, then run three more full moves under
        tracemalloc: no vertex may change, no slot grow, and the peak
        must stay within the slack."""
        config = LPAConfig(pruning=False)
        labels, frontier = _converge(eng, graph, config, label_dtype=label_dtype)

        grows_before = eng.arena.stats()["grows"]
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for it in range(3):
            outcome = eng.move(
                labels, frontier, pick_less=config.pick_less_active(it),
                iteration=it,
            )
            assert outcome.changed == 0
            assert outcome.processed == graph.num_vertices
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert eng.arena.stats()["grows"] == grows_before, (
            "arena slots grew on a steady-state move"
        )
        assert peak - before < self._SLACK_BYTES, (
            f"steady-state {eng.name} iterations with "
            f"{np.dtype(label_dtype)} labels allocated {peak - before} bytes"
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("num_vertices", [1200, 4800])
    # Compact runs (the default) hold int32 labels; wide ids need int64.
    @pytest.mark.parametrize("label_dtype", [np.int32, np.int64],
                             ids=["int32-labels", "int64-labels"])
    def test_steady_state_iterations_allocate_no_arrays(
        self, engine, num_vertices, label_dtype
    ):
        graph = web_graph(num_vertices, avg_degree=6, seed=3)
        eng = make_engine(graph, LPAConfig(pruning=False), engine)
        self._assert_steady_moves_allocate_nothing(eng, graph, label_dtype)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("label_dtype", [np.int32, np.int64],
                             ids=["int32-labels", "int64-labels"])
    def test_self_loop_filter_allocates_no_arrays(self, engine, label_dtype):
        """The cases above are loop-free, so their waves skip the
        self-loop filter; here every 7th vertex carries a loop.  (On
        ``seed=3`` the hashtable engine keeps flipping one tied vertex
        after its fixed point, hence ``seed=5``.)"""
        graph = web_graph(4800, avg_degree=6, seed=5)
        n = graph.num_vertices
        loops = np.arange(0, n, 7)
        graph = from_edges(
            np.concatenate([np.repeat(np.arange(n), graph.degrees), loops]),
            np.concatenate([graph.targets, loops]),
            np.concatenate([graph.weights, np.ones(loops.shape[0])]),
            num_vertices=n,
        )
        eng = make_engine(graph, LPAConfig(pruning=False), engine)
        assert not eng._loop_free
        self._assert_steady_moves_allocate_nothing(eng, graph, label_dtype)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_wide_layout_allocates_no_arrays(self, engine):
        """Built graphs are compact, so the case above runs the compact
        layout; the wide copy a ``compact_layout=False`` run works on must
        stay allocation-free as well."""
        graph = web_graph(4800, avg_degree=6, seed=3)
        assert graph.is_compact
        graph = graph.with_wide_layout()
        config = LPAConfig(pruning=False)
        eng = make_engine(graph, config, engine)
        labels, frontier = _converge(eng, graph, config)

        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for it in range(3):
            outcome = eng.move(
                labels, frontier, pick_less=config.pick_less_active(it),
                iteration=it,
            )
            assert outcome.changed == 0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - before < self._SLACK_BYTES, (
            f"steady-state wide {engine} iterations allocated {peak - before} bytes"
        )

    def test_arena_off_allocates_plenty(self):
        """Control: the same fixed-point workload without the arena."""
        graph = web_graph(1200, avg_degree=6, seed=3)
        config = LPAConfig(pruning=False)
        with no_arena():
            eng = make_engine(graph, config, "vectorized")
        assert eng.arena is None
        labels, frontier = _converge(eng, graph, config)

        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for it in range(3):
            eng.move(
                labels, frontier, pick_less=config.pick_less_active(it),
                iteration=it,
            )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - before > 100_000
