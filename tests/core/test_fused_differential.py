"""Differential suite for the fused-sweep / compact-layout hot paths.

None of the performance levers may change *what* is computed:

* the hashtable engine's one production sweep fuses clear → insert →
  max-key (tables start clean, the entries' slots are scrubbed after the
  max) and settles adds and atomic counters per entry — labels,
  per-iteration stats, and every kernel counter must match a run whose
  accumulate is :func:`tests.reference_sweep.literal_accumulate` and
  whose reduce is the literal per-table loop of
  :func:`tests.reference_sweep.literal_max_key` plus a full clear;
* graphs are stored with 32-bit offsets/targets when they fit, and
  ``compact_layout=False`` runs a 64-bit copy (with 64-bit labels) —
  same values, twice the bytes.

These tests pin that contract across both engines, every probing
strategy, and arena on/off, and extend the steady-state ``tracemalloc``
proof to the fused hashtable path.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core import engine_hashtable
from repro.core.config import LPAConfig
from repro.core.lpa import make_engine, nu_lpa
from repro.core.pruning import Frontier
from repro.graph import datasets
from repro.graph.build import from_edges
from repro.graph.generators import rmat_graph, watts_strogatz, web_graph
from repro.hashing.parallel_hashtable import segment_index_arrays
from repro.hashing.probing import ProbeStrategy
from repro.types import EMPTY_KEY, VERTEX_DTYPE
from tests.reference_sweep import engine_layouts, no_arena, reference_reduce

ENGINES = ["vectorized", "hashtable"]


def _loopy_graph():
    """A random graph with self-loops: some vertices carry one beside
    their other arcs, so does a hub above the switch degree (block
    kernel), and three vertices — the last one among them — have only
    self-loops, so their tables get no entries."""
    rng = np.random.default_rng(11)
    n = 400
    src = rng.integers(0, n - 8, 1600)
    dst = rng.integers(0, n - 8, 1600)
    hub_dst = rng.integers(1, n - 8, 60)
    loops = np.concatenate([[0], rng.choice(n - 8, 60, replace=False)])
    only = np.array([n - 8, n - 5, n - 1])
    src = np.concatenate([src, np.zeros(60, np.int64), loops, only])
    dst = np.concatenate([dst, hub_dst, loops, only])
    graph = from_edges(src, dst, rng.random(src.shape[0]) + 0.5, num_vertices=n)
    assert graph.has_self_loops
    assert int(graph.degrees[0]) > LPAConfig().switch_degree
    return graph


def _run(graph, engine, *, reference=False, arena=True, **config_kwargs):
    """One run; ``reference`` swaps in the literal accumulate and reduce,
    ``arena=False`` builds the engines without a workspace arena."""
    with contextlib.ExitStack() as stack:
        if reference:
            stack.enter_context(reference_reduce())
        engines = None if arena else stack.enter_context(no_arena())
        result = nu_lpa(
            graph,
            LPAConfig(**config_kwargs),
            engine=engine,
            warn_on_no_convergence=False,
        )
    if engines is not None:
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


class TestFusedSweepDifferential:
    @pytest.mark.parametrize("arena", [True, False])
    def test_bit_identical_labels_and_counters(self, small_web, arena):
        fused = _run(small_web, "hashtable")
        plain = _run(small_web, "hashtable", reference=True, arena=arena)
        _assert_identical(fused, plain, f"arena={arena}")

    @pytest.mark.parametrize("probing", list(ProbeStrategy))
    def test_bit_identical_across_probing_strategies(self, small_social, probing):
        fused = _run(small_social, "hashtable", probing=probing)
        plain = _run(small_social, "hashtable", reference=True, probing=probing)
        _assert_identical(fused, plain, probing.value)

    def test_dense_tables_match_reference(self):
        # Uniform-degree ring lattice: every table runs at high occupancy,
        # so most slots of each wave's tables are entries' slots.
        graph = watts_strogatz(2000, 10, 0.05, seed=5)
        fused = _run(graph, "hashtable")
        plain = _run(graph, "hashtable", reference=True)
        _assert_identical(fused, plain, "watts_strogatz dense branch")

    def test_scalar_tail_graph(self):
        # Heavy-tailed graph small enough that waves finish in the scalar
        # tail (pending <= _SCALAR_TAIL_MAX) almost immediately.
        graph = rmat_graph(6, 4, seed=3)
        fused = _run(graph, "hashtable")
        plain = _run(graph, "hashtable", reference=True)
        _assert_identical(fused, plain, "scalar tail")


    @pytest.mark.parametrize("value_dtype", [np.float32, np.float64])
    def test_self_loops_match_reference(self, value_dtype):
        # Self-loops are filtered from the entries, so each table's first
        # entry comes from the filter; tables of self-loop-only vertices
        # stay empty and keep their labels.
        graph = _loopy_graph()
        fused = _run(graph, "hashtable", value_dtype=value_dtype)
        plain = _run(graph, "hashtable", reference=True, value_dtype=value_dtype)
        _assert_identical(fused, plain, "self-loops")
        fresh = _run(graph, "hashtable", arena=False, value_dtype=value_dtype)
        _assert_identical(fused, fresh, "self-loops, no arena")
        only = [392, 395, 399]
        assert fused.labels[only].tolist() == only


class TestCleanTables:
    """Round 1 writes before it reads only when the engine's tables are
    clean: no fault hook can have planted keys since the last clear."""

    @pytest.mark.parametrize("probing", list(ProbeStrategy), ids=lambda s: s.value)
    def test_write_first_waves_find_every_live_slot_empty(self, probing):
        real = engine_hashtable.parallel_accumulate
        waves = {"clean": 0, "read": 0}

        def spy(keys_buf, values_buf, base, p1, *args, clean=False, **kwargs):
            waves["clean" if clean else "read"] += 1
            if clean:
                live, _, _ = segment_index_arrays(base, p1)
                assert np.all(keys_buf[live] == EMPTY_KEY)
                assert not values_buf[live].any()
            return real(keys_buf, values_buf, base, p1, *args, clean=clean,
                        **kwargs)

        with mock.patch.object(engine_hashtable, "parallel_accumulate", spy):
            for name in datasets.dataset_names():
                graph = datasets.generate_standin(name, scale=0.05, seed=42)
                nu_lpa(graph, LPAConfig(probing=probing), engine="hashtable",
                       warn_on_no_convergence=False)
        assert waves["clean"] > 0 and waves["read"] == 0

    def test_key_planted_at_the_accumulate_point_is_read(self, small_web):
        # A hook may write into the wave's tables just before the
        # accumulate; round 1 must then read its slots, so the entry whose
        # home slot holds the planted key probes past it.
        graph = small_web
        planted_key = graph.num_vertices + 12345
        labels = np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
        planted = []

        def plant(ctx):
            if ctx.phase != "accumulate" or planted:
                return
            v = int(ctx.wave[0])
            first = int(labels[graph.targets[graph.offsets[v]]])
            slot = int(ctx.base[0]) + first % int(ctx.p1[0])
            ctx.keys[slot] = planted_key
            planted.append(slot)

        real = engine_hashtable.parallel_accumulate
        kept = []

        def spy(keys_buf, *args, clean=False, **kwargs):
            result = real(keys_buf, *args, clean=clean, **kwargs)
            if len(planted) > len(kept):
                kept.append((clean, int(keys_buf[planted[-1]])))
            return result

        engine = make_engine(graph, LPAConfig(), "hashtable")
        engine.fault_hook = plant
        with mock.patch.object(engine_hashtable, "parallel_accumulate", spy):
            engine.move(labels, Frontier(graph), pick_less=False, iteration=0)
        assert kept == [(False, planted_key)]


class TestCompactLayoutDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_labels_and_counters(self, small_web, engine):
        with engine_layouts() as layouts:
            compact = _run(small_web, engine, compact_layout=True)
            wide = _run(small_web, engine, compact_layout=False)
        # Each side really ran its layout: the stored graph is compact,
        # and the reference is a wide copy of it.
        assert layouts == [(np.int32, np.int32), (np.int64, np.int64)]
        _assert_identical(compact, wide, engine)
        # The public result is always wide, whatever ran internally.
        assert compact.labels.dtype == VERTEX_DTYPE
        assert wide.labels.dtype == VERTEX_DTYPE

    @pytest.mark.parametrize("engine", ENGINES)
    def test_full_matrix_corner(self, small_social, engine):
        # Production against the far corner: wide layout, literal
        # reduce, no arena.
        fast = _run(small_social, engine)
        with engine_layouts() as layouts:
            slow = _run(
                small_social, engine, reference=True, arena=False,
                compact_layout=False,
            )
        assert layouts == [(np.int64, np.int64)]
        _assert_identical(fast, slow, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_loops_compact_vs_wide(self, engine):
        graph = _loopy_graph()
        compact = _run(graph, engine, compact_layout=True)
        wide = _run(graph, engine, compact_layout=False)
        _assert_identical(compact, wide, engine)

    def test_initial_labels_outside_int32_fall_back_to_wide(self, triangle):
        big = np.full(3, 2**40, dtype=VERTEX_DTYPE)
        result = nu_lpa(
            triangle,
            LPAConfig(compact_layout=True),
            initial_labels=big,
            warn_on_no_convergence=False,
        )
        assert result.labels.dtype == VERTEX_DTYPE


class TestFusedSteadyStateAllocations:
    """The fused sweep must stay allocation-free at the fixed point."""

    _SLACK_BYTES = 16384

    def test_fused_hashtable_steady_state(self):
        graph = web_graph(1200, avg_degree=6, seed=3).with_compact_layout()
        config = LPAConfig(pruning=False)
        eng = make_engine(graph, config, "hashtable")
        frontier = Frontier(graph, enabled=False, arena=eng.arena)
        labels = np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
        for it in range(64):
            outcome = eng.move(
                labels, frontier, pick_less=config.pick_less_active(it),
                iteration=it,
            )
            if outcome.changed == 0:
                break
        else:
            pytest.fail("workload did not converge while warming the arena")

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
            f"fused steady-state iterations allocated {peak - before} bytes"
        )
