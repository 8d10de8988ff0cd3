"""Differential suite for the fused-sweep / compact-layout hot paths.

None of the performance levers may change *what* is computed:

* the hashtable engine's one production sweep fuses clear → insert →
  max-key (tables start clean, the entries' slots are scrubbed after the
  max) and settles adds and atomic counters per entry — labels,
  per-iteration stats, and every kernel counter must match a run whose
  accumulate is :func:`tests.reference_sweep.literal_accumulate` and
  whose reduce is the literal per-table loop of
  :func:`tests.reference_sweep.literal_max_key` plus a full clear;
* ``compact_layout`` shrinks offsets/targets/labels to 32 bits when the
  graph fits — same values, half the bytes;
* ``persistent_kernel`` only re-prices launches in the cost model — the
  partition itself must be untouched;
* ``degree_renumber`` is the one *documented* exception: labels are a
  renaming of the input ids, so it is tested for validity and
  determinism, not bitwise equality.

These tests pin that contract across both engines, every probing
strategy, and arena on/off, and extend the steady-state ``tracemalloc``
proof to the fused hashtable path.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

from repro.core.config import LPAConfig
from repro.core.lpa import make_engine, nu_lpa
from repro.core.pruning import Frontier
from repro.errors import ConfigurationError
from repro.graph.generators import rmat_graph, watts_strogatz, web_graph
from repro.hashing.probing import ProbeStrategy
from repro.types import VERTEX_DTYPE
from tests.reference_sweep import no_arena, reference_reduce

ENGINES = ["vectorized", "hashtable"]


def _run(graph, engine, *, reference=False, arena=True, **config_kwargs):
    """One run; ``reference`` swaps in the literal accumulate and reduce,
    ``arena=False`` builds the engines without a workspace arena."""
    with contextlib.ExitStack() as stack:
        if reference:
            stack.enter_context(reference_reduce())
        if not arena:
            stack.enter_context(no_arena())
        return nu_lpa(
            graph,
            LPAConfig(**config_kwargs),
            engine=engine,
            warn_on_no_convergence=False,
        )


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


class TestCompactLayoutDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_labels_and_counters(self, small_web, engine):
        compact = _run(small_web, engine, compact_layout=True)
        wide = _run(small_web, engine, compact_layout=False)
        _assert_identical(compact, wide, engine)
        # The public result is always wide, whatever ran internally.
        assert compact.labels.dtype == VERTEX_DTYPE
        assert wide.labels.dtype == VERTEX_DTYPE

    @pytest.mark.parametrize("engine", ENGINES)
    def test_full_matrix_corner(self, small_social, engine):
        # Production against the far corner: wide layout, literal
        # reduce, no arena.
        fast = _run(small_social, engine)
        slow = _run(
            small_social, engine, reference=True, arena=False,
            compact_layout=False,
        )
        _assert_identical(fast, slow, engine)

    def test_initial_labels_outside_int32_fall_back_to_wide(self, triangle):
        big = np.full(3, 2**40, dtype=VERTEX_DTYPE)
        result = nu_lpa(
            triangle,
            LPAConfig(compact_layout=True),
            initial_labels=big,
            warn_on_no_convergence=False,
        )
        assert result.labels.dtype == VERTEX_DTYPE


class TestPersistentKernelDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_labels_identical_launches_amortised(self, small_web, engine):
        on = _run(small_web, engine, persistent_kernel=True)
        off = _run(small_web, engine, persistent_kernel=False)
        assert np.array_equal(on.labels, off.labels)
        on_c = on.total_counters
        off_c = off.total_counters
        # Same work, fewer launches: only the first launch per kind counts.
        assert on_c.waves == off_c.waves
        assert on_c.sectors_read == off_c.sectors_read
        assert on_c.launches < off_c.launches

        from repro.perf.model import estimate_gpu_seconds

        assert estimate_gpu_seconds(on_c) < estimate_gpu_seconds(off_c)


class TestDegreeRenumber:
    def test_valid_partition_and_determinism(self, small_web):
        a = _run(small_web, "hashtable", degree_renumber=True)
        b = _run(small_web, "hashtable", degree_renumber=True)
        assert np.array_equal(a.labels, b.labels)
        assert a.labels.dtype == VERTEX_DTYPE
        assert a.labels.min() >= 0
        assert a.labels.max() < small_web.num_vertices
        # The renaming must preserve community quality, not just validity.
        from repro.metrics.modularity import modularity

        base = _run(small_web, "hashtable")
        q_renum = modularity(small_web, a.labels)
        q_base = modularity(small_web, base.labels)
        assert q_renum > 0.5 * q_base > 0

    def test_rejects_initial_labels(self, small_web):
        with pytest.raises(ConfigurationError):
            nu_lpa(
                small_web,
                LPAConfig(degree_renumber=True),
                initial_labels=np.zeros(small_web.num_vertices, VERTEX_DTYPE),
            )

    def test_initial_active_is_remapped(self, small_web):
        active = np.zeros(small_web.num_vertices, dtype=bool)
        active[: small_web.num_vertices // 4] = True
        result = nu_lpa(
            small_web,
            LPAConfig(degree_renumber=True),
            initial_active=active,
            warn_on_no_convergence=False,
        )
        assert result.labels.shape[0] == small_web.num_vertices


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
