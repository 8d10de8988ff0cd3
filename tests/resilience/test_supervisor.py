"""Tests for the kernel supervisor and its degradation ladder."""

import numpy as np
import pytest

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import make_engine, nu_lpa
from repro.errors import ConfigurationError, ResilienceExhaustedError
from repro.graph.generators import rmat_graph, road_network, web_graph
from repro.resilience.checkpoint import CheckpointState
from repro.resilience.faults import FAULT_KINDS, FaultSpec

ENGINES = ["hashtable", "vectorized"]

#: Three structurally different generator families (satellite: the forced
#: overflow property must hold across graph shapes, not one lucky topology).
GRAPH_CASES = [
    pytest.param(lambda: web_graph(1200, avg_degree=6, seed=11), id="web"),
    pytest.param(lambda: rmat_graph(10, 8, seed=13), id="rmat"),
    pytest.param(lambda: road_network(18, 18, seed=17), id="road"),
]


def persistent(kind, seed=1, **kw):
    """A fault that fires on every attempt — drives the full ladder."""
    return ResilienceConfig(faults=FaultSpec(kinds=(kind,), rate=1.0, seed=seed, **kw))


def transient(kind, seed=1, fires=2):
    """A bounded fault — clears within the retry budget."""
    return ResilienceConfig(
        faults=FaultSpec(kinds=(kind,), rate=1.0, seed=seed, max_fires=fires)
    )


class TestEveryFaultClassSurvives:
    """No injected fault class may escape the supervisor as an exception."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_transient_fault_survived(self, small_web, engine, kind):
        r = nu_lpa(small_web, resilience=transient(kind), engine=engine)
        assert r.labels.min() >= 0
        assert r.labels.max() < small_web.num_vertices
        if kind == "oom":
            # An oom fire shrinks the modelled budget and the pressure
            # persists after the raise (docs/robustness.md), so the memory
            # rungs may legitimately end in the fallback. The contract is
            # absorbed-with-a-balanced-ledger, not never-degraded.
            assert r.memory is not None
            assert r.memory["in_use_bytes"] == 0
            assert r.memory["underflows"] == 0
        else:
            # transient faults clear within the retry budget: never degraded
            assert not r.degraded

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_persistent_fault_survived(self, small_web, engine, kind):
        r = nu_lpa(small_web, resilience=persistent(kind), engine=engine)
        assert r.labels.min() >= 0
        assert r.labels.max() < small_web.num_vertices
        # bitflip key flips may lose the reduce silently; sdc is silent by
        # construction (valid-range wrong values) — only the integrity
        # guard, not the supervisor, can see it (tests/integrity/test_sdc.py).
        if kind not in ("bitflip", "sdc"):
            assert r.fault_events


class TestDegradationLadder:
    def test_retry_then_regrow_then_fallback_order(self, small_web):
        r = nu_lpa(small_web, resilience=persistent("overflow"), engine="hashtable")
        assert r.degraded
        first_iter = [ev for ev in r.fault_events if ev.iteration == 0]
        actions = [ev.action for ev in first_iter]
        # default max_retries=2 -> attempts 0,1 retry; regrow; then fallback
        assert actions == ["retry", "retry", "regrow", "fallback"]

    def test_regrow_doubles_capacity(self, small_web):
        eng = make_engine(small_web, LPAConfig(), "hashtable")
        before = eng.tables.capacity_scale
        eng.grow_tables()
        assert eng.tables.capacity_scale == 2 * before
        assert eng.tables.keys.shape[0] == 2 * before * 2 * small_web.num_edges

    def test_transient_clears_before_ladder_bottom(self, small_web):
        r = nu_lpa(
            small_web, resilience=transient("cas-storm", fires=1), engine="hashtable"
        )
        assert [ev.action for ev in r.fault_events] == ["retry"]

    def test_fallback_disabled_aborts(self, small_web):
        res = ResilienceConfig(
            faults=FaultSpec(kinds=("timeout",), rate=1.0, seed=1),
            allow_fallback=False,
        )
        with pytest.raises(ResilienceExhaustedError) as ei:
            nu_lpa(small_web, resilience=res, engine="hashtable")
        report = ei.value.report
        assert report is not None
        assert report.aborted_at == 0
        assert report.events[-1].action == "abort"

    def test_no_retries_goes_straight_down(self, small_web):
        res = ResilienceConfig(
            faults=FaultSpec(kinds=("overflow",), rate=1.0, seed=1),
            max_retries=0,
        )
        r = nu_lpa(small_web, resilience=res, engine="hashtable")
        first_iter = [ev.action for ev in r.fault_events if ev.iteration == 0]
        assert first_iter == ["regrow", "fallback"]

    def test_unsupervised_run_has_no_events(self, small_web):
        r = nu_lpa(small_web)
        assert r.fault_events == []
        assert not r.degraded


class TestOverflowEqualsCleanRun:
    """The acceptance property: forced hashtable overflow must yield the
    same communities as an un-faulted vectorized run, because every
    degraded move re-executes from a restored snapshot on the hook-free
    fallback engine."""

    @pytest.mark.parametrize("make_graph", GRAPH_CASES)
    @pytest.mark.parametrize("fault_seed", [1, 2, 3])
    def test_forced_overflow_matches_unfaulted(self, make_graph, fault_seed):
        g = make_graph()
        clean = nu_lpa(g, engine="vectorized", warn_on_no_convergence=False)
        faulted = nu_lpa(
            g,
            engine="hashtable",
            resilience=persistent("overflow", seed=fault_seed),
            warn_on_no_convergence=False,
        )
        assert faulted.degraded
        assert np.array_equal(faulted.labels, clean.labels)
        assert faulted.converged == clean.converged


class TestInvariantEnforcement:
    def test_bitflip_never_leaks_bad_labels(self, small_web):
        r = nu_lpa(
            small_web,
            resilience=persistent("bitflip"),
            engine="hashtable",
        )
        assert r.labels.min() >= 0
        assert r.labels.max() < small_web.num_vertices

    def test_validation_can_be_disabled(self, small_web):
        res = ResilienceConfig(validate_invariants=False)
        r = nu_lpa(small_web, resilience=res, engine="vectorized")
        assert r.converged

    def test_resilience_config_validation(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(resume=True)  # resume requires checkpoint_dir

    def test_value_bitflip_caught_by_per_wave_finite_check(self, small_web):
        # The fused sweep re-clears each wave's tables before the move
        # returns, so the finite-value check must run inside the wave.
        clean = nu_lpa(small_web, engine="hashtable", warn_on_no_convergence=False)
        spec = FaultSpec(kinds=("bitflip",), targets=("values",), rate=0.5, seed=2)
        r = nu_lpa(
            small_web, engine="hashtable", warn_on_no_convergence=False,
            resilience=ResilienceConfig(faults=spec),
        )
        assert any("finite-values" in e.detail for e in r.fault_events)
        assert np.array_equal(r.labels, clean.labels)

    def test_wave_hook_attached_only_when_needed(self, small_web):
        from repro.resilience.supervisor import KernelSupervisor

        def hook(engine, **res):
            eng = make_engine(small_web, LPAConfig(), engine)
            KernelSupervisor(eng, small_web, LPAConfig(), ResilienceConfig(**res))
            return eng.fault_hook

        assert hook("hashtable") is not None
        assert hook("hashtable", deep_checks=False) is None
        assert hook("vectorized") is None
        assert hook("vectorized", faults=FaultSpec()) is not None


def _state(**fields) -> CheckpointState:
    empty = np.empty(0, dtype=np.int64)
    return CheckpointState(labels=empty, flags=empty, iteration=0, digest="", **fields)


class TestRestoreState:
    def test_tables_follow_the_checkpoint_capacity_scale(self, small_web):
        from repro.resilience.supervisor import KernelSupervisor

        eng = make_engine(small_web, LPAConfig(), "hashtable")
        sup = KernelSupervisor(eng, small_web, LPAConfig(), ResilienceConfig())
        sup.restore_state(_state(capacity_scale=4))
        assert eng.tables.capacity_scale == 4 == sup.capacity_scale
        assert sup.checkpoint_fields()["capacity_scale"] == 4
        sup.restore_state(_state(capacity_scale=1))
        assert eng.tables.capacity_scale == 1
