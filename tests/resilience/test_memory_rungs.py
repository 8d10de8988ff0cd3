"""Ledger balance across the memory rungs: shrink, regrow, fallback.

Regression tests for the governor's two accounting invariants: a regrow
(or shrink) moves the hashtable charge release-before-reserve, so the
ledger never holds ``old + new`` at once; and the fallback rung releases
every region the supervised engine owned, so an absorbed OOM storm ends
with a balanced ledger (``in_use == 0``, ``underflows == 0``).
"""

import numpy as np
import pytest

import repro.core.lpa as lpa_mod
from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.engine_hashtable import HashtableEngine
from repro.core.lpa import nu_lpa
from repro.errors import DeviceOomError
from repro.gpu.governor import MemoryGovernor, footprint_for
from repro.graph.datasets import generate_standin
from repro.perf.workspace import WorkspaceArena
from repro.resilience.faults import FaultSpec


@pytest.fixture(scope="module")
def graph():
    return generate_standin("asia_osm", scale=0.05, seed=11)


def _engine_with_governor(graph, budget_bytes):
    """Wire an engine to a governor the way the driver does."""
    eng = HashtableEngine(graph, LPAConfig())
    gov = MemoryGovernor(budget_bytes=budget_bytes)
    gov.reserve("hashtable", eng.tables.memory_bytes())
    eng.governor = gov
    if eng.arena is not None:
        eng.arena.governor = gov
    return eng, gov


class TestRegrowLedgerBalance:
    def test_regrow_reports_freed_and_claimed(self, graph):
        eng, gov = _engine_with_governor(graph, budget_bytes=1 << 30)
        baseline = eng.tables.memory_bytes()
        eng.grow_tables()
        receipt = eng.last_regrow
        assert receipt["scale"] == 2
        assert receipt["freed_bytes"] == baseline
        assert receipt["claimed_bytes"] == eng.tables.memory_bytes()
        assert receipt["claimed_bytes"] > receipt["freed_bytes"]
        # The ledger carries exactly the new region ...
        assert gov.region_bytes("hashtable") == receipt["claimed_bytes"]
        # ... and never held old + new at once (release-before-reserve).
        assert gov.region_high_water("hashtable") == receipt["claimed_bytes"]
        assert gov.underflows == 0

    def test_shrink_reverses_the_charge(self, graph):
        eng, gov = _engine_with_governor(graph, budget_bytes=1 << 30)
        eng.grow_tables()
        grown = eng.last_regrow["claimed_bytes"]
        eng.shrink_tables()
        receipt = eng.last_regrow
        assert receipt["scale"] == 1
        assert receipt["freed_bytes"] == grown
        assert gov.region_bytes("hashtable") == receipt["claimed_bytes"]
        # Scale 1 is the floor: shrinking again is a no-op.
        assert eng.shrink_tables() == 1
        assert gov.underflows == 0

    def test_failed_regrow_restores_the_old_layout(self, graph):
        eng = HashtableEngine(graph, LPAConfig())
        baseline = eng.tables.memory_bytes()
        # Budget fits the baseline tables plus a sliver — not the doubled
        # layout the regrow wants.
        gov = MemoryGovernor(budget_bytes=int(baseline * 1.5))
        gov.reserve("hashtable", baseline)
        eng.governor = gov
        with pytest.raises(DeviceOomError):
            eng.grow_tables()
        # The old layout is back and re-charged; the engine stays usable.
        assert eng.tables.capacity_scale == 1
        assert eng.tables.memory_bytes() == baseline
        assert gov.region_bytes("hashtable") == baseline
        assert gov.ooms == 1
        assert gov.underflows == 0

    def test_release_memory_is_idempotent(self, graph):
        eng, gov = _engine_with_governor(graph, budget_bytes=1 << 30)
        released = eng.release_memory()
        assert released > 0
        assert gov.region_bytes("hashtable") == 0
        assert eng.release_memory() == 0
        assert gov.underflows == 0


class TestArenaAccounting:
    """Grow-only slots charge the ledger once, at high-water."""

    def test_repeat_takes_charge_once(self):
        gov = MemoryGovernor(budget_bytes=1 << 20)
        arena = WorkspaceArena(governor=gov)
        arena.take("slot", 100, np.int64)
        first = gov.region_bytes("arena")
        assert first >= 800
        reserves = gov.reserves
        # Same-or-smaller takes are steady-state: no new reservation.
        arena.take("slot", 100, np.int64)
        arena.take("slot", 40, np.int64)
        assert gov.reserves == reserves
        assert gov.region_bytes("arena") == first

    def test_growth_charges_only_the_delta(self):
        gov = MemoryGovernor(budget_bytes=1 << 20)
        arena = WorkspaceArena(governor=gov)
        arena.take("slot", 100, np.int64)
        small = gov.region_bytes("arena")
        arena.take("slot", 1000, np.int64)
        grown = gov.region_bytes("arena")
        assert grown == arena.charged_bytes
        # High-water equals the standing charge: the ledger never held
        # the retired backing array and its replacement together beyond
        # the grow-only high-water mark.
        assert gov.region_high_water("arena") == grown
        assert small < grown

    def test_release_charges_balances(self):
        gov = MemoryGovernor(budget_bytes=1 << 20)
        arena = WorkspaceArena(governor=gov)
        arena.take("a", 64, np.int64)
        arena.take("b", 64, np.float32)
        charged = arena.charged_bytes
        assert arena.release_charges() == charged
        assert gov.region_bytes("arena") == 0
        assert arena.charged_bytes == 0
        assert gov.underflows == 0

    @pytest.mark.parametrize("engine", ["hashtable", "vectorized"])
    @pytest.mark.parametrize("compact", [True, False])
    def test_run_charges_arena_once_at_high_water(self, graph, engine,
                                                  compact):
        from repro.observe.trace import MemoryEvent, Tracer

        config = LPAConfig(max_iterations=10, compact_layout=compact)
        est = footprint_for(graph, config, engine=engine)
        tracer = Tracer()
        result = nu_lpa(
            graph, config.with_(memory_budget_bytes=4 * est["total"]),
            engine=engine, warn_on_no_convergence=False, tracer=tracer,
        )
        stats = result.memory
        arena_hw = stats["region_high_water"]["arena"]
        assert arena_hw > 0
        assert stats["regions"]["arena"] == 0
        events = [ev for ev in tracer.events
                  if isinstance(ev, MemoryEvent) and ev.region == "arena"]
        reserved = sum(ev.nbytes for ev in events if ev.action == "reserve")
        released = sum(ev.nbytes for ev in events if ev.action == "release")
        # Grow-only: the reserve deltas sum to exactly the high-water
        # mark (each slot charged once per growth, never per take), and
        # one balancing release returns all of it at run end.
        assert reserved == arena_hw
        assert released == arena_hw
        assert stats["underflows"] == 0


class TestLadderEndToEnd:
    """retry → shrink → regrow → fallback, with the ledger balanced."""

    def test_oom_storm_absorbed_with_balanced_ledger(self, graph):
        config = LPAConfig(max_iterations=12)
        est = footprint_for(graph, config, engine="hashtable")
        reference = nu_lpa(graph, config, engine="hashtable",
                           warn_on_no_convergence=False)
        result = nu_lpa(
            graph,
            config.with_(memory_budget_bytes=int(est["total"] * 1.5)),
            engine="hashtable",
            warn_on_no_convergence=False,
            resilience=ResilienceConfig(
                faults=FaultSpec(kinds=("oom",), rate=1.0, seed=5,
                                 max_fires=2),
                max_retries=4,
            ),
        )
        stats = result.memory
        assert stats["ooms"] >= 2          # injected fires surfaced
        assert stats["shrinks"] >= 1       # the budget was attacked
        assert stats["in_use_bytes"] == 0  # every region released
        assert stats["underflows"] == 0    # no over-release anywhere
        # Labels stayed structurally valid whatever rung served them.
        labels = np.asarray(result.labels)
        assert labels.shape == (graph.num_vertices,)
        assert labels.min() >= 0 and labels.max() < graph.num_vertices
        assert reference.labels.shape == labels.shape

    def test_fallback_releases_supervised_regions(self, graph):
        # A budget below the hashtable footprint forces the ladder all
        # the way down: shrink cannot free enough (scale floor 1), so
        # the fallback rung must release the engine's regions and absorb
        # the move unmetered.
        config = LPAConfig(max_iterations=8)
        est = footprint_for(graph, config, engine="hashtable")
        result = nu_lpa(
            graph,
            config.with_(memory_budget_bytes=int(est["total"] * 2)),
            engine="hashtable",
            warn_on_no_convergence=False,
            resilience=ResilienceConfig(
                faults=FaultSpec(kinds=("oom",), rate=1.0, seed=9),
                max_retries=1,
            ),
        )
        stats = result.memory
        rungs = [ev.action for ev in result.fault_events]
        assert "fallback" in rungs
        assert result.degraded
        assert stats["in_use_bytes"] == 0
        assert stats["underflows"] == 0
        # The fallback path is a clean vectorized run: bit-identical to
        # an unconstrained vectorized reference.
        clean = nu_lpa(graph, config, engine="vectorized",
                       warn_on_no_convergence=False)
        assert np.array_equal(result.labels, clean.labels)


class _RefusesCheckpointStaging(MemoryGovernor):
    """A ledger that admits everything except checkpoint staging."""

    def reserve(self, region, nbytes):
        if region == "checkpoint":
            raise self.oom(region, nbytes)
        return super().reserve(region, nbytes)


class TestCheckpointStaging:
    """A refused staging reservation skips the save, never the run."""

    def _run(self, graph, ckpt_dir):
        return nu_lpa(
            graph,
            LPAConfig(max_iterations=8, memory_budget_bytes=10**9),
            engine="hashtable",
            warn_on_no_convergence=False,
            resilience=ResilienceConfig(checkpoint_dir=ckpt_dir),
        )

    def test_refused_staging_skips_every_save(self, graph, tmp_path, monkeypatch):
        # Sanity: with staging admitted, every boundary writes a snapshot.
        admitted = self._run(graph, tmp_path / "admitted")
        assert len(list((tmp_path / "admitted").glob("ckpt-*.ckpt"))) == (
            admitted.num_iterations
        )
        assert admitted.memory["in_use_bytes"] == 0

        monkeypatch.setattr(lpa_mod, "MemoryGovernor", _RefusesCheckpointStaging)
        result = self._run(graph, tmp_path / "refused")
        skips = [ev for ev in result.fault_events if ev.action == "checkpoint-skip"]
        assert [ev.iteration for ev in skips] == list(range(result.num_iterations))
        assert all(ev.fault == "DeviceOomError" for ev in skips)
        assert all("checkpoint staging skipped" in ev.detail for ev in skips)
        assert not list((tmp_path / "refused").glob("ckpt-*.ckpt"))
        assert result.memory["in_use_bytes"] == 0
        assert result.memory["underflows"] == 0
        assert result.memory["ooms"] == len(skips)

        ungoverned = nu_lpa(graph, LPAConfig(max_iterations=8), engine="hashtable",
                            warn_on_no_convergence=False)
        assert np.array_equal(result.labels, ungoverned.labels)
