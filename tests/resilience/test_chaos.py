"""Tests for the chaos soak harness: crash injection and differential resume."""

import numpy as np
import pytest

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.errors import ReproError
from repro.graph.generators import web_graph
from repro.resilience.chaos import (
    CRASH_MODES,
    ChaosSchedule,
    CrashingCheckpointManager,
    CrashPoint,
    InjectedCrash,
    corrupt_checkpoint,
    make_schedule,
    run_chaos_soak,
)
from repro.resilience.checkpoint import CheckpointManager


@pytest.fixture
def graph():
    return web_graph(250, seed=9)


class TestCrashInjection:
    def test_injected_crash_is_not_a_repro_error(self):
        # nothing in the library may catch it, like a real SIGKILL
        assert not issubclass(InjectedCrash, ReproError)

    @pytest.mark.parametrize("mode", CRASH_MODES)
    def test_crash_modes(self, tmp_path, graph, mode):
        crash = CrashPoint(iteration=2, mode=mode)
        with pytest.raises(InjectedCrash):
            nu_lpa(
                graph, LPAConfig(max_iterations=10),
                warn_on_no_convergence=False,
                resilience=ResilienceConfig(
                    checkpoint_dir=tmp_path,
                    checkpoint_factory=CrashingCheckpointManager.factory(crash),
                ),
            )
        durable = sorted(p.name for p in tmp_path.glob("ckpt-*.ckpt"))
        torn = list(tmp_path.glob(".tmp-*"))
        if mode == "after-write":
            assert "ckpt-000002.ckpt" in durable
        else:
            assert "ckpt-000002.ckpt" not in durable
        if mode == "mid-write":
            assert torn  # the torn partial temp file is left behind
        # whatever survived must be loadable and resumable
        resumed = nu_lpa(
            graph, warn_on_no_convergence=False,
            resilience=ResilienceConfig(checkpoint_dir=tmp_path, resume=True),
        )
        baseline = nu_lpa(graph, warn_on_no_convergence=False)
        assert np.array_equal(resumed.labels, baseline.labels)

    def test_no_crash_without_matching_iteration(self, tmp_path, graph):
        crash = CrashPoint(iteration=999)
        result = nu_lpa(
            graph, warn_on_no_convergence=False,
            resilience=ResilienceConfig(
                checkpoint_dir=tmp_path,
                checkpoint_factory=CrashingCheckpointManager.factory(crash),
            ),
        )
        assert result.converged

    def test_corrupt_checkpoint_breaks_load(self, tmp_path, graph):
        nu_lpa(
            graph, LPAConfig(max_iterations=2), warn_on_no_convergence=False,
            resilience=ResilienceConfig(checkpoint_dir=tmp_path),
        )
        newest = sorted(tmp_path.glob("ckpt-*.ckpt"))[-1]
        how = corrupt_checkpoint(newest, np.random.default_rng(0))
        assert how in ("truncated", "bit-flipped")
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            CheckpointManager.load(newest)


class TestSchedules:
    def test_deterministic_derivation(self):
        assert make_schedule(7) == make_schedule(7)
        assert make_schedule(7) != make_schedule(8)

    def test_schedule_fields_in_range(self):
        for seed in range(30):
            s = make_schedule(seed)
            assert 1 <= s.crash.iteration <= 4
            assert s.crash.mode in CRASH_MODES
            assert 0.2 <= s.fault_rate <= 1.0
            assert s.fault_kinds
            s.fault_spec()  # must be a valid FaultSpec

    def test_as_dict_json_ready(self):
        import json
        from dataclasses import asdict

        json.dumps(asdict(make_schedule(3)))


class TestSoak:
    def test_soak_resumes_bit_identical(self, tmp_path, graph):
        report = run_chaos_soak(
            graph, tmp_path, schedules=4, seed=0,
            config=LPAConfig(max_iterations=12),
        )
        assert len(report.records) == 4
        assert report.ok, report.summary()
        assert any(r.crash_fired for r in report.records)

    def test_report_serializes(self, tmp_path, graph):
        import json

        report = run_chaos_soak(
            graph, tmp_path, schedules=2, seed=5,
            config=LPAConfig(max_iterations=10),
        )
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["ok"] is True
        assert len(doc["records"]) == 2


class TestRegrowResume:
    def test_schedule_56_resumes_at_the_regrown_capacity(self, tmp_path):
        # The soak's own graph at scale 0.1, seed 42.  Schedule 56 takes
        # the regrow rung in iteration 0, so the reference run's tables
        # sit at capacity_scale 2; the resumed run must continue there
        # too, or slot order breaks max-reduce ties differently.
        graph = web_graph(480, seed=42)
        report = run_chaos_soak(
            graph, tmp_path, schedules=1, seed=56,
            config=LPAConfig(max_iterations=15),
        )
        (record,) = report.records
        assert record.crash_fired
        assert record.identical, report.summary()
