"""DetectionService lifecycle: ladder, deadlines, journal, recovery, stats."""

import json

import numpy as np
import pytest

from repro import nu_lpa
from repro.errors import (
    ConfigurationError,
    DuplicateJobError,
    JobNotFoundError,
    JournalVersionError,
)
from repro.graph.datasets import generate_standin
from repro.observe.schema import validate_service_stats
from repro.observe.trace import Tracer
from repro.resilience.faults import FaultSpec
from repro.service import (
    DetectionService,
    GraphRef,
    JobSpec,
    JobState,
    ServiceConfig,
    ServiceJournal,
)


def _spec(job_id, **kwargs):
    kwargs.setdefault("scale", 0.05)
    kwargs.setdefault("max_iterations", 12)
    scale = kwargs.pop("scale")
    return JobSpec.dataset(job_id, "asia_osm", scale=scale, **kwargs)


class TestLifecycle:
    def test_submit_drain_result(self):
        service = DetectionService(ServiceConfig(workers=2))
        service.submit(_spec("a"))
        service.submit(_spec("b"))
        assert service.drain() == 2
        for job_id in ("a", "b"):
            record = service.result(job_id)
            assert record.state is JobState.COMPLETED
            assert record.outcome.rung == "full"
            assert record.outcome.labels is not None

    def test_step_runs_one_job_in_submission_order(self):
        service = DetectionService(ServiceConfig(workers=8))
        for job_id in ("a", "b", "c"):
            service.submit(_spec(job_id))
        for job_id in ("a", "b", "c"):
            record = service.step()
            assert record.job_id == job_id
            assert record.state is JobState.COMPLETED
            assert sum(
                r.state is JobState.COMPLETED for r in service.jobs.values()
            ) == "abc".index(job_id) + 1
        assert service.step() is None

    def test_results_match_direct_nu_lpa(self):
        """The service adds orchestration, never different answers."""
        from repro import LPAConfig

        service = DetectionService(ServiceConfig(workers=1))
        service.submit(_spec("a", max_iterations=20))
        service.drain()
        graph = generate_standin("asia_osm", scale=0.05, seed=42)
        direct = nu_lpa(graph, LPAConfig(max_iterations=20),
                        warn_on_no_convergence=False)
        assert np.array_equal(service.result("a").outcome.labels, direct.labels)

    def test_duplicate_job_id_rejected(self):
        service = DetectionService()
        service.submit(_spec("a"))
        with pytest.raises(DuplicateJobError):
            service.submit(_spec("a"))

    def test_unknown_job_raises(self):
        with pytest.raises(JobNotFoundError):
            DetectionService().result("nope")

    def test_memory_graph_jobs_run(self):
        graph = generate_standin("asia_osm", scale=0.05, seed=1)
        service = DetectionService()
        service.submit_graph(graph, "mem", max_iterations=10)
        service.drain()
        assert service.result("mem").state is JobState.COMPLETED

    def test_job_events_traced(self):
        tracer = Tracer()
        service = DetectionService(ServiceConfig(workers=1), tracer=tracer)
        service.submit(_spec("a"))
        service.drain()
        states = [e.state for e in tracer.of_kind("job")]
        assert states[0] == "admitted"
        assert "started" in states
        assert states[-1] in ("completed", "degraded")


class TestDeadlinePropagation:
    def test_remaining_budget_shrinks_with_spend(self):
        record = DetectionService()  # noqa: F841  (constructor sanity)
        spec = _spec("a", deadline_s=10.0)
        from repro.service.job import JobRecord

        r = JobRecord(spec=spec)
        r.wall_spent_s = 4.0
        budget = r.remaining_budget()
        assert budget.wall_seconds == pytest.approx(6.0)
        r.wall_spent_s = 11.0
        assert r.remaining_budget().exhausted

    def test_exhausted_deadline_degrades_to_checkpoint_labels(self, tmp_path):
        """A job whose deadline is spent before any full attempt still
        returns its best-so-far checkpoint labels when the journal holds
        some, or fails cleanly when it does not — never hangs or retries."""
        service = DetectionService(ServiceConfig(
            workers=1, journal_dir=tmp_path / "j",
        ))
        # Seed the journal with a checkpoint by running the job once.
        service.submit(_spec("a", max_iterations=8))
        service.drain()
        assert service.result("a").state is JobState.COMPLETED

        # Same spec, new id, deadline already burned: patch the record's
        # spent wall time right after admission.
        spec = _spec("b", deadline_s=5.0, max_iterations=8)
        service.submit(spec)
        service.jobs["b"].wall_spent_s = 10.0  # deadline fully spent
        service.drain()
        record = service.result("b")
        # No checkpoints for *this* job exist, so the ladder bottoms out.
        assert record.state is JobState.FAILED
        assert record.attempts == 0  # no attempt was launched

    def test_generous_deadline_runs_normally(self):
        service = DetectionService(ServiceConfig(workers=1))
        service.submit(_spec("a", deadline_s=60.0))
        service.drain()
        record = service.result("a")
        assert record.state is JobState.COMPLETED
        assert record.outcome.rung == "full"
        assert record.wall_spent_s < 60.0


class TestDegradationLadder:
    def test_persistent_engine_failure_falls_back_to_other_engine(self):
        """allow_fallback=False turns injected overflows into run-fatal
        errors; retries exhaust and the ladder answers from the alternate
        engine."""
        from repro.core.config import ResilienceConfig

        service = DetectionService(ServiceConfig(
            workers=1,
            max_attempts=2,
            breaker_enabled=False,
            resilience=ResilienceConfig(
                max_retries=0, allow_regrow=False, allow_fallback=False,
            ),
            engine_faults={
                "hashtable": FaultSpec(kinds=("overflow",), rate=1.0, seed=3),
            },
        ))
        service.submit(_spec("a", engine="hashtable", max_iterations=6))
        service.drain()
        record = service.result("a")
        assert record.state is JobState.COMPLETED
        assert record.outcome.rung == "fallback-engine"
        assert record.attempts == 2
        assert len(record.backoffs) >= 1
        assert record.outcome.labels is not None

    def test_coarsened_rung_projects_labels_to_all_vertices(self):
        """Force rungs 1-2 to fail: the coarsened approximation still
        yields one label per original vertex."""
        service = DetectionService(ServiceConfig(
            workers=1,
            max_attempts=1,
            breaker_enabled=False,
            coarsen_target_fraction=0.25,
        ))
        spec = _spec("a", max_iterations=8)
        service.submit(spec)

        from repro.errors import TransientKernelError
        from repro.service.service import DetectionService as DS

        original = DS._attempt

        def failing_attempt(self, record, graph, engine, **kwargs):
            record.last_error = TransientKernelError("forced for the test")
            return None

        try:
            DS._attempt = failing_attempt
            service.drain()
        finally:
            DS._attempt = original

        record = service.result("a")
        assert record.state is JobState.COMPLETED
        assert record.outcome.rung == "coarsened"
        assert record.outcome.degraded_reason == "coarsened-approximation"
        graph = generate_standin("asia_osm", scale=0.05, seed=42)
        assert record.outcome.labels.shape == (graph.num_vertices,)

    def test_everything_failing_fails_the_job_with_reason(self):
        service = DetectionService(ServiceConfig(
            workers=1, max_attempts=1, breaker_enabled=False,
        ))
        service.submit(_spec("a"))

        from repro.errors import TransientKernelError
        from repro.service.service import DetectionService as DS

        def failing_attempt(self, record, graph, engine, **kwargs):
            record.last_error = TransientKernelError("forced")
            return None

        originals = (DS._attempt, DS._coarsened_rung)
        try:
            DS._attempt = failing_attempt
            DS._coarsened_rung = lambda self, record, graph: None
            service.drain()
        finally:
            DS._attempt, DS._coarsened_rung = originals

        record = service.result("a")
        assert record.state is JobState.FAILED
        assert "rung" in record.outcome.error


class TestJournalRecovery:
    def test_completed_jobs_recover_with_crc_verified_labels(self, tmp_path):
        config = ServiceConfig(workers=2, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        first.submit(_spec("a"))
        first.submit(_spec("b"))
        first.drain()
        labels_a = first.result("a").outcome.labels.copy()

        second = DetectionService(config)
        record = second.result("a")
        assert record.state is JobState.COMPLETED
        assert record.recovered
        assert np.array_equal(record.outcome.labels, labels_a)
        # Nothing left to run: recovery did not duplicate the jobs.
        assert second.drain() == 0

    def test_pending_jobs_resume_after_restart(self, tmp_path):
        config = ServiceConfig(workers=1, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        first.submit(_spec("a"))
        first.submit(_spec("b"))
        # Simulate a crash before any job ran: just drop the instance.

        second = DetectionService(config)
        assert second.counters["recovered"] == 2
        assert second.drain() == 2
        for job_id in ("a", "b"):
            assert second.result(job_id).state is JobState.COMPLETED

    def test_memory_graph_jobs_fail_cleanly_on_recovery(self, tmp_path):
        config = ServiceConfig(workers=1, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        graph = generate_standin("asia_osm", scale=0.05, seed=1)
        first.submit_graph(graph, "mem")
        # Crash before running.

        second = DetectionService(config)
        record = second.result("mem")
        assert record.state is JobState.FAILED
        assert "in-memory graph" in record.outcome.error

    def test_tampered_labels_force_deterministic_rerun(self, tmp_path):
        config = ServiceConfig(workers=1, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        first.submit(_spec("a"))
        first.drain()
        labels = first.result("a").outcome.labels.copy()

        journal = ServiceJournal(tmp_path / "j")
        journal._write_labels("a", labels + 1)  # intact, but not the answer

        second = DetectionService(config)
        assert second.result("a").state is JobState.PENDING  # CRC mismatch
        second.drain()
        record = second.result("a")
        assert record.state is JobState.COMPLETED
        assert np.array_equal(record.outcome.labels, labels)

    def test_labels_reader_bug_propagates(self, tmp_path, monkeypatch):
        """Only the container's typed error means "labels unreadable": any
        other exception from the reader propagates instead of demoting a
        completed job to pending."""
        import repro.container

        config = ServiceConfig(workers=1, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        first.submit(_spec("a"))
        first.drain()

        def broken(*args, **kwargs):
            raise TypeError("reader bug")

        monkeypatch.setattr(repro.container, "read", broken)
        with pytest.raises(TypeError, match="reader bug"):
            DetectionService(config)

    def test_missing_labels_file_demotes_to_pending(self, tmp_path):
        config = ServiceConfig(workers=1, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        first.submit(_spec("a"))
        first.drain()
        first.journal.labels_path("a").unlink()

        second = DetectionService(config)
        assert second.result("a").state is JobState.PENDING

    def test_unreadable_journal_record_skipped_not_fatal(self, tmp_path):
        config = ServiceConfig(workers=1, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        first.submit(_spec("a"))
        first.drain()
        # A torn record for some other job.
        (tmp_path / "j" / "jobs" / "torn.json").write_text("{not json")

        second = DetectionService(config)
        assert second.result("a").state is JobState.COMPLETED


    @pytest.mark.parametrize("old", [1, 2])
    def test_earlier_journal_version_is_refused_at_start(self, tmp_path, old):
        config = ServiceConfig(workers=1, journal_dir=tmp_path / "j")
        first = DetectionService(config)
        first.submit(_spec("a"))
        path = first.journal.job_path("a")
        doc = json.loads(path.read_text())
        doc["version"] = old
        path.write_text(json.dumps(doc, indent=2))

        with pytest.raises(JournalVersionError) as info:
            DetectionService(config)
        assert info.value.found == old and info.value.expected == 3
        assert f"version {old}" in str(info.value)
        assert "version 3" in str(info.value)

    def test_claimed_job_killed_mid_run_resumes_from_checkpoints(self, tmp_path):
        from repro.resilience.chaos import (
            CrashingCheckpointManager,
            CrashPoint,
            InjectedCrash,
        )
        from repro.resilience.checkpoint import CheckpointManager

        reference = DetectionService(ServiceConfig(workers=1))
        reference.submit(_spec("a"))
        reference.drain()
        expected = reference.result("a").outcome.labels

        config = ServiceConfig(
            workers=1, journal_dir=tmp_path / "j",
            checkpoint_factory=CrashingCheckpointManager.factory(
                CrashPoint(iteration=2, mode="after-write")
            ),
        )
        first = DetectionService(config)
        first.submit(_spec("a"))
        with pytest.raises(InjectedCrash):
            first.drain()
        # Claimed and half-run, yet the journal says pending: the claim
        # is not a transition recovery reads.
        on_disk = json.loads(first.journal.job_path("a").read_text())
        assert on_disk["state"] == "pending"

        saved = []

        class Recording(CheckpointManager):
            def save(self, state):
                saved.append(state.iteration)
                return super().save(state)

        second = DetectionService(
            config.with_(checkpoint_factory=Recording)
        )
        assert second.counters["recovered"] == 1
        second.drain()
        record = second.result("a")
        assert record.state is JobState.COMPLETED
        assert np.array_equal(record.outcome.labels, expected)
        assert saved and min(saved) > 2  # resumed after iteration 2


class TestStats:
    def test_stats_pass_schema_validation(self, tmp_path):
        service = DetectionService(ServiceConfig(
            workers=2, journal_dir=tmp_path / "j", tenant_inflight=4,
        ))
        for i in range(3):
            service.submit(_spec(f"j{i}", tenant=f"t{i % 2}"))
        service.drain()
        doc = service.stats()
        assert validate_service_stats(doc) is doc
        assert doc["jobs"]["completed"] == 3
        assert doc["latency"]["count"] == 3
        assert doc["latency"]["p95_modeled_s"] >= doc["latency"]["p50_modeled_s"]

    def test_snapshot_emits_stats_event(self):
        tracer = Tracer()
        service = DetectionService(ServiceConfig(workers=1), tracer=tracer)
        service.submit(_spec("a"))
        service.drain()
        service.snapshot()
        events = tracer.of_kind("service_stats")
        assert len(events) == 1
        assert events[0].completed == 1
        assert set(events[0].breaker_states) == {
            "vectorized:closed", "hashtable:closed",
        }

    def test_modelled_clock_advances_with_work(self):
        service = DetectionService(ServiceConfig(workers=1))
        assert service.clock_s == 0.0
        service.submit(_spec("a"))
        service.drain()
        assert service.clock_s > 0.0
        record = service.result("a")
        assert record.finished_clock_s >= record.admitted_clock_s


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(coarsen_target_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(engine_faults={"gpu9000": FaultSpec()})

    def test_bad_graph_ref_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphRef(kind="quantum")
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="", graph=GraphRef(kind="dataset", name="x"))
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="a", graph=GraphRef(kind="dataset", name="x"),
                    engine="cpu")
        with pytest.raises(ConfigurationError):
            JobSpec(job_id="a", graph=GraphRef(kind="dataset", name="x"),
                    deadline_s=-1.0)
