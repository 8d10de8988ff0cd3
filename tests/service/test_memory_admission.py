"""Memory-aware admission: typed rejection, serialization, stats."""

import pytest

from repro.core.config import LPAConfig
from repro.errors import ConfigurationError, MemoryPressure
from repro.gpu.governor import footprint_for
from repro.graph.datasets import generate_standin
from repro.observe.schema import validate_service_stats
from repro.observe.trace import JobEvent, Tracer
from repro.resilience.faults import FaultSpec
from repro.service import DetectionService, JobSpec, JobState, ServiceConfig


@pytest.fixture(scope="module")
def graph():
    return generate_standin("asia_osm", scale=0.05, seed=42)


def _footprint(graph, service, engine="vectorized"):
    """The same estimate the service computes at submit time."""
    spec = JobSpec.dataset("probe", "asia_osm", scale=0.05, engine=engine)
    return footprint_for(
        graph, service._job_config(spec), engine=engine,
        integrity=False, checkpointing=service.journal is not None,
    )["total"]


class TestRejection:
    def test_oversized_job_bounces_with_typed_error(self, graph):
        tracer = Tracer()
        probe = DetectionService(ServiceConfig(memory_budget_bytes=1))
        footprint = _footprint(graph, probe)
        service = DetectionService(
            ServiceConfig(memory_budget_bytes=footprint // 2),
            tracer=tracer,
        )
        with pytest.raises(MemoryPressure) as exc:
            service.submit_graph(graph, "huge")
        err = exc.value
        assert err.estimate_bytes > err.budget_bytes
        assert err.budget_bytes == footprint // 2
        assert err.retry_after_s > 0
        # The job was never admitted: no record, no queue slot burned.
        assert "huge" not in service.jobs
        assert service.queue.depth == 0
        assert service.counters["memory_rejected"] == 1
        states = [ev.state for ev in tracer.events
                  if isinstance(ev, JobEvent)]
        assert "rejected" in states

    def test_fitting_job_admits(self, graph):
        probe = DetectionService(ServiceConfig(memory_budget_bytes=1))
        footprint = _footprint(graph, probe)
        service = DetectionService(
            ServiceConfig(memory_budget_bytes=footprint * 4)
        )
        service.submit_graph(graph, "fits", max_iterations=8)
        assert service.drain() == 1
        record = service.result("fits")
        assert record.state is JobState.COMPLETED
        assert record.footprint_bytes == footprint
        assert service.counters["memory_rejected"] == 0

    def test_reserved_fraction_shrinks_the_budget(self):
        service = DetectionService(ServiceConfig(
            memory_budget_bytes=1000, reserved_memory_fraction=0.25,
        ))
        assert service.memory_budget() == 750

    def test_no_budget_means_no_estimates(self, graph):
        service = DetectionService(ServiceConfig())
        assert service.memory_budget() is None
        service.submit_graph(graph, "free", max_iterations=8)
        assert service.jobs["free"].footprint_bytes is None
        assert service.drain() == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(memory_budget_bytes=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(memory_budget_bytes=100,
                          reserved_memory_fraction=1.0)


class TestSerialization:
    def test_concurrent_jobs_serialize_under_the_budget(self, graph):
        probe = DetectionService(ServiceConfig(memory_budget_bytes=1))
        footprint = _footprint(graph, probe)
        # Each job fits alone; two do not fit together.
        service = DetectionService(ServiceConfig(
            workers=2,
            memory_budget_bytes=int(footprint * 1.5),
        ))
        service.submit_graph(graph, "a", max_iterations=8)
        service.submit_graph(graph, "b", max_iterations=8)
        assert service.drain() == 2
        for job_id in ("a", "b"):
            record = service.result(job_id)
            assert record.state is JobState.COMPLETED
            assert record.outcome.rung == "full"
        assert service.counters["memory_serialized"] >= 1
        stats = service.stats()
        assert stats["memory"]["serialized"] >= 1
        # The scheduled set never exceeded the budget.
        assert stats["memory"]["high_water_bytes"] <= service.memory_budget()
        assert stats["memory"]["high_water_bytes"] == footprint

    def test_requeued_job_keeps_its_priority(self, graph):
        probe = DetectionService(ServiceConfig(memory_budget_bytes=1))
        footprint = _footprint(graph, probe)
        service = DetectionService(ServiceConfig(
            workers=2, memory_budget_bytes=int(footprint * 1.5),
        ))
        service.submit_graph(graph, "first", max_iterations=8, priority=0)
        service.submit_graph(graph, "second", max_iterations=8, priority=5)
        # "first" runs; "second" is serialized back onto the queue and
        # must still run before any later, lower-priority submission.
        service.step()
        service.submit_graph(graph, "third", max_iterations=8, priority=9)
        assert service.drain() == 2
        for job_id in ("first", "second", "third"):
            assert service.jobs[job_id].state is JobState.COMPLETED
        done_clock = {
            j: service.result(j).finished_clock_s for j in ("second", "third")
        }
        assert done_clock["second"] <= done_clock["third"]

    def test_fits_alone_always_makes_progress(self, graph):
        # A budget between one and two footprints with one worker: each
        # job runs by itself, nothing deadlocks.
        probe = DetectionService(ServiceConfig(memory_budget_bytes=1))
        footprint = _footprint(graph, probe)
        service = DetectionService(ServiceConfig(
            workers=1, memory_budget_bytes=int(footprint * 1.2),
        ))
        service.submit_graph(graph, "solo", max_iterations=8)
        assert service.drain() == 1
        assert service.result("solo").state is JobState.COMPLETED


class TestDegradationAccounting:
    def test_oom_degraded_jobs_are_counted(self, graph):
        probe = DetectionService(ServiceConfig(memory_budget_bytes=1))
        footprint = _footprint(graph, probe)
        service = DetectionService(ServiceConfig(
            memory_budget_bytes=footprint * 2,
            engine_faults={
                "vectorized": FaultSpec(kinds=("oom",), rate=1.0,
                                        seed=3, max_fires=1),
            },
        ))
        service.submit_graph(graph, "stormy", max_iterations=8)
        assert service.drain() == 1
        assert service.result("stormy").state is JobState.COMPLETED
        assert service.counters["memory_degraded"] >= 1
        assert service.stats()["memory"]["degradations"] >= 1


class TestStats:
    def test_memory_block_validates_and_reports(self, graph):
        probe = DetectionService(ServiceConfig(memory_budget_bytes=1))
        footprint = _footprint(graph, probe)
        service = DetectionService(ServiceConfig(
            memory_budget_bytes=footprint * 4,
        ))
        service.submit_graph(graph, "a", max_iterations=8)
        service.drain()
        doc = validate_service_stats(service.stats())
        assert doc["version"] == 5
        memory = doc["memory"]
        assert memory["enabled"] is True
        assert memory["budget_bytes"] == footprint * 4
        assert memory["high_water_bytes"] == footprint
        assert memory["in_flight_bytes"] == 0
        assert memory["rejections"] == 0

    def test_disabled_block_validates(self):
        service = DetectionService(ServiceConfig())
        doc = validate_service_stats(service.stats())
        assert doc["memory"]["enabled"] is False
        assert doc["memory"]["budget_bytes"] == 0


class TestRecovery:
    def test_recovered_jobs_reestimate_lazily(self, tmp_path):
        cfg = dict(
            journal_dir=tmp_path / "journal",
            memory_budget_bytes=1 << 30,
        )
        first = DetectionService(ServiceConfig(**cfg))
        first.submit(JobSpec.dataset("night", "asia_osm", scale=0.05,
                                     max_iterations=8))
        assert first.jobs["night"].footprint_bytes is not None
        # "Crash" before running; footprints are not journaled.
        second = DetectionService(ServiceConfig(**cfg))
        assert second.jobs["night"].footprint_bytes is None
        assert second.drain() == 1
        record = second.result("night")
        assert record.state is JobState.COMPLETED
        assert record.footprint_bytes is not None
