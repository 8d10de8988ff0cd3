"""Kill/restart soak: the service's recovery acceptance test.

Across >= 20 seeded kill schedules, every in-flight job must resume and
complete bit-identically to a crash-free reference run, with no job lost
and none executed twice.
"""

import pytest

from repro.errors import ConfigurationError
from repro.service import JobSpec, ServiceConfig, run_service_soak
from repro.service.soak import ServiceSoakOutcome
from repro.soak import record_dict

#: The workload each schedule replays: mixed datasets and engines.
WORKLOAD = [
    JobSpec.dataset("soak-0", "asia_osm", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("soak-1", "europe_osm", scale=0.05, max_iterations=12,
                    engine="hashtable"),
    JobSpec.dataset("soak-2", "kmer_V1r", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("soak-3", "asia_osm", scale=0.08, seed=7,
                    max_iterations=12, engine="hashtable"),
]


class TestKillRestartSoak:
    @pytest.mark.parametrize("seed", range(20))
    def test_soak_schedule_recovers_bit_identically(self, tmp_path, seed):
        outcome = run_service_soak(
            WORKLOAD,
            journal_dir=tmp_path / "journal",
            config=ServiceConfig(workers=2),
            seed=seed,
        )
        assert outcome.crashes >= 1, "schedule injected no deaths"
        assert outcome.lost == []
        assert outcome.duplicated == []
        assert outcome.mismatched == []
        assert outcome.identical == len(WORKLOAD)
        assert outcome.ok

    def test_outcome_serialises(self, tmp_path):
        outcome = run_service_soak(
            WORKLOAD[:2],
            journal_dir=tmp_path / "journal",
            config=ServiceConfig(workers=1),
            seed=99,
        )
        doc = record_dict(outcome)
        assert doc["ok"] is True
        assert doc["jobs"] == 2
        assert isinstance(doc["crashes"], int)

    def test_in_memory_workload_rejected(self, tmp_path):
        from repro.service import GraphRef

        bad = [JobSpec(job_id="m", graph=GraphRef(kind="memory", name="m"))]
        with pytest.raises(ConfigurationError):
            run_service_soak(bad, journal_dir=tmp_path / "j")

    def test_outcome_flags_surface_in_ok(self):
        outcome = ServiceSoakOutcome(
            seed=0, jobs=2, crashes=1, restarts=1, identical=1,
            lost=["x"],
        )
        assert not outcome.ok


class TestResultErrors:
    """Only an unknown job id counts as lost; any other error from
    ``result()`` is a harness or service bug and must surface."""

    def _patch_result(self, monkeypatch, exc):
        from repro.service import DetectionService

        real = DetectionService.result

        def result(service, job_id):
            if service.config.journal_dir is not None:  # the chaos run
                raise exc
            return real(service, job_id)

        monkeypatch.setattr(DetectionService, "result", result)

    def test_unknown_job_counts_as_lost(self, tmp_path, monkeypatch):
        from repro.errors import JobNotFoundError

        self._patch_result(monkeypatch, JobNotFoundError("gone"))
        outcome = run_service_soak(
            WORKLOAD[:1], journal_dir=tmp_path / "journal",
            config=ServiceConfig(workers=1), seed=3,
        )
        assert outcome.lost == ["soak-0"]
        assert not outcome.ok

    def test_other_errors_propagate(self, tmp_path, monkeypatch):
        self._patch_result(monkeypatch, RuntimeError("not a lost job"))
        with pytest.raises(RuntimeError, match="not a lost job"):
            run_service_soak(
                WORKLOAD[:1], journal_dir=tmp_path / "journal",
                config=ServiceConfig(workers=1), seed=3,
            )
