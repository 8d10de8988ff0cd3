"""Smoke test for the memory-pressure soak harness (full run in CI)."""

import numpy as np

from repro.core.config import LPAConfig
from repro.graph.datasets import generate_standin
from repro.observe.schema import validate_memory_soak
from repro.resilience import run_memory_soak


class TestMemorySoak:
    def test_two_schedules_pass_and_validate(self):
        graph = generate_standin("asia_osm", scale=0.05, seed=42)
        report = run_memory_soak(
            graph, seeds=2, seed=7, engine="hashtable",
            config=LPAConfig(max_iterations=10),
        )
        assert report.ok, report.summary()
        assert report.silent == 0
        assert len(report.records) == 2
        doc = validate_memory_soak(report.as_dict())
        for record in doc["records"]:
            # Pressure actually happened on every schedule.
            assert record["live_ooms"] + record["shrink_ooms"] >= 1
            assert record["admission_rejected"]
            assert record["reconcile_within_tolerance"]
            assert record["reconcile_identical"]
            assert 0.0 < record["reconcile_utilization"] <= 1.0 + 0.35

    def test_schedules_are_deterministic(self):
        graph = generate_standin("asia_osm", scale=0.05, seed=42)
        kwargs = dict(seeds=1, seed=3, engine="hashtable",
                      config=LPAConfig(max_iterations=10))
        a = run_memory_soak(graph, **kwargs).as_dict()
        b = run_memory_soak(graph, **kwargs).as_dict()
        assert a == b

    def test_vectorized_engine_supported(self):
        graph = generate_standin("asia_osm", scale=0.05, seed=42)
        report = run_memory_soak(
            graph, seeds=1, seed=5, engine="vectorized",
            config=LPAConfig(max_iterations=10),
        )
        assert report.silent == 0
        record = report.records[0]
        assert record.admission_rejected
        assert record.reconcile_identical
        validate_memory_soak(report.as_dict())

    def test_labels_survive_every_leg(self):
        graph = generate_standin("asia_osm", scale=0.05, seed=42)
        report = run_memory_soak(
            graph, seeds=2, seed=11, engine="hashtable",
            config=LPAConfig(max_iterations=10),
        )
        for record in report.records:
            if record.live_absorbed:
                assert record.live_valid
            if record.shrink_absorbed:
                assert record.shrink_valid
        assert isinstance(report.as_dict()["records"][0]["memory"], dict)
        assert np.isfinite(report.records[0].reconcile_deviation)
