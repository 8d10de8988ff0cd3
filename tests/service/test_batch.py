"""Wave batching: launch amortisation math and service integration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.observe.schema import validate_service_stats
from repro.observe.trace import Tracer
from repro.service import (
    BatchSavings,
    DetectionService,
    JobSpec,
    ServiceConfig,
    amortize_launches,
    batch_key,
)

DATASET = "asia_osm"
SCALE = 0.02
SEED = 7


def _spec(i, **kwargs):
    return JobSpec.dataset(f"j{i}", DATASET, scale=SCALE, seed=SEED, **kwargs)


class TestBatchKey:
    def test_same_config_same_key(self):
        assert batch_key(_spec(0)) == batch_key(_spec(1))

    def test_engine_splits_the_class(self):
        assert batch_key(_spec(0, engine="vectorized")) != batch_key(
            _spec(1, engine="hashtable")
        )

    def test_iteration_cap_splits_the_class(self):
        assert batch_key(_spec(0, max_iterations=5)) != batch_key(
            _spec(1, max_iterations=6)
        )

    def test_tolerance_splits_the_class(self):
        assert batch_key(_spec(0, tolerance=0.01)) != batch_key(
            _spec(1, tolerance=0.05)
        )

    def test_validate_splits_the_class(self):
        assert batch_key(_spec(0, validate="strict")) != batch_key(_spec(1))

    def test_subscriptions_never_batch(self, tmp_path):
        from repro.service import GraphRef

        spec = JobSpec(
            job_id="s",
            graph=GraphRef(kind="dataset", name=DATASET),
            kind="subscription",
            stream_dir=str(tmp_path),
        )
        assert batch_key(spec) is None


class TestAmortizeLaunches:
    def test_empty_batch(self):
        s = amortize_launches([], 0.1)
        assert s == BatchSavings(0, 0, 0.0, ())

    def test_single_job_saves_nothing(self):
        s = amortize_launches([(3, 3, 2)], 0.5)
        assert s.launches_sequential == 8
        assert s.launches_batched == 8
        assert s.saved_seconds == 0.0
        assert s.per_job_saved_s == (0.0,)

    def test_identical_jobs_pay_one_share(self):
        # 4 identical jobs: batched cost is one job's launches.
        s = amortize_launches([(3, 3)] * 4, 1.0)
        assert s.launches_sequential == 24
        assert s.launches_batched == 6
        assert s.saved_seconds == pytest.approx(18.0)
        # Equal schedules split the saving equally.
        assert s.per_job_saved_s == pytest.approx((4.5,) * 4)

    def test_ragged_depths_drop_out_of_later_slots(self):
        s = amortize_launches([(2, 2, 2), (2,)], 1.0)
        # Slot 0: seq 4, batched 2. Slots 1-2: only job 0, no saving.
        assert s.launches_sequential == 8
        assert s.launches_batched == 6
        assert s.saved_seconds == pytest.approx(2.0)
        # Job 1 contributes only to slot 0; both save an equal share there.
        assert s.per_job_saved_s == pytest.approx((1.0, 1.0))

    def test_per_job_attribution_sums_to_total(self):
        rng = np.random.default_rng(11)
        schedules = [
            tuple(int(x) for x in rng.integers(1, 6, size=rng.integers(1, 8)))
            for _ in range(9)
        ]
        s = amortize_launches(schedules, 0.37)
        assert sum(s.per_job_saved_s) == pytest.approx(s.saved_seconds)
        assert all(x >= 0.0 for x in s.per_job_saved_s)

    def test_launches_saved_property(self):
        s = amortize_launches([(4,), (4,)], 2.0)
        assert s.launches_saved == 4
        assert s.saved_seconds == pytest.approx(8.0)


class TestServiceBatching:
    def _run(self, *, batching, jobs=8, tracer=None, **cfg_kwargs):
        svc = DetectionService(
            ServiceConfig(
                workers=jobs, wave_batching=batching,
                batch_max_jobs=max(2, jobs), **cfg_kwargs,
            ),
            tracer=tracer,
        )
        for i in range(jobs):
            svc.submit(_spec(i))
        svc.drain()
        return svc

    def test_eight_jobs_share_one_wave(self):
        tracer = Tracer()
        svc = self._run(batching=True, tracer=tracer)
        assert svc.counters["batches"] == 1
        assert svc.counters["batched_jobs"] == 8
        assert svc.launch_seconds_saved > 0.0
        events = tracer.of_kind("wave_batch")
        assert len(events) == 1
        assert len(events[0].job_ids) == 8
        assert events[0].launches_batched < events[0].launches_sequential

    def test_labels_bit_identical_to_unbatched(self):
        batched = self._run(batching=True)
        plain = self._run(batching=False)
        for i in range(8):
            a = batched.result(f"j{i}").outcome.labels
            b = plain.result(f"j{i}").outcome.labels
            assert a is not None and np.array_equal(a, b)

    def test_batched_clock_is_cheaper(self):
        batched = self._run(batching=True)
        plain = self._run(batching=False)
        assert batched.clock_s < plain.clock_s
        assert batched.clock_s == pytest.approx(
            plain.clock_s - batched.launch_seconds_saved
        )

    def test_per_job_attribution_matches_outcome_delta(self):
        tracer = Tracer()
        batched = self._run(batching=True, tracer=tracer)
        plain = self._run(batching=False)
        event = tracer.of_kind("wave_batch")[0]
        saved_by_job = dict(zip(event.job_ids, event.per_job_saved_s))
        assert sum(saved_by_job.values()) == pytest.approx(event.saved_seconds)
        for job_id, saved in saved_by_job.items():
            cheaper = batched.result(job_id).outcome.modeled_seconds
            full = plain.result(job_id).outcome.modeled_seconds
            assert full - cheaper == pytest.approx(saved)
            assert saved > 0.0

    def test_incompatible_jobs_split_into_waves(self):
        tracer = Tracer()
        svc = DetectionService(
            ServiceConfig(workers=8, wave_batching=True), tracer=tracer
        )
        for i in range(4):
            svc.submit(_spec(i, engine="vectorized"))
        for i in range(4, 8):
            svc.submit(_spec(i, engine="hashtable"))
        svc.drain()
        events = tracer.of_kind("wave_batch")
        assert svc.counters["batches"] == 2
        assert {len(e.job_ids) for e in events} == {4}
        engines = [
            {svc.result(j).spec.engine for j in e.job_ids} for e in events
        ]
        assert all(len(s) == 1 for s in engines)

    def test_batch_bounded_by_workers(self):
        # Only in-flight jobs can share a wave: 2 workers → waves of ≤ 2.
        tracer = Tracer()
        svc = DetectionService(
            ServiceConfig(workers=2, wave_batching=True), tracer=tracer
        )
        for i in range(6):
            svc.submit(_spec(i))
        svc.drain()
        assert all(
            len(e.job_ids) <= 2 for e in tracer.of_kind("wave_batch")
        )
        assert all(
            svc.result(f"j{i}").outcome.labels is not None for i in range(6)
        )

    def test_batch_max_jobs_caps_the_wave(self):
        tracer = Tracer()
        svc = DetectionService(
            ServiceConfig(workers=8, wave_batching=True, batch_max_jobs=3),
            tracer=tracer,
        )
        for i in range(8):
            svc.submit(_spec(i))
        svc.drain()
        assert all(
            len(e.job_ids) <= 3 for e in tracer.of_kind("wave_batch")
        )

    def test_batch_max_jobs_validated(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(batch_max_jobs=1)

    def test_disabled_batching_runs_one_job_per_step(self):
        svc = DetectionService(ServiceConfig(workers=8, wave_batching=False))
        for i in range(3):
            svc.submit(_spec(i))
        done = svc.drain()
        assert done == 3
        assert svc.counters["batches"] == 0
        assert svc.launch_seconds_saved == 0.0

    def test_stats_schema_reports_batching(self):
        svc = self._run(batching=True)
        doc = svc.stats()
        validate_service_stats(doc)
        assert doc["version"] == 4
        assert doc["batching"]["enabled"] is True
        assert doc["batching"]["batches"] == 1
        assert doc["batching"]["batched_jobs"] == 8
        assert doc["batching"]["launch_seconds_saved"] > 0.0

    def test_journal_roundtrip_preserves_amortised_accounting(self, tmp_path):
        cfg_kwargs = dict(journal_dir=tmp_path / "jobs")
        svc = self._run(batching=True, **cfg_kwargs)
        spent = {f"j{i}": svc.result(f"j{i}").gpu_spent_s for i in range(8)}
        again = DetectionService(
            ServiceConfig(
                workers=8, wave_batching=True, journal_dir=tmp_path / "jobs"
            )
        )
        for job_id, gpu in spent.items():
            record = again.result(job_id)
            assert record.gpu_spent_s == pytest.approx(gpu)
            assert record.outcome is not None

    def test_latency_mean_tracks_amortised_clock(self):
        svc = self._run(batching=True)
        expected = sum(
            svc.result(f"j{i}").latency_s for i in range(8)
        )
        assert svc._latency_sum == pytest.approx(expected)
        assert svc._latency_count == 8
