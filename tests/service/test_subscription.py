"""Subscription jobs: streaming detection through the DetectionService."""

import gc
import json
import mmap
import weakref

import numpy as np
import pytest

from repro.errors import ConfigurationError, StreamError
from repro.graph.datasets import generate_standin
from repro.integrity.soak import flip_bit
from repro.observe.profile import platform_for_device
from repro.perf.model import estimate_gpu_seconds
from repro.resilience.chaos import InjectedCrash
from repro.service import (
    DetectionService,
    GraphRef,
    JobSpec,
    JobState,
    ServiceConfig,
)
from repro.stream import DeltaLog, StreamProcessor, random_delta_batches
from repro.stream.delta import DeltaBatch
from repro.stream.epoch import EpochJournal, EpochState, epoch_path

DATASET = "com-Orkut"
SCALE = 0.03
SEED = 5


def _fill_log(directory, batches=3):
    base = generate_standin(DATASET, scale=SCALE, seed=SEED)
    rng = np.random.default_rng(SEED)
    log = DeltaLog(directory)
    for batch in random_delta_batches(
        base, rng, num_batches=batches, batch_size=4, grow_every=2
    ):
        log.append(batch)
    return base, log


def _spec(job_id, stream_dir, **kwargs):
    return JobSpec(
        job_id=job_id,
        graph=GraphRef(kind="dataset", name=DATASET, scale=SCALE, seed=SEED),
        kind="subscription",
        stream_dir=str(stream_dir),
        **kwargs,
    )


class TestSpecValidation:
    def test_subscription_requires_stream_dir(self):
        with pytest.raises(ConfigurationError):
            JobSpec(
                job_id="s",
                graph=GraphRef(kind="dataset", name=DATASET),
                kind="subscription",
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(
                job_id="s",
                graph=GraphRef(kind="dataset", name=DATASET),
                kind="cron",
            )

    def test_bad_delta_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _spec("s", tmp_path, delta_policy="yolo")

    def test_negative_hops_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _spec("s", tmp_path, hops=-1)

    def test_journal_roundtrip_keeps_stream_fields(self, tmp_path):
        spec = _spec("s", tmp_path, hops=2, delta_policy="quarantine")
        again = JobSpec.from_dict(spec.as_dict())
        assert again == spec

    def test_old_journal_records_default_to_detect(self):
        raw = JobSpec.dataset("old", DATASET).as_dict()
        for key in ("kind", "stream_dir", "hops", "delta_policy"):
            raw.pop(key)
        spec = JobSpec.from_dict(raw)
        assert spec.kind == "detect" and spec.stream_dir is None


class TestSubscriptionRuns:
    def test_catches_up_to_log_head(self, tmp_path):
        _, log = _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        assert service.drain() == 1
        record = service.result("sub")
        assert record.state is JobState.COMPLETED
        assert record.outcome.iterations == log.head_seq
        assert "caught up at epoch 3" in record.outcome.stop_detail
        assert record.outcome.labels is not None

    def test_matches_direct_processor(self, tmp_path):
        base, log = _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()

        direct = StreamProcessor(base, tmp_path / "wal", tmp_path / "direct")
        direct.recover()
        direct.run_to_head()
        assert np.array_equal(
            service.result("sub").outcome.labels, direct.labels
        )

    def test_epochs_live_under_service_journal(self, tmp_path):
        _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        stream_dir = service.journal.stream_dir("sub")
        assert sorted(p.name for p in stream_dir.glob("epoch-*.epoch"))

    def test_runs_without_a_journal(self, tmp_path):
        _fill_log(tmp_path / "wal")
        service = DetectionService(ServiceConfig())
        service.submit(_spec("nojournal", tmp_path / "wal"))
        service.drain()
        record = service.result("nojournal")
        assert record.state is JobState.COMPLETED
        # Epochs fall back to a directory next to the WAL.
        assert list((tmp_path / "wal" / "epochs").glob("epoch-*.epoch"))


class TestKillRestart:
    def test_crash_then_restart_is_bit_identical(self, tmp_path):
        _fill_log(tmp_path / "wal")
        # Reference: no crashes.
        ref = DetectionService(ServiceConfig(journal_dir=tmp_path / "ref"))
        ref.submit(_spec("sub", tmp_path / "wal"))
        ref.drain()
        ref_labels = ref.result("sub").outcome.labels

        fired = {"n": 0}

        def chaos(point, record):
            if point == "mid-epoch-apply" and fired["n"] == 0:
                fired["n"] = 1
                raise InjectedCrash("die mid-epoch-apply")

        crashed = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal", chaos_hook=chaos,
        ))
        crashed.submit(_spec("sub", tmp_path / "wal"))
        with pytest.raises(InjectedCrash):
            crashed.drain()

        # A fresh service over the same journal resumes and finishes.
        revived = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal",
        ))
        assert "sub" in revived.jobs  # recovered from the journal
        revived.drain()
        record = revived.result("sub")
        assert record.state is JobState.COMPLETED
        assert np.array_equal(record.outcome.labels, ref_labels)


class TestAdvance:
    def test_advance_processes_new_batches(self, tmp_path):
        base, log = _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        assert service.result("sub").outcome.iterations == 3

        # Nothing new: advance declines.
        assert service.advance_subscription("sub") is False

        rng = np.random.default_rng(99)
        for batch in random_delta_batches(base, rng, num_batches=2,
                                          batch_size=3):
            log.append(batch)
        assert service.advance_subscription("sub") is True
        service.drain()
        record = service.result("sub")
        assert record.state is JobState.COMPLETED
        assert record.outcome.iterations == 5

    def test_advance_rejects_detect_jobs(self, tmp_path):
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(JobSpec.dataset("plain", DATASET, scale=SCALE,
                                       seed=SEED, max_iterations=8))
        service.drain()
        with pytest.raises(ConfigurationError):
            service.advance_subscription("plain")


def _journaled_epoch_snapshot(service, job_id):
    """The epoch snapshot a completed subscription's record names."""
    record = service.result(job_id)
    return epoch_path(
        service.journal.stream_dir(job_id), record.outcome.iterations
    )


class TestLabelOwner:
    """A subscription's labels live once, in its epoch journal."""

    def test_record_names_the_epoch_and_writes_no_labels_file(self, tmp_path):
        _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        doc = json.loads(service.journal.job_path("sub").read_text())
        assert doc["version"] == 3
        assert doc["state"] == "completed"
        assert doc["labels_epoch"] == 3
        assert not service.journal.labels_path("sub").exists()
        assert _journaled_epoch_snapshot(service, "sub").exists()

        revived = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        record = revived.result("sub")
        assert record.state is JobState.COMPLETED
        assert np.array_equal(
            record.outcome.labels, service.result("sub").outcome.labels
        )
        assert revived.drain() == 0

    @pytest.mark.parametrize("damage", ["missing", "bit-rot", "other-labels"])
    def test_damaged_epoch_snapshot_demotes_and_reruns(self, tmp_path, damage):
        _fill_log(tmp_path / "wal")
        config = ServiceConfig(journal_dir=tmp_path / "journal")
        first = DetectionService(config)
        first.submit(_spec("sub", tmp_path / "wal"))
        first.drain()
        labels = first.result("sub").outcome.labels.copy()
        victim = _journaled_epoch_snapshot(first, "sub")
        if damage == "missing":
            victim.unlink()
        elif damage == "bit-rot":
            flip_bit(victim, victim.stat().st_size // 2, 0)
        else:
            # Readable and self-consistent, but not the labels the record
            # names: the re-run must not adopt it.
            EpochJournal(victim.parent).save(
                EpochState(epoch=3, labels=labels[::-1].copy())
            )

        second = DetectionService(config)
        assert second.result("sub").state is JobState.PENDING
        assert second.counters["recovered"] == 1
        second.drain()
        record = second.result("sub")
        assert record.state is JobState.COMPLETED
        assert record.outcome.iterations == 3
        assert np.array_equal(record.outcome.labels, labels)


class TestAdvanceCrash:
    def test_crash_mid_advance_resumes_at_the_log_head(self, tmp_path):
        base, log = _fill_log(tmp_path / "wal")
        more = random_delta_batches(
            base, np.random.default_rng(99), num_batches=2, batch_size=3
        )
        ref = DetectionService(ServiceConfig(journal_dir=tmp_path / "ref"))
        ref.submit(_spec("sub", tmp_path / "wal"))
        ref.drain()

        armed = {"on": False}

        def chaos(point, record):
            if armed["on"] and point == "post-epoch":
                armed["on"] = False
                raise InjectedCrash("die after the first advanced epoch")

        config = ServiceConfig(
            journal_dir=tmp_path / "journal", chaos_hook=chaos,
        )
        service = DetectionService(config)
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        for batch in more:
            log.append(batch)
        assert service.advance_subscription("sub") is True
        armed["on"] = True
        with pytest.raises(InjectedCrash):
            service.drain()

        # The advance was never journaled: the record still says
        # completed at epoch 3, and the log head says work is pending.
        revived = DetectionService(config)
        assert revived.result("sub").state is JobState.PENDING
        revived.drain()
        assert ref.advance_subscription("sub") is True
        ref.drain()
        record = revived.result("sub")
        assert record.state is JobState.COMPLETED
        assert record.outcome.iterations == 5
        assert np.array_equal(
            record.outcome.labels, ref.result("sub").outcome.labels
        )

    def test_advance_checks_the_outcome_not_the_epoch_journal(self, tmp_path):
        _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        for path in service.journal.stream_dir("sub").glob("epoch-*.epoch"):
            path.unlink()
        # Caught up by its outcome (epoch 3 == log head): no re-run.
        assert service.advance_subscription("sub") is False


def _appended(base, log, seed, batches):
    """Append ``batches`` more random batches to ``log``."""
    more = random_delta_batches(
        base, np.random.default_rng(seed), num_batches=batches, batch_size=3
    )
    for batch in more:
        log.append(batch)


class TestResidentProcessor:
    """A caught-up subscription's processor stays resident between
    advances; it is rebuilt from disk only after a restart or a failure."""

    def test_dropping_the_service_frees_its_processors(self, tmp_path):
        _fill_log(tmp_path / "wal")
        service = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal",
            snapshot_dir=tmp_path / "snapshots",
            chaos_hook=lambda point, record: None,
        ))
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        assert service.stats()["subscriptions"]["resident"] == 1
        processor = weakref.ref(service._processors["sub"])
        gc.collect()
        gc.disable()
        try:
            # Reference counting alone must free it: a processor whose
            # hooks captured the service would keep both alive.
            del service
            assert processor() is None
        finally:
            gc.enable()

    def test_advances_match_a_persistent_processor(self, tmp_path):
        base, log = _fill_log(tmp_path / "wal")
        service = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal",
            snapshot_dir=tmp_path / "snapshots",
        ))
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        platform = platform_for_device(service.config.lpa.device)
        persistent = StreamProcessor(
            base, tmp_path / "wal", tmp_path / "persistent",
            price=lambda result: estimate_gpu_seconds(
                result.total_counters, platform
            ),
        )
        persistent.recover()
        persistent.run_to_head()
        for advance in range(4):
            _appended(base, log, 100 + advance, 1)
            assert service.advance_subscription("sub") is True
            service.drain()
            persistent.log = DeltaLog(tmp_path / "wal")
            persistent.gpu_seconds = 0.0
            assert persistent.step() is not None
            record = service.result("sub")
            assert record.outcome.iterations == persistent.epoch
            assert np.array_equal(record.outcome.labels, persistent.labels)
            assert record.outcome.modeled_seconds == persistent.gpu_seconds
            resident = service._processors["sub"].graph
            for name in ("offsets", "targets", "weights"):
                assert np.array_equal(
                    getattr(resident, name), getattr(persistent.graph, name)
                )
            # The resident graph lives in one anonymous mapping.
            assert isinstance(resident.targets.base.obj, mmap.mmap)
        # Updates wrote weights other than 1, so the graph holds them,
        # in the same mapping.
        assert not resident.unit_weight
        assert resident.weights.base.obj is resident.targets.base.obj
        stats = service.stats()["subscriptions"]
        assert stats["resident"] == 1
        assert stats["resident_bytes"] == (
            resident.offsets.nbytes + resident.targets.nbytes
            + resident.weights.nbytes + persistent.labels.nbytes
        )

    def test_a_unit_weight_resident_graph_parks_without_weights(
        self, tmp_path
    ):
        base = generate_standin(DATASET, scale=SCALE, seed=SEED)
        assert base.unit_weight
        src = base.source_ids()
        log = DeltaLog(tmp_path / "wal")
        # Adds with no weight and removes keep every weight at 1.
        log.append(DeltaBatch.from_arrays("add", [0, 1], [7, 9]))
        log.append(DeltaBatch.from_arrays(
            "remove", src[:1], base.targets[:1]
        ))
        service = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal",
        ))
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        processor = service._processors["sub"]
        resident = processor.graph
        assert resident is not processor.base_graph
        assert isinstance(resident.targets.base.obj, mmap.mmap)
        assert resident.unit_weight and resident.weights.strides == (0,)
        stats = service.stats()["subscriptions"]
        assert stats["resident_bytes"] == (
            resident.offsets.nbytes + resident.targets.nbytes
            + processor.labels.nbytes
        )

    @pytest.mark.parametrize("error", [StreamError, RuntimeError])
    def test_a_raising_execution_leaves_no_resident_processor(
        self, tmp_path, error
    ):
        base, log = _fill_log(tmp_path / "wal")
        armed = {"on": False}

        def chaos(point, record):
            if armed["on"] and point == "mid-epoch-apply":
                raise error("injected")

        service = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal", chaos_hook=chaos,
        ))
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        assert service.stats()["subscriptions"]["resident"] == 1
        _appended(base, log, 99, 1)
        assert service.advance_subscription("sub") is True
        armed["on"] = True
        if error is StreamError:
            service.drain()
            assert service.result("sub").state is JobState.FAILED
        else:
            with pytest.raises(RuntimeError):
                service.drain()
        assert service.stats()["subscriptions"]["resident"] == 0

    def test_advance_does_not_regenerate_the_dataset(
        self, tmp_path, monkeypatch
    ):
        import repro.graph.datasets as datasets

        base, log = _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        calls = []
        real = datasets.generate_standin
        monkeypatch.setattr(
            datasets, "generate_standin",
            lambda *a, **k: (calls.append(a), real(*a, **k))[1],
        )
        _appended(base, log, 99, 2)
        assert service.advance_subscription("sub") is True
        service.drain()
        assert service.result("sub").outcome.iterations == 5
        assert calls == []
