"""Tests for the unified at-rest audit (``fsck_all`` / ``repro fsck --all``)."""

import json
import zlib

import numpy as np
import pytest

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.graph.datasets import generate_standin
from repro.graph.generators import web_graph
from repro.integrity import fsck_all
from repro.integrity.soak import flip_bit
from repro.resilience.chaos import InjectedCrash
from repro.service import (
    DetectionService, GraphRef, JobSpec, JobState, ServiceConfig,
)
from repro.service.journal import ServiceJournal
from repro.service.read import SnapshotCatalog
from repro.stream import random_delta_batches
from repro.stream.delta import DeltaBatch
from repro.stream.epoch import EpochJournal, EpochState, epoch_path
from repro.stream.log import DeltaLog

ALL_KINDS = {
    "checkpoint", "wal", "epoch-journal", "snapshot-catalog", "service-journal"
}


def build_tree(root):
    """One directory tree containing every durable store kind."""
    graph = web_graph(60, seed=2)
    nu_lpa(
        graph, LPAConfig(max_iterations=4), warn_on_no_convergence=False,
        resilience=ResilienceConfig(
            checkpoint_dir=root / "ckpt", checkpoint_every=1,
        ),
    )

    log = DeltaLog(root / "stream" / "wal")
    log.append(DeltaBatch(ops=(), num_vertices=60))
    log.append(DeltaBatch(ops=(), num_vertices=61))

    journal = EpochJournal(root / "stream" / "epochs")
    journal.save(EpochState(epoch=0, labels=np.arange(60, dtype=np.int64)))

    catalog = SnapshotCatalog(root / "snap")
    catalog.publish("job-a", np.arange(60, dtype=np.int64))

    service = ServiceJournal(root / "service")
    labels = np.arange(60, dtype=np.int64)
    service._write_labels("job-a", labels)
    crc = zlib.crc32(np.ascontiguousarray(labels).tobytes())
    service.job_path("job-a").write_text(
        json.dumps({"version": 3, "job_id": "job-a", "labels_crc32": crc})
    )
    return root


@pytest.fixture()
def tree(tmp_path):
    return build_tree(tmp_path / "tree")


class TestCleanTree:
    def test_all_store_kinds_discovered_and_clean(self, tree):
        report = fsck_all(tree)
        assert {s.kind for s in report.stores} == ALL_KINDS
        assert report.ok
        assert report.damaged == 0
        assert report.exit_code == 0

    def test_as_dict_schema(self, tree):
        doc = fsck_all(tree).as_dict()
        assert doc["schema"] == "repro.integrity/fsck"
        assert doc["version"] == 1
        assert doc["ok"] is True
        assert doc["error"] == ""
        assert doc["summary"]["stores"] == len(doc["stores"])
        assert doc["summary"]["damaged"] == 0
        assert doc["summary"]["entries"] > 0
        for store in doc["stores"]:
            assert store["kind"] in ALL_KINDS
            for finding in store["findings"]:
                assert finding["status"] == "ok"


def _damaged_store(report, kind):
    stores = [s for s in report.stores if s.kind == kind]
    assert stores, f"store kind {kind} not discovered"
    return [s for s in stores if not s.ok]


class TestDamage:
    def test_checkpoint_bit_rot(self, tree):
        victim = sorted((tree / "ckpt").glob("ckpt-*.ckpt"))[0]
        flip_bit(victim, victim.stat().st_size // 2, 3)
        report = fsck_all(tree)
        assert _damaged_store(report, "checkpoint")
        assert report.exit_code == 1

    def test_wal_mid_log_corruption(self, tree):
        # Damage the *first* frame (an acknowledged batch before the
        # committed head): that is real corruption, not a torn tail.
        victim = sorted((tree / "stream" / "wal").glob("segment-*.wal"))[0]
        flip_bit(victim, 22, 1)
        report = fsck_all(tree)
        assert _damaged_store(report, "wal")
        assert report.exit_code == 1

    def test_epoch_journal_bit_rot(self, tree):
        victim = sorted((tree / "stream" / "epochs").glob("epoch-*.epoch"))[0]
        flip_bit(victim, victim.stat().st_size // 2, 0)
        report = fsck_all(tree)
        assert _damaged_store(report, "epoch-journal")
        assert report.exit_code == 1

    def test_snapshot_bit_rot(self, tree):
        # Published snapshots live in a per-job subdirectory of the catalog.
        victim = sorted((tree / "snap").rglob("v*.snap"))[0]
        flip_bit(victim, 16, 5)  # inside the JSON header
        report = fsck_all(tree)
        assert _damaged_store(report, "snapshot-catalog")
        assert report.exit_code == 1

    def test_service_labels_crc_mismatch(self, tree):
        ServiceJournal(tree / "service")._write_labels(
            "job-a", np.zeros(60, dtype=np.int64)
        )
        report = fsck_all(tree)
        damaged = _damaged_store(report, "service-journal")
        assert damaged
        assert "CRC" in damaged[0].findings[0].detail

    def test_service_job_record_unparseable(self, tree):
        ServiceJournal(tree / "service").job_path("job-a").write_text("{not json")
        report = fsck_all(tree)
        assert _damaged_store(report, "service-journal")
        assert report.exit_code == 1

    def test_service_job_record_of_another_version(self, tree):
        record = ServiceJournal(tree / "service").job_path("job-a")
        doc = json.loads(record.read_text())
        doc["version"] = 1
        record.write_text(json.dumps(doc))
        report = fsck_all(tree)
        (damaged,) = _damaged_store(report, "service-journal")
        assert "version 1" in damaged.findings[0].detail
        assert report.exit_code == 1

    def test_damage_in_one_store_does_not_hide_others(self, tree):
        victim = sorted((tree / "snap").rglob("v*.snap"))[0]
        flip_bit(victim, 16, 5)
        report = fsck_all(tree)
        clean = [s for s in report.stores if s.kind != "snapshot-catalog"]
        assert all(s.ok for s in clean)
        assert {s.kind for s in report.stores} == ALL_KINDS


class TestRecoverableFindings:
    def test_stale_tmp_files_do_not_count_as_damage(self, tree):
        snap_store = sorted((tree / "snap").rglob("v*.snap"))[0].parent
        (snap_store / ".tmp-999-v3.snap").write_bytes(b"partial")
        (tree / "stream" / "epochs" / ".tmp-999-e1.epoch").write_bytes(b"junk")
        report = fsck_all(tree)
        assert report.exit_code == 0
        stale = [
            f for s in report.stores for f in s.findings
            if f.status == "stale-tmp"
        ]
        assert len(stale) == 2


class TestUnreadableRoot:
    def test_missing_root_is_exit_2(self, tmp_path):
        report = fsck_all(tmp_path / "does-not-exist")
        assert report.error
        assert not report.ok
        assert report.exit_code == 2
        assert report.as_dict()["stores"] == []

    def test_root_that_is_a_file_is_exit_2(self, tmp_path):
        target = tmp_path / "plain-file"
        target.write_text("not a directory")
        assert fsck_all(target).exit_code == 2


class TestEmptyTree:
    def test_no_stores_is_clean(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        report = fsck_all(empty)
        assert report.exit_code == 0
        assert report.stores == []


def _subscription(wal):
    return JobSpec(
        job_id="sub",
        graph=GraphRef(kind="dataset", name="com-Orkut", scale=0.02, seed=3),
        kind="subscription",
        stream_dir=str(wal),
    )


@pytest.fixture()
def subscription_tree(tmp_path):
    """A service journal holding one completed subscription."""
    base = generate_standin("com-Orkut", scale=0.02, seed=3)
    log = DeltaLog(tmp_path / "wal")
    for batch in random_delta_batches(
        base, np.random.default_rng(3), num_batches=2, batch_size=4
    ):
        log.append(batch)
    service = DetectionService(ServiceConfig(journal_dir=tmp_path / "journal"))
    service.submit(_subscription(tmp_path / "wal"))
    service.drain()
    snapshot = epoch_path(service.journal.stream_dir("sub"), 2)
    return tmp_path / "journal", snapshot


class TestSubscriptionLabels:
    """A subscription record's labels CRC is checked against the epoch
    snapshot it names; there is no labels/<job>.labels to look for."""

    def test_clean(self, subscription_tree):
        root, snapshot = subscription_tree
        assert snapshot.exists()
        assert not list((root / "labels").iterdir())
        report = fsck_all(root)
        assert report.exit_code == 0
        (service,) = [s for s in report.stores if s.kind == "service-journal"]
        assert [f.status for f in service.findings] == ["ok"]

    def test_corrupt_referenced_epoch_snapshot_is_damage(self, subscription_tree):
        root, snapshot = subscription_tree
        flip_bit(snapshot, snapshot.stat().st_size // 2, 0)
        report = fsck_all(root)
        assert report.exit_code == 1
        (damaged,) = _damaged_store(report, "service-journal")
        assert damaged.findings[0].path == str(snapshot)
        assert _damaged_store(report, "epoch-journal")

    def test_crash_after_the_named_epoch_was_pruned_is_clean(self, tmp_path):
        # The service's stream processor keeps 8 epochs.  An advance that
        # saves 9 before dying prunes the epoch the completed record
        # names; a restart re-runs from the newest epoch, so that is not
        # damage.
        base = generate_standin("com-Orkut", scale=0.02, seed=3)
        log = DeltaLog(tmp_path / "wal")
        batches = random_delta_batches(
            base, np.random.default_rng(3), num_batches=12, batch_size=4
        )
        for batch in batches[:2]:
            log.append(batch)
        saved = {"armed": False, "n": 0}

        def chaos(point, record):
            if saved["armed"] and point == "post-epoch":
                saved["n"] += 1
                if saved["n"] == 9:
                    raise InjectedCrash("die after 9 advanced epochs")

        config = ServiceConfig(
            journal_dir=tmp_path / "journal", chaos_hook=chaos,
        )
        service = DetectionService(config)
        service.submit(_subscription(tmp_path / "wal"))
        service.drain()
        for batch in batches[2:]:
            log.append(batch)
        assert service.advance_subscription("sub") is True
        saved["armed"] = True
        with pytest.raises(InjectedCrash):
            service.drain()
        named = epoch_path(service.journal.stream_dir("sub"), 2)
        assert not named.exists()

        report = fsck_all(tmp_path / "journal")
        assert report.exit_code == 0, report.as_dict()
        (store,) = [s for s in report.stores if s.kind == "service-journal"]
        assert "pruned" in store.findings[0].detail

        saved["armed"] = False
        revived = DetectionService(config)
        assert revived.result("sub").state is JobState.PENDING
        revived.drain()
        record = revived.result("sub")
        assert record.state is JobState.COMPLETED
        assert record.outcome.iterations == 12
        assert fsck_all(tmp_path / "journal").exit_code == 0

    def test_missing_epoch_without_a_newer_one_is_damage(
        self, subscription_tree
    ):
        root, snapshot = subscription_tree
        snapshot.unlink()
        report = fsck_all(root)
        assert report.exit_code == 1
        (damaged,) = _damaged_store(report, "service-journal")
        assert damaged.findings[0].path == str(snapshot)
