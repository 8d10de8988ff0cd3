"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


class TestDetect:
    def test_detect_on_dataset(self, capsys):
        assert main(["detect", "--dataset", "asia_osm", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "modularity" in out
        assert "communities" in out

    def test_detect_writes_labels(self, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--output", str(out_file),
        ])
        labels = np.loadtxt(out_file, dtype=np.int64)
        assert labels.shape[0] > 0

    def test_detect_on_file(self, tmp_path, capsys, two_cliques):
        from repro.graph.io import write_matrix_market

        path = tmp_path / "g.mtx"
        write_matrix_market(two_cliques, path)
        assert main(["detect", "--input", str(path)]) == 0

    def test_detect_custom_options(self, capsys):
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--engine", "hashtable", "--pl-period", "0",
            "--probing", "linear", "--tolerance", "0.1",
        ]) == 0

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            main(["detect"])

    def test_profile_prints_breakdown(self, capsys):
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--engine", "hashtable", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "modelled:" in out
        assert "iter " in out

    def test_trace_out_writes_schema_valid_json(self, tmp_path, capsys):
        import json

        from repro.observe.schema import validate_profile

        out_file = tmp_path / "trace.json"
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--engine", "hashtable", "--trace-out", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text())
        validate_profile(doc["profile"])
        kinds = {e["kind"] for e in doc["events"]}
        assert {"kernel_launch", "wave", "iteration"} <= kinds

    def test_trace_out_with_faults_records_rungs(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.json"
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--engine", "hashtable", "--trace-out", str(out_file),
            "--inject-faults", "overflow", "--fault-max-fires", "2",
            "--fault-seed", "7",
        ]) == 0
        doc = json.loads(out_file.read_text())
        rungs = [e for e in doc["events"] if e["kind"] == "fault_rung"]
        assert rungs
        assert doc["profile"]["fault_rungs"]


class TestInfo:
    def test_info(self, capsys):
        assert main(["info", "--dataset", "kmer_A2a", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "giant component" in out


class TestGenerate:
    @pytest.mark.parametrize("family", ["web", "road", "kmer", "social", "rmat"])
    def test_generate_families(self, tmp_path, capsys, family):
        out = tmp_path / "g.txt"
        assert main([
            "generate", family, "--vertices", "500", "--output", str(out)
        ]) == 0
        assert out.exists()

    def test_generate_mtx(self, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        main(["generate", "kmer", "--vertices", "300", "--output", str(out)])
        from repro.graph.io import load_graph

        assert load_graph(out).num_vertices > 0


class TestCompare:
    def test_compare_runs_all_systems(self, capsys):
        assert main(["compare", "--dataset", "asia_osm", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        for system in ("nu-lpa", "flpa", "networkit-lpa", "cugraph-louvain"):
            assert system in out


class TestDetectResilience:
    ARGS = ["detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--engine", "hashtable"]

    def test_inject_faults_survives_and_reports(self, capsys):
        assert main(self.ARGS + ["--inject-faults", "overflow"]) == 0
        out = capsys.readouterr().out
        assert "faults:" in out
        assert "fallback" in out

    def test_inject_multiple_kinds(self, capsys):
        assert main(
            self.ARGS
            + ["--inject-faults", "timeout", "--inject-faults", "cas-storm",
               "--fault-max-fires", "3", "--fault-seed", "9"]
        ) == 0
        assert "faults:" in capsys.readouterr().out

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--inject-faults", "gremlins"])

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(self.ARGS + ["--checkpoint-dir", str(ckpt)]) == 0
        assert list(ckpt.glob("ckpt-*.ckpt"))
        first = capsys.readouterr().out
        assert main(
            self.ARGS + ["--checkpoint-dir", str(ckpt), "--resume"]
        ) == 0
        second = capsys.readouterr().out
        assert "resumed:" in second
        # same final partition either way
        line = [ln for ln in first.splitlines() if "communities" in ln]
        assert line == [ln for ln in second.splitlines() if "communities" in ln]

    def test_fault_free_run_prints_no_fault_line(self, capsys):
        assert main(self.ARGS) == 0
        assert "faults:" not in capsys.readouterr().out


class TestDetectHardening:
    ARGS = ["detect", "--dataset", "asia_osm", "--scale", "0.1"]

    def test_validate_clean_graph(self, capsys):
        assert main(self.ARGS + ["--validate", "strict"]) == 0
        assert "validation:" in capsys.readouterr().out

    def test_validate_repairs_defective_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1 nan\n1 2 1.0\n2 0 1.0\n")
        # strict (the default for files) refuses the load
        assert main(["detect", "--input", str(path)]) == 1
        assert "NaN edge weight" in capsys.readouterr().err
        # repair loads, fixes, and reports
        assert main(["detect", "--input", str(path), "--validate", "repair"]) == 0
        assert "validation:" in capsys.readouterr().out

    def test_iteration_budget_reports_degraded(self, capsys):
        assert main(self.ARGS + ["--iteration-budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "degraded:" in out
        assert "iterations" in out

    def test_deadline_flag_accepted(self, capsys):
        assert main(self.ARGS + ["--deadline", "3600"]) == 0
        assert "degraded:" not in capsys.readouterr().out

    def test_bad_validate_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--validate", "lenient"])


class TestCkptCommand:
    def test_fsck_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["ckpt"])

    def test_fsck_roundtrip(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--checkpoint-dir", str(ckpt), "--max-iterations", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["ckpt", "fsck", str(ckpt)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fsck_flags_and_deletes_corruption(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--checkpoint-dir", str(ckpt), "--max-iterations", "2",
        ])
        newest = sorted(ckpt.glob("ckpt-*.ckpt"))[-1]
        newest.write_bytes(b"rot")
        (ckpt / ".tmp-999.npz").write_bytes(b"partial")
        capsys.readouterr()
        assert main(["ckpt", "fsck", str(ckpt)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out and "stale-tmp" in out
        assert main(["ckpt", "fsck", str(ckpt), "--delete"]) == 0
        assert not (ckpt / ".tmp-999.npz").exists()
        assert not newest.exists()

    def test_fsck_missing_directory_errors(self, tmp_path, capsys):
        # Unified fsck contract: unreadable directory is exit 2, not 1.
        assert main(["ckpt", "fsck", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_fsck_json_report(self, tmp_path, capsys):
        import json

        ckpt = tmp_path / "ckpt"
        main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--checkpoint-dir", str(ckpt), "--max-iterations", "2",
        ])
        capsys.readouterr()
        assert main(["ckpt", "fsck", str(ckpt), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "checkpoint"
        assert doc["ok"] is True
        assert all(e["status"] == "ok" for e in doc["findings"])


class TestResumeEdgeCases:
    """Each --resume misuse gets a one-line typed error and its own exit
    code: 3 (no --checkpoint-dir), 4 (nothing to resume), 5 (all
    generations damaged)."""

    ARGS = ["detect", "--dataset", "asia_osm", "--scale", "0.05"]

    def test_resume_without_checkpoint_dir_exits_3(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 3
        err = capsys.readouterr().err
        assert "--checkpoint-dir" in err
        assert err.count("\n") == 1  # one line, not a traceback

    def test_resume_empty_directory_exits_4(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(self.ARGS + [
            "--resume", "--checkpoint-dir", str(empty),
        ]) == 4
        err = capsys.readouterr().err
        assert "no checkpoint" in err
        assert err.count("\n") == 1

    def test_resume_missing_directory_exits_4(self, tmp_path, capsys):
        assert main(self.ARGS + [
            "--resume", "--checkpoint-dir", str(tmp_path / "nope"),
        ]) == 4
        assert "does not exist" in capsys.readouterr().err

    def test_resume_all_generations_damaged_exits_5(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(self.ARGS + [
            "--checkpoint-dir", str(ckpt), "--max-iterations", "3",
        ]) == 0
        for path in ckpt.glob("ckpt-*.ckpt"):
            path.write_bytes(b"rot")
        capsys.readouterr()
        assert main(self.ARGS + [
            "--resume", "--checkpoint-dir", str(ckpt),
        ]) == 5
        err = capsys.readouterr().err
        assert "damaged" in err
        assert "ckpt fsck" in err  # actionable next step
        assert err.count("\n") == 1

    def test_valid_resume_still_works(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(self.ARGS + [
            "--checkpoint-dir", str(ckpt), "--max-iterations", "2",
        ]) == 0
        capsys.readouterr()
        assert main(self.ARGS + [
            "--resume", "--checkpoint-dir", str(ckpt),
        ]) == 0
        assert "resumed" in capsys.readouterr().out


class TestSignalHandling:
    """SIGINT/SIGTERM stop the run at the next iteration boundary, write a
    final checkpoint, flush the trace, and exit 128+signum."""

    def _interrupt_during_run(self, monkeypatch, signum):
        import signal as signal_module

        import repro.cli as cli_module

        real = cli_module.nu_lpa
        fired = {"done": False}

        def wrapper(*args, **kwargs):
            if not fired["done"]:
                fired["done"] = True
                signal_module.raise_signal(signum)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "nu_lpa", wrapper)

    def test_sigint_detect_exits_130_with_checkpoint(
        self, tmp_path, capsys, monkeypatch
    ):
        import signal as signal_module

        self._interrupt_during_run(monkeypatch, signal_module.SIGINT)
        ckpt = tmp_path / "ckpt"
        trace = tmp_path / "trace.json"
        rc = main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--checkpoint-dir", str(ckpt), "--trace-out", str(trace),
        ])
        assert rc == 130
        out = capsys.readouterr().out
        assert "interrupted" in out and "SIGINT" in out
        assert list(ckpt.glob("ckpt-*.ckpt"))  # final checkpoint written
        assert trace.exists()                 # trace flushed

    def test_sigterm_detect_exits_143(self, tmp_path, capsys, monkeypatch):
        import signal as signal_module

        self._interrupt_during_run(monkeypatch, signal_module.SIGTERM)
        rc = main(["detect", "--dataset", "asia_osm", "--scale", "0.1"])
        assert rc == 143
        assert "SIGTERM" in capsys.readouterr().out

    def test_handlers_restored_after_run(self, capsys):
        import signal as signal_module

        before_int = signal_module.getsignal(signal_module.SIGINT)
        before_term = signal_module.getsignal(signal_module.SIGTERM)
        assert main(["detect", "--dataset", "asia_osm", "--scale", "0.05"]) == 0
        assert signal_module.getsignal(signal_module.SIGINT) is before_int
        assert signal_module.getsignal(signal_module.SIGTERM) is before_term


class TestServeCommand:
    def _jobs_file(self, tmp_path, jobs):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        return path

    def test_serve_batch_writes_validated_stats(self, tmp_path, capsys):
        import json

        from repro.observe.schema import validate_service_stats

        jobs = self._jobs_file(tmp_path, [
            {"job_id": "a", "dataset": "asia_osm", "scale": 0.05,
             "max_iterations": 10},
            {"job_id": "b", "dataset": "europe_osm", "scale": 0.05,
             "engine": "hashtable", "max_iterations": 10},
        ])
        stats_path = tmp_path / "stats.json"
        rc = main([
            "serve", "--jobs", str(jobs), "--stats-out", str(stats_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 completed" in out
        doc = json.loads(stats_path.read_text())
        validate_service_stats(doc)
        assert doc["jobs"]["completed"] == 2

    def test_serve_trace_records_job_events(self, tmp_path, capsys):
        import json

        jobs = self._jobs_file(tmp_path, [
            {"job_id": "a", "dataset": "asia_osm", "scale": 0.05},
        ])
        trace_path = tmp_path / "trace.json"
        assert main([
            "serve", "--jobs", str(jobs), "--trace-out", str(trace_path),
        ]) == 0
        kinds = {e["kind"] for e in json.loads(trace_path.read_text())["events"]}
        assert "job" in kinds
        assert "service_stats" in kinds

    def test_serve_journal_recovers_on_rerun(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [
            {"job_id": "a", "dataset": "asia_osm", "scale": 0.05,
             "max_iterations": 10},
        ])
        journal = tmp_path / "journal"
        assert main(["serve", "--jobs", str(jobs),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        # Second run over the same journal: recovered, nothing re-runs.
        assert main(["serve", "--jobs", str(jobs),
                     "--journal", str(journal)]) == 0
        assert "1 completed" in capsys.readouterr().out

    def test_serve_overload_reports_rejections(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [
            {"job_id": f"j{i}", "dataset": "asia_osm", "scale": 0.02,
             "max_iterations": 5}
            for i in range(6)
        ])
        rc = main([
            "serve", "--jobs", str(jobs), "--queue-capacity", "2",
            "--workers", "1",
        ])
        assert rc == 0  # admitted jobs all completed
        captured = capsys.readouterr()
        assert "rejected" in captured.err
        assert "queue-full" in captured.err

    def test_serve_bad_jobs_file_errors(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path, [{"job_id": "a"}])  # no graph
        assert main(["serve", "--jobs", str(jobs)]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_serve_sigint_exits_130_and_journal_resumes(
        self, tmp_path, capsys, monkeypatch
    ):
        import signal as signal_module

        import repro.service.service as service_module

        real = service_module.nu_lpa
        fired = {"done": False}

        def wrapper(*args, **kwargs):
            if not fired["done"]:
                fired["done"] = True
                signal_module.raise_signal(signal_module.SIGINT)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "nu_lpa", wrapper)
        jobs = self._jobs_file(tmp_path, [
            {"job_id": f"j{i}", "dataset": "asia_osm", "scale": 0.1,
             "max_iterations": 10}
            for i in range(3)
        ])
        journal = tmp_path / "journal"
        rc = main(["serve", "--jobs", str(jobs), "--journal", str(journal),
                   "--workers", "1"])
        assert rc == 130
        assert "interrupted" in capsys.readouterr().out

        monkeypatch.setattr(service_module, "nu_lpa", real)
        # The journal finishes the remainder on the next invocation.
        assert main(["serve", "--jobs", str(jobs),
                     "--journal", str(journal)]) == 0
        assert "3 completed" in capsys.readouterr().out


class TestStreamCommand:
    def _log(self, tmp_path):
        from repro.stream import DeltaLog
        from repro.stream.delta import DeltaBatch, DeltaOp

        log = DeltaLog(tmp_path / "wal")
        for i in range(3):
            log.append(DeltaBatch(
                ops=(DeltaOp("add", 0, i + 1, weight=1.0),),
                num_vertices=i + 2,
            ))
        return log

    def test_stream_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["stream"])

    def test_fsck_clean_log(self, tmp_path, capsys):
        self._log(tmp_path)
        assert main(["stream", "fsck", str(tmp_path / "wal")]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "0 corrupt" in out

    def test_fsck_reports_torn_tail_without_repairing(self, tmp_path, capsys):
        log = self._log(tmp_path)
        seg = log.segments()[-1]
        with open(seg, "ab") as fh:
            fh.write(b"DLG1torn")
        size = seg.stat().st_size
        assert main(["stream", "fsck", str(tmp_path / "wal")]) == 0
        assert "torn-tail" in capsys.readouterr().out
        assert seg.stat().st_size == size  # fsck never modifies

    def test_fsck_corruption_exits_nonzero(self, tmp_path, capsys):
        log = self._log(tmp_path)
        seg = log.segments()[0]
        data = bytearray(seg.read_bytes())
        data[30] ^= 0xFF
        seg.write_bytes(bytes(data))
        assert main(["stream", "fsck", str(tmp_path / "wal")]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_fsck_missing_directory_errors(self, tmp_path, capsys):
        # Unified fsck contract: unreadable directory is exit 2, not 1.
        assert main(["stream", "fsck", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_fsck_json_report(self, tmp_path, capsys):
        import json

        self._log(tmp_path)
        assert main(["stream", "fsck", str(tmp_path / "wal"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "wal"
        assert doc["ok"] is True

    def test_status_reports_head_and_lag(self, tmp_path, capsys):
        import numpy as np

        from repro.stream.epoch import EpochJournal, EpochState

        self._log(tmp_path)
        journal = EpochJournal(tmp_path / "epochs")
        journal.save(EpochState(
            epoch=2, labels=np.zeros(5, dtype=np.int64),
            num_vertices=5, num_edges=4,
        ))
        assert main([
            "stream", "status", str(tmp_path / "wal"),
            "--epochs", str(tmp_path / "epochs"),
        ]) == 0
        out = capsys.readouterr().out
        assert "seq 3" in out
        assert "epoch 2" in out
        assert "lag: 1" in out


class TestQueryCommand:
    def _published(self, tmp_path):
        import numpy as np

        from repro.service.read import SnapshotCatalog

        catalog = SnapshotCatalog(tmp_path / "snaps")
        labels = np.arange(60, dtype=np.int64) % 4
        catalog.publish("jq", labels)
        churned = labels.copy()
        churned[:6] = 2
        catalog.publish("jq", churned)
        return tmp_path / "snaps"

    def test_membership_roster_and_sizes(self, tmp_path, capsys):
        snaps = self._published(tmp_path)
        assert main([
            "query", "--snapshots", str(snaps), "--job", "jq",
            "--membership", "0", "--membership", "7",
            "--roster", "3", "--sizes", "--top", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving:     v2" in out
        assert "membership(0) = 2" in out
        assert "membership(7) = 3" in out
        assert "roster(3)" in out
        assert "communities: 4" in out

    def test_diff_default_and_explicit(self, tmp_path, capsys):
        snaps = self._published(tmp_path)
        assert main([
            "query", "--snapshots", str(snaps), "--job", "jq", "--diff",
        ]) == 0
        assert "diff v1 -> v2" in capsys.readouterr().out
        assert main([
            "query", "--snapshots", str(snaps), "--job", "jq",
            "--diff-versions", "1", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "diff v1 -> v2" in out
        assert "relabeled" in out

    def test_versions_listing(self, tmp_path, capsys):
        snaps = self._published(tmp_path)
        assert main([
            "query", "--snapshots", str(snaps), "--job", "jq", "--versions",
        ]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out

    def test_missing_job_is_typed_error(self, tmp_path, capsys):
        snaps = self._published(tmp_path)
        assert main([
            "query", "--snapshots", str(snaps), "--job", "ghost", "--sizes",
        ]) == 1
        assert "no published snapshot" in capsys.readouterr().err

    def test_serve_publishes_for_query(self, tmp_path, capsys):
        import json

        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"job_id": f"j{i}", "dataset": "asia_osm", "scale": 0.02,
             "seed": 7} for i in range(3)
        ]))
        snaps = tmp_path / "snaps"
        assert main([
            "serve", "--jobs", str(jobs), "--workers", "3",
            "--snapshot-dir", str(snaps),
        ]) == 0
        assert "3 job(s) published" in capsys.readouterr().out
        assert main([
            "query", "--snapshots", str(snaps), "--job", "j1",
            "--membership", "0",
        ]) == 0
        assert "membership(0)" in capsys.readouterr().out

    def test_serve_jobs_file_subscription(self, tmp_path, capsys):
        import json

        import numpy as np

        from repro.graph.datasets import generate_standin
        from repro.stream import DeltaLog, random_delta_batches

        base = generate_standin("com-Orkut", scale=0.03, seed=11)
        log = DeltaLog(tmp_path / "wal")
        for batch in random_delta_batches(
            base, np.random.default_rng(11), num_batches=2, batch_size=5,
        ):
            log.append(batch)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([{
            "job_id": "live", "kind": "subscription",
            "stream_dir": str(tmp_path / "wal"),
            "graph": {"kind": "dataset", "name": "com-Orkut",
                      "scale": 0.03, "seed": 11},
        }]))
        snaps = tmp_path / "snaps"
        assert main([
            "serve", "--jobs", str(jobs), "--snapshot-dir", str(snaps),
        ]) == 0
        capsys.readouterr()
        # Epochs 0..2 published on the read path, newest served.
        assert main([
            "query", "--snapshots", str(snaps), "--job", "live",
            "--versions",
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch=0" in out and "epoch=2" in out


class TestUnifiedFsck:
    """``repro fsck --all``: one audit over every durable store kind."""

    def _tree(self, tmp_path):
        root = tmp_path / "tree"
        main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--checkpoint-dir", str(root / "ckpt"), "--max-iterations", "2",
        ])
        import numpy as np

        from repro.service.read import SnapshotCatalog

        SnapshotCatalog(root / "snap").publish(
            "job-x", np.arange(40, dtype=np.int64)
        )
        return root

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        capsys.readouterr()
        assert main(["fsck", "--all", str(root)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out and "snapshot-catalog" in out
        assert "0 damaged" in out

    def test_damaged_tree_exits_one(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        victim = sorted((root / "snap").rglob("v*.snap"))[0]
        blob = bytearray(victim.read_bytes())
        blob[16] ^= 0x20
        victim.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["fsck", "--all", str(root)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        assert main(["fsck", "--all", str(tmp_path / "nope")]) == 2

    def test_json_report_validates(self, tmp_path, capsys):
        import json

        root = self._tree(tmp_path)
        capsys.readouterr()
        assert main(["fsck", "--all", str(root), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.integrity/fsck"
        assert doc["ok"] is True
        assert doc["summary"]["damaged"] == 0
        assert {s["kind"] for s in doc["stores"]} >= {
            "checkpoint", "snapshot-catalog"
        }


class TestDetectIntegrity:
    def test_integrity_flag_prints_guard_stats(self, capsys):
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--max-iterations", "3", "--integrity",
        ]) == 0
        out = capsys.readouterr().out
        assert "integrity:" in out
        assert "scrub" in out

    def test_integrity_with_sdc_injection_recovers(self, capsys):
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--max-iterations", "3", "--integrity",
            "--inject-faults", "sdc", "--fault-rate", "1.0",
            "--fault-max-fires", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "integrity:" in out

    def test_without_flag_no_integrity_line(self, capsys):
        assert main([
            "detect", "--dataset", "asia_osm", "--scale", "0.1",
            "--max-iterations", "3",
        ]) == 0
        assert "integrity:" not in capsys.readouterr().out
