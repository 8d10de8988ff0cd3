"""Tests for checkpoint/resume: format, digests, and bit-identical resume."""

import numpy as np
import pytest

from repro.container import HEADER_AT
from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.core.result import IterationStats
from repro.errors import CheckpointCorruptError, CheckpointError
from repro.graph.generators import web_graph
from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointState,
    fsck,
    preflight_resume,
    run_digest,
)
from repro.resilience.faults import FaultSpec


@pytest.fixture
def graph():
    return web_graph(900, avg_degree=6, seed=23)


def ckpt_config(tmp_path, *, resume=False, every=1, faults=None):
    return ResilienceConfig(
        checkpoint_dir=tmp_path / "ckpt",
        checkpoint_every=every,
        resume=resume,
        faults=faults,
    )


class TestFormat:
    def test_save_load_roundtrip(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        state = CheckpointState(
            labels=np.array([3, 1, 4, 1, 5], dtype=np.int64),
            flags=np.array([1, 0, 1, 0, 1], dtype=np.uint8),
            iteration=7,
            digest="abc123",
            converged=True,
            stats=[
                IterationStats(
                    iteration=0, changed=5, processed=5,
                    pick_less=False, cross_check=False, reverted=1,
                )
            ],
            injector_fires=3,
            last_pl_fraction=0.25,
            capacity_scale=2,
        )
        path = mgr.save(state)
        assert path.name == "ckpt-000007.ckpt"
        loaded = CheckpointManager.load(path)
        assert np.array_equal(loaded.labels, state.labels)
        assert np.array_equal(loaded.flags, state.flags)
        assert loaded.iteration == 7
        assert loaded.digest == "abc123"
        assert loaded.converged is True
        assert loaded.injector_fires == 3
        assert loaded.last_pl_fraction == 0.25
        assert loaded.capacity_scale == 2
        assert len(loaded.stats) == 1
        assert loaded.stats[0].changed == 5
        assert loaded.stats[0].reverted == 1

    def test_no_tmp_files_left_behind(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(CheckpointState(
            labels=np.zeros(3, dtype=np.int64),
            flags=np.zeros(3, dtype=np.uint8),
            iteration=1, digest="d",
        ))
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt-000001.ckpt"]

    def test_latest_picks_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for it in (1, 2, 10):
            mgr.save(CheckpointState(
                labels=np.full(2, it, dtype=np.int64),
                flags=np.zeros(2, dtype=np.uint8),
                iteration=it, digest="d",
            ))
        latest = mgr.latest()
        assert latest.iteration == 10

    def test_empty_dir_has_no_latest(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_corrupt_file_raises(self, tmp_path):
        bad = tmp_path / "ckpt-000001.ckpt"
        bad.write_bytes(b"not an npz file")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointManager.load(bad)

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, every=0)

    def test_due_respects_interval(self, tmp_path):
        mgr = CheckpointManager(tmp_path, every=3)
        assert [i for i in range(1, 10) if mgr.due(i)] == [3, 6, 9]


def make_state(iteration, n=4, fill=0):
    return CheckpointState(
        labels=np.full(n, fill, dtype=np.int64),
        flags=np.zeros(n, dtype=np.uint8),
        iteration=iteration,
        digest="d",
    )


class TestDurability:
    def test_crc_mismatch_detected(self, tmp_path):
        path = CheckpointManager(tmp_path).save(make_state(1, fill=7))
        blob = bytearray(path.read_bytes())
        # flip bytes in the middle of the container — lands in a section
        # or the header, each covered by its own CRC32
        mid = len(blob) // 2
        for i in range(mid, mid + 16):
            blob[i] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC32|unreadable"):
            CheckpointManager.load(path)

    def test_truncated_file_is_checkpoint_error(self, tmp_path):
        path = CheckpointManager(tmp_path).save(make_state(1))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            CheckpointManager.load(path)

    @pytest.mark.parametrize("damage, reason", [
        ("truncated-header", "truncated header"),
        ("foreign-magic", "bad magic"),
    ])
    def test_container_damage_is_checkpoint_error(self, tmp_path, damage, reason):
        path = CheckpointManager(tmp_path).save(make_state(1))
        blob = path.read_bytes()
        if damage == "truncated-header":
            blob = blob[:HEADER_AT + 5]
        else:
            blob = b"PK\x03\x04" + blob[4:]  # a zip (npz) local header
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=f"unreadable.*{reason}"):
            CheckpointManager.load(path)

    def test_latest_falls_back_past_corrupt_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for it in (1, 2, 3):
            mgr.save(make_state(it, fill=it))
        newest = tmp_path / "ckpt-000003.ckpt"
        newest.write_bytes(b"torn")
        latest = mgr.latest()
        assert latest.iteration == 2
        assert latest.labels[0] == 2
        assert [p.name for p, _ in mgr.skipped] == ["ckpt-000003.ckpt"]

    def test_latest_none_when_every_generation_corrupt(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for it in (1, 2):
            mgr.save(make_state(it)).write_bytes(b"x")
        assert mgr.latest() is None
        assert len(mgr.skipped) == 2

    def test_keep_ring_bounds_directory(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=2)
        for it in range(1, 7):
            mgr.save(make_state(it))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-000005.ckpt", "ckpt-000006.ckpt"]

    def test_prune_never_fsyncs_the_directory(self, tmp_path, monkeypatch):
        import os

        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        mgr = CheckpointManager(tmp_path, keep=3)
        for it in (1, 2, 3):
            mgr.save(make_state(it))
        # Nothing pruned: the temp file and the rename, per save.
        assert len(calls) == 3 * 2
        mgr.save(make_state(4))
        # One superseded checkpoint unlinked, and still two fsyncs.
        assert len(calls) == 4 * 2
        assert len(mgr.checkpoints()) == 3

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, keep=0)

    def test_run_respects_keep(self, tmp_path, graph):
        nu_lpa(
            graph, LPAConfig(max_iterations=5), engine="vectorized",
            resilience=ResilienceConfig(
                checkpoint_dir=tmp_path / "ckpt", checkpoint_keep=2,
            ),
            warn_on_no_convergence=False,
        )
        assert len(list((tmp_path / "ckpt").glob("ckpt-*.ckpt"))) <= 2

    def test_resume_survives_corrupt_newest(self, tmp_path, graph):
        """Acceptance scenario: corrupting the newest checkpoint makes the
        next resume recover from the previous generation, not raise."""
        baseline = nu_lpa(graph, engine="hashtable", warn_on_no_convergence=False)
        nu_lpa(
            graph, LPAConfig(max_iterations=3), engine="hashtable",
            resilience=ckpt_config(tmp_path), warn_on_no_convergence=False,
        )
        newest = sorted((tmp_path / "ckpt").glob("ckpt-*.ckpt"))[-1]
        newest.write_bytes(newest.read_bytes()[:64])
        resumed = nu_lpa(
            graph, engine="hashtable",
            resilience=ckpt_config(tmp_path, resume=True),
            warn_on_no_convergence=False,
        )
        assert resumed.resumed_from == 2
        assert np.array_equal(resumed.labels, baseline.labels)


class TestFsck:
    def test_reports_ok_corrupt_and_stale(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(make_state(1))
        mgr.save(make_state(2)).write_bytes(b"rot")
        (tmp_path / ".tmp-12345.npz").write_bytes(b"partial")
        entries = fsck(tmp_path)
        statuses = {e.path.name: e.status for e in entries}
        assert statuses == {
            ".tmp-12345.npz": "stale-tmp",
            "ckpt-000001.ckpt": "ok",
            "ckpt-000002.ckpt": "corrupt",
        }
        ok = [e for e in entries if e.status == "ok"][0]
        assert ok.iteration == 1
        assert ok.digest == "d"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            fsck(tmp_path / "nope")

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        mgr = CheckpointManager(tmp_path)
        mgr.save(make_state(1))
        assert main(["ckpt", "fsck", str(tmp_path)]) == 0
        mgr.save(make_state(2)).write_bytes(b"rot")
        assert main(["ckpt", "fsck", str(tmp_path)]) == 1
        assert main(["ckpt", "fsck", str(tmp_path), "--delete"]) == 0
        assert main(["ckpt", "fsck", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out and "deleted" in out


class TestEarlierLayout:
    """A directory of an earlier build's npz checkpoints is refused by
    name, never read and never mistaken for an empty directory."""

    def _npz_tree(self, tmp_path):
        for it in (1, 2):
            with open(tmp_path / f"ckpt-{it:06d}.npz", "wb") as fh:
                np.savez(fh, labels=np.zeros(3, dtype=np.int64))
        return tmp_path

    def test_preflight_names_the_old_layout(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="npz layout") as info:
            preflight_resume(self._npz_tree(tmp_path))
        assert "ckpt-000002.npz" in str(info.value)
        assert len(info.value.reasons) == 2

    def test_fsck_reports_old_files_as_corrupt(self, tmp_path):
        from repro.integrity import fsck_all

        entries = fsck(self._npz_tree(tmp_path))
        assert {e.path.name: e.status for e in entries} == {
            "ckpt-000001.npz": "corrupt", "ckpt-000002.npz": "corrupt",
        }
        assert "earlier build" in entries[0].detail
        assert fsck_all(tmp_path).exit_code == 1

    def test_lenient_resume_starts_fresh(self, tmp_path):
        assert CheckpointManager(self._npz_tree(tmp_path)).latest() is None


class TestRunDigest:
    def test_stable(self, graph):
        cfg = LPAConfig()
        assert run_digest(graph, cfg, "hashtable") == run_digest(graph, cfg, "hashtable")

    def test_engine_changes_digest(self, graph):
        cfg = LPAConfig()
        assert run_digest(graph, cfg, "hashtable") != run_digest(graph, cfg, "vectorized")

    def test_config_changes_digest(self, graph):
        assert run_digest(graph, LPAConfig(), "v") != run_digest(
            graph, LPAConfig(tolerance=0.01), "v"
        )

    def test_default_digest_is_pinned(self, graph):
        # Default runs keep the digest their checkpoints carry.
        assert run_digest(graph, LPAConfig(), "hashtable") == "da3a115fb816ccc8"

    def test_max_iterations_excluded(self, graph):
        # a killed run may legitimately be resumed with a higher cap
        assert run_digest(graph, LPAConfig(max_iterations=3), "v") == run_digest(
            graph, LPAConfig(max_iterations=50), "v"
        )


class TestResume:
    def test_interrupted_run_resumes_bit_identical(self, tmp_path, graph):
        baseline = nu_lpa(graph, engine="hashtable", warn_on_no_convergence=False)

        # "kill" the run after 3 iterations by capping it
        nu_lpa(
            graph, LPAConfig(max_iterations=3), engine="hashtable",
            resilience=ckpt_config(tmp_path), warn_on_no_convergence=False,
        )
        resumed = nu_lpa(
            graph, engine="hashtable",
            resilience=ckpt_config(tmp_path, resume=True),
            warn_on_no_convergence=False,
        )
        assert resumed.resumed_from == 3
        assert np.array_equal(resumed.labels, baseline.labels)
        assert resumed.converged == baseline.converged
        assert resumed.num_iterations == baseline.num_iterations
        assert [s.changed for s in resumed.iterations] == [
            s.changed for s in baseline.iterations
        ]

    def test_faulted_interrupted_resume_equals_clean_run(self, tmp_path, graph):
        """Acceptance scenario: overflow-faulted, checkpointed, killed,
        resumed — final membership bit-identical to an uninterrupted
        un-faulted run."""
        clean = nu_lpa(graph, engine="vectorized", warn_on_no_convergence=False)
        faults = FaultSpec(kinds=("overflow",), rate=1.0, seed=5)
        nu_lpa(
            graph, LPAConfig(max_iterations=2), engine="hashtable",
            resilience=ckpt_config(tmp_path, faults=faults),
            warn_on_no_convergence=False,
        )
        resumed = nu_lpa(
            graph, engine="hashtable",
            resilience=ckpt_config(tmp_path, resume=True, faults=faults),
            warn_on_no_convergence=False,
        )
        assert resumed.resumed_from == 2
        assert resumed.degraded
        assert np.array_equal(resumed.labels, clean.labels)

    def test_resume_from_converged_checkpoint_skips_loop(self, tmp_path, graph):
        first = nu_lpa(
            graph, engine="vectorized", resilience=ckpt_config(tmp_path),
        )
        resumed = nu_lpa(
            graph, engine="vectorized",
            resilience=ckpt_config(tmp_path, resume=True),
        )
        assert resumed.converged
        assert resumed.num_iterations == first.num_iterations
        assert np.array_equal(resumed.labels, first.labels)

    def test_resume_empty_dir_starts_fresh(self, tmp_path, graph):
        r = nu_lpa(
            graph, engine="vectorized",
            resilience=ckpt_config(tmp_path, resume=True),
        )
        assert r.resumed_from is None
        assert r.converged

    def test_digest_mismatch_refuses(self, tmp_path, graph):
        nu_lpa(
            graph, LPAConfig(max_iterations=2), engine="hashtable",
            resilience=ckpt_config(tmp_path), warn_on_no_convergence=False,
        )
        with pytest.raises(CheckpointError, match="different run"):
            nu_lpa(
                graph, engine="vectorized",  # different engine than checkpoint
                resilience=ckpt_config(tmp_path, resume=True),
            )

    def test_renumbered_run_checkpoint_refuses(self, tmp_path, graph):
        # Runs that renumbered vertices by degree stamped their checkpoints
        # with this digest (labels in the permuted vertex space); no config
        # produces it any more, so resuming one must refuse, not mix spaces.
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(CheckpointState(
            labels=np.arange(graph.num_vertices, dtype=np.int64),
            flags=np.ones(graph.num_vertices, dtype=np.uint8),
            iteration=2,
            digest="ab7e63e34ac2cec2",
        ))
        with pytest.raises(CheckpointError, match="different run"):
            nu_lpa(
                graph, engine="hashtable",
                resilience=ckpt_config(tmp_path, resume=True),
            )

    def test_checkpoint_every_writes_fewer_files(self, tmp_path, graph):
        nu_lpa(
            graph, LPAConfig(max_iterations=4), engine="vectorized",
            resilience=ckpt_config(tmp_path, every=2),
            warn_on_no_convergence=False,
        )
        names = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
        # boundaries 2 and 4 are due; convergence may add a final one
        assert "ckpt-000002.ckpt" in names
        assert "ckpt-000001.ckpt" not in names
