"""Tests for LPAConfig."""

import numpy as np
import pytest

from repro.core.config import LPAConfig, SwapPrevention
from repro.errors import ConfigurationError
from repro.hashing.probing import ProbeStrategy


class TestDefaults:
    def test_paper_defaults(self):
        c = LPAConfig()
        assert c.max_iterations == 20
        assert c.tolerance == 0.05
        assert c.pl_period == 4
        assert c.cc_period is None
        assert c.switch_degree == 32
        assert c.probing is ProbeStrategy.QUADRATIC_DOUBLE
        assert np.dtype(c.value_dtype) == np.dtype(np.float32)
        assert c.pruning

    def test_default_method_is_pick_less(self):
        assert LPAConfig().swap_prevention is SwapPrevention.PICK_LESS


class TestValidation:
    def test_bad_iterations(self):
        with pytest.raises(ConfigurationError):
            LPAConfig(max_iterations=0)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigurationError):
            LPAConfig(tolerance=1.5)

    def test_bad_periods(self):
        with pytest.raises(ConfigurationError):
            LPAConfig(pl_period=0)
        with pytest.raises(ConfigurationError):
            LPAConfig(cc_period=-1)

    def test_bad_dtype(self):
        with pytest.raises(ConfigurationError):
            LPAConfig(value_dtype=np.int32)

    def test_bad_switch_degree(self):
        with pytest.raises(ConfigurationError):
            LPAConfig(switch_degree=-1)


class TestSchedules:
    def test_pl_active_on_multiples(self):
        c = LPAConfig(pl_period=4)
        assert [c.pick_less_active(i) for i in range(6)] == [
            True, False, False, False, True, False,
        ]

    def test_pl_disabled(self):
        c = LPAConfig(pl_period=None)
        assert not any(c.pick_less_active(i) for i in range(10))

    def test_cc_schedule(self):
        c = LPAConfig(pl_period=None, cc_period=2)
        assert [c.cross_check_active(i) for i in range(4)] == [
            True, False, True, False,
        ]


class TestVariants:
    def test_method_classification(self):
        assert LPAConfig(pl_period=None).swap_prevention is SwapPrevention.NONE
        assert (
            LPAConfig(pl_period=None, cc_period=2).swap_prevention
            is SwapPrevention.CROSS_CHECK
        )
        assert (
            LPAConfig(pl_period=3, cc_period=2).swap_prevention
            is SwapPrevention.HYBRID
        )

    def test_describe_labels(self):
        assert LPAConfig().describe() == "PL4"
        assert LPAConfig(pl_period=None, cc_period=2).describe() == "CC2"
        assert LPAConfig(pl_period=1, cc_period=3).describe() == "H(CC3,PL1)"
        assert LPAConfig(pl_period=None).describe() == "none"

    def test_with_updates(self):
        c = LPAConfig().with_(tolerance=0.1)
        assert c.tolerance == 0.1
        assert c.pl_period == 4  # untouched


class TestOptionSurface:
    """Every option is a configuration that must be tested: adding or
    removing one has to show up as an edit here."""

    @staticmethod
    def _flags(command):
        import argparse

        from repro.cli import build_parser

        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return {o for a in sub.choices[command]._actions for o in a.option_strings}

    def test_fields_and_flags_are_pinned(self):
        from dataclasses import fields

        from repro.service import ServiceConfig

        assert [f.name for f in fields(LPAConfig)] == [
            "max_iterations", "tolerance", "pl_period", "cc_period",
            "switch_degree", "probing", "value_dtype", "pruning",
            "shared_memory_tables", "compact_layout", "device",
            "memory_budget_bytes", "reserved_memory_fraction",
        ]
        assert [f.name for f in fields(ServiceConfig)] == [
            "workers", "queue_capacity", "tenant_inflight", "max_attempts",
            "backoff", "breaker", "breaker_enabled", "lpa", "resilience",
            "engine_faults", "journal_dir", "checkpoint_every",
            "checkpoint_keep", "coarsen_target_fraction",
            "default_deadline_s", "retry_after_base_s", "checkpoint_factory",
            "chaos_hook", "stream_differential_every", "snapshot_dir",
            "snapshot_keep", "memory_budget_bytes", "reserved_memory_fraction",
        ]
        assert self._flags("detect") == {
            "-h", "--help", "--input", "--dataset", "--scale", "--seed",
            "--validate", "--engine", "--max-iterations", "--tolerance",
            "--pl-period", "--probing", "--switch-degree",
            "--no-compact-layout", "--output", "--profile", "--trace-out",
            "--checkpoint-dir", "--checkpoint-every", "--resume",
            "--inject-faults", "--fault-rate", "--fault-seed",
            "--fault-max-fires", "--deadline", "--iteration-budget",
            "--gpu-budget", "--integrity", "--memory-budget",
            "--reserved-memory-fraction",
        }
        assert self._flags("serve") == {
            "-h", "--help", "--jobs", "--workers", "--queue-capacity",
            "--tenant-inflight", "--max-attempts", "--seed", "--no-breaker",
            "--journal", "--default-deadline", "--stats-out", "--trace-out",
            "--snapshot-dir", "--snapshot-keep", "--memory-budget",
            "--reserved-memory-fraction",
        }

    @pytest.mark.parametrize("argv", [
        ["detect", "--dataset", "asia_osm", "--persistent-kernel"],
        ["serve", "--jobs", "jobs.json", "--wave-batching"],
    ], ids=["persistent-kernel", "wave-batching"])
    def test_removed_flags_are_usage_errors(self, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
