"""Smoke test of the benchmark at a tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced, each in a fresh
process as the benchmark is meant to be run.  Every metric of
``BENCHMARK.json`` must come out with its unit and zero failed ops, and
the traced run's per-layer self times plus the unattributed remainder
must add up to the traced op time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER, WRAPS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 100
    return result


def test_per_layer_spec_matches_layer_map():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit) for m in PER_LAYER
    ]
    # Every wrapped span is reported, so self times can sum to the op.
    sources = {m.source for m in PER_LAYER if m.kind != "derived"}
    assert {name for _, _, name in WRAPS} <= sources


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, metric in metrics.items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_and_reconciles(workload):
    metrics = _result(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    op_self = sum(
        metrics[m.name]["value"] for m in PER_LAYER if m.kind == "op_self"
    )
    unattributed = metrics["trace.unattributed_s"]["value"]
    assert op_self + unattributed == pytest.approx(
        metrics["trace.op_s"]["value"], rel=1e-9
    )
    if workload == "stream-query":
        assert metrics["stream.applies_per_epoch"]["value"] > 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
