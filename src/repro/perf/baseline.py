"""Benchmark-baseline comparison: the perf regression gate.

``BENCH_lpa.json`` carries two families of numbers per Table-1 stand-in:

* ``modeled_seconds`` — the cost model's output.  Deterministic for a
  given ``(scale, seed)``, so any drift is a real accounting change and
  is gated per graph;
* ``wall_seconds`` — measured vectorized-engine wall clock.  Machine
  dependent, so every document also records ``calibration_seconds``, the
  duration of a fixed NumPy micro-workload shaped like the hot path
  (sort, gather, segmented reduce, prefix sum).  Wall clocks are gated on
  the *calibration-normalised total*: ``sum(wall) / calibration`` is a
  machine-free throughput figure comparable across hosts.  Schema v3
  adds ``wall_seconds_hashtable`` (the ν-LPA hashtable engine) gated the
  same way, so regressions on the fused-sweep hot path fail CI too.

Each graph row also pins its ``iterations`` and summed kernel
``counters``; they are deterministic too, so both must match the
baseline exactly — a host-time optimisation that changes either has
changed what the engine computes.

:func:`compare_to_baseline` returns a list of regression messages; an
empty list is a pass.  CI fails the ``perf-gate`` job on any message.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = [
    "measure_calibration",
    "compare_to_baseline",
    "compare_query_to_baseline",
]

#: Size of the calibration micro-workload (entries); large enough to be
#: memory-bound like a real wave, small enough to run in milliseconds.
_CALIBRATION_SIZE = 200_000


def _calibration_round(size: int) -> None:
    """One round of hot-path-shaped work on deterministic data."""
    rng = np.random.default_rng(12345)
    comp = rng.integers(0, size, size, dtype=np.int64)
    perm = np.empty(size, dtype=np.int64)
    vals = rng.random(size, dtype=np.float32)
    gathered = np.empty(size, dtype=np.float32)
    comp.sort()
    np.bitwise_and(comp, size - 1, out=perm)
    np.take(vals, perm, out=gathered, mode="clip")
    starts = np.arange(0, size, 64, dtype=np.int64)
    sums = np.empty(starts.shape[0], dtype=np.float32)
    np.add.reduceat(gathered, starts, out=sums)
    np.cumsum(comp, out=comp)


def measure_calibration(repeats: int = 5, size: int = _CALIBRATION_SIZE) -> float:
    """Best-of-``repeats`` seconds for the calibration workload.

    Best-of (not mean) so a background scheduling hiccup cannot inflate
    the figure; the first, cache-cold round is warm-up and never counted.
    """
    _calibration_round(size)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_round(size)
        best = min(best, time.perf_counter() - t0)
    return best


def _relative_increase(current: float, baseline: float) -> float:
    if baseline <= 0:
        return 0.0
    return current / baseline - 1.0


def compare_to_baseline(
    current: dict,
    baseline: dict,
    *,
    model_tolerance: float = 0.10,
    wall_tolerance: float = 0.10,
) -> list[str]:
    """Regressions of ``current`` vs ``baseline``; empty list = pass.

    Modelled seconds are compared per graph (deterministic, so the
    tolerance only absorbs float formatting), and so are iteration counts
    and kernel counters, exactly, wherever the baseline records them;
    wall clock is compared on the calibration-normalised suite total (see
    module docstring).  Improvements never fail the gate.
    """
    problems: list[str] = []
    for key in ("scale", "seed", "engine"):
        if current.get(key) != baseline.get(key):
            problems.append(
                f"baseline mismatch: {key} differs "
                f"(current {current.get(key)!r}, baseline {baseline.get(key)!r}); "
                f"refresh the baseline before gating"
            )
    if problems:
        return problems

    base_rows = {g["name"]: g for g in baseline["graphs"]}
    for g in current["graphs"]:
        ref = base_rows.get(g["name"])
        if ref is None:
            problems.append(f"{g['name']}: missing from baseline")
            continue
        inc = _relative_increase(g["modeled_seconds"], ref["modeled_seconds"])
        if inc > model_tolerance:
            problems.append(
                f"{g['name']}: modelled seconds regressed {inc:+.1%} "
                f"({ref['modeled_seconds']:.6f}s -> {g['modeled_seconds']:.6f}s)"
            )
        if "iterations" in ref and g.get("iterations") != ref["iterations"]:
            problems.append(
                f"{g['name']}: iterations changed "
                f"({ref['iterations']} -> {g.get('iterations')})"
            )
        if "counters" in ref:
            counters = g.get("counters", {})
            drifted = sorted(
                name for name in set(ref["counters"]) | set(counters)
                if counters.get(name) != ref["counters"].get(name)
            )
            if drifted:
                problems.append(
                    f"{g['name']}: kernel counters changed: " + ", ".join(
                        f"{name} {ref['counters'].get(name)} -> "
                        f"{counters.get(name)}" for name in drifted
                    )
                )
    missing = set(base_rows) - {g["name"] for g in current["graphs"]}
    for name in sorted(missing):
        problems.append(f"{name}: present in baseline but not in current run")

    cur_cal = current.get("calibration_seconds")
    base_cal = baseline.get("calibration_seconds")
    if cur_cal and base_cal:
        cur_wall = sum(g.get("wall_seconds", 0.0) for g in current["graphs"])
        base_wall = sum(g.get("wall_seconds", 0.0) for g in base_rows.values())
        inc = _relative_increase(cur_wall / cur_cal, base_wall / base_cal)
        if inc > wall_tolerance:
            problems.append(
                f"suite wall clock regressed {inc:+.1%} "
                f"(calibration-normalised: "
                f"{base_wall / base_cal:.2f} -> {cur_wall / cur_cal:.2f})"
            )
        # Schema v3 adds the hashtable engine's wall clock; skip the gate
        # against pre-v3 baselines that never recorded it.
        cur_ht = sum(g.get("wall_seconds_hashtable", 0.0) for g in current["graphs"])
        base_ht = sum(
            g.get("wall_seconds_hashtable", 0.0) for g in base_rows.values()
        )
        if cur_ht and base_ht:
            inc = _relative_increase(cur_ht / cur_cal, base_ht / base_cal)
            if inc > wall_tolerance:
                problems.append(
                    f"hashtable suite wall clock regressed {inc:+.1%} "
                    f"(calibration-normalised: "
                    f"{base_ht / base_cal:.2f} -> {cur_ht / cur_cal:.2f})"
                )
    return problems


def compare_query_to_baseline(
    current: dict,
    baseline: dict,
    *,
    headroom: float = 4.0,
) -> list[str]:
    """Regressions of a query-bench run vs its baseline; empty = pass.

    Query latencies are raw wall clock, so cross-machine comparison needs
    slack: a graph's membership/roster p99 only fails when it exceeds
    *both* the absolute SLO budget and ``headroom`` times the baseline p99
    for the same (graph, op).  The SLO and flatness booleans of the
    current run are hard gates regardless of the baseline.
    """
    problems: list[str] = []
    for key in ("seed", "zipf_s", "op_mix"):
        if current.get(key) != baseline.get(key):
            problems.append(
                f"baseline mismatch: {key} differs "
                f"(current {current.get(key)!r}, baseline {baseline.get(key)!r}); "
                f"refresh the baseline before gating"
            )
    if problems:
        return problems

    if not current["slo"]["met"]:
        problems.append(
            f"membership p99 SLO missed: "
            f"{current['slo']['worst_membership_p99_us']:.2f}us over the "
            f"{current['slo']['membership_p99_us']:.2f}us budget"
        )
    if not current["flatness"]["met"]:
        problems.append(
            f"flatness missed: membership p50 ratio "
            f"{current['flatness']['membership_p50_ratio']:.2f} exceeds "
            f"bound {current['flatness']['bound']:.2f}"
        )

    budget = current["slo"]["membership_p99_us"]
    base_rows = {g["name"]: g for g in baseline["graphs"]}
    for g in current["graphs"]:
        ref = base_rows.get(g["name"])
        if ref is None:
            problems.append(f"{g['name']}: missing from baseline")
            continue
        for op in ("membership", "roster"):
            cur_p99 = g["ops"][op]["p99_us"]
            base_p99 = ref["ops"][op]["p99_us"]
            ceiling = max(budget, base_p99 * headroom)
            if cur_p99 > ceiling:
                problems.append(
                    f"{g['name']}/{op}: p99 regressed "
                    f"{base_p99:.2f}us -> {cur_p99:.2f}us "
                    f"(ceiling {ceiling:.2f}us = max(SLO, {headroom:.0f}x "
                    f"baseline))"
                )
    missing = set(base_rows) - {g["name"] for g in current["graphs"]}
    for name in sorted(missing):
        problems.append(f"{name}: present in baseline but not in current run")
    return problems
