"""Read-path latency benchmark: zipfian lookups against published snapshots.

Simulates a serving workload over the :mod:`repro.service.read` stack:
two graph sizes at least 10x apart, each with published snapshot versions,
hammered with a mixed membership/roster/diff op stream whose vertex (and
community) popularity follows a zipf law — the hot-key skew a real
membership service sees.  Readers are *cooperative* contexts (own
:class:`~repro.service.read.QueryEngine`, own RNG, round-robin interleave),
matching the deterministic single-thread execution idiom the service layer
uses everywhere else.

Latencies are recorded per op with ``perf_counter_ns`` into preallocated
arrays (gc disabled during measurement).  The report asserts two
contracts and writes the schema-validated document to ``BENCH_query.json``
(override via ``REPRO_QUERY_OUT``):

* **SLO** — worst-graph membership p99 under the budget
  (``REPRO_QUERY_SLO_P99_US``, default 250 us);
* **flatness** — membership p50 on the large graph within a small factor
  of the small graph's (O(1) reads cannot scale with graph size).

``REPRO_QUERY_LOOKUPS`` (default 1,000,000) sizes the run; CI runs
reduced.  ``pytest --query-check [PATH]`` gates against a committed
baseline instead of overwriting it (see
:func:`repro.perf.baseline.compare_query_to_baseline`).
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.observe.schema import (
    QUERY_BENCH_SCHEMA,
    QUERY_BENCH_SCHEMA_VERSION,
    validate_query_bench,
)
from repro.service.read import QueryEngine, SnapshotCatalog

#: (name, num_vertices) — the large graph must be >= 10x the small one
#: for the flatness check to mean anything.
GRAPHS = (("serve_small", 50_000), ("serve_large", 500_000))

#: Vertices per community (keeps roster outputs serving-sized).
COMMUNITY_FILL = 50

#: Op mix: memberships dominate real serving load; diffs are rare but
#: priced honestly (each one lists the job's versions, re-checks the
#: served newest version in place, and opens and CRC-verifies the older
#: one, which no reader here has served).
OP_MIX = {"membership": 0.899, "roster": 0.1, "diff": 0.001}

ZIPF_S = 1.1

#: Worst-graph membership p99 budget (microseconds).
DEFAULT_SLO_P99_US = 250.0

#: Large/small membership p50 ratio bound for the O(1) flatness check.
FLATNESS_BOUND = 3.0

_OPS = ("membership", "roster", "diff")


def _zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_S
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _make_labels(n: int, communities: int, rng) -> np.ndarray:
    labels = rng.integers(0, communities, size=n).astype(np.int64)
    labels[:communities] = np.arange(communities)  # every community occupied
    return labels


def _publish_graph(catalog: SnapshotCatalog, name: str, n: int, rng):
    communities = max(1, n // COMMUNITY_FILL)
    labels = _make_labels(n, communities, rng)
    catalog.publish(name, labels)
    churned = labels.copy()
    moved = rng.integers(0, n, size=max(1, n // 100))
    churned[moved] = rng.integers(0, communities, size=moved.shape[0])
    catalog.publish(name, churned)
    return communities


def _reader_plan(rng, count: int, n: int, communities: int):
    """Precompute one reader's op sequence and zipfian keys."""
    ops = rng.choice(len(_OPS), size=count, p=[OP_MIX[o] for o in _OPS])
    vertex_cdf = _zipf_cdf(n)
    comm_cdf = _zipf_cdf(communities)
    vertices = np.searchsorted(vertex_cdf, rng.random(count)).astype(np.int64)
    comms = np.searchsorted(comm_cdf, rng.random(count)).astype(np.int64)
    return ops, vertices, comms


def _measure_graph(
    catalog: SnapshotCatalog, name: str, n: int, communities: int,
    lookups: int, readers: int, seed: int,
) -> dict:
    """Run one graph's share of the load; returns its report row."""
    per_reader = [lookups // readers] * readers
    per_reader[0] += lookups - sum(per_reader)
    contexts = []
    for r, count in enumerate(per_reader):
        rng = np.random.default_rng([seed, n, r])
        engine = QueryEngine(catalog)
        engine.refresh(name)  # hot path never stats the directory
        contexts.append((engine, *_reader_plan(rng, count, n, communities)))

    lat = {op: [np.empty(c, dtype=np.int64) for c in per_reader]
           for op in _OPS}
    fill = {op: [0] * readers for op in _OPS}

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Round-robin chunk interleave across reader contexts: concurrent
        # access pattern, deterministic schedule.
        chunk = 1024
        cursors = [0] * readers
        live = True
        while live:
            live = False
            for r, (engine, ops, vertices, comms) in enumerate(contexts):
                lo = cursors[r]
                hi = min(lo + chunk, ops.shape[0])
                if lo >= hi:
                    continue
                live = True
                cursors[r] = hi
                for i in range(lo, hi):
                    op = _OPS[ops[i]]
                    if op == "membership":
                        t0 = time.perf_counter_ns()
                        engine.membership(name, int(vertices[i]))
                        dt = time.perf_counter_ns() - t0
                    elif op == "roster":
                        t0 = time.perf_counter_ns()
                        engine.roster(name, int(comms[i]))
                        dt = time.perf_counter_ns() - t0
                    else:
                        t0 = time.perf_counter_ns()
                        engine.diff(name)
                        dt = time.perf_counter_ns() - t0
                    slot = fill[op][r]
                    lat[op][r][slot] = dt
                    fill[op][r] = slot + 1
    finally:
        if gc_was_enabled:
            gc.enable()
    for engine, *_ in contexts:
        engine.close()

    ops_doc = {}
    for op in _OPS:
        merged = np.concatenate([
            arr[:used] for arr, used in zip(lat[op], fill[op])
        ]) if any(fill[op]) else np.empty(0, dtype=np.int64)
        if merged.size:
            us = merged / 1000.0
            ops_doc[op] = {
                "count": int(merged.size),
                "p50_us": float(np.percentile(us, 50)),
                "p99_us": float(np.percentile(us, 99)),
                "mean_us": float(us.mean()),
            }
        else:
            ops_doc[op] = {
                "count": 0, "p50_us": 0.0, "p99_us": 0.0, "mean_us": 0.0,
            }

    versions = catalog.versions(name)
    return {
        "name": name,
        "num_vertices": n,
        "num_communities": communities,
        "snapshot_bytes": int(versions[-1].stat().st_size),
        "versions": len(versions),
        "ops": ops_doc,
    }


def run_query_bench(workdir: Path, *, lookups: int, readers: int,
                    seed: int) -> dict:
    """Publish the snapshot fixtures, run the load, build the document."""
    catalog = SnapshotCatalog(workdir / "snapshots")
    rng = np.random.default_rng(seed)
    communities = {
        name: _publish_graph(catalog, name, n, rng) for name, n in GRAPHS
    }

    share = [lookups // len(GRAPHS)] * len(GRAPHS)
    share[0] += lookups - sum(share)
    graphs = [
        _measure_graph(
            catalog, name, n, communities[name], share[i], readers, seed,
        )
        for i, (name, n) in enumerate(GRAPHS)
    ]

    budget = float(os.environ.get("REPRO_QUERY_SLO_P99_US",
                                  DEFAULT_SLO_P99_US))
    worst = max(g["ops"]["membership"]["p99_us"] for g in graphs)
    small, large = graphs[0], graphs[-1]
    small_p50 = small["ops"]["membership"]["p50_us"]
    p50_ratio = (
        large["ops"]["membership"]["p50_us"] / small_p50
        if small_p50 > 0 else 1.0
    )

    return validate_query_bench({
        "schema": QUERY_BENCH_SCHEMA,
        "version": QUERY_BENCH_SCHEMA_VERSION,
        "seed": seed,
        "lookups": lookups,
        "readers": readers,
        "zipf_s": ZIPF_S,
        "op_mix": dict(OP_MIX),
        "graphs": graphs,
        "slo": {
            "membership_p99_us": budget,
            "worst_membership_p99_us": worst,
            "met": worst <= budget,
        },
        "flatness": {
            "small_graph": small["name"],
            "large_graph": large["name"],
            "vertex_ratio": large["num_vertices"] / small["num_vertices"],
            "membership_p50_ratio": p50_ratio,
            "bound": FLATNESS_BOUND,
            "met": p50_ratio <= FLATNESS_BOUND,
        },
    })


def test_query_latency(benchmark, bench_seed, tmp_path, query_check_path):
    lookups = int(os.environ.get("REPRO_QUERY_LOOKUPS", 1_000_000))
    readers = int(os.environ.get("REPRO_QUERY_READERS", 4))
    doc = benchmark.pedantic(
        run_query_bench,
        args=(tmp_path / "query",),
        kwargs={"lookups": lookups, "readers": readers, "seed": bench_seed},
        rounds=1,
        iterations=1,
    )

    print()
    print(f"{'graph':>12s} {'vertices':>9s} {'op':>11s} {'count':>8s} "
          f"{'p50us':>8s} {'p99us':>8s} {'meanus':>8s}")
    for g in doc["graphs"]:
        for op in _OPS:
            o = g["ops"][op]
            print(f"{g['name']:>12s} {g['num_vertices']:9d} {op:>11s} "
                  f"{o['count']:8d} {o['p50_us']:8.2f} {o['p99_us']:8.2f} "
                  f"{o['mean_us']:8.2f}")
    slo = doc["slo"]
    flat = doc["flatness"]
    print(f"SLO: membership p99 {slo['worst_membership_p99_us']:.2f}us "
          f"vs budget {slo['membership_p99_us']:.2f}us -> "
          f"{'MET' if slo['met'] else 'MISSED'}")
    print(f"flatness: p50 ratio {flat['membership_p50_ratio']:.2f} "
          f"(bound {flat['bound']:.1f}, {flat['vertex_ratio']:.0f}x "
          f"vertices) -> {'MET' if flat['met'] else 'MISSED'}")

    if query_check_path is not None:
        from repro.perf.baseline import compare_query_to_baseline

        baseline = json.loads(Path(query_check_path).read_text())
        Path("BENCH_query_current.json").write_text(
            json.dumps(doc, indent=2) + "\n"
        )
        problems = compare_query_to_baseline(doc, baseline)
        assert not problems, "query regression gate failed:\n" + "\n".join(
            f"  - {p}" for p in problems
        )
    else:
        out = Path(os.environ.get("REPRO_QUERY_OUT", "BENCH_query.json"))
        out.write_text(json.dumps(doc, indent=2) + "\n")

    assert doc["slo"]["met"], (
        f"membership p99 {slo['worst_membership_p99_us']:.2f}us exceeds "
        f"the {slo['membership_p99_us']:.2f}us budget"
    )
    assert doc["flatness"]["met"], (
        f"membership p50 grew {flat['membership_p50_ratio']:.2f}x from "
        f"{flat['small_graph']} to {flat['large_graph']} — reads are not "
        f"O(1)"
    )
