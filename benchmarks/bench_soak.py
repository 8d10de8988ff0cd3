"""The five soaks: crashes, kills, corruption and memory pressure.

Each soak runs its seeded schedules through its harness and asserts the
contract every resilience layer sells — strict-LPA determinism (Sahu,
arXiv 2301.09125): a crashed, killed, corrupted or memory-squeezed run
ends bit-identical to a crash-free reference or fails with a typed error,
and is never silently wrong.

* ``chaos`` — :func:`repro.resilience.chaos.run_chaos_soak`: 25 schedules
  of injected device faults plus a crash before, during or after a
  checkpoint write, sometimes with the newest checkpoint corrupted, then
  resume;
* ``service`` — :func:`repro.service.run_service_soak`: 10 kill/restart
  schedules over a four-job workload, plus one clean run's
  ``DetectionService.stats()`` snapshot;
* ``stream`` — :func:`repro.stream.run_stream_soak`: 20 seeds of producer
  and service deaths over a delta log, plus one crash-free stream's
  throughput;
* ``integrity`` — :func:`repro.integrity.run_integrity_soak`: 20 seeds of
  live SDC and at-rest bit rot;
* ``memory`` — :func:`repro.resilience.run_memory_soak`: 20 seeds of OOM
  storms, oversized admissions and budget shrinks.

Each test also checks that its soak exercised something (crashes fired,
deaths landed, corruption detected, OOMs absorbed), validates the report
against its ``repro.observe/<kind>-soak`` spec and writes it to
``BENCH_<kind>_soak.json`` in the working directory.  Graph sizes scale
with ``REPRO_BENCH_SCALE``; schedules derive from ``REPRO_BENCH_SEED``.
Run one soak with ``-k``, e.g.
``PYTHONPATH=src python -m pytest benchmarks/bench_soak.py -k chaos``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LPAConfig
from repro.core.lpa import nu_lpa
from repro.graph.datasets import generate_standin
from repro.graph.generators import web_graph
from repro.integrity import run_integrity_soak
from repro.observe.schema import SOAK_SPECS, validate, validate_service_stats
from repro.observe.trace import Tracer
from repro.resilience import run_chaos_soak, run_memory_soak
from repro.service import DetectionService, JobSpec, ServiceConfig, run_service_soak
from repro.soak import SoakReport, record_dict
from repro.stream import DeltaLog, StreamProcessor, random_delta_batches, run_stream_soak
from repro.stream.soak import BATCH_SIZE, BATCHES, DATASET, HOPS

#: The workload every service schedule replays: mixed datasets and
#: engines, big enough that runs span several checkpoint generations.
SERVICE_WORKLOAD = [
    JobSpec.dataset("svc-0", "asia_osm", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("svc-1", "europe_osm", scale=0.05, max_iterations=12,
                    engine="hashtable"),
    JobSpec.dataset("svc-2", "kmer_V1r", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("svc-3", "asia_osm", scale=0.08, seed=7,
                    max_iterations=12, engine="hashtable"),
]

#: Stream throughput runs on a larger stand-in: at soak scale the
#: per-batch churn touches over half the graph, which hides the
#: warm-start win.
THROUGHPUT_SCALE = 0.2


_CONFIG = LPAConfig(max_iterations=15)


def _web(scale: float, seed: int, vertices: int, floor: int):
    return web_graph(max(floor, int(vertices * scale)), seed=seed)


def _tagged(report: SoakReport, scale: float, seed: int) -> SoakReport:
    report.metadata.update(scale=scale, seed=seed)
    return report


def _chaos(scale: float, seed: int, workdir: Path, n: int) -> SoakReport:
    # ~480 vertices at scale 0.1: runs span several checkpoint generations.
    graph = _web(scale, seed, 4800, 200)
    return _tagged(run_chaos_soak(graph, workdir, schedules=n, seed=seed,
                                  config=_CONFIG), scale, seed)


def _integrity(scale: float, seed: int, workdir: Path, n: int) -> SoakReport:
    graph = _web(scale, seed, 3000, 150)
    return _tagged(run_integrity_soak(graph, workdir, seeds=n, seed=seed,
                                      config=_CONFIG), scale, seed)


def _memory(scale: float, seed: int, workdir: Path, n: int) -> SoakReport:
    graph = _web(scale, seed, 3000, 150)
    return _tagged(run_memory_soak(graph, seeds=n, seed=seed, config=_CONFIG),
                   scale, seed)


def _service(scale: float, seed: int, workdir: Path, n: int) -> SoakReport:
    records = [
        run_service_soak(SERVICE_WORKLOAD, journal_dir=workdir / f"journal-{i}",
                         config=ServiceConfig(workers=2), seed=seed + i)
        for i in range(n)
    ]
    # One clean pass for the stats artifact: the soak exercises recovery,
    # this exercises the observable surface CI archives.
    service = DetectionService(ServiceConfig(workers=2), recover=False)
    for spec in SERVICE_WORKLOAD:
        service.submit(spec)
    service.drain()
    return SoakReport(kind="service", records=records, metadata={
        "seed": seed,
        "jobs_per_schedule": len(SERVICE_WORKLOAD),
        "stats": validate_service_stats(service.stats()),
    })


def _throughput(seed: int, workdir: Path) -> dict:
    """Time one crash-free stream: deltas and epochs per second, the mean
    warm-start frontier, and the speedup over re-detecting from scratch."""
    rng = np.random.default_rng([seed, BATCHES])
    base = generate_standin(DATASET, scale=THROUGHPUT_SCALE, seed=seed)
    batches = random_delta_batches(
        base, rng, num_batches=BATCHES, batch_size=BATCH_SIZE,
        grow_every=max(2, BATCHES // 2),
    )
    log = DeltaLog(workdir / "wal")
    for batch in batches:
        log.append(batch)
    tracer = Tracer()
    processor = StreamProcessor(base, log, workdir / "epochs", hops=HOPS, tracer=tracer)
    processor.recover()
    t0 = time.perf_counter()
    epochs = processor.run_to_head()
    incremental_s = max(time.perf_counter() - t0, 1e-9)

    events = [e for e in tracer if e.kind == "epoch"]
    deltas = sum(e.added + e.removed + e.updated for e in events)
    frontier = float(np.mean([e.frontier_fraction for e in events])) if events else 0.0

    # What a pipeline without warm starts pays: re-detect the final graph
    # once per epoch.
    t0 = time.perf_counter()
    for _ in range(max(epochs, 1)):
        nu_lpa(processor.graph, processor.config, warn_on_no_convergence=False)
    scratch_s = max(time.perf_counter() - t0, 1e-9)
    return {
        "deltas_per_second": deltas / incremental_s,
        "epochs_per_second": epochs / incremental_s,
        "frontier_fraction_mean": frontier,
        "speedup_vs_scratch": scratch_s / incremental_s,
    }


def _stream(scale: float, seed: int, workdir: Path, n: int) -> SoakReport:
    report = run_stream_soak(workdir / "soak", num_seeds=n)
    report.metadata["rates"] = _throughput(seed, workdir / "throughput")
    return report


#: Per soak: the run, its schedule count, and the check that it exercised
#: something (a soak whose crashes all miss proves nothing).
SOAKS = {
    "chaos": dict(
        run=_chaos, schedules=25,
        exercised=lambda rep: rep.totals()["crash(es) fired"] >= len(rep.records) // 2,
    ),
    "service": dict(
        run=_service, schedules=10,
        exercised=lambda rep: all(r.crashes >= 1 for r in rep.records),
    ),
    "stream": dict(
        run=_stream, schedules=20,
        exercised=lambda rep: all(
            r.producer_deaths + r.service_deaths >= 1 for r in rep.records
        ),
    ),
    "integrity": dict(
        run=_integrity, schedules=20,
        exercised=lambda rep: rep.totals()["detection(s)"] >= len(rep.records),
    ),
    "memory": dict(
        run=_memory, schedules=20,
        exercised=lambda rep: (
            rep.totals()["OOM(s) absorbed"] >= len(rep.records)
            and all(r.admission_rejected and r.reconcile_within_tolerance
                    for r in rep.records)
        ),
    ),
}


@pytest.mark.parametrize("kind", SOAKS)
def test_soak(benchmark, bench_scale, bench_seed, tmp_path, kind):
    soak = SOAKS[kind]
    report = benchmark.pedantic(
        soak["run"], args=(bench_scale, bench_seed, tmp_path, soak["schedules"]),
        rounds=1, iterations=1,
    )
    text = json.dumps(report.as_dict(), indent=2) + "\n"
    validate(json.loads(text), SOAK_SPECS[kind], f"{kind}_soak")
    out = Path(f"BENCH_{kind}_soak.json")
    out.write_text(text)

    print(f"\n{kind}: {report.summary()}")
    for record in report.records:
        if not record.ok:
            print(f"  FAILED {json.dumps(record_dict(record))}")
    print(f"report written to {out}")

    assert len(report.records) == soak["schedules"]
    assert soak["exercised"](report), report.summary()
    assert report.ok, report.summary()
