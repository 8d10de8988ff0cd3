"""The spec-driven validators are no looser than the hand-written ones.

Starting from one valid document of each of the nine kinds (the committed
``BENCH_lpa.json``, ``BENCH_current.json`` and ``BENCH_query.json`` among
them), every required field is dropped, every leaf's type is swapped
(bool for a number included) and every non-negative number is pushed
below zero.  Each mutation must be rejected with an error that names the
mutated path.  Every cross-field rule then gets its own case.
"""

import copy
import json
import re
from pathlib import Path

import pytest

import repro.observe
from repro.core.config import LPAConfig
from repro.core.lpa import nu_lpa
from repro.errors import SchemaValidationError
from repro.graph.generators import web_graph
from repro.integrity import run_integrity_soak
from repro.observe import schema
from repro.observe.schema import (
    BENCH_SPEC,
    PROFILE_SPEC,
    QUERY_BENCH_SPEC,
    SERVICE_SPEC,
    SOAK_SPECS,
    validate,
)
from repro.resilience import run_chaos_soak, run_memory_soak
from repro.service import DetectionService, JobSpec, ServiceConfig, run_service_soak
from repro.soak import SoakReport
from repro.stream import run_stream_soak

ROOT = Path(__file__).resolve().parents[2]


def _json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def _service_stats() -> dict:
    service = DetectionService(ServiceConfig(workers=2), recover=False)
    service.submit(JobSpec.dataset("a", "asia_osm", scale=0.02))
    service.drain()
    return _json(service.stats())


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``name -> (spec, valid document)`` for every document kind."""
    tmp = tmp_path_factory.mktemp("docs")
    graph = web_graph(120, seed=9)
    config = LPAConfig(max_iterations=10)
    profile = nu_lpa(graph, config, engine="hashtable", profile=True,
                     warn_on_no_convergence=False).profile.as_dict()
    service = run_service_soak(
        [JobSpec.dataset("s", "asia_osm", scale=0.02, max_iterations=8)],
        journal_dir=tmp / "journal", config=ServiceConfig(workers=1), seed=1,
    )
    stream = run_stream_soak(tmp / "stream", num_seeds=1)
    stream.metadata["rates"] = {
        "deltas_per_second": 100.0, "epochs_per_second": 10.0,
        "frontier_fraction_mean": 0.4, "speedup_vs_scratch": 1.5,
    }
    soaks = {
        "chaos": run_chaos_soak(graph, tmp / "chaos", schedules=2, seed=5,
                                config=config),
        "service": SoakReport(kind="service", records=[service], metadata={
            "jobs_per_schedule": 1, "stats": _service_stats(),
        }),
        "stream": stream,
        "integrity": run_integrity_soak(graph, tmp / "integrity", seeds=1),
        "memory": run_memory_soak(graph, seeds=1, seed=3, config=config),
    }
    docs = {
        "profile": (PROFILE_SPEC, _json(profile)),
        "BENCH_lpa": (BENCH_SPEC, json.loads((ROOT / "BENCH_lpa.json").read_text())),
        "BENCH_current": (
            BENCH_SPEC, json.loads((ROOT / "BENCH_current.json").read_text())
        ),
        "service": (SERVICE_SPEC, _service_stats()),
        "BENCH_query": (
            QUERY_BENCH_SPEC, json.loads((ROOT / "BENCH_query.json").read_text())
        ),
    }
    for kind, report in soaks.items():
        docs[f"{kind}-soak"] = (SOAK_SPECS[kind], _json(report.as_dict()))
    return docs


DOC_NAMES = [
    "profile", "BENCH_lpa", "BENCH_current", "service", "BENCH_query",
    "chaos-soak", "service-soak", "stream-soak", "integrity-soak", "memory-soak",
]


def _free_form(path: tuple) -> bool:
    """Sub-trees no spec describes: raw fault-rung, guard and governor stats."""
    return path[:1] == ("fault_rungs",) or (
        len(path) >= 3 and path[0] == "records" and path[2] in ("guard", "memory")
    )


def _walk(node, path=()):
    """Yield ``(path, value)`` for every dict entry and list element."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        here = path + (key,)
        if _free_form(here):
            continue
        yield here, value
        if isinstance(value, (dict, list)):
            yield from _walk(value, here)


def _render(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _swaps(value) -> list:
    if isinstance(value, bool):
        return [1, "x"]
    if isinstance(value, (int, float)):
        return [True, "x"]
    if isinstance(value, str):
        return [1, True]
    if value is None:
        return ["x"]
    return []


def _mutations(doc):
    """``(label, path, mutated document)`` for every mutation of ``doc``."""
    for path, value in _walk(doc):
        if isinstance(path[-1], str):
            dropped = copy.deepcopy(doc)
            del _parent(dropped, path)[path[-1]]
            yield "drop", path, dropped
        if isinstance(value, (dict, list)):
            continue
        for swap in _swaps(value):
            swapped = copy.deepcopy(doc)
            _parent(swapped, path)[path[-1]] = swap
            yield f"swap to {swap!r}", path, swapped
        if not isinstance(value, bool) and isinstance(value, (int, float)) and value >= 0:
            negated = copy.deepcopy(doc)
            _parent(negated, path)[path[-1]] = -value - 1
            yield "negate", path, negated


@pytest.mark.parametrize("name", DOC_NAMES)
def test_valid_document_passes(documents, name):
    spec, doc = documents[name]
    assert validate(doc, spec) is doc


@pytest.mark.parametrize("name", DOC_NAMES)
def test_every_mutation_is_rejected_at_its_path(documents, name):
    spec, doc = documents[name]
    missed = []
    count = 0
    for label, path, mutated in _mutations(doc):
        count += 1
        where = _render(path)
        try:
            validate(mutated, spec)
        except SchemaValidationError as exc:
            if not str(exc).startswith(f"{where}:"):
                missed.append(f"{label} {where}: error names another path ({exc})")
        else:
            missed.append(f"{label} {where}: accepted")
    assert count > 10
    assert not missed, missed[:10]


def _set(path: tuple, value):
    def mutate(doc):
        _parent(doc, path)[path[-1]] = value(doc) if callable(value) else value
    return mutate


def _get(doc, path):
    return _parent(doc, path)[path[-1]]


def _flip(path):
    return _set(path, lambda d: not _get(d, path))


def _plus(path, delta, *, of=None):
    return _set(path, lambda d: _get(d, of or path) + delta)


def _batch_one_job(doc):
    doc["batching"].update(batches=1, batched_jobs=1)


def _enable_without_budget(doc):
    doc["memory"].update(enabled=True, budget_bytes=0)


def _extra_bin(doc):
    doc["histograms"]["probes_per_edge"]["counts"].append(0)


def _fit_the_budget(doc):
    record = doc["records"][0]
    assert record["admission_rejected"]
    record["admission_budget_bytes"] = record["admission_estimate_bytes"]


CROSS_FIELD = {
    "depth <= capacity": (
        "service", _plus(("queue", "depth"), 1, of=("queue", "capacity")), "$.queue.depth"),
    "degraded <= completed": (
        "service", _plus(("jobs", "degraded"), 1, of=("jobs", "completed")),
        "$.jobs.degraded"),
    "batched_jobs >= 2 batches": ("service", _batch_one_job, "$.batching.batches"),
    "in_flight <= high_water": (
        "service",
        _plus(("memory", "in_flight_bytes"), 1, of=("memory", "high_water_bytes")),
        "$.memory.in_flight_bytes"),
    "enabled memory admission has a budget": (
        "service", _enable_without_budget, "$.memory.budget_bytes"),
    "p95 >= p50 (service)": (
        "service",
        _plus(("latency", "p50_modeled_s"), 1.0, of=("latency", "p95_modeled_s")),
        "$.latency.p50_modeled_s"),
    "p99 >= p50 (query)": (
        "BENCH_query",
        _plus(("graphs", 0, "ops", "roster", "p50_us"), 1.0,
              of=("graphs", 0, "ops", "roster", "p99_us")),
        "$.graphs[0].ops.roster.p50_us"),
    "op_mix sums to 1": ("BENCH_query", _plus(("op_mix", "roster"), 0.05), "$.op_mix"),
    "per-op counts sum to lookups": ("BENCH_query", _plus(("lookups",), 1), "$.lookups"),
    "slo.met agrees with its inputs": ("BENCH_query", _flip(("slo", "met")), "$.slo.met"),
    "within_tolerance agrees with its inputs": (
        "memory-soak", _flip(("records", 0, "reconcile_within_tolerance")),
        "$.records[0].reconcile_within_tolerance"),
    "rejected implies estimate > budget": (
        "memory-soak", _fit_the_budget, "$.records[0].admission_rejected"),
    "histogram edges = counts + 1": (
        "profile", _extra_bin, "$.histograms.probes_per_edge"),
    "counter key set is fixed": (
        "profile", _set(("counters", "bogus"), 0), "$.counters.bogus"),
    "unique graph names (bench)": (
        "BENCH_lpa", _set(("graphs", 1, "name"), lambda d: d["graphs"][0]["name"]),
        "$.graphs[1].name"),
    "unique graph names (query)": (
        "BENCH_query", _set(("graphs", 1, "name"), lambda d: d["graphs"][0]["name"]),
        "$.graphs[1].name"),
    "records = num_seeds": ("stream-soak", _plus(("num_seeds",), 1), "$.records"),
    "identical <= jobs": (
        "service-soak", _plus(("records", 0, "identical"), 1),
        "$.records[0].identical"),
}


@pytest.mark.parametrize("rule", CROSS_FIELD)
def test_cross_field_rule(documents, rule):
    name, mutate, where = CROSS_FIELD[rule]
    spec, doc = documents[name]
    mutated = copy.deepcopy(doc)
    mutate(mutated)
    with pytest.raises(SchemaValidationError, match=f"^{re.escape(where)}:"):
        validate(mutated, spec)


@pytest.mark.parametrize("name", schema.__all__)
def test_every_schema_name_imports_from_repro_observe(name):
    assert name in repro.observe.__all__
    assert getattr(repro.observe, name) is getattr(schema, name)
