"""Versioned JSON schemas for profiles, traces, benchmarks and soak reports.

Each document kind is a *spec*: a plain dict read by one dependency-free
walker, :func:`validate` (the toolchain has no ``jsonschema``).  A failure
raises :class:`~repro.errors.SchemaValidationError` naming the offending
path, so CI failures point at the broken field rather than a generic
mismatch.

A spec *rule* is either a type (``int``, ``bool``, ``str``, ``dict``,
``list`` or :class:`numbers.Real`) or a dict with a ``"type"`` and any of:

* ``"null": True`` — ``None`` is allowed;
* ``"min"`` / ``"max"`` (inclusive), ``"gt"`` / ``"lt"`` (exclusive) —
  numeric bounds;
* ``"enum"`` — the allowed values;
* ``"fields"`` — an object's required fields, each with its own rule
  (other keys are allowed);
* ``"keys"`` — an object's exact key set (or a callable returning it) and
  ``"values"`` — the rule for every value;
* ``"items"`` — the rule for every list element, ``"unique"`` — a field
  no two elements may share, ``"min_len"`` — a minimum length, and
  ``"len"`` — the sibling field holding the list's length;
* ``"checks"`` — named cross-field checks ``check(obj, path)``, run after
  the fields.

A bool is never a number.
"""

from __future__ import annotations

import numbers
from functools import partial

from repro.errors import SchemaValidationError

__all__ = [
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "SERVICE_SCHEMA",
    "SERVICE_SCHEMA_VERSION",
    "QUERY_BENCH_SCHEMA",
    "QUERY_BENCH_SCHEMA_VERSION",
    "CHAOS_SOAK_SCHEMA",
    "CHAOS_SOAK_SCHEMA_VERSION",
    "SERVICE_SOAK_SCHEMA",
    "SERVICE_SOAK_SCHEMA_VERSION",
    "STREAM_SOAK_SCHEMA",
    "STREAM_SOAK_SCHEMA_VERSION",
    "INTEGRITY_SOAK_SCHEMA",
    "INTEGRITY_SOAK_SCHEMA_VERSION",
    "MEMORY_SOAK_SCHEMA",
    "MEMORY_SOAK_SCHEMA_VERSION",
    "SOAK_SCHEMA_VERSIONS",
    "PROFILE_SPEC",
    "BENCH_SPEC",
    "SERVICE_SPEC",
    "QUERY_BENCH_SPEC",
    "SOAK_SPECS",
    "validate",
    "validate_profile",
    "validate_bench",
    "validate_service_stats",
    "validate_stream_soak",
    "validate_query_bench",
    "validate_integrity_soak",
    "validate_memory_soak",
]

#: ``repro.observe/profile`` — one run's :class:`~repro.observe.profile.
#: RunProfile` (optionally bundled with its raw trace by ``--trace-out``).
PROFILE_SCHEMA = "repro.observe/profile"
PROFILE_SCHEMA_VERSION = 1

#: ``repro.observe/bench`` — the regression baseline ``BENCH_lpa.json``
#: written by ``benchmarks/bench_profile_trajectory.py``: one record per
#: Table-1 stand-in graph.  v2 adds the perf-gate fields: per-graph
#: measured ``wall_seconds`` (vectorized engine) and a document-level
#: ``calibration_seconds`` that normalises wall clocks across machines.
#: v3 adds per-graph ``wall_seconds_hashtable`` (the ν-LPA hashtable
#: engine's wall clock).
BENCH_SCHEMA = "repro.observe/bench"
BENCH_SCHEMA_VERSION = 3

#: ``repro.observe/service`` — a :class:`~repro.service.service.
#: DetectionService` health snapshot (``service.stats()`` / ``repro serve
#: --stats-out``).  v2 adds the required ``batching`` section; v3 the
#: required ``memory`` section (device-memory admission); v4 the required
#: ``subscriptions`` section (resident stream processors); v5 drops the
#: ``batching`` section (the service runs one job per step).
SERVICE_SCHEMA = "repro.observe/service"
SERVICE_SCHEMA_VERSION = 5

#: ``repro.observe/query-bench`` — the read-path latency report written
#: by ``benchmarks/bench_query.py``; ``BENCH_query.json`` at the repo root
#: is the committed baseline the CI query-bench job gates against.
QUERY_BENCH_SCHEMA = "repro.observe/query-bench"
QUERY_BENCH_SCHEMA_VERSION = 1

#: The five soak reports (:class:`repro.soak.SoakReport`), written by
#: ``benchmarks/bench_soak.py`` as ``BENCH_<kind>_soak.json``.  Every one
#: shares the envelope: ``num_seeds``, ``ok``, ``silent`` (must be 0),
#: ``summary`` and one record per schedule, serialised flat through
#: ``dataclasses.asdict`` plus the record's ``ok`` and ``silent``.
#: Chaos and service soak reports are v1 (their first schema).  Stream
#: v2 moves the old nested ``soak`` section into the envelope; integrity
#: v2 and memory v2 flatten each record's legs into prefixed fields
#: (``live_detections``, ``reconcile_within_tolerance``, ...).
CHAOS_SOAK_SCHEMA = "repro.observe/chaos-soak"
CHAOS_SOAK_SCHEMA_VERSION = 1
SERVICE_SOAK_SCHEMA = "repro.observe/service-soak"
SERVICE_SOAK_SCHEMA_VERSION = 1
STREAM_SOAK_SCHEMA = "repro.observe/stream-soak"
STREAM_SOAK_SCHEMA_VERSION = 2
INTEGRITY_SOAK_SCHEMA = "repro.observe/integrity-soak"
INTEGRITY_SOAK_SCHEMA_VERSION = 2
MEMORY_SOAK_SCHEMA = "repro.observe/memory-soak"
MEMORY_SOAK_SCHEMA_VERSION = 2

SOAK_SCHEMA_VERSIONS = {
    "chaos": CHAOS_SOAK_SCHEMA_VERSION,
    "service": SERVICE_SOAK_SCHEMA_VERSION,
    "stream": STREAM_SOAK_SCHEMA_VERSION,
    "integrity": INTEGRITY_SOAK_SCHEMA_VERSION,
    "memory": MEMORY_SOAK_SCHEMA_VERSION,
}

_REAL = numbers.Real
_TYPE_NAMES = {_REAL: "number", dict: "object"}


def _fail(path: str, message: str):
    raise SchemaValidationError(f"{path}: {message}")


# --------------------------------------------------------------------- #
# The walker
# --------------------------------------------------------------------- #


def validate(doc, spec, path: str = "$"):
    """Check ``doc`` against ``spec``; returns ``doc``."""
    rule = spec if isinstance(spec, dict) else {"type": spec}
    if doc is None and rule.get("null"):
        return doc
    kind = rule["type"]
    name = _TYPE_NAMES.get(kind, kind.__name__)
    if isinstance(doc, bool) and kind is not bool:
        _fail(path, f"expected {name}, got bool")
    if not isinstance(doc, kind):
        _fail(path, f"expected {name}, got {type(doc).__name__}")
    if "enum" in rule and doc not in rule["enum"]:
        _fail(path, f"expected one of {list(rule['enum'])}, got {doc!r}")
    if "min" in rule and doc < rule["min"]:
        _fail(path, f"negative value {doc}" if rule["min"] == 0
              else f"{doc} below minimum {rule['min']}")
    if "gt" in rule and doc <= rule["gt"]:
        _fail(path, f"must be > {rule['gt']}, got {doc}")
    if "max" in rule and doc > rule["max"]:
        _fail(path, f"{doc} above maximum {rule['max']}")
    if "lt" in rule and doc >= rule["lt"]:
        _fail(path, f"must be < {rule['lt']}, got {doc}")
    if isinstance(doc, dict):
        _walk_object(doc, rule, path)
    elif isinstance(doc, list):
        _walk_list(doc, rule, path)
    return doc


def _walk_object(doc: dict, rule: dict, path: str) -> None:
    keys = rule.get("keys")
    if keys is not None:
        expected = keys() if callable(keys) else keys
        for key in expected:
            if key not in doc:
                _fail(f"{path}.{key}", "missing required field")
        for key in doc:
            if key not in expected:
                _fail(f"{path}.{key}", "unexpected field")
    for key, sub in rule.get("fields", {}).items():
        if key not in doc:
            _fail(f"{path}.{key}", "missing required field")
        validate(doc[key], sub, f"{path}.{key}")
    if "values" in rule:
        for key, value in doc.items():
            validate(value, rule["values"], f"{path}.{key}")
    for key, sub in rule.get("fields", {}).items():
        count = sub.get("len") if isinstance(sub, dict) else None
        if count is not None and len(doc[key]) != doc[count]:
            _fail(f"{path}.{key}", f"{len(doc[key])} entries for {count} {doc[count]}")
    for check in rule.get("checks", ()):
        check(doc, path)


def _walk_list(doc: list, rule: dict, path: str) -> None:
    if len(doc) < rule.get("min_len", 0):
        _fail(path, f"{len(doc)} entries, need at least {rule['min_len']}")
    if "items" in rule:
        for i, item in enumerate(doc):
            validate(item, rule["items"], f"{path}[{i}]")
    unique = rule.get("unique")
    if unique is not None:
        seen = set()
        for i, item in enumerate(doc):
            if item[unique] in seen:
                _fail(f"{path}[{i}].{unique}", f"duplicate {unique} {item[unique]!r}")
            seen.add(item[unique])


# --------------------------------------------------------------------- #
# Named cross-field checks
# --------------------------------------------------------------------- #


def _at_most(small: str, big: str):
    """``obj[small] <= obj[big]``."""

    def check(obj: dict, path: str) -> None:
        if obj[small] > obj[big]:
            _fail(f"{path}.{small}",
                  f"{small} ({obj[small]}) exceeds {big} ({obj[big]})")

    return check


def _edges_match_counts(hist: dict, path: str) -> None:
    if len(hist["bin_edges"]) != len(hist["counts"]) + 1:
        _fail(path, f"{len(hist['bin_edges'])} bin edges for "
                    f"{len(hist['counts'])} counts")


def _budget_when_enabled(memory: dict, path: str) -> None:
    if memory["enabled"] and memory["budget_bytes"] < 1:
        _fail(f"{path}.budget_bytes", "memory admission enabled with a zero budget")


def _op_mix_sums_to_one(mix: dict, path: str) -> None:
    total = sum(mix[op] for op in _OPS)
    if abs(total - 1.0) > 1e-9:
        _fail(path, f"fractions sum to {total}, want 1.0")


def _op_counts_match_lookups(doc: dict, path: str) -> None:
    total = sum(g["ops"][op]["count"] for g in doc["graphs"] for op in _OPS)
    if total != doc["lookups"]:
        _fail(f"{path}.lookups",
              f"{doc['lookups']} declared but per-op counts sum to {total}")


def _slo_verdict(slo: dict, path: str) -> None:
    if slo["met"] != (slo["worst_membership_p99_us"] <= slo["membership_p99_us"]):
        _fail(f"{path}.met", f"verdict {slo['met']} inconsistent with worst p99 "
                             f"{slo['worst_membership_p99_us']} vs budget "
                             f"{slo['membership_p99_us']}")


def _rejected_over_budget(record: dict, path: str) -> None:
    if record["admission_rejected"] and (
        record["admission_estimate_bytes"] <= record["admission_budget_bytes"]
    ):
        _fail(f"{path}.admission_rejected",
              "rejected although the estimate fits the budget")


def _tolerance_verdicts(doc: dict, path: str) -> None:
    for i, record in enumerate(doc["records"]):
        within = record["reconcile_within_tolerance"]
        if within != (record["reconcile_deviation"] <= doc["tolerance"]):
            _fail(f"{path}.records[{i}].reconcile_within_tolerance",
                  f"verdict {within} inconsistent with deviation "
                  f"{record['reconcile_deviation']} vs tolerance {doc['tolerance']}")


# --------------------------------------------------------------------- #
# Specs
# --------------------------------------------------------------------- #

_COUNT = {"type": int, "min": 0}
_POSITIVE = {"type": int, "min": 1}
_SECONDS = {"type": _REAL, "min": 0}
_FRACTION = {"type": _REAL, "min": 0, "max": 1}
_MODULARITY = {"type": _REAL, "min": -0.5, "max": 1}
_OPS = ("membership", "roster", "diff")


def _header(schema: str, version: int) -> dict:
    return {
        "schema": {"type": str, "enum": (schema,)},
        "version": {"type": int, "enum": (version,)},
    }


def _obj(fields: dict, *checks) -> dict:
    return {"type": dict, "fields": fields, "checks": checks}


def _counter_keys():
    from repro.gpu.metrics import KernelCounters

    return KernelCounters().as_dict()


def _rung_keys():
    from repro.service.job import RUNGS

    return RUNGS


_COUNTERS = {"type": dict, "keys": _counter_keys, "values": _COUNT}
_DEVICE = _obj({"name": str, "sector_bytes": {"type": int, "gt": 0}})
_HISTOGRAM = _obj(
    {
        "bin_edges": {"type": list, "items": _SECONDS},
        "counts": {"type": list, "items": _COUNT},
    },
    _edges_match_counts,
)

PROFILE_SPEC = _obj({
    **_header(PROFILE_SCHEMA, PROFILE_SCHEMA_VERSION),
    "algorithm": str,
    "device": _DEVICE,
    "converged": bool,
    "modeled_seconds": _SECONDS,
    "bytes_moved": _COUNT,
    "counters": _COUNTERS,
    "iterations": {"type": list, "items": _obj({
        "iteration": _COUNT,
        "changed": _COUNT,
        "processed": _COUNT,
        "pick_less": bool,
        "cross_check": bool,
        "reverted": _COUNT,
        "modeled_seconds": _SECONDS,
        "counters": _COUNTERS,
    })},
    "kernels": {"type": list, "items": _obj({
        "kernel": str,
        "launches": _COUNT,
        "waves": _COUNT,
        "modeled_seconds": _SECONDS,
        "counters": _COUNTERS,
    })},
    "histograms": _obj({
        "probes_per_edge": _HISTOGRAM,
        "warp_serial_per_edge": _HISTOGRAM,
    }),
    "rates": _obj({
        "atomic_conflict_rate": _SECONDS,
        "probes_per_edge": _SECONDS,
        "avg_waves_per_launch": _SECONDS,
    }),
    "fault_rungs": dict,
})

BENCH_SPEC = _obj({
    **_header(BENCH_SCHEMA, BENCH_SCHEMA_VERSION),
    "scale": {"type": _REAL, "gt": 0},
    "seed": _COUNT,
    "engine": str,
    "calibration_seconds": {"type": _REAL, "gt": 0},
    "device": _DEVICE,
    "graphs": {"type": list, "min_len": 1, "unique": "name", "items": _obj({
        "name": str,
        "num_vertices": _COUNT,
        "num_edges": _COUNT,
        "iterations": _COUNT,
        "num_communities": _COUNT,
        "converged": bool,
        "modeled_seconds": _SECONDS,
        "paper_modeled_seconds": {**_SECONDS, "null": True},
        "modularity": _MODULARITY,
        "wall_seconds": _SECONDS,
        "wall_seconds_hashtable": _SECONDS,
        "counters": _COUNTERS,
    })},
})

SERVICE_SPEC = _obj({
    **_header(SERVICE_SCHEMA, SERVICE_SCHEMA_VERSION),
    "clock_s": _SECONDS,
    "wall_seconds": _SECONDS,
    "workers": _POSITIVE,
    "queue": _obj(
        {
            "depth": _COUNT,
            "capacity": _COUNT,
            "rejected_queue_full": _COUNT,
            "rejected_tenant_cap": _COUNT,
            "tenants": {"type": dict, "values": _COUNT},
        },
        _at_most("depth", "capacity"),
    ),
    "jobs": _obj(
        dict.fromkeys((
            "submitted", "rejected", "recovered", "retries", "reroutes",
            "pending", "running", "completed", "failed", "degraded",
        ), _COUNT),
        _at_most("degraded", "completed"),
    ),
    "rungs": {"type": dict, "keys": _rung_keys, "values": _COUNT},
    "breakers": {"type": list, "items": _obj({
        "engine": str,
        "state": {"type": str, "enum": ("closed", "open", "half-open")},
        "failure_rate": _FRACTION,
        "calls_in_window": _COUNT,
        "opened_count": _COUNT,
    })},
    "latency": _obj(
        {
            "count": _COUNT,
            "p50_modeled_s": _SECONDS,
            "p95_modeled_s": _SECONDS,
            "p50_wall_s": _SECONDS,
            "p95_wall_s": _SECONDS,
        },
        _at_most("p50_modeled_s", "p95_modeled_s"),
    ),
    "totals": _obj({"modeled_seconds": _SECONDS, "wall_spent_s": _SECONDS}),
    "memory": _obj(
        {
            "enabled": bool,
            **dict.fromkeys((
                "budget_bytes", "in_flight_bytes", "high_water_bytes",
                "rejections", "serialized", "degradations",
            ), _COUNT),
        },
        _at_most("in_flight_bytes", "high_water_bytes"),
        _budget_when_enabled,
    ),
    "subscriptions": _obj(dict.fromkeys(("resident", "resident_bytes"), _COUNT)),
})

_LATENCY = _obj(
    {"count": _COUNT, "p50_us": _SECONDS, "p99_us": _SECONDS, "mean_us": _SECONDS},
    _at_most("p50_us", "p99_us"),
)

QUERY_BENCH_SPEC = _obj(
    {
        **_header(QUERY_BENCH_SCHEMA, QUERY_BENCH_SCHEMA_VERSION),
        "seed": _COUNT,
        "lookups": _POSITIVE,
        "readers": _POSITIVE,
        "zipf_s": {"type": _REAL, "gt": 1},
        "op_mix": _obj(dict.fromkeys(_OPS, _FRACTION), _op_mix_sums_to_one),
        # Two sizes at least: the O(1) flatness check compares them.
        "graphs": {"type": list, "min_len": 2, "unique": "name", "items": _obj({
            "name": str,
            "num_vertices": _COUNT,
            "num_communities": _COUNT,
            "snapshot_bytes": _COUNT,
            "versions": _COUNT,
            "ops": _obj(dict.fromkeys(_OPS, _LATENCY)),
        })},
        "slo": _obj(
            {
                "membership_p99_us": {"type": _REAL, "gt": 0},
                "worst_membership_p99_us": _SECONDS,
                "met": bool,
            },
            _slo_verdict,
        ),
        "flatness": _obj({
            "small_graph": str,
            "large_graph": str,
            "vertex_ratio": {"type": _REAL, "min": 10},
            "membership_p50_ratio": {"type": _REAL, "gt": 0},
            "bound": {"type": _REAL, "gt": 1},
            "met": bool,
        }),
    },
    _op_counts_match_lookups,
)


def _soak(kind: str, metadata: dict, record: dict, *checks) -> dict:
    """The shared :class:`~repro.soak.SoakReport` envelope around one
    kind's top-level fields and record fields."""
    return _obj(
        {
            **_header(f"repro.observe/{kind}-soak", SOAK_SCHEMA_VERSIONS[kind]),
            **metadata,
            "num_seeds": _COUNT,
            "ok": bool,
            "silent": _COUNT,
            "summary": str,
            "records": {
                "type": list,
                "len": "num_seeds",
                "items": {**record, "fields": {
                    **record["fields"], "ok": bool, "silent": _COUNT,
                }},
            },
        },
        *checks,
    )


_GRAPH_RUN = {"engine": str, "num_vertices": _COUNT, "num_edges": _COUNT}

SOAK_SPECS = {
    "chaos": _soak("chaos", _GRAPH_RUN, _obj({
        "schedule": _obj({
            "seed": _COUNT,
            "fault_kinds": {"type": list, "min_len": 1, "items": str},
            "fault_rate": _FRACTION,
            "fault_seed": _COUNT,
            "max_fires": {**_COUNT, "null": True},
            "crash": _obj({
                "iteration": _POSITIVE,
                "mode": {"type": str,
                         "enum": ("before-write", "mid-write", "after-write")},
            }),
            "corrupt_newest": bool,
        }),
        "crash_fired": bool,
        "corruption": {"type": str, "enum": ("", "truncated", "bit-flipped")},
        "resumed_from": {**_COUNT, "null": True},
        "identical": bool,
        "reference_iterations": _COUNT,
        "final_iterations": _COUNT,
        "fault_events": _COUNT,
    })),
    "service": _soak(
        "service",
        {"jobs_per_schedule": _POSITIVE, "stats": SERVICE_SPEC},
        _obj(
            {
                "seed": _COUNT,
                "jobs": _COUNT,
                "crashes": _COUNT,
                "restarts": _COUNT,
                "identical": _COUNT,
                "lost": {"type": list, "items": str},
                "duplicated": {"type": list, "items": str},
                "mismatched": {"type": list, "items": str},
            },
            _at_most("identical", "jobs"),
        ),
    ),
    "stream": _soak(
        "stream",
        {
            "dataset": str,
            "scale": {"type": _REAL, "gt": 0},
            "batches_per_seed": _POSITIVE,
            "batch_size": _POSITIVE,
            "hops": _COUNT,
            "rates": _obj({
                "deltas_per_second": {"type": _REAL, "gt": 0},
                "epochs_per_second": {"type": _REAL, "gt": 0},
                "speedup_vs_scratch": {"type": _REAL, "gt": 0},
                "frontier_fraction_mean": _FRACTION,
            }),
        },
        _obj({
            "seed": _COUNT,
            "batches": _COUNT,
            # -1 when the subscription never completed.
            "epochs": {"type": int, "min": -1},
            "producer_deaths": _COUNT,
            "torn_tails": _COUNT,
            "service_deaths": _COUNT,
            "restarts": _COUNT,
            "labels_identical": bool,
            "graph_identical": bool,
            "modularity_gap": _SECONDS,
        }),
    ),
    "integrity": _soak("integrity", _GRAPH_RUN, _obj({
        "seed": _COUNT,
        "live_detections": _COUNT,
        "live_identical": bool,
        "ckpt_flip": str,
        "ckpt_detected": bool,
        "ckpt_identical": bool,
        "snap_flip": str,
        "snap_detected": bool,
        "snap_identical": bool,
        "guard": dict,
    })),
    "memory": _soak(
        "memory",
        {**_GRAPH_RUN, "tolerance": {"type": _REAL, "gt": 0, "lt": 1}},
        _obj(
            {
                "seed": _COUNT,
                "live_ooms": _COUNT,
                "live_absorbed": bool,
                "live_valid": bool,
                "live_identical": bool,
                "admission_rejected": bool,
                "admission_estimate_bytes": _COUNT,
                "admission_budget_bytes": _COUNT,
                "shrink_ooms": _COUNT,
                "shrink_absorbed": bool,
                "shrink_valid": bool,
                "reconcile_estimate_bytes": _COUNT,
                "reconcile_high_water_bytes": _COUNT,
                "reconcile_deviation": _SECONDS,
                "reconcile_utilization": _SECONDS,
                "reconcile_within_tolerance": bool,
                "reconcile_identical": bool,
                "memory": dict,
            },
            _rejected_over_budget,
        ),
        _tolerance_verdicts,
    ),
}

validate_profile = partial(validate, spec=PROFILE_SPEC, path="profile")
validate_bench = partial(validate, spec=BENCH_SPEC, path="bench")
validate_service_stats = partial(validate, spec=SERVICE_SPEC, path="service")
validate_query_bench = partial(validate, spec=QUERY_BENCH_SPEC, path="query_bench")
validate_stream_soak = partial(validate, spec=SOAK_SPECS["stream"], path="stream_soak")
validate_integrity_soak = partial(
    validate, spec=SOAK_SPECS["integrity"], path="integrity_soak"
)
validate_memory_soak = partial(validate, spec=SOAK_SPECS["memory"], path="memory_soak")
