"""Resilient multi-run job service over the ν-LPA engines.

Public surface::

    from repro.service import (
        DetectionService, ServiceConfig,       # the service
        JobSpec, JobRecord, JobOutcome,        # jobs
        JobState, GraphRef, RUNGS,
        AdmissionQueue,                        # admission control
        BackoffPolicy, is_retryable,           # retries
        BreakerConfig, CircuitBreaker,         # circuit breakers
        ServiceJournal,                        # durability
        run_service_soak, ServiceSoakOutcome,  # kill/restart soak
        SnapshotCatalog, Snapshot,             # query read path
        QueryEngine, SnapshotDiff, diff_snapshots,
    )

Modules import lazily (PEP 562) so ``import repro`` stays light.
"""

from __future__ import annotations

_EXPORTS = {
    "DetectionService": "repro.service.service",
    "ServiceConfig": "repro.service.service",
    "JobSpec": "repro.service.job",
    "JobRecord": "repro.service.job",
    "JobOutcome": "repro.service.job",
    "JobState": "repro.service.job",
    "GraphRef": "repro.service.job",
    "RUNGS": "repro.service.job",
    "AdmissionQueue": "repro.service.queue",
    "BackoffPolicy": "repro.service.backoff",
    "RETRYABLE_FAULTS": "repro.service.backoff",
    "is_retryable": "repro.service.backoff",
    "BreakerConfig": "repro.service.breaker",
    "CircuitBreaker": "repro.service.breaker",
    "ServiceJournal": "repro.service.journal",
    "run_service_soak": "repro.service.soak",
    "ServiceSoakOutcome": "repro.service.soak",
    "SnapshotCatalog": "repro.service.read",
    "Snapshot": "repro.service.read",
    "QueryEngine": "repro.service.read",
    "SnapshotDiff": "repro.service.read",
    "diff_snapshots": "repro.service.read",
    "write_snapshot": "repro.service.read",
    "read_header": "repro.service.read",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
