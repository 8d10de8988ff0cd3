"""Structured observability for the simulated GPU (tracing + profiling).

Three layers:

* :mod:`repro.observe.trace` — :class:`Tracer` and the typed event records
  emitted by the engines, the driver, and the resilience supervisor;
* :mod:`repro.observe.profile` — :class:`RunProfile`, the per-kernel /
  per-iteration aggregation priced through :mod:`repro.perf.model`;
* :mod:`repro.observe.schema` — versioned JSON schemas and validators for
  profile documents and ``BENCH_*.json`` regression baselines.

Entry points: ``nu_lpa(..., profile=True)`` / ``nu_lpa(..., tracer=t)``,
the CLI's ``--profile`` / ``--trace-out``, and
``benchmarks/bench_profile_trajectory.py``.  See docs/observability.md.

The profile names export lazily (PEP 562): the engines import
:mod:`repro.observe.trace` on their hot path, and resolving profile names
eagerly here would drag :mod:`repro.perf` (and through it the baselines)
into that import, creating a cycle back into the engines.  The schema
module imports nothing heavy; its ``__all__`` is this package's schema
export list.
"""

from repro.observe.trace import (
    BreakerEvent,
    ConvergenceEvent,
    EpochEvent,
    FaultRungEvent,
    IterationEvent,
    JobEvent,
    KernelLaunchEvent,
    MemoryEvent,
    OomEvent,
    QueryEvent,
    QueryStatsEvent,
    ServiceStatsEvent,
    Tracer,
    TraceEvent,
    WaveEvent,
    counter_delta,
)
from repro.observe.schema import __all__ as _SCHEMA_NAMES

__all__ = [
    "Tracer",
    "TraceEvent",
    "KernelLaunchEvent",
    "WaveEvent",
    "IterationEvent",
    "FaultRungEvent",
    "ConvergenceEvent",
    "JobEvent",
    "MemoryEvent",
    "OomEvent",
    "BreakerEvent",
    "ServiceStatsEvent",
    "EpochEvent",
    "QueryEvent",
    "QueryStatsEvent",
    "counter_delta",
    "RunProfile",
    "IterationProfile",
    "KernelProfile",
    "build_profile",
    *_SCHEMA_NAMES,
]

_PROFILE_NAMES = {"RunProfile", "IterationProfile", "KernelProfile", "build_profile"}


def __getattr__(name: str):
    if name in _PROFILE_NAMES:
        from repro.observe import profile

        return getattr(profile, name)
    if name in _SCHEMA_NAMES:
        from repro.observe import schema

        return getattr(schema, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
