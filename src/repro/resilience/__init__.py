"""Fault-tolerant execution layer for ν-LPA runs.

The paper assumes a hashtable "sized so overflow is avoided" and kernels
that always complete; this package removes those assumptions so the engine
survives injected device faults, degrades gracefully, and resumes long
runs mid-stream:

* :mod:`repro.resilience.faults` — deterministic fault injector wrapping
  the :mod:`repro.gpu` primitives (bit flips in the flat hashtable
  buffers, ``atomicCAS`` storms, watchdog timeouts, forced overflow);
* :mod:`repro.resilience.invariants` — post-kernel output validation;
* :mod:`repro.resilience.supervisor` — the kernel supervisor every
  supervised ``lpaMove`` flows through: retry with backoff → regrow the
  hashtables → fall back to the vectorized engine → abort with a report;
* :mod:`repro.resilience.checkpoint` — iteration-boundary snapshots with
  deterministic, bit-identical resume;
* :mod:`repro.resilience.report` — structured fault records.

Enable it by passing a :class:`~repro.core.config.ResilienceConfig` to
:func:`~repro.core.lpa.nu_lpa` (or the ``--inject-faults`` /
``--checkpoint-dir`` / ``--resume`` CLI flags).

Import note: the engines import :mod:`repro.resilience.faults` for the
hook context type, and the supervisor imports the engines — so this
``__init__`` loads only the leaf modules eagerly and resolves the
supervisor/checkpoint names lazily (PEP 562) to keep the graph acyclic.
"""

from __future__ import annotations

from repro.resilience.faults import FAULT_KINDS, FaultContext, FaultInjector, FaultSpec
from repro.resilience.invariants import (
    check_finite_values,
    check_label_range,
    check_pl_monotone,
)
from repro.resilience.report import FaultEvent, FaultReport
from repro.resilience.validate import (
    ValidationIssue,
    ValidationReport,
    validate_graph,
)

__all__ = [
    "FAULT_KINDS",
    "FaultContext",
    "FaultInjector",
    "FaultSpec",
    "FaultEvent",
    "FaultReport",
    "KernelSupervisor",
    "CheckpointManager",
    "CheckpointState",
    "FsckEntry",
    "fsck",
    "run_digest",
    "ValidationIssue",
    "ValidationReport",
    "validate_graph",
    "ChaosSchedule",
    "SoakRecord",
    "run_chaos_soak",
    "MemorySoakRecord",
    "run_memory_soak",
    "check_finite_values",
    "check_label_range",
    "check_pl_monotone",
]

_LAZY = {
    "KernelSupervisor": "repro.resilience.supervisor",
    "CheckpointManager": "repro.resilience.checkpoint",
    "CheckpointState": "repro.resilience.checkpoint",
    "FsckEntry": "repro.resilience.checkpoint",
    "fsck": "repro.resilience.checkpoint",
    "run_digest": "repro.resilience.checkpoint",
    # chaos imports the driver (it runs full nu_lpa sessions), so it must
    # stay lazy for the same reason the supervisor does.
    "ChaosSchedule": "repro.resilience.chaos",
    "SoakRecord": "repro.resilience.chaos",
    "run_chaos_soak": "repro.resilience.chaos",
    # memory_soak runs full nu_lpa sessions and the service, so it stays
    # lazy like chaos.
    "MemorySoakRecord": "repro.resilience.memory_soak",
    "run_memory_soak": "repro.resilience.memory_soak",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
