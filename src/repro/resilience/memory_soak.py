"""The memory-pressure chaos soak: OOM storms, oversized jobs, budget shrinks.

The corruption soak attacks *truth* and the kill/restart soaks attack
*availability*; this one attacks *capacity*.  Each seeded schedule
pressures the same graph three ways and asserts every out-of-memory
event is either **absorbed by a degradation rung with valid labels** or
**rejected with a typed error** — never a silent wrong result:

1. **live** — ``"oom"`` device faults fire mid-run under a tight memory
   budget; every fire shrinks the modelled budget and raises a typed
   :class:`~repro.errors.DeviceOomError`, which the supervisor must
   absorb through its memory rungs (table shrink → retry → fallback).
2. **admission** — a :class:`~repro.service.DetectionService` with a
   budget *below* the job's analytic footprint must refuse the
   submission with a typed :class:`~repro.errors.MemoryPressure`
   carrying both sides of the comparison, instead of admitting a
   guaranteed OOM.
3. **shrink** — a single injected OOM mid-run under a *generous* budget:
   the fire halves the effective budget, and the rest of the run must
   live inside the shrunken ceiling or degrade loudly.

Every schedule also **reconciles** the allocation ledger against the
analytic estimator: a clean governed run's high-water mark must stay
inside the estimator's band — at least the exact-size regions
(CSR + labels + hashtables, which the estimator prices to the byte)
and at most :func:`~repro.gpu.governor.footprint_for`'s total plus
:data:`~repro.gpu.governor.ESTIMATE_TOLERANCE`.  The estimator is an
*admission upper bound*: the arena component is deliberately
conservative, so actual usage below the total is safe headroom, while
usage **above** it would mean admission control under-prices jobs —
the dangerous direction, and the one the tolerance bounds.

``benchmarks/bench_soak.py`` runs 20 schedules and writes the report as
the ``BENCH_memory_soak.json`` CI artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.errors import DeviceOomError, MemoryPressure
from repro.gpu.governor import ESTIMATE_TOLERANCE, footprint_for
from repro.graph.csr import CSRGraph
from repro.resilience.faults import FaultSpec
from repro.soak import SoakReport

__all__ = ["MemorySoakRecord", "run_memory_soak"]


def _valid_labels(labels, graph: CSRGraph) -> bool:
    """Structural validity: one in-range label per vertex."""
    if labels is None:
        return False
    arr = np.asarray(labels)
    return (
        arr.shape == (graph.num_vertices,)
        and (graph.num_vertices == 0
             or (int(arr.min()) >= 0 and int(arr.max()) < graph.num_vertices))
    )


@dataclass
class MemorySoakRecord:
    """Outcome of one seeded memory-pressure schedule (three legs)."""

    seed: int
    #: Live leg: injected-OOM storm under a tight budget.
    live_ooms: int
    live_absorbed: bool
    live_valid: bool
    live_identical: bool
    #: Admission leg: oversized job vs the service's analytic estimate.
    admission_rejected: bool
    admission_estimate_bytes: int
    admission_budget_bytes: int
    #: Shrink leg: one mid-run budget shrink under a generous budget.
    shrink_ooms: int
    shrink_absorbed: bool
    shrink_valid: bool
    #: Ledger-vs-estimator reconciliation of a clean governed run.
    #: ``deviation`` is one-sided: how far the ledger left the
    #: estimator's band (overrun past the total, or shortfall below the
    #: exact-size regions), as a fraction of the estimate.  A high-water
    #: mark anywhere inside the band is deviation 0.0 — the estimator is
    #: an admission *upper bound*, so headroom under it is by design.
    reconcile_estimate_bytes: int
    reconcile_high_water_bytes: int
    reconcile_deviation: float
    #: Raw high-water / estimate ratio, for observability (how much of
    #: the conservative estimate a real run actually used).
    reconcile_utilization: float
    #: ``deviation`` within :data:`~repro.gpu.governor.ESTIMATE_TOLERANCE`.
    reconcile_within_tolerance: bool
    #: A governed run that never left the "full" rung must be
    #: bit-identical to the unconstrained reference.
    reconcile_identical: bool = True
    #: Governor stats of the live run (ledger counters, rungs).
    memory: dict = field(default_factory=dict)

    @property
    def silent(self) -> int:
        """Pressure events that corrupted the answer without any signal."""
        count = 0
        if self.live_absorbed and not self.live_valid:
            count += 1
        if self.shrink_absorbed and not self.shrink_valid:
            count += 1
        return count

    @property
    def ok(self) -> bool:
        """Absorbed-with-valid-labels or typed rejection, on every leg."""
        live_ok = self.live_valid if self.live_absorbed else True
        shrink_ok = self.shrink_valid if self.shrink_absorbed else True
        return (
            live_ok
            and shrink_ok
            and self.admission_rejected
            and self.reconcile_within_tolerance
            and self.reconcile_identical
        )

    def counts(self) -> dict[str, int]:
        return {
            "OOM(s) absorbed": self.live_ooms + self.shrink_ooms,
            "typed rejection(s)": self.admission_rejected,
        }


# --------------------------------------------------------------------- #


def _count_ooms(result) -> int:
    return sum(
        1 for ev in result.fault_events if ev.fault == "DeviceOomError"
    )


def _run_live(
    graph: CSRGraph,
    config: LPAConfig,
    engine: str,
    reference: np.ndarray,
    footprint: int,
    rng: np.random.Generator,
) -> tuple[int, bool, bool, bool, dict]:
    """Leg 1: an OOM storm under a tight (but feasible) budget."""
    spec = FaultSpec(
        kinds=("oom",),
        rate=float(rng.uniform(0.2, 0.7)),
        seed=int(rng.integers(0, 2**31)),
        max_fires=int(rng.integers(1, 4)),
    )
    cfg = config.with_(
        # Tight: real headroom above the analytic estimate, so the run
        # starts, but every injected shrink bites.
        memory_budget_bytes=int(footprint * float(rng.uniform(1.2, 2.0))),
    )
    try:
        result = nu_lpa(
            graph, cfg, engine=engine, warn_on_no_convergence=False,
            resilience=ResilienceConfig(faults=spec, max_retries=8),
        )
    except DeviceOomError:
        # Every rung exhausted: a *typed* refusal, which the contract
        # allows — just never a silent wrong answer.
        return (spec.max_fires, False, True, False, {})
    return (
        _count_ooms(result),
        True,
        _valid_labels(result.labels, graph),
        bool(np.array_equal(result.labels, reference)),
        result.memory or {},
    )


def _run_admission(
    graph: CSRGraph,
    config: LPAConfig,
    engine: str,
    footprint: int,
    seed: int,
) -> tuple[bool, int, int]:
    """Leg 2: an oversized job must bounce off admission control."""
    from repro.service.service import DetectionService, ServiceConfig

    service = DetectionService(ServiceConfig(
        lpa=config,
        memory_budget_bytes=max(1, footprint // 2),
    ))
    try:
        service.submit_graph(graph, f"memsoak-{seed}", engine=engine)
    except MemoryPressure as exc:
        return (True, int(exc.estimate_bytes), int(exc.budget_bytes))
    return (False, footprint, max(1, footprint // 2))


def _run_shrink(
    graph: CSRGraph,
    config: LPAConfig,
    engine: str,
    footprint: int,
    rng: np.random.Generator,
) -> tuple[int, bool, bool]:
    """Leg 3: a single mid-run budget shrink under a generous budget."""
    spec = FaultSpec(
        kinds=("oom",),
        rate=float(rng.uniform(0.1, 0.4)),
        seed=int(rng.integers(0, 2**31)),
        max_fires=1,
    )
    cfg = config.with_(memory_budget_bytes=int(footprint * 4))
    try:
        result = nu_lpa(
            graph, cfg, engine=engine, warn_on_no_convergence=False,
            resilience=ResilienceConfig(faults=spec, max_retries=8),
        )
    except DeviceOomError:
        return (1, False, True)
    return (
        _count_ooms(result),
        True,
        _valid_labels(result.labels, graph),
    )


def _run_reconcile(
    graph: CSRGraph,
    config: LPAConfig,
    engine: str,
    estimate: dict,
    reference: np.ndarray,
) -> tuple[int, int, float, float, bool]:
    """A clean governed run: ledger high-water vs the analytic estimate.

    No pressure, no faults, no rung below "full" — so the governor must
    be invisible: labels bit-identical to the unconstrained reference,
    and the ledger's high-water mark inside the estimator's band.  The
    band's floor is the exact-size regions (CSR + labels + hashtables,
    priced to the byte — below it the ledger failed to meter the run);
    its ceiling is the estimate's total (above it admission control
    under-prices jobs, the unsafe direction).  ``deviation`` is the
    one-sided distance outside that band as a fraction of the total.
    """
    total = int(estimate["total"])
    floor = int(estimate["csr"] + estimate["labels"] + estimate["hashtable"])
    cfg = config.with_(memory_budget_bytes=total * 4)
    result = nu_lpa(graph, cfg, engine=engine, warn_on_no_convergence=False)
    high_water = int((result.memory or {}).get("high_water_bytes", 0))
    overrun = max(0, high_water - total)
    shortfall = max(0, floor - high_water)
    deviation = max(overrun, shortfall) / max(1, total)
    return (
        total,
        high_water,
        float(deviation),
        float(high_water / max(1, total)),
        bool(np.array_equal(result.labels, reference)),
    )


def run_memory_soak(
    graph: CSRGraph,
    *,
    seeds: int = 20,
    seed: int = 0,
    engine: str = "hashtable",
    config: LPAConfig | None = None,
) -> SoakReport:
    """Run ``seeds`` memory-pressure schedules against ``graph``.

    Schedule *i* derives every random choice from
    ``default_rng([seed, i])``, so any failure replays in isolation.
    """
    config = config or LPAConfig()
    report = SoakReport(
        kind="memory",
        metadata={
            "engine": engine,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "tolerance": ESTIMATE_TOLERANCE,
        },
    )
    estimate = footprint_for(
        graph, config, engine=engine, integrity=False, checkpointing=False,
    )
    footprint = int(estimate["total"])
    # The pressure-free reference the live leg compares against.
    reference = nu_lpa(
        graph, config, engine=engine, warn_on_no_convergence=False,
    ).labels
    for i in range(seeds):
        rng = np.random.default_rng([seed, i])
        live_ooms, live_abs, live_valid, live_id, memory = _run_live(
            graph, config, engine, reference, footprint, rng
        )
        adm_rej, adm_est, adm_budget = _run_admission(
            graph, config, engine, footprint, seed + i
        )
        shr_ooms, shr_abs, shr_valid = _run_shrink(
            graph, config, engine, footprint, rng
        )
        rec_est, rec_hw, rec_dev, rec_util, rec_id = _run_reconcile(
            graph, config, engine, estimate, reference
        )
        report.records.append(MemorySoakRecord(
            seed=seed + i,
            live_ooms=live_ooms,
            live_absorbed=live_abs,
            live_valid=live_valid,
            live_identical=live_id,
            admission_rejected=adm_rej,
            admission_estimate_bytes=adm_est,
            admission_budget_bytes=adm_budget,
            shrink_ooms=shr_ooms,
            shrink_absorbed=shr_abs,
            shrink_valid=shr_valid,
            reconcile_estimate_bytes=rec_est,
            reconcile_high_water_bytes=rec_hw,
            reconcile_deviation=rec_dev,
            reconcile_utilization=rec_util,
            reconcile_within_tolerance=rec_dev <= ESTIMATE_TOLERANCE,
            reconcile_identical=rec_id,
            memory=memory,
        ))
    return report
