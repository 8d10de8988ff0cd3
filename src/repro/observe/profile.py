"""Run profiles: aggregate counters and trace records into one report.

A :class:`RunProfile` is the structured answer to "where did this run's
modelled time go": per-iteration and per-kernel breakdowns priced through
:mod:`repro.perf.model`, sector traffic in device-correct bytes, probe and
divergence histograms, atomic-conflict rates, and the resilience
supervisor's degradation rungs.  It serialises to the versioned JSON
schema in :mod:`repro.observe.schema` (``repro.observe/profile``).

The per-kernel breakdown needs per-wave counter deltas and therefore a
:class:`~repro.observe.trace.Tracer`; everything else is computed from the
:class:`~repro.core.result.LPAResult` alone, so ``build_profile`` degrades
gracefully for untraced runs (``kernels`` is empty, histograms fall back
to per-iteration granularity).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.metrics import KernelCounters
from repro.observe.schema import PROFILE_SCHEMA, PROFILE_SCHEMA_VERSION
from repro.observe.trace import Tracer
from repro.perf.model import estimate_gpu_seconds
from repro.perf.platforms import A100_PLATFORM, GpuPlatform

__all__ = [
    "IterationProfile",
    "KernelProfile",
    "RunProfile",
    "build_profile",
    "platform_for_device",
]

#: Histogram bin edges for probes-per-edge (1.0 = collision-free) and
#: warp-serialised work per edge; samples above the last edge are clipped
#: into the final bin so the serialised form needs no open-ended bin.
_HIST_EDGES = [0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0]


@dataclass(frozen=True)
class IterationProfile:
    """One iteration's share of the run, priced by the cost model."""

    iteration: int
    changed: int
    processed: int
    pick_less: bool
    cross_check: bool
    reverted: int
    modeled_seconds: float
    counters: dict

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "changed": self.changed,
            "processed": self.processed,
            "pick_less": self.pick_less,
            "cross_check": self.cross_check,
            "reverted": self.reverted,
            "modeled_seconds": self.modeled_seconds,
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class KernelProfile:
    """One kernel kind's share of the run (requires a trace)."""

    kernel: str
    launches: int
    waves: int
    modeled_seconds: float
    counters: dict

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "launches": self.launches,
            "waves": self.waves,
            "modeled_seconds": self.modeled_seconds,
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class RunProfile:
    """Aggregated profile of one ν-LPA run."""

    algorithm: str
    converged: bool
    device_name: str
    sector_bytes: int
    #: Modelled seconds of the whole run (cost model over summed counters).
    modeled_seconds: float
    #: Total global-memory traffic at the device's sector size, bytes.
    bytes_moved: int
    #: Summed :class:`KernelCounters` of the run, as a plain dict.
    counters: dict
    iterations: tuple[IterationProfile, ...] = ()
    kernels: tuple[KernelProfile, ...] = ()
    histograms: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    #: Degradation-ladder actions taken by the supervisor, action -> count.
    fault_rungs: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #

    @property
    def iteration_seconds_sum(self) -> float:
        """Exact (fsum) total of the per-iteration modelled seconds.

        Agrees with :attr:`modeled_seconds` to well under 1e-9: the cost
        model is linear in the (integer) counters, so summing priced
        iterations and pricing summed counters differ only by float
        associativity.
        """
        return math.fsum(it.modeled_seconds for it in self.iterations)

    def as_dict(self) -> dict:
        """JSON-ready document matching ``repro.observe/profile`` v1."""
        return {
            "schema": PROFILE_SCHEMA,
            "version": PROFILE_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "converged": self.converged,
            "device": {"name": self.device_name, "sector_bytes": self.sector_bytes},
            "modeled_seconds": self.modeled_seconds,
            "bytes_moved": self.bytes_moved,
            "counters": dict(self.counters),
            "iterations": [it.as_dict() for it in self.iterations],
            "kernels": [k.as_dict() for k in self.kernels],
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "rates": dict(self.rates),
            "fault_rungs": dict(self.fault_rungs),
        }

    def to_json(self, path: str | Path | None = None, *, indent: int = 2) -> str:
        """Serialise; additionally write to ``path`` when given."""
        text = json.dumps(self.as_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def summary(self) -> str:
        """Human-readable breakdown for the CLI's ``--profile`` flag."""
        lines = [
            f"profile:     {self.algorithm} on {self.device_name} "
            f"({len(self.iterations)} iterations, "
            f"{'converged' if self.converged else 'not converged'})",
            f"  modelled:  {self.modeled_seconds * 1e3:.3f} ms "
            f"({self.bytes_moved / 1e6:.2f} MB moved, "
            f"{self.counters.get('launches', 0)} launches, "
            f"{self.counters.get('waves', 0)} waves)",
            f"  rates:     {self.rates.get('probes_per_edge', 0.0):.3f} probes/edge, "
            f"{self.rates.get('atomic_conflict_rate', 0.0):.4f} conflicts/atomic",
        ]
        for k in self.kernels:
            lines.append(
                f"  kernel:    {k.kernel:18s} {k.launches:4d} launches "
                f"{k.waves:5d} waves  {k.modeled_seconds * 1e3:9.3f} ms"
            )
        for it in self.iterations:
            flags = "".join(
                ("P" if it.pick_less else "-", "C" if it.cross_check else "-")
            )
            lines.append(
                f"  iter {it.iteration:3d} [{flags}]  changed {it.changed:8d}  "
                f"processed {it.processed:8d}  {it.modeled_seconds * 1e3:9.3f} ms"
            )
        if self.fault_rungs:
            rungs = ", ".join(f"{k}={v}" for k, v in sorted(self.fault_rungs.items()))
            lines.append(f"  faults:    {rungs}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #


def platform_for_device(
    device: DeviceSpec, platform: GpuPlatform = A100_PLATFORM
) -> GpuPlatform:
    """Platform with its sector size aligned to the counters' device.

    Public because the driver's :class:`~repro.core.budget.BudgetMeter`
    needs the same alignment when pricing iterations against a
    ``gpu_seconds`` budget.
    """
    if platform.sector_bytes == device.sector_bytes:
        return platform
    return replace(platform, sector_bytes=device.sector_bytes)


#: Backwards-compatible private alias (pre-hardening name).
_platform_for = platform_for_device


def _histogram(samples: list[float]) -> dict:
    data = np.asarray(samples, dtype=np.float64)
    if data.size:
        data = np.clip(data, _HIST_EDGES[0], _HIST_EDGES[-1])
    counts, edges = np.histogram(data, bins=_HIST_EDGES)
    return {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def _kernel_profiles(tracer: Tracer, platform: GpuPlatform) -> tuple[KernelProfile, ...]:
    launches: dict[str, int] = {}
    waves: dict[str, int] = {}
    counters: dict[str, KernelCounters] = {}
    for ev in tracer.of_kind("kernel_launch"):
        launches[ev.kernel] = launches.get(ev.kernel, 0) + 1
        waves[ev.kernel] = waves.get(ev.kernel, 0) + ev.num_waves
    for ev in tracer.of_kind("wave"):
        acc = counters.setdefault(ev.kernel, KernelCounters())
        acc += KernelCounters(**ev.counters)
    profiles = []
    for kernel in sorted(launches):
        c = counters.get(kernel, KernelCounters())
        # Wave deltas exclude the per-launch bookkeeping (launches/waves
        # are incremented once per grid, outside the wave loop); restore
        # them from the launch events so per-kernel pricing includes the
        # launch and wave overhead terms.
        c.launches = launches[kernel]
        c.waves = waves[kernel]
        profiles.append(
            KernelProfile(
                kernel=kernel,
                launches=launches[kernel],
                waves=waves[kernel],
                modeled_seconds=estimate_gpu_seconds(c, platform),
                counters=c.as_dict(),
            )
        )
    return tuple(profiles)


def build_profile(
    result,
    *,
    device: DeviceSpec | None = None,
    platform: GpuPlatform = A100_PLATFORM,
    tracer: Tracer | None = None,
) -> RunProfile:
    """Aggregate an :class:`~repro.core.result.LPAResult` (and optionally
    its trace) into a :class:`RunProfile`.

    ``device`` defaults to the run's configured device; its
    ``sector_bytes`` overrides the platform's so traffic bytes always
    track the device that produced the counters.
    """
    if device is None and result.config is not None:
        device = result.config.device
    if device is None:
        from repro.gpu.device import A100

        device = A100
    platform = _platform_for(device, platform)

    total = result.total_counters
    iteration_profiles = tuple(
        IterationProfile(
            iteration=it.iteration,
            changed=it.changed,
            processed=it.processed,
            pick_less=it.pick_less,
            cross_check=it.cross_check,
            reverted=it.reverted,
            modeled_seconds=estimate_gpu_seconds(it.counters, platform),
            counters=it.counters.as_dict(),
        )
        for it in result.iterations
    )

    # Histograms: per-wave granularity when a trace is available, else one
    # sample per iteration from the driver-level counters.
    probe_samples: list[float] = []
    serial_samples: list[float] = []
    wave_events = tracer.of_kind("wave") if tracer is not None else []
    if wave_events:
        for ev in wave_events:
            edges = ev.counters.get("edges_scanned", 0)
            if edges > 0:
                probe_samples.append(ev.counters.get("probes", 0) / edges)
                serial_samples.append(ev.counters.get("warp_serial_probes", 0) / edges)
    else:
        for it in result.iterations:
            if it.counters.edges_scanned > 0:
                probe_samples.append(it.counters.probes / it.counters.edges_scanned)
                serial_samples.append(
                    it.counters.warp_serial_probes / it.counters.edges_scanned
                )

    atomics = total.atomic_cas + total.atomic_add
    rates = {
        "atomic_conflict_rate": total.atomic_conflicts / max(atomics, 1),
        "probes_per_edge": total.probes / max(total.edges_scanned, 1),
        "avg_waves_per_launch": total.waves / max(total.launches, 1),
    }

    fault_rungs: dict[str, int] = {}
    for ev in getattr(result, "fault_events", []):
        fault_rungs[ev.action] = fault_rungs.get(ev.action, 0) + 1
    if not fault_rungs and tracer is not None:
        for ev in tracer.of_kind("fault_rung"):
            fault_rungs[ev.action] = fault_rungs.get(ev.action, 0) + 1

    return RunProfile(
        algorithm=result.algorithm,
        converged=result.converged,
        device_name=device.name,
        sector_bytes=device.sector_bytes,
        modeled_seconds=estimate_gpu_seconds(total, platform),
        bytes_moved=total.bytes_moved(device.sector_bytes),
        counters=total.as_dict(),
        iterations=iteration_profiles,
        kernels=_kernel_profiles(tracer, platform) if tracer is not None else (),
        histograms={
            "probes_per_edge": _histogram(probe_samples),
            "warp_serial_per_edge": _histogram(serial_samples),
        },
        rates=rates,
        fault_rungs=fault_rungs,
    )
