"""Cost models: counters → modelled seconds, with paper-scale extrapolation.

Two ingredients:

1. **Per-platform time formulae.**  For ν-LPA on the GPU,

   .. math:: t = n_{launch} c_{launch} + n_{wave} c_{wave}
                 + \\frac{B_{sector} (S_r + S_w)}{BW}
                 + P_{warp} c_{probe} + A_{conf} c_{atomic}

   — bandwidth for the streamed traffic, serialised latency for what
   lockstep cannot hide (per-warp max probes, conflicting atomics).  The
   CPU/GPU baselines use work-count formulae documented on each function.

2. **Extrapolation.**  Experiments run on laptop-scale stand-ins but report
   paper-scale times: every extensive counter is scaled by the paper/
   stand-in edge ratio (vertex-extensive ones by the vertex ratio) before
   the formula is applied.  Ratios come from :func:`extrapolation_ratios`.
   Counter *rates* (probes per edge, conflicts per atomic, ...) are the
   measured quantities that carry each experiment's signal; the ratios are
   a common factor inside one experiment and cancel in relative results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import BaselineResult
from repro.baselines.louvain import LouvainResult
from repro.core.result import LPAResult
from repro.gpu.metrics import KernelCounters
from repro.graph.csr import CSRGraph
from repro.perf.platforms import (
    A100_PLATFORM,
    XEON_MULTICORE,
    XEON_SEQUENTIAL,
    CpuPlatform,
    GpuPlatform,
)

__all__ = [
    "extrapolation_ratios",
    "scale_counters",
    "estimate_gpu_seconds",
    "estimate_flpa_seconds",
    "estimate_networkit_seconds",
    "estimate_gve_seconds",
    "estimate_gunrock_seconds",
    "estimate_louvain_seconds",
]

#: GVE-LPA's published advantage over NetworKit's std::map accounting.
_GVE_SPEEDUP_OVER_NETWORKIT = 40.0


@dataclass(frozen=True)
class Ratios:
    """Stand-in → paper scaling factors."""

    edges: float
    vertices: float


def extrapolation_ratios(
    standin: CSRGraph, paper_vertices: int | None, paper_edges: int | None
) -> Ratios:
    """Scaling ratios; identity when no paper-scale target is given."""
    if paper_vertices is None or paper_edges is None:
        return Ratios(edges=1.0, vertices=1.0)
    return Ratios(
        edges=paper_edges / max(standin.num_edges, 1),
        vertices=paper_vertices / max(standin.num_vertices, 1),
    )


def scale_counters(counters: KernelCounters, ratios: Ratios) -> KernelCounters:
    """Scale extensive counters to paper size.

    Edge-extensive quantities (traffic, probes, atomics) scale with |E|;
    vertex-extensive ones (vertices processed, waves) with |V|; launch
    counts are per-iteration constants and do not scale.
    """
    e, v = ratios.edges, ratios.vertices
    return KernelCounters(
        launches=counters.launches,
        waves=max(counters.waves, int(round(counters.waves * v))),
        sectors_read=int(counters.sectors_read * e),
        sectors_written=int(counters.sectors_written * e),
        edges_scanned=int(counters.edges_scanned * e),
        vertices_processed=int(counters.vertices_processed * v),
        probes=int(counters.probes * e),
        warp_serial_probes=int(counters.warp_serial_probes * e),
        atomic_cas=int(counters.atomic_cas * e),
        atomic_add=int(counters.atomic_add * e),
        atomic_conflicts=int(counters.atomic_conflicts * e),
        slots_cleared=int(counters.slots_cleared * e),
    )


def estimate_gpu_seconds(
    counters: KernelCounters,
    platform: GpuPlatform = A100_PLATFORM,
) -> float:
    """Modelled ν-LPA runtime from (possibly scaled) kernel counters.

    Launch overhead is charged per ``counters.launches`` (one per
    degree-class dispatch), wave overhead per ``counters.waves``.
    """
    bandwidth_time = (
        counters.bytes_moved(platform.sector_bytes) / platform.effective_bandwidth
    )
    return (
        counters.launches * platform.launch_overhead
        + counters.waves * platform.wave_overhead
        + bandwidth_time
        + counters.warp_serial_probes * platform.probe_serial_cost
        + counters.atomic_conflicts * platform.atomic_conflict_cost
    )


def estimate_flpa_seconds(
    result: BaselineResult,
    ratios: Ratios,
    platform: CpuPlatform = XEON_SEQUENTIAL,
) -> float:
    """FLPA: sequential pops, each rescanning its adjacency list."""
    edges = result.edges_scanned * ratios.edges
    pops = result.vertices_processed * ratios.vertices
    return edges * platform.edge_cost + pops * platform.vertex_cost


def estimate_networkit_seconds(
    result: BaselineResult,
    ratios: Ratios,
    platform: CpuPlatform = XEON_MULTICORE,
) -> float:
    """NetworKit PLP: std::map edge accounting over ``cores`` threads."""
    edges = result.edges_scanned * ratios.edges
    vertices = result.vertices_processed * ratios.vertices
    per_core = (edges * platform.edge_cost + vertices * platform.vertex_cost) / platform.cores
    return per_core + result.iterations * platform.barrier_cost


def estimate_gve_seconds(
    result: BaselineResult,
    ratios: Ratios,
    platform: CpuPlatform = XEON_MULTICORE,
) -> float:
    """GVE-LPA: NetworKit's schedule with 40× cheaper label accounting."""
    edges = result.edges_scanned * ratios.edges
    vertices = result.vertices_processed * ratios.vertices
    per_core = (
        edges * platform.edge_cost / _GVE_SPEEDUP_OVER_NETWORKIT
        + vertices * platform.vertex_cost
    ) / platform.cores
    return per_core + result.iterations * platform.barrier_cost


def estimate_gunrock_seconds(
    result: BaselineResult,
    ratios: Ratios,
    platform: GpuPlatform = A100_PLATFORM,
) -> float:
    """Gunrock LPA: synchronous full-graph streaming, fixed iterations."""
    edges = result.edges_scanned * ratios.edges
    vertices = result.vertices_processed * ratios.vertices
    return (
        edges / platform.sync_lpa_edges_per_s
        + vertices * platform.sync_lpa_vertex_cost
        + result.iterations * platform.launch_overhead
    )


def estimate_louvain_seconds(
    result: LouvainResult,
    ratios: Ratios,
    platform: GpuPlatform = A100_PLATFORM,
) -> float:
    """cuGraph Louvain: move rounds plus per-pass aggregation."""
    edges = result.edges_scanned * ratios.edges
    move_time = edges / platform.louvain_edges_per_s
    # Each pass aggregates its working graph; pass sizes shrink
    # geometrically, so approximate the summed aggregation work by the
    # first pass's edge count.
    first_pass_edges = (
        result.edges_scanned / max(result.iterations, 1) * ratios.edges
    )
    aggregate_time = (
        len(result.pass_sizes) * first_pass_edges
        * platform.louvain_aggregate_s_per_edge
    )
    return move_time + aggregate_time


def estimate_lpa_result_seconds(
    result: LPAResult,
    ratios: Ratios,
    platform: GpuPlatform = A100_PLATFORM,
) -> float:
    """Convenience: scale an LPAResult's summed counters and price them."""
    return estimate_gpu_seconds(scale_counters(result.total_counters, ratios), platform)
