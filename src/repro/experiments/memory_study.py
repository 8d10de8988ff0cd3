"""E3 — hashtable memory footprint: per-thread (GVE-LPA) vs per-vertex (ν-LPA).

Regenerates the paper's §4.2 argument quantitatively: per-thread
collision-free tables cost O(T·N), which is fine for a 64-thread CPU but
"impractical" for a GPU's ~2.2×10⁵ resident threads, while ν-LPA's
per-vertex layout stays at O(M) — two buffers of 2|E|.

Footprints come from the memory governor's analytic estimator
(:func:`repro.gpu.governor.estimate_run_footprint`) — the same model the
service's admission control and the per-run allocation ledger enforce —
so the study and the runtime agree on what "fits" means.  Each Table-1
graph is priced at *paper scale* in both the compact (32-bit) and wide
(64-bit) layouts against the A100's 80 GB, which surfaces the
compact-vs-wide fit threshold: graphs that only fit the device because
the compact layout halves the index traffic.  A small stand-in graph
cross-checks the estimator's CSR component against the *actual*
:meth:`~repro.graph.csr.CSRGraph.memory_bytes` of a materialised graph.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.gpu.device import A100, XEON_GOLD_6226R_DUAL
from repro.gpu.governor import estimate_run_footprint
from repro.graph.csr import index_dtype
from repro.graph.datasets import dataset_names, generate_standin, get_dataset
from repro.hashing.collision_free import memory_footprint
from repro.perf.report import format_table

__all__ = ["run"]

_GIB = 1024.0**3
def _wave_edges(num_vertices: int, num_edges: int) -> int:
    """Analytic residency-wave edge bound at paper scale.

    Workspace arenas are sized by the largest *wave's* edge range, not the
    whole graph: the device schedules at most ``max_resident_threads``
    vertices per thread-kernel wave, so with only (n, m) known we price
    the edges of one wave as an even split across waves.  At working
    scale, where a real graph exists, admission control uses the exact
    per-wave bound (:func:`repro.gpu.governor.wave_edge_bound`) instead.
    """
    waves = max(1, -(-num_vertices // A100.max_resident_threads))
    return min(num_edges, -(-num_edges // waves))


def run(
    *,
    scale: float = 1.0,
    seed: int = 42,
    datasets: list[str] | None = None,
) -> ExperimentResult:
    """Run the memory-footprint study (analytic; paper-scale totals).

    ``values``: ``{dataset: {"cpu_per_thread_gib", "gpu_per_thread_gib",
    "per_vertex_gib", "wide_total_gib", "compact_total_gib",
    "fits_wide", "fits_compact", "compact_required"}}`` plus a
    ``"_crosscheck"`` entry comparing the estimator's CSR component with
    an actual materialised graph's ``memory_bytes()``.
    """
    names = datasets if datasets is not None else dataset_names()
    cpu_threads = 2 * XEON_GOLD_6226R_DUAL.total_cores  # SMT, as GVE-LPA uses
    gpu_threads = A100.max_resident_threads
    budget = A100.global_memory_bytes

    rows = []
    values: dict[str, dict] = {}
    compact_saves = []
    for name in names:
        spec = get_dataset(name)
        n, m = spec.paper_num_vertices, spec.paper_num_edges
        cpu = memory_footprint(n, m, cpu_threads)
        gpu = memory_footprint(n, m, gpu_threads)
        wave = _wave_edges(n, m)
        wide = estimate_run_footprint(
            n, m, compact=False, engine="hashtable", wave_edges=wave,
        )
        compact_ok = index_dtype(n, m) == np.int32
        compact = (
            estimate_run_footprint(
                n, m, compact=True, engine="hashtable", wave_edges=wave,
            )
            if compact_ok else None
        )
        fits_wide = wide["total"] < budget
        fits_compact = compact is not None and compact["total"] < budget
        compact_required = fits_compact and not fits_wide
        if compact_required:
            compact_saves.append(name)
        values[name] = {
            "cpu_per_thread_gib": cpu["per_thread"] / _GIB,
            "gpu_per_thread_gib": gpu["per_thread"] / _GIB,
            "per_vertex_gib": gpu["per_vertex"] / _GIB,
            "wide_total_gib": wide["total"] / _GIB,
            "compact_total_gib": (
                compact["total"] / _GIB if compact is not None else None
            ),
            "fits_wide": fits_wide,
            "fits_compact": fits_compact,
            "compact_required": compact_required,
        }
        if not fits_compact and not fits_wide:
            verdict = "NO (paper: OOM)"
        elif compact_required:
            verdict = "compact only"
        else:
            verdict = "yes"
        rows.append(
            [
                name,
                f"{cpu['per_thread'] / _GIB:.1f}",
                f"{gpu['per_thread'] / _GIB:,.0f}",
                f"{gpu['per_vertex'] / _GIB:.1f}",
                f"{wide['total'] / _GIB:.1f}",
                f"{compact['total'] / _GIB:.1f}" if compact is not None
                else "overflow",
                verdict,
            ]
        )

    # Cross-check the estimator's CSR component against a real graph: the
    # analytic model must price exactly what the allocation ledger would
    # be charged for the same bytes.
    check = generate_standin("asia_osm", scale=0.02, seed=seed)
    est = estimate_run_footprint(
        check.num_vertices, check.num_edges,
        compact=check.is_compact, engine="hashtable",
    )
    actual_csr = check.memory_bytes()
    csr_deviation = abs(est["csr"] - actual_csr) / max(1, actual_csr)
    values["_crosscheck"] = {
        "graph": "asia_osm@0.02",
        "estimated_csr_bytes": int(est["csr"]),
        "actual_csr_bytes": int(actual_csr),
        "deviation": csr_deviation,
    }

    table = format_table(
        [
            "graph",
            "GVE per-thread, 64 CPU threads (GiB)",
            "GVE per-thread, 221k GPU threads (GiB)",
            "nu-LPA per-vertex (GiB)",
            "wide run total (GiB)",
            "compact run total (GiB)",
            "fits A100 80 GB",
        ],
        rows,
        title="E3: hashtable memory at paper scale — why per-thread tables "
              "cannot transfer to the GPU",
    )
    worst = max(
        (n for n in values if not n.startswith("_")),
        key=lambda n: values[n]["gpu_per_thread_gib"],
    )
    notes = [
        f"per-thread tables on the GPU would need up to "
        f"{values[worst]['gpu_per_thread_gib']:,.0f} GiB ({worst}); "
        "per-vertex stays O(M)",
        f"estimator cross-check: CSR component within "
        f"{csr_deviation:.1%} of a materialised graph's memory_bytes()",
    ]
    if compact_saves:
        notes.append(
            "compact-vs-wide fit threshold: "
            + ", ".join(compact_saves)
            + " fit the A100 only in the compact 32-bit layout"
        )
    oom = [
        n for n in values
        if not n.startswith("_")
        and not values[n]["fits_wide"] and not values[n]["fits_compact"]
    ]
    if oom:
        notes.append(
            "nu-LPA's own OOM reproduces: " + ", ".join(oom)
            + " exceed the A100's 80 GB in either layout "
            "(CSR + labels + the 2|E| hashtable buffers + workspace)"
        )
    return ExperimentResult(
        experiment_id="E3",
        title="Hashtable memory footprint (per-thread vs per-vertex)",
        table=table,
        values=values,
        notes=notes,
    )
