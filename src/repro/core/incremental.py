"""Incremental re-detection after graph updates (warm-start ν-LPA).

ν-LPA's vertex-pruning frontier is exactly the machinery a *dynamic*
setting needs: after a batch of edge insertions/deletions, communities far
from the touched region are still correct, so re-detection should start
from the previous labels with only the affected vertices (and their
neighbourhoods) active.  This module provides that warm start — the
approach of the dynamic-LPA literature (e.g. DF-LPA), built from the
library's existing driver.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LPAConfig
from repro.core.lpa import _engine_class, nu_lpa
from repro.core.result import LPAResult
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["affected_vertices", "nu_lpa_incremental"]


def _validate_touched(graph: CSRGraph, touched: np.ndarray, hops: int) -> np.ndarray:
    if hops < 0:
        raise ConfigurationError(f"hops must be >= 0; got {hops}")
    touched = np.unique(np.asarray(touched, dtype=np.int64))
    if touched.shape[0] and (
        touched.min() < 0 or touched.max() >= graph.num_vertices
    ):
        raise ConfigurationError("touched vertex id out of range")
    return touched


def affected_vertices(
    graph: CSRGraph, touched: np.ndarray, *, hops: int = 1
) -> np.ndarray:
    """``touched`` plus its ``hops``-neighbourhood on ``graph``.

    The frontier seed for incremental re-detection: endpoints of changed
    edges plus enough context for labels to re-equilibrate locally.

    The expansion is a vectorised BFS over the CSR arrays: each hop
    gathers the frontier rows' adjacency slices in one fancy-index
    operation, masks out already-seen vertices against a boolean visited
    array, and dedupes with :func:`numpy.unique` — no per-vertex Python
    loop on the subscription hot path.
    """
    touched = _validate_touched(graph, touched, hops)
    n = graph.num_vertices
    if touched.shape[0] == 0 or hops == 0:
        return touched
    offsets = graph.offsets
    targets = graph.targets
    degrees = graph.degrees
    seen = np.zeros(n, dtype=bool)
    seen[touched] = True
    current = touched
    for _ in range(hops):
        counts = degrees[current]
        total = int(counts.sum())
        if total == 0:
            break
        # Gather the concatenated adjacency slices of the frontier:
        # arc index = row start repeated per-degree, plus the within-row
        # offset (a global iota minus each run's start).
        run_starts = np.repeat(
            np.cumsum(counts) - counts, counts.astype(np.intp)
        )
        within = np.arange(total, dtype=np.int64) - run_starts
        nbrs = targets[np.repeat(offsets[current], counts.astype(np.intp)) + within]
        fresh = np.unique(nbrs[~seen[nbrs]])
        if fresh.shape[0] == 0:
            break
        seen[fresh] = True
        current = fresh
    return np.flatnonzero(seen).astype(np.int64)


def _affected_vertices_reference(
    graph: CSRGraph, touched: np.ndarray, *, hops: int = 1
) -> np.ndarray:
    """Pure-Python BFS oracle for the differential test of
    :func:`affected_vertices` (the pre-vectorisation implementation)."""
    touched = _validate_touched(graph, touched, hops)
    current = touched
    seen = set(touched.tolist())
    for _ in range(hops):
        nxt: list[int] = []
        for v in current:
            nxt.extend(graph.neighbors(int(v)).tolist())
        fresh = [u for u in nxt if u not in seen]
        seen.update(fresh)
        current = np.asarray(sorted(set(fresh)), dtype=np.int64)
        if current.shape[0] == 0:
            break
    return np.asarray(sorted(seen), dtype=np.int64)


def nu_lpa_incremental(
    graph: CSRGraph,
    previous_labels: np.ndarray,
    touched: np.ndarray,
    *,
    config: LPAConfig | None = None,
    engine: str = "vectorized",
    hops: int = 1,
) -> LPAResult:
    """Re-detect communities after a graph update, warm-started.

    Parameters
    ----------
    graph:
        The *updated* graph (vertex ids must be compatible with
        ``previous_labels``; grow-only updates can pad labels first).
    previous_labels:
        Labels from the previous detection on the pre-update graph.
    touched:
        Vertices incident to inserted/deleted edges.
    config, engine:
        As for :func:`~repro.core.lpa.nu_lpa`.
    hops:
        Frontier context radius around ``touched``.

    Returns the usual :class:`~repro.core.result.LPAResult`; vertices
    outside the affected region keep their previous labels unless a label
    change propagates to them (the frontier re-activates neighbours of
    every change, so corrections travel as far as they need to).
    """
    previous_labels = np.asarray(previous_labels, dtype=VERTEX_DTYPE)
    if previous_labels.shape[0] != graph.num_vertices:
        raise ConfigurationError(
            f"previous_labels length {previous_labels.shape[0]} != "
            f"num_vertices {graph.num_vertices}"
        )
    touched = _validate_touched(graph, touched, hops)
    if touched.shape[0] == 0:
        # Nothing changed: the previous labels are already the fixed point.
        # Returning them directly skips engine construction entirely — an
        # empty delta batch must cost O(1), not a full wave.
        _engine_class(engine)
        return LPAResult(
            labels=previous_labels.copy(),
            iterations=[],
            converged=True,
            config=config or LPAConfig(),
            algorithm=f"nu-lpa-incremental[{engine}]",
        )
    seed_vertices = affected_vertices(graph, touched, hops=hops)

    # Run the standard driver from the previous labels, with only the
    # affected region initially active.
    result = nu_lpa(
        graph,
        config,
        engine=engine,
        initial_labels=previous_labels,
        initial_active=seed_vertices,
    )
    result.algorithm = result.algorithm.replace("nu-lpa", "nu-lpa-incremental")
    return result
