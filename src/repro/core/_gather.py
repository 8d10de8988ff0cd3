"""Vectorised gathering of the concatenated adjacency slices of a vertex set.

Every engine wave needs "all edges of these vertices" as flat arrays.  The
construction is the standard CSR expansion: repeat each vertex's offset,
add a within-segment ramp, and index.  O(total edges), no Python loop.

All scratch comes from an optional :class:`~repro.perf.workspace.
WorkspaceArena`; with one attached, a steady-state gather performs no heap
allocation (the returned arrays are views into reused slots, valid until
the next gather with the same ``prefix``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.perf.workspace import WorkspaceArena, iota, take

__all__ = ["EdgeGather", "gather_edges"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class EdgeGather:
    """Flat view of the edges of a wave's vertices."""

    #: CSR edge indices, concatenated per vertex in order.
    edge_index: np.ndarray
    #: Wave-local id (0..len(vertices)-1) of the owning vertex, per edge.
    table_id: np.ndarray
    #: Rank of the edge within its vertex's adjacency list; ``None`` when
    #: the caller passed ``need_rank=False``.
    edge_rank: np.ndarray | None
    #: Index of each vertex's first edge in the flat arrays (a vertex
    #: without edges starts where the next one does, or at the end).
    table_start: np.ndarray

    @property
    def num_edges(self) -> int:
        """Total edges gathered."""
        return int(self.edge_index.shape[0])


def gather_edges(
    graph: CSRGraph,
    vertices: np.ndarray,
    arena: WorkspaceArena | None = None,
    *,
    prefix: str = "g",
    need_rank: bool = True,
) -> EdgeGather:
    """Build the :class:`EdgeGather` for ``vertices`` (wave-local order).

    ``prefix`` namespaces the arena slots so two gathers with overlapping
    lifetimes (the engine's wave gather and the frontier's neighbour
    gather) never alias each other's buffers.

    ``need_rank=False`` skips materialising per-edge within-list ranks —
    ``edge_index`` is instead built from the per-vertex *offset
    adjustment* ``offsets[v] - seg_start`` spread over the ramp, which is
    one O(vertices) subtraction instead of an O(edges) gather+subtract.
    The resulting ``edge_index`` is bit-identical either way
    (``(starts - seg_start)[tid] + ramp == starts[tid] + (ramp -
    seg_start[tid])``); callers that never read ``edge_rank`` (the
    thread-per-vertex kernel, the frontier) take the cheaper path.
    """
    nv = int(vertices.shape[0])
    if nv == 0:
        return EdgeGather(edge_index=_EMPTY, table_id=_EMPTY, edge_rank=_EMPTY,
                          table_start=_EMPTY)
    degrees = take(arena, f"{prefix}.deg", nv, graph.degrees.dtype)
    graph.degrees.take(vertices, out=degrees, mode="clip")
    seg_start = take(arena, f"{prefix}.ss", nv, np.int64)
    if int(degrees.max()) == 0:
        seg_start[:] = 0
        return EdgeGather(edge_index=_EMPTY, table_id=_EMPTY, edge_rank=_EMPTY,
                          table_start=seg_start)
    # Compact graphs hold int32 degrees and offsets.  A ufunc mixing them
    # with int64 operands (a cumsum or sum widening into int64, a subtract
    # with an int64 output) casts through a temporary buffer that numpy
    # allocates per call, so each is first copied into an int64 slot and
    # the arithmetic runs in place there.
    seg_start[0] = 0
    np.copyto(seg_start[1:], degrees[:-1])
    np.cumsum(seg_start, out=seg_start)
    total = int(seg_start[-1]) + int(degrees[-1])

    ramp = iota(arena, total)
    table_id = take(arena, f"{prefix}.tid", total, np.int64)
    # Segment ids via boundary-scatter + cumsum (the allocation-free
    # np.repeat): mark each segment's first edge, then prefix-sum.  With a
    # zero-degree vertex present boundaries coincide, so fall back to the
    # duplicate-safe (slower) scattered add.
    table_id[:] = 0
    if nv > 1:
        if int(degrees.min()) > 0:
            table_id[seg_start[1:]] = 1
        else:
            # Zero-degree vertices collapse boundaries (duplicates, and
            # trailing ones point past the last edge).  Engines retire
            # degree-0 vertices before gathering, so only direct callers
            # pay this allocating path.
            idx = seg_start[1:]
            np.add.at(table_id, idx[idx < total], 1)
    np.cumsum(table_id, out=table_id)

    ostarts = take(arena, f"{prefix}.off", nv, graph.offsets.dtype)
    graph.offsets.take(vertices, out=ostarts, mode="clip")
    starts = take(arena, f"{prefix}.adj", nv, np.int64)
    np.copyto(starts, ostarts)
    np.subtract(starts, seg_start, out=starts)  # offset adjustment per vertex

    edge_index = take(arena, f"{prefix}.ei", total, np.int64)
    starts.take(table_id, out=edge_index, mode="clip")
    np.add(edge_index, ramp, out=edge_index)

    edge_rank = None
    if need_rank:
        edge_rank = take(arena, f"{prefix}.rank", total, np.int64)
        seg_start.take(table_id, out=edge_rank, mode="clip")
        np.subtract(ramp, edge_rank, out=edge_rank)
    return EdgeGather(edge_index=edge_index, table_id=table_id,
                      edge_rank=edge_rank, table_start=seg_start)
