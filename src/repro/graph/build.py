"""Builders that turn raw edge data into :class:`~repro.graph.csr.CSRGraph`.

The paper's pipeline ensures "the edges are undirected and weighted, with a
default weight of 1" (Section 5.1.3): directed inputs get reverse edges
added, parallel edges are merged by summing weights, and vertex ids are
taken as dense ``[0, N)``.  These builders implement exactly that pipeline
with vectorised NumPy (sort-based grouping, no Python-level edge loops).

Input given no weights stays unit-weight end to end: each stage carries a
:func:`~repro.graph.csr.unit_weights` view instead of an array of ones,
and only a ``combine="sum"`` that merges parallel arcs writes weights.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.csr import (
    CSRGraph, gather_weights, index_dtype, is_unit, unit_weights,
)
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "from_edges",
    "from_networkx",
    "from_scipy_sparse",
    "symmetrize_edges",
    "deduplicate_edges",
    "coo_to_csr",
]


def _as_edge_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    src = np.asarray(src, dtype=VERTEX_DTYPE).ravel()
    dst = np.asarray(dst, dtype=VERTEX_DTYPE).ravel()
    if src.shape != dst.shape:
        raise GraphConstructionError(
            f"src and dst must have the same length; got {src.shape[0]} != {dst.shape[0]}"
        )
    if weights is None:
        w = unit_weights(src.shape[0])
    elif isinstance(weights, np.ndarray) and is_unit(weights):
        w = weights
    else:
        w = np.asarray(weights, dtype=WEIGHT_DTYPE).ravel()
    if w.shape != src.shape:
        raise GraphConstructionError("weights must align with src/dst")
    if not is_unit(w) and not np.all(np.isfinite(w)):
        raise GraphConstructionError(
            "edge weights must be finite (NaN/inf would silently corrupt "
            "modularity and label-weight accumulation)"
        )
    if src.shape[0] and (min(src.min(), dst.min()) < 0):
        raise GraphConstructionError("vertex ids must be non-negative")
    return src, dst, w


def _vertex_count(
    src: np.ndarray, dst: np.ndarray, num_vertices: int | None
) -> int:
    """``num_vertices``, or ``max id + 1`` when omitted; every id must be below it."""
    top = int(max(src.max(), dst.max())) if src.shape[0] else -1
    if num_vertices is None:
        return top + 1
    if num_vertices <= top:
        raise GraphConstructionError(
            f"num_vertices={num_vertices} too small for max id {top}"
        )
    return int(num_vertices)


def _symmetrize(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    non_loop = src != dst
    src, dst = (
        np.concatenate([src, dst[non_loop]]),
        np.concatenate([dst, src[non_loop]]),
    )
    if is_unit(w):
        return src, dst, unit_weights(src.shape[0])
    return src, dst, np.concatenate([w, w[non_loop]])


def symmetrize_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add the reverse of every non-loop arc.

    Self-loops are kept single (their reverse is themselves).  Parallel
    duplicates created by symmetrising an already-undirected input are
    merged later by :func:`deduplicate_edges`.
    """
    return _symmetrize(*_as_edge_arrays(src, dst, weights))


def _stable_key_order(
    keys: np.ndarray, key_bound: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for a stable sort of ``keys`` in ``[0, key_bound)``.

    When a key and its index fit 63 bits together, ``key << b | index``
    is sorted *in place* (``keys`` is consumed): the packed values are
    unique, so an unstable sort lands in stable order, and both outputs
    decode from the one sorted array — the packing of
    :func:`repro.core.engine_vectorized._groupby_order`.  Wider keys
    fall back to a stable argsort.
    """
    m = keys.shape[0]
    ibits = max((m - 1).bit_length(), 1)
    if max(key_bound - 1, 1).bit_length() + ibits > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    np.left_shift(keys, ibits, out=keys)
    np.bitwise_or(keys, np.arange(m, dtype=np.int64), out=keys)
    keys.sort()
    order = keys & np.int64((1 << ibits) - 1)
    np.right_shift(keys, ibits, out=keys)
    return order, keys


def _deduplicate(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, n: int, combine: str,
    target_dtype=VERTEX_DTYPE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge parallel arcs of validated arrays with ids in ``[0, n)``.

    The result's rows are key-sorted (by source, then target); the
    targets are decoded straight into ``target_dtype``.  Unit weights
    stay unit unless ``combine="sum"`` merges some run of two or more
    arcs, which writes each run's arc count.
    """
    if combine not in ("sum", "max", "first"):
        raise GraphConstructionError(f"unknown combine mode {combine!r}")
    order, keys_sorted = _stable_key_order(src * np.int64(n) + dst, n * n)
    first = np.ones(keys_sorted.shape[0], dtype=bool)
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=first[1:])
    starts = np.flatnonzero(first)

    if is_unit(w):
        if combine != "sum" or starts.shape[0] == keys_sorted.shape[0]:
            merged = unit_weights(starts.shape[0])
        else:
            merged = np.diff(starts, append=keys_sorted.shape[0]).astype(
                WEIGHT_DTYPE
            )
    elif combine == "first":
        merged = w[order[starts]]
    elif combine == "max":
        merged = np.maximum.reduceat(w[order], starts)
    else:
        merged = np.add.reduceat(w[order].astype(np.float64), starts).astype(
            WEIGHT_DTYPE
        )
    uniq = keys_sorted[starts]
    # Free the arc-sized sort buffers before allocating the outputs, so the
    # CSR built from them reuses that memory instead of growing the heap.
    del order, first, keys_sorted
    targets = np.empty(uniq.shape[0], dtype=target_dtype)
    np.remainder(uniq, n, out=targets)
    return uniq // n, targets, merged


def deduplicate_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    num_vertices: int | None = None,
    combine: str = "max",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge parallel arcs.

    ``combine`` chooses how duplicate weights merge: ``"max"`` (default —
    symmetrising an undirected input must not double weights), ``"sum"``
    (multigraph semantics), or ``"first"``.  An id at or above an explicit
    ``num_vertices`` raises :class:`GraphConstructionError` (it would
    alias another arc's key).
    """
    src, dst, w = _as_edge_arrays(src, dst, weights)
    if src.shape[0] == 0:
        return src, dst, w
    n = _vertex_count(src, dst, num_vertices)
    return _deduplicate(src, dst, w, n, combine)


def _csr(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, num_vertices: int
) -> CSRGraph:
    """CSR over arcs whose rows are already in order; takes ``dst``/``weights``.

    Offsets and targets are written in the layout the engines run on:
    int32 whenever the sizes fit (:func:`~repro.graph.csr.index_dtype`).
    """
    idx = index_dtype(num_vertices, dst.shape[0])
    counts = np.bincount(src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=idx)
    np.cumsum(counts, out=offsets[1:])
    return CSRGraph(offsets, dst.astype(idx, copy=False), weights, validate=False)


def coo_to_csr(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    num_vertices: int,
) -> CSRGraph:
    """Pack already-clean COO triples into CSR with a counting sort
    (compact layout when the sizes fit, as :func:`from_edges`)."""
    order = np.argsort(src, kind="stable")
    return _csr(src, dst[order], gather_weights(weights, order), num_vertices)


def from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    num_vertices: int | None = None,
    symmetrize: bool = True,
    dedupe: bool = True,
    combine: str = "max",
) -> CSRGraph:
    """Build a CSR graph from edge arrays through the paper's pipeline.

    The graph is stored in the layout the engines run on: int32 offsets
    and targets whenever the vertex and arc counts fit, int64 otherwise.

    Parameters
    ----------
    src, dst:
        Endpoint arrays of equal length. Ids must be dense non-negative
        integers (no relabelling is performed).
    weights:
        Optional weights; omitted, every edge weighs 1.0 and the graph
        holds no weight buffer (:attr:`CSRGraph.unit_weight`).
    num_vertices:
        Explicit vertex count (``>= max id + 1``); inferred when omitted.
    symmetrize:
        Add reverse arcs (default), matching the paper's preprocessing of
        the directed LAW web graphs.
    dedupe:
        Merge parallel arcs with ``combine`` (default ``"max"`` so that
        symmetrising an undirected edge list is idempotent).
    """
    src, dst, w = _as_edge_arrays(src, dst, weights)
    num_vertices = _vertex_count(src, dst, num_vertices)
    if symmetrize:
        src, dst, w = _symmetrize(src, dst, w)
    if dedupe and src.shape[0]:
        # Dedupe leaves fresh, key-sorted arrays, the targets already at
        # the graph's width (merging only shrinks the arc count).
        src, dst, w = _deduplicate(
            src, dst, w, num_vertices, combine,
            index_dtype(num_vertices, src.shape[0]),
        )
        return _csr(src, dst, w, num_vertices)
    return coo_to_csr(src, dst, w, num_vertices)


def from_scipy_sparse(matrix, *, symmetrize: bool = True) -> CSRGraph:
    """Build from any ``scipy.sparse`` matrix (adjacency convention)."""
    import scipy.sparse as sp

    coo = sp.coo_matrix(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise GraphConstructionError(
            f"adjacency matrix must be square; got {coo.shape}"
        )
    return from_edges(
        coo.row.astype(VERTEX_DTYPE),
        coo.col.astype(VERTEX_DTYPE),
        coo.data.astype(WEIGHT_DTYPE),
        num_vertices=coo.shape[0],
        symmetrize=symmetrize,
    )


def from_networkx(graph) -> CSRGraph:
    """Build from a ``networkx`` graph; nodes must be integers ``0..N-1``.

    Edge attribute ``"weight"`` is honoured when present; a graph with
    no ``"weight"`` attribute on any edge builds unit-weight.
    """
    n = graph.number_of_nodes()
    nodes = set(graph.nodes())
    if nodes != set(range(n)):
        raise GraphConstructionError(
            "networkx graph must be labelled with consecutive integers 0..N-1; "
            "use networkx.convert_node_labels_to_integers first"
        )
    m = graph.number_of_edges()
    src = np.empty(m, dtype=VERTEX_DTYPE)
    dst = np.empty(m, dtype=VERTEX_DTYPE)
    w = np.empty(m, dtype=WEIGHT_DTYPE)
    weighted = False
    for idx, (u, v, data) in enumerate(graph.edges(data=True)):
        src[idx] = u
        dst[idx] = v
        w[idx] = data.get("weight", 1.0)
        weighted = weighted or "weight" in data
    return from_edges(
        src, dst, w if weighted else None, num_vertices=n, symmetrize=True
    )
