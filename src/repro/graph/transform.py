"""Graph transformations: subgraphs, relabeling, component extraction, deltas.

Utilities a downstream user needs around the core algorithm: cutting a
detected community out for inspection, restricting to the giant component
before benchmarking, or permuting vertex ids (the degree-sorted order the
two-kernel partition likes).

The delta helpers (:func:`add_edges`, :func:`remove_edges`,
:func:`update_weights`) are the mutation primitives of the streaming
pipeline (:mod:`repro.stream`): each takes an immutable
:class:`~repro.graph.csr.CSRGraph` plus undirected edge arrays and returns
a *new* graph with the symmetric-arc invariant enforced — every insert adds
both directions, every delete removes both, every weight update rewrites
both.  They are deterministic (same inputs → bit-identical CSR), which is
what lets a replayed delta log reconstruct a crashed stream's graph exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.build import coo_to_csr, deduplicate_edges, symmetrize_edges
from repro.graph.csr import CSRGraph
from repro.graph.properties import connected_components
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "induced_subgraph",
    "largest_component",
    "permute_vertices",
    "remove_self_loops",
    "community_subgraph",
    "ArcIndex",
    "add_edges",
    "remove_edges",
    "update_weights",
]


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    Returns ``(subgraph, mapping)`` where ``mapping[k]`` is the original id
    of the subgraph's vertex ``k``.  Duplicate ids are rejected.
    """
    vertices = np.asarray(vertices, dtype=VERTEX_DTYPE).ravel()
    if vertices.shape[0] != np.unique(vertices).shape[0]:
        raise GraphConstructionError("induced_subgraph: duplicate vertex ids")
    if vertices.shape[0] and (
        vertices.min() < 0 or vertices.max() >= graph.num_vertices
    ):
        raise GraphConstructionError("induced_subgraph: vertex id out of range")

    keep = np.zeros(graph.num_vertices, dtype=bool)
    keep[vertices] = True
    new_id = np.full(graph.num_vertices, -1, dtype=VERTEX_DTYPE)
    new_id[vertices] = np.arange(vertices.shape[0], dtype=VERTEX_DTYPE)

    src = graph.source_ids()
    dst = graph.targets
    mask = keep[src] & keep[dst]
    sub = coo_to_csr(
        new_id[src[mask]], new_id[dst[mask]], graph.weights[mask],
        vertices.shape[0],
    )
    return sub, vertices


def largest_component(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of the largest connected component."""
    if graph.num_vertices == 0:
        return graph, np.empty(0, dtype=VERTEX_DTYPE)
    comp = connected_components(graph)
    biggest = int(np.argmax(np.bincount(comp)))
    return induced_subgraph(graph, np.flatnonzero(comp == biggest))


def permute_vertices(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Renumber vertices so that new vertex ``k`` is old vertex ``perm[k]``."""
    perm = np.asarray(perm, dtype=VERTEX_DTYPE)
    if not np.array_equal(np.sort(perm), np.arange(graph.num_vertices)):
        raise GraphConstructionError("perm must be a permutation of 0..N-1")
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
    src = inverse[graph.source_ids()]
    dst = inverse[graph.targets]
    return coo_to_csr(
        src, dst, graph.weights, graph.num_vertices
    )


def remove_self_loops(graph: CSRGraph) -> CSRGraph:
    """Copy of ``graph`` without self-loop arcs."""
    src = graph.source_ids()
    keep = src != graph.targets
    return coo_to_csr(
        src[keep], graph.targets[keep], graph.weights[keep], graph.num_vertices
    )


def _delta_edge_arrays(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
    *,
    num_vertices: int | None,
    what: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Common checks for the delta helpers; returns ``(src, dst, w, n)``.

    ``num_vertices`` may *grow* the vertex set (streams see new users);
    shrinking is rejected because existing arcs would dangle.
    """
    src = np.asarray(src, dtype=VERTEX_DTYPE).ravel()
    dst = np.asarray(dst, dtype=VERTEX_DTYPE).ravel()
    if src.shape != dst.shape:
        raise GraphConstructionError(
            f"{what}: src and dst must have the same length; "
            f"got {src.shape[0]} != {dst.shape[0]}"
        )
    if weights is None:
        w = np.ones(src.shape[0], dtype=WEIGHT_DTYPE)
    else:
        w = np.asarray(weights, dtype=WEIGHT_DTYPE).ravel()
        if w.shape != src.shape:
            raise GraphConstructionError(f"{what}: weights must align with src/dst")
        if w.shape[0] and not np.all(np.isfinite(w)):
            raise GraphConstructionError(f"{what}: edge weights must be finite")
    n = graph.num_vertices if num_vertices is None else int(num_vertices)
    if n < graph.num_vertices:
        raise GraphConstructionError(
            f"{what}: num_vertices={n} would shrink the graph "
            f"({graph.num_vertices} vertices); deltas may only grow it"
        )
    if src.shape[0]:
        lo = int(min(src.min(), dst.min()))
        hi = int(max(src.max(), dst.max()))
        if lo < 0 or hi >= n:
            raise GraphConstructionError(
                f"{what}: endpoint ids must lie in [0, {n}); "
                f"got range [{lo}, {hi}]"
            )
    return src, dst, w, n


_COMBINES = ("max", "sum", "first")


class ArcIndex:
    """A graph's arcs addressed by key ``src * max(n, 1) + dst``, plus the
    one merge every edge delta goes through.

    ``num_vertices`` is the vertex count *after* the change; it may grow
    the graph.  Rows built by :func:`~repro.graph.build.from_edges` and by
    :meth:`merge` are key-sorted (strictly increasing keys), so for them
    the arcs are their own index and a change of k arcs costs
    O(|E| + k log |E|).  Other rows (from :func:`permute_vertices`, say,
    or parallel arcs) are looked up through one stable argsort of their
    keys.  ``resort`` asks for key-sorted rows with parallel arcs coalesced
    by ``combine``, which is what any insert or vertex-set growth returns
    (and what inserting needs); without it the rows keep their order.
    """

    def __init__(
        self,
        graph: CSRGraph,
        num_vertices: int | None = None,
        *,
        resort: bool = False,
        combine: str = "max",
    ) -> None:
        n = graph.num_vertices if num_vertices is None else int(num_vertices)
        self.graph = graph
        self.num_vertices = n
        self.resort = resort or n > graph.num_vertices
        self.key_n = np.int64(max(n, 1))
        src = graph.source_ids()
        offsets, targets, weights = graph.offsets, graph.targets, graph.weights
        keys = src * self.key_n + targets
        order = None
        if keys.shape[0] > 1 and not np.all(keys[1:] > keys[:-1]):
            if self.resort:
                src, targets, weights = deduplicate_edges(
                    src, targets, weights, num_vertices=n, combine=combine
                )
                offsets = np.zeros(graph.num_vertices + 1, dtype=OFFSET_DTYPE)
                np.cumsum(np.bincount(src, minlength=graph.num_vertices),
                          out=offsets[1:])
                keys = src * self.key_n + targets
            else:
                order = np.argsort(keys, kind="stable")
        self._src, self._offsets = src, offsets
        self._targets, self._weights = targets, weights
        self._order = order
        self._sorted_keys = keys if order is None else keys[order]

    def key(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return src.astype(np.int64) * self.key_n + dst.astype(np.int64)

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each key's arcs start in key order, and how many there are."""
        first = np.searchsorted(self._sorted_keys, keys, side="left")
        return first, np.searchsorted(self._sorted_keys, keys, side="right") - first

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, weight)`` of each key's (first) arc."""
        first, count = self.find(keys)
        found = count > 0
        pos = first[found]
        if self._order is not None:
            pos = self._order[pos]
        weight = np.zeros(keys.shape[0], dtype=WEIGHT_DTYPE)
        weight[found] = self._weights[pos]
        return found, weight

    def merge(
        self, keys: np.ndarray, weights: np.ndarray, present: np.ndarray
    ) -> CSRGraph:
        """The graph with arc ``keys[i]`` set to ``weights[i]`` (inserted
        when new) where ``present[i]``, and dropped where not.

        ``keys`` must be sorted and unique.  Weights are overwritten in
        place, dropped arcs masked out, new arcs inserted at their key
        position, and the offsets rebuilt from per-row count deltas.
        """
        if keys.shape[0] == 0 and not self.resort:
            return self.graph
        first, count = self.find(keys)
        # Every existing arc a change names, as a position in CSR order.
        owner = np.repeat(np.arange(keys.shape[0]), count)
        pos = (np.repeat(first - np.cumsum(count) + count, count)
               + np.arange(owner.shape[0]))
        if self._order is not None:
            pos = self._order[pos]
        kept = present[owner]
        new_w = np.array(self._weights, dtype=WEIGHT_DTYPE)
        new_w[pos[kept]] = weights[owner[kept]]
        drop = pos[~kept]
        fresh = present & (count == 0)
        if fresh.any() and not self.resort:
            raise GraphConstructionError(
                "ArcIndex.merge: inserting arcs needs an index built with "
                "resort=True"
            )
        targets = self._targets
        if self.resort:
            targets = targets.astype(VERTEX_DTYPE, copy=False)
        elif present.all():
            return CSRGraph(self._offsets, targets, new_w, validate=False)

        counts = np.zeros(self.num_vertices, dtype=OFFSET_DTYPE)
        counts[: self.graph.num_vertices] = np.diff(self._offsets)
        if drop.shape[0]:
            keep = np.ones(targets.shape[0], dtype=bool)
            keep[drop] = False
            targets, new_w = targets[keep], new_w[keep]
            np.subtract.at(counts, self._src[drop], 1)
        if fresh.any():
            at = first[fresh]
            if drop.shape[0]:
                at = at - np.searchsorted(np.sort(drop), at)
            new_keys = keys[fresh]
            targets = np.insert(targets, at, new_keys % self.key_n)
            new_w = np.insert(new_w, at, weights[fresh])
            np.add.at(counts, new_keys // self.key_n, 1)
        offsets = np.zeros(self.num_vertices + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        return CSRGraph(offsets, targets, new_w, validate=False)


def add_edges(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    num_vertices: int | None = None,
    combine: str = "max",
) -> CSRGraph:
    """New graph with the undirected edges ``(src[i], dst[i])`` inserted.

    Symmetric-arc enforcement: each inserted edge contributes both
    directions (self-loops stay single).  Inserting an arc that already
    exists — or the same edge twice within one call — coalesces the
    duplicates with ``combine`` (``"max"`` by default, matching the build
    pipeline, so re-inserting an existing edge is idempotent; ``"sum"``
    gives multigraph accumulation).  ``num_vertices`` may grow the vertex
    set; new vertices start isolated until an edge reaches them.  The
    result's rows are key-sorted.
    """
    src, dst, w, n = _delta_edge_arrays(
        graph, src, dst, weights, num_vertices=num_vertices, what="add_edges"
    )
    if src.shape[0] == 0 and n == graph.num_vertices:
        return graph
    if combine not in _COMBINES:
        raise GraphConstructionError(f"unknown combine mode {combine!r}")
    arcs = ArcIndex(graph, n, resort=True, combine=combine)
    add_src, add_dst, add_w = symmetrize_edges(src, dst, w)
    # Each named arc's current weight goes first, then the inserted ones:
    # the order a rebuild of the whole graph would combine them in.
    named = np.unique(arcs.key(add_src, add_dst))
    found, current = arcs.lookup(named)
    named = named[found]
    m_src, m_dst, m_w = deduplicate_edges(
        np.concatenate([named // arcs.key_n, add_src]),
        np.concatenate([named % arcs.key_n, add_dst]),
        np.concatenate([current[found], add_w]),
        num_vertices=n, combine=combine,
    )
    return arcs.merge(
        arcs.key(m_src, m_dst), m_w, np.ones(m_w.shape[0], dtype=bool)
    )


def _check_missing(what: str, missing: str) -> None:
    if missing not in ("error", "ignore"):
        raise GraphConstructionError(
            f"{what}: missing must be 'error' or 'ignore'; got {missing!r}"
        )


def _require_present(
    what: str, arcs: ArcIndex, src: np.ndarray, dst: np.ndarray
) -> None:
    """Raise naming the first edge ``arcs`` does not have."""
    _, count = arcs.find(arcs.key(src, dst))
    if not count.all():
        first = int(np.flatnonzero(count == 0)[0])
        raise GraphConstructionError(
            f"{what}: edge {int(src[first])}-{int(dst[first])} "
            f"does not exist (pass missing='ignore' to skip)"
        )


def remove_edges(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    missing: str = "error",
) -> CSRGraph:
    """New graph with the undirected edges ``(src[i], dst[i])`` removed.

    Both directions of every named edge are dropped, keeping the
    symmetric-arc invariant.  ``missing`` controls what a nonexistent edge
    does: ``"error"`` (default) raises :class:`GraphConstructionError`
    naming the first offender, ``"ignore"`` skips it — the streaming
    pipeline quarantines such deltas upstream and applies with
    ``"ignore"``.
    """
    _check_missing("remove_edges", missing)
    src, dst, _, n = _delta_edge_arrays(
        graph, src, dst, None, num_vertices=None, what="remove_edges"
    )
    if src.shape[0] == 0:
        return graph
    arcs = ArcIndex(graph)
    if missing == "error":
        _require_present("remove_edges", arcs, src, dst)
    keys = np.unique(np.concatenate([arcs.key(src, dst), arcs.key(dst, src)]))
    return arcs.merge(
        keys, np.zeros(keys.shape[0], dtype=WEIGHT_DTYPE),
        np.zeros(keys.shape[0], dtype=bool),
    )


def update_weights(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    *,
    missing: str = "error",
) -> CSRGraph:
    """New graph with the weight of each edge ``(src[i], dst[i])`` replaced.

    Both directions of every named edge take the new weight (symmetric-arc
    enforcement).  Updates apply in call order, so the last one to name an
    edge — in either orientation — wins on both arcs, as in a sequence.
    ``missing`` follows :func:`remove_edges`: ``"error"`` raises on an
    edge the graph does not have, ``"ignore"`` skips it.
    """
    _check_missing("update_weights", missing)
    if weights is None:
        raise GraphConstructionError("update_weights: weights are required")
    src, dst, w, n = _delta_edge_arrays(
        graph, src, dst, weights, num_vertices=None, what="update_weights"
    )
    if src.shape[0] == 0:
        return graph
    arcs = ArcIndex(graph)
    if missing == "error":
        _require_present("update_weights", arcs, src, dst)
    keys = np.concatenate([arcs.key(src, dst), arcs.key(dst, src)])
    calls = np.tile(np.arange(src.shape[0]), 2)
    order = np.lexsort((calls, keys))
    last = np.ones(order.shape[0], dtype=bool)
    last[:-1] = keys[order[1:]] != keys[order[:-1]]
    pick = order[last]
    keys, w = keys[pick], np.tile(w, 2)[pick]
    _, count = arcs.find(keys)
    hit = count > 0
    return arcs.merge(keys[hit], w[hit], np.ones(int(hit.sum()), dtype=bool))


def community_subgraph(
    graph: CSRGraph, labels: np.ndarray, community: int
) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of one detected community."""
    labels = np.asarray(labels)
    members = np.flatnonzero(labels == community)
    if members.shape[0] == 0:
        raise GraphConstructionError(f"community {community} has no members")
    return induced_subgraph(graph, members)
