"""Compressed Sparse Row graph container.

An undirected weighted graph :math:`G(V, E, w)` stored exactly the way the
paper's kernels consume it:

* ``offsets`` — ``int32[N+1]``, edge range of vertex *i* is
  ``[offsets[i], offsets[i+1])``;
* ``targets`` — ``int32[M]`` neighbour ids, where ``M`` counts each
  undirected edge in both directions (the paper's :math:`|E|` "after adding
  reverse edges");
* ``weights`` — ``float32[M]`` matching edge weights.  A graph built
  without weights (the paper's default weight of 1) holds no weight
  buffer: its ``weights`` is a read-only stride-0 view of one ``1.0``
  (:func:`unit_weights`), which every reader indexes like any array.

Offsets and targets always share one width: 32 bits whenever ``N`` and
``M`` fit (:func:`index_dtype`), which is how every builder stores them,
and 64 bits otherwise or on request (:meth:`CSRGraph.with_wide_layout`).

The container is immutable after construction: every algorithm in the
library treats a :class:`CSRGraph` as read-only shared state, which is what
lets the GPU simulator hand the same arrays to thousands of simulated
threads without copies (see the HPC guides: views, not copies).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphConstructionError
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "CSRGraph",
    "gather_weights",
    "index_dtype",
    "is_unit",
    "structural_issues",
    "unit_weights",
]

_INT32_MAX = np.iinfo(np.int32).max

#: The one element every unit-weight view reads.
_ONE = np.ones((), dtype=WEIGHT_DTYPE)
_ONE.setflags(write=False)


def unit_weights(num_arcs: int) -> np.ndarray:
    """``num_arcs`` weights of 1.0 that hold no buffer of their own.

    A read-only stride-0 ``float32`` view, so an unweighted graph keeps
    no array of ones as long as its targets.  Slices stay stride-0 views;
    fancy indexing reads them like any array.
    """
    return np.broadcast_to(_ONE, (num_arcs,))


def is_unit(weights: np.ndarray) -> bool:
    """Whether ``weights`` is a :func:`unit_weights` view.

    Explicit arrays of ones are not: the representation records how the
    weights were made, not what they hold.  An empty ``float32`` array
    is unit either way (numpy gives empty arrays stride 0 too).
    """
    return (
        weights.ndim == 1
        and weights.dtype == WEIGHT_DTYPE
        and (weights.shape[0] == 0
             or (weights.strides == (0,) and bool(weights[0] == 1)))
    )


def gather_weights(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``weights[index]``, staying a unit view when ``weights`` is one."""
    if not is_unit(weights):
        return weights[index]
    size = np.count_nonzero(index) if index.dtype == bool else index.shape[0]
    return unit_weights(size)


def index_dtype(num_vertices: int, num_edges: int) -> np.dtype:
    """Width of a graph's offsets and targets: int32 when the sizes fit.

    Offsets hold arc indices up to ``num_edges`` and targets hold vertex
    ids below ``num_vertices``; past ``2**31 - 1`` either needs 64 bits.
    """
    if num_edges > _INT32_MAX or num_vertices > _INT32_MAX:
        return np.dtype(OFFSET_DTYPE)
    return np.dtype(np.int32)


def structural_issues(
    offsets: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> list[tuple[str, int, str]]:
    """Enumerate structural defects of raw CSR arrays.

    Returns ``(code, count, detail)`` triples, one per defect class found
    (empty list = structurally valid).  Shared by the constructor's
    ``validate=True`` path and :mod:`repro.resilience.validate`, so the two
    can never disagree about what "structurally valid" means.
    """
    issues: list[tuple[str, int, str]] = []
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        issues.append(
            ("bad-offsets-shape", 1, "offsets must be a 1-D array of length >= 1")
        )
        return issues  # every later check indexes offsets
    if offsets[0] != 0:
        issues.append(("bad-offsets-origin", 1, f"offsets[0] must be 0; got {int(offsets[0])}"))
    decreasing = int(np.count_nonzero(np.diff(offsets) < 0))
    if decreasing:
        issues.append(
            ("nonmonotone-offsets", decreasing,
             f"offsets must be non-decreasing; {decreasing} row(s) decrease")
        )
    if targets.ndim != 1:
        issues.append(("bad-targets-shape", 1, "targets must be a 1-D array"))
        return issues
    if offsets[-1] != targets.shape[0]:
        issues.append(
            ("offsets-targets-mismatch", 1,
             f"offsets[-1] ({int(offsets[-1])}) must equal "
             f"len(targets) ({targets.shape[0]})")
        )
    if weights.shape != targets.shape:
        issues.append(
            ("weights-targets-mismatch", 1,
             f"weights length {weights.shape[0] if weights.ndim == 1 else weights.shape} "
             f"must align with targets ({targets.shape[0]})")
        )
    n = offsets.shape[0] - 1
    if targets.shape[0]:
        out = int(np.count_nonzero((targets < 0) | (targets >= n)))
        if out:
            issues.append(
                ("out-of-range-target", out,
                 f"target ids must lie in [0, {n}); "
                 f"got range [{int(targets.min())}, {int(targets.max())}]")
            )
    return issues


class CSRGraph:
    """Immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    offsets:
        ``int32[N+1]`` or ``int64[N+1]``, monotonically non-decreasing,
        ``offsets[0] == 0``.
    targets:
        ``int32[M]`` or ``int64[M]`` neighbour ids with
        ``M == offsets[-1]``.  When both arrays arrive int32 the graph
        keeps them (the compact layout every builder produces); any other
        pair is stored int64, so the two never differ in width.
    weights:
        Optional ``float32[M]``.  Omitted (or a :func:`unit_weights`
        view), the graph is unit-weight and holds no weight buffer.
    validate:
        When true (default) the arrays are checked for structural
        consistency.  Generators that construct provably valid CSR directly
        pass ``validate=False`` to skip the O(M) checks.
    """

    __slots__ = ("_offsets", "_targets", "_weights", "_degrees", "_has_self_loops")

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        validate: bool = True,
    ) -> None:
        # Builders hand over arrays already in the width they keep; only a
        # caller's mixed or non-int32 pair is widened here, never narrowed.
        offsets = np.ascontiguousarray(offsets)
        targets = np.ascontiguousarray(targets)
        if offsets.dtype != np.int32 or targets.dtype != np.int32:
            offsets = np.ascontiguousarray(offsets, dtype=OFFSET_DTYPE)
            targets = np.ascontiguousarray(targets, dtype=VERTEX_DTYPE)
        if weights is None:
            weights = unit_weights(targets.shape[0])
        elif is_unit(weights):
            weights = unit_weights(weights.shape[0])  # length checked below
        else:
            weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)

        if validate:
            self._validate(offsets, targets, weights)

        self._offsets = offsets
        self._targets = targets
        self._weights = weights
        degrees = np.diff(offsets)
        self._degrees = degrees
        self._has_self_loops: bool | None = None

        # Freeze the buffers: algorithms share views of these arrays.
        for arr in (self._offsets, self._targets, self._weights, self._degrees):
            arr.setflags(write=False)

    @staticmethod
    def _validate(
        offsets: np.ndarray, targets: np.ndarray, weights: np.ndarray
    ) -> None:
        issues = structural_issues(offsets, targets, weights)
        if issues:
            raise GraphConstructionError(issues[0][2])

    # ------------------------------------------------------------------ #
    # Basic shape
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of vertices :math:`N = |V|`."""
        return self._offsets.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of directed arcs :math:`M` (undirected edges count twice)."""
        return self._targets.shape[0]

    @property
    def num_undirected_edges(self) -> int:
        """Number of undirected edges, counting self-loops once."""
        loops = int(np.count_nonzero(self._targets == self._vertex_ids_of_targets()))
        return (self.num_edges - loops) // 2 + loops

    def _vertex_ids_of_targets(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self._degrees
        )

    @property
    def has_self_loops(self) -> bool:
        """Whether any arc points back at its source (computed once, O(M)).

        Both engines branch on this: a loop-free graph — the common case —
        skips the per-wave self-loop filter (an owner gather, a comparison,
        and three compress passes over every gathered edge).
        """
        if self._has_self_loops is None:
            self._has_self_loops = bool(
                np.any(self._targets == self._vertex_ids_of_targets())
            )
        return self._has_self_loops

    @property
    def offsets(self) -> np.ndarray:
        """CSR offsets array (read-only view)."""
        return self._offsets

    @property
    def targets(self) -> np.ndarray:
        """CSR neighbour array (read-only view)."""
        return self._targets

    @property
    def weights(self) -> np.ndarray:
        """CSR edge-weight array (read-only view; stride-0 when unit)."""
        return self._weights

    @property
    def unit_weight(self) -> bool:
        """Whether every weight is the default 1 and no buffer holds them."""
        return is_unit(self._weights)

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (read-only view)."""
        return self._degrees

    # ------------------------------------------------------------------ #
    # Weighted quantities used by modularity / LPA
    # ------------------------------------------------------------------ #

    def weighted_degrees(self) -> np.ndarray:
        """:math:`K_i = \\sum_{j \\in J_i} w_{ij}` for every vertex.

        Computed as a segmented sum over the CSR rows; float64 accumulator
        to keep modularity arithmetic stable on large graphs.  A
        unit-weight graph's are its degrees.
        """
        if self.unit_weight:
            return self._degrees.astype(np.float64)
        return np.bincount(
            self.source_ids(),
            weights=self._weights.astype(np.float64),
            minlength=self.num_vertices,
        )

    def total_weight(self) -> float:
        """:math:`m = \\sum_{ij} w_{ij} / 2`, total undirected edge weight."""
        if self.unit_weight:
            return self.num_edges / 2.0
        return float(self._weights.sum(dtype=np.float64) / 2.0)

    def source_ids(self) -> np.ndarray:
        """Source vertex id of every CSR arc (``int64[M]``).

        The expansion of ``offsets`` used everywhere an edge-parallel
        computation needs to know which row an arc belongs to.
        """
        return self._vertex_ids_of_targets()

    # ------------------------------------------------------------------ #
    # Access helpers
    # ------------------------------------------------------------------ #

    def neighbors(self, i: int) -> np.ndarray:
        """Neighbour ids of vertex ``i`` (read-only view into ``targets``)."""
        return self._targets[self._offsets[i] : self._offsets[i + 1]]

    def neighbor_weights(self, i: int) -> np.ndarray:
        """Edge weights of vertex ``i``'s incident arcs (read-only view)."""
        return self._weights[self._offsets[i] : self._offsets[i + 1]]

    def degree(self, i: int) -> int:
        """Out-degree of vertex ``i``."""
        return int(self._degrees[i])

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every arc as ``(src, dst, weight)``; O(M), test/IO use only."""
        for i in range(self.num_vertices):
            lo, hi = self._offsets[i], self._offsets[i + 1]
            for e in range(lo, hi):
                yield i, int(self._targets[e]), float(self._weights[e])

    # ------------------------------------------------------------------ #
    # Dunder & misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, "
            f"avg_degree={self.num_edges / max(1, self.num_vertices):.2f})"
        )

    def __eq__(self, other: object) -> bool:
        """Full structural equality over offsets, targets, and weights.

        Dtype-insensitive on purpose: a graph and its
        :meth:`with_compact_layout` copy hold the same values and compare
        equal (``np.array_equal`` compares values, not dtypes).
        """
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._targets, other._targets)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self) -> int:
        """Cheap structural hash: shapes plus sampled targets *and* offsets.

        Consistent with :meth:`__eq__` (equal graphs hash equal — the
        samples are value-based, so dtype doesn't matter) but deliberately
        lossy: weights are never sampled and targets/offsets only at the
        ends and midpoint, so unequal graphs can collide.  That is fine
        for hashing (collisions only cost an ``__eq__`` call) — the
        offsets samples exist so that two graphs with identical target
        streams but different row boundaries (a common corruption shape)
        land in different buckets.
        """
        n = self.num_vertices
        return hash(
            (
                n,
                self.num_edges,
                int(self._targets[0]) if self.num_edges else -1,
                int(self._targets[-1]) if self.num_edges else -1,
                int(self._offsets[n // 2]),
                int(self._offsets[-1]),
            )
        )

    def memory_bytes(self) -> int:
        """Footprint of the paper's device layout, not of host memory.

        Compact layout (every built graph that fits): 4-byte
        offsets/targets + 4-byte weights.  Wide layout
        (:meth:`with_wide_layout`): 8-byte offsets/targets.  Weights are
        priced at 4 bytes per arc even on a unit-weight graph, whose host
        copy holds none: the paper's kernels read a weight per arc.
        """
        return self._offsets.itemsize * self._offsets.shape[0] + (
            self._targets.itemsize + self._weights.itemsize
        ) * self._targets.shape[0]

    # ------------------------------------------------------------------ #
    # Layout transforms
    # ------------------------------------------------------------------ #

    @property
    def is_compact(self) -> bool:
        """Whether offsets/targets are stored 32-bit wide."""
        return self._targets.dtype == np.int32

    def with_compact_layout(self) -> "CSRGraph":
        """This graph with 32-bit offsets and targets, when sizes allow.

        Returns ``self`` unchanged when the layout is already compact —
        as it is for every graph a builder or transform produced that
        fits — or when ``num_edges``/``num_vertices`` overflow int32.
        Otherwise (a :meth:`with_wide_layout` copy, or arrays a caller
        passed wide) it copies to the compact layout; the values are
        identical, only the storage width shrinks.
        """
        fits = index_dtype(self.num_vertices, self.num_edges) == np.int32
        if self.is_compact or not fits:
            return self
        return self._with_index_dtype(np.int32)

    def with_wide_layout(self) -> "CSRGraph":
        """This graph with 64-bit offsets and targets (``self`` if already).

        What a run with ``LPAConfig(compact_layout=False)`` works on, so
        the differential tests and the memory governor's compact rung
        compare two real layouts.
        """
        if not self.is_compact:
            return self
        return self._with_index_dtype(OFFSET_DTYPE)

    def _with_index_dtype(self, dtype) -> "CSRGraph":
        graph = CSRGraph(
            self._offsets.astype(dtype),
            self._targets.astype(dtype),
            self._weights,
            validate=False,
        )
        graph._has_self_loops = self._has_self_loops
        return graph
