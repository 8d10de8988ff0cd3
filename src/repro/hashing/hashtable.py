"""Per-vertex hashtables in flat buffers — scalar reference implementation.

Implements Figure 2's memory layout and Algorithm 2's ``hashtableAccumulate``
exactly as written, one operation at a time.  The vectorised engine in
:mod:`repro.hashing.parallel_hashtable` shares this layout; property tests
check the two agree on accumulated totals and max-keys.

Layout
------
Two buffers of length ``2|E|`` (keys and values).  Vertex *i*'s table starts
at ``θ_H = 2 * offsets[i]`` and owns ``2 * degree(i)`` slots, of which the
first ``p1 = nextPow2(degree(i)) - 1`` are the live capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HashtableFullError
from repro.graph.csr import CSRGraph
from repro.hashing.primes import secondary_prime, table_capacity
from repro.hashing.probing import ProbeStrategy, probe_advance, probe_start
from repro.types import EMPTY_KEY, VALUE_DTYPE_F32

__all__ = ["PerVertexHashtables", "MAX_RETRIES"]

#: Probe-retry bound of Algorithm 2. Sized so that a correctly-capacitied
#: table can always place its keys; exceeding it raises
#: :class:`~repro.errors.HashtableFullError` (the paper's ``failed`` status).
MAX_RETRIES = 4096


@dataclass
class _TableView:
    """Slice bookkeeping for one vertex's table."""

    base: int
    p1: int
    p2: int


class PerVertexHashtables:
    """All per-vertex hashtables of a graph, backed by two flat buffers.

    Parameters
    ----------
    graph:
        The CSR graph whose offsets/degrees define the layout.
    value_dtype:
        ``float32`` (paper default) or ``float64`` (Figure-5 ablation).
    strategy:
        Collision-resolution strategy (paper default: quadratic-double).
    capacity_scale:
        Multiplier on each vertex's nominal degree when sizing its table;
        the paper's layout is ``capacity_scale=1``.  The resilience layer's
        *regrow* ladder rung doubles this after a persistent overflow,
        which moves every ``p1`` to the next Mersenne capacity (the next
        power of two, minus one) and rebuilds — and thereby scrubs — the
        flat buffers.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        value_dtype: np.dtype | type = VALUE_DTYPE_F32,
        strategy: ProbeStrategy = ProbeStrategy.QUADRATIC_DOUBLE,
        capacity_scale: int = 1,
    ) -> None:
        if capacity_scale < 1:
            raise ValueError(f"capacity_scale must be >= 1; got {capacity_scale}")
        self.graph = graph
        self.strategy = strategy
        self.capacity_scale = int(capacity_scale)
        size = 2 * graph.num_edges * self.capacity_scale
        # A single allocation for each buffer, exactly as the paper does
        # ("memory allocation ... only requires two calls of size 2|E|").
        self.keys = np.full(max(size, 1), EMPTY_KEY, dtype=np.int64)
        self.values = np.zeros(max(size, 1), dtype=value_dtype)
        degrees = graph.degrees
        self._p1 = table_capacity(degrees * self.capacity_scale).astype(np.int64)
        self._p2 = np.asarray(secondary_prime(self._p1), dtype=np.int64)
        # int64 regardless of the graph's (possibly compact int32) offset
        # width: 2 * offsets * scale can exceed int32, and every consumer
        # indexes the flat buffers with it.
        self._base = 2 * graph.offsets[:-1].astype(np.int64) * self.capacity_scale
        #: Total probes performed since construction (for the cost model).
        self.total_probes = 0

    # ------------------------------------------------------------------ #
    # Layout accessors
    # ------------------------------------------------------------------ #

    def table(self, i: int) -> _TableView:
        """Layout of vertex ``i``'s table: buffer base, ``p1`` and ``p2``."""
        return _TableView(int(self._base[i]), int(self._p1[i]), int(self._p2[i]))

    @property
    def capacities(self) -> np.ndarray:
        """``p1`` per vertex."""
        return self._p1

    @property
    def secondary_primes(self) -> np.ndarray:
        """``p2`` per vertex."""
        return self._p2

    @property
    def bases(self) -> np.ndarray:
        """Buffer base offset (``2 * O_i``) per vertex."""
        return self._base

    def memory_bytes(self) -> int:
        """Accounted device footprint: 4-byte keys + value-width values."""
        return self.keys.shape[0] * 4 + self.values.shape[0] * self.values.itemsize

    # ------------------------------------------------------------------ #
    # Algorithm 2 operations (scalar reference)
    # ------------------------------------------------------------------ #

    def clear(self, i: int) -> None:
        """``hashtableClear(H)`` for vertex ``i``."""
        t = self.table(i)
        self.keys[t.base : t.base + t.p1] = EMPTY_KEY
        self.values[t.base : t.base + t.p1] = 0

    def accumulate(self, i: int, key: int, value: float) -> int:
        """``hashtableAccumulate`` (Algorithm 2) on vertex ``i``'s table.

        Returns the slot index used.  Raises
        :class:`~repro.errors.HashtableFullError` after ``MAX_RETRIES``
        collisions (the paper's ``failed`` return).
        """
        t = self.table(i)
        k = np.int64(key)
        p2 = np.int64(t.p2)
        probe_i, di = probe_start(np.asarray([k]), np.asarray([p2]), self.strategy)
        probe_i, di = probe_i[0], di[0]
        retries = max(MAX_RETRIES, 2 * t.p1 + 64)
        for attempt in range(retries):
            self.total_probes += 1
            s = int(probe_i % t.p1)
            slot = t.base + s
            if self.keys[slot] == k or self.keys[slot] == EMPTY_KEY:
                if self.keys[slot] == EMPTY_KEY:
                    self.keys[slot] = k
                self.values[slot] += value
                return s
            if attempt + 1 >= t.p1:
                # Completeness guard (same as the parallel engine): the
                # doubling step sequences are periodic mod 2^k - 1; degrade
                # to a linear sweep after p1 strategy probes.
                probe_i = probe_i + 1
                continue
            nxt_i, nxt_di = probe_advance(
                np.asarray([probe_i]),
                np.asarray([di]),
                np.asarray([k]),
                np.asarray([p2]),
                self.strategy,
            )
            probe_i, di = nxt_i[0], nxt_di[0]
        raise HashtableFullError(
            f"vertex {i}: key {key} found no slot in {retries} probes "
            f"(p1={t.p1}, strategy={self.strategy.value})"
        )

    def max_key(self, i: int) -> int:
        """``hashtableMaxKey(H)``: first key with the highest value.

        "First" means lowest slot index — the strict-LPA tie-break the
        paper inherits from scanning the table in order.  Returns -1 for an
        empty table.
        """
        t = self.table(i)
        keys = self.keys[t.base : t.base + t.p1]
        values = self.values[t.base : t.base + t.p1]
        occupied = keys != EMPTY_KEY
        if not occupied.any():
            return -1
        masked = np.where(occupied, values, -np.inf)
        return int(keys[int(np.argmax(masked))])

    def entries(self, i: int) -> dict[int, float]:
        """All (label, weight) pairs of vertex ``i``'s table, for tests."""
        t = self.table(i)
        keys = self.keys[t.base : t.base + t.p1]
        values = self.values[t.base : t.base + t.p1]
        occupied = keys != EMPTY_KEY
        return {
            int(k): float(v) for k, v in zip(keys[occupied], values[occupied])
        }

    def accumulate_neighborhood(self, i: int, labels: np.ndarray) -> int:
        """Full Algorithm 1 inner loop for one vertex (scalar reference).

        Clears the table, accumulates ``(labels[j], w_ij)`` for every
        neighbour ``j != i``, and returns the most-weighted label (or
        ``labels[i]`` when the vertex has no non-loop neighbours).
        """
        self.clear(i)
        nbrs = self.graph.neighbors(i)
        wts = self.graph.neighbor_weights(i)
        inserted = False
        for idx in range(nbrs.shape[0]):
            j = int(nbrs[idx])
            if j == i:  # Algorithm 1 line 23: skip self-loops
                continue
            self.accumulate(i, int(labels[j]), float(wts[idx]))
            inserted = True
        if not inserted:
            return int(labels[i])
        return self.max_key(i)
