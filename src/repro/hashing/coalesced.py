"""Coalesced-chaining per-vertex hashtables (the paper's rejected variant).

The paper "also tested a coalesced chaining-based hashtable --- a collision
resolution technique that combines aspects of separate chaining and open
addressing --- utilizing another *nexts* array H_n. However, it did not
improve performance."  This module implements that variant so the Figure-7
appendix comparison can be regenerated: same flat ``2|E|`` buffers plus a
third ``nexts`` buffer, insertion at ``k mod p1`` with collisions chained
into a cellar growing down from the top of each vertex's reserved region.

A scalar reference implementation suffices here: the variant appears in a
single appendix experiment, and its extra ``nexts`` traffic (the reason it
loses) is captured by the probe/step counters either way.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashtableFullError
from repro.graph.csr import CSRGraph
from repro.hashing.primes import table_capacity
from repro.types import EMPTY_KEY, VALUE_DTYPE_F32

__all__ = ["CoalescedHashtables"]

#: Chain terminator in the nexts array.
_NO_NEXT = np.int64(-1)


class CoalescedHashtables:
    """Per-vertex hashtables with coalesced chaining.

    Vertex *i*'s region spans ``[2 O_i, 2 O_i + 2 D_i)``: the first
    ``p1 = nextPow2(D_i) - 1`` slots form the address region (direct hash
    targets) and the remaining slots form the cellar, allocated top-down
    for chained entries.  Each occupied slot's ``nexts`` entry points at
    the next element of its chain.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        value_dtype: np.dtype | type = VALUE_DTYPE_F32,
    ) -> None:
        self.graph = graph
        size = max(2 * graph.num_edges, 1)
        self.keys = np.full(size, EMPTY_KEY, dtype=np.int64)
        self.values = np.zeros(size, dtype=value_dtype)
        self.nexts = np.full(size, _NO_NEXT, dtype=np.int64)
        self._p1 = np.asarray(table_capacity(graph.degrees), dtype=np.int64)
        # int64 whatever the graph's offset width: 2 * offsets can exceed
        # int32 on a compact graph.
        self._base = 2 * graph.offsets[:-1].astype(np.int64)
        self._region = 2 * graph.degrees.astype(np.int64)  # reserved slots per vertex
        # Cellar allocation pointer per vertex (counts down from region top).
        self._cellar = self._region.copy()
        #: Probes = slot inspections + chain-link follows (cost-model input).
        self.total_probes = 0
        #: Chain-pointer dereferences; the extra traffic open addressing avoids.
        self.total_link_steps = 0

    def memory_bytes(self) -> int:
        """Accounted footprint: keys + values + the extra nexts array."""
        return (
            self.keys.shape[0] * 4
            + self.values.shape[0] * self.values.itemsize
            + self.nexts.shape[0] * 4
        )

    def clear(self, i: int) -> None:
        """Reset vertex ``i``'s region (keys, values, chains, cellar)."""
        base, region = int(self._base[i]), int(self._region[i])
        self.keys[base : base + region] = EMPTY_KEY
        self.values[base : base + region] = 0
        self.nexts[base : base + region] = _NO_NEXT
        self._cellar[i] = region

    def _allocate_cellar_slot(self, i: int) -> int:
        """Take the next free slot from the top of vertex ``i``'s region."""
        base = int(self._base[i])
        ptr = int(self._cellar[i])
        p1 = int(self._p1[i])
        while ptr > 0:
            ptr -= 1
            if self.keys[base + ptr] == EMPTY_KEY and ptr >= 0:
                self._cellar[i] = ptr
                return ptr
        raise HashtableFullError(
            f"vertex {i}: coalesced cellar exhausted (p1={p1})"
        )

    def accumulate(self, i: int, key: int, value: float) -> int:
        """Insert/accumulate ``(key, value)``; returns the slot used."""
        base = int(self._base[i])
        p1 = int(self._p1[i])
        k = np.int64(key)
        s = int(k % p1)
        self.total_probes += 1
        if self.keys[base + s] == EMPTY_KEY:
            self.keys[base + s] = k
            self.values[base + s] += value
            return s
        # Walk the chain rooted at the home slot.
        while True:
            if self.keys[base + s] == k:
                self.values[base + s] += value
                return s
            nxt = int(self.nexts[base + s])
            if nxt == _NO_NEXT:
                new_slot = self._allocate_cellar_slot(i)
                self.keys[base + new_slot] = k
                self.values[base + new_slot] += value
                self.nexts[base + s] = new_slot
                self.total_link_steps += 1
                return new_slot
            s = nxt
            self.total_probes += 1
            self.total_link_steps += 1

    def max_key(self, i: int) -> int:
        """First key (lowest slot) with the highest accumulated value."""
        base = int(self._base[i])
        region = int(self._region[i])
        keys = self.keys[base : base + region]
        values = self.values[base : base + region]
        occupied = keys != EMPTY_KEY
        if not occupied.any():
            return -1
        masked = np.where(occupied, values, -np.inf)
        return int(keys[int(np.argmax(masked))])

    def accumulate_neighborhood(self, i: int, labels: np.ndarray) -> int:
        """Clear + accumulate all neighbours + max-key for vertex ``i``."""
        self.clear(i)
        nbrs = self.graph.neighbors(i)
        wts = self.graph.neighbor_weights(i)
        inserted = False
        for idx in range(nbrs.shape[0]):
            j = int(nbrs[idx])
            if j == i:
                continue
            self.accumulate(i, int(labels[j]), float(wts[idx]))
            inserted = True
        if not inserted:
            return int(labels[i])
        return self.max_key(i)
