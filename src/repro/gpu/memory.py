"""Global-memory transaction accounting with a sector coalescing model.

NVIDIA GPUs service global loads in 32-byte sectors; a warp's 32 lane
accesses cost as many sectors as distinct 32-byte regions they touch.  Two
patterns dominate the paper's kernels:

* **COALESCED** — a warp reads a contiguous range (block-per-vertex kernel
  scanning one adjacency list): sectors ≈ ceil(bytes / 32);
* **SCATTERED** — each lane reads an unrelated address (thread-per-vertex
  kernel, hashtable probes, label gathers ``C[j]``): one sector per access.

:class:`MemoryModel` turns element counts into sector counts under these
rules; exact per-address accounting (:meth:`sectors_for_addresses`) is
available where the simulator has concrete addresses, e.g. hashtable probe
traffic within a warp.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.perf.workspace import WorkspaceArena, take

__all__ = ["AccessPattern", "MemoryModel"]


class AccessPattern(enum.Enum):
    """How a warp's lanes map to addresses."""

    COALESCED = "coalesced"
    SCATTERED = "scattered"


class MemoryModel:
    """Sector-level traffic accounting for one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.sector_bytes = device.sector_bytes

    def sectors_for_contiguous(self, num_elements: int, element_bytes: int) -> int:
        """Sectors for a warp-contiguous sweep over ``num_elements``."""
        if num_elements <= 0:
            return 0
        total = num_elements * element_bytes
        return -(-total // self.sector_bytes)  # ceil div

    def sectors_for_scattered(self, num_accesses: int) -> int:
        """Sectors when every access lands in its own sector (worst case)."""
        return max(0, num_accesses)

    def slots_per_sector(self, element_bytes: int) -> int:
        """How many ``element_bytes``-wide slots share one memory sector.

        DRAM faults hit whole sectors, not single elements — the fault
        injector uses this to corrupt a sector-aligned run of hashtable
        slots, the granularity at which a real bit flip would surface.
        """
        if element_bytes <= 0:
            return 1
        return max(1, self.sector_bytes // element_bytes)

    def ecc_words(self, num_bytes: int) -> int:
        """ECC codewords covering ``num_bytes`` of DRAM."""
        if num_bytes <= 0:
            return 0
        return -(-num_bytes // self.device.ecc_word_bytes)

    def secded_classify(self, bits_in_word: int) -> str:
        """What SEC-DED does with ``bits_in_word`` upset bits in one word.

        Returns ``"clean"`` (0 bits), ``"corrected"`` (1 bit, ECC on),
        ``"detected"`` (2 bits — uncorrectable, the device raises), or
        ``"silent"`` (≥3 bits alias to a valid codeword, or ECC is off
        entirely — the corruption propagates undetected).
        """
        if bits_in_word <= 0:
            return "clean"
        if not self.device.ecc_enabled:
            return "silent"
        if bits_in_word == 1:
            return "corrected"
        if bits_in_word == 2:
            return "detected"
        return "silent"

    def sectors_for_segments(
        self, segment_lengths: np.ndarray, element_bytes: int,
        pattern: AccessPattern, *, arena: WorkspaceArena | None = None,
    ) -> int:
        """Traffic for reading many variable-length segments.

        COALESCED: each segment is swept contiguously by a warp (ceil per
        segment — short segments still pay one sector).  SCATTERED: every
        element is its own sector.  ``arena`` serves the per-segment
        scratch of the COALESCED branch (``mem.`` slot).

        The lengths are those of distinct rows of one graph (or their
        tables), so their sum fits the array's own width — an int32
        degree array sums to at most a compact graph's arc count.  Both
        branches therefore avoid mixed-width ufuncs, whose cast buffer
        would allocate on every wave.
        """
        if segment_lengths.shape[0] == 0:
            return 0
        if pattern is AccessPattern.COALESCED:
            sectors = take(arena, "mem.sectors", segment_lengths.shape[0], np.int64)
            np.copyto(sectors, segment_lengths)
            np.multiply(sectors, np.int64(element_bytes), out=sectors)
            # ceil division, in place: -(-x // sector_bytes).
            np.negative(sectors, out=sectors)
            np.floor_divide(sectors, self.sector_bytes, out=sectors)
            np.negative(sectors, out=sectors)
            return int(sectors.sum())
        return int(segment_lengths.sum(dtype=segment_lengths.dtype))

    def sectors_for_addresses(
        self, addresses: np.ndarray, element_bytes: int, warp_ids: np.ndarray
    ) -> int:
        """Exact sector count: distinct sectors touched per warp, summed.

        Used for hashtable probe traffic where the simulator has the real
        slot addresses — this is what makes linear probing measurably
        cheaper per probe than double hashing (neighbouring probes share
        sectors).
        """
        if addresses.shape[0] == 0:
            return 0
        sectors = (addresses * np.int64(element_bytes)) // self.sector_bytes
        # Distinct (warp, sector) pairs.
        combo = warp_ids.astype(np.int64) * np.int64(2**40) + sectors
        return int(np.unique(combo).shape[0])
