"""The engines' shared ``lpaMove`` driver and the instrumented ν-LPA engine.

:meth:`WaveEngine.move` is one ``lpaMove`` launch pair (Algorithm 1) for
both engines: the active vertices are split between the thread- and
block-per-vertex kernels (Section 4.3), each kernel runs in residency
waves (:mod:`repro.gpu.scheduler`), and within a wave every vertex
gathers its arcs, skips self-loops, takes its neighbours' most-weighted
label and — subject to Pick-Less — adopts it.  Labels commit at wave
boundaries, the deterministic stand-in for lockstep execution (DESIGN.md).
Each engine implements only the label pick, as ``_select``.

:class:`HashtableEngine` picks through Algorithm 2's per-vertex hashtables
and the simulated ``atomicCAS`` machinery, and accounts every memory
access class in sectors so the cost model can price the run: adjacency
sweeps (coalesced only for the block kernel), per-edge label gathers
(scattered), probe traffic (with linear probing's cache reuse), atomic
read-modify-writes, clears, label commits, and frontier updates.

The driver lives here, not in a module of its own, because the
benchmark's traced run wraps ``gather_edges``, ``partition_by_degree``,
``pick_less_filter`` and ``plan_waves`` at the engine modules' attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._gather import EdgeGather, gather_edges
from repro.core.config import LPAConfig
from repro.core.kernels import partition_by_degree
from repro.core.pruning import Frontier
from repro.core.swap_prevention import pick_less_filter
from repro.gpu.kernel import KernelKind
from repro.gpu.memory import AccessPattern, MemoryModel
from repro.gpu.metrics import KernelCounters
from repro.gpu.scheduler import plan_waves
from repro.graph.csr import CSRGraph
from repro.observe.trace import (
    KernelLaunchEvent,
    WaveEvent,
    counter_delta,
)
from repro.hashing.hashtable import PerVertexHashtables
# ``segmented_max_key`` is not called here; it stays bound at this module
# attribute because the benchmark's traced run wraps every reduce function
# by its name in this module.
from repro.hashing.parallel_hashtable import (
    WaveAccumulateResult,
    fused_max_and_clear,
    parallel_accumulate,
    segmented_clear,
    segmented_max_key,
    table_runs,
)
from repro.hashing.probing import ProbeStrategy
from repro.perf.workspace import WorkspaceArena, compact, iota, take
from repro.resilience.faults import FaultContext

__all__ = ["MoveOutcome", "WaveEngine", "HashtableEngine"]

#: Sector cost of one probe beyond the first when the strategy walks
#: adjacent slots: 8 four-byte keys share a 32-byte sector, so linear
#: probing's extra probes mostly hit an already-fetched sector.
_LINEAR_EXTRA_PROBE_SECTORS = 1.0 / 8.0

#: Fraction of a tiny table's traffic that shared-memory placement
#: actually saves — the rest was L2-resident regardless (ablation A3).
_SMEM_SAVING_FACTOR = 0.4


@dataclass
class MoveOutcome:
    """Result of one ``lpaMove`` iteration."""

    changed: int
    processed: int
    counters: KernelCounters
    #: Vertices that adopted a new label this iteration (for Cross-Check).
    changed_vertices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


@dataclass
class WaveEntries:
    """A wave's neighbour entries, self-loops dropped, in gather order.

    Arena views, valid until the next wave.  ``table`` is non-decreasing.
    """

    #: Wave-local index of the vertex owning each entry.
    table: np.ndarray
    #: The neighbour's current label.
    keys: np.ndarray
    #: The arc's weight, in the graph's weight dtype.
    weights: np.ndarray
    #: Rank of the arc within its adjacency list; only on block-kernel
    #: waves of an engine that sets ``_needs_edge_rank``.
    edge_rank: np.ndarray | None
    #: The wave's full gather, self-loops included.
    gather: EdgeGather
    #: Which gathered arcs were kept; ``None`` on a loop-free graph.
    non_loop: np.ndarray | None

    @property
    def count(self) -> int:
        return int(self.keys.shape[0])


class WaveEngine:
    """Algorithm 1's ``lpaMove``; subclasses implement ``_select``."""

    name = ""

    #: Whether ``_select`` reads ``entries.edge_rank`` on block-kernel waves.
    _needs_edge_rank = False

    #: Optional resilience hook (see :mod:`repro.resilience.faults`): each
    #: engine's ``_select`` calls it with a :class:`FaultContext` at its
    #: fault points.  ``None`` (the default) costs one attribute test per
    #: wave.
    fault_hook = None

    #: Optional :class:`~repro.observe.trace.Tracer`: receives kernel-launch
    #: and per-wave counter-delta events.  ``None`` (the default) costs one
    #: attribute test per move; a disabled tracer one boolean more.
    tracer = None

    #: Optional :class:`~repro.gpu.governor.MemoryGovernor`: attached by
    #: the driver after it has reserved the engine's initial regions, so
    #: later charges move without ever double-counting.
    governor = None

    def __init__(self, graph: CSRGraph, config: LPAConfig) -> None:
        self.graph = graph
        self.config = config
        self.arena = WorkspaceArena()
        # Loop-free graphs (the common case; checked once, cached on the
        # graph) skip the per-wave self-loop filter entirely.
        self._loop_free = not graph.has_self_loops

    def release_memory(self) -> int:
        """Return the arena's ledger charges.

        Called when the engine is discarded (supervisor fallback, end of
        run).  Idempotent; returns the bytes released.
        """
        released = self.arena.release_charges()
        self.arena.governor = None
        self.governor = None
        return released

    # ------------------------------------------------------------------ #

    def move(
        self,
        labels: np.ndarray,
        frontier: Frontier,
        *,
        pick_less: bool,
        iteration: int,
    ) -> MoveOutcome:
        """One LPA iteration over the frontier's active vertices."""
        arena = self.arena
        active = frontier.active_vertices()
        counters = KernelCounters()

        # Degree-0 vertices can never change label (no neighbours) and own
        # no hashtable slots (their reserved region is 2*0); retire them.
        # They still count as processed — the frontier flagged them done.
        na = active.shape[0]
        adeg = take(arena, "mv.adeg", na, self.graph.degrees.dtype)
        self.graph.degrees.take(active, out=adeg, mode="clip")
        zmask = take(arena, "mv.zmask", na, bool)
        np.equal(adeg, 0, out=zmask)
        retired = int(np.count_nonzero(zmask))
        if retired:
            zero = compact(arena, "mv.zero", zmask, retired, active)
            frontier.mark_processed(zero)
            np.logical_not(zmask, out=zmask)
            active = compact(arena, "mv.act", zmask, na - retired, active)

        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        partition = partition_by_degree(
            active, self.graph.degrees, self.config.switch_degree, arena=arena
        )
        changed_buf = take(arena, "mv.changed", partition.total, np.int64)
        num_changed = 0
        for kind in (KernelKind.THREAD_PER_VERTEX, KernelKind.BLOCK_PER_VERTEX):
            vertices = partition.for_kind(kind)
            if vertices.shape[0] == 0:
                continue
            counters.launches += 1
            plan = plan_waves(self.config.device, kind, vertices.shape[0])
            counters.waves += plan.num_waves
            if tracing:
                tracer.emit(KernelLaunchEvent(
                    iteration=iteration,
                    kernel=kind.value,
                    num_items=int(vertices.shape[0]),
                    num_waves=plan.num_waves,
                ))
            for wave_index, (lo, hi) in enumerate(plan):
                wave = vertices[lo:hi]
                before = counters.as_dict() if tracing else None
                adopters = self._process(
                    wave, kind, labels, frontier, pick_less, counters
                )
                changed_buf[num_changed : num_changed + adopters.shape[0]] = adopters
                num_changed += adopters.shape[0]
                if tracing:
                    tracer.emit(WaveEvent(
                        iteration=iteration,
                        kernel=kind.value,
                        wave_index=wave_index,
                        lo=lo,
                        hi=hi,
                        counters=counter_delta(before, counters.as_dict()),
                    ))

        # One per-iteration copy (tiny in steady state): the scratch slot is
        # recycled next move, but changed_vertices outlives it.
        changed_vertices = changed_buf[:num_changed].copy()
        counters.vertices_processed += partition.total + retired
        return MoveOutcome(
            changed=num_changed,
            processed=partition.total + retired,
            counters=counters,
            changed_vertices=changed_vertices,
        )

    def _process(
        self,
        wave: np.ndarray,
        kind: KernelKind,
        labels: np.ndarray,
        frontier: Frontier,
        pick_less: bool,
        counters: KernelCounters,
    ) -> np.ndarray:
        """Execute one residency wave; returns the adopting vertices.

        The returned array is an arena view (``wv.adopters``), valid until
        the next wave; ``move`` copies it into its change log immediately.
        """
        arena = self.arena
        frontier.mark_processed(wave)
        entries = self._entries(wave, kind, labels)
        fallback, best = self._select(wave, kind, labels, entries, counters)

        w = wave.shape[0]
        adopt = pick_less_filter(
            fallback,
            best,
            pick_less,
            out=take(arena, "wv.adopt", w, bool),
            scratch=take(arena, "wv.plsc", w, bool),
        )
        na_w = int(np.count_nonzero(adopt))
        adopters, new_labels = compact(
            arena, "wv.adopters", adopt, na_w, wave, best
        )
        labels[adopters] = new_labels  # wave-boundary commit
        marked_arcs = frontier.mark_neighbors_unprocessed(adopters)
        # Label commits and frontier marking: scattered single writes.
        counters.sectors_written += na_w + marked_arcs
        return adopters

    def _entries(
        self, wave: np.ndarray, kind: KernelKind, labels: np.ndarray
    ) -> WaveEntries:
        """Gather the wave's arcs, skip self-loops (Algorithm 1 line 23)
        and read each remaining neighbour's label."""
        arena = self.arena
        graph = self.graph
        need_rank = self._needs_edge_rank and kind is KernelKind.BLOCK_PER_VERTEX
        gather = gather_edges(graph, wave, arena, need_rank=need_rank)
        ne = gather.num_edges
        targets = take(arena, "wv.tg", ne, graph.targets.dtype)
        graph.targets.take(gather.edge_index, out=targets, mode="clip")
        if targets.dtype != np.int64:
            # Compact graphs gather 4-byte ids (half the sector traffic),
            # but indexing labels with an int32 array makes numpy malloc
            # an intp copy of it per take; widen once into an arena slot
            # so steady-state waves stay allocation-free.
            wide_targets = take(arena, "wv.tg64", ne, np.int64)
            np.copyto(wide_targets, targets)
            targets = wide_targets
        weights = take(arena, "wv.w", ne, graph.weights.dtype)
        graph.weights.take(gather.edge_index, out=weights, mode="clip")

        # On a loop-free graph the filter is an identity copy, so the
        # gather feeds straight through.
        table, edge_rank, non_loop = gather.table_id, gather.edge_rank, None
        if not self._loop_free:
            owner = take(arena, "wv.owner", ne, np.int64)
            wave.take(gather.table_id, out=owner, mode="clip")
            non_loop = take(arena, "wv.nl", ne, bool)
            np.not_equal(targets, owner, out=non_loop)
            columns = (table, targets, weights, edge_rank)[: 4 if need_rank else 3]
            table, targets, weights, *rank = compact(
                arena, "wv.nl", non_loop, int(np.count_nonzero(non_loop)),
                *columns,
            )
            edge_rank = rank[0] if need_rank else None

        keys = take(arena, "wv.keys", targets.shape[0], labels.dtype)
        labels.take(targets, out=keys, mode="clip")
        return WaveEntries(table, keys, weights, edge_rank, gather, non_loop)

    def _fault(
        self,
        phase: str,
        kind: KernelKind,
        wave: np.ndarray,
        labels: np.ndarray,
        **buffers: np.ndarray,
    ) -> None:
        """Call the fault hook, if one is attached, at one of ``_select``'s
        fault points; ``buffers`` are the engine's :class:`FaultContext`
        buffer fields."""
        if self.fault_hook is not None:
            self.fault_hook(FaultContext(
                phase=phase,
                engine=self.name,
                kernel=kind,
                device=self.config.device,
                wave=wave,
                labels=labels,
                **buffers,
            ))

    def _select(
        self,
        wave: np.ndarray,
        kind: KernelKind,
        labels: np.ndarray,
        entries: WaveEntries,
        counters: KernelCounters,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each wave vertex's current and most-weighted label.

        Returns ``(fallback, best)``; a vertex without entries keeps its
        label in ``best``.  Reads the fallback labels only after the fault
        hook, which may rewrite ``labels``; adds the wave's counters
        except its label-commit and frontier traffic.
        """
        raise NotImplementedError


class HashtableEngine(WaveEngine):
    """Algorithm 1's ``lpaMove`` with per-vertex hashtables and counters."""

    name = "hashtable"

    _needs_edge_rank = True

    def __init__(self, graph: CSRGraph, config: LPAConfig) -> None:
        super().__init__(graph, config)
        self.tables = PerVertexHashtables(
            graph, value_dtype=config.value_dtype, strategy=config.probing
        )
        self.memory = MemoryModel(config.device)
        # Shared-memory table eligibility (paper's rejected optimisation):
        # a thread-kernel vertex's table fits when its 2*D slots fit in the
        # per-thread slice of the SM's shared memory.
        device = config.device
        slot_bytes = 4 + np.dtype(config.value_dtype).itemsize
        per_thread_budget = (
            device.shared_memory_per_sm_bytes // device.max_threads_per_sm
        )
        self._smem_degree_limit = max(1, per_thread_budget // (2 * slot_bytes))

    # ------------------------------------------------------------------ #

    def grow_tables(self) -> int:
        """Rebuild every per-vertex table at the next power-of-two capacity.

        The resilience layer's *regrow* ladder rung: doubling the capacity
        scale moves each ``p1`` to the next Mersenne number, and the fresh
        allocation scrubs any corrupted slots.  Returns the new scale;
        the bytes freed/claimed by the swap are reported in
        :attr:`last_regrow` (and, when a governor is attached, the old
        region is released *before* the new one is reserved, so a regrow
        never holds ``old + new`` against the budget at once).
        """
        return self._rebuild_tables(self.tables.capacity_scale * 2)

    def shrink_tables(self) -> int:
        """Undo regrowth under memory pressure (the ladder's memory rung).

        Halves the capacity scale, floored at the paper's layout
        (``capacity_scale=1``); returns the (possibly unchanged) scale.
        A shrunk table that overflows again simply re-enters the regrow
        rung — correctness never depends on the scale, only footprint
        and probe counts do.
        """
        scale = max(1, self.tables.capacity_scale // 2)
        if scale == self.tables.capacity_scale:
            return scale
        return self._rebuild_tables(scale)

    def _rebuild_tables(self, scale: int) -> int:
        """Swap the flat buffers to ``scale``, keeping the ledger exact.

        Release-before-reserve: the old region's charge is returned
        first, so the budget check sees only the *new* region on top of
        everything else.  If even that fails, the old layout is rebuilt
        and re-charged (guaranteed to fit — it was charged a moment ago)
        before the :class:`~repro.errors.DeviceOomError` propagates, so
        the engine stays usable for the ladder's next rung.
        """
        governor = self.governor
        old_scale = self.tables.capacity_scale
        freed = self.tables.memory_bytes()
        if governor is not None:
            governor.release("hashtable", freed)

        def build(s: int) -> PerVertexHashtables:
            return PerVertexHashtables(
                self.graph,
                value_dtype=self.config.value_dtype,
                strategy=self.config.probing,
                capacity_scale=s,
            )

        tables = build(scale)
        claimed = tables.memory_bytes()
        if governor is not None:
            try:
                governor.reserve("hashtable", claimed)
            except Exception:
                self.tables = build(old_scale)
                governor.reserve("hashtable", freed)
                raise
        self.tables = tables
        #: Byte report of the newest regrow/shrink (the ledger's receipt).
        self.last_regrow = {
            "scale": scale,
            "freed_bytes": freed,
            "claimed_bytes": claimed,
        }
        return scale

    def release_memory(self) -> int:
        """Return every ledger charge this engine owns (tables + arena)."""
        released = 0
        if self.governor is not None:
            released = self.tables.memory_bytes()
            self.governor.release("hashtable", released)
        return released + super().release_memory()

    # ------------------------------------------------------------------ #

    def _select(self, wave, kind, labels, entries, counters):
        """Accumulate the entries into the wave's tables and take each
        table's most-weighted key (Algorithm 2).

        The fault hook runs at the accumulate and the reduce points.
        """
        arena = self.arena
        tables = self.tables
        table_start = self._table_starts(wave, entries)
        entry_value = entries.weights
        if entry_value.dtype != tables.values.dtype:
            entry_value = take(arena, "hw.ev", entries.count, tables.values.dtype)
            np.copyto(entry_value, entries.weights, casting="unsafe")

        w = wave.shape[0]
        base = take(arena, "hw.base", w, np.int64)
        tables.bases.take(wave, out=base, mode="clip")
        p1 = take(arena, "hw.p1", w, np.int64)
        tables.capacities.take(wave, out=p1, mode="clip")
        p2 = take(arena, "hw.p2", w, np.int64)
        tables.secondary_primes.take(wave, out=p2, mode="clip")

        self._fault(
            "accumulate", kind, wave, labels,
            keys=tables.keys, values=tables.values, base=base, p1=p1,
        )

        # Fused sweep: tables are already clean (the init fill / the
        # previous wave's clear-at-end), so there is no up-front clear;
        # the reduce reads and re-clears exactly the entries' slots.  The
        # kernel model still prices the full per-table clear the GPU's
        # fused kernel does in-register.
        try:
            acc = parallel_accumulate(
                tables.keys,
                tables.values,
                base,
                p1,
                p2,
                entries.table,
                entries.keys,
                entry_value,
                self.config.probing,
                shared=kind.uses_atomics,
                clean=self.fault_hook is None,
                arena=arena,
            )
            warp_serial = self._warp_critical_path(
                kind, wave, entries.table, table_start, entries.edge_rank,
                acc.entry_probes,
            )

            self._fault(
                "reduce", kind, wave, labels,
                keys=tables.keys, values=tables.values, base=base, p1=p1,
            )

            fallback = take(arena, "hw.fb", w, labels.dtype)
            labels.take(wave, out=fallback, mode="clip")
            best = take(arena, "hw.best", w, labels.dtype)
            fused_max_and_clear(
                tables.keys,
                tables.values,
                fallback,
                entries.table,
                acc.entry_slot,
                table_start=table_start,
                table_base=base,
                arena=arena,
                out=best,
            )
        except BaseException:
            # Aborted wave (overflow, injected fault, arena OOM): every
            # claimed slot lies in this wave's tables, so clearing them
            # whole hands the ladder clean tables (on fresh scratch, so
            # the governor cannot refuse it).
            segmented_clear(tables.keys, tables.values, base, p1)
            raise

        self._account(counters, kind, wave, entries.table, p1, acc, warp_serial)
        return fallback, best

    def _table_starts(self, wave: np.ndarray, entries: WaveEntries) -> np.ndarray:
        """Index of each table's first entry, after the self-loop filter.

        That is the number of kept arcs before the table's first arc; a
        vertex whose every arc is a self-loop keeps no entry, and its run
        is empty.
        """
        gather = entries.gather
        if entries.non_loop is None:
            return gather.table_start
        arena = self.arena
        kept = take(arena, "hw.kept", gather.num_edges + 1, np.int64)
        kept[0] = 0
        np.copyto(kept[1:], entries.non_loop, casting="unsafe")
        np.cumsum(kept, out=kept)
        table_start = take(arena, "hw.ts", wave.shape[0], np.int64)
        kept.take(gather.table_start, out=table_start, mode="clip")
        return table_start

    def _smem_share(
        self,
        kind: KernelKind,
        wave: np.ndarray,
        entry_table: np.ndarray,
        entry_probes: np.ndarray,
    ) -> tuple[int, int]:
        """Entries and probes whose traffic shared-memory tables keep
        on-chip (ablation A3): qualifying thread-kernel vertices only."""
        if not (
            self.config.shared_memory_tables
            and kind is KernelKind.THREAD_PER_VERTEX
        ):
            return 0, 0
        arena = self.arena
        w = wave.shape[0]
        wdeg = take(arena, "hw.wdeg", w, self.graph.degrees.dtype)
        self.graph.degrees.take(wave, out=wdeg, mode="clip")
        smem_mask = take(arena, "hw.smv", w, bool)
        np.less_equal(wdeg, self._smem_degree_limit, out=smem_mask)
        if not smem_mask.any():
            return 0, 0
        entry_is_smem = take(arena, "hw.sme", entry_table.shape[0], bool)
        smem_mask.take(entry_table, out=entry_is_smem, mode="clip")
        # Tiny tables are already mostly L2-resident, so moving them to
        # shared memory only saves the fraction of their traffic that
        # would have reached the cache hierarchy at cost — the reason the
        # paper saw "little to no gain".
        return (
            int(np.count_nonzero(entry_is_smem) * _SMEM_SAVING_FACTOR),
            int(entry_probes.sum(where=entry_is_smem) * _SMEM_SAVING_FACTOR),
        )

    # ------------------------------------------------------------------ #

    def _warp_critical_path(
        self,
        kind: KernelKind,
        wave: np.ndarray,
        entry_table: np.ndarray,
        table_start: np.ndarray,
        edge_rank: np.ndarray,
        entry_probes: np.ndarray,
    ) -> int:
        """Lockstep divergence cost: Σ over warps of the slowest lane's work.

        A lane's work is its serialised edge scans plus hashtable probes
        (1 + probes per entry); its warp finishes only when the slowest
        lane does.  This is what makes the thread-per-vertex kernel pay for
        high-degree vertices (one lane drags 31 idle neighbours through a
        whole adjacency list) and what amplifies clustering-heavy probe
        sequences (one colliding lane stalls its warp every round).
        """
        arena = self.arena
        device = self.config.device
        ne = entry_table.shape[0]
        if ne == 0:
            return 0
        entry_work = take(arena, "wcp.ew", ne, np.int64)
        np.add(entry_probes, 1, out=entry_work)

        if kind is KernelKind.THREAD_PER_VERTEX:
            # Lane == wave-local vertex index, and each lane's entries are
            # its table's run.
            nw = wave.shape[0]
            starts, has_entries = table_runs(table_start, ne, arena, "wcp")
            lane_work = take(arena, "wcp.lw", nw, np.int64)
            np.add.reduceat(entry_work, starts, out=lane_work[: starts.shape[0]])
            if has_entries is not None:  # lanes without entries idle
                np.logical_not(has_entries, out=has_entries)
                np.putmask(lane_work, has_entries, 0)
            return self._warp_max_sum(lane_work, nw)

        # Block kernel: the vertex's edges are strided over the block's
        # lanes, so lane work is near-uniform and divergence is small —
        # exactly the point of the block-per-vertex design.
        block_size = device.default_block_size
        lane_global = take(arena, "wcp.lg", ne, np.int64)
        np.remainder(edge_rank, block_size, out=lane_global)
        scaled = take(arena, "wcp.tb", ne, np.int64)
        np.multiply(entry_table, block_size, out=scaled)
        np.add(lane_global, scaled, out=lane_global)
        num_lanes = wave.shape[0] * block_size
        lane_work = take(arena, "wcp.lw", num_lanes, np.int64)
        lane_work[:] = 0
        np.add.at(lane_work, lane_global, entry_work)
        return self._warp_max_sum(lane_work, num_lanes)

    def _warp_max_sum(self, lane_work: np.ndarray, num_lanes: int) -> int:
        """Σ over warps of the slowest lane's work.

        Lanes are contiguous per warp, so the per-warp max is a ragged
        ``maximum.reduceat`` over ``warp_size`` chunks (lane work is
        non-negative, so this matches a zero-initialised scattered max).
        """
        arena = self.arena
        warp_size = self.config.device.warp_size
        num_warps = -(-num_lanes // warp_size)
        warp_starts = take(arena, "wcp.ws", num_warps, np.int64)
        np.multiply(iota(arena, num_warps), warp_size, out=warp_starts)
        warp_max = take(arena, "wcp.wm", num_warps, np.int64)
        np.maximum.reduceat(lane_work, warp_starts, out=warp_max)
        return int(warp_max.sum())

    # ------------------------------------------------------------------ #

    def _account(
        self,
        counters: KernelCounters,
        kind: KernelKind,
        wave: np.ndarray,
        entry_table: np.ndarray,
        p1: np.ndarray,
        acc: WaveAccumulateResult,
        warp_serial: int,
    ) -> None:
        """Convert the wave's events into counter increments.

        Entries whose tables qualify for shared memory (ablation A3,
        :meth:`_smem_share`) keep their probe and value traffic on-chip.
        ``p1`` holds every table of the wave, shared-memory ones included,
        so the clear and max-reduce sweeps below charge all their slots
        as global traffic.  Label commits and frontier marking are the
        driver's to charge.
        """
        smem_entries, smem_probes = self._smem_share(
            kind, wave, entry_table, acc.entry_probes
        )
        num_entries = entry_table.shape[0]
        arena = self.arena
        mem = self.memory
        degrees = take(arena, "ac.deg", wave.shape[0], self.graph.degrees.dtype)
        self.graph.degrees.take(wave, out=degrees, mode="clip")

        counters.edges_scanned += num_entries
        counters.probes += acc.total_probes
        counters.warp_serial_probes += warp_serial
        counters.atomic_cas += acc.cas_attempts
        counters.atomic_add += acc.atomic_adds
        counters.atomic_conflicts += acc.atomic_conflicts
        counters.slots_cleared += int(p1.sum())

        # Adjacency sweep (targets + weights, 4 bytes each): the block
        # kernel's lanes read each list contiguously; the thread kernel's
        # lanes each walk unrelated lists.
        pattern = (
            AccessPattern.COALESCED
            if kind is KernelKind.BLOCK_PER_VERTEX
            else AccessPattern.SCATTERED
        )
        counters.sectors_read += 2 * mem.sectors_for_segments(
            degrees, 4, pattern, arena=arena
        )

        # Per-edge label gather C[j]: scattered in both kernels.
        counters.sectors_read += mem.sectors_for_scattered(num_entries)

        # Hashtable probe traffic: first probe of each entry is a scattered
        # key read; extra probes are scattered except under linear probing,
        # where successive slots share sectors.  Shared-memory tables keep
        # their probes on-chip.
        global_probes = acc.total_probes - smem_probes
        global_entries = num_entries - smem_entries
        extra_probes = max(0, global_probes - global_entries)
        if self.config.probing is ProbeStrategy.LINEAR:
            counters.sectors_read += global_entries + int(
                np.ceil(extra_probes * _LINEAR_EXTRA_PROBE_SECTORS)
            )
        else:
            counters.sectors_read += global_probes

        # Value accumulation is a read-modify-write per successful insert.
        value_bytes = self.tables.values.itemsize
        rmw_sectors = global_entries * max(1, value_bytes // 4)
        counters.sectors_read += rmw_sectors
        counters.sectors_written += rmw_sectors

        # Clear writes (keys + values), streamed contiguously per table.
        counters.sectors_written += mem.sectors_for_segments(
            p1, 4, AccessPattern.COALESCED, arena=arena
        ) + mem.sectors_for_segments(
            p1, value_bytes, AccessPattern.COALESCED, arena=arena
        )

        # Max-reduce over the table slots re-reads them contiguously.
        counters.sectors_read += mem.sectors_for_segments(
            p1, 4 + value_bytes, AccessPattern.COALESCED, arena=arena
        )
