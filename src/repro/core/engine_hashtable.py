"""The instrumented ν-LPA engine: Algorithm 1 + 2 on the SIMT simulator.

One :meth:`HashtableEngine.move` call is one ``lpaMove`` launch pair: the
active vertices are split between the thread-per-vertex and block-per-vertex
kernels (Section 4.3), each kernel executes in residency waves
(:mod:`repro.gpu.scheduler`), and within a wave every vertex clears its
per-vertex hashtable, accumulates its neighbours' labels through the
simulated ``atomicCAS`` machinery, takes the most-weighted label, and —
subject to Pick-Less — adopts it.  Label writes commit at wave boundaries,
which is the deterministic stand-in for lockstep execution (DESIGN.md).

Every memory access class is accounted in sectors so the cost model can
price the run: adjacency sweeps (coalesced only for the block kernel),
per-edge label gathers (scattered), hashtable probe traffic (with linear
probing's cache reuse), atomic read-modify-writes, clears, label commits,
and frontier updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._gather import gather_edges
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
    PersistentKernelEvent,
    WaveEvent,
    counter_delta,
)
from repro.hashing.hashtable import PerVertexHashtables
# ``segmented_max_key`` is not called here; it stays bound at this module
# attribute because the benchmark's traced run wraps every reduce function
# by its name in this module.
from repro.hashing.parallel_hashtable import (
    fused_max_and_clear,
    parallel_accumulate,
    segmented_clear,
    segmented_max_key,
)
from repro.hashing.probing import ProbeStrategy
from repro.perf.workspace import WorkspaceArena, compact, iota, take
from repro.resilience.faults import FaultContext

__all__ = ["MoveOutcome", "HashtableEngine"]

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


class HashtableEngine:
    """Algorithm 1's ``lpaMove`` with per-vertex hashtables and counters."""

    name = "hashtable"

    #: Optional resilience hook (see :mod:`repro.resilience.faults`): called
    #: with a :class:`FaultContext` at the accumulate and reduce points of
    #: every wave.  ``None`` (the default) costs one attribute test per wave.
    fault_hook = None

    #: Optional :class:`~repro.observe.trace.Tracer`: receives kernel-launch
    #: and per-wave counter-delta events.  ``None`` (the default) costs one
    #: attribute test per move; a disabled tracer one boolean more.
    tracer = None

    #: Optional :class:`~repro.gpu.governor.MemoryGovernor`: attached by
    #: the driver after it has reserved this engine's initial hashtable
    #: region, so regrow/shrink can move the charge without ever
    #: double-counting (old region released before the new is reserved).
    governor = None

    def __init__(self, graph: CSRGraph, config: LPAConfig) -> None:
        self.graph = graph
        self.config = config
        self.arena = WorkspaceArena()
        # Loop-free graphs (the common case; checked once, cached on the
        # graph) skip the per-wave self-loop filter entirely.
        self._loop_free = not graph.has_self_loops
        self.tables = PerVertexHashtables(
            graph, value_dtype=config.value_dtype, strategy=config.probing
        )
        # Persistent-kernel mode: kinds whose one-time launch cost has
        # been paid (each kernel stays resident after its first launch).
        self._launched: set[KernelKind] = set()
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
        """Return every ledger charge this engine owns (tables + arena).

        Called when the engine is discarded (supervisor fallback, end of
        run).  Idempotent; returns the bytes released.
        """
        released = 0
        if self.governor is not None:
            released = self.tables.memory_bytes()
            self.governor.release("hashtable", released)
            self.governor = None
        released += self.arena.release_charges()
        self.arena.governor = None
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
        adeg = take(arena, "hv.adeg", na, self.graph.degrees.dtype)
        self.graph.degrees.take(active, out=adeg, mode="clip")
        zmask = take(arena, "hv.zmask", na, bool)
        np.equal(adeg, 0, out=zmask)
        retired = int(np.count_nonzero(zmask))
        if retired:
            zero = compact(arena, "hv.zero", zmask, retired, active)
            frontier.mark_processed(zero)
            np.logical_not(zmask, out=zmask)
            active = compact(arena, "hv.act", zmask, na - retired, active)

        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        partition = partition_by_degree(
            active, self.graph.degrees, self.config.switch_degree, arena=arena
        )
        changed_buf = take(arena, "hv.changed", partition.total, np.int64)
        num_changed = 0
        for kind in (KernelKind.THREAD_PER_VERTEX, KernelKind.BLOCK_PER_VERTEX):
            vertices = partition.for_kind(kind)
            if vertices.shape[0] == 0:
                continue
            # Persistent-kernel mode: after a kind's first launch the
            # kernel stays resident, so later dispatches cost waves but
            # no launch (and trace as their own event kind).
            persistent = self.config.persistent_kernel and kind in self._launched
            if not persistent:
                counters.launches += 1
                self._launched.add(kind)
            plan = plan_waves(self.config.device, kind, vertices.shape[0])
            counters.waves += plan.num_waves
            if tracing:
                event_cls = PersistentKernelEvent if persistent else KernelLaunchEvent
                tracer.emit(event_cls(
                    iteration=iteration,
                    kernel=kind.value,
                    num_items=int(vertices.shape[0]),
                    num_waves=plan.num_waves,
                ))
            for wave_index, (lo, hi) in enumerate(plan):
                wave = vertices[lo:hi]
                before = counters.as_dict() if tracing else None
                adopters = self._process_wave(
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

    # ------------------------------------------------------------------ #

    def _process_wave(
        self,
        wave: np.ndarray,
        kind: KernelKind,
        labels: np.ndarray,
        frontier: Frontier,
        pick_less: bool,
        counters: KernelCounters,
    ) -> np.ndarray:
        """Execute one residency wave; returns the adopting vertices.

        The returned array is an arena view (``hw.adopters``), valid until
        the next wave; ``move`` copies it into its change log immediately.
        """
        arena = self.arena
        device = self.config.device
        frontier.mark_processed(wave)

        # Edge ranks are only consumed by the block kernel's lane
        # striding; the thread kernel skips computing them entirely.
        need_rank = kind is KernelKind.BLOCK_PER_VERTEX
        gather = gather_edges(self.graph, wave, arena, need_rank=need_rank)
        ne = gather.num_edges
        targets = take(arena, "hw.tg", ne, self.graph.targets.dtype)
        self.graph.targets.take(gather.edge_index, out=targets, mode="clip")
        if targets.dtype != np.int64:
            # Compact graphs gather 4-byte ids (half the sector traffic),
            # but indexing labels with an int32 array makes numpy malloc
            # an intp copy of it per take; widen once into an arena slot
            # so steady-state waves stay allocation-free.
            wide_targets = take(arena, "hw.tg64", ne, np.int64)
            np.copyto(wide_targets, targets)
            targets = wide_targets
        weights = take(arena, "hw.w", ne, self.graph.weights.dtype)
        self.graph.weights.take(gather.edge_index, out=weights, mode="clip")

        # Algorithm 1 line 23: skip self-loops during accumulation.  On a
        # loop-free graph the filter is an identity copy, so feed the
        # gather straight through instead.
        if self._loop_free:
            m = ne
            entry_table = gather.table_id
            edge_rank = gather.edge_rank
            entry_key = take(arena, "hw.ek", ne, labels.dtype)
            labels.take(targets, out=entry_key, mode="clip")
            if weights.dtype == self.tables.values.dtype:
                entry_value = weights
            else:
                entry_value = take(arena, "hw.ev", ne, self.tables.values.dtype)
                np.copyto(entry_value, weights, casting="unsafe")
        else:
            owner = take(arena, "hw.owner", ne, np.int64)
            wave.take(gather.table_id, out=owner, mode="clip")
            non_loop = take(arena, "hw.nl", ne, bool)
            np.not_equal(targets, owner, out=non_loop)
            m = int(np.count_nonzero(non_loop))
            if need_rank:
                entry_table, tgt_nl, wnl, edge_rank = compact(
                    arena, "hw.nl", non_loop, m,
                    gather.table_id, targets, weights, gather.edge_rank,
                )
            else:
                entry_table, tgt_nl, wnl = compact(
                    arena, "hw.nl", non_loop, m,
                    gather.table_id, targets, weights,
                )
                edge_rank = None
            entry_key = take(arena, "hw.ek", m, labels.dtype)
            labels.take(tgt_nl, out=entry_key, mode="clip")
            entry_value = take(arena, "hw.ev", m, self.tables.values.dtype)
            np.copyto(entry_value, wnl, casting="unsafe")

        w = wave.shape[0]
        base = take(arena, "hw.base", w, np.int64)
        self.tables.bases.take(wave, out=base, mode="clip")
        p1 = take(arena, "hw.p1", w, np.int64)
        self.tables.capacities.take(wave, out=p1, mode="clip")
        p2 = take(arena, "hw.p2", w, np.int64)
        self.tables.secondary_primes.take(wave, out=p2, mode="clip")

        if self.fault_hook is not None:
            self.fault_hook(self._fault_context("accumulate", kind, wave, labels, base, p1))

        # Fused sweep: tables are already clean (the init fill / the
        # previous wave's clear-at-end), so there is no up-front clear;
        # the reduce reads and re-clears exactly the entries' slots.  The
        # kernel model still prices the full per-table clear the GPU's
        # fused kernel does in-register.
        cleared = int(p1.sum())
        try:
            acc = parallel_accumulate(
                self.tables.keys,
                self.tables.values,
                base,
                p1,
                p2,
                entry_table,
                entry_key,
                entry_value,
                self.config.probing,
                shared=kind.uses_atomics,
                arena=arena,
            )
            warp_serial = self._warp_critical_path(
                kind, wave, entry_table, edge_rank, acc.entry_probes
            )

            if self.fault_hook is not None:
                self.fault_hook(
                    self._fault_context("reduce", kind, wave, labels, base, p1)
                )

            fallback = take(arena, "hw.fb", w, labels.dtype)
            labels.take(wave, out=fallback, mode="clip")
            best = take(arena, "hw.best", w, labels.dtype)
            fused_max_and_clear(
                self.tables.keys,
                self.tables.values,
                fallback,
                entry_table,
                acc.entry_slot,
                arena=arena,
                out=best,
            )
        except BaseException:
            # Aborted wave (overflow, injected fault, arena OOM): every
            # claimed slot lies in this wave's tables, so clearing them
            # whole hands the ladder clean tables (on fresh scratch, so
            # the governor cannot refuse it).
            segmented_clear(self.tables.keys, self.tables.values, base, p1)
            raise

        adopt = pick_less_filter(
            fallback,
            best,
            pick_less,
            out=take(arena, "hw.adopt", w, bool),
            scratch=take(arena, "hw.plsc", w, bool),
        )
        na_w = int(np.count_nonzero(adopt))
        adopters, new_labels = compact(
            arena, "hw.adopters", adopt, na_w, wave, best
        )
        labels[adopters] = new_labels  # wave-boundary commit
        marked_arcs = frontier.mark_neighbors_unprocessed(adopters)

        # Shared-memory tables (ablation A3): qualifying thread-kernel
        # vertices keep their table traffic on-chip.
        smem_entries = smem_probes = 0
        if (
            self.config.shared_memory_tables
            and kind is KernelKind.THREAD_PER_VERTEX
        ):
            wdeg = take(arena, "hw.wdeg", w, self.graph.degrees.dtype)
            self.graph.degrees.take(wave, out=wdeg, mode="clip")
            smem_mask = take(arena, "hw.smv", w, bool)
            np.less_equal(wdeg, self._smem_degree_limit, out=smem_mask)
            if smem_mask.any():
                entry_is_smem = take(arena, "hw.sme", m, bool)
                smem_mask.take(entry_table, out=entry_is_smem, mode="clip")
                # Tiny tables are already mostly L2-resident, so moving them
                # to shared memory only saves the fraction of their traffic
                # that would have reached the cache hierarchy at cost —
                # the reason the paper saw "little to no gain".
                saving = _SMEM_SAVING_FACTOR
                smem_entries = int(np.count_nonzero(entry_is_smem) * saving)
                smem_probes = int(
                    acc.entry_probes.sum(where=entry_is_smem) * saving
                )

        self._account(
            counters,
            kind=kind,
            wave=wave,
            num_entries=m,
            cleared=cleared,
            acc_probes=acc.total_probes,
            warp_serial=warp_serial,
            cas=acc.cas_attempts,
            adds=acc.atomic_adds,
            conflicts=acc.atomic_conflicts,
            adopters=int(adopters.shape[0]),
            marked_arcs=marked_arcs,
            p1=p1,
            smem_entries=smem_entries,
            smem_probes=smem_probes,
        )
        return adopters

    # ------------------------------------------------------------------ #

    def _fault_context(self, phase, kind, wave, labels, base, p1) -> FaultContext:
        return FaultContext(
            phase=phase,
            engine=self.name,
            kernel=kind,
            device=self.config.device,
            wave=wave,
            labels=labels,
            keys=self.tables.keys,
            values=self.tables.values,
            base=base,
            p1=p1,
        )

    # ------------------------------------------------------------------ #

    def _warp_critical_path(
        self,
        kind: KernelKind,
        wave: np.ndarray,
        entry_table: np.ndarray,
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
            # Lane == wave-local vertex index.  ``entry_table`` is
            # non-decreasing (gather order), so per-lane totals are
            # segment sums scattered to each run's lane — equivalent to
            # ``np.add.at`` but without its transient iterator buffer.
            nw = wave.shape[0]
            run_first = take(arena, "wcp.rf", ne, bool)
            run_first[0] = True
            np.not_equal(entry_table[1:], entry_table[:-1], out=run_first[1:])
            num_runs = int(np.count_nonzero(run_first))
            run_starts = compact(
                arena, "wcp.rs", run_first, num_runs, iota(arena, ne)
            )
            run_sums = take(arena, "wcp.sum", num_runs, np.int64)
            np.add.reduceat(entry_work, run_starts, out=run_sums)
            run_lanes = take(arena, "wcp.rl", num_runs, np.int64)
            entry_table.take(run_starts, out=run_lanes, mode="clip")
            lane_work = take(arena, "wcp.lw", nw, np.int64)
            lane_work[:] = 0
            lane_work[run_lanes] = run_sums
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
        *,
        kind: KernelKind,
        wave: np.ndarray,
        num_entries: int,
        cleared: int,
        acc_probes: int,
        warp_serial: int,
        cas: int,
        adds: int,
        conflicts: int,
        adopters: int,
        marked_arcs: int,
        p1: np.ndarray,
        smem_entries: int = 0,
        smem_probes: int = 0,
    ) -> None:
        """Convert the wave's events into counter increments.

        ``smem_entries``/``smem_probes`` are the portion of the workload
        whose tables live in shared memory (ablation A3): their probe and
        value traffic stays on-chip, and ``p1`` already excludes their
        clear/max-reduce slots.
        """
        arena = self.arena
        mem = self.memory
        degrees = take(arena, "ac.deg", wave.shape[0], self.graph.degrees.dtype)
        self.graph.degrees.take(wave, out=degrees, mode="clip")

        counters.edges_scanned += num_entries
        counters.probes += acc_probes
        counters.warp_serial_probes += warp_serial
        counters.atomic_cas += cas
        counters.atomic_add += adds
        counters.atomic_conflicts += conflicts
        counters.slots_cleared += cleared

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
        global_probes = acc_probes - smem_probes
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

        # Label commits and frontier marking: scattered single writes.
        counters.sectors_written += adopters + marked_arcs
