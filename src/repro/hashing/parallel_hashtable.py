"""Warp-parallel per-vertex hashtable operations, vectorised over a wave.

This module simulates what Algorithm 2 does when thousands of GPU lanes run
it concurrently: every pending (key, value) entry probes its slot, empty
slots are claimed by an ``atomicCAS`` whose *winner* is resolved
deterministically (first entry in lane order — real hardware picks an
arbitrary winner; lane order is the reproducible choice), winners and
matching keys accumulate with ``atomicAdd``, and losers advance their probe
sequence and retry in the next round.

Because each round is a handful of NumPy array operations over *all*
pending entries of the wave, the simulation costs O(total probes) vector
work rather than O(total probes) Python iterations — this is the trick
that makes a pure-Python "GPU" tolerable (see the HPC guides: vectorise the
loop over data, keep the loop over *rounds*).

The round structure also yields the exact statistics the cost model needs:
per-entry probe counts (memory traffic), CAS/add counts (atomic
contention), and per-warp round counts (lockstep divergence — a warp is as
slow as its unluckiest lane).

Every function takes an optional :class:`~repro.perf.workspace.
WorkspaceArena`; with one attached the whole wave runs without heap
allocation (slot prefixes: ``pa.`` accumulate, ``seg.`` segment indexing,
``smk.`` max-key, ``fz.`` fused sweep).  Results are bit-identical either
way — two details are
load-bearing and argued inline: the reversed-scatter CAS winner and the
sorted-run conflict count, each of which replaces an ``np.unique``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import HashtableFullError
from repro.hashing.hashtable import MAX_RETRIES
from repro.hashing.probing import ProbeStrategy
from repro.perf.workspace import WorkspaceArena, compact, iota, take
from repro.types import EMPTY_KEY

__all__ = [
    "SlotTracker",
    "WaveAccumulateResult",
    "fused_max_and_clear",
    "parallel_accumulate",
    "segmented_clear",
    "segmented_max_key",
    "segment_index_arrays",
]

_INT64_MAX = np.int64(np.iinfo(np.int64).max)

#: Minimum SlotTracker backing capacity; avoids churn on tiny waves.
_MIN_TRACKER_CAPACITY = 16

#: Two's-complement int64 wraparound constants for the scalar tail.
_U64_SPAN = 1 << 64
_I64_BIAS = 1 << 63

#: Pending-entry count below which a probe round switches to the scalar
#: tail loop.  A vectorised round costs a fixed ~15 NumPy dispatches no
#: matter how few entries remain, while the completeness-fallback tails
#: run *hundreds* of rounds with a handful of stragglers; below this size
#: plain Python arithmetic is cheaper than the dispatch overhead.
_SCALAR_TAIL_MAX = 32


class SlotTracker:
    """Append-only record of the flat slots a wave's accumulate claimed.

    The fused sweep (:func:`fused_max_and_clear`) needs to know which
    slots hold data without re-scanning every live slot of every table.
    Because tables start clean and only an ``atomicCAS`` ever writes a
    key, the occupied set after accumulation is exactly the set of slots
    the CAS rounds claimed — :func:`parallel_accumulate` appends them
    here as they happen.  Within-round duplicates (several lanes racing
    for one slot) are recorded as-is; they are harmless to both the
    reduction and the clear, and cross-round duplicates are impossible
    because a claimed slot never reads as empty again.

    The backing arrays grow geometrically and are reused across waves
    (``reset`` just rewinds the count), so steady-state appends are
    plain slice assignments with no heap allocation.
    """

    __slots__ = ("_slots", "_tables", "_count")

    def __init__(self) -> None:
        self._slots = np.empty(_MIN_TRACKER_CAPACITY, dtype=np.int64)
        self._tables = np.empty(_MIN_TRACKER_CAPACITY, dtype=np.int64)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, slots: np.ndarray, tables: np.ndarray) -> None:
        """Record ``slots`` (flat buffer indices) claimed for ``tables``."""
        n = slots.shape[0]
        need = self._count + n
        if need > self._slots.shape[0]:
            capacity = max(need, 2 * self._slots.shape[0])
            grown_slots = np.empty(capacity, dtype=np.int64)
            grown_slots[: self._count] = self._slots[: self._count]
            grown_tables = np.empty(capacity, dtype=np.int64)
            grown_tables[: self._count] = self._tables[: self._count]
            self._slots, self._tables = grown_slots, grown_tables
        self._slots[self._count : need] = slots
        self._tables[self._count : need] = tables
        self._count = need

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(slots, tables)`` views of everything recorded."""
        return self._slots[: self._count], self._tables[: self._count]

    def reset(self) -> None:
        """Forget all recorded slots (buffers are kept for reuse)."""
        self._count = 0


@dataclass
class WaveAccumulateResult:
    """Statistics from one wave of parallel hashtable accumulation.

    When the wave ran on an arena, ``entry_probes`` and ``warp_max_probes``
    are scratch views — valid until the next ``parallel_accumulate`` call
    on the same arena; copy them to keep them longer.
    """

    #: Total probes across all entries (each slot inspection counts once).
    total_probes: int = 0
    #: Number of probe rounds the wave needed (== max probes of any entry).
    rounds: int = 0
    #: atomicCAS attempts (shared tables only).
    cas_attempts: int = 0
    #: atomicAdd operations (shared tables only).
    atomic_adds: int = 0
    #: Extra serialisation from atomics landing on one slot in the same
    #: round (sum over slots of multiplicity - 1); shared tables only.
    atomic_conflicts: int = 0
    #: Per-warp maximum probe count — lockstep divergence cost; empty when
    #: no warp mapping was supplied.
    warp_max_probes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: Probe count of every entry, in input order — callers aggregate these
    #: into per-lane critical paths (the engine's divergence accounting).
    entry_probes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )


def _scalar_tail(
    keys_buf: np.ndarray,
    values_buf: np.ndarray,
    keys: np.ndarray,
    entry_table: np.ndarray,
    entry_value: np.ndarray,
    probe_i: np.ndarray,
    probe_di: np.ndarray,
    p1_of: np.ndarray,
    p2_of: np.ndarray,
    base_of: np.ndarray,
    pending: np.ndarray,
    probes_done: np.ndarray,
    result: WaveAccumulateResult,
    strategy: ProbeStrategy,
    shared: bool,
    claimed: "SlotTracker | None",
    start_round: int,
    max_retries: int,
) -> None:
    """Finish the last few pending entries with a per-entry Python loop.

    A vectorised probe round costs a fixed ~15 NumPy dispatches however
    few entries remain, and the completeness-fallback tails run hundreds
    of rounds with a handful of stragglers — most of a long wave's Python
    time.  This loop performs the *same* per-round arithmetic in the same
    order: the CAS winner is the first entry in lane order, ``atomicAdd``
    applies in lane order (so float accumulation order is preserved), and
    every counter update matches the vectorised round exactly — labels,
    counters, and probe statistics are bit-identical either way.
    """
    # Per-entry state as plain Python scalars: [entry, key, i, di, p1, p2,
    # base, table, value].  The value stays a NumPy scalar so the adds run
    # in the buffer's dtype, exactly like ``np.add.at``.
    state = [
        [
            e,
            int(keys[e]),
            int(probe_i[e]),
            int(probe_di[e]),
            int(p1_of[e]),
            int(p2_of[e]),
            int(base_of[e]),
            int(entry_table[e]),
            entry_value[e],
        ]
        for e in pending.tolist()
    ]
    quad = strategy is ProbeStrategy.QUADRATIC
    quad_double = strategy is ProbeStrategy.QUADRATIC_DOUBLE
    empty = int(EMPTY_KEY)
    claimed_slots: list[int] = []
    claimed_tables: list[int] = []
    round_no = start_round
    try:
        while True:
            if round_no > max_retries:
                raise HashtableFullError(
                    f"{len(state)} entries unplaced after {max_retries} "
                    f"probe rounds (strategy={strategy.value})"
                )
            result.total_probes += len(state)
            result.rounds = round_no
            num_empty = 0
            slots = []
            placed: dict[int, int] = {}
            for ent in state:
                s = ent[6] + ent[2] % ent[4]
                slots.append(s)
                probes_done[ent[0]] = round_no
                if int(keys_buf[s]) == empty:
                    num_empty += 1
                    if s not in placed:
                        placed[s] = ent[1]
                    if claimed is not None:
                        claimed_slots.append(s)
                        claimed_tables.append(ent[7])
            for s, key in placed.items():
                keys_buf[s] = key
            if shared:
                result.cas_attempts += num_empty

            retry = []
            succ_slots = []
            for ent, s in zip(state, slots):
                if int(keys_buf[s]) == ent[1]:
                    values_buf[s] += ent[8]
                    succ_slots.append(s)
                else:
                    retry.append(ent)
            ns = len(succ_slots)
            if shared and ns:
                result.atomic_adds += ns
                result.atomic_conflicts += ns - len(set(succ_slots))
            if not retry:
                return

            for ent in retry:
                i, di = ent[2], ent[3]
                if quad_double:
                    nd = 2 * di + ent[1] % ent[5]
                elif quad:
                    nd = 2 * di
                else:
                    nd = di
                # Completeness fallback: step-1 linear sweep after p1 probes.
                ni = i + 1 if ent[4] <= round_no else i + di
                # The vectorised rounds run int64 arithmetic, which wraps
                # after ~60 doubling rounds; Python ints don't, so emulate
                # the wrap (floor-mod keeps negative i valid in the slot
                # computation, same as np.remainder).
                ent[2] = (ni + _I64_BIAS) % _U64_SPAN - _I64_BIAS
                ent[3] = (nd + _I64_BIAS) % _U64_SPAN - _I64_BIAS
            state = retry
            round_no += 1
    finally:
        # Flush even when raising HashtableFullError: the engine's scrub
        # path re-empties exactly the tracker's slots.
        if claimed is not None and claimed_slots:
            claimed.append(
                np.asarray(claimed_slots, dtype=np.int64),
                np.asarray(claimed_tables, dtype=np.int64),
            )


def parallel_accumulate(
    keys_buf: np.ndarray,
    values_buf: np.ndarray,
    table_base: np.ndarray,
    table_p1: np.ndarray,
    table_p2: np.ndarray,
    entry_table: np.ndarray,
    entry_key: np.ndarray,
    entry_value: np.ndarray,
    strategy: ProbeStrategy = ProbeStrategy.QUADRATIC_DOUBLE,
    *,
    shared: bool = True,
    entry_warp: np.ndarray | None = None,
    num_warps: int = 0,
    max_retries: int = MAX_RETRIES,
    arena: WorkspaceArena | None = None,
    claimed: SlotTracker | None = None,
) -> WaveAccumulateResult:
    """Accumulate all ``(entry_key, entry_value)`` pairs into their tables.

    Parameters
    ----------
    keys_buf, values_buf:
        The flat ``2|E|`` buffers; mutated in place.
    table_base, table_p1, table_p2:
        Layout arrays indexed by *wave-local* table id.
    entry_table:
        Wave-local table id of each entry (one entry per scanned edge).
    entry_key, entry_value:
        Label and edge weight of each entry.
    strategy:
        Probe strategy (paper default quadratic-double).
    shared:
        True for the block-per-vertex kernel (atomics are counted); False
        for the thread-per-vertex kernel, where a single lane owns each
        table so the CAS degenerates to a plain store — the slot outcome is
        identical, only the atomic counters differ.
    entry_warp, num_warps:
        Optional mapping of entries to simulated warps for divergence
        accounting.
    arena:
        Optional scratch arena (``pa.`` slots) for allocation-free rounds.
    claimed:
        Optional :class:`SlotTracker`; when given, every slot an
        ``atomicCAS`` claims is appended (with its wave-local table id)
        so :func:`fused_max_and_clear` can reduce and re-clear exactly
        the occupied slots.  The accumulate arithmetic — and therefore
        every statistic — is unchanged by the tracker.
    """
    n = entry_key.shape[0]
    result = WaveAccumulateResult()
    if entry_warp is not None:
        result.warp_max_probes = np.zeros(num_warps, dtype=np.int64)
    if n == 0:
        return result

    if entry_key.dtype == np.int64:
        keys = entry_key
    else:  # compact-layout labels: widen into scratch, not a fresh array
        keys = take(arena, "pa.keys", n, np.int64)
        np.copyto(keys, entry_key)
    # Per-entry layout (saves re-indexing the table arrays every round).
    p1_of = take(arena, "pa.p1of", n, np.int64)
    table_p1.take(entry_table, out=p1_of, mode="clip")
    p2_of = take(arena, "pa.p2of", n, np.int64)
    table_p2.take(entry_table, out=p2_of, mode="clip")
    base_of = take(arena, "pa.baseof", n, np.int64)
    table_base.take(entry_table, out=base_of, mode="clip")

    # Probe state (Algorithm 2 line 2: i <- k; di <- 1, except pure double
    # hashing whose step is the per-key constant 1 + (k mod p2)).
    probe_i = take(arena, "pa.pi", n, np.int64)
    np.copyto(probe_i, keys)
    probe_di = take(arena, "pa.pdi", n, np.int64)
    if strategy is ProbeStrategy.DOUBLE:
        np.remainder(keys, p2_of, out=probe_di)
        np.add(probe_di, 1, out=probe_di)
    else:
        probe_di[:] = 1

    pending = iota(arena, n)  # read-only; retries compress into ping-pong slots
    probes_done = take(arena, "pa.done", n, np.int64)
    probes_done[:] = 0
    if max_retries == MAX_RETRIES:
        # Enough for the completeness fallback to sweep the largest table.
        max_retries = max(MAX_RETRIES, 2 * int(table_p1.max(initial=1)) + 64)

    flip = False
    for round_no in range(1, max_retries + 1):
        num_pending = pending.shape[0]
        if num_pending <= _SCALAR_TAIL_MAX:
            _scalar_tail(
                keys_buf, values_buf, keys, entry_table, entry_value,
                probe_i, probe_di, p1_of, p2_of, base_of,
                pending, probes_done, result, strategy, shared,
                claimed, round_no, max_retries,
            )
            break
        if round_no == 1:
            # First round: every entry is pending in order, so the per-round
            # "gather the pending entries' state" columns are the state
            # arrays themselves — skip four identity gathers over the
            # largest round.  They are only read below (the retry advance
            # scatters into probe_i/probe_di directly), so aliasing is safe.
            k = keys
            pip = probe_i
            p1p = p1_of
            bp = base_of
        else:
            k = take(arena, "pa.k", num_pending, np.int64)
            keys.take(pending, out=k, mode="clip")
            pip = take(arena, "pa.pip", num_pending, np.int64)
            probe_i.take(pending, out=pip, mode="clip")
            p1p = take(arena, "pa.p1p", num_pending, np.int64)
            p1_of.take(pending, out=p1p, mode="clip")
            bp = take(arena, "pa.bp", num_pending, np.int64)
            base_of.take(pending, out=bp, mode="clip")
        slots = take(arena, "pa.slots", num_pending, np.int64)
        np.remainder(pip, p1p, out=slots)
        np.add(slots, bp, out=slots)

        result.total_probes += num_pending
        # Every still-pending entry has probed exactly once per round, so
        # its count is simply the (1-based) round number — one scalar
        # scatter instead of the gather/add/scatter the GPU would do.
        if round_no == 1:
            probes_done[:] = 1
        else:
            probes_done[pending] = round_no

        current = take(arena, "pa.cur", num_pending, np.int64)
        keys_buf.take(slots, out=current, mode="clip")
        empty = take(arena, "pa.emp", num_pending, bool)
        np.equal(current, EMPTY_KEY, out=empty)
        num_empty = int(np.count_nonzero(empty))

        if num_empty:
            # atomicCAS: among entries probing the same empty slot, the
            # first in lane order wins and writes its key.  Scattering the
            # competitors in *reverse* makes the earliest write land last,
            # so the final buffer equals the unique-first-winner result
            # without computing np.unique.
            if claimed is None:
                se, ke = compact(arena, "pa.se", empty, num_empty, slots, k)
            else:
                if round_no == 1:
                    # First round: pending is the identity, so the table
                    # column needs no gather.
                    tp = entry_table
                else:
                    tp = take(arena, "pa.tp", num_pending, entry_table.dtype)
                    entry_table.take(pending, out=tp, mode="clip")
                se, ke, te = compact(
                    arena, "pa.se", empty, num_empty, slots, k, tp
                )
                claimed.append(se, te)
            keys_buf[se[::-1]] = ke[::-1]
            if shared:
                result.cas_attempts += num_empty
            keys_buf.take(slots, out=current, mode="clip")  # re-read after CAS commits

        success = take(arena, "pa.suc", num_pending, bool)
        np.equal(current, k, out=success)
        num_success = int(np.count_nonzero(success))
        if num_success:
            ev = take(arena, "pa.ev", num_pending, entry_value.dtype)
            entry_value.take(pending, out=ev, mode="clip")
            ss, sv = compact(arena, "pa.ss", success, num_success, slots, ev)
            np.add.at(values_buf, ss, sv)
            if shared:
                result.atomic_adds += num_success
                # conflicts = adds - distinct slots; count runs by sorting
                # the slot scratch in place (ss is dead after the add.at).
                ss.sort()
                distinct = 1
                if num_success > 1:
                    db = take(arena, "pa.db", num_success - 1, bool)
                    np.not_equal(ss[1:], ss[:-1], out=db)
                    distinct += int(np.count_nonzero(db))
                result.atomic_conflicts += num_success - distinct

        result.rounds = round_no
        num_retry = num_pending - num_success
        if num_retry == 0:
            break

        still = np.logical_not(success, out=success)
        # Advance the retrying entries (Algorithm 2 lines 17-18), inlined
        # from probing.probe_advance with in-place arithmetic.  The retry
        # list ping-pongs between two slots because ``pending`` (last
        # round's list) is still being read while this one is written.
        retry, old_i = compact(
            arena, "pa.pendB" if flip else "pa.pendA", still, num_retry,
            pending, pip,
        )
        flip = not flip
        step = take(arena, "pa.dr", num_retry, np.int64)
        probe_di.take(retry, out=step, mode="clip")
        new_i = take(arena, "pa.ni", num_retry, np.int64)
        np.add(old_i, step, out=new_i)
        if strategy is ProbeStrategy.QUADRATIC:
            np.multiply(step, 2, out=step)
        elif strategy is ProbeStrategy.QUADRATIC_DOUBLE:
            np.multiply(step, 2, out=step)
            kr = take(arena, "pa.kr", num_retry, np.int64)
            keys.take(retry, out=kr, mode="clip")
            p2r = take(arena, "pa.p2r", num_retry, np.int64)
            p2_of.take(retry, out=p2r, mode="clip")
            np.remainder(kr, p2r, out=kr)
            np.add(step, kr, out=step)
        # LINEAR and DOUBLE keep their step.

        # Completeness guard: with p1 = 2^k - 1 the doubling-based step
        # sequences are periodic (2 has order k mod 2^k - 1) and can orbit a
        # strict subset of slots at high load.  After p1 strategy probes an
        # entry degrades to a step-1 linear sweep (re-forced every round),
        # which provably visits every slot within another p1 rounds
        # (see DESIGN.md).
        # (probes_done[retry] is round_no for every retrying entry, so the
        # "probed >= p1" test needs only the p1 gather.)
        p1r = take(arena, "pa.p1r", num_retry, np.int64)
        p1_of.take(retry, out=p1r, mode="clip")
        fb = take(arena, "pa.fbm", num_retry, bool)
        np.less_equal(p1r, round_no, out=fb)
        np.add(old_i, 1, out=old_i)
        np.copyto(new_i, old_i, where=fb)

        probe_i[retry] = new_i
        probe_di[retry] = step
        pending = retry
    else:
        raise HashtableFullError(
            f"{pending.shape[0]} entries unplaced after {max_retries} probe "
            f"rounds (strategy={strategy.value})"
        )

    if entry_warp is not None and num_warps > 0:
        np.maximum.at(result.warp_max_probes, entry_warp, probes_done)
    result.entry_probes = probes_done
    return result


def segment_index_arrays(
    table_base: np.ndarray,
    table_p1: np.ndarray,
    arena: WorkspaceArena | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index machinery for per-table segmented operations.

    Returns ``(flat_index, segment_id, segment_starts)`` where
    ``flat_index`` enumerates every live slot of every table
    (``base[t] + [0, p1[t])``), ``segment_id`` labels which table each flat
    slot belongs to, and ``segment_starts`` are reduceat boundaries.  With
    an arena all three are scratch views (``seg.`` slots).
    """
    nt = table_p1.shape[0]
    p1 = table_p1 if table_p1.dtype == np.int64 else table_p1.astype(np.int64)
    total = int(p1.sum())
    starts = take(arena, "seg.starts", nt, np.int64)
    starts[0] = 0
    np.cumsum(p1[:-1], out=starts[1:])

    seg_id = take(arena, "seg.id", total, np.int64)
    seg_id[:] = 0
    if nt > 1:
        if int(p1.min()) > 0:
            seg_id[starts[1:]] = 1
        else:  # empty tables collapse boundaries (direct callers only)
            idx = starts[1:]
            np.add.at(seg_id, idx[idx < total], 1)
    np.cumsum(seg_id, out=seg_id)

    flat = take(arena, "seg.flat", total, np.int64)
    starts.take(seg_id, out=flat, mode="clip")
    np.subtract(iota(arena, total), flat, out=flat)  # within-segment rank
    within_base = take(arena, "seg.base", total, np.int64)
    table_base.take(seg_id, out=within_base, mode="clip")
    np.add(flat, within_base, out=flat)
    return flat, seg_id, starts


def segmented_clear(
    keys_buf: np.ndarray,
    values_buf: np.ndarray,
    table_base: np.ndarray,
    table_p1: np.ndarray,
    arena: WorkspaceArena | None = None,
) -> int:
    """``hashtableClear`` for every table of a wave; returns slots cleared."""
    if table_base.shape[0] == 0:
        return 0
    flat, _, _ = segment_index_arrays(table_base, table_p1, arena)
    keys_buf[flat] = EMPTY_KEY
    values_buf[flat] = 0
    return int(flat.shape[0])


def segmented_max_key(
    keys_buf: np.ndarray,
    values_buf: np.ndarray,
    table_base: np.ndarray,
    table_p1: np.ndarray,
    fallback: np.ndarray,
    *,
    arena: WorkspaceArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``hashtableMaxKey`` for every table of a wave.

    Returns, per table, the key of the *lowest slot* holding the maximum
    value (strict-LPA's "first label with the highest weight"), or
    ``fallback[t]`` for tables with no occupied slot.  The comparison runs
    in float64 regardless of the value dtype, exactly like the division-free
    max reduction the paper's kernel performs in registers.
    """
    if out is None:
        out = np.empty_like(fallback)
    np.copyto(out, fallback)
    nt = table_base.shape[0]
    if nt == 0:
        return out
    flat, seg_id, starts = segment_index_arrays(table_base, table_p1, arena)
    ns = flat.shape[0]
    keys = take(arena, "smk.k", ns, np.int64)
    keys_buf.take(flat, out=keys, mode="clip")
    raw = take(arena, "smk.vraw", ns, values_buf.dtype)
    values_buf.take(flat, out=raw, mode="clip")
    masked = take(arena, "smk.m", ns, np.float64)
    np.copyto(masked, raw, casting="unsafe")
    occupied = take(arena, "smk.occ", ns, bool)
    np.not_equal(keys, EMPTY_KEY, out=occupied)
    vacant = take(arena, "smk.vac", ns, bool)
    np.logical_not(occupied, out=vacant)
    masked[vacant] = -np.inf

    seg_max = take(arena, "smk.segmax", nt, np.float64)
    np.maximum.reduceat(masked, starts, out=seg_max)

    # First (lowest-slot) occurrence of the segment max.
    spread = take(arena, "smk.spread", ns, np.float64)
    seg_max.take(seg_id, out=spread, mode="clip")
    is_max = take(arena, "smk.ismax", ns, bool)
    np.equal(masked, spread, out=is_max)
    np.logical_and(is_max, occupied, out=is_max)

    candidate = take(arena, "smk.cand", ns, np.int64)
    starts.take(seg_id, out=candidate, mode="clip")
    np.subtract(iota(arena, ns), candidate, out=candidate)  # within rank
    np.logical_not(is_max, out=is_max)  # now "not a maximal slot"
    candidate[is_max] = _INT64_MAX
    first_pos = take(arena, "smk.first", nt, np.int64)
    np.minimum.reduceat(candidate, starts, out=first_pos)

    has_any = take(arena, "smk.has", nt, bool)
    np.not_equal(first_pos, _INT64_MAX, out=has_any)
    num_found = int(np.count_nonzero(has_any))
    if num_found:
        found_slot, found_pos = compact(
            arena, "smk.found", has_any, num_found, table_base, first_pos
        )
        np.add(found_slot, found_pos, out=found_slot)
        found_key = take(arena, "smk.fkey", num_found, np.int64)
        keys_buf.take(found_slot, out=found_key, mode="clip")
        out[has_any] = found_key
    return out


def fused_max_and_clear(
    keys_buf: np.ndarray,
    values_buf: np.ndarray,
    fallback: np.ndarray,
    tracker: SlotTracker,
    *,
    arena: WorkspaceArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fused ``hashtableMaxKey`` + ``hashtableClear`` over the claimed slots.

    The fused-sweep kernel model: instead of scanning every live slot of
    every wave table once to reduce (``segmented_max_key``) and once to
    clear (``segmented_clear``), a single pass visits only the slots the
    accumulate rounds claimed (recorded in ``tracker``), finds each
    table's winner, and resets those slots to empty — restoring the
    tables-start-clean invariant the next wave relies on.

    Bit-identity with the unfused pair: tables entered the wave clean and
    only an ``atomicCAS`` writes a key, so the claimed set *is* the
    occupied set; the unfused reduction masks vacant slots to ``-inf``
    and therefore reduces over exactly the same values.  The tie-break
    (lowest slot holding the maximum, in float64 comparison) is preserved
    because within one table the absolute slot order equals the
    within-table rank order.  Tables with no claimed slot, or whose
    claimed values include a NaN (no value equals a NaN maximum), keep
    ``fallback[t]`` — exactly as the unfused reduction does.

    Sorting the ``(table, slot)`` pairs — packed into one int64 when the
    bit widths allow, which they always do at simulatable sizes — groups
    each table's slots contiguously so the winner falls out of two
    ``reduceat`` calls, mirroring the unfused reduction's arithmetic.

    ``tracker`` is reset before returning.  With an arena (``fz.``
    slots) the whole pass is allocation-free.
    """
    if out is None:
        out = np.empty_like(fallback)
    np.copyto(out, fallback)
    ns = len(tracker)
    if ns == 0:
        tracker.reset()
        return out
    slots, tables = tracker.views()

    sbits = int(keys_buf.shape[0] - 1).bit_length()
    tbits = int(fallback.shape[0] - 1).bit_length()
    if tbits + sbits <= 63:
        comp = take(arena, "fz.comp", ns, np.int64)
        np.left_shift(tables, np.int64(sbits), out=comp)
        np.bitwise_or(comp, slots, out=comp)
        comp.sort()
        t = take(arena, "fz.t", ns, np.int64)
        np.right_shift(comp, np.int64(sbits), out=t)
        s = take(arena, "fz.s", ns, np.int64)
        np.bitwise_and(comp, np.int64((1 << sbits) - 1), out=s)
    else:  # pragma: no cover - needs a >2^63 packed id space
        order = np.lexsort((slots, tables))
        t = tables[order]
        s = slots[order]

    first = take(arena, "fz.first", ns, bool)
    first[0] = True
    if ns > 1:
        np.not_equal(t[1:], t[:-1], out=first[1:])
    num_groups = int(np.count_nonzero(first))
    gstart = compact(arena, "fz.gs", first, num_groups, iota(arena, ns))

    # Claimed slots are all occupied, so no vacancy mask is needed; the
    # comparison still runs in float64 like the unfused reduction.
    raw = take(arena, "fz.vraw", ns, values_buf.dtype)
    values_buf.take(s, out=raw, mode="clip")
    vals = take(arena, "fz.v", ns, np.float64)
    np.copyto(vals, raw, casting="unsafe")
    gmax = take(arena, "fz.gmax", num_groups, np.float64)
    np.maximum.reduceat(vals, gstart, out=gmax)

    gid = take(arena, "fz.gid", ns, np.int64)
    np.copyto(gid, first, casting="unsafe")
    np.cumsum(gid, out=gid)
    np.subtract(gid, 1, out=gid)
    spread = take(arena, "fz.spread", ns, np.float64)
    gmax.take(gid, out=spread, mode="clip")
    not_max = take(arena, "fz.nmax", ns, bool)
    np.not_equal(vals, spread, out=not_max)
    candidate = take(arena, "fz.cand", ns, np.int64)
    np.copyto(candidate, s)
    candidate[not_max] = _INT64_MAX
    winner_slot = take(arena, "fz.win", num_groups, np.int64)
    np.minimum.reduceat(candidate, gstart, out=winner_slot)

    gtable = take(arena, "fz.gt", num_groups, np.int64)
    t.take(gstart, out=gtable, mode="clip")
    # A group holding a NaN has a NaN maximum that no value equals, so it
    # has no winner and keeps its fallback, as in ``segmented_max_key``.
    found = take(arena, "fz.has", num_groups, bool)
    np.not_equal(winner_slot, _INT64_MAX, out=found)
    num_found = int(np.count_nonzero(found))
    if num_found < num_groups:
        gtable, winner_slot = compact(
            arena, "fz.found", found, num_found, gtable, winner_slot
        )
    winner_key = take(arena, "fz.wkey", num_found, np.int64)
    keys_buf.take(winner_slot, out=winner_key, mode="clip")
    out[gtable] = winner_key

    # Clear-at-end: hand the next wave clean tables.
    keys_buf[s] = EMPTY_KEY
    values_buf[s] = 0
    tracker.reset()
    return out
