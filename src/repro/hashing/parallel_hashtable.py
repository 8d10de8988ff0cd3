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

A wave is settled per entry, not per round.  Entries with the same
(table, key) pair follow one probe sequence, so they read the same slot in
every round and land together — in one round, in lane order — in the slot
their group claimed, where no other group ever lands.  A probe round
therefore only probes and claims, recording each entry's slot; everything
else follows from those final slots in one pass at the end of the wave:

* the ``atomicAdd``\\ s are one lane-order ``np.add.at`` — each slot's adds
  come from one group in lane order, so the float sums are bit-identical
  to adding round by round;
* every entry adds exactly once, so ``atomic_adds`` is the entry count,
  and each occupied slot takes all its adds in one round, so the per-round
  conflicts (adds minus distinct slots) sum to entries minus occupied
  slots;
* :func:`fused_max_and_clear` reduces and re-clears each table through its
  entries' slots, which are exactly the table's occupied slots.

The round structure also yields the per-entry probe counts the cost model
needs (memory traffic and, in the engine, lockstep divergence — a warp is
as slow as its unluckiest lane).

Every function takes an optional :class:`~repro.perf.workspace.
WorkspaceArena`; with one attached the whole wave runs without heap
allocation (slot prefixes: ``pa.`` accumulate, ``seg.`` segment indexing,
``smk.`` max-key, ``fz.`` fused reduce).  Results are bit-identical either
way.  Two scatters lean on the last write to a slot winning, as argued
inline: the reversed-scatter CAS winner, which replaces an ``np.unique``,
and the reduce's per-table run ends.
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
    "WaveAccumulateResult",
    "fused_max_and_clear",
    "parallel_accumulate",
    "segmented_clear",
    "segmented_max_key",
    "segment_index_arrays",
]

_INT64_MAX = np.int64(np.iinfo(np.int64).max)

#: Two's-complement int64 wraparound constants for the scalar tail.
_U64_SPAN = 1 << 64
_I64_BIAS = 1 << 63

#: Pending-entry count below which a probe round switches to the scalar
#: tail loop.  A vectorised round costs a fixed ~15 NumPy dispatches no
#: matter how few entries remain, while the completeness-fallback tails
#: run *hundreds* of rounds with a handful of stragglers; below this size
#: plain Python arithmetic is cheaper than the dispatch overhead.
_SCALAR_TAIL_MAX = 32


@dataclass
class WaveAccumulateResult:
    """Statistics from one wave of parallel hashtable accumulation.

    When the wave ran on an arena, ``entry_probes`` and ``entry_slot`` are
    scratch views — valid until the next ``parallel_accumulate`` call on
    the same arena; copy them to keep them longer.
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
    #: Probe count of every entry, in input order — callers aggregate these
    #: into per-lane critical paths (the engine's divergence accounting).
    entry_probes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: Flat buffer slot each entry's value landed in, in input order.
    entry_slot: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )


def _scalar_tail(
    keys_buf: np.ndarray,
    keys: np.ndarray,
    probe_i: np.ndarray,
    probe_di: np.ndarray,
    step_add: np.ndarray | None,
    p1_of: np.ndarray,
    base_of: np.ndarray,
    pending: np.ndarray,
    probes_done: np.ndarray,
    entry_slot: np.ndarray,
    result: WaveAccumulateResult,
    strategy: ProbeStrategy,
    shared: bool,
    start_round: int,
    max_retries: int,
) -> None:
    """Finish the last few pending entries with a per-entry Python loop.

    A vectorised probe round costs a fixed ~15 NumPy dispatches however
    few entries remain, and the completeness-fallback tails run hundreds
    of rounds with a handful of stragglers — most of a long wave's Python
    time.  This loop performs the *same* per-round arithmetic in the same
    order: the CAS winner is the first entry in lane order, and every
    entry's slot, probe count and the CAS count match the vectorised
    round exactly.
    """
    # Per-entry state as plain Python scalars: [entry, key, i, di, p1,
    # k mod p2 (quadratic-double only), base].
    state = [
        [
            e,
            int(keys[e]),
            int(probe_i[e]),
            int(probe_di[e]),
            int(p1_of[e]),
            0 if step_add is None else int(step_add[e]),
            int(base_of[e]),
        ]
        for e in pending.tolist()
    ]
    doubling = strategy in (ProbeStrategy.QUADRATIC, ProbeStrategy.QUADRATIC_DOUBLE)
    empty = int(EMPTY_KEY)
    read = keys_buf.item
    round_no = start_round
    while True:
        if round_no > max_retries:
            raise HashtableFullError(
                f"{len(state)} entries unplaced after {max_retries} "
                f"probe rounds (strategy={strategy.value})"
            )
        result.rounds = round_no
        num_empty = 0
        slots = []
        seen = []  # each slot's key once this round's CAS commits
        placed: dict[int, int] = {}
        for ent in state:
            s = ent[6] + ent[2] % ent[4]
            key = read(s)
            if key == empty:
                num_empty += 1
                key = placed.setdefault(s, ent[1])
            slots.append(s)
            seen.append(key)
        for s, key in placed.items():
            keys_buf[s] = key
        if shared:
            result.cas_attempts += num_empty

        # Only an entry's final round is recorded: its probe count and
        # slot (an unplaced entry's are never read — the wave raises).
        retry = []
        for ent, s, key in zip(state, slots, seen):
            if key == ent[1]:
                probes_done[ent[0]] = round_no
                entry_slot[ent[0]] = s
            else:
                retry.append(ent)
        if not retry:
            return

        for ent in retry:
            i, di = ent[2], ent[3]
            nd = 2 * di + ent[5] if doubling else di
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


def _distinct_slots(
    entry_table: np.ndarray,
    entry_slot: np.ndarray,
    table_base: np.ndarray,
    table_p1: np.ndarray,
    arena: WorkspaceArena | None,
) -> int:
    """Number of distinct slots in ``entry_slot`` (the occupied slots).

    Marks each entry's slot in a bitmap of the wave's live slots, laid out
    table after table (``cum_p1[t] + slot - base[t]``).
    """
    nt = table_p1.shape[0]
    shift = take(arena, "pa.shift", nt, np.int64)
    shift[0] = 0
    np.cumsum(table_p1[:-1], out=shift[1:])
    total = int(shift[-1]) + int(table_p1[-1])
    np.subtract(shift, table_base, out=shift)
    local = take(arena, "pa.local", entry_slot.shape[0], np.int64)
    shift.take(entry_table, out=local, mode="clip")
    np.add(local, entry_slot, out=local)
    seen = take(arena, "pa.seen", total, bool)
    seen[:] = False
    seen[local] = True
    return int(np.count_nonzero(seen))


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
    max_retries: int = MAX_RETRIES,
    arena: WorkspaceArena | None = None,
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
    arena:
        Optional scratch arena (``pa.`` slots) for allocation-free rounds.

    The probe rounds only claim slots; the value adds and the atomic
    counters are settled from the entries' final slots after the last
    round (see the module docstring for why that is bit-identical).
    """
    n = entry_key.shape[0]
    result = WaveAccumulateResult()
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
    base_of = take(arena, "pa.baseof", n, np.int64)
    table_base.take(entry_table, out=base_of, mode="clip")

    # Probe state (Algorithm 2 line 2: i <- k; di <- 1, except pure double
    # hashing whose step is the per-key constant 1 + (k mod p2)).  The
    # quadratic-double step adds the per-key constant k mod p2 every
    # round, so it is computed once per entry.
    probe_i = take(arena, "pa.pi", n, np.int64)
    np.copyto(probe_i, keys)
    probe_di = take(arena, "pa.pdi", n, np.int64)
    step_add = None
    if strategy in (ProbeStrategy.DOUBLE, ProbeStrategy.QUADRATIC_DOUBLE):
        kmod = take(arena, "pa.kmod", n, np.int64)
        table_p2.take(entry_table, out=kmod, mode="clip")
        np.remainder(keys, kmod, out=kmod)
        if strategy is ProbeStrategy.DOUBLE:
            np.add(kmod, 1, out=probe_di)
        else:
            probe_di[:] = 1
            step_add = kmod
    else:
        probe_di[:] = 1
    doubling = strategy in (ProbeStrategy.QUADRATIC, ProbeStrategy.QUADRATIC_DOUBLE)

    pending = iota(arena, n)  # read-only; retries compress into ping-pong slots
    probes_done = take(arena, "pa.done", n, np.int64)
    entry_slot = take(arena, "pa.slot", n, np.int64)
    if max_retries == MAX_RETRIES:
        # Enough for the completeness fallback to sweep the largest table.
        max_retries = max(MAX_RETRIES, 2 * int(table_p1.max(initial=1)) + 64)
    # No entry can reach the completeness fallback before round min(p1).
    min_p1 = int(table_p1.min())

    flip = False
    for round_no in range(1, max_retries + 1):
        num_pending = pending.shape[0]
        if num_pending <= _SCALAR_TAIL_MAX:
            _scalar_tail(
                keys_buf, keys, probe_i, probe_di, step_add, p1_of, base_of,
                pending, probes_done, entry_slot, result, strategy, shared,
                round_no, max_retries,
            )
            break
        if round_no == 1:
            # First round: every entry is pending in order, so the per-round
            # "gather the pending entries' state" columns are the state
            # arrays themselves — skip the identity gathers over the largest
            # round.  They are only read below (the retry advance scatters
            # into probe_i/probe_di directly), so aliasing is safe; the
            # slots go straight into ``entry_slot``.
            k = keys
            pip = probe_i
            p1p = p1_of
            bp = base_of
            slots = entry_slot
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
        # Every still-pending entry has probed exactly once per round, so
        # its count is simply the (1-based) round number — one scalar
        # scatter instead of the gather/add/scatter the GPU would do.
        if round_no == 1:
            probes_done[:] = 1
        else:
            probes_done[pending] = round_no
            entry_slot[pending] = slots

        current = take(arena, "pa.cur", num_pending, np.int64)
        keys_buf.take(slots, out=current, mode="clip")
        empty = take(arena, "pa.emp", num_pending, bool)
        np.equal(current, EMPTY_KEY, out=empty)
        num_empty = int(np.count_nonzero(empty))

        if num_empty:
            # atomicCAS as a masked write-back: entries on an occupied slot
            # write back the key they read (all of a slot's probers read
            # the same value this round); entries on an empty slot write
            # their own key.  Scattering in *reverse* makes the first lane
            # on each slot land last, so the buffer holds the
            # first-in-lane-order winner without computing np.unique.
            np.putmask(current, empty, k)
            keys_buf[slots[::-1]] = current[::-1]
            if shared:
                result.cas_attempts += num_empty
            keys_buf.take(slots, out=current, mode="clip")  # re-read after CAS commits

        still = np.not_equal(current, k, out=empty)
        num_retry = int(np.count_nonzero(still))
        result.rounds = round_no
        if num_retry == 0:
            break

        # Advance the retrying entries (Algorithm 2 lines 17-18), inlined
        # from probing.probe_advance with in-place arithmetic.  The retry
        # list ping-pongs between two slots because ``pending`` (last
        # round's list) is still being read while this one is written.
        retry = compact(
            arena, "pa.pendB" if flip else "pa.pendA", still, num_retry, pending
        )
        flip = not flip
        old_i = take(arena, "pa.oi", num_retry, np.int64)
        probe_i.take(retry, out=old_i, mode="clip")
        step = take(arena, "pa.dr", num_retry, np.int64)
        probe_di.take(retry, out=step, mode="clip")
        new_i = take(arena, "pa.ni", num_retry, np.int64)
        np.add(old_i, step, out=new_i)
        if doubling:  # quadratic: 2*di; quadratic-double: 2*di + k mod p2
            np.multiply(step, 2, out=step)
            if step_add is not None:
                kr = take(arena, "pa.kr", num_retry, np.int64)
                step_add.take(retry, out=kr, mode="clip")
                np.add(step, kr, out=step)
            probe_di[retry] = step
        # LINEAR and DOUBLE keep their step.

        # Completeness guard: with p1 = 2^k - 1 the doubling-based step
        # sequences are periodic (2 has order k mod 2^k - 1) and can orbit a
        # strict subset of slots at high load.  After p1 strategy probes an
        # entry degrades to a step-1 linear sweep (re-forced every round),
        # which provably visits every slot within another p1 rounds
        # (see DESIGN.md).  Every retrying entry has probed round_no times,
        # so before round min(p1) no entry qualifies.
        if round_no >= min_p1:
            p1r = take(arena, "pa.p1r", num_retry, np.int64)
            p1_of.take(retry, out=p1r, mode="clip")
            fb = take(arena, "pa.fbm", num_retry, bool)
            np.less_equal(p1r, round_no, out=fb)
            np.add(old_i, 1, out=old_i)
            np.copyto(new_i, old_i, where=fb)

        probe_i[retry] = new_i
        pending = retry
    else:
        raise HashtableFullError(
            f"{pending.shape[0]} entries unplaced after {max_retries} probe "
            f"rounds (strategy={strategy.value})"
        )

    # Settle the wave: every atomicAdd in lane order, then the counters.
    np.add.at(values_buf, entry_slot, entry_value)
    result.total_probes = int(probes_done.sum())
    if shared:
        result.atomic_adds = n
        result.atomic_conflicts = n - _distinct_slots(
            entry_table, entry_slot, table_base, table_p1, arena
        )
    result.entry_probes = probes_done
    result.entry_slot = entry_slot
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
    entry_table: np.ndarray,
    entry_slot: np.ndarray,
    *,
    arena: WorkspaceArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fused ``hashtableMaxKey`` + ``hashtableClear`` over the entries' slots.

    ``entry_slot`` is :attr:`WaveAccumulateResult.entry_slot` of the wave
    that filled the tables, and ``entry_table`` must be non-decreasing
    (the engine's gather order is).  Tables started the wave clean and
    only an entry's CAS writes a key, so a table's entries' slots are
    exactly its occupied slots — the reduction sees the same values as a
    scan of every live slot (``segmented_max_key``) and the clear restores
    the same all-empty tables as ``segmented_clear``.

    Per table: the key of the lowest slot holding the maximum value.  The
    values are compared in the buffer's own float dtype: widening to
    float64 is exact and keeps order and equality, so the winner is the
    one the float64 compare of ``segmented_max_key`` picks.  A table with
    no entries, or whose values include a NaN (no value equals a NaN
    maximum), keeps ``fallback[t]``.

    With an arena (``fz.`` slots) the whole pass is allocation-free.
    """
    if out is None:
        out = np.empty_like(fallback)
    np.copyto(out, fallback)
    n = entry_slot.shape[0]
    if n == 0:
        return out

    # Each table's run of entries: the forward scatter leaves one past
    # the table's last entry (the last write wins); a table without
    # entries keeps 0.  Each run starts where the previous one ends.
    nt = fallback.shape[0]
    ends = take(arena, "fz.end", nt, np.int64)
    ends[:] = 0
    ends[entry_table] = iota(arena, n + 1)[1:]
    has_entries = take(arena, "fz.some", nt, bool)
    np.not_equal(ends, 0, out=has_entries)
    num_runs = int(np.count_nonzero(has_entries))
    run_end, run_table = compact(
        arena, "fz.run", has_entries, num_runs, ends, iota(arena, nt)
    )
    starts = take(arena, "fz.start", num_runs, np.int64)
    starts[0] = 0
    starts[1:] = run_end[:-1]

    dtype = values_buf.dtype
    vals = take(arena, "fz.v", n, dtype)
    values_buf.take(entry_slot, out=vals, mode="clip")
    run_max = take(arena, "fz.max", num_runs, dtype)
    np.maximum.reduceat(vals, starts, out=run_max)

    # Lowest slot holding its table's maximum; a NaN maximum matches none.
    table_max = take(arena, "fz.tmax", nt, dtype)
    table_max[run_table] = run_max
    spread = take(arena, "fz.spread", n, dtype)
    table_max.take(entry_table, out=spread, mode="clip")
    not_max = take(arena, "fz.nmax", n, bool)
    np.not_equal(vals, spread, out=not_max)
    candidate = take(arena, "fz.cand", n, np.int64)
    np.copyto(candidate, entry_slot)
    np.putmask(candidate, not_max, _INT64_MAX)
    winner_slot = take(arena, "fz.win", num_runs, np.int64)
    np.minimum.reduceat(candidate, starts, out=winner_slot)

    found = take(arena, "fz.has", num_runs, bool)
    np.not_equal(winner_slot, _INT64_MAX, out=found)
    num_found = int(np.count_nonzero(found))
    if num_found < num_runs:
        run_table, winner_slot = compact(
            arena, "fz.found", found, num_found, run_table, winner_slot
        )
    winner_key = take(arena, "fz.wkey", num_found, np.int64)
    keys_buf.take(winner_slot, out=winner_key, mode="clip")
    out[run_table] = winner_key

    # Clear-at-end: hand the next wave clean tables.
    keys_buf[entry_slot] = EMPTY_KEY
    values_buf[entry_slot] = 0
    return out
