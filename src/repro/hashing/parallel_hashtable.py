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

Round 1 is most of a wave: every entry probes its home slot ``k mod p1``,
and most settle there.  On tables the caller guarantees clean
(``clean=True``; the engine's fused sweep leaves them so) every home slot
reads empty, so round 1 writes before it reads — one reversed scatter
claims the slots — and then re-reads them to find the losers.  Probe
state (``i``, ``di``, ``k mod p2``) is built only for those losers, as
compact columns that the later rounds gather from.

The round structure also yields the per-entry probe counts the cost model
needs (memory traffic and, in the engine, lockstep divergence — a warp is
as slow as its unluckiest lane).

Every function takes an optional :class:`~repro.perf.workspace.
WorkspaceArena`; with one attached the whole wave runs without heap
allocation (slot prefixes: ``pa.`` accumulate, ``seg.`` segment indexing,
``smk.`` max-key, ``fz.`` fused reduce).  Results are bit-identical either
way.  The CAS winner leans on the last write to a slot winning: a
reversed scatter makes the first lane in lane order land last, which
replaces an ``np.unique``.
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
    "order_code_f32",
    "parallel_accumulate",
    "segmented_clear",
    "segmented_max_key",
    "segment_index_arrays",
    "table_runs",
]

_INT64_MAX = np.int64(np.iinfo(np.int64).max)
#: Low 32 bits of a reduce code.
_LOW_WORD = np.int64(0xFFFFFFFF)

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


def _probe_columns(
    keys: np.ndarray,
    p1_of: np.ndarray,
    base_of: np.ndarray,
    entry_table: np.ndarray,
    table_p2: np.ndarray,
    rows: np.ndarray,
    strategy: ProbeStrategy,
    arena: WorkspaceArena | None,
):
    """Compact probe-state columns for the entries ``rows``.

    Returns ``(key, p1, base, i, di, step_add)`` at Algorithm 2 line 2:
    ``i <- k; di <- 1``, except pure double hashing, whose step is the
    per-key constant ``1 + (k mod p2)``.  The quadratic-double step adds
    the per-key constant ``k mod p2`` every round, so it is computed once
    per entry (``step_add``; ``None`` for the other strategies).
    """
    r = rows.shape[0]
    k = take(arena, "pa.rk", r, np.int64)
    keys.take(rows, out=k, mode="clip")
    p1 = take(arena, "pa.rp1", r, np.int64)
    p1_of.take(rows, out=p1, mode="clip")
    base = take(arena, "pa.rbase", r, np.int64)
    base_of.take(rows, out=base, mode="clip")
    probe_i = take(arena, "pa.pi", r, np.int64)
    np.copyto(probe_i, k)
    probe_di = take(arena, "pa.pdi", r, np.int64)
    step_add = None
    if strategy in (ProbeStrategy.DOUBLE, ProbeStrategy.QUADRATIC_DOUBLE):
        row_table = take(arena, "pa.rt", r, entry_table.dtype)
        entry_table.take(rows, out=row_table, mode="clip")
        kmod = take(arena, "pa.kmod", r, np.int64)
        table_p2.take(row_table, out=kmod, mode="clip")
        np.remainder(k, kmod, out=kmod)
        if strategy is ProbeStrategy.DOUBLE:
            np.add(kmod, 1, out=probe_di)
        else:
            probe_di[:] = 1
            step_add = kmod
    else:
        probe_di[:] = 1
    return k, p1, base, probe_i, probe_di, step_add


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
    clean: bool = False,
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
    clean:
        The caller guarantees every live slot of the wave's tables is
        empty, so round 1 writes before it reads (each home slot would
        read ``EMPTY_KEY``).  The engine sets it when no fault hook can
        have planted keys since the previous wave's clear.
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
    probes_done = take(arena, "pa.done", n, np.int64)
    entry_slot = take(arena, "pa.slot", n, np.int64)

    # Round 1 probes every entry at its home slot, i = k, straight from
    # the per-entry columns.  Probe state exists only for the entries
    # that lose round 1, as columns compacted to them (``rows`` maps each
    # back to its entry); later rounds gather from those columns.
    rows = None
    k_col = i_col = keys
    p1_col, base_col = p1_of, base_of
    done_col, slot_col = probes_done, entry_slot
    di_col = step_add = None
    doubling = strategy in (ProbeStrategy.QUADRATIC, ProbeStrategy.QUADRATIC_DOUBLE)

    pending = iota(arena, n)  # read-only; retries compress into ping-pong slots
    if max_retries == MAX_RETRIES:
        # Enough for the completeness fallback to sweep the largest table.
        max_retries = max(MAX_RETRIES, 2 * int(table_p1.max(initial=1)) + 64)
    # No entry can reach the completeness fallback before round min(p1).
    min_p1 = int(table_p1.min())

    flip = False
    for round_no in range(1, max_retries + 1):
        num_pending = pending.shape[0]
        if num_pending <= _SCALAR_TAIL_MAX:
            if di_col is None:  # a wave this small runs no vector round
                k_col, p1_col, base_col, i_col, di_col, step_add = _probe_columns(
                    keys, p1_of, base_of, entry_table, table_p2, pending,
                    strategy, arena,
                )
            _scalar_tail(
                keys_buf, k_col, i_col, di_col, step_add, p1_col, base_col,
                pending, done_col, slot_col, result, strategy, shared,
                round_no, max_retries,
            )
            break
        if round_no <= 2:
            # Every column entry is pending, in order: skip the identity
            # gathers.  The columns are only read below (the retry
            # advance scatters into them directly), so aliasing is safe;
            # the slots go straight into ``slot_col``.
            k, pip, p1p, bp, slots = k_col, i_col, p1_col, base_col, slot_col
        else:
            k = take(arena, "pa.k", num_pending, np.int64)
            k_col.take(pending, out=k, mode="clip")
            pip = take(arena, "pa.pip", num_pending, np.int64)
            i_col.take(pending, out=pip, mode="clip")
            p1p = take(arena, "pa.p1p", num_pending, np.int64)
            p1_col.take(pending, out=p1p, mode="clip")
            bp = take(arena, "pa.bp", num_pending, np.int64)
            base_col.take(pending, out=bp, mode="clip")
            slots = take(arena, "pa.slots", num_pending, np.int64)
        np.remainder(pip, p1p, out=slots)
        np.add(slots, bp, out=slots)
        # Every still-pending entry has probed exactly once per round, so
        # its count is simply the (1-based) round number — one scalar
        # scatter instead of the gather/add/scatter the GPU would do.
        if round_no <= 2:
            done_col[:] = round_no
        else:
            done_col[pending] = round_no
            slot_col[pending] = slots

        current = take(arena, "pa.cur", num_pending, np.int64)
        if round_no == 1 and clean:
            # Every home slot reads EMPTY_KEY, so the CAS is the reversed
            # scatter below with nothing read first.
            keys_buf[slots[::-1]] = k[::-1]
            num_empty = num_pending
        else:
            keys_buf.take(slots, out=current, mode="clip")
            empty = take(arena, "pa.emp", num_pending, bool)
            np.equal(current, EMPTY_KEY, out=empty)
            num_empty = int(np.count_nonzero(empty))
            if num_empty:
                # atomicCAS as a masked write-back: entries on an occupied
                # slot write back the key they read (all of a slot's
                # probers read the same value this round); entries on an
                # empty slot write their own key.  Scattering in *reverse*
                # makes the first lane on each slot land last, so the
                # buffer holds the first-in-lane-order winner without
                # computing np.unique.
                np.putmask(current, empty, k)
                keys_buf[slots[::-1]] = current[::-1]
        if num_empty:
            if shared:
                result.cas_attempts += num_empty
            keys_buf.take(slots, out=current, mode="clip")  # re-read after CAS commits

        still = take(arena, "pa.still", num_pending, bool)
        np.not_equal(current, k, out=still)
        num_retry = int(np.count_nonzero(still))
        result.rounds = round_no
        if num_retry == 0:
            break

        if round_no == 1:
            rows = compact(arena, "pa.rows", still, num_retry, pending)
            k_col, p1_col, base_col, i_col, di_col, step_add = _probe_columns(
                keys, p1_of, base_of, entry_table, table_p2, rows, strategy, arena
            )
            done_col = take(arena, "pa.rdone", num_retry, np.int64)
            slot_col = take(arena, "pa.rslot", num_retry, np.int64)
            retry = iota(arena, num_retry)
        else:
            # The retry list ping-pongs between two slots because
            # ``pending`` (last round's list) is still being read while
            # this one is written.
            retry = compact(
                arena, "pa.pendB" if flip else "pa.pendA", still, num_retry,
                pending,
            )
            flip = not flip

        # Advance the retrying entries (Algorithm 2 lines 17-18), inlined
        # from probing.probe_advance with in-place arithmetic.
        old_i = take(arena, "pa.oi", num_retry, np.int64)
        i_col.take(retry, out=old_i, mode="clip")
        step = take(arena, "pa.dr", num_retry, np.int64)
        di_col.take(retry, out=step, mode="clip")
        new_i = take(arena, "pa.ni", num_retry, np.int64)
        np.add(old_i, step, out=new_i)
        if doubling:  # quadratic: 2*di; quadratic-double: 2*di + k mod p2
            np.multiply(step, 2, out=step)
            if step_add is not None:
                kr = take(arena, "pa.kr", num_retry, np.int64)
                step_add.take(retry, out=kr, mode="clip")
                np.add(step, kr, out=step)
            di_col[retry] = step
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
            p1_col.take(retry, out=p1r, mode="clip")
            fb = take(arena, "pa.fbm", num_retry, bool)
            np.less_equal(p1r, round_no, out=fb)
            np.add(old_i, 1, out=old_i)
            np.copyto(new_i, old_i, where=fb)

        i_col[retry] = new_i
        pending = retry
    else:
        raise HashtableFullError(
            f"{pending.shape[0]} entries unplaced after {max_retries} probe "
            f"rounds (strategy={strategy.value})"
        )
    if rows is not None:
        probes_done[rows] = done_col
        entry_slot[rows] = slot_col

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


def order_code_f32(
    values: np.ndarray, code: np.ndarray, scratch: np.ndarray
) -> None:
    """``code = ordered(values) << 32`` for float32 ``values``.

    ``ordered`` maps float32 bits to an int32 of the same order: a
    non-negative float's bits already order like its value, and a
    negative float's order backwards by magnitude, so their low 31 bits
    are flipped.  ``-0.0`` is folded to ``+0.0`` first (they compare equal
    as floats); NaN has no place in the order, so callers exclude it.
    ``values`` is overwritten and ``scratch`` is int32 of the same length.
    The low word is the caller's tie-break among equal values.
    """
    np.add(values, np.float32(0.0), out=values)  # -0.0 + 0.0 == +0.0
    bits = values.view(np.int32)
    np.right_shift(bits, np.int32(31), out=scratch)
    np.bitwise_and(scratch, np.int32(0x7FFFFFFF), out=scratch)
    np.bitwise_xor(bits, scratch, out=scratch)
    np.copyto(code, scratch, casting="unsafe")
    np.left_shift(code, np.int64(32), out=code)


def table_runs(
    table_start: np.ndarray,
    n: int,
    arena: WorkspaceArena | None,
    prefix: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``reduceat`` boundaries of the tables' runs of ``n`` entries.

    ``table_start[t]`` is the index of table ``t``'s first entry; a table
    without entries starts where the next one does (or at ``n``).  When
    every table has entries, returns ``(table_start, None)``.  Otherwise
    the boundaries stop before the trailing tables that start at ``n``
    (``reduceat`` rejects ``n``), and the second item masks the tables
    that own entries: ``reduceat`` gives each of the others at most one
    stray element, which the caller must discard.
    """
    nt = table_start.shape[0]
    has = take(arena, f"{prefix}.has", nt, bool)
    np.not_equal(table_start[1:], table_start[:-1], out=has[:-1])
    has[-1] = int(table_start[-1]) != n
    if int(np.count_nonzero(has)) == nt:
        return table_start, None
    return table_start[: int(np.searchsorted(table_start, n))], has


def fused_max_and_clear(
    keys_buf: np.ndarray,
    values_buf: np.ndarray,
    fallback: np.ndarray,
    entry_table: np.ndarray,
    entry_slot: np.ndarray,
    *,
    table_start: np.ndarray,
    table_base: np.ndarray,
    arena: WorkspaceArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fused ``hashtableMaxKey`` + ``hashtableClear`` over the entries' slots.

    ``entry_slot`` is :attr:`WaveAccumulateResult.entry_slot` of the wave
    that filled the tables, ``entry_table`` must be non-decreasing (the
    engine's gather order is), ``table_start`` holds each table's first
    entry (see :func:`table_runs`) and ``table_base`` its first slot.
    Tables started the wave clean and only an entry's CAS writes a key,
    so a table's entries' slots are exactly its occupied slots — the
    reduction sees the same values as a scan of every live slot
    (``segmented_max_key``) and the clear restores the same all-empty
    tables as ``segmented_clear``.

    Per table: the key of the lowest slot holding the maximum value.  The
    values are compared in the buffer's own float dtype: widening to
    float64 is exact and keeps order and equality, so the winner is the
    one the float64 compare of ``segmented_max_key`` picks.  A table with
    no entries, or whose values include a NaN (no value equals a NaN
    maximum), keeps ``fallback[t]``.

    float32 waves without a NaN take one ``maximum.reduceat`` over an
    encoded entry, ``ordered(value) << 32`` minus its slot
    (:func:`order_code_f32`): the largest code is the largest value and,
    among equal values, the lowest slot.  Within a table this orders
    like ``ordered(value) << 32 | (2^32 - 1 - (slot - base))``, which
    differs from it by the table's constant ``base + 2^32 - 1``, so the
    winner's ``slot - base`` is the low word of ``-(code + base)``
    (tables hold fewer than 2^32 slots).  float64 waves, and waves
    holding a NaN, scan for the first maximum instead.

    With an arena (``fz.`` slots) the whole pass is allocation-free.
    """
    if out is None:
        out = np.empty_like(fallback)
    n = entry_slot.shape[0]
    if n == 0:
        np.copyto(out, fallback)
        return out

    nt = fallback.shape[0]
    starts, found = table_runs(table_start, n, arena, "fz")
    runs = starts.shape[0]
    dtype = values_buf.dtype
    vals = take(arena, "fz.v", n, dtype)
    values_buf.take(entry_slot, out=vals, mode="clip")
    winner_slot = take(arena, "fz.win", nt, np.int64)
    if dtype == np.float32 and not np.isnan(vals.max()):
        code = take(arena, "fz.code", n, np.int64)
        order_code_f32(vals, code, take(arena, "fz.o32", n, np.int32))
        np.subtract(code, entry_slot, out=code)
        np.maximum.reduceat(code, starts, out=winner_slot[:runs])
        np.add(winner_slot, table_base, out=winner_slot)
        np.negative(winner_slot, out=winner_slot)
        np.bitwise_and(winner_slot, _LOW_WORD, out=winner_slot)
        np.add(winner_slot, table_base, out=winner_slot)
    else:
        # Lowest slot holding its table's maximum; a NaN maximum matches
        # none, which leaves the table without a winner.
        table_max = take(arena, "fz.max", nt, dtype)
        np.maximum.reduceat(vals, starts, out=table_max[:runs])
        spread = take(arena, "fz.spread", n, dtype)
        table_max.take(entry_table, out=spread, mode="clip")
        not_max = take(arena, "fz.nmax", n, bool)
        np.not_equal(vals, spread, out=not_max)
        candidate = take(arena, "fz.cand", n, np.int64)
        np.copyto(candidate, entry_slot)
        np.putmask(candidate, not_max, _INT64_MAX)
        np.minimum.reduceat(candidate, starts, out=winner_slot[:runs])
        has_max = take(arena, "fz.hmax", nt, bool)
        np.not_equal(winner_slot, _INT64_MAX, out=has_max)
        if found is not None:
            np.logical_and(has_max, found, out=has_max)
        found = has_max

    winner_key = take(arena, "fz.wkey", nt, np.int64)
    keys_buf.take(winner_slot, out=winner_key, mode="clip")
    if found is None:
        np.copyto(out, winner_key, casting="unsafe")
    else:
        np.copyto(out, fallback)
        np.copyto(out, winner_key, casting="unsafe", where=found)

    # Clear-at-end: hand the next wave clean tables.
    keys_buf[entry_slot] = EMPTY_KEY
    values_buf[entry_slot] = 0
    return out
