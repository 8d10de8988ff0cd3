"""The fast ν-LPA engine: sort-based group-by label selection.

Runs the hashtable engine's driver, :class:`~repro.core.engine_hashtable.
WaveEngine` — same wave structure, same self-loop filter, same Pick-Less
filter, same pruning — and implements only its ``_select`` hook: the
per-vertex "most weighted label" is computed with a packed sort +
segmented reduce instead of simulated hashtables, making it the engine of
choice for applications (an order of magnitude faster in pure NumPy).

Tie-break difference, by construction: where several labels share the
maximum weight, this engine picks the *smallest label id* (deterministic);
the hashtable engine picks the first in slot order (pseudo-random, the
paper's "strict LPA").  Cross-engine tests therefore compare modularity and
invariants rather than exact labels.

Counters are coarse (edges scanned, waves, adjacency/label traffic): this
engine exists for speed, not for the cost model — experiments use the
hashtable engine.

Every scratch array of the per-wave hot path comes from the engine's own
:class:`~repro.perf.workspace.WorkspaceArena`, so steady-state waves
allocate nothing.  The kernels also accept ``arena=None`` (fresh buffers,
the *same* arithmetic) for callers outside the engines; the differential
tests run the engines that way as a reference.
"""

from __future__ import annotations

import numpy as np

# ``gather_edges``, ``partition_by_degree``, ``pick_less_filter`` and
# ``plan_waves`` are not called here (the driver in ``engine_hashtable``
# calls them); they stay bound at these module attributes because the
# benchmark's traced run wraps each by its name in this module.
from repro.core._gather import gather_edges
from repro.core.engine_hashtable import WaveEngine
from repro.core.kernels import partition_by_degree
from repro.core.swap_prevention import pick_less_filter
from repro.gpu.scheduler import plan_waves
from repro.hashing.parallel_hashtable import order_code_f32
from repro.perf.workspace import WorkspaceArena, compact, iota, take

__all__ = ["VectorizedEngine", "best_labels_groupby"]


#: Knuth's multiplicative constant, used for the "hash" tie-break.
_HASH_MULT = np.int64(2654435761)
_HASH_MASK = np.int64(2**31 - 1)

#: Ranks must fit 31 bits for the composite-key sort paths below.
_RANK_LIMIT = np.int64(1) << 31
#: ``table * 2^31 + rank`` must fit int64, so at most 2^32 tables qualify
#: for the composite argsort; beyond that we fall back to ``np.lexsort``.
_COMPOSITE_TABLE_LIMIT = 1 << 32

_INT64_MAX = np.int64(np.iinfo(np.int64).max)
_INT64_MIN = np.int64(np.iinfo(np.int64).min)
#: Low 32 bits of an encoded group: ``_KEY_MASK - key``.
_KEY_MASK = np.int64(0xFFFFFFFF)


def _tie_rank(keys: np.ndarray, tie_break: str, arena, name: str) -> np.ndarray:
    """Per-entry tie-break rank; smaller rank wins among equal weights."""
    if tie_break == "hash":
        rank = take(arena, name, keys.shape[0], np.int64)
        np.multiply(keys, _HASH_MULT, out=rank)
        np.bitwise_and(rank, _HASH_MASK, out=rank)
        return rank
    if tie_break == "smallest":
        return keys
    raise ValueError(f"unknown tie_break {tie_break!r}")


def _groupby_order(
    table_id: np.ndarray,
    keys: np.ndarray,
    rank: np.ndarray,
    num_tables: int,
    arena,
) -> np.ndarray:
    """Permutation sorting entries by ``(table, rank, key)``, stable.

    Ranks are injective per key for both tie-breaks whenever ``key >= 0``
    ("smallest" is the identity; the Knuth hash is odd, hence invertible
    mod 2^31), so the key column never actually breaks a tie and a stable
    ``(table, rank)`` sort yields the same permutation as the full lexsort.
    That admits two composite-key fast paths:

    1. When ``table``, ``rank``, and the entry index together fit 63 bits,
       fold all three into one int64, sort it *in place* (every value is
       unique, so an unstable sort still lands in stable order) and decode
       the permutation with a bitmask — zero allocations, and ~20x faster
       than ``np.lexsort``.  Engine waves always take this path.
    2. Otherwise argsort ``table * 2^31 + rank`` with a stable (radix)
       sort — one permutation allocation, still ~8x faster than lexsort.

    Anything unpackable (negative keys, oversized ranks or table counts)
    falls back to the equivalent ``np.lexsort``.  Every branch depends
    only on the *inputs*, never on the arena, so arena-on and arena-off
    runs take the same path and stay bit-identical.
    """
    n = keys.shape[0]
    if int(keys.min()) < 0 or int(rank.max()) >= int(_RANK_LIMIT):
        return np.lexsort((keys, rank, table_id))
    ibits = max((n - 1).bit_length(), 1)
    rbits = max(int(rank.max()).bit_length(), 1)
    tbits = max((num_tables - 1).bit_length(), 1)
    if tbits + rbits + ibits <= 63:
        comp = take(arena, "gb.comp", n, np.int64)
        np.multiply(table_id, np.int64(1) << (rbits + ibits), out=comp)
        shifted_rank = take(arena, "gb.rsh", n, np.int64)
        np.multiply(rank, np.int64(1) << ibits, out=shifted_rank)
        np.add(comp, shifted_rank, out=comp)
        np.add(comp, iota(arena, n), out=comp)
        comp.sort()
        perm = take(arena, "gb.perm", n, np.int64)
        np.bitwise_and(comp, (np.int64(1) << ibits) - np.int64(1), out=perm)
        return perm
    if num_tables <= _COMPOSITE_TABLE_LIMIT:
        comp = take(arena, "gb.comp", n, np.int64)
        np.multiply(table_id, _RANK_LIMIT, out=comp)
        np.add(comp, rank, out=comp)
        return np.argsort(comp, kind="stable")
    return np.lexsort((keys, rank, table_id))


def _groupby_order_packed(
    table_id: np.ndarray,
    keys: np.ndarray,
    num_tables: int,
    arena,
) -> tuple[np.ndarray, np.ndarray, int, int] | None:
    """The single-int64 fast path of :func:`_groupby_order`, keeping ``comp``.

    Only for the ``"smallest"`` tie-break, where the rank column *is* the
    key column: on success returns ``(perm, sorted_comp, rbits, ibits)``
    so the caller can decode each sorted entry's ``(table, key)`` pair
    straight out of ``sorted_comp >> ibits`` — replacing the random
    key-gather and the two-column group-boundary test with shifts over
    already-sorted memory.  ``perm`` is bit-identical to what
    :func:`_groupby_order` returns for the same inputs; ``None`` means
    the inputs don't pack (caller falls back to the general path).
    """
    n = keys.shape[0]
    if int(keys.min()) < 0 or int(keys.max()) >= int(_RANK_LIMIT):
        return None
    ibits = max((n - 1).bit_length(), 1)
    rbits = max(int(keys.max()).bit_length(), 1)
    tbits = max((num_tables - 1).bit_length(), 1)
    if tbits + rbits + ibits > 63:
        return None
    comp = take(arena, "gb.comp", n, np.int64)
    np.multiply(table_id, np.int64(1) << (rbits + ibits), out=comp)
    # Compact-layout keys are int32: widen them into the slot first, as a
    # multiply mixing int32 keys with an int64 output casts through a
    # buffer numpy allocates per call.
    shifted_rank = take(arena, "gb.rsh", n, np.int64)
    np.copyto(shifted_rank, keys)
    np.multiply(shifted_rank, np.int64(1) << ibits, out=shifted_rank)
    np.add(comp, shifted_rank, out=comp)
    np.add(comp, iota(arena, n), out=comp)
    comp.sort()
    perm = take(arena, "gb.perm", n, np.int64)
    np.bitwise_and(comp, (np.int64(1) << ibits) - np.int64(1), out=perm)
    return perm, comp, rbits, ibits


def best_labels_groupby(
    table_id: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    fallback: np.ndarray,
    *,
    tie_break: str = "smallest",
    accum_dtype: np.dtype | type = np.float64,
    arena: WorkspaceArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Most-weighted key per table; empty tables -> fallback.

    ``table_id`` must be non-decreasing (gather order guarantees it); the
    table count is ``fallback.shape[0]``.

    ``tie_break`` resolves equal-weight maxima:

    * ``"smallest"`` — lowest label id.  Deterministic, but under strongly
      *asynchronous* execution the monotone bias lets small labels cascade
      across the whole graph in one pass (monster communities);
    * ``"hash"`` — lowest multiplicative hash of the label, modelling the
      direction-free pseudo-random order of a real hashtable scan; the
      asynchronous CPU baselines use this.

    ``accum_dtype`` is the precision edge weights are cast to and summed
    in — the vectorized engine passes ``config.value_dtype`` so the
    Figure-5 fp32/fp64 ablation exercises this engine too (it used to
    accumulate in float64 unconditionally).  ``arena``/``out`` plug the
    call into a scratch arena; results are bit-identical without them.
    """
    num_tables = fallback.shape[0]
    if out is None:
        out = np.empty_like(fallback)
    np.copyto(out, fallback)
    n = keys.shape[0]
    if n == 0:
        return out
    accum = np.dtype(accum_dtype)
    packed = (
        _groupby_order_packed(table_id, keys, num_tables, arena)
        if tie_break == "smallest"
        else None
    )
    if packed is None:
        rank = _tie_rank(keys, tie_break, arena, "gb.rank")
        perm = _groupby_order(table_id, keys, rank, num_tables, arena)
    else:
        perm, comp, rbits, ibits = packed

    if values.dtype == accum:
        vsrc = values
    else:
        vsrc = take(arena, "gb.vcast", n, accum)
        np.copyto(vsrc, values, casting="unsafe")
    v = take(arena, "gb.v", n, accum)
    vsrc.take(perm, out=v, mode="clip")

    # Group = contiguous run of equal (table, key); table/rank sorting makes
    # groups appear in tie-break order within each table.
    group_first = take(arena, "gb.gf", n, bool)
    group_first[0] = True
    if packed is not None:
        # ``comp >> ibits`` is exactly the (table, key) pair of each sorted
        # entry, so one shift + one diff replaces the random key gather and
        # the two-column boundary test — same groups, bit for bit.
        sh = take(arena, "gb.sh", n, np.int64)
        np.right_shift(comp, np.int64(ibits), out=sh)
        np.not_equal(sh[1:], sh[:-1], out=group_first[1:])
        num_groups = int(np.count_nonzero(group_first))
        starts = compact(arena, "gb.starts", group_first, num_groups, iota(arena, n))
        sums = take(arena, "gb.sums", num_groups, accum)
        np.add.reduceat(v, starts, out=sums)
        group_pair = take(arena, "gb.gp", num_groups, np.int64)
        sh.take(starts, out=group_pair, mode="clip")
        group_table = take(arena, "gb.gt", num_groups, np.int64)
        np.right_shift(group_pair, np.int64(rbits), out=group_table)
        group_key = take(arena, "gb.gk", num_groups, np.int64)
        np.bitwise_and(
            group_pair, (np.int64(1) << rbits) - np.int64(1), out=group_key
        )
    else:
        # Sorted-by-(table, rank, key) copies of the entry columns.  The
        # sort is table-stable and ``table_id`` is non-decreasing (the
        # contract), so the permuted table column equals the input — no
        # gather needed.
        if table_id.dtype == np.int64:
            t = table_id
        else:  # direct callers (tests, baselines) may pass narrower ids
            t = take(arena, "gb.t", n, np.int64)
            np.copyto(t, table_id, casting="unsafe")
        k = take(arena, "gb.k", n, keys.dtype)
        keys.take(perm, out=k, mode="clip")
        np.not_equal(t[1:], t[:-1], out=group_first[1:])
        key_diff = take(arena, "gb.kd", max(n - 1, 1), bool)[: n - 1]
        np.not_equal(k[1:], k[:-1], out=key_diff)
        np.logical_or(group_first[1:], key_diff, out=group_first[1:])
        num_groups = int(np.count_nonzero(group_first))
        starts = compact(arena, "gb.starts", group_first, num_groups, iota(arena, n))
        sums = take(arena, "gb.sums", num_groups, accum)
        np.add.reduceat(v, starts, out=sums)
        group_table = take(arena, "gb.gt", num_groups, np.int64)
        t.take(starts, out=group_table, mode="clip")
        group_key = take(arena, "gb.gk", num_groups, keys.dtype)
        k.take(starts, out=group_key, mode="clip")

    if (
        packed is not None
        and accum == np.float32
        and not np.isnan(sums.min())
    ):
        _winners_encoded(sums, group_table, group_key, out, arena)
    else:
        _winners_scan(sums, group_table, group_key, out, arena)
    return out


def _winners_scan(
    sums: np.ndarray,
    group_table: np.ndarray,
    group_key: np.ndarray,
    out: np.ndarray,
    arena,
) -> None:
    """Write each present table's winning key into ``out``.

    Groups arrive sorted by table and, within a table, in tie-break order;
    the winner is the *first* group attaining the table's maximum sum.
    """
    num_groups = sums.shape[0]
    accum = sums.dtype
    table_first = take(arena, "gb.tf", num_groups, bool)
    table_first[0] = True
    np.not_equal(group_table[1:], group_table[:-1], out=table_first[1:])
    num_present = int(np.count_nonzero(table_first))
    table_starts = compact(
        arena, "gb.ts", table_first, num_present, iota(arena, num_groups)
    )
    # cumsum straight off the bool mask would materialise an int64 cast
    # copy of it; the explicit copyto keeps the cast allocation-free.
    table_of_groups = take(arena, "gb.tog", num_groups, np.int64)
    np.copyto(table_of_groups, table_first, casting="unsafe")
    np.cumsum(table_of_groups, out=table_of_groups)
    np.subtract(table_of_groups, 1, out=table_of_groups)

    max_per_table = take(arena, "gb.mpt", num_present, accum)
    np.maximum.reduceat(sums, table_starts, out=max_per_table)
    spread_max = take(arena, "gb.spread", num_groups, accum)
    max_per_table.take(table_of_groups, out=spread_max, mode="clip")
    is_max = take(arena, "gb.ismax", num_groups, bool)
    np.equal(sums, spread_max, out=is_max)

    candidate = take(arena, "gb.cand", num_groups, np.int64)
    np.copyto(candidate, iota(arena, num_groups))
    np.logical_not(is_max, out=is_max)  # is_max now "not max"
    candidate[is_max] = _INT64_MAX
    first_max = take(arena, "gb.fm", num_present, np.int64)
    np.minimum.reduceat(candidate, table_starts, out=first_max)

    present_tables = take(arena, "gb.pt", num_present, np.int64)
    group_table.take(table_starts, out=present_tables, mode="clip")
    winners = take(arena, "gb.win", num_present, group_key.dtype)
    group_key.take(first_max, out=winners, mode="clip")
    out[present_tables] = winners


def _winners_encoded(
    sums: np.ndarray,
    group_table: np.ndarray,
    group_key: np.ndarray,
    out: np.ndarray,
    arena,
) -> None:
    """:func:`_winners_scan` for float32 sums and keys in ``[0, 2^32)``,
    as one encoded max per table.

    Each group becomes one int64, ``ordered(sum) << 32 | (2^32 - 1 - key)``
    (:func:`~repro.hashing.parallel_hashtable.order_code_f32`, shared
    with the hashtable engine's reduce), so the largest code is the
    largest sum and, among equal sums, the smallest key — the scan's
    first maximum on the ``"smallest"`` path, where groups are key-sorted
    within a table.  ``-0.0`` is folded to ``+0.0`` first (they compare
    equal as floats); NaN sums are the caller's to exclude.  Tables
    without a group keep ``out``'s value.  ``sums`` is overwritten.
    """
    num_groups = sums.shape[0]
    code = take(arena, "gb.code", num_groups, np.int64)
    order_code_f32(sums, code, take(arena, "gb.o32", num_groups, np.int32))
    low = take(arena, "gb.low", num_groups, np.int64)
    np.subtract(_KEY_MASK, group_key, out=low)
    np.bitwise_or(code, low, out=code)
    best = take(arena, "gb.best", out.shape[0], np.int64)
    best.fill(_INT64_MIN)
    np.maximum.at(best, group_table, code)
    present = take(arena, "gb.present", out.shape[0], bool)
    np.not_equal(best, _INT64_MIN, out=present)
    np.bitwise_and(best, _KEY_MASK, out=best)
    np.subtract(_KEY_MASK, best, out=best)
    np.copyto(out, best, casting="unsafe", where=present)


class VectorizedEngine(WaveEngine):
    """``lpaMove`` via segmented group-by; application fast path."""

    name = "vectorized"

    def _select(self, wave, kind, labels, entries, counters):
        """Group the entries by ``(vertex, label)`` and take each vertex's
        heaviest group (:func:`best_labels_groupby`).

        The fault hook runs once, with ``phase="reduce"``, on the wave's
        gathered keys: a bit flip there corrupts the wave without touching
        the committed labels.
        """
        self._fault("reduce", kind, wave, labels, keys=entries.keys)
        arena = self.arena
        w = wave.shape[0]
        fallback = take(arena, "vx.fb", w, labels.dtype)
        labels.take(wave, out=fallback, mode="clip")
        best = best_labels_groupby(
            entries.table,
            entries.keys,
            entries.weights,
            fallback,
            accum_dtype=self.config.value_dtype,
            arena=arena,
            out=take(arena, "vx.best", w, labels.dtype),
        )
        counters.edges_scanned += entries.count
        counters.sectors_read += 2 * entries.count
        return fallback, best
