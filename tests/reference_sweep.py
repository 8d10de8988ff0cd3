"""Reference paths for the engines' single production path.

The hashtable engine has one per-vertex sweep — the fused clear →
accumulate → max-key pass over workspace-arena scratch — and the
vectorized engine one arena-backed group-by.  The differential tests
(and the CI identity leg) compare that production path with the literal
statements below, swapped in for the duration of a ``with`` block:

* :func:`reference_reduce` replaces the hashtable engine's accumulate
  with :func:`literal_accumulate` — Algorithm 2's lockstep probe rounds
  as a per-entry Python loop, with a CAS and an ``atomicAdd`` in every
  round — and its reduce with :func:`literal_max_key` —
  ``hashtableMaxKey`` as a per-table Python loop over *every* live slot,
  so it relies neither on the entries' slots nor on vectorised masking —
  followed by a full per-table ``hashtableClear``;
* :func:`no_arena` builds the engines without a workspace arena, so
  every kernel runs the same arithmetic on freshly allocated buffers,
  and yields the engines it built;
* :func:`engine_layouts` records the offsets/targets dtypes of every
  graph ``nu_lpa`` builds an engine on, so a differential run can prove
  its reference side really ran wide (graphs are stored compact).

Run from the repository root with ``PYTHONPATH=src:.`` to import this
module outside pytest.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.core import engine_hashtable, lpa
from repro.errors import HashtableFullError
from repro.hashing.hashtable import MAX_RETRIES
from repro.hashing.parallel_hashtable import WaveAccumulateResult
from repro.hashing.probing import ProbeStrategy
from repro.types import EMPTY_KEY

__all__ = [
    "engine_layouts",
    "literal_accumulate",
    "literal_max_key",
    "no_arena",
    "reference_reduce",
]

_INT64_MOD = 1 << 64
_INT64_BIAS = 1 << 63


def _wrap(x: int) -> int:
    """``x`` as a two's-complement int64 (the device's probe registers)."""
    return (x + _INT64_BIAS) % _INT64_MOD - _INT64_BIAS


def literal_accumulate(
    keys_buf, values_buf, base, p1, p2, entry_table, entry_key, entry_value,
    strategy=ProbeStrategy.QUADRATIC_DOUBLE, *, shared=True,
    max_retries=MAX_RETRIES, clean=False, arena=None,
) -> WaveAccumulateResult:
    """Algorithm 2's ``hashtableAccumulate`` for every entry of a wave,
    run as lockstep probe rounds, one entry at a time.

    Each round every pending entry (lane) reads its slot; among the lanes
    that read an empty slot the first in lane order wins the
    ``atomicCAS``; then, in lane order, every lane whose slot holds its
    key does its ``atomicAdd`` and retires, and the rest advance their
    probe sequence — after ``p1`` probes by the step-1 completeness
    fallback.  On shared tables each round counts its CAS attempts, its
    adds and its conflicts (adds minus distinct slots added to).  More
    than ``max_retries`` rounds (by default enough for the fallback to
    sweep the largest table) raise :class:`HashtableFullError`.
    ``clean`` and ``arena`` are accepted for call compatibility and
    ignored: every round, the first included, reads its slots.
    """
    n = len(entry_key)
    result = WaveAccumulateResult(
        entry_probes=np.zeros(n, dtype=np.int64),
        entry_slot=np.zeros(n, dtype=np.int64),
    )
    if max_retries == MAX_RETRIES:
        max_retries = max(MAX_RETRIES, 2 * int(np.max(p1, initial=1)) + 64)
    # Per lane: [entry, key, i, di, table]; i and di start as in
    # ``probing.probe_start``.
    lanes = []
    for e in range(n):
        t, k = int(entry_table[e]), int(entry_key[e])
        di = 1 + k % int(p2[t]) if strategy is ProbeStrategy.DOUBLE else 1
        lanes.append([e, k, k, di, t])
    round_no = 0
    while lanes:
        round_no += 1
        if round_no > max_retries:
            raise HashtableFullError(
                f"{len(lanes)} entries unplaced after {max_retries} probe "
                f"rounds (strategy={strategy.value})"
            )
        result.rounds = round_no
        slots = [int(base[t]) + i % int(p1[t]) for _, _, i, _, t in lanes]
        read = [int(keys_buf[s]) for s in slots]  # every lane reads first
        for lane, s, seen in zip(lanes, slots, read):
            if seen == EMPTY_KEY:
                if shared:
                    result.cas_attempts += 1
                if int(keys_buf[s]) == EMPTY_KEY:  # the first lane wins
                    keys_buf[s] = lane[1]
        added = []
        retry = []
        for lane, s in zip(lanes, slots):
            e = lane[0]
            result.entry_probes[e] = round_no
            result.entry_slot[e] = s
            if int(keys_buf[s]) == lane[1]:
                values_buf[s] += entry_value[e]
                added.append(s)
            else:
                retry.append(lane)
        if shared:
            result.atomic_adds += len(added)
            result.atomic_conflicts += len(added) - len(set(added))
        for lane in retry:
            _, k, i, di, t = lane
            if round_no >= int(p1[t]):
                lane[2] = _wrap(i + 1)
            else:
                lane[2] = _wrap(i + di)
            if strategy is ProbeStrategy.QUADRATIC:
                lane[3] = _wrap(2 * di)
            elif strategy is ProbeStrategy.QUADRATIC_DOUBLE:
                lane[3] = _wrap(2 * di + k % int(p2[t]))
        lanes = retry
    result.total_probes = int(result.entry_probes.sum())
    return result


def literal_max_key(keys_buf, values_buf, base, p1, fallback) -> np.ndarray:
    """``hashtableMaxKey`` for each table ``[base[t], base[t] + p1[t])``.

    Per table: the key of the lowest occupied slot holding the maximum
    value (compared in float64), or ``fallback[t]`` when the table is
    empty or holds a NaN — a NaN maximum equals no value, so no slot
    wins.
    """
    out = np.array(fallback, copy=True)
    for t in range(base.shape[0]):
        lo = int(base[t])
        hi = lo + int(p1[t])
        best_key = None
        best_value = 0.0
        for key, value in zip(keys_buf[lo:hi].tolist(), values_buf[lo:hi].tolist()):
            if key == EMPTY_KEY:
                continue
            if value != value:  # NaN: this table has no winner
                best_key = None
                break
            if best_key is None or value > best_value:
                best_key, best_value = key, value
        if best_key is not None:
            out[t] = best_key
    return out


def _literal_reduce_and_clear(keys_buf, values_buf, base, p1, fallback, out):
    out[:] = literal_max_key(keys_buf, values_buf, base, p1, fallback)
    for t in range(base.shape[0]):
        lo = int(base[t])
        hi = lo + int(p1[t])
        keys_buf[lo:hi] = EMPTY_KEY
        values_buf[lo:hi] = 0
    return out


@contextmanager
def reference_reduce():
    """Run the hashtable engine's sweep literally: :func:`literal_accumulate`
    for its accumulate, and :func:`literal_max_key` plus a full clear of
    the wave's tables for its reduce.

    The reduce is not handed the wave's table bounds, so they are captured
    from the accumulate call of the same wave.
    """
    wave = {}

    def accumulate(keys_buf, values_buf, base, p1, *args, **kwargs):
        wave["base"], wave["p1"] = base, p1
        return literal_accumulate(keys_buf, values_buf, base, p1, *args, **kwargs)

    # The engine always passes ``out`` and reads the winners from it; the
    # literal reduce scans every live slot, so it needs neither the
    # entries' table starts nor the table bases.
    def fused(keys_buf, values_buf, fallback, entry_table, entry_slot, *,
              table_start, table_base, arena, out):
        return _literal_reduce_and_clear(
            keys_buf, values_buf, wave["base"], wave["p1"], fallback, out
        )

    with ExitStack() as stack:
        for name, replacement in (
            ("parallel_accumulate", accumulate),
            ("fused_max_and_clear", fused),
        ):
            stack.enter_context(
                mock.patch.object(engine_hashtable, name, replacement)
            )
        yield


@contextmanager
def no_arena():
    """Build every engine with ``arena=None`` (fresh buffers per kernel).

    Patches the one construction site, :class:`~repro.core.engine_hashtable.
    WaveEngine`, and yields the list of engines ``nu_lpa`` builds inside
    the block, so a test can check each really ran without an arena.
    """
    engines = []
    make_engine = lpa.make_engine

    def recording(graph, config, engine):
        built = make_engine(graph, config, engine)
        engines.append(built)
        return built

    with mock.patch.object(engine_hashtable, "WorkspaceArena", lambda: None), \
            mock.patch.object(lpa, "make_engine", recording):
        yield engines


@contextmanager
def engine_layouts():
    """Yield a list that collects ``(offsets.dtype, targets.dtype)`` of the
    graph each ``nu_lpa`` run inside the block builds its engine on."""
    layouts = []
    make_engine = lpa.make_engine

    def recording(graph, config, engine):
        layouts.append((graph.offsets.dtype, graph.targets.dtype))
        return make_engine(graph, config, engine)

    with mock.patch.object(lpa, "make_engine", recording):
        yield layouts
