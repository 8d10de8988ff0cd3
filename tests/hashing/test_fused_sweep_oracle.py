"""Kernel-level oracle for the fused reduce + clear.

``fused_max_and_clear`` visits only the slots the wave's entries landed
in (``WaveAccumulateResult.entry_slot``); ``segmented_max_key`` +
``segmented_clear`` scan every live slot of every table.  Over any filled
tables — sparse, dense, empty, holding non-finite values, with each
table's entries in lane order rather than slot order and several entries
per slot — both must return the same winners and leave the same
(all-empty) tables, and both must agree with the literal per-table loop
in :mod:`tests.reference_sweep`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.parallel_hashtable import (
    fused_max_and_clear,
    segmented_clear,
    segmented_max_key,
)
from repro.perf.workspace import WorkspaceArena
from repro.types import EMPTY_KEY
from tests.reference_sweep import literal_max_key

_VALUES = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, width=32),
    st.sampled_from([0.0, 1.0, 1.0, 2.5, np.inf, -np.inf, np.nan]),
)


@st.composite
def filled_tables(draw):
    """Tables laid out back to back (plus a guard slot after each), a
    random occupied subset of each, and the wave's entries: table by
    table, one or more per occupied slot, in a random lane order."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    capacities = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    p1 = np.asarray(capacities, dtype=np.int64)
    base = np.zeros(p1.shape[0], dtype=np.int64)
    np.cumsum(p1[:-1] + 1, out=base[1:])
    size = int((p1 + 1).sum())
    keys = np.full(size, EMPTY_KEY, dtype=np.int64)
    values = np.zeros(size, dtype=dtype)
    entry_table, entry_slot = [], []
    for t, cap in enumerate(capacities):
        density = draw(st.sampled_from(["empty", "sparse", "dense"]))
        if density == "empty":
            continue
        if density == "dense":
            offsets = list(range(cap))
        else:
            offsets = draw(st.lists(
                st.integers(0, cap - 1), min_size=1, max_size=cap, unique=True
            ))
        lanes = []
        for off in offsets:
            slot = int(base[t]) + off
            keys[slot] = draw(st.integers(0, 50))
            values[slot] = draw(_VALUES)
            lanes += [slot] * draw(st.integers(1, 3))
        entry_slot += draw(st.permutations(lanes))
        entry_table += [t] * len(lanes)
    fallback = np.asarray(
        draw(st.lists(st.integers(100, 200), min_size=len(capacities),
                      max_size=len(capacities))),
        dtype=np.int64,
    )
    return (
        keys, values, base, p1,
        np.asarray(entry_table, dtype=np.int64),
        np.asarray(entry_slot, dtype=np.int64),
        fallback,
    )


@pytest.mark.parametrize("arena", [None, WorkspaceArena()], ids=["fresh", "arena"])
@settings(max_examples=150, deadline=None)
@given(case=filled_tables())
def test_fused_matches_segmented_max_then_clear(arena, case):
    keys, values, base, p1, entry_table, entry_slot, fallback = case
    literal = literal_max_key(keys, values, base, p1, fallback)
    ref_keys, ref_values = keys.copy(), values.copy()
    expected = segmented_max_key(ref_keys, ref_values, base, p1, fallback)
    segmented_clear(ref_keys, ref_values, base, p1)

    got = fused_max_and_clear(
        keys, values, fallback, entry_table, entry_slot, arena=arena
    )

    assert got.tolist() == expected.tolist() == literal.tolist()
    assert np.array_equal(keys, ref_keys)
    assert np.array_equal(values, ref_values)


def test_nan_table_keeps_fallback():
    # A NaN maximum equals no value, so the table has no winner.
    keys = np.array([5, 6, EMPTY_KEY, EMPTY_KEY], dtype=np.int64)
    values = np.array([np.nan, np.nan, 0.0, 0.0], dtype=np.float32)
    base = np.array([0], dtype=np.int64)
    p1 = np.array([4], dtype=np.int64)
    fallback = np.array([99], dtype=np.int64)
    expected = segmented_max_key(keys.copy(), values.copy(), base, p1, fallback)
    got = fused_max_and_clear(
        keys, values, fallback, np.zeros(2, np.int64), np.array([1, 0])
    )
    assert expected.tolist() == [99]
    assert got.tolist() == [99]


def test_nan_table_beside_finite_tables():
    # Only the NaN table falls back; its neighbours still pick winners.
    keys = np.array([3, 4, 7, 8, 9], dtype=np.int64)
    values = np.array([1.0, 2.0, np.nan, 5.0, 2.0], dtype=np.float64)
    fallback = np.array([90, 91, 92], dtype=np.int64)
    got = fused_max_and_clear(
        keys, values, fallback,
        np.array([0, 0, 0, 1, 1, 2]), np.array([1, 0, 1, 3, 2, 4]),
    )
    assert got.tolist() == [4, 91, 9]


def test_tie_goes_to_lowest_slot_not_first_lane():
    # Lane order puts slot 5 first; the strict-LPA tie-break still picks
    # the lowest slot holding the maximum.
    keys = np.array([EMPTY_KEY, EMPTY_KEY, 50, EMPTY_KEY, EMPTY_KEY, 60],
                    dtype=np.int64)
    values = np.array([0, 0, 3.0, 0, 0, 3.0], dtype=np.float32)
    got = fused_max_and_clear(
        keys, values, np.array([-1]), np.zeros(3, np.int64), np.array([5, 2, 5])
    )
    assert got.tolist() == [50]
    assert np.all(keys == EMPTY_KEY) and not values.any()


def test_table_without_entries_keeps_fallback():
    # A vertex whose every edge is a self-loop has a table but no entries.
    keys = np.array([EMPTY_KEY, 7, EMPTY_KEY], dtype=np.int64)
    values = np.array([0.0, 1.5, 0.0], dtype=np.float32)
    got = fused_max_and_clear(
        keys, values, np.array([10, 11, 12]), np.array([1]), np.array([1])
    )
    assert got.tolist() == [10, 7, 12]
