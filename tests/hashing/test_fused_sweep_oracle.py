"""Kernel-level oracle for the fused reduce + clear.

``fused_max_and_clear`` visits only the slots the accumulate claimed (the
slot tracker); ``segmented_max_key`` + ``segmented_clear`` scan every live
slot of every table.  Over any claimed tables — sparse, dense, empty,
holding non-finite values, with the tracker in claim order and carrying
within-round duplicates — both must return the same winners and leave
the same (all-empty) tables, and both must agree with the literal
per-table loop in :mod:`tests.reference_sweep`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.parallel_hashtable import (
    SlotTracker,
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
def claimed_tables(draw):
    """Tables laid out back to back (plus a guard slot after each), a
    random occupied subset of each, and the tracker's claim record."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    capacities = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    p1 = np.asarray(capacities, dtype=np.int64)
    base = np.zeros(p1.shape[0], dtype=np.int64)
    np.cumsum(p1[:-1] + 1, out=base[1:])
    size = int((p1 + 1).sum())
    keys = np.full(size, EMPTY_KEY, dtype=np.int64)
    values = np.zeros(size, dtype=dtype)
    claims = []
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
        for off in offsets:
            slot = int(base[t]) + off
            keys[slot] = draw(st.integers(0, 50))
            values[slot] = draw(_VALUES)
            claims.append((slot, t))
    # Claim order is lane/round order, not slot order; racing lanes may
    # record one slot twice within a round.
    claims = draw(st.permutations(claims))
    if claims:
        dupes = draw(st.lists(st.sampled_from(claims), max_size=3))
        claims = list(claims) + dupes
    fallback = np.asarray(
        draw(st.lists(st.integers(100, 200), min_size=len(capacities),
                      max_size=len(capacities))),
        dtype=np.int64,
    )
    return keys, values, base, p1, claims, fallback


def _tracker(claims) -> SlotTracker:
    tracker = SlotTracker()
    if claims:
        slots, tables = zip(*claims)
        tracker.append(np.asarray(slots, np.int64), np.asarray(tables, np.int64))
    return tracker


@pytest.mark.parametrize("arena", [None, WorkspaceArena()], ids=["fresh", "arena"])
@settings(max_examples=150, deadline=None)
@given(case=claimed_tables())
def test_fused_matches_segmented_max_then_clear(arena, case):
    keys, values, base, p1, claims, fallback = case
    literal = literal_max_key(keys, values, base, p1, fallback)
    ref_keys, ref_values = keys.copy(), values.copy()
    expected = segmented_max_key(ref_keys, ref_values, base, p1, fallback)
    segmented_clear(ref_keys, ref_values, base, p1)

    tracker = _tracker(claims)
    got = fused_max_and_clear(keys, values, fallback, tracker, arena=arena)

    assert got.tolist() == expected.tolist() == literal.tolist()
    assert np.array_equal(keys, ref_keys)
    assert np.array_equal(values, ref_values)
    assert len(tracker) == 0


def test_nan_table_keeps_fallback():
    # A NaN maximum equals no value, so the table has no winner.  The
    # fused reduce used to read that as slot INT64_MAX, clipped to the
    # buffer's last key.
    keys = np.array([5, 6, EMPTY_KEY, EMPTY_KEY], dtype=np.int64)
    values = np.array([np.nan, np.nan, 0.0, 0.0], dtype=np.float32)
    base = np.array([0], dtype=np.int64)
    p1 = np.array([4], dtype=np.int64)
    fallback = np.array([99], dtype=np.int64)
    expected = segmented_max_key(keys.copy(), values.copy(), base, p1, fallback)
    tracker = _tracker([(0, 0), (1, 0)])
    got = fused_max_and_clear(keys, values, fallback, tracker)
    assert expected.tolist() == [99]
    assert got.tolist() == [99]


def test_nan_table_beside_finite_tables():
    # Only the NaN table falls back; its neighbours still pick winners.
    keys = np.array([3, 4, 7, 8], dtype=np.int64)
    values = np.array([1.0, 2.0, np.nan, 5.0], dtype=np.float64)
    fallback = np.array([90, 91], dtype=np.int64)
    got = fused_max_and_clear(
        keys, values, fallback, _tracker([(2, 1), (0, 0), (3, 1), (1, 0)])
    )
    assert got.tolist() == [4, 91]
