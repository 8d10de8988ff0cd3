"""Differential oracle for the vectorised accumulate.

``parallel_accumulate`` settles a wave per entry: its probe rounds only
claim slots, and the value adds and atomic counters follow from the
entries' final slots in one pass.  :func:`tests.reference_sweep.
literal_accumulate` runs Algorithm 2 as written — lockstep rounds, a CAS
and lane-order ``atomicAdd``\\ s in every round, per-round conflict
counts.  On any wave, up to full and overfull tables, both must leave
bit-identical key and value buffers and report the same counters, probe
counts and slots, or both raise :class:`HashtableFullError`.  On fresh
tables, the write-first round 1 (``clean=True``) must match the reading
round 1 bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HashtableFullError
from repro.hashing import parallel_hashtable
from repro.hashing.parallel_hashtable import parallel_accumulate
from repro.hashing.primes import secondary_prime
from repro.hashing.probing import ProbeStrategy
from repro.types import EMPTY_KEY
from tests.reference_sweep import literal_accumulate

_COUNTERS = ("total_probes", "rounds", "cas_attempts", "atomic_adds",
             "atomic_conflicts")


def _layout(capacities):
    """Tables of the given ``p1`` at the engine's spacing (2 slots per
    nominal slot), with the engine's secondary primes."""
    p1 = np.asarray(capacities, dtype=np.int64)
    base = np.zeros(p1.shape[0], dtype=np.int64)
    np.cumsum(2 * (p1 + 1)[:-1], out=base[1:])
    p2 = np.asarray(secondary_prime(p1), dtype=np.int64)
    return base, p1, p2, int((2 * (p1 + 1)).sum())


@st.composite
def waves(draw):
    """A wave of entries over 1-4 tables, each loaded up to one key past
    full, keys repeated and lanes shuffled across tables."""
    capacities = draw(st.lists(
        st.sampled_from([1, 3, 7, 15, 31, 63]), min_size=1, max_size=4
    ))
    entry_table, entry_key = [], []
    for t, cap in enumerate(capacities):
        load = draw(st.integers(0, cap + 1))
        # Keys from a narrow range collide on their home slots.
        keys = draw(st.lists(
            st.integers(0, 4 * cap + 3), min_size=load, max_size=load,
            unique=True,
        ))
        for k in keys:
            repeats = draw(st.integers(1, 3))
            entry_table += [t] * repeats
            entry_key += [k] * repeats
    order = draw(st.permutations(range(len(entry_key))))
    entry_table = np.asarray(entry_table, dtype=np.int64)[list(order)]
    entry_key = np.asarray(entry_key, dtype=np.int64)[list(order)]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    entry_value = np.asarray(
        draw(st.lists(st.floats(1 / 1024, 1024.0, width=32),
                      min_size=len(order), max_size=len(order))),
        dtype=dtype,
    )
    return capacities, entry_table, entry_key, entry_value


def _run(accumulate, capacities, entry_table, entry_key, entry_value,
         strategy, shared, **kwargs):
    base, p1, p2, size = _layout(capacities)
    keys_buf = np.full(size, EMPTY_KEY, dtype=np.int64)
    values_buf = np.zeros(size, dtype=entry_value.dtype)
    try:
        result = accumulate(
            keys_buf, values_buf, base, p1, p2, entry_table, entry_key,
            entry_value, strategy, shared=shared, **kwargs,
        )
    except HashtableFullError:
        result = None
    return keys_buf, values_buf, result


def _assert_same(case, strategy, shared, **kwargs):
    return _assert_equal_runs(
        _run(parallel_accumulate, *case, strategy, shared, **kwargs),
        _run(literal_accumulate, *case, strategy, shared, **kwargs),
    )


def _assert_equal_runs(fast_run, lit_run):
    fast_keys, fast_values, fast = fast_run
    lit_keys, lit_values, lit = lit_run
    # Both claim the same slots, also when both give up.
    assert np.array_equal(fast_keys, lit_keys)
    assert (fast is None) == (lit is None)
    if lit is None:
        return None
    bits = np.uint32 if lit_values.dtype == np.float32 else np.uint64
    assert np.array_equal(fast_values.view(bits), lit_values.view(bits))
    for name in _COUNTERS:
        assert getattr(fast, name) == getattr(lit, name), name
    assert np.array_equal(fast.entry_probes, lit.entry_probes)
    assert np.array_equal(fast.entry_slot, lit.entry_slot)
    return lit


@pytest.mark.parametrize("tail", [32, 0], ids=["scalar-tail", "vectorised"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
@pytest.mark.parametrize("strategy", list(ProbeStrategy), ids=lambda s: s.value)
@settings(max_examples=30, deadline=None)
@given(case=waves())
def test_parallel_matches_literal(strategy, shared, tail, case):
    # The smallest budget that lets the fallback sweep every table keeps
    # overfull tables cheap (the default budget is tested below).
    budget = 2 * max(case[0]) + 64
    with mock.patch.object(parallel_hashtable, "_SCALAR_TAIL_MAX", tail):
        _assert_same(case, strategy, shared, max_retries=budget)


@pytest.mark.parametrize("tail", [32, 0], ids=["scalar-tail", "vectorised"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
@pytest.mark.parametrize("strategy", list(ProbeStrategy), ids=lambda s: s.value)
@settings(max_examples=30, deadline=None)
@given(case=waves())
def test_write_first_round_matches_reading_round(strategy, shared, tail, case):
    # ``_run`` hands every call fresh tables, which is what ``clean``
    # promises.  The reading round is checked against the literal
    # statement above.
    budget = 2 * max(case[0]) + 64
    with mock.patch.object(parallel_hashtable, "_SCALAR_TAIL_MAX", tail):
        _assert_equal_runs(
            _run(parallel_accumulate, *case, strategy, shared,
                 max_retries=budget, clean=True),
            _run(parallel_accumulate, *case, strategy, shared,
                 max_retries=budget),
        )


def _full_table_case(p1, seed, *, extra=0, repeats=2):
    """One table filled to ``p1 + extra`` distinct keys, each key on
    ``repeats`` lanes, lanes shuffled."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(8 * p1, size=p1 + extra, replace=False)
    entry_key = np.repeat(keys, repeats).astype(np.int64)
    rng.shuffle(entry_key)
    entry_value = rng.random(entry_key.shape[0]).astype(np.float32)
    return [p1], np.zeros(entry_key.shape[0], dtype=np.int64), entry_key, entry_value


@pytest.mark.parametrize("strategy", list(ProbeStrategy), ids=lambda s: s.value)
def test_full_tables_reach_fallback_and_tail(strategy):
    # Full 63-slot tables: the last stragglers finish in the scalar tail
    # after vectorised rounds, and — except under linear probing, which
    # sweeps every slot within p1 probes by itself — some entry needs
    # more than p1 probes (the completeness fallback).
    tails = []
    real_tail = parallel_hashtable._scalar_tail

    def spy(*args):
        tails.append(args[7].shape[0])  # pending entries handed over
        return real_tail(*args)

    reached_fallback = False
    with mock.patch.object(parallel_hashtable, "_scalar_tail", spy):
        for seed in range(8):
            case = _full_table_case(63, seed)
            lit = _assert_same(case, strategy, shared=True)
            reached_fallback |= bool((lit.entry_probes > 63).any())
    assert reached_fallback is (strategy is not ProbeStrategy.LINEAR)
    assert tails and all(0 < n <= 32 for n in tails)


@pytest.mark.parametrize("strategy", list(ProbeStrategy), ids=lambda s: s.value)
@pytest.mark.parametrize("tail", [32, 0], ids=["scalar-tail", "vectorised"])
def test_overfull_table_raises_in_both(strategy, tail):
    # 32 distinct keys for 31 slots: both give up after the same rounds.
    with mock.patch.object(parallel_hashtable, "_SCALAR_TAIL_MAX", tail):
        assert _assert_same(_full_table_case(31, 5, extra=1), strategy,
                            shared=True) is None
