"""Property-based tests on LPA and metric invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LPAConfig, nu_lpa
from repro.core.engine_vectorized import (
    _winners_encoded,
    _winners_scan,
    best_labels_groupby,
)
from repro.graph.build import from_edges
from repro.metrics import modularity, normalized_mutual_information
from repro.metrics.community_stats import compact_labels


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 25))
    m = draw(st.integers(1, 60))
    src = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    dst = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    return from_edges(src, dst, num_vertices=n)


@st.composite
def groupby_inputs(draw):
    n_tables = draw(st.integers(1, 5))
    n = draw(st.integers(0, 40))
    table_id = np.sort(
        np.asarray(draw(st.lists(st.integers(0, n_tables - 1), min_size=n, max_size=n)),
                   dtype=np.int64)
    )
    keys = np.asarray(
        draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), dtype=np.int64
    )
    values = np.asarray(
        draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)), dtype=np.float64
    )
    fallback = np.arange(n_tables, dtype=np.int64) + 100
    return table_id, keys, values, n_tables, fallback


class TestGroupbyProperties:
    @given(groupby_inputs())
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, data):
        table_id, keys, values, n_tables, fallback = data
        got = best_labels_groupby(table_id, keys, values, fallback)
        for t in range(n_tables):
            sums: dict[int, float] = {}
            for i in range(keys.shape[0]):
                if table_id[i] == t:
                    sums[int(keys[i])] = sums.get(int(keys[i]), 0.0) + values[i]
            if not sums:
                assert got[t] == fallback[t]
            else:
                # The brute force sums each group in input order — the same
                # order ``np.add.reduceat`` uses — so group sums match the
                # implementation bit for bit and ties are *exact* float
                # ties: no epsilon, which would mislabel near-ties (two
                # drawn floats within 1e-12) as ties and flake.
                best = max(sums.values())
                winners = {k for k, v in sums.items() if v == best}
                assert int(got[t]) == min(winners)  # smallest-label tie-break

    @given(groupby_inputs())
    @settings(max_examples=40, deadline=None)
    def test_hash_tie_break_still_maximal(self, data):
        table_id, keys, values, n_tables, fallback = data
        got = best_labels_groupby(
            table_id, keys, values, fallback, tie_break="hash"
        )
        for t in range(n_tables):
            sums: dict[int, float] = {}
            for i in range(keys.shape[0]):
                if table_id[i] == t:
                    sums[int(keys[i])] = sums.get(int(keys[i]), 0.0) + values[i]
            if sums:
                assert sums[int(got[t])] == pytest.approx(max(sums.values()))


#: Weights that stress the float32 encoded tail: signed zeros, infinities,
#: negatives and repeated values (exact ties).
_EDGE_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.inf, -np.inf]),
    st.floats(width=32, allow_nan=False),
)


@st.composite
def f32_groupby_inputs(draw):
    n_tables = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    table_id = np.sort(np.asarray(
        draw(st.lists(st.integers(0, n_tables - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    ))
    keys = np.asarray(draw(st.lists(
        st.one_of(st.integers(0, 6), st.integers(0, 2**31 - 1)),
        min_size=n, max_size=n,
    )), dtype=np.int64)
    values = np.asarray(
        draw(st.lists(_EDGE_WEIGHTS, min_size=n, max_size=n)), dtype=np.float32
    )
    if draw(st.booleans()) and draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = np.nan
    fallback = np.arange(n_tables, dtype=np.int64) + 100
    return table_id, keys, values, fallback


class TestWinnerTails:
    """The float32 encoded max against the scan tail it replaces."""

    @staticmethod
    def _groups(table_id, keys, values):
        """Group sums in the implementation's order: stable (table, key)."""
        perm = np.lexsort((keys, table_id))
        t, k, v = table_id[perm], keys[perm], values[perm]
        first = np.ones(t.shape[0], dtype=bool)
        first[1:] = (t[1:] != t[:-1]) | (k[1:] != k[:-1])
        starts = np.flatnonzero(first)
        return np.add.reduceat(v, starts), t[starts], k[starts]

    @given(f32_groupby_inputs())
    @settings(max_examples=150, deadline=None)
    def test_groupby_matches_scan_tail(self, data):
        table_id, keys, values, fallback = data
        # inf + -inf and float32 overflow are part of the input space here.
        with np.errstate(invalid="ignore", over="ignore"):
            got = best_labels_groupby(
                table_id, keys, values, fallback, accum_dtype=np.float32
            )
            sums, group_table, group_key = self._groups(table_id, keys, values)
        want = fallback.copy()
        _winners_scan(sums, group_table, group_key, want, None)
        assert np.array_equal(got, want)

    @given(f32_groupby_inputs())
    @settings(max_examples=150, deadline=None)
    def test_encoded_tail_equals_scan_tail(self, data):
        table_id, keys, values, fallback = data
        with np.errstate(invalid="ignore", over="ignore"):
            sums, group_table, group_key = self._groups(table_id, keys, values)
        sums[np.isnan(sums)] = -0.0  # NaN sums never reach the encoded tail
        want = fallback.copy()
        _winners_scan(sums, group_table, group_key, want, None)
        got = fallback.copy()
        _winners_encoded(sums.copy(), group_table, group_key, got, None)
        assert np.array_equal(got, want)


class TestLpaInvariants:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_labels_always_valid(self, g):
        r = nu_lpa(g, LPAConfig(max_iterations=5))
        assert r.labels.shape[0] == g.num_vertices
        assert np.all((r.labels >= 0) & (r.labels < g.num_vertices))

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_engines_produce_valid_partitions(self, g):
        for engine in ("vectorized", "hashtable"):
            r = nu_lpa(g, LPAConfig(max_iterations=4), engine=engine)
            assert np.unique(r.labels).shape[0] >= 1

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_modularity_bounds(self, g):
        r = nu_lpa(g, LPAConfig(max_iterations=5))
        q = modularity(g, r.labels)
        assert -0.5 - 1e-9 <= q <= 1.0 + 1e-9


class TestMetricInvariants:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_nmi_self_is_one(self, labels):
        arr = np.asarray(labels)
        assert normalized_mutual_information(arr, arr) == pytest.approx(1.0)

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=60),
        st.integers(1, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_nmi_invariant_under_relabeling(self, labels, offset):
        a = np.asarray(labels)
        b = (a + offset) * 13  # injective relabel
        other = np.roll(a, 1)
        assert normalized_mutual_information(a, other) == pytest.approx(
            normalized_mutual_information(b, other), abs=1e-9
        )

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_compact_labels_preserves_partition(self, labels):
        arr = np.asarray(labels)
        out = compact_labels(arr)
        assert out.max() + 1 == np.unique(arr).shape[0]
        # Same-group relation preserved.
        for i in range(0, arr.shape[0], 7):
            same = arr == arr[i]
            assert np.all((out == out[i]) == same)
