"""Golden regression tests: frozen outputs for fixed seeds.

Every quantity here is integer-derived (label CRCs, counter totals,
iteration counts) or a float with generous tolerance, so the goldens are
stable across platforms.  If an intentional algorithm change shifts them,
re-derive with the snippet in each test and update the constant — that is
the point: unintentional behaviour drift fails loudly.
"""

import zlib

import numpy as np
import pytest

from repro import LPAConfig, nu_lpa
from repro.graph.build import from_edges
from repro.graph.generators import road_network, web_graph
from repro.metrics import modularity


def _crc(labels: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(labels.astype(np.int64)).tobytes())


@pytest.fixture(scope="module")
def golden_web():
    return web_graph(2000, avg_degree=8, seed=123)


@pytest.fixture(scope="module")
def golden_loopy(golden_web):
    """``golden_web`` plus a weight-2 self-loop on every 7th vertex and on
    the hub (block kernel), and one extra vertex whose only arc is a
    self-loop — the engines' self-loop filter on every kernel."""
    n = golden_web.num_vertices
    src = np.repeat(np.arange(n), np.diff(golden_web.offsets))
    dst = golden_web.targets.astype(np.int64)
    hub = int(np.argmax(golden_web.degrees))
    loops = np.union1d(np.arange(0, n, 7), [hub, n])
    return from_edges(
        np.concatenate([src, loops]),
        np.concatenate([dst, loops]),
        np.concatenate([golden_web.weights, np.full(loops.shape[0], 2.0)]),
        num_vertices=n + 1,
    )


def _nonzero_totals(result) -> dict:
    return {k: v for k, v in result.total_counters.as_dict().items() if v}


class TestGoldenLabels:
    def test_web_hashtable_labels(self, golden_web):
        r = nu_lpa(golden_web, engine="hashtable")
        assert _crc(r.labels) == 2530107329
        assert r.num_iterations == 6

    def test_web_vectorized_labels(self, golden_web):
        r = nu_lpa(golden_web, engine="vectorized")
        assert _crc(r.labels) == 983060449

    def test_road_hashtable_labels(self):
        g = road_network(12, 12, seed=123)
        r = nu_lpa(g, engine="hashtable")
        assert _crc(r.labels) == 1809539972
        assert r.num_iterations == 10

    def test_self_loop_hashtable_labels(self, golden_loopy):
        r = nu_lpa(golden_loopy, engine="hashtable")
        assert _crc(r.labels) == 4174886430
        assert r.num_iterations == 6
        assert r.labels[-1] == golden_loopy.num_vertices - 1

    def test_self_loop_vectorized_labels(self, golden_loopy):
        r = nu_lpa(golden_loopy, engine="vectorized")
        assert _crc(r.labels) == 1090880413
        assert r.num_iterations == 6
        assert r.labels[-1] == golden_loopy.num_vertices - 1


class TestGoldenQuality:
    def test_web_modularity(self, golden_web):
        r = nu_lpa(golden_web, engine="hashtable")
        assert modularity(golden_web, r.labels) == pytest.approx(0.74147, abs=1e-4)

    def test_road_modularity(self):
        g = road_network(12, 12, seed=123)
        r = nu_lpa(g, engine="hashtable")
        assert modularity(g, r.labels) == pytest.approx(0.85808, abs=1e-4)


class TestGoldenCounters:
    def test_web_counter_totals(self, golden_web):
        c = nu_lpa(golden_web, engine="hashtable").total_counters
        assert c.edges_scanned == 92912
        assert c.probes == 122315
        assert c.atomic_add == 19642
        assert c.waves == 12

    def test_web_vectorized_counter_totals(self, golden_web):
        r = nu_lpa(golden_web, engine="vectorized")
        assert _nonzero_totals(r) == {
            "launches": 12, "waves": 12, "sectors_read": 177074,
            "sectors_written": 45004, "edges_scanned": 88537,
            "vertices_processed": 7857,
        }

    def test_self_loop_hashtable_counter_totals(self, golden_loopy):
        r = nu_lpa(golden_loopy, engine="hashtable")
        assert _nonzero_totals(r) == {
            "launches": 12, "waves": 12, "sectors_read": 519080,
            "sectors_written": 175352, "edges_scanned": 97296,
            "vertices_processed": 8673, "probes": 126255,
            "warp_serial_probes": 17442, "atomic_cas": 22292,
            "atomic_add": 20671, "atomic_conflicts": 14693,
            "slots_cleared": 139905,
        }

    def test_self_loop_vectorized_counter_totals(self, golden_loopy):
        r = nu_lpa(golden_loopy, engine="vectorized")
        assert _nonzero_totals(r) == {
            "launches": 12, "waves": 12, "sectors_read": 177490,
            "sectors_written": 45611, "edges_scanned": 88745,
            "vertices_processed": 7890,
        }

    def test_graph_generation_is_frozen(self, golden_web):
        # The generators themselves are part of the reproducibility story.
        assert golden_web.num_edges == 22080
        assert _crc(golden_web.targets) == 925477088

    def test_self_loop_graph_is_frozen(self, golden_loopy):
        assert golden_loopy.num_edges == 22368
        assert _crc(golden_loopy.targets) == 4124974900
