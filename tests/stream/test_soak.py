"""Kill/restart chaos soak over streaming subscriptions (scaled down).

The full 20-seed soak runs in CI via ``benchmarks/bench_soak.py``;
this keeps a small always-on slice in the tier-1 suite so a recovery
regression fails fast.
"""

from repro.stream.soak import GAP_BOUND, run_stream_soak


def test_stream_soak_small(tmp_path):
    outcome = run_stream_soak(tmp_path, num_seeds=3)
    assert outcome.ok, [s for s in outcome.records if not s.ok]
    assert len(outcome.records) == 3
    for seed in outcome.records:
        # Every schedule must actually kill something, in both roles.
        assert seed.producer_deaths >= 1
        assert seed.service_deaths >= 1
        assert seed.labels_identical and seed.graph_identical
        assert seed.modularity_gap <= GAP_BOUND
    # At least one torn tail across the run: the mid-append death mode
    # must exercise the WAL's truncate-on-open path.
    assert sum(s.torn_tails for s in outcome.records) >= 1


class TestStreamSoakSchema:
    def _doc(self):
        from repro.observe.schema import (
            STREAM_SOAK_SCHEMA,
            STREAM_SOAK_SCHEMA_VERSION,
        )

        return {
            "schema": STREAM_SOAK_SCHEMA,
            "version": STREAM_SOAK_SCHEMA_VERSION,
            "dataset": "com-Orkut",
            "scale": 0.03,
            "batches_per_seed": 6,
            "batch_size": 5,
            "hops": 1,
            "rates": {
                "deltas_per_second": 100.0,
                "epochs_per_second": 10.0,
                "frontier_fraction_mean": 0.4,
                "speedup_vs_scratch": 1.5,
            },
            "num_seeds": 1,
            "ok": True,
            "silent": 0,
            "summary": "1 schedule(s): 7 death(s), 1 torn tail(s), 0 silent, 0 wrong",
            "records": [{
                "seed": 0, "batches": 6, "epochs": 6,
                "producer_deaths": 3, "torn_tails": 1,
                "service_deaths": 4, "restarts": 4,
                "labels_identical": True, "graph_identical": True,
                "modularity_gap": 0.0, "ok": True, "silent": 0,
            }],
        }

    def test_valid_document_passes(self):
        from repro.observe.schema import validate_stream_soak

        doc = self._doc()
        assert validate_stream_soak(doc) is doc

    def test_seed_count_mismatch_rejected(self):
        import pytest

        from repro.errors import SchemaValidationError
        from repro.observe.schema import validate_stream_soak

        doc = self._doc()
        doc["num_seeds"] = 2
        with pytest.raises(SchemaValidationError, match="seeds"):
            validate_stream_soak(doc)

    def test_bad_frontier_fraction_rejected(self):
        import pytest

        from repro.errors import SchemaValidationError
        from repro.observe.schema import validate_stream_soak

        doc = self._doc()
        doc["rates"]["frontier_fraction_mean"] = 1.5
        with pytest.raises(SchemaValidationError, match="fraction"):
            validate_stream_soak(doc)
