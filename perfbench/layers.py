"""The traced run's layer map: what is wrapped, and what each metric means.

``WRAPS`` names each public function at the module attribute its caller
binds (``from x import f`` copies ``f`` into the caller's namespace, so
the wrapper must replace that copy).  One function wrapped at two
attributes can carry two span names: ``nu_lpa`` is ``lpa.driver`` when the
service or the benchmark calls it and ``incremental.lpa`` when
``nu_lpa_incremental`` does.

``PER_LAYER`` lists every per-layer metric with its unit, how it is
derived from the spans, and the end-to-end metric it should move.
Every ``op_self`` metric is the self time of its spans (their duration
minus their wrapped children) per op, so these metrics plus
``trace.unattributed_s`` add up to ``trace.op_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: (module, attribute or Class.method, span name).
WRAPS: tuple[tuple[str, str, str], ...] = (
    # Detection driver and engines.
    ("repro.core.lpa", "nu_lpa", "lpa.driver"),
    ("repro.service.service", "nu_lpa", "lpa.driver"),
    ("repro.stream.processor", "nu_lpa", "lpa.driver"),
    ("repro.core.lpa", "cross_check_revert", "core.swap"),
    ("repro.core.engine_hashtable", "pick_less_filter", "core.swap"),
    ("repro.core.engine_vectorized", "pick_less_filter", "core.swap"),
    ("repro.core.engine_hashtable", "gather_edges", "core.gather"),
    ("repro.core.engine_vectorized", "gather_edges", "core.gather"),
    ("repro.core.pruning", "gather_edges", "core.gather"),
    ("repro.core.engine_hashtable", "partition_by_degree", "core.partition"),
    ("repro.core.engine_vectorized", "partition_by_degree", "core.partition"),
    ("repro.core.pruning", "Frontier.active_vertices", "core.frontier"),
    ("repro.core.pruning", "Frontier.mark_processed", "core.frontier"),
    ("repro.core.pruning", "Frontier.mark_neighbors_unprocessed", "core.frontier"),
    ("repro.core.engine_hashtable", "plan_waves", "gpu.plan_waves"),
    ("repro.core.engine_vectorized", "plan_waves", "gpu.plan_waves"),
    ("repro.gpu.memory", "MemoryModel.sectors_for_contiguous", "gpu.sectors"),
    ("repro.gpu.memory", "MemoryModel.sectors_for_scattered", "gpu.sectors"),
    ("repro.gpu.memory", "MemoryModel.sectors_for_segments", "gpu.sectors"),
    ("repro.gpu.memory", "MemoryModel.sectors_for_addresses", "gpu.sectors"),
    ("repro.core.engine_hashtable", "HashtableEngine.move", "engine_hashtable.move"),
    ("repro.core.engine_hashtable", "parallel_accumulate", "hashing.accumulate"),
    ("repro.core.engine_hashtable", "segmented_clear", "hashing.reduce"),
    ("repro.core.engine_hashtable", "segmented_max_key", "hashing.reduce"),
    ("repro.core.engine_hashtable", "fused_max_and_clear", "hashing.reduce"),
    ("repro.core.engine_vectorized", "VectorizedEngine.move", "engine_vectorized.move"),
    ("repro.core.engine_vectorized", "best_labels_groupby", "engine_vectorized.groupby"),
    ("repro.resilience.supervisor", "KernelSupervisor.move", "resilience.supervise"),
    # Durability and the job service.
    ("repro.resilience.checkpoint", "CheckpointManager.save", "checkpoint.save"),
    ("repro.service.journal", "ServiceJournal.record", "journal.record"),
    ("repro.service.service", "DetectionService.submit", "service.submit"),
    ("repro.service.service", "DetectionService.step", "service.step"),
    ("repro.service.service", "DetectionService.advance_subscription", "service.advance"),
    # Streaming.
    ("repro.stream.log", "DeltaLog.__init__", "stream.log_open"),
    ("repro.stream.log", "DeltaLog.append", "stream.append"),
    ("repro.stream.log", "DeltaLog.read", "stream.log_read"),
    ("repro.stream.processor", "StreamProcessor.recover", "stream.recover"),
    ("repro.stream.processor", "apply_batch", "stream.apply"),
    ("repro.stream.epoch", "add_edges", "graph.transform"),
    ("repro.stream.epoch", "remove_edges", "graph.transform"),
    ("repro.stream.epoch", "update_weights", "graph.transform"),
    ("repro.stream.epoch", "EpochJournal.save", "stream.journal_save"),
    ("repro.stream.processor", "affected_vertices", "incremental.affected"),
    ("repro.core.incremental", "affected_vertices", "incremental.affected"),
    ("repro.core.incremental", "nu_lpa", "incremental.lpa"),
    # Read path.
    ("repro.service.read", "SnapshotCatalog.publish", "read.publish"),
    ("repro.service.read", "QueryEngine.refresh", "read.refresh"),
    ("repro.service.read", "QueryEngine.membership", "read.membership"),
    ("repro.service.read", "QueryEngine.roster", "read.roster"),
    ("repro.service.read", "QueryEngine.diff", "read.diff"),
    # Input preparation (set-up only).
    ("repro.graph.datasets", "generate_standin", "graph.generate"),
)

#: Span name of the ``os.fsync`` wrapper (it also counts ``io.*``).
FSYNC_SPAN = "io.fsync"

# End-to-end shorthands for the ``moves`` column.
_DH = "detect-hashtable"
_SJ = "serve-jobs"
_SQ = "stream-query"


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric of the traced run.

    ``kind`` says how it is derived:

    * ``op_self`` — self seconds of span ``source`` per op;
    * ``setup_self`` — self seconds of span ``source`` per set-up;
    * ``read_call`` — mean self time of one ``source`` call in read
      batches, scaled to ``unit``;
    * ``op_calls`` — calls of span ``source`` per op;
    * ``derived`` — computed by :func:`perfbench.trace.layer_metrics`
      from captured values (counters, ratios, queue waits).
    """

    name: str
    unit: str
    kind: str
    source: str
    moves: str


PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("lpa.driver_self_s", "s", "op_self", "lpa.driver", f"op_p50_ms on {_DH}"),
    LayerMetric("lpa.iterations", "count", "derived", "", f"op_p50_ms on {_DH}"),
    LayerMetric("core.frontier_s", "s", "op_self", "core.frontier", f"op_p50_ms on {_DH}"),
    LayerMetric("core.partition_s", "s", "op_self", "core.partition", f"op_p50_ms on {_DH}"),
    LayerMetric("core.swap_s", "s", "op_self", "core.swap", f"op_p50_ms on {_DH}"),
    LayerMetric("gpu.plan_waves_s", "s", "op_self", "gpu.plan_waves", f"op_p50_ms on {_DH}"),
    LayerMetric("gpu.sectors_s", "s", "op_self", "gpu.sectors", f"op_p50_ms on {_DH}"),
    LayerMetric("engine_hashtable.move_self_s", "s", "op_self", "engine_hashtable.move", f"op_p50_ms on {_DH}"),
    LayerMetric("engine_hashtable.waves", "count", "derived", "", f"op_p50_ms on {_DH}"),
    LayerMetric("hashing.accumulate_s", "s", "op_self", "hashing.accumulate", f"edges_per_s, op_p90_ms on {_DH}; none elsewhere"),
    LayerMetric("hashing.reduce_s", "s", "op_self", "hashing.reduce", f"edges_per_s, op_p90_ms on {_DH}; none elsewhere"),
    LayerMetric("core.gather_s", "s", "op_self", "core.gather", f"edges_per_s, op_p90_ms on {_DH}"),
    LayerMetric("hashing.probes_per_edge", "ratio", "derived", "", f"modeled_edges_per_s on {_DH}"),
    LayerMetric("hashing.cas_conflict_ratio", "ratio", "derived", "", f"modeled_edges_per_s on {_DH}"),
    LayerMetric("gpu.sectors_per_edge", "ratio", "derived", "", f"modeled_edges_per_s on {_DH}"),
    LayerMetric("core.active_fraction", "ratio", "derived", "", f"modeled_edges_per_s on {_DH}"),
    LayerMetric("engine_vectorized.move_s", "s", "op_self", "engine_vectorized.move", f"op_p50_ms, edges_per_s on {_SJ}"),
    LayerMetric("engine_vectorized.groupby_s", "s", "op_self", "engine_vectorized.groupby", f"op_p50_ms, edges_per_s on {_SJ}"),
    LayerMetric("resilience.supervise_s", "s", "op_self", "resilience.supervise", f"op_p50_ms on {_SJ}"),
    LayerMetric("checkpoint.save_s", "s", "op_self", "checkpoint.save", f"op_p50_ms, op_p90_ms on {_SJ}"),
    LayerMetric("checkpoint.saves", "count", "op_calls", "checkpoint.save", f"op_p50_ms, op_p90_ms on {_SJ}"),
    LayerMetric("journal.record_s", "s", "op_self", "journal.record", f"op_p50_ms, op_p90_ms on {_SJ}"),
    LayerMetric("service.queue_wait_ms", "ms", "derived", "", f"op_p50_ms, op_p90_ms on {_SJ}"),
    LayerMetric("service.submit_s", "s", "op_self", "service.submit", f"op_p50_ms on {_SJ}"),
    LayerMetric("service.step_self_s", "s", "op_self", "service.step", f"op_p50_ms, op_p90_ms on {_SJ}"),
    LayerMetric("service.advance_s", "s", "op_self", "service.advance", f"op_p50_ms on {_SQ}"),
    LayerMetric("service.attempts_per_job", "count", "derived", "", f"op_p50_ms, op_p90_ms on {_SJ}"),
    LayerMetric("stream.append_s", "s", "op_self", "stream.append", f"op_p50_ms, deltas_per_s on {_SQ}"),
    LayerMetric("stream.log_open_s", "s", "op_self", "stream.log_open", f"op_p50_ms on {_SQ}"),
    LayerMetric("stream.log_read_s", "s", "op_self", "stream.log_read", f"op_p50_ms on {_SQ}"),
    LayerMetric("stream.recover_s", "s", "op_self", "stream.recover", f"op_p50_ms, op_p90_ms on {_SQ}"),
    LayerMetric("stream.apply_s", "s", "op_self", "stream.apply", f"op_p50_ms, op_p90_ms, deltas_per_s on {_SQ}"),
    LayerMetric("stream.applies_per_epoch", "count", "op_calls", "stream.apply", f"op_p50_ms, op_p90_ms, deltas_per_s on {_SQ}"),
    LayerMetric("graph.transform_s", "s", "op_self", "graph.transform", f"op_p50_ms, op_p90_ms, deltas_per_s on {_SQ}"),
    LayerMetric("graph.csr_rebuilds_per_batch", "count", "derived", "", f"op_p50_ms, deltas_per_s on {_SQ}"),
    LayerMetric("stream.journal_save_s", "s", "op_self", "stream.journal_save", f"op_p50_ms on {_SQ}"),
    LayerMetric("incremental.affected_s", "s", "op_self", "incremental.affected", f"op_p50_ms on {_SQ}"),
    LayerMetric("incremental.lpa_s", "s", "op_self", "incremental.lpa", f"op_p50_ms on {_SQ}"),
    LayerMetric("incremental.frontier_fraction", "ratio", "derived", "", f"op_p50_ms, deltas_per_s on {_SQ}"),
    LayerMetric("read.publish_s", "s", "op_self", "read.publish", f"op_p50_ms on {_SJ} and {_SQ} (write side)"),
    LayerMetric("read.refresh_s", "s", "read_call", "read.refresh", f"read_p50_ms, read_p90_ms on {_SQ}"),
    LayerMetric("read.membership_us", "us", "read_call", "read.membership", f"read_p50_ms, read_p90_ms on {_SQ}"),
    LayerMetric("read.roster_us", "us", "read_call", "read.roster", f"read_p50_ms, read_p90_ms on {_SQ}"),
    LayerMetric("read.diff_ms", "ms", "read_call", "read.diff", f"read_p50_ms, read_p90_ms on {_SQ}"),
    LayerMetric("io.fsync_s", "s", "op_self", FSYNC_SPAN, f"op_p50_ms on {_SJ} and {_SQ}"),
    LayerMetric("io.fsyncs", "count", "op_calls", FSYNC_SPAN, f"op_p50_ms on {_SJ} and {_SQ}"),
    LayerMetric("io.bytes_written", "bytes", "derived", "", f"op_p50_ms on {_SJ} and {_SQ}"),
    LayerMetric("graph.generate_s", "s", "setup_self", "graph.generate", "setup_s on every workload"),
    LayerMetric("trace.op_s", "s", "derived", "", "every op metric: the traced op total"),
    LayerMetric("trace.unattributed_s", "s", "derived", "", "every op metric: op time outside any wrapped layer"),
    LayerMetric("trace.overhead_ratio", "ratio", "derived", "", "none: traced over untraced op time, minus 1"),
)
