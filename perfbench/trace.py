"""Span recording for the traced run.

:class:`SpanRecorder` replaces each function in :data:`perfbench.layers.WRAPS`
with a wrapper that records a span (name, parent, start, end, root) in
memory, and wraps ``os.fsync`` to count durability work.  Untraced runs
never install it, so their timings carry no tracing cost.

Spans hang under *roots* the workload opens around its own steps: ``setup``
(one set-up), ``op`` (one measured op) and ``read`` (one read batch).
A span's self time is its duration minus that of its direct children; a
root's self time is the part of the op no wrapped layer covers.
"""

from __future__ import annotations

import fcntl
import functools
import importlib
import os
import stat
import time
from collections import defaultdict
from contextlib import contextmanager

from perfbench.layers import FSYNC_SPAN, PER_LAYER, WRAPS

__all__ = ["HOOKS", "SpanRecorder", "UntracedRecorder", "layer_metrics"]

_NO_ROOT = -1


class UntracedRecorder:
    """The recorder of untraced passes: it only sums op root time, the
    base that ``trace.overhead_ratio`` compares the traced pass with."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_ns = 0

    @contextmanager
    def root(self, kind: str):
        if kind != "op":
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.op_ns += time.perf_counter_ns() - start
            self.ops += 1

    def record(self, key: str, value: float) -> None:
        pass

    def mean_op_s(self) -> float:
        return self.op_ns * 1e-9 / self.ops if self.ops else 0.0


class SpanRecorder:
    """In-memory span tree plus values captured at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        #: ``(root span index, key, value)`` captured by hooks.
        self.values: list[tuple[int, str, float]] = []
        self._stack: list[int] = []
        self._root = _NO_ROOT
        self._patches: list[tuple[object, str, object]] = []
        # Size already counted per appended-to file, keyed by (dev, inode).
        self._append_sizes: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------ #

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else _NO_ROOT)
        self.roots.append(self._root)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str):
        """Open a root span (``setup``, ``op`` or ``read``)."""
        if kind == "setup":
            # Stores of a new set-up are fresh files; inode numbers of
            # deleted ones may come back.
            self._append_sizes.clear()
        index = self._open(kind)
        self.roots[index] = index
        self._root = index
        try:
            yield
        finally:
            self._close(index)
            self._root = _NO_ROOT

    def record(self, key: str, value: float) -> None:
        """Attach a value to the current root (ignored outside roots)."""
        if self._root != _NO_ROOT:
            self.values.append((self._root, key, value))

    # ------------------------------------------------------------------ #

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``hook(recorder, result, args)`` runs after the span closes.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            if hook is not None:
                hook(recorder, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry of :data:`WRAPS` and ``os.fsync``."""
        for module_name, target, name in WRAPS:
            owner = importlib.import_module(module_name)
            attr = target
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(owner, cls_name)
            self.wrap(owner, attr, name, HOOKS.get(name))
        self.wrap(os, "fsync", FSYNC_SPAN, _count_written)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #

    def written_bytes(self, fd: int) -> int:
        """Bytes the writer made durable with this fsync.

        A file written from scratch (temp file, then rename) counts whole;
        an append-mode file counts only its growth since its last fsync.
        Directories count nothing.
        """
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            return 0
        if not fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND:
            return st.st_size
        key = (st.st_dev, st.st_ino)
        before = self._append_sizes.get(key, 0)
        self._append_sizes[key] = st.st_size
        return st.st_size - before if st.st_size >= before else st.st_size

    def self_times(self) -> list[int]:
        """Self nanoseconds of every span."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent != _NO_ROOT:
                own[parent] -= durations[index]
        return own


def _count_written(recorder: SpanRecorder, result, args) -> None:
    recorder.record("io.bytes_written", recorder.written_bytes(args[0]))


def _lpa_result(recorder: SpanRecorder, result, args) -> None:
    counters = result.total_counters
    iterations = result.num_iterations
    recorder.record("lpa.iterations", iterations)
    if "[hashtable]" in result.algorithm:
        recorder.record("engine_hashtable.waves", counters.waves)
    recorder.record("probes", counters.probes)
    recorder.record("edges_scanned", counters.edges_scanned)
    recorder.record("atomic_cas", counters.atomic_cas)
    recorder.record("atomic_conflicts", counters.atomic_conflicts)
    recorder.record("sectors", counters.sectors_read + counters.sectors_written)
    recorder.record("vertices_processed", counters.vertices_processed)
    recorder.record("vertex_iterations", result.labels.shape[0] * iterations)


def _frontier(recorder: SpanRecorder, result, args) -> None:
    graph = args[0]
    if graph.num_vertices:
        recorder.record("frontier_fraction", result.shape[0] / graph.num_vertices)


#: Value-capturing hooks, by span name (see :meth:`SpanRecorder.wrap`).
HOOKS = {
    "lpa.driver": _lpa_result,
    "incremental.lpa": _lpa_result,
    "incremental.affected": _frontier,
}


def layer_metrics(recorder: SpanRecorder, extra: dict[str, float],
                  untraced_op_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``extra`` carries the derived values the workload measured itself
    (``service.queue_wait_ms``, ``service.attempts_per_job``);
    ``untraced_op_s`` is the mean op time of the untraced pass over the
    same schedule, the base of ``trace.overhead_ratio``.
    """
    own = recorder.self_times()
    root_kind = {
        index: name for index, name in enumerate(recorder.names)
        if recorder.roots[index] == index
    }
    counts = defaultdict(int)
    for kind in root_kind.values():
        counts[kind] += 1
    ops = max(1, counts["op"])
    setups = max(1, counts["setup"])

    self_ns: dict[tuple[str, str], int] = defaultdict(int)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    op_total = 0
    for index, name in enumerate(recorder.names):
        root = recorder.roots[index]
        if root == _NO_ROOT:
            continue
        kind = root_kind[root]
        if root == index:
            if kind == "op":
                op_total += recorder.ends[index] - recorder.starts[index]
            name = "root"
        self_ns[kind, name] += own[index]
        calls[kind, name] += 1

    values: dict[str, float] = defaultdict(float)
    value_counts: dict[str, int] = defaultdict(int)
    for root, key, value in recorder.values:
        if root_kind[root] == "op":
            values[key] += value
            value_counts[key] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scale = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}
    derived = {
        "lpa.iterations": values["lpa.iterations"] / ops,
        "engine_hashtable.waves": values["engine_hashtable.waves"] / ops,
        "hashing.probes_per_edge": ratio(values["probes"], values["edges_scanned"]),
        "hashing.cas_conflict_ratio": ratio(values["atomic_conflicts"], values["atomic_cas"]),
        "gpu.sectors_per_edge": ratio(values["sectors"], values["edges_scanned"]),
        "core.active_fraction": ratio(values["vertices_processed"], values["vertex_iterations"]),
        "graph.csr_rebuilds_per_batch": ratio(
            calls["op", "graph.transform"], calls["op", "stream.apply"]
        ),
        "incremental.frontier_fraction": ratio(
            values["frontier_fraction"], value_counts["frontier_fraction"]
        ),
        "io.bytes_written": values["io.bytes_written"] / ops,
        "trace.op_s": op_total * 1e-9 / ops,
        "trace.unattributed_s": self_ns["op", "root"] * 1e-9 / ops,
        "service.queue_wait_ms": extra.get("service.queue_wait_ms", 0.0),
        "service.attempts_per_job": extra.get("service.attempts_per_job", 0.0),
    }
    derived["trace.overhead_ratio"] = ratio(derived["trace.op_s"], untraced_op_s) - 1.0

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.kind == "op_self":
            out[metric.name] = self_ns["op", metric.source] * 1e-9 / ops
        elif metric.kind == "setup_self":
            out[metric.name] = self_ns["setup", metric.source] * 1e-9 / setups
        elif metric.kind == "read_call":
            out[metric.name] = ratio(
                self_ns["read", metric.source] * scale[metric.unit],
                calls["read", metric.source],
            )
        elif metric.kind == "op_calls":
            out[metric.name] = calls["op", metric.source] / ops
        else:
            out[metric.name] = derived[metric.name]
    return out
