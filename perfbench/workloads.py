"""The benchmark's three workloads.

Each workload runs in *rounds* of a fixed op schedule, so every run
measures the same mix and its percentiles do not shift with where the
clock happened to stop:

* ``detect-hashtable`` — one round is one pass over the 13 Table-1
  stand-ins, each generated from ``VARIANTS`` seeds; an op is one
  ``nu_lpa(engine="hashtable")`` detection.
* ``serve-jobs`` — one round is one job per graph of the same set,
  through a ``DetectionService`` with a journal and a snapshot catalog,
  closed loop with two jobs outstanding; an op is one job from submit
  until its snapshot is published.
* ``stream-query`` — one round sets up fresh subscription streams (new
  seeds each round) and runs a fixed number of epochs on each,
  round-robin; an op is one epoch from delta append until its snapshot is
  published.  A read batch against that stream follows each op.

Several seeds per stand-in and per stream keep one run's figures from
hanging on how a single seed's graph happens to converge.

Every op's output is checked; an op whose check fails or that raises is
dropped from the samples and counts as failed.  Timings cover only calls
into the program: input and delta synthesis, checks and modularity happen
outside the timed windows.
"""

from __future__ import annotations

import gc
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.deltas import delta_batches
from repro import metrics
from repro.metrics import community_stats
from repro.core import lpa
from repro.graph import datasets
from repro.perf.model import estimate_gpu_seconds
from repro.service import DetectionService, JobState, ServiceConfig
from repro.service.read import QueryEngine, SnapshotCatalog
from repro.stream.log import DeltaLog
from repro.stream.processor import StreamProcessor

__all__ = ["OpSample", "WORKLOADS"]

#: Stand-in scale of both detection workloads (multiplied by ``--scale``).
STANDIN_SCALE = 0.125
#: Seeds per stand-in; one set-up generates the 13 stand-ins of one seed.
VARIANTS = 8
#: Stream-query: streams, epochs per stream per round, ops per batch.
STREAM_DATASET = "com-LiveJournal"
STREAM_SCALE = 0.125
STREAMS = 8
EPOCHS = 10
BATCH_OPS = 8
#: Read batch: evenly spaced membership lookups, rosters of the first few.
MEMBERSHIP_READS = 256
ROSTER_READS = 32


@dataclass
class OpSample:
    """One measured op."""

    seconds: float
    #: |E| of the graph the op processed.
    edges: int
    #: Modelled A100 seconds of the op's detection runs.
    modeled_s: float
    #: Edge changes the op absorbed (a from-scratch detection absorbs |E|).
    deltas: int
    #: Seconds of the read batch that followed the op.
    read_s: float


def _graph_seed(seed: int, index: int) -> int:
    return seed * 1_000 + index


def _read_sample(n: int) -> list[int]:
    """The read batch's membership lookups: evenly spaced vertices."""
    return np.linspace(0, n - 1, MEMBERSHIP_READS).astype(np.int64).tolist()


def _answers_match(sample, members, rosters, labels) -> bool:
    """Memberships equal ``labels``; each roster holds its own vertex."""
    return members == np.asarray(labels)[sample].tolist() and all(
        v in roster for v, roster in zip(sample, rosters)
    )


def _query_batch(rec, query: QueryEngine, job: str, n: int, *, diff: bool):
    """One timed read batch through the snapshot read path.

    Returns ``(seconds, snapshot, sample, members, rosters, diff or None)``.
    """
    sample = _read_sample(n)
    gc.collect()
    with rec.root("read"):
        start = time.perf_counter()
        snap = query.refresh(job)
        members = [query.membership(job, v) for v in sample]
        rosters = [query.roster(job, c) for c in members[:ROSTER_READS]]
        change = query.diff(job) if diff else None
        elapsed = time.perf_counter() - start
    return elapsed, snap, sample, members, rosters, change


def _valid_partition(labels, num_vertices: int) -> bool:
    labels = np.asarray(labels)
    return (
        labels.shape == (num_vertices,)
        and labels.dtype.kind == "i"
        and (num_vertices == 0
             or (int(labels.min()) >= 0 and int(labels.max()) < num_vertices))
    )


class _Workload:
    """Shared bookkeeping: failures, modularity samples, store directory."""

    name = ""
    #: Rounds an untraced run measures at least: about 20 s of ops on the
    #: machine the bounds were set on, so ``--seconds`` rarely adds one
    #: and every run measures the same op mix.
    ROUNDS = 2
    #: Set-ups before the first round.
    SETUPS = 3

    def __init__(self, seed: int, scale: float, store: Path, recorder) -> None:
        self.seed = seed
        self.scale = scale
        self.store = store
        self.rec = recorder
        #: Failures reported, ops or not; any makes the run incorrect.
        self.failed = 0
        self.modularity: list[float] = []
        #: Set-up seconds taken inside rounds (stream-query only).
        self.round_setups: list[float] = []
        #: Set-ups so far; picks the seeds of the next one.
        self.setups = 0
        #: Workload-measured per-layer values for the traced run.
        self.layer_extra: dict[str, float] = {}
        self._fresh = 0

    def fresh_dir(self, tag: str) -> Path:
        self._fresh += 1
        path = self.store / f"{tag}-{self._fresh}"
        path.mkdir(parents=True)
        return path

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"op failed: {why}", file=sys.stderr)

    def begin_pass(self) -> None:
        """Start of a measured pass."""

    def finish(self) -> None:
        """End of a pass: settle anything still in flight."""


# --------------------------------------------------------------------- #


class _Detection(_Workload):
    """Shared by the two detection workloads: the stand-in set."""

    #: One set-up per seed variant builds the whole set.
    SETUPS = VARIANTS

    def __init__(self, *args) -> None:
        super().__init__(*args)
        names = datasets.dataset_names()
        self.names = names * VARIANTS
        self.graphs = [None] * len(self.names)
        self._reference: dict[int, np.ndarray] = {}
        self._modularity: dict[int, float] = {}

    def _generate(self) -> float:
        """Generate the 13 stand-ins of the next seed variant."""
        variant = self.setups % VARIANTS
        self.setups += 1
        count = len(self.names) // VARIANTS
        start = time.perf_counter()
        for i in range(variant * count, (variant + 1) * count):
            self.graphs[i] = datasets.generate_standin(
                self.names[i], scale=STANDIN_SCALE * self.scale,
                seed=_graph_seed(self.seed, i),
            )
        return time.perf_counter() - start

    def _quality(self, index: int, labels: np.ndarray) -> bool:
        """Check against the first pass over graph ``index``; record Q."""
        graph = self.graphs[index]
        if not _valid_partition(labels, graph.num_vertices):
            self.fail(f"{self.names[index]}: labels are not a partition")
            return False
        first = self._reference.setdefault(index, labels.copy())
        if not np.array_equal(first, labels):
            self.fail(f"{self.names[index]}: labels differ from the first pass")
            return False
        if index not in self._modularity:
            self._modularity[index] = metrics.modularity(graph, labels)
        self.modularity.append(self._modularity[index])
        return True

    def _read_labels(self, labels: np.ndarray) -> float | None:
        """The read batch over an in-memory partition (nothing published)."""
        sample = _read_sample(labels.shape[0])
        gc.collect()
        with self.rec.root("read"):
            start = time.perf_counter()
            members = [int(labels[v]) for v in sample]
            rosters = [np.flatnonzero(labels == c) for c in members[:ROSTER_READS]]
            community_stats.community_sizes(labels)
            elapsed = time.perf_counter() - start
        if not _answers_match(sample, members, rosters, labels):
            self.fail("roster misses its own member")
            return None
        return elapsed


class DetectHashtable(_Detection):
    name = "detect-hashtable"

    def setup(self) -> float:
        return self._generate()

    def warmup(self) -> None:
        self._detect(0)

    def _detect(self, index: int) -> OpSample | None:
        graph = self.graphs[index]
        gc.collect()
        try:
            with self.rec.root("op"):
                start = time.perf_counter()
                result = lpa.nu_lpa(
                    graph, engine="hashtable", warn_on_no_convergence=False
                )
                elapsed = time.perf_counter() - start
        except Exception:  # one failed op must not end the run
            self.fail(f"{self.names[index]}: {traceback.format_exc()}")
            return None
        if not self._quality(index, result.labels):
            return None
        read_s = self._read_labels(result.labels)
        if read_s is None:
            return None
        return OpSample(
            seconds=elapsed,
            edges=graph.num_edges,
            modeled_s=estimate_gpu_seconds(result.total_counters),
            deltas=graph.num_edges,
            read_s=read_s,
        )

    def round(self) -> tuple[list[OpSample], int]:
        samples = [self._detect(i) for i in range(len(self.graphs))]
        return [s for s in samples if s is not None], len(samples)


class ServeJobs(_Detection):
    name = "serve-jobs"
    ROUNDS = 3

    #: Jobs kept outstanding: the service's default ``workers``.
    OUTSTANDING = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.service: DetectionService | None = None
        self.query: QueryEngine | None = None
        self._next = 0
        self._submitted: dict[str, tuple[int, float]] = {}
        self._waits: list[float] = []
        self._attempts: list[int] = []

    def setup(self) -> float:
        elapsed = self._generate()
        return elapsed + self._start_service()

    def _start_service(self) -> float:
        """A fresh service over fresh stores; returns its start time.

        Every round gets its own, so each round's jobs meet the same
        service state and no store outlives a round.
        """
        self.finish()
        self._root = self.fresh_dir("serve")
        start = time.perf_counter()
        self.service = DetectionService(ServiceConfig(
            journal_dir=self._root / "journal",
            snapshot_dir=self._root / "snapshots",
        ))
        elapsed = time.perf_counter() - start
        self.query = QueryEngine(SnapshotCatalog(self._root / "snapshots"))
        self._next = 0
        return elapsed

    def warmup(self) -> None:
        self._submit()
        self.service.drain()
        self._submitted.clear()

    def begin_pass(self) -> None:
        self._waits.clear()
        self._attempts.clear()

    def _submit(self) -> None:
        index = self._next % len(self.graphs)
        job_id = f"job-{self._next:06d}"
        self._next += 1
        self._submitted[job_id] = (index, time.perf_counter())
        self.service.submit_graph(self.graphs[index], job_id)

    def _turn(self) -> OpSample | None:
        """Run the oldest job to completion and submit its replacement."""
        gc.collect()
        try:
            with self.rec.root("op"):
                step_start = time.perf_counter()
                record = self.service.step()
                done = time.perf_counter()
                self._submit()
        except Exception:
            self.fail(traceback.format_exc())
            return None
        index, submitted = self._submitted.pop(record.job_id)
        self._waits.append(step_start - submitted)
        self._attempts.append(record.attempts)
        outcome = record.outcome
        if record.state is not JobState.COMPLETED or outcome.rung != "full":
            self.fail(f"{record.job_id}: {record.state.value} on rung "
                      f"{outcome.rung if outcome else None}")
            return None
        if not self._quality(index, outcome.labels):
            return None
        read_s = self._read_snapshot(record.job_id, outcome.labels)
        if read_s is None:
            return None
        return OpSample(
            seconds=done - submitted,
            edges=self.graphs[index].num_edges,
            modeled_s=outcome.modeled_seconds,
            deltas=self.graphs[index].num_edges,
            read_s=read_s,
        )

    def _read_snapshot(self, job_id: str, labels: np.ndarray) -> float | None:
        # Each job publishes once, so there is no diff to read.
        try:
            elapsed, snap, sample, members, rosters, _ = _query_batch(
                self.rec, self.query, job_id, labels.shape[0], diff=False
            )
        except Exception:
            self.fail(f"{job_id} reads: {traceback.format_exc()}")
            return None
        same = np.array_equal(np.asarray(snap.labels), labels)
        # Each job is read once: drop its mapping so memory does not grow
        # with the number of jobs served.
        self.query.close()
        if not same:
            self.fail(f"{job_id}: published snapshot differs from the outcome")
            return None
        if not _answers_match(sample, members, rosters, labels):
            self.fail(f"{job_id}: read answers differ from the snapshot")
            return None
        return elapsed

    def round(self) -> tuple[list[OpSample], int]:
        self._start_service()
        while len(self._submitted) < self.OUTSTANDING:
            self._submit()
        samples = [self._turn() for _ in range(len(self.graphs))]
        self.layer_extra = {
            "service.queue_wait_ms": 1e3 * float(np.mean(self._waits)),
            "service.attempts_per_job": float(np.mean(self._attempts)),
        }
        return [s for s in samples if s is not None], len(samples)

    def finish(self) -> None:
        if self.service is not None:
            self.service.drain()
            self.query.close()
            shutil.rmtree(self._root, ignore_errors=True)
            self.service = None
        self._submitted.clear()


# --------------------------------------------------------------------- #


@dataclass
class _Stream:
    job_id: str
    log_dir: Path
    log: DeltaLog
    graph: object
    batches: list


class StreamQuery(_Workload):
    name = "stream-query"
    ROUNDS = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._pending = None

    def begin_pass(self) -> None:
        """Rounds of every pass use the same seeds, in the same order."""
        self._discard()
        self.setups = 0

    def setup(self) -> float:
        """Fresh streams: base graphs, a service, the epoch-0 detections."""
        self._discard()
        variant = self.setups
        self.setups += 1
        root = self.fresh_dir("stream")
        start = time.perf_counter()
        graphs = [
            datasets.generate_standin(
                STREAM_DATASET, scale=STREAM_SCALE * self.scale,
                seed=_graph_seed(self.seed, variant * STREAMS + i),
            )
            for i in range(STREAMS)
        ]
        elapsed = time.perf_counter() - start
        rng = np.random.default_rng((self.seed, variant))
        streams = [
            _Stream(f"stream-{i}", root / f"log-{i}", DeltaLog(root / f"log-{i}"),
                    g, delta_batches(g.offsets, g.targets, rng,
                                     num_batches=EPOCHS, batch_size=BATCH_OPS))
            for i, g in enumerate(graphs)
        ]
        start = time.perf_counter()
        service = DetectionService(ServiceConfig(
            journal_dir=root / "journal", snapshot_dir=root / "snapshots",
        ))
        for s in streams:
            service.submit_graph(
                s.graph, s.job_id, kind="subscription", stream_dir=str(s.log_dir)
            )
        service.drain()
        elapsed += time.perf_counter() - start
        for s in streams:
            if service.result(s.job_id).state is not JobState.COMPLETED:
                self.fail(f"{s.job_id}: initial detection did not complete")
        query = QueryEngine(SnapshotCatalog(root / "snapshots"))
        self._pending = (root, service, query, streams)
        return elapsed

    def _discard(self) -> None:
        if self._pending is not None:
            root, _, query, _ = self._pending
            query.close()
            shutil.rmtree(root, ignore_errors=True)
            self._pending = None

    def warmup(self) -> None:
        """One epoch on a stream that is then thrown away."""
        _, service, query, streams = self._pending
        self._epoch(service, query, streams[0], 1)
        self._discard()

    def _epoch(self, service, query, stream: _Stream, epoch: int) -> OpSample | None:
        batch = stream.batches[epoch - 1]
        gc.collect()
        try:
            with self.rec.root("op"):
                start = time.perf_counter()
                stream.log.append(batch)
                advanced = service.advance_subscription(stream.job_id)
                service.drain()
                elapsed = time.perf_counter() - start
        except Exception:
            self.fail(f"{stream.job_id} epoch {epoch}: {traceback.format_exc()}")
            return None
        record = service.result(stream.job_id)
        if not advanced or record.state is not JobState.COMPLETED \
                or record.outcome.rung != "full":
            self.fail(f"{stream.job_id} epoch {epoch}: not advanced and completed")
            return None
        read_s = self._read(query, stream, epoch)
        if read_s is None:
            return None
        return OpSample(
            seconds=elapsed,
            edges=0,  # filled from the reference replay at the round's end
            modeled_s=record.outcome.modeled_seconds,
            deltas=len(batch),
            read_s=read_s,
        )

    def _read(self, query: QueryEngine, stream: _Stream, epoch: int) -> float | None:
        job = stream.job_id
        try:
            elapsed, snap, sample, members, rosters, diff = _query_batch(
                self.rec, query, job, stream.graph.num_vertices, diff=True
            )
        except Exception:
            self.fail(f"{job} epoch {epoch} reads: {traceback.format_exc()}")
            return None
        if snap.epoch != epoch or diff.to_epoch != epoch:
            self.fail(f"{job}: served epoch {snap.epoch}, appended {epoch}")
            return None
        if not _answers_match(sample, members, rosters, snap.labels):
            self.fail(f"{job} epoch {epoch}: read answers differ from the snapshot")
            return None
        return elapsed

    def _replay(self, root: Path, service, stream: _Stream) -> list[int] | None:
        """One persistent processor over the stream's WAL must end on the
        served labels; returns |E| after each epoch."""
        processor = StreamProcessor(
            stream.graph, stream.log_dir, root / f"replay-{stream.job_id}"
        )
        processor.recover()
        edges = []
        while processor.step() is not None:
            edges.append(processor.graph.num_edges)
        served = service.result(stream.job_id).outcome.labels
        if len(edges) != EPOCHS or not np.array_equal(processor.labels, served):
            self.fail(f"{stream.job_id}: final labels differ from a "
                      f"persistent replay of the same WAL")
            return None
        self.modularity.append(metrics.modularity(processor.graph, served))
        return edges

    def round(self) -> tuple[list[OpSample], int]:
        if self._pending is None:
            with self.rec.root("setup"):
                self.round_setups.append(self.setup())
        root, service, query, streams = self._pending
        per_stream: dict[int, list[OpSample | None]] = {i: [] for i in range(STREAMS)}
        for epoch in range(1, EPOCHS + 1):
            for i, stream in enumerate(streams):
                per_stream[i].append(self._epoch(service, query, stream, epoch))
        samples: list[OpSample] = []
        for i, stream in enumerate(streams):
            edges = self._replay(root, service, stream)
            for epoch, sample in enumerate(per_stream[i]):
                if sample is not None and edges is not None:
                    sample.edges = edges[epoch]
                    samples.append(sample)
        self._discard()
        return samples, STREAMS * EPOCHS

    def finish(self) -> None:
        self._discard()


WORKLOADS = {
    cls.name: cls for cls in (DetectHashtable, ServeJobs, StreamQuery)
}
