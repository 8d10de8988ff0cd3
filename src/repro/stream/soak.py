"""Kill/restart chaos soak for the streaming pipeline.

The streaming contract is the service recovery contract extended to
mutating graphs: *kill the producer or the service at any instant —
before, during, or after a log append; before, during, or after an epoch
apply — restart over the same directories, and the stream resumes
bit-identically with a never-crashed run.*  This harness proves it per
seed:

1. generate a deterministic base graph and a valid mixed delta workload
   (inserts, deletes, weight updates, occasional vertex growth);
2. run a crash-free **reference**: write every batch to a fresh log,
   process to the head, record the final labels and CSR arrays, and run
   the differential check (incremental vs from-scratch modularity gap);
3. replay the same workload under a seeded schedule of injected deaths:

   * producer deaths **before** an append (nothing written, retried),
     **mid**-append (a partial frame is written, which the next log open
     must truncate as a torn tail), and **after** an append (the
     idempotent producer must *not* double-append on restart);
   * service deaths at the processor's ``pre-epoch``,
     ``mid-epoch-apply``, and ``post-epoch`` chaos points, restarting a
     fresh :class:`~repro.service.DetectionService` over the surviving
     journal after each death;

4. assert the recovered stream's labels and reconstructed CSR arrays are
   bit-identical to the reference, and the reference differential gap is
   within the accuracy bound.

Deaths surface as :class:`~repro.soak.InjectedCrash` — not a
``ReproError``, so any over-broad handler in the pipeline would
invalidate the soak.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.datasets import generate_standin
from repro.service.job import GraphRef, JobSpec, JobState
from repro.service.service import DetectionService, ServiceConfig
from repro.soak import InjectedCrash, SoakReport, drain_through_crashes
from repro.stream.delta import DeltaBatch, DeltaOp
from repro.stream.epoch import EpochJournal
from repro.stream.log import DeltaLog, encode_frame
from repro.stream.processor import StreamProcessor

__all__ = ["run_stream_soak", "random_delta_batches"]

#: Accuracy bound of the differential check: the incremental labels
#: either equal the from-scratch run bit-for-bit or sit within this
#: modularity gap of it.
GAP_BOUND = 0.01

#: The workload every seed replays: the ``com-Orkut`` stand-in (dense
#: LFR-style communities, where warm-started incremental detection and a
#: from-scratch run agree to within the gap bound; degenerate toys such as
#: a 3x3 road grid have many equal-modularity optima, so the differential
#: check would measure LPA's tie-breaking, not the pipeline).
DATASET = "com-Orkut"
SCALE = 0.03
BATCHES = 6
BATCH_SIZE = 5
HOPS = 1
#: Random service deaths per seed, on top of the one mid-epoch-apply
#: death every seed gets.
_SERVICE_DEATHS = 3

_PRODUCER_MODES = ("none", "before-append", "mid-append", "after-append")
_SERVICE_POINTS = ("pre-epoch", "mid-epoch-apply", "post-epoch")


def random_delta_batches(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    num_batches: int = 6,
    batch_size: int = 5,
    grow_every: int = 0,
) -> list[DeltaBatch]:
    """A valid mixed workload of delta batches against ``graph``.

    Tracks the evolving edge set so every remove/update names an edge
    that exists at its point in the sequence (the soak exercises crash
    recovery, not quarantine).  ``grow_every`` > 0 adds one new vertex
    (wired to a random existing one) every that many batches.
    """
    edges: set[tuple[int, int]] = set()
    for s, d in zip(graph.source_ids().tolist(), graph.targets.tolist()):
        edges.add((min(s, d), max(s, d)))
    n = graph.num_vertices
    batches: list[DeltaBatch] = []
    for b in range(num_batches):
        ops: list[DeltaOp] = []
        num_vertices = None
        if grow_every and (b + 1) % grow_every == 0:
            anchor = int(rng.integers(n))
            ops.append(DeltaOp("add", anchor, n, weight=1.0))
            edges.add((min(anchor, n), max(anchor, n)))
            num_vertices = n + 1
            n += 1
        while len(ops) < batch_size:
            kind = ("add", "remove", "update")[int(rng.integers(3))]
            if kind == "add":
                a, c = int(rng.integers(n)), int(rng.integers(n))
                key = (min(a, c), max(a, c))
                if a == c or key in edges:
                    continue
                edges.add(key)
                ops.append(DeltaOp("add", a, c, weight=float(rng.uniform(0.5, 2.0))))
            elif not edges:
                continue
            else:
                key = sorted(edges)[int(rng.integers(len(edges)))]
                if kind == "remove":
                    edges.discard(key)
                    ops.append(DeltaOp("remove", key[0], key[1]))
                else:
                    ops.append(DeltaOp(
                        "update", key[0], key[1],
                        weight=float(rng.uniform(0.5, 2.0)),
                    ))
        batches.append(DeltaBatch(ops=tuple(ops), num_vertices=num_vertices))
    return batches


def _produce_with_crashes(
    log_dir: Path,
    batches: list[DeltaBatch],
    modes: list[str],
) -> tuple[int, int]:
    """Write ``batches`` under per-batch producer crash ``modes``.

    Returns ``(deaths, torn_tails_repaired)``.  The producer is
    idempotent by sequence number: after any death it reopens the log and
    appends only batches past ``head_seq`` — exactly what a real producer
    keyed on the WAL acknowledgement does.
    """
    deaths = 0
    repaired = 0
    log = DeltaLog(log_dir)
    for batch, mode in zip(batches, modes):
        seq = log.head_seq + 1
        if mode == "before-append":
            deaths += 1  # died before writing anything; restart and retry
            log = DeltaLog(log_dir)
        elif mode == "mid-append":
            # Die halfway through the frame: raw partial bytes, no fsync
            # acknowledgement.  The restart open must truncate this tail.
            frame = encode_frame(seq, batch)
            with open(log.current_segment(), "ab") as fh:
                fh.write(frame[: max(1, len(frame) // 2)])
            deaths += 1
            log = DeltaLog(log_dir)
            repaired += len(log.repairs)
        if log.head_seq < seq:
            log.append(batch)
        if mode == "after-append":
            deaths += 1  # died after the fsync ack; restart must not redo
            log = DeltaLog(log_dir)
            assert log.head_seq >= seq
    return deaths, repaired


@dataclass
class SeedOutcome:
    """One seed's verdict."""

    seed: int
    batches: int
    epochs: int
    producer_deaths: int
    torn_tails: int
    service_deaths: int
    restarts: int
    labels_identical: bool
    graph_identical: bool
    modularity_gap: float

    @property
    def ok(self) -> bool:
        return (
            self.labels_identical
            and self.graph_identical
            and self.modularity_gap <= GAP_BOUND
        )

    @property
    def silent(self) -> int:
        """A recovered stream that drifted from the reference."""
        return int(not (self.labels_identical and self.graph_identical))

    def counts(self) -> dict[str, int]:
        return {
            "death(s)": self.producer_deaths + self.service_deaths,
            "torn tail(s)": self.torn_tails,
        }


def run_stream_soak(workdir: str | Path, *, num_seeds: int = 20) -> SoakReport:
    """Run the kill/restart chaos soak; see the module docstring.

    Every seed gets its own base graph, workload, crash schedule, and
    directories under ``workdir``.  The report's :attr:`~SoakReport.ok`
    asserts the full contract: bit-identical labels *and* CSR arrays
    versus the never-crashed reference, with the differential modularity
    gap within :data:`GAP_BOUND`.
    """
    workdir = Path(workdir)
    return SoakReport(
        kind="stream",
        metadata={
            "dataset": DATASET,
            "scale": SCALE,
            "batches_per_seed": BATCHES,
            "batch_size": BATCH_SIZE,
            "hops": HOPS,
        },
        records=[
            _run_one_seed(workdir / f"seed-{seed:03d}", seed)
            for seed in range(num_seeds)
        ],
    )


def _run_one_seed(root: Path, seed: int) -> SeedOutcome:
    rng = np.random.default_rng([seed & 0x7FFFFFFF, BATCHES])
    base = generate_standin(DATASET, scale=SCALE, seed=seed)
    batches = random_delta_batches(
        base, rng,
        num_batches=BATCHES, batch_size=BATCH_SIZE,
        grow_every=max(2, BATCHES // 2),
    )

    # ---- reference: crash-free, with the differential check ------------
    ref_dir = root / "ref"
    ref_log = DeltaLog(ref_dir / "wal")
    for batch in batches:
        ref_log.append(batch)
    reference = StreamProcessor(
        base, ref_log, ref_dir / "epochs",
        hops=HOPS, differential_every=BATCHES,
    )
    reference.recover()
    reference.run_to_head()
    gap = reference.last_gap if reference.last_gap is not None else 0.0
    ref_labels = reference.labels.copy()
    ref_graph = reference.graph

    # ---- chaos: same workload, seeded deaths ---------------------------
    chaos_dir = root / "chaos"
    producer_modes = [
        _PRODUCER_MODES[int(rng.integers(len(_PRODUCER_MODES)))]
        for _ in batches
    ]
    # Every death mode appears at least once.
    slots = rng.choice(BATCHES, size=3, replace=False)
    for slot, mode in zip(slots.tolist(), _PRODUCER_MODES[1:]):
        producer_modes[slot] = mode
    producer_deaths, torn = _produce_with_crashes(
        chaos_dir / "wal", batches, producer_modes
    )

    # Service-side schedule: (epoch, point) pairs, each firing once.
    schedule = {
        (int(rng.integers(1, BATCHES + 1)),
         _SERVICE_POINTS[int(rng.integers(len(_SERVICE_POINTS)))])
        for _ in range(_SERVICE_DEATHS)
    }
    schedule.add((max(1, BATCHES // 2), "mid-epoch-apply"))  # always
    pending = dict.fromkeys(sorted(schedule), True)
    seen_epoch = {"n": 0}

    def chaos_hook(point: str, record) -> None:
        if point == "pre-epoch":
            seen_epoch["n"] += 1
        key = (seen_epoch["n"], point)
        if pending.pop(key, None):
            raise InjectedCrash(f"scheduled death at epoch {key[0]} {point}")

    spec = JobSpec(
        job_id=f"stream-{seed}",
        graph=GraphRef(kind="dataset", name=DATASET, scale=SCALE, seed=seed),
        kind="subscription",
        stream_dir=str(chaos_dir / "wal"),
        hops=HOPS,
    )
    config = ServiceConfig(
        journal_dir=chaos_dir / "journal",
        chaos_hook=chaos_hook,
    )

    def on_restart(service: DetectionService) -> None:
        # The epoch counter is per-process state: a restarted service
        # re-runs recovery (no chaos points) and then continues from the
        # journaled epoch, so the observation counter restarts there.
        state = EpochJournal(service.journal.stream_dir(spec.job_id)).latest()
        seen_epoch["n"] = 0 if state is None else state.epoch

    service, crashes = drain_through_crashes(
        lambda: DetectionService(config), [spec], on_restart
    )

    record = service.result(spec.job_id)
    done = (
        record.state is JobState.COMPLETED and record.outcome is not None
        and record.outcome.labels is not None
    )
    labels_identical = bool(
        done and np.array_equal(record.outcome.labels, ref_labels)
    )

    # Reconstruct the chaos stream's graph and compare CSR arrays.
    verify = StreamProcessor(base, chaos_dir / "wal",
                             service.journal.stream_dir(spec.job_id), hops=HOPS)
    verify.recover()
    graph_identical = bool(
        np.array_equal(verify.graph.offsets, ref_graph.offsets)
        and np.array_equal(verify.graph.targets, ref_graph.targets)
        and np.array_equal(verify.graph.weights, ref_graph.weights)
        and np.array_equal(verify.labels, ref_labels)
    )

    return SeedOutcome(
        seed=seed,
        batches=BATCHES,
        epochs=record.outcome.iterations if done else -1,
        producer_deaths=producer_deaths,
        torn_tails=torn,
        service_deaths=crashes,
        restarts=crashes,
        labels_identical=labels_identical,
        graph_identical=graph_identical,
        modularity_gap=float(gap),
    )

