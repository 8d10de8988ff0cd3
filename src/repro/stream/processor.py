"""The stream processor: delta log in, epoch-versioned labels out.

One :class:`StreamProcessor` owns the consumer side of a stream: it reads
acknowledged batches from a :class:`~repro.stream.log.DeltaLog`, applies
each to the current epoch's graph, warm-starts
:func:`~repro.core.incremental.nu_lpa_incremental` from the previous
labels with only the affected frontier active, and journals the new
labels through the :class:`~repro.stream.epoch.EpochJournal`.

Crash recovery is replay: the journal stores *labels only*, so
:meth:`recover` loads the newest readable epoch ``E``, deterministically
reconstructs the epoch-``E`` graph by re-applying batches ``1..E`` from
the log onto the base graph, and resumes at batch ``E+1``.  Because both
application and detection are deterministic, a processor killed at any
instant — before, during, or after a batch — resumes bit-identically with
a never-crashed run (proven by :mod:`repro.stream.soak`).

The optional *differential check* re-runs detection from scratch every
``differential_every`` epochs and records either label equality or the
modularity gap ``|Q_inc - Q_scratch|`` in the epoch trace — the streaming
pipeline's accuracy contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.config import LPAConfig
from repro.core.incremental import affected_vertices, nu_lpa_incremental
from repro.core.lpa import nu_lpa
from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.observe.trace import EpochEvent, Tracer
from repro.stream.delta import DeadLetterFile
from repro.stream.epoch import EpochJournal, EpochState, apply_batch
from repro.stream.log import DeltaLog
from repro.types import VERTEX_DTYPE

__all__ = ["StreamProcessor"]

#: Chaos hook points, in per-epoch execution order.
CHAOS_POINTS = ("pre-epoch", "mid-epoch-apply", "post-epoch")


class StreamProcessor:
    """Applies a delta log to a base graph, epoch by epoch.

    Parameters
    ----------
    base_graph:
        The epoch-0 graph (before any batch).
    log:
        The stream's :class:`DeltaLog` (or its directory).  A log knows
        the batches it found when opened plus those it appended; assign a
        freshly opened one to :attr:`log` to step past batches another
        writer appended since.
    journal:
        The stream's :class:`EpochJournal` (or its directory).
    config / engine:
        Detection parameters, forwarded to ``nu_lpa`` and
        ``nu_lpa_incremental``.
    hops:
        Warm-start frontier radius around the touched vertices.
    policy:
        Delta validation policy (``strict`` / ``repair`` / ``quarantine``).
    dead_letter:
        Dead-letter file for quarantined ops; defaults to
        ``<log dir>/dead-letter.jsonl``.  Suppressed during recovery
        replay so re-application never duplicates entries.
    tracer:
        Receives one :class:`~repro.observe.trace.EpochEvent` per epoch.
    differential_every:
        Every this many epochs, re-detect from scratch and record the
        modularity gap (0 disables).
    chaos:
        Optional ``chaos(point)`` callable invoked at the
        :data:`CHAOS_POINTS`; the soak harness raises
        :class:`~repro.resilience.chaos.InjectedCrash` from it.
    price:
        Optional ``price(result) -> float`` charging modelled GPU seconds
        for each detection run (the job service passes its own meter).
    publish:
        Optional ``publish(state)`` called with each
        :class:`~repro.stream.epoch.EpochState` *after* its journal write
        — the job service hooks the query snapshot catalog here.
        :meth:`recover` calls it once more for the restored epoch, which
        heals a crash between the journal write and the publish, so it
        must be idempotent (the catalog dedupes on content).  A processor
        that keeps stepping (the service keeps a subscription's resident
        between advances) runs :meth:`recover` only once, at its start.
    keep:
        Epoch journal retention ring (``None`` keeps everything).
    """

    def __init__(
        self,
        base_graph: CSRGraph,
        log: DeltaLog | str | Path,
        journal: EpochJournal | str | Path,
        *,
        config: LPAConfig | None = None,
        engine: str = "vectorized",
        hops: int = 1,
        policy: str = "strict",
        dead_letter: DeadLetterFile | str | Path | None = None,
        tracer: Tracer | None = None,
        differential_every: int = 0,
        chaos: Callable[[str], None] | None = None,
        price: Callable[[object], float] | None = None,
        publish: Callable[[EpochState], None] | None = None,
        keep: int | None = 8,
    ) -> None:
        if differential_every < 0:
            raise StreamError(
                f"differential_every must be >= 0; got {differential_every}"
            )
        self.base_graph = base_graph
        self.log = log if isinstance(log, DeltaLog) else DeltaLog(log)
        self.journal = (
            journal if isinstance(journal, EpochJournal)
            else EpochJournal(journal, keep=keep)
        )
        self.config = config or LPAConfig()
        self.engine = engine
        self.hops = hops
        self.policy = policy
        if dead_letter is None:
            dead_letter = self.log.directory / "dead-letter.jsonl"
        self.dead_letter = (
            dead_letter if isinstance(dead_letter, DeadLetterFile)
            else DeadLetterFile(dead_letter)
        )
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.differential_every = differential_every
        self.chaos = chaos
        self.price = price
        self.publish = publish

        #: Current epoch (-1 until :meth:`recover` runs; 0 after the
        #: initial full detection).
        self.epoch = -1
        self.graph: CSRGraph = base_graph
        self.labels: np.ndarray | None = None
        #: Modelled GPU seconds charged via ``price`` so far.
        self.gpu_seconds = 0.0
        #: Modularity gap of the most recent differential check.
        self.last_gap: float | None = None

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover(self) -> int:
        """Restore state from the journal + log; returns the resume epoch.

        No journal → run the initial full detection (epoch 0) and journal
        it.  Otherwise load the newest readable epoch and reconstruct its
        graph by deterministic replay of the log prefix.  Damaged newest
        snapshots cost one epoch of recompute each (the falls-back-then-
        replays contract), never correctness.
        """
        state = self.journal.latest()
        if state is None:
            result = nu_lpa(
                self.base_graph, self.config, engine=self.engine,
                warn_on_no_convergence=False,
            )
            self._charge(result)
            self.graph = self.base_graph
            self.labels = result.labels
            self.epoch = 0
            state = EpochState(
                epoch=0,
                labels=self.labels,
                num_vertices=self.graph.num_vertices,
                num_edges=self.graph.num_edges,
            )
            self.journal.save(state)
            self._publish(state)
            return 0
        if state.epoch > self.log.head_seq:
            raise StreamError(
                f"epoch journal is ahead of the delta log (epoch "
                f"{state.epoch}, log head {self.log.head_seq}); the log "
                f"directory lost acknowledged batches"
            )
        graph = self.base_graph
        for seq, batch in self.log.replay(start=1):
            if seq > state.epoch:
                break
            # Replay must not duplicate dead-letter entries: quarantine
            # decisions were already recorded when the batch first applied.
            outcome = apply_batch(
                graph, batch, policy=self.policy, dead_letter=None, seq=seq
            )
            graph = outcome.graph
        if state.labels.shape[0] != graph.num_vertices:
            raise StreamError(
                f"epoch {state.epoch} snapshot has {state.labels.shape[0]} "
                f"labels but the replayed graph has {graph.num_vertices} "
                f"vertices; log and journal disagree"
            )
        self.graph = graph
        self.labels = state.labels
        self.epoch = state.epoch
        self.last_gap = state.modularity_gap
        # Republish the restored epoch: heals a crash that landed between
        # the journal write and the publish (dedupe makes it a no-op when
        # the snapshot already exists).
        self._publish(state)
        return self.epoch

    # ------------------------------------------------------------------ #
    # Epoch processing
    # ------------------------------------------------------------------ #

    @property
    def lag(self) -> int:
        """Acknowledged batches not yet turned into epochs."""
        return max(0, self.log.head_seq - max(self.epoch, 0))

    def step(self) -> EpochState | None:
        """Process the next batch into an epoch; ``None`` at the head."""
        if self.epoch < 0:
            self.recover()
        seq = self.epoch + 1
        if seq > self.log.head_seq:
            return None
        self._chaos("pre-epoch")
        batch = self.log.read(seq)
        outcome = apply_batch(
            self.graph, batch, policy=self.policy,
            dead_letter=self.dead_letter, seq=seq,
        )
        graph = outcome.graph
        labels = self.labels
        if graph.num_vertices > labels.shape[0]:
            # New vertices enter as their own singleton communities.
            labels = np.concatenate([
                labels,
                np.arange(labels.shape[0], graph.num_vertices, dtype=VERTEX_DTYPE),
            ])
        frontier = affected_vertices(graph, outcome.touched, hops=self.hops)
        # The frontier already holds the hops-neighbourhood: seeding with
        # it at hops=0 runs the BFS once per epoch, not twice.
        result = nu_lpa_incremental(
            graph, labels, frontier,
            config=self.config, engine=self.engine, hops=0,
        )
        self._charge(result)

        gap: float | None = None
        if self.differential_every and seq % self.differential_every == 0:
            gap = self._differential(graph, result.labels)
            self.last_gap = gap

        self._chaos("mid-epoch-apply")
        state = EpochState(
            epoch=seq,
            labels=result.labels,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            modularity_gap=gap,
        )
        self.journal.save(state)
        self._publish(state)
        self.graph = graph
        self.labels = result.labels
        self.epoch = seq
        self.tracer.emit(EpochEvent(
            iteration=seq,
            added=outcome.added,
            removed=outcome.removed,
            updated=outcome.updated,
            quarantined=outcome.report.quarantined_ops,
            touched=int(outcome.touched.shape[0]),
            frontier=int(frontier.shape[0]),
            frontier_fraction=(
                frontier.shape[0] / graph.num_vertices
                if graph.num_vertices else 0.0
            ),
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            lpa_iterations=result.num_iterations,
            modularity_gap=gap,
        ))
        self._chaos("post-epoch")
        return state

    def run_to_head(self, max_epochs: int | None = None) -> int:
        """Process batches until the log head; returns epochs processed."""
        done = 0
        while max_epochs is None or done < max_epochs:
            if self.step() is None:
                break
            done += 1
        return done

    # ------------------------------------------------------------------ #

    def _differential(self, graph: CSRGraph, inc_labels: np.ndarray) -> float:
        """|Q_incremental - Q_scratch| at the current epoch (0.0 when the
        partitions are bit-identical — the common case)."""
        from repro.metrics import modularity

        scratch = nu_lpa(
            graph, self.config, engine=self.engine,
            warn_on_no_convergence=False,
        )
        self._charge(scratch)
        if np.array_equal(scratch.labels, inc_labels):
            return 0.0
        return abs(
            float(modularity(graph, inc_labels))
            - float(modularity(graph, scratch.labels))
        )

    def _charge(self, result) -> None:
        if self.price is not None:
            self.gpu_seconds += float(self.price(result))

    def _chaos(self, point: str) -> None:
        if self.chaos is not None:
            self.chaos(point)

    def _publish(self, state: EpochState) -> None:
        if self.publish is not None:
            self.publish(state)
