"""Epoch-versioned CSR application and the durable epoch journal.

Applying batch *k* to the epoch-``k-1`` graph produces the epoch-``k``
graph plus the ``touched`` vertex set that seeds warm-started
re-detection.  Application is **deterministic**: the same batch sequence
over the same base graph yields bit-identical CSR arrays, which is why an
epoch snapshot only needs to store *labels* — a recovering processor
reconstructs the graph by replaying the log.

Ops apply in order: one walk over the arcs they name gives each arc's
final state, and one :class:`~repro.graph.transform.ArcIndex` merge
writes that net change into the key-sorted CSR.  Graph-dependent
defects — removing or updating an edge the current graph does not
have — are quarantined (or raised under ``strict``) through the same
report/dead-letter plumbing as structural validation.

:class:`EpochJournal` persists one labels snapshot per epoch as an
RPSNAP01 container (:mod:`repro.container`): CRC-verified sections, an
atomic durable write, and newest-readable-wins fallback on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import container
from repro.errors import ContainerError, DeltaValidationError, StreamError
from repro.graph.csr import CSRGraph
# ``add_edges``, ``remove_edges`` and ``update_weights`` are not called
# here; they stay bound at this module attribute because the benchmark's
# traced run wraps each of them by its name in this module.
from repro.graph.transform import (
    ArcIndex,
    add_edges,
    remove_edges,
    update_weights,
)
from repro.resilience.validate import ValidationIssue
from repro.stream.delta import (
    DeadLetterFile,
    DeltaBatch,
    DeltaOp,
    DeltaValidationReport,
    validate_batch,
)
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "ApplyOutcome", "apply_batch", "EpochState", "EpochJournal", "epoch_path",
    "epoch_ring",
]

#: Bump when the epoch snapshot schema changes incompatibly.
#: v2 moves from npz to the RPSNAP01 container.
_SCHEMA_VERSION = 2
_FORMAT = "repro.stream/epoch"

_PREFIX = "epoch-"
_SUFFIX = ".epoch"

#: :class:`EpochState` fields the header carries (the labels are a section).
_FIELDS = ("epoch", "num_vertices", "num_edges", "modularity_gap")


def epoch_path(directory: str | Path, epoch: int) -> Path:
    """Where an epoch journal in ``directory`` keeps epoch ``epoch``."""
    return Path(directory) / f"{_PREFIX}{epoch:06d}{_SUFFIX}"


def epoch_ring(directory: str | Path, keep: int | None = None) -> container.Ring:
    """The generation ring of the epoch snapshots in ``directory``."""
    return container.Ring(
        directory, _PREFIX, _SUFFIX, load=EpochJournal.load,
        error=StreamError, keep=keep, legacy=".npz",
    )


@dataclass
class ApplyOutcome:
    """Result of applying one batch."""

    graph: CSRGraph
    #: Unique endpoints of every applied op (sorted int64).
    touched: np.ndarray
    report: DeltaValidationReport
    added: int = 0
    removed: int = 0
    updated: int = 0


def apply_batch(
    graph: CSRGraph,
    batch: DeltaBatch,
    *,
    policy: str = "strict",
    dead_letter: DeadLetterFile | None = None,
    seq: int | None = None,
) -> ApplyOutcome:
    """Apply one batch to an immutable CSR graph under ``policy``.

    Returns a new graph (the input is never mutated), the ``touched``
    vertex set, and the combined validation/application report.  Under
    ``strict`` a graph-dependent defect (``missing-edge``) raises
    :class:`~repro.errors.DeltaValidationError` *before* anything is
    built, so a strict stream either applies a batch whole or not at all.
    """
    clean, report = validate_batch(
        batch,
        graph_vertices=graph.num_vertices,
        policy=policy,
        dead_letter=dead_letter,
        seq=seq,
    )
    target_n = max(graph.num_vertices, clean.num_vertices or 0)
    arcs = ArcIndex(
        graph, target_n, resort=any(op.op == "add" for op in clean.ops)
    )

    # One in-order walk over the arcs the ops name, from their weights in
    # the input graph (None = no arc) to their final state.  ``add`` keeps
    # the larger of the current and new weight, ``remove`` drops both
    # arcs, ``update`` rewrites both existing arcs.  A remove/update of an
    # edge that is absent at its point in the sequence is missing.
    key_n = int(arcs.key_n)
    named = sorted({
        k for op in clean.ops
        for k in (op.src * key_n + op.dst, op.dst * key_n + op.src)
    })
    found, weight = arcs.lookup(np.asarray(named, dtype=np.int64))
    state: dict[int, float | None] = {
        k: w if f else None
        for k, f, w in zip(named, found.tolist(), weight.tolist())
    }
    written: set[int] = set()
    applied: list[DeltaOp] = []
    missing: list[DeltaOp] = []
    for op in clean.ops:
        both = (op.src * key_n + op.dst, op.dst * key_n + op.src)
        if op.op == "add":
            w = float(np.float32(1.0 if op.weight is None else op.weight))
            for k in both:
                state[k] = w if state[k] is None else max(state[k], w)
            written.update(both)
        elif state[both[0]] is None:
            missing.append(op)
            continue
        elif op.op == "remove":
            for k in both:
                state[k] = None
            written.update(both)
        else:
            w = float(np.float32(op.weight))
            for k in both:
                if state[k] is not None:
                    state[k] = w
                    written.add(k)
        applied.append(op)

    if missing:
        detail = (f"{len(missing)} op(s) name an edge the graph does not "
                  f"have (first: {missing[0].op} "
                  f"{missing[0].src}-{missing[0].dst})")
        if policy == "strict":
            report.append(ValidationIssue(
                "missing-edge", "error", len(missing), detail))
            raise DeltaValidationError(
                f"delta batch failed strict application: {report.summary()}",
                report=report,
            )
        report.append(ValidationIssue(
            "missing-edge", "error", len(missing), detail, "quarantined"))
        report.quarantined_ops += len(missing)
        report.ops_out -= len(missing)
        if dead_letter is not None:
            for op in missing:
                dead_letter.append(seq, op, ["missing-edge"])

    changed = [k for k in named if k in written]
    out = arcs.merge(
        np.asarray(changed, dtype=np.int64),
        np.asarray([0.0 if state[k] is None else state[k] for k in changed],
                   dtype=WEIGHT_DTYPE),
        np.asarray([state[k] is not None for k in changed], dtype=bool),
    )
    kinds = [op.op for op in applied]
    return ApplyOutcome(
        graph=out,
        touched=np.asarray(
            sorted({v for op in applied for v in op.endpoints}), dtype=np.int64
        ),
        report=report,
        added=kinds.count("add"),
        removed=kinds.count("remove"),
        updated=kinds.count("update"),
    )


# --------------------------------------------------------------------- #
# Epoch journal
# --------------------------------------------------------------------- #


@dataclass
class EpochState:
    """One journaled epoch: the labels at a graph version.

    ``epoch`` equals the sequence number of the last applied batch
    (epoch 0 is the initial full detection on the base graph); the graph
    itself is reconstructed by replaying the delta log, so only labels
    are stored.
    """

    epoch: int
    labels: np.ndarray
    num_vertices: int = 0
    num_edges: int = 0
    #: |Q_incremental - Q_scratch| of the differential check at this
    #: epoch (``None`` when the check did not run).
    modularity_gap: float | None = None


class EpochJournal:
    """Durable, CRC-verified labels snapshots, one per epoch.

    The same container and ring as
    :class:`~repro.resilience.checkpoint.CheckpointManager`: an atomic
    durable save, every CRC verified on load, :meth:`latest` falls back
    generation-by-generation past damage, and a ``keep=N`` ring prunes
    superseded epochs.
    """

    def __init__(self, directory: str | Path, *, keep: int | None = None) -> None:
        if keep is not None and keep < 1:
            raise StreamError(f"epoch keep must be >= 1 or None; got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ring = epoch_ring(self.directory, keep)
        #: ``(path, reason)`` of snapshots :meth:`latest` skipped.
        self.skipped = self.ring.skipped

    def path_for(self, epoch: int) -> Path:
        return epoch_path(self.directory, epoch)

    def epochs(self) -> list[Path]:
        """All well-named snapshots, oldest first."""
        return self.ring.files()

    def save(self, state: EpochState) -> Path:
        """Crash-consistently persist one epoch snapshot."""
        sections = {"labels": np.ascontiguousarray(state.labels)}
        header = {
            "format": _FORMAT,
            "version": _SCHEMA_VERSION,
            **{key: getattr(state, key) for key in _FIELDS},
            "arrays": container.plan(sections),
        }
        final = self.path_for(state.epoch)
        try:
            container.write(final, header, sections)
        except ContainerError as exc:
            raise StreamError(f"cannot write epoch snapshot {exc}") from exc
        self.ring.prune(protect=final)
        return final

    @staticmethod
    def load(path: str | Path) -> EpochState:
        """Load and CRC-verify one epoch snapshot."""
        try:
            file = container.read(path, _FORMAT, _SCHEMA_VERSION, ("labels",))
        except ContainerError as exc:
            raise StreamError(f"unreadable epoch snapshot {exc}") from exc
        return EpochState(
            labels=file.arrays["labels"].astype(VERTEX_DTYPE),
            **{key: file.header[key] for key in _FIELDS},
        )

    def latest(self) -> EpochState | None:
        """Newest readable epoch, falling back past damaged snapshots."""
        return self.ring.latest()
