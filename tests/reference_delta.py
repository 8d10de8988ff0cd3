"""A literal, per-op statement of delta-batch application.

:func:`repro.stream.epoch.apply_batch` walks a batch once and writes the
net change into the CSR with one :class:`~repro.graph.transform.ArcIndex`
merge.  :func:`reference_apply` states the same contract the slow way, as
the oracle the differential tests (and the CI soak job) compare it
with — the role :mod:`tests.reference_sweep` plays for Algorithm 2:

* the graph is a dict of arcs ``(src, dst) -> float32 weight``;
* ops apply one at a time: ``add`` keeps the larger of the current and
  new weight on both arcs (one arc for a self-loop), ``remove`` drops
  both, ``update`` rewrites both existing arcs; a remove/update naming an
  edge that is absent at its point in the sequence is *missing*;
* the CSR is built at the end by sorting the arcs: by key when the batch
  applied an add or grew the vertex set, else by source only, so rows
  that were not key-sorted keep their order.

Structural validation (:func:`~repro.stream.delta.validate_batch`) is
shared, not restated.  The base graph must hold no parallel arcs.

Run from the repository root with ``PYTHONPATH=src:.`` to import this
module outside pytest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DeltaValidationError
from repro.graph.csr import CSRGraph
from repro.stream.delta import DeadLetterFile, DeltaBatch, DeltaOp, validate_batch
from repro.stream.epoch import apply_batch

__all__ = [
    "ReferenceOutcome",
    "assert_matches_reference",
    "mixed_batches",
    "reference_apply",
]

POLICIES = ("strict", "repair", "quarantine")


@dataclass
class ReferenceOutcome:
    graph: CSRGraph | None
    touched: list[int]
    added: int
    removed: int
    updated: int
    #: Ops that named an edge absent at their point in the sequence.
    missing: list[DeltaOp]


def reference_apply(
    graph: CSRGraph, batch: DeltaBatch, *, policy: str = "strict"
) -> ReferenceOutcome:
    """Apply ``batch`` op by op; ``graph`` is ``None`` when ``strict``
    refuses the batch for a missing edge."""
    clean, _ = validate_batch(batch, graph_vertices=graph.num_vertices, policy=policy)
    n = max(graph.num_vertices, clean.num_vertices or 0)

    arcs: dict[tuple[int, int], np.float32] = {}
    for s, t, w in zip(graph.source_ids().tolist(), graph.targets.tolist(),
                       graph.weights):
        assert (s, t) not in arcs, "reference_apply: base has parallel arcs"
        arcs[(s, t)] = w

    applied: list[DeltaOp] = []
    missing: list[DeltaOp] = []
    for op in clean.ops:
        both = {(op.src, op.dst), (op.dst, op.src)}
        if op.op == "add":
            w = np.float32(1.0 if op.weight is None else op.weight)
            for arc in both:
                arcs[arc] = max(arcs[arc], w) if arc in arcs else w
        elif (op.src, op.dst) not in arcs:
            missing.append(op)
            continue
        elif op.op == "remove":
            for arc in both:
                arcs.pop(arc, None)
        else:
            for arc in both:
                if arc in arcs:
                    arcs[arc] = np.float32(op.weight)
        applied.append(op)

    kinds = [op.op for op in applied]
    touched = sorted({v for op in applied for v in op.endpoints})
    if missing and policy == "strict":
        return ReferenceOutcome(None, touched, 0, 0, 0, missing)
    resorted = n > graph.num_vertices or "add" in kinds
    items = sorted(arcs.items(), key=(lambda a: a[0]) if resorted else (lambda a: a[0][0]))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.asarray([s for (s, _), _ in items], dtype=np.int64),
                          minlength=n), out=offsets[1:])
    out = CSRGraph(
        offsets,
        np.asarray([t for (_, t), _ in items], dtype=np.int64),
        np.asarray([w for _, w in items], dtype=np.float32),
    )
    return ReferenceOutcome(out, touched, kinds.count("add"),
                            kinds.count("remove"), kinds.count("update"), missing)


def assert_matches_reference(
    graph: CSRGraph, batch: DeltaBatch, policy: str, dead_letter_path: Path,
    *, seq: int = 1,
) -> CSRGraph:
    """Compare ``apply_batch`` with :func:`reference_apply` field by field;
    returns the graph the next batch applies to."""
    try:
        ref = reference_apply(graph, batch, policy=policy)
    except DeltaValidationError:  # a structural defect under ``strict``
        ref = None
    dead = DeadLetterFile(dead_letter_path)
    before = len(dead.entries())
    try:
        out = apply_batch(graph, batch, policy=policy, dead_letter=dead, seq=seq)
    except DeltaValidationError as exc:
        assert ref is None or ref.graph is None, f"apply_batch refused: {exc}"
        if ref is not None:
            assert "missing-edge" in exc.report.by_code()
        return graph
    assert ref is not None, "apply_batch accepted a structurally bad batch"
    assert ref.graph is not None, "apply_batch accepted a batch with a missing edge"
    for name in ("offsets", "targets", "weights"):
        got, want = getattr(out.graph, name), getattr(ref.graph, name)
        assert got.dtype == want.dtype, (name, got.dtype, want.dtype)
        assert np.array_equal(got, want), f"{name} differ"
    assert out.touched.dtype == np.int64
    assert out.touched.tolist() == ref.touched
    assert (out.added, out.removed, out.updated) == (ref.added, ref.removed, ref.updated)
    assert out.report.by_code().get("missing-edge", 0) == len(ref.missing)
    new = [e for e in dead.entries()[before:] if e["reasons"] == ["missing-edge"]]
    assert new == [
        {"seq": seq, "op": op.as_dict(), "reasons": ["missing-edge"]}
        for op in ref.missing
    ]
    return out.graph


def mixed_batches(
    graph: CSRGraph, rng: np.random.Generator, *, num_batches: int, batch_size: int
) -> list[DeltaBatch]:
    """Batches that mix every case the merge must get right.

    Adds of new and existing edges, removes and updates of existing edges
    in either orientation (some batches without adds), repeats and
    reversals of an earlier op in the batch, self-loops, edges that are
    missing (never there, or removed earlier), weight defects the policies
    treat differently, and vertex growth.  The batches are drawn against the base graph only, so later
    ones also name edges that earlier ones removed.
    """
    src = graph.source_ids()
    dst = graph.targets
    n = graph.num_vertices
    batches = []
    for _ in range(num_batches):
        grow = n + int(rng.integers(1, 4)) if rng.random() < 0.2 else None
        hi = grow or n
        # Some batches only remove and update: the merge keeps row order.
        kinds = ("add", "remove", "update") if rng.random() < 0.7 else ("remove", "update")
        ops: list[DeltaOp] = []
        for _ in range(batch_size):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            roll = rng.random()
            if ops and roll < 0.25:
                prev = ops[int(rng.integers(0, len(ops)))]
                a, b = (prev.src, prev.dst) if rng.random() < 0.5 else (prev.dst, prev.src)
            elif roll < 0.75 and dst.shape[0]:
                i = int(rng.integers(0, dst.shape[0]))
                a, b = int(src[i]), int(dst[i])
            elif roll < 0.85:
                a = b = int(rng.integers(0, hi))
            else:
                a, b = int(rng.integers(0, hi)), int(rng.integers(0, hi))
            weight = None if kind == "remove" else float(
                rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 0.1]))
            if kind == "add" and rng.random() < 0.2:
                weight = None
            elif weight is not None and rng.random() < 0.05:
                weight = -1.0  # repaired to 0.0, or quarantined
            ops.append(DeltaOp(kind, a, b, weight))
        batches.append(DeltaBatch(ops=tuple(ops), num_vertices=grow))
        n = hi
    return batches
