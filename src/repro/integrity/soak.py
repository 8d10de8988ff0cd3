"""The end-to-end corruption soak: live SDC injection + at-rest bit rot.

Every other soak in the repo attacks *availability* (crashes, torn
writes); this one attacks *truth*.  Each seeded schedule corrupts the
same run three ways and asserts the corruption is either **detected and
recovered** (the final labels are bit-identical to the fault-free
reference) or **provably harmless** — never a silent wrong answer:

1. **live** — ``"sdc"`` device faults flip labels / hashtable entries to
   *valid-but-wrong* values mid-move, with the full
   :class:`~repro.integrity.config.IntegrityConfig` guard stack on
   (per-move shadow replay, per-iteration scrub and audits).  The guard's
   detections descend the supervisor ladder; the run must still end
   bit-identical to the never-faulted reference.
2. **checkpoint at rest** — a random single-bit flip in one committed
   checkpoint generation; :func:`~repro.integrity.fsck.fsck_all` and the
   resume path must between them detect it (or the flip is structurally
   harmless), and a ``resume=True`` run over the damaged ring must still
   reproduce the reference.
3. **snapshot at rest** — a random single-bit flip in the newest
   published RPSNAP01 version; :meth:`~repro.service.read.SnapshotCatalog.
   latest` must either detect it (serving the older intact version and
   recording the skip) or the flip must land in padding and the served
   labels stay correct.

``benchmarks/bench_soak.py`` runs 20 schedules and writes the report as
the ``BENCH_integrity_soak.json`` CI artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.errors import SnapshotNotFoundError
from repro.graph.csr import CSRGraph
from repro.integrity.config import IntegrityConfig
from repro.integrity.fsck import fsck_all
from repro.resilience.faults import FaultSpec
from repro.soak import SoakReport

__all__ = [
    "IntegritySoakRecord",
    "flip_bit",
    "run_integrity_soak",
]

#: Fault-event class names that count as a *detection* of corruption.
_DETECTIONS = ("IntegrityError", "CorruptionDetectedError", "EccError")

#: Hashtable corruption targets the live leg may draw from.
_SDC_TARGETS = ("labels", "keys", "values")


def flip_bit(path: str | Path, byte: int, bit: int) -> None:
    """Flip one bit of one file in place (the at-rest corruption)."""
    path = Path(path)
    blob = bytearray(path.read_bytes())
    blob[byte % len(blob)] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))


@dataclass
class IntegritySoakRecord:
    """Outcome of one seeded corruption schedule (three legs)."""

    seed: int
    #: Live leg: guard detections that descended the supervisor ladder
    #: (a fire that swings nothing is harmless by design and invisible).
    live_detections: int
    live_identical: bool
    #: Checkpoint-at-rest leg.
    ckpt_flip: str
    ckpt_detected: bool
    ckpt_identical: bool
    #: Snapshot-at-rest leg.
    snap_flip: str
    snap_detected: bool
    snap_identical: bool
    #: Guard stats of the live run (scrubs, shadow replays, ...).
    guard: dict = field(default_factory=dict)

    @property
    def silent(self) -> int:
        """Corruptions that changed the answer without any detection."""
        count = 0
        if not self.live_identical and self.live_detections == 0:
            count += 1
        if not self.ckpt_identical and not self.ckpt_detected:
            count += 1
        if not self.snap_identical and not self.snap_detected:
            count += 1
        return count

    @property
    def ok(self) -> bool:
        """Detected-and-recovered or harmless, on every leg."""
        return self.live_identical and self.ckpt_identical and self.snap_identical

    def counts(self) -> dict[str, int]:
        return {
            "detection(s)": (
                self.live_detections + self.ckpt_detected + self.snap_detected
            ),
        }


def _run_live(
    graph: CSRGraph,
    config: LPAConfig,
    engine: str,
    reference: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, bool, dict]:
    """Leg 1: SDC injection under the full guard stack."""
    n_targets = int(rng.integers(1, len(_SDC_TARGETS) + 1))
    targets = tuple(sorted(
        rng.choice(list(_SDC_TARGETS), size=n_targets, replace=False).tolist()
    ))
    spec = FaultSpec(
        kinds=("sdc",),
        rate=float(rng.uniform(0.3, 1.0)),
        seed=int(rng.integers(0, 2**31)),
        max_fires=int(rng.integers(1, 5)),
        targets=targets,
    )
    # Only a clean *retry* reproduces the reference move bit-exactly — the
    # regrow and fallback rungs recover validly but perturb max-reduce
    # tie-breaking.  Give the retry rung enough headroom to outlast the
    # bounded injection budget (max_fires <= 4 < max_retries).
    result = nu_lpa(
        graph, config, engine=engine, warn_on_no_convergence=False,
        resilience=ResilienceConfig(
            faults=spec,
            max_retries=8,
            integrity=IntegrityConfig(scrub_interval=1, verify_interval=1),
        ),
    )
    detections = sum(
        1 for ev in result.fault_events if ev.fault in _DETECTIONS
    )
    return (
        detections,
        bool(np.array_equal(result.labels, reference)),
        result.integrity or {},
    )


def _run_ckpt_at_rest(
    graph: CSRGraph,
    config: LPAConfig,
    engine: str,
    reference: np.ndarray,
    ckpt_dir: Path,
    rng: np.random.Generator,
) -> tuple[str, bool, bool]:
    """Leg 2: bit rot in a committed checkpoint generation."""
    found = sorted(ckpt_dir.glob("ckpt-*.npz"))
    if not found:
        return ("", True, True)
    victim = found[int(rng.integers(len(found)))]
    byte = int(rng.integers(victim.stat().st_size))
    bit = int(rng.integers(8))
    flip_bit(victim, byte, bit)
    flip = f"{victim.name}:{byte}:{bit}"

    detected = fsck_all(ckpt_dir).damaged > 0
    resumed = nu_lpa(
        graph, config, engine=engine, warn_on_no_convergence=False,
        resilience=ResilienceConfig(
            checkpoint_dir=ckpt_dir, checkpoint_every=1, resume=True,
        ),
    )
    return (flip, detected, bool(np.array_equal(resumed.labels, reference)))


def _run_snap_at_rest(
    graph: CSRGraph,
    reference: np.ndarray,
    snap_dir: Path,
    rng: np.random.Generator,
    seed: int,
) -> tuple[str, bool, bool]:
    """Leg 3: bit rot in the newest published snapshot version."""
    from repro.service.read import SnapshotCatalog

    job_id = f"soak-{seed}"
    catalog = SnapshotCatalog(snap_dir)
    # v1 is a decoy (pre-propagation labels) so the fallback past a
    # damaged v2 is observable as serving *different* content.
    catalog.publish(
        job_id, np.arange(graph.num_vertices, dtype=np.int64), dedupe=False
    )
    newest = catalog.publish(job_id, reference, dedupe=False)
    byte = int(rng.integers(newest.stat().st_size))
    bit = int(rng.integers(8))
    flip_bit(newest, byte, bit)
    flip = f"{newest.name}:{byte}:{bit}"

    try:
        snap = catalog.latest(job_id)
    except SnapshotNotFoundError:
        # Both versions damaged is impossible here (v1 is intact), so
        # reaching this means the fallback itself is broken.
        return (flip, True, False)
    served = np.asarray(snap.labels).copy()
    version = snap.snapshot_version
    snap.close()
    detected = len(catalog.skipped) > 0
    if detected:
        # Fallback served the intact decoy — correct behaviour, and the
        # damage was detected; the *newest correct* content survives in
        # the publisher for re-publish.
        identical = version == 1 and bool(
            np.array_equal(served, np.arange(graph.num_vertices))
        )
    else:
        # No skip: the flip must have been harmless padding.
        identical = version == 2 and bool(np.array_equal(served, reference))
    return (flip, detected, identical)


def run_integrity_soak(
    graph: CSRGraph,
    workdir: str | Path,
    *,
    seeds: int = 20,
    seed: int = 0,
    engine: str = "hashtable",
    config: LPAConfig | None = None,
) -> SoakReport:
    """Run ``seeds`` corruption schedules against ``graph``.

    Schedule *i* derives every random choice from
    ``default_rng([seed, i])``, so any failure replays in isolation.
    ``workdir`` keeps one checkpoint + snapshot directory per schedule
    for post-mortem.
    """
    config = config or LPAConfig()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = SoakReport(
        kind="integrity",
        metadata={
            "engine": engine,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        },
    )
    for i in range(seeds):
        rng = np.random.default_rng([seed, i])
        ckpt_dir = workdir / f"schedule-{i}" / "ckpt"
        snap_dir = workdir / f"schedule-{i}" / "snap"
        # The fault-free reference run also writes the checkpoint ring the
        # at-rest leg will damage.
        reference = nu_lpa(
            graph, config, engine=engine, warn_on_no_convergence=False,
            resilience=ResilienceConfig(
                checkpoint_dir=ckpt_dir, checkpoint_every=1,
            ),
        )
        live_det, live_id, guard = _run_live(
            graph, config, engine, reference.labels, rng
        )
        ckpt_flip, ckpt_det, ckpt_id = _run_ckpt_at_rest(
            graph, config, engine, reference.labels, ckpt_dir, rng
        )
        snap_flip, snap_det, snap_id = _run_snap_at_rest(
            graph, reference.labels, snap_dir, rng, seed + i
        )
        report.records.append(IntegritySoakRecord(
            seed=seed + i,
            live_detections=live_det,
            live_identical=live_id,
            ckpt_flip=ckpt_flip,
            ckpt_detected=ckpt_det,
            ckpt_identical=ckpt_id,
            snap_flip=snap_flip,
            snap_detected=snap_det,
            snap_identical=snap_id,
            guard=guard,
        ))
    return report
