"""ABFT integrity guards for the LPA hot path.

Detection strategy, cheapest first:

1. **CSR running checksums** — offsets/targets/weights are immutable for
   the whole run, so a CRC32 recorded at construction can be re-verified
   on an amortised scrub schedule.  A mismatch is repaired *in place* from
   the guard's golden copies ("re-materialise from the source graph") and
   then surfaced as an :class:`~repro.errors.IntegrityError` so the
   supervisor replays the move that may have consumed the bad bytes.
2. **ECC scrub** — the same pass runs the :class:`SecDedModel`: single-bit
   upsets are corrected and counted, a double-bit upset raises
   :class:`~repro.errors.EccError` (retryable — the model redraws).
3. **Label-conservation audit** — LPA only ever *adopts* labels that are
   already present, so the post-move label set must be contained in the
   pre-move label set, and the distinct-community count must be monotone
   non-increasing boundary over boundary.  An SDC that resurrects a dead
   label or splits a community violates one of the two.
4. **Hashtable spot-audit** — a deterministic sample of slots is checked
   for in-range keys and finite values (full-buffer checks already exist
   behind ``deep_checks``; the spot audit is the amortised version that
   stays on at scale).
5. **Shadow replay (DMR)** — the only guard that catches a *valid-range*
   wrong label: re-run the move from the supervisor's pre-move snapshot on
   a lazily-built, hook-free twin of the same engine class and compare
   labels bit-exactly.  Same class + same config ⇒ identical waves ⇒ any
   divergence is corruption, not nondeterminism.

Every audit charges its traffic to a pending
:class:`~repro.gpu.metrics.KernelCounters` that the driver folds into the
iteration's counters, so profiles, budget metering, and the perf gate all
see integrity as modelled work.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import CorruptionDetectedError, IntegrityError
from repro.gpu.memory import MemoryModel
from repro.gpu.metrics import KernelCounters
from repro.graph.csr import is_unit
from repro.integrity.config import IntegrityConfig
from repro.integrity.ecc import SecDedModel
from repro.types import EMPTY_KEY

__all__ = ["IntegrityGuard", "array_crc32"]

_CSR_ARRAYS = ("offsets", "targets", "weights")


def array_crc32(arr: np.ndarray) -> int:
    """CRC32 over an array's raw bytes (contiguous views are zero-copy)."""
    return zlib.crc32(np.ascontiguousarray(arr).view(np.uint8))


def _repair_frozen(dst: np.ndarray, src: np.ndarray) -> None:
    """Overwrite a write-protected array in place (CSR buffers are frozen)."""
    dst.setflags(write=True)
    try:
        dst[:] = src
    finally:
        dst.setflags(write=False)


class IntegrityGuard:
    """Runs the ABFT audits for one LPA run.

    Wired by :func:`repro.core.lpa.nu_lpa` onto the kernel supervisor:
    :meth:`validate_move` runs inside the supervisor's try block (so every
    detection escalates the existing retry/regrow/fallback ladder from the
    restored pre-move snapshot), :meth:`note_move` / :meth:`at_boundary`
    bracket the driver's iteration boundary, and
    :meth:`~IntegrityGuard.drain` hands the accumulated modelled cost to
    the iteration's counters.
    """

    def __init__(
        self, graph, lpa_config, config: IntegrityConfig, tracer=None, governor=None
    ) -> None:
        self.graph = graph
        self.lpa_config = lpa_config
        self.config = config
        self.tracer = tracer
        #: Optional :class:`~repro.gpu.governor.MemoryGovernor`: the golden
        #: CSR copies and the lazily-built shadow twin are real device
        #: buffers, charged to the ``integrity`` region.
        self.governor = governor
        self._memory_charged = 0
        self.mem = MemoryModel(lpa_config.device)
        self.ecc = SecDedModel(
            lpa_config.device, ber=config.ecc_ber, seed=config.ecc_seed
        )
        #: Golden copies + running checksums of the immutable CSR arrays
        #: (a unit-weight view is its own golden copy: it holds no buffer).
        self._golden = {}
        for name in _CSR_ARRAYS:
            arr = getattr(graph, name)
            self._golden[name] = arr if is_unit(arr) else arr.copy()
        self._csr_crc = {
            name: array_crc32(arr) for name, arr in self._golden.items()
        }
        self._csr_bytes = sum(arr.nbytes for arr in self._golden.values())
        self._charge(self._csr_bytes)
        #: Modelled cost accumulated since the last :meth:`drain`.
        self._pending = KernelCounters()
        #: Label CRC recorded by :meth:`note_move`, checked at the boundary.
        self._labels_crc: int | None = None
        #: Previous boundary's distinct-label set and count.
        self._boundary_set: np.ndarray | None = None
        #: Lazily-built shadow engine (keyed per engine class).
        self._shadow = None
        self._shadow_frontier = None
        #: Bytes of the shadow twin's tables currently charged (tracked so
        #: lockstep regrowth charges only the delta).
        self._shadow_charged = 0
        # Cumulative audit statistics (surfaced as ``result.integrity``).
        self.scrubs = 0
        self.scrub_repairs = 0
        self.shadow_replays = 0
        self.spot_audits = 0
        self.violations = 0
        self.rewinds = 0

    # ------------------------------------------------------------------ #
    # Hot-path guard (called by the supervisor inside its retry ladder)
    # ------------------------------------------------------------------ #

    def validate_move(
        self,
        labels: np.ndarray,
        engine,
        *,
        snapshot_labels: np.ndarray,
        snapshot_flags: np.ndarray,
        pick_less: bool,
        iteration: int,
    ) -> None:
        """Audit one completed move attempt; raises on any detection."""
        cfg = self.config
        if iteration % cfg.scrub_interval == 0:
            self._scrub(iteration)
        if cfg.label_audit:
            self._audit_label_conservation(labels, snapshot_labels, iteration)
        if cfg.spot_audit_slots > 0:
            self._spot_audit(engine, labels.shape[0], iteration)
        if cfg.verify_interval is not None and iteration % cfg.verify_interval == 0:
            self._shadow_replay(
                labels, engine,
                snapshot_labels=snapshot_labels,
                snapshot_flags=snapshot_flags,
                pick_less=pick_less,
                iteration=iteration,
            )

    def _scrub(self, iteration: int) -> None:
        """Verify the CSR checksums and run the SEC-DED pass."""
        self.scrubs += 1
        counters = KernelCounters(
            launches=1,
            sectors_read=self.mem.sectors_for_contiguous(self._csr_bytes, 1),
        )
        self._pending = self._pending + counters
        mismatched = []
        for name in _CSR_ARRAYS:
            if array_crc32(getattr(self.graph, name)) != self._csr_crc[name]:
                mismatched.append(name)
        for name in mismatched:
            _repair_frozen(getattr(self.graph, name), self._golden[name])
            self.scrub_repairs += 1
        self._emit_scrub(iteration, tuple(mismatched), counters)

        before_corrected = self.ecc.corrected
        before_detected = self.ecc.detected
        try:
            self.ecc.scrub(self._csr_bytes)
        finally:
            pass_corrected = self.ecc.corrected - before_corrected
            pass_detected = self.ecc.detected - before_detected
            if (
                self.tracer is not None
                and self.tracer.enabled
                and (pass_corrected or pass_detected)
            ):
                from repro.observe.trace import EccEvent

                self.tracer.emit(EccEvent(
                    iteration=iteration,
                    corrected=pass_corrected,
                    detected=pass_detected,
                    corrected_total=self.ecc.corrected,
                ))

        if mismatched:
            self.violations += 1
            self._emit_integrity(
                iteration, "csr-checksum", "repaired",
                f"re-materialised {','.join(mismatched)} from golden copies",
            )
            raise IntegrityError(
                f"CSR checksum mismatch on {mismatched} at iteration "
                f"{iteration}; arrays re-materialised — replaying the move"
            )

    def _emit_scrub(self, iteration, mismatched, counters) -> None:
        if self.tracer is None or not self.tracer.enabled:
            return
        from repro.observe.trace import ScrubEvent
        from repro.perf.model import estimate_gpu_seconds

        self.tracer.emit(ScrubEvent(
            iteration=iteration,
            mismatched=mismatched,
            repaired=mismatched,
            scrubbed_bytes=self._csr_bytes,
            modeled_seconds=estimate_gpu_seconds(counters),
        ))

    def _emit_integrity(self, iteration, check, action, detail="") -> None:
        if self.tracer is None or not self.tracer.enabled:
            return
        from repro.observe.trace import IntegrityEvent

        self.tracer.emit(IntegrityEvent(
            iteration=iteration, check=check, action=action, detail=detail
        ))

    def _audit_label_conservation(
        self, labels: np.ndarray, snapshot_labels: np.ndarray, iteration: int
    ) -> None:
        """Post-move labels must be drawn from the pre-move label set."""
        if labels.shape[0] == 0:
            return
        self._pending = self._pending + KernelCounters(
            sectors_read=self.mem.sectors_for_contiguous(
                2 * labels.shape[0], labels.itemsize
            ),
        )
        current = np.unique(labels)
        previous = np.unique(snapshot_labels)
        if not np.isin(current, previous, assume_unique=True).all():
            foreign = current[~np.isin(current, previous, assume_unique=True)]
            self.violations += 1
            self._emit_integrity(
                iteration, "label-conservation", "detected",
                f"{foreign.shape[0]} label(s) not present before the move",
            )
            raise IntegrityError(
                f"label-conservation audit failed at iteration {iteration}: "
                f"{foreign.shape[0]} post-move label(s) (e.g. {int(foreign[0])}) "
                f"were not present before the move"
            )

    def _spot_audit(self, engine, num_vertices: int, iteration: int) -> None:
        """Sample hashtable slots for in-range keys and finite values."""
        tables = getattr(engine, "tables", None)
        if tables is None or tables.keys.shape[0] == 0:
            return
        self.spot_audits += 1
        keys = tables.keys
        rng = np.random.default_rng([self.config.ecc_seed, iteration, keys.shape[0]])
        sample = rng.integers(
            keys.shape[0], size=min(self.config.spot_audit_slots, keys.shape[0])
        )
        self._pending = self._pending + KernelCounters(
            sectors_read=self.mem.sectors_for_scattered(2 * sample.shape[0]),
            probes=sample.shape[0],
        )
        picked = keys[sample]
        bad = (picked != EMPTY_KEY) & ((picked < 0) | (picked >= num_vertices))
        if bad.any():
            self.violations += 1
            self._emit_integrity(
                iteration, "spot-audit", "detected",
                f"{int(bad.sum())} out-of-range key(s) in a "
                f"{sample.shape[0]}-slot sample",
            )
            raise IntegrityError(
                f"hashtable spot-audit found {int(bad.sum())} out-of-range "
                f"key(s) at iteration {iteration}"
            )
        occupied = picked != EMPTY_KEY
        if occupied.any():
            values = tables.values[sample[occupied]]
            if not np.isfinite(values).all():
                self.violations += 1
                self._emit_integrity(
                    iteration, "spot-audit", "detected", "non-finite value slot"
                )
                raise IntegrityError(
                    f"hashtable spot-audit found non-finite value(s) at "
                    f"iteration {iteration}"
                )

    def _shadow_replay(
        self,
        labels: np.ndarray,
        engine,
        *,
        snapshot_labels: np.ndarray,
        snapshot_flags: np.ndarray,
        pick_less: bool,
        iteration: int,
    ) -> None:
        """Re-run the move on a hook-free twin engine and compare labels."""
        from repro.core.pruning import Frontier

        if self._shadow is None or type(self._shadow) is not type(engine):
            self._shadow = type(engine)(self.graph, self.lpa_config)
            self._shadow_frontier = Frontier(
                self.graph,
                enabled=self.lpa_config.pruning,
                arena=self._shadow.arena,
            )
        # Slot order decides max-reduce ties, and slot order follows table
        # capacity — after the supervisor's regrow rung the twin must grow
        # in lockstep or every subsequent replay flags a false divergence.
        tables = getattr(engine, "tables", None)
        shadow_tables = getattr(self._shadow, "tables", None)
        if tables is not None and shadow_tables is not None:
            while shadow_tables.capacity_scale < tables.capacity_scale:
                self._shadow.grow_tables()
                shadow_tables = self._shadow.tables
            while shadow_tables.capacity_scale > tables.capacity_scale:
                # The shrink-tables memory rung also moves slot order.
                self._shadow.shrink_tables()
                shadow_tables = self._shadow.tables
        # The DMR twin's tables are a real device region; (re)charge the
        # delta so the ledger carries the shadow at its current size.
        if shadow_tables is not None:
            shadow_bytes = shadow_tables.memory_bytes()
            if shadow_bytes != self._shadow_charged:
                self._charge(shadow_bytes - self._shadow_charged)
                self._shadow_charged = shadow_bytes
        self.shadow_replays += 1
        shadow_labels = snapshot_labels.copy()
        self._shadow_frontier.flags[:] = snapshot_flags
        outcome = self._shadow.move(
            shadow_labels, self._shadow_frontier,
            pick_less=pick_less, iteration=iteration,
        )
        self._pending = self._pending + outcome.counters
        if not np.array_equal(shadow_labels, labels):
            divergent = int(np.count_nonzero(shadow_labels != labels))
            self.violations += 1
            self._emit_integrity(
                iteration, "shadow-replay", "detected",
                f"{divergent} label(s) diverge from the replayed move",
            )
            raise IntegrityError(
                f"shadow replay diverged on {divergent} label(s) at iteration "
                f"{iteration} ({type(engine).__name__}): silent data "
                f"corruption in the primary move"
            )
        self._emit_integrity(iteration, "shadow-replay", "verified")

    # ------------------------------------------------------------------ #
    # Boundary bracket (called by the driver loop)
    # ------------------------------------------------------------------ #

    def note_move(self, labels: np.ndarray) -> None:
        """Record the committed post-revert label CRC for the boundary."""
        self._labels_crc = array_crc32(labels)
        self._pending = self._pending + KernelCounters(
            sectors_read=self.mem.sectors_for_contiguous(
                labels.shape[0], labels.itemsize
            ),
        )

    def at_boundary(self, labels: np.ndarray, iteration: int) -> None:
        """Audit the committed state before it is checkpointed/published.

        Raises :class:`~repro.errors.CorruptionDetectedError` — the ladder
        can't replay a whole boundary, so the driver rewinds to the last
        good checkpoint instead.
        """
        if self._labels_crc is not None and array_crc32(labels) != self._labels_crc:
            self.violations += 1
            self._emit_integrity(
                iteration, "label-crc", "detected",
                "labels changed between commit and boundary",
            )
            raise CorruptionDetectedError(
                f"label CRC mismatch at iteration boundary {iteration}: the "
                f"committed labels changed after the move was accepted"
            )
        if self.config.label_audit and labels.shape[0]:
            current = np.unique(labels)
            previous = self._boundary_set
            if previous is not None:
                if current.shape[0] > previous.shape[0] or not np.isin(
                    current, previous, assume_unique=True
                ).all():
                    self.violations += 1
                    self._emit_integrity(
                        iteration, "community-trajectory", "detected",
                        f"{current.shape[0]} communities vs {previous.shape[0]} "
                        f"at the previous boundary",
                    )
                    raise CorruptionDetectedError(
                        f"community-count trajectory violation at boundary "
                        f"{iteration}: {current.shape[0]} distinct labels, "
                        f"previous boundary had {previous.shape[0]} and label "
                        f"sets must be non-increasing"
                    )
            self._boundary_set = current

    def note_rewind(self, labels: np.ndarray) -> None:
        """Re-baseline after the driver restored a verified checkpoint."""
        self.rewinds += 1
        self._labels_crc = array_crc32(labels)
        self._boundary_set = np.unique(labels) if labels.shape[0] else None

    # ------------------------------------------------------------------ #

    def _charge(self, delta: int) -> None:
        """Move ``delta`` bytes in or out of the ledger's ``integrity``
        region (no-op without a governor)."""
        if self.governor is None or delta == 0:
            return
        if delta > 0:
            self.governor.reserve("integrity", delta)
        else:
            self.governor.release("integrity", -delta)
        self._memory_charged += delta

    def release_memory(self) -> int:
        """Return every byte this guard charged; idempotent."""
        released = self._memory_charged
        if self.governor is not None and released:
            self.governor.release("integrity", released)
        self._memory_charged = 0
        self._shadow_charged = 0
        self.governor = None
        return released

    def drain(self) -> KernelCounters:
        """Hand the accumulated modelled audit cost to the caller."""
        pending = self._pending
        self._pending = KernelCounters()
        return pending

    def stats(self) -> dict:
        """Cumulative audit statistics, JSON-ready."""
        return {
            "scrubs": self.scrubs,
            "scrub_repairs": self.scrub_repairs,
            "shadow_replays": self.shadow_replays,
            "spot_audits": self.spot_audits,
            "violations": self.violations,
            "rewinds": self.rewinds,
            "ecc": self.ecc.as_dict(),
        }
