"""Device-memory governor: an allocation ledger over the modeled GPU.

The paper's headline result is bounded by device memory, not FLOPs — its
largest graphs barely fit an 80 GB A100, and the data-type study exists
because label/value widths decide what fits.  Real CUDA allocations fail
with ``cudaErrorMemoryAllocation``; until this module existed the
simulator's :attr:`~repro.gpu.device.DeviceSpec.global_memory_bytes` was
decoration and every subsystem "allocated" unbounded modeled memory.

:class:`MemoryGovernor` owns a per-device ledger with one row per region
kind (:data:`REGION_KINDS`): CSR arrays, label state, per-vertex
hashtable buffers (including regrowth), workspace-arena slots, integrity
golden/shadow copies, and checkpoint staging.  Call sites that used to
allocate silently now ``reserve`` before materialising and ``release``
when the region dies; a reservation that would exceed the effective
budget — ``global_memory_bytes`` minus a configurable reserved fraction,
minus any injected shrink — raises a typed, retryable
:class:`~repro.errors.DeviceOomError` *before* charging, so a failed
reservation never corrupts the ledger.

Two invariants the rest of the stack depends on:

* **Accounting never changes computation.**  The governor observes
  allocations; it does not size them.  A run under a generous budget is
  bit-identical to a run with no governor at all.
* **Release-before-reserve on regrow/shrink.**  Hashtable regrowth frees
  the old region before claiming the new one, so a regrow rung can never
  double-count ``old + new`` against the budget (see
  :meth:`~repro.core.engine_hashtable.HashtableEngine.grow_tables`).

:func:`estimate_run_footprint` is the analytic twin of the ledger: the
same component formulas the charge sites use, computed from graph shape
alone.  The service's admission control uses it to reject oversized jobs
up front (typed :class:`~repro.errors.MemoryPressure`), and the memory
soak asserts the ledger's high-water marks reconcile with it within
:data:`ESTIMATE_TOLERANCE`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DeviceOomError
from repro.gpu.device import A100, DeviceSpec
from repro.graph.csr import index_dtype

__all__ = [
    "REGION_KINDS",
    "ESTIMATE_TOLERANCE",
    "MemoryGovernor",
    "estimate_run_footprint",
    "footprint_for",
    "wave_edge_bound",
]

#: Ledger rows, one per modeled allocation class.
REGION_KINDS = (
    "csr",         # offsets/targets/weights of the (possibly compact) graph
    "labels",      # label vector + the driver's previous-labels copy
    "hashtable",   # the per-vertex key/value buffers (2|E|·capacity_scale)
    "arena",       # workspace-arena slots, charged at high-water on grow
    "integrity",   # ABFT golden CSR copies + the lazily built shadow twin
    "checkpoint",  # staging buffer while a checkpoint generation serialises
)

#: Stated reconciliation tolerance between the ledger's high-water mark
#: and the graph-aware estimate (:func:`footprint_for`).  The estimate is
#: an admission *upper bound* (the arena term is deliberately
#: conservative), so the memory soak checks a one-sided band: the
#: high-water mark must cover the exact-size regions
#: (csr + labels + hashtable) and exceed the estimated total by at most
#: ``tol * estimate``.  Usage below the total is safe headroom.
ESTIMATE_TOLERANCE = 0.35

#: Workspace-arena high-water estimate, bytes per *wave* arc.  The
#: arena's dominant slots are gather/sort/reduce scratch sized by the
#: largest residency wave's edge range (every edge-shaped role is one
#: int64 slot; the hashtable engine runs roughly twice as many roles).
#: Calibrated against a slot census of the measured ledger high-water of
#: both engines across degree regimes; ``tests/gpu/test_governor.py``
#: pins the reconciliation within :data:`ESTIMATE_TOLERANCE`.
_ARENA_BYTES_PER_WAVE_EDGE = {
    "vectorized": 230.0,
    "hashtable": 480.0,
}
#: Arena per-vertex term (frontier flags/order/degree scratch).
_ARENA_BYTES_PER_VERTEX = {
    "vectorized": 200.0,
    "hashtable": 300.0,
}


class MemoryGovernor:
    """Per-device allocation ledger with budget enforcement.

    Parameters
    ----------
    device:
        The :class:`~repro.gpu.device.DeviceSpec` whose
        ``global_memory_bytes`` caps the ledger (A100 by default).
    budget_bytes:
        Overrides the device capacity (for tests and the CLI's
        ``--memory-budget``); ``None`` uses the device's.
    reserved_fraction:
        Fraction of the budget held back for the driver/runtime (CUDA
        context, kernel images, fragmentation slack).  The effective
        budget is ``budget * (1 - reserved_fraction)``.
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`; every ledger
        transaction emits a :class:`~repro.observe.trace.MemoryEvent`
        and every failure an :class:`~repro.observe.trace.OomEvent`.
    """

    __slots__ = (
        "device", "tracer", "reserved_fraction",
        "_base_budget", "_shrink_bytes",
        "_in_use", "_region_high_water",
        "high_water_bytes", "seq",
        "reserves", "releases", "ooms", "shrinks", "underflows",
    )

    def __init__(
        self,
        device: DeviceSpec = A100,
        *,
        budget_bytes: int | None = None,
        reserved_fraction: float = 0.0,
        tracer=None,
    ) -> None:
        if not 0.0 <= reserved_fraction < 1.0:
            raise ConfigurationError(
                f"reserved_fraction must lie in [0, 1); got {reserved_fraction}"
            )
        base = device.global_memory_bytes if budget_bytes is None else budget_bytes
        if base <= 0:
            raise ConfigurationError(
                f"memory budget must be positive; got {base}"
            )
        self.device = device
        self.tracer = tracer
        self.reserved_fraction = float(reserved_fraction)
        self._base_budget = int(base)
        #: Budget bytes removed by injected ``"oom"`` faults.
        self._shrink_bytes = 0
        self._in_use = dict.fromkeys(REGION_KINDS, 0)
        self._region_high_water = dict.fromkeys(REGION_KINDS, 0)
        #: Highest ledger total ever observed (the reconciliation mark).
        self.high_water_bytes = 0
        #: Transaction sequence number (the trace events' ``iteration``).
        self.seq = 0
        self.reserves = 0
        self.releases = 0
        self.ooms = 0
        self.shrinks = 0
        #: Releases that exceeded the region's charge (clamped to zero);
        #: any non-zero value is an accounting bug upstream.
        self.underflows = 0

    # ------------------------------------------------------------------ #
    # Budget arithmetic
    # ------------------------------------------------------------------ #

    @property
    def budget_bytes(self) -> int:
        """Effective budget: capacity minus reserve minus injected shrink."""
        usable = int(self._base_budget * (1.0 - self.reserved_fraction))
        return max(0, usable - self._shrink_bytes)

    @property
    def in_use_bytes(self) -> int:
        """Current ledger total across all regions."""
        return sum(self._in_use.values())

    def region_bytes(self, region: str) -> int:
        """Current charge of one region."""
        return self._in_use[region]

    def region_high_water(self, region: str) -> int:
        """Highest charge one region ever carried."""
        return self._region_high_water[region]

    def would_fit(self, nbytes: int) -> bool:
        """Whether reserving ``nbytes`` more would stay within budget."""
        return self.in_use_bytes + int(nbytes) <= self.budget_bytes

    def over_budget(self) -> bool:
        """Whether the standing ledger already exceeds the budget
        (possible after an injected mid-run shrink)."""
        return self.in_use_bytes > self.budget_bytes

    # ------------------------------------------------------------------ #
    # Ledger transactions
    # ------------------------------------------------------------------ #

    def _emit(self, region: str, action: str, nbytes: int) -> None:
        if self.tracer is not None and self.tracer.enabled:
            from repro.observe.trace import MemoryEvent

            self.tracer.emit(MemoryEvent(
                iteration=self.seq, region=region, action=action,
                nbytes=int(nbytes), in_use_bytes=self.in_use_bytes,
                budget_bytes=self.budget_bytes,
            ))

    def oom(self, region: str, requested_bytes: int) -> DeviceOomError:
        """Build (and trace) the typed error for a failed reservation."""
        self.ooms += 1
        if self.tracer is not None and self.tracer.enabled:
            from repro.observe.trace import OomEvent

            self.tracer.emit(OomEvent(
                iteration=self.seq, region=region,
                requested_bytes=int(requested_bytes),
                in_use_bytes=self.in_use_bytes,
                budget_bytes=self.budget_bytes,
            ))
        return DeviceOomError(
            f"device OOM: reserving {int(requested_bytes):,} bytes for "
            f"'{region}' with {self.in_use_bytes:,} in use would exceed "
            f"the {self.budget_bytes:,}-byte effective budget "
            f"({self.device.name})",
            region=region,
            requested_bytes=int(requested_bytes),
            in_use_bytes=self.in_use_bytes,
            budget_bytes=self.budget_bytes,
        )

    def reserve(self, region: str, nbytes: int) -> int:
        """Charge ``nbytes`` to ``region``; raise before charging on OOM.

        Returns the bytes charged so call sites can stash the figure for
        the matching :meth:`release`.
        """
        if region not in self._in_use:
            raise ConfigurationError(
                f"unknown ledger region {region!r}; expected one of "
                f"{REGION_KINDS}"
            )
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ConfigurationError(
                f"cannot reserve a negative size ({nbytes})"
            )
        self.seq += 1
        if self.in_use_bytes + nbytes > self.budget_bytes:
            raise self.oom(region, nbytes)
        self._in_use[region] += nbytes
        self.reserves += 1
        self._region_high_water[region] = max(
            self._region_high_water[region], self._in_use[region]
        )
        self.high_water_bytes = max(self.high_water_bytes, self.in_use_bytes)
        self._emit(region, "reserve", nbytes)
        return nbytes

    def release(self, region: str, nbytes: int) -> None:
        """Return ``nbytes`` of ``region`` to the budget.

        Releasing more than the region's standing charge clamps to zero
        and counts an :attr:`underflows` — the ledger never goes
        negative, and the regression tests pin the counter at zero.
        """
        if region not in self._in_use:
            raise ConfigurationError(
                f"unknown ledger region {region!r}; expected one of "
                f"{REGION_KINDS}"
            )
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ConfigurationError(
                f"cannot release a negative size ({nbytes})"
            )
        self.seq += 1
        if nbytes > self._in_use[region]:
            self.underflows += 1
            nbytes = self._in_use[region]
        self._in_use[region] -= nbytes
        self.releases += 1
        self._emit(region, "release", nbytes)

    def shrink_budget(
        self, nbytes: int | None = None, *, to_fraction_of_use: float = 0.5
    ) -> int:
        """Remove modeled capacity mid-run (the ``"oom"`` fault's lever).

        With an explicit ``nbytes`` that many bytes vanish from the
        effective budget.  Without one, the budget drops to
        ``to_fraction_of_use`` of the *current ledger total* — the
        deterministic "a co-tenant just grabbed half your memory" shape,
        guaranteed to leave the ledger over budget whenever anything is
        charged.  Returns the new effective budget.
        """
        self.seq += 1
        if nbytes is None:
            target = int(self.in_use_bytes * to_fraction_of_use)
            nbytes = max(0, self.budget_bytes - target)
        self._shrink_bytes += max(0, int(nbytes))
        self.shrinks += 1
        self._emit("", "shrink-budget", int(nbytes))
        return self.budget_bytes

    def restore_budget(self) -> int:
        """Undo every injected shrink (a fresh attempt on a clean device)."""
        self._shrink_bytes = 0
        return self.budget_bytes

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """JSON-ready ledger snapshot (feeds ``stats()["memory"]``)."""
        return {
            "device": self.device.name,
            "budget_bytes": self.budget_bytes,
            "reserved_fraction": self.reserved_fraction,
            "in_use_bytes": self.in_use_bytes,
            "high_water_bytes": self.high_water_bytes,
            "regions": dict(self._in_use),
            "region_high_water": dict(self._region_high_water),
            "reserves": self.reserves,
            "releases": self.releases,
            "ooms": self.ooms,
            "shrinks": self.shrinks,
            "underflows": self.underflows,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryGovernor(in_use={self.in_use_bytes:,}, "
            f"budget={self.budget_bytes:,}, ooms={self.ooms})"
        )


# ---------------------------------------------------------------------- #
# Analytic footprint estimation
# ---------------------------------------------------------------------- #


def estimate_run_footprint(
    num_vertices: int,
    num_edges: int,
    *,
    compact: bool = True,
    value_itemsize: int = 4,
    capacity_scale: float = 1.0,
    engine: str = "vectorized",
    integrity: bool = False,
    checkpointing: bool = False,
    wave_edges: int | None = None,
) -> dict:
    """Analytic peak footprint of one run, per ledger region, in bytes.

    The formulas mirror the charge sites exactly — CSR and labels are
    itemsize-accurate, the hashtable term is the two ``2·M·scale`` flat
    buffers (4-byte device keys + ``value_itemsize`` values), integrity
    doubles the CSR (golden copies) and the engine state (shadow twin),
    and the arena term is the calibrated per-wave-edge/per-vertex scratch
    high-water.  ``wave_edges`` bounds the largest residency wave's edge
    range; without it the estimate assumes the whole graph fits one wave
    (``wave_edges = M``, the conservative single-wave worst case —
    :func:`footprint_for` computes the real bound from the degree
    distribution).  ``total`` sums the components.
    """
    n, m = int(num_vertices), int(num_edges)
    index_itemsize = 4 if compact else 8
    csr = index_itemsize * (n + 1) + (index_itemsize + 4) * m
    labels = 2 * (4 if compact else 8) * n  # labels + previous-labels copy
    hashtable = 0
    if engine == "hashtable":
        slots = max(1, int(2 * m * capacity_scale))
        hashtable = slots * (4 + int(value_itemsize))
    w = m if wave_edges is None else min(int(wave_edges), m)
    arena = int(
        _ARENA_BYTES_PER_WAVE_EDGE[engine] * w
        + _ARENA_BYTES_PER_VERTEX[engine] * n
    )
    integ = 0
    if integrity:
        # Golden CSR copies plus the lazily built shadow twin (its own
        # tables and arena, grown in lockstep with the primary).
        integ = csr + hashtable + arena
    checkpoint = 0
    if checkpointing:
        # Labels + changed-flags staging while a generation serialises.
        checkpoint = (4 if compact else 8) * n + n
    components = {
        "csr": csr,
        "labels": labels,
        "hashtable": hashtable,
        "arena": arena,
        "integrity": integ,
        "checkpoint": checkpoint,
    }
    components["total"] = sum(components.values())
    return components


def wave_edge_bound(graph, config) -> int:
    """Edge range of the largest residency wave, from the degree mix.

    Vertices at or below ``switch_degree`` run on the thread-per-vertex
    kernel (waves of ``max_resident_threads`` vertices); the rest run
    block-per-vertex (waves of ``max_resident_blocks``).  The arena's
    edge-shaped scratch is sized by the largest wave it ever serves, so
    this bound — thread-wave edges plus the heaviest possible block
    wave — is what the arena estimate scales with.
    """
    degrees = np.asarray(graph.degrees)
    if degrees.shape[0] == 0:
        return 0
    device = getattr(config, "device", A100)
    switch = int(getattr(config, "switch_degree", 32))
    low = degrees <= switch
    e_low = int(degrees[low].sum())
    n_low = int(np.count_nonzero(low))
    thread_wave = device.max_resident_threads
    if n_low > thread_wave > 0:
        # Multiple thread waves: scale by the average per-wave share.
        e_thread = -(-e_low * thread_wave // n_low)
    else:
        e_thread = e_low
    high = np.sort(degrees[~low])[::-1]
    e_block = int(high[: device.max_resident_blocks].sum()) if high.shape[0] else 0
    return min(int(graph.num_edges), int(e_thread) + e_block)


def footprint_for(
    graph,
    config,
    *,
    engine: str = "vectorized",
    integrity: bool = False,
    checkpointing: bool = False,
) -> dict:
    """:func:`estimate_run_footprint` bound to a graph and an ``LPAConfig``.

    Resolves the compact-layout decision the way the driver does (the
    config wants it *and* the shape fits 32-bit indices), pulls the value
    itemsize from the config's dtype, and bounds the arena term with the
    graph's real :func:`wave_edge_bound`.  Duck-typed on purpose:
    importing :mod:`repro.core.config` here would cycle the package
    graph.
    """
    compact = bool(getattr(config, "compact_layout", True)) and (
        index_dtype(graph.num_vertices, graph.num_edges) == np.int32
    )
    value_itemsize = np.dtype(getattr(config, "value_dtype", np.float32)).itemsize
    return estimate_run_footprint(
        graph.num_vertices,
        graph.num_edges,
        compact=compact,
        value_itemsize=value_itemsize,
        engine=engine,
        integrity=integrity,
        checkpointing=checkpointing,
        wave_edges=wave_edge_bound(graph, config),
    )
