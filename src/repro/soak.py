"""The skeleton every soak harness shares.

Every resilience claim in this package rests on one contract:
*strict-LPA determinism* (Sahu, arXiv 2301.09125).  A run that is
crashed, corrupted or squeezed for memory must end bit-identical to a
crash-free reference, or fail with a typed error — never silently wrong.
Five harnesses prove it, each with its own legs:

* :mod:`repro.resilience.chaos` — device faults plus a crash at a
  checkpoint boundary, then resume;
* :mod:`repro.service.soak` — kill/restart of the job service;
* :mod:`repro.stream.soak` — producer and service deaths over a delta log;
* :mod:`repro.integrity.soak` — live SDC and at-rest bit rot;
* :mod:`repro.resilience.memory_soak` — OOM storms, oversized admissions
  and budget shrinks.

This module holds what they share:

* :class:`InjectedCrash`, the simulated process death;
* :func:`drain_through_crashes`, the kill/restart loop over a
  :class:`~repro.service.DetectionService` journal;
* :class:`SoakReport`, the envelope every harness returns.

A soak *record* is a dataclass with three members besides its fields:
``ok`` (the contract held for this schedule), ``silent`` (how many wrong
answers went undetected) and ``counts()`` (what the schedule exercised,
summed into the report's summary line).  :func:`record_dict` serialises
one through :func:`dataclasses.asdict`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from repro.errors import ConfigurationError

__all__ = ["InjectedCrash", "SoakReport", "drain_through_crashes", "record_dict"]

#: Hard cap on restarts per schedule: recovery that loops forever must
#: fail the soak, not hang it.
_MAX_RESTARTS = 64


class InjectedCrash(Exception):
    """A simulated hard process death (kill -9 / power loss).

    Not a ``ReproError`` on purpose: no recovery path in the library is
    allowed to observe it, just as none would observe a real SIGKILL.
    """


def drain_through_crashes(make_service, specs, on_restart=None):
    """Submit ``specs`` and drain, restarting after every injected death.

    ``make_service()`` builds a service over the soak's journal.  Each
    :class:`InjectedCrash` drops the instance and builds a fresh one, whose
    recovery must pick up every admitted job; nothing is resubmitted, so a
    job that recovery loses stays lost.  ``on_restart(service)`` runs after
    each restart.  Returns ``(service, deaths)``.
    """
    service = make_service()
    for spec in specs:
        service.submit(spec)
    deaths = 0
    while True:
        try:
            service.drain()
            return service, deaths
        except InjectedCrash:
            deaths += 1
            if deaths > _MAX_RESTARTS:
                raise ConfigurationError(
                    f"soak exceeded {_MAX_RESTARTS} restarts; recovery is looping"
                ) from None
            service = make_service()
            if on_restart is not None:
                on_restart(service)


def record_dict(record) -> dict:
    """One soak record as a JSON-ready dict, with its verdicts."""
    return {**asdict(record), "ok": record.ok, "silent": record.silent}


@dataclass
class SoakReport:
    """All schedules of one soak run.

    ``kind`` names the document (``repro.observe/<kind>-soak``);
    ``metadata`` holds the run's top-level fields (graph size, engine,
    workload parameters).
    """

    kind: str
    metadata: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def silent(self) -> int:
        """Wrong answers that no check detected, over every schedule."""
        return sum(r.silent for r in self.records)

    @property
    def ok(self) -> bool:
        """At least one schedule ran and every one kept the contract."""
        return bool(self.records) and all(r.ok for r in self.records) and not self.silent

    def totals(self) -> Counter:
        """Each record's ``counts()``, summed."""
        totals: Counter = Counter()
        for record in self.records:
            totals.update({k: int(n) for k, n in record.counts().items()})
        return totals

    def summary(self) -> str:
        """One-line digest."""
        wrong = sum(not r.ok for r in self.records)
        parts = [f"{n} {label}" for label, n in self.totals().items()]
        parts += [f"{self.silent} silent", f"{wrong} wrong"]
        return f"{len(self.records)} schedule(s): " + ", ".join(parts)

    def as_dict(self) -> dict:
        """JSON-ready representation (the CI artifact body)."""
        from repro.observe.schema import SOAK_SCHEMA_VERSIONS

        return {
            "schema": f"repro.observe/{self.kind}-soak",
            "version": SOAK_SCHEMA_VERSIONS[self.kind],
            **self.metadata,
            "num_seeds": len(self.records),
            "ok": self.ok,
            "silent": self.silent,
            "summary": self.summary(),
            "records": [record_dict(r) for r in self.records],
        }
