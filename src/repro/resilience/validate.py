"""Input validation & repair: the ingestion gate of the hardening layer.

The paper's fp32 hashtable values make weight hygiene load-bearing: a
single NaN edge weight poisons every scored-label accumulation it touches,
an Inf weight saturates them, and a negative weight silently inverts the
max-reduce's preference — none of which any kernel detects.  Structural
defects (non-monotone offsets, out-of-range neighbour ids, duplicate arcs,
asymmetric arcs in a nominally undirected graph) are equally silent and
strictly worse: they corrupt memory accounting and determinism, not just
quality.

:func:`validate_graph` sweeps a :class:`~repro.graph.csr.CSRGraph` for
both defect families and applies one of three policies:

``strict``
    Report every issue, then raise
    :class:`~repro.errors.GraphValidationError` if any *error*-severity
    issue was found.  The exception carries the full
    :class:`ValidationReport`.
``repair``
    Fix what has a value-preserving fix — NaN weights become the default
    weight 1.0, overflowing/Inf weights clamp to the fp32 maximum,
    negative weights clamp to 0, duplicate arcs merge (``max``, matching
    the build pipeline), missing reverse arcs are added, weight-asymmetric
    pairs take the pair maximum — and return the repaired graph.
``quarantine``
    Drop every offending arc instead of rewriting it (out-of-range
    targets, invalid weights, duplicate extras, unmatched arcs) and return
    the cleaned graph.  The report records how many arcs were quarantined.

Degenerate shapes (empty graph, isolated vertices) and fp32 accumulation
overflow (per-vertex weighted degree exceeding the fp32 maximum — the
scored-labels table saturates even though every individual weight is
finite) are *info*/*warning* issues: always reported, never fatal.

Every sweep returns a machine-readable :class:`ValidationReport`
(``as_dict()`` serialises to JSON without custom encoders), which
:func:`~repro.core.lpa.nu_lpa` attaches as ``result.validation`` and the
CLI prints with ``--validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, GraphValidationError
from repro.graph.build import coo_to_csr
from repro.graph.csr import CSRGraph, structural_issues, unit_weights
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "POLICIES",
    "FP32_MAX",
    "ValidationIssue",
    "ValidationReport",
    "WeightDefects",
    "check_policy",
    "classify_weights",
    "repair_weight_values",
    "validate_graph",
]

#: Validation policies, in increasing order of permissiveness.
POLICIES = ("strict", "repair", "quarantine")

#: Largest finite fp32 value; weights beyond it overflow the paper's
#: hashtable value dtype.
FP32_MAX = float(np.finfo(np.float32).max)

#: Issue severities: ``error`` fails ``strict``; ``warning``/``info`` never do.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class ValidationIssue:
    """One defect class found by a validation sweep."""

    #: Stable machine-readable code, e.g. ``"nan-weight"``.
    code: str
    #: ``"error"`` | ``"warning"`` | ``"info"``.
    severity: str
    #: How many arcs/vertices/rows exhibit the defect.
    count: int
    #: Human-readable description of the defect.
    detail: str
    #: What the policy did: ``"reported"``, ``"repaired"``, ``"quarantined"``.
    action: str = "reported"

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "code": self.code,
            "severity": self.severity,
            "count": self.count,
            "detail": self.detail,
            "action": self.action,
        }


@dataclass
class ValidationReport:
    """Machine-readable outcome of one validation sweep."""

    policy: str
    num_vertices: int = 0
    #: Directed arcs before / after the sweep (differ when arcs were dropped
    #: or reverse arcs added).
    arcs_in: int = 0
    arcs_out: int = 0
    #: Arcs whose weight was rewritten or whose reverse was synthesised.
    repaired_arcs: int = 0
    #: Arcs dropped by the ``quarantine`` policy (or unrecoverable arcs
    #: dropped under ``repair``, e.g. out-of-range targets).
    quarantined_arcs: int = 0
    issues: list[ValidationIssue] = field(default_factory=list)

    def append(self, issue: ValidationIssue) -> None:
        """Record one issue."""
        self.issues.append(issue)

    @property
    def errors(self) -> list[ValidationIssue]:
        """Issues of ``error`` severity."""
        return [i for i in self.issues if i.severity == "error"]

    @property
    def unresolved_errors(self) -> list[ValidationIssue]:
        """Error issues the policy did not repair or quarantine."""
        return [i for i in self.errors if i.action == "reported"]

    @property
    def ok(self) -> bool:
        """Whether the (possibly repaired) graph is safe to run."""
        return not self.unresolved_errors

    @property
    def modified(self) -> bool:
        """Whether the sweep produced a different graph than it was given."""
        return self.repaired_arcs > 0 or self.arcs_in != self.arcs_out

    def by_code(self) -> dict[str, int]:
        """Defect counts keyed by issue code."""
        return {i.code: i.count for i in self.issues}

    def summary(self) -> str:
        """One-line digest for logs and the CLI."""
        if not self.issues:
            return f"clean ({self.policy}): {self.arcs_in} arcs, no issues"
        parts = ", ".join(f"{i.code}={i.count}[{i.action}]" for i in self.issues)
        delta = ""
        if self.modified:
            delta = (f"; arcs {self.arcs_in} -> {self.arcs_out}, "
                     f"{self.repaired_arcs} repaired, "
                     f"{self.quarantined_arcs} quarantined")
        return f"{self.policy}: {parts}{delta}"

    def as_dict(self) -> dict:
        """JSON-ready representation of the whole report."""
        return {
            "policy": self.policy,
            "ok": self.ok,
            "num_vertices": self.num_vertices,
            "arcs_in": self.arcs_in,
            "arcs_out": self.arcs_out,
            "repaired_arcs": self.repaired_arcs,
            "quarantined_arcs": self.quarantined_arcs,
            "issues": [i.as_dict() for i in self.issues],
        }


# --------------------------------------------------------------------- #
# Weight hygiene (shared with the file readers)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WeightDefects:
    """Boolean masks over a weight array, one per defect class."""

    nan: np.ndarray
    #: +Inf or a finite value that would overflow fp32.
    overflow: np.ndarray
    #: Strictly negative, including -Inf.
    negative: np.ndarray

    @property
    def any_mask(self) -> np.ndarray:
        """Union of all defect masks."""
        return self.nan | self.overflow | self.negative

    @property
    def total(self) -> int:
        """Number of defective entries."""
        return int(np.count_nonzero(self.any_mask))


def classify_weights(w: np.ndarray) -> WeightDefects:
    """Classify every weight as NaN / fp32-overflowing / negative.

    Works on float64 arrays (file readers, pre-cast: finite values beyond
    the fp32 range count as overflow) as well as on a graph's own float32
    weights (where overflow already shows up as +Inf).
    """
    w = np.asarray(w)
    nan = np.isnan(w)
    overflow = (w > FP32_MAX) & ~nan
    negative = (w < 0) & ~nan
    return WeightDefects(nan=nan, overflow=overflow, negative=negative)


def repair_weight_values(
    w: np.ndarray, defects: WeightDefects | None = None
) -> tuple[np.ndarray, int]:
    """Return a repaired copy of ``w`` and the number of entries rewritten.

    NaN becomes the library's default weight 1.0, overflowing/+Inf values
    clamp to the fp32 maximum, and negative values (including -Inf) clamp
    to 0 — a zero-weight arc contributes nothing to any label score, which
    is the least surprising reading of a nonsensical weight.
    """
    if defects is None:
        defects = classify_weights(w)
    fixed = np.array(w, copy=True)
    fixed[defects.nan] = 1.0
    fixed[defects.overflow] = FP32_MAX
    fixed[defects.negative] = 0.0
    return fixed, defects.total


# --------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------- #


def check_policy(policy: str) -> None:
    """Raise :class:`ConfigurationError` unless ``policy`` is one of
    :data:`POLICIES`.  Shared with the delta-batch validation in
    :mod:`repro.stream.delta`, which applies the same three policies to
    streamed mutations."""
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown validation policy {policy!r}; choose from {POLICIES}"
        )


#: Backwards-compatible private alias.
_check_policy = check_policy


_UNRECOVERABLE = {
    "bad-offsets-shape",
    "bad-offsets-origin",
    "nonmonotone-offsets",
    "bad-targets-shape",
    "offsets-targets-mismatch",
    "weights-targets-mismatch",
}


def validate_graph(
    graph: CSRGraph,
    policy: str = "strict",
    *,
    undirected: bool = True,
) -> tuple[CSRGraph, ValidationReport]:
    """Sweep ``graph`` for structural and numeric defects under ``policy``.

    Returns ``(graph, report)``; under ``repair``/``quarantine`` the
    returned graph is a rebuilt, cleaned instance whenever anything had to
    change (otherwise the input object itself).  Under ``strict`` any
    error-severity issue raises :class:`GraphValidationError` carrying the
    report; defects no policy can fix (a non-monotone offsets array has no
    unambiguous reading) raise under every policy.

    ``undirected=False`` skips the symmetry checks for callers validating
    a directed intermediate before reverse arcs are added.
    """
    _check_policy(policy)
    report = ValidationReport(policy=policy)

    # ---- structural gate ------------------------------------------------
    raw = structural_issues(graph.offsets, graph.targets, graph.weights)
    unrecoverable = [i for i in raw if i[0] in _UNRECOVERABLE]
    for code, count, detail in unrecoverable:
        report.append(ValidationIssue(code, "error", count, detail))
    if unrecoverable:
        raise GraphValidationError(
            f"graph is structurally unrecoverable: {report.summary()}",
            report=report,
        )

    n = graph.num_vertices
    report.num_vertices = n
    report.arcs_in = graph.num_edges
    src = graph.source_ids()
    dst = graph.targets.astype(VERTEX_DTYPE, copy=True)
    w = graph.weights.astype(np.float64, copy=True)

    dropped = np.zeros(dst.shape[0], dtype=bool)
    repaired = 0
    changed = False

    # Out-of-range targets: recoverable only by dropping the arc.
    oor = [i for i in raw if i[0] == "out-of-range-target"]
    if oor:
        code, count, detail = oor[0]
        mask = (dst < 0) | (dst >= n)
        action = "reported" if policy == "strict" else "quarantined"
        report.append(ValidationIssue(code, "error", count, detail, action))
        if policy != "strict":
            dropped |= mask
            changed = True

    # ---- numeric weight hygiene -----------------------------------------
    defects = classify_weights(w)
    for code, mask, noun in (
        ("nan-weight", defects.nan, "NaN"),
        ("inf-weight", defects.overflow, "Inf/fp32-overflowing"),
        ("negative-weight", defects.negative, "negative"),
    ):
        count = int(np.count_nonzero(mask & ~dropped))
        if not count:
            continue
        where = int(np.flatnonzero(mask & ~dropped)[0])
        detail = (f"{count} arc(s) with {noun} weight "
                  f"(first: arc {where}, {int(src[where])}->{int(dst[where])})")
        if policy == "repair":
            report.append(ValidationIssue(code, "error", count, detail, "repaired"))
        elif policy == "quarantine":
            report.append(ValidationIssue(code, "error", count, detail, "quarantined"))
        else:
            report.append(ValidationIssue(code, "error", count, detail))
    if defects.total:
        if policy == "repair":
            w, fixed = repair_weight_values(w, defects)
            repaired += fixed
            changed = True
        elif policy == "quarantine":
            dropped |= defects.any_mask
            changed = True

    # Work on the surviving arcs from here on.
    if changed and dropped.any():
        keep = ~dropped
        report.quarantined_arcs += int(np.count_nonzero(dropped))
        src, dst, w = src[keep], dst[keep], w[keep]

    # ---- duplicate arcs --------------------------------------------------
    # (guarded keys: every surviving dst is in [0, n) by now)
    if src.shape[0]:
        keys = src * np.int64(max(n, 1)) + dst
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        dup_mask_sorted = np.zeros(skeys.shape[0], dtype=bool)
        dup_mask_sorted[1:] = skeys[1:] == skeys[:-1]
        n_dup = int(np.count_nonzero(dup_mask_sorted))
    else:
        keys = src.astype(np.int64)
        order = np.arange(0)
        dup_mask_sorted = np.zeros(0, dtype=bool)
        n_dup = 0
    if n_dup:
        detail = f"{n_dup} duplicate arc(s) (same source and target)"
        if policy == "strict":
            report.append(ValidationIssue("duplicate-edges", "error", n_dup, detail))
        else:
            action = "repaired" if policy == "repair" else "quarantined"
            report.append(
                ValidationIssue("duplicate-edges", "error", n_dup, detail, action)
            )
            if policy == "repair":
                # Merge groups with max, matching build.deduplicate_edges.
                starts = np.flatnonzero(~dup_mask_sorted)
                merged_w = np.maximum.reduceat(w[order], starts)
                firsts = order[starts]
                src, dst = src[firsts], dst[firsts]
                w = merged_w
                repaired += n_dup
            else:
                keep = np.ones(src.shape[0], dtype=bool)
                keep[order[dup_mask_sorted]] = False
                src, dst, w = src[keep], dst[keep], w[keep]
                report.quarantined_arcs += n_dup
            changed = True

    # ---- symmetry of undirected graphs ----------------------------------
    if undirected and src.shape[0]:
        keys = src * np.int64(max(n, 1)) + dst
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        rkeys = dst * np.int64(max(n, 1)) + src
        pos = np.searchsorted(skeys, rkeys)
        pos_c = np.minimum(pos, skeys.shape[0] - 1)
        has_rev = skeys[pos_c] == rkeys
        unmatched = ~has_rev
        n_unmatched = int(np.count_nonzero(unmatched))
        if n_unmatched:
            first = int(np.flatnonzero(unmatched)[0])
            detail = (f"{n_unmatched} arc(s) without a reverse arc in an "
                      f"undirected graph (first: "
                      f"{int(src[first])}->{int(dst[first])})")
            if policy == "strict":
                report.append(
                    ValidationIssue("asymmetric-arcs", "error", n_unmatched, detail)
                )
            elif policy == "repair":
                report.append(ValidationIssue(
                    "asymmetric-arcs", "error", n_unmatched, detail, "repaired"
                ))
                add_src, add_dst, add_w = dst[unmatched], src[unmatched], w[unmatched]
                src = np.concatenate([src, add_src])
                dst = np.concatenate([dst, add_dst])
                w = np.concatenate([w, add_w])
                repaired += n_unmatched
                changed = True
            else:
                report.append(ValidationIssue(
                    "asymmetric-arcs", "error", n_unmatched, detail, "quarantined"
                ))
                src, dst, w = src[has_rev], dst[has_rev], w[has_rev]
                report.quarantined_arcs += n_unmatched
                changed = True
        elif src.shape[0]:
            # Every arc has a mate; compare pair weights.
            w_rev = w[order[pos_c]]
            # NaN pairs are already reported as nan-weight; != on NaN would
            # double-report them here.
            mismatch = (
                has_rev & (w != w_rev) & ~np.isnan(w) & ~np.isnan(w_rev)
            )
            n_mismatch = int(np.count_nonzero(mismatch))
            if n_mismatch:
                detail = (f"{n_mismatch} arc(s) whose weight differs from "
                          f"the reverse arc's")
                action = "reported" if policy == "strict" else "repaired"
                report.append(ValidationIssue(
                    "asymmetric-weights", "error", n_mismatch, detail, action
                ))
                if policy != "strict":
                    w = np.maximum(w, w_rev)
                    repaired += n_mismatch
                    changed = True

    # ---- degenerate shapes (informational) -------------------------------
    if n == 0:
        report.append(ValidationIssue(
            "empty-graph", "info", 1, "graph has no vertices"
        ))
    else:
        present = np.zeros(n, dtype=bool)
        present[src] = True
        present[dst[(dst >= 0) & (dst < n)]] = True
        isolated = int(n - np.count_nonzero(present))
        if isolated:
            report.append(ValidationIssue(
                "isolated-vertices", "info", isolated,
                f"{isolated} vertex/vertices have no incident arcs"
            ))

    # fp32 accumulation overflow: a vertex's total incident weight (or the
    # graph total) saturates the fp32 scored-labels table even though every
    # individual weight is finite.
    if src.shape[0] and n:
        wdeg = np.zeros(n, dtype=np.float64)
        np.add.at(wdeg, src, w)
        n_over = int(np.count_nonzero(wdeg > FP32_MAX))
        if n_over:
            report.append(ValidationIssue(
                "fp32-accumulation-overflow", "warning", n_over,
                f"{n_over} vertex/vertices accumulate incident weight beyond "
                f"the fp32 maximum ({FP32_MAX:.3e}); scored-label values will "
                f"saturate — consider rescaling weights or value_dtype=float64"
            ))

    # ---- outcome ---------------------------------------------------------
    report.repaired_arcs = repaired
    report.arcs_out = src.shape[0]
    if policy == "strict" and report.errors:
        raise GraphValidationError(
            f"graph failed strict validation: {report.summary()}", report=report
        )
    if changed:
        # Every repair of a unit-weight graph keeps its weights at 1.
        graph = coo_to_csr(
            src.astype(VERTEX_DTYPE),
            dst.astype(VERTEX_DTYPE),
            unit_weights(src.shape[0]) if graph.unit_weight
            else np.clip(w, -FP32_MAX, FP32_MAX).astype(WEIGHT_DTYPE),
            n,
        )
    return graph, report
