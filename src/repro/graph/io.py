"""Graph file IO: edge lists, Matrix Market, and METIS formats.

The paper loads SuiteSparse ``.mtx`` files; we support that format plus the
plain SNAP-style edge lists and METIS adjacency files common in the
community-detection literature, all funnelling into the same
:func:`repro.graph.build.from_edges` pipeline.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import zlib
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "read_edgelist",
    "write_edgelist",
    "read_matrix_market",
    "write_matrix_market",
    "read_metis",
    "write_metis",
    "load_graph",
]


def _open_text(path: str | Path, mode: str = "rt") -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def _compressed_offset(fh: IO[str]) -> int | None:
    """Best-effort compressed byte position of a gzip text stream."""
    try:
        raw = getattr(fh, "buffer", fh)  # TextIOWrapper -> GzipFile
        inner = getattr(raw, "fileobj", None)  # GzipFile -> raw file
        if inner is not None:
            return int(inner.tell())
    except (OSError, ValueError):
        pass
    return None


@contextlib.contextmanager
def _truncation_guard(path: str | Path, fh: IO[str]) -> Iterator[None]:
    """Convert gzip truncation/corruption into :class:`GraphFormatError`.

    A ``.gz`` edge list cut off mid-transfer otherwise surfaces as a bare
    ``EOFError`` (no end-of-stream marker) or ``BadGzipFile``/``zlib.error``
    (corrupt CRC or deflate data) from deep inside the decompressor, with no
    hint of which file or where.
    """
    try:
        yield
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        offset = _compressed_offset(fh)
        where = f" near compressed byte {offset}" if offset is not None else ""
        detail = str(exc) or type(exc).__name__
        raise GraphFormatError(
            f"{path}: truncated or corrupt gzip stream{where}: {detail}"
        ) from exc


# --------------------------------------------------------------------- #
# Parse-time weight hygiene
# --------------------------------------------------------------------- #

_WEIGHT_POLICIES = ("strict", "repair", "quarantine")


def _weight_hygiene(
    w: np.ndarray | None,
    linenos: np.ndarray | None,
    path: str | Path,
    policy: str,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Apply a weight-defect policy to freshly parsed edge weights.

    NaN, infinite, fp32-overflowing, and negative weights are defects no
    reader should let through silently: they poison the label-score
    accumulators downstream.  Returns ``(weights, keep_mask)`` where
    ``keep_mask`` is ``None`` unless ``quarantine`` dropped entries.

    ``strict`` raises :class:`GraphFormatError` naming the first offending
    file line; ``repair`` rewrites in place (NaN → 1.0, overflow/+Inf →
    fp32 max, negative → 0.0, matching
    :func:`repro.resilience.validate.repair_weight_values`); ``quarantine``
    drops the offending entries.
    """
    if policy not in _WEIGHT_POLICIES:
        raise GraphFormatError(
            f"unknown weight policy {policy!r}; choose from {_WEIGHT_POLICIES}"
        )
    if w is None or w.shape[0] == 0:
        return w, None
    # Deferred import: repro.resilience.validate imports the graph builders,
    # which would re-enter this module during package initialisation.
    from repro.resilience.validate import classify_weights, repair_weight_values

    defects = classify_weights(w)
    if not defects.total:
        return w, None
    if policy == "repair":
        fixed, _ = repair_weight_values(w, defects)
        return fixed, None
    if policy == "quarantine":
        return w, ~defects.any_mask
    bad = defects.any_mask
    idx = int(np.flatnonzero(bad)[0])
    kind = (
        "NaN" if defects.nan[idx]
        else "overflowing/infinite" if defects.overflow[idx]
        else "negative"
    )
    where = (
        f" on line {int(linenos[idx])}" if linenos is not None else f" at entry {idx}"
    )
    more = f" (+{defects.total - 1} more defective weight(s))" if defects.total > 1 else ""
    raise GraphFormatError(
        f"{path}: {kind} edge weight {float(w[idx])!r}{where}{more}; "
        f"pass validate='repair' or 'quarantine' to load anyway"
    )


def _vertex_ids(
    values: np.ndarray, linenos: np.ndarray, path: str | Path
) -> np.ndarray:
    """A parsed id column as int64, refusing ids that are not integers.

    Ids are parsed as float64 alongside the weights, so a token such as
    ``1.5``, ``nan`` or ``1e300`` would otherwise truncate to some other
    vertex without a word.  Past ``2**53`` float64 no longer holds every
    integer, so such ids are refused too.
    """
    bad = ~(np.abs(values) < 2.0**53) | (values != np.floor(values))
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise GraphFormatError(
            f"{path}: vertex id {float(values[idx])!r} on line "
            f"{int(linenos[idx])} is not an integer"
        )
    return values.astype(VERTEX_DTYPE)


# --------------------------------------------------------------------- #
# Edge lists (SNAP style)
# --------------------------------------------------------------------- #


def _malformed_row(rows: list[str], ncols: int) -> tuple[int, str] | None:
    """The first data row ``np.loadtxt`` cannot parse, and why.

    Indexes ``rows`` (data rows, comment lines already dropped), so the
    caller maps it to a file line; ``np.loadtxt``'s own ``at row R``
    counts those data rows and is 0- or 1-based depending on the error.
    Text after ``#`` is dropped, as ``np.loadtxt`` does.
    """
    for idx, row in enumerate(rows):
        tokens = row.split("#", 1)[0].split()
        if len(tokens) < ncols:
            return idx, f"{len(tokens)} column(s), expected {ncols}"
        for token in tokens[:ncols]:
            try:
                float(token)
            except ValueError:
                return idx, f"could not convert {token!r} to a number"
    return None


def read_edgelist(
    path: str | Path,
    *,
    comments: str = "#",
    weighted: bool | None = None,
    symmetrize: bool = True,
    validate: str = "strict",
) -> CSRGraph:
    """Read a whitespace-separated edge list.

    Lines are ``u v`` or ``u v w``; ``weighted=None`` auto-detects from the
    first data line.  Comment lines starting with ``comments`` (SNAP uses
    ``#``) are skipped.  Ids need not be dense — they are compacted.
    ``validate`` is the weight-defect policy (``strict``/``repair``/
    ``quarantine``; see :func:`_weight_hygiene`).
    """
    rows: list[str] = []
    row_linenos: list[int] = []
    with _open_text(path) as fh, _truncation_guard(path, fh):
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            rows.append(line)
            row_linenos.append(lineno)
    if not rows:
        return from_edges(
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=VERTEX_DTYPE),
            num_vertices=0,
        )

    first_cols = rows[0].split()
    if weighted is None:
        weighted = len(first_cols) >= 3
    ncols = 3 if weighted else 2

    try:
        data = np.loadtxt(
            io.StringIO("\n".join(rows)), dtype=np.float64, usecols=range(ncols),
            ndmin=2,
        )
    except ValueError as exc:
        where = _malformed_row(rows, ncols)
        if where is None:
            raise GraphFormatError(f"malformed edge list {path}: {exc}") from exc
        idx, reason = where
        raise GraphFormatError(
            f"{path}: malformed edge list on line {row_linenos[idx]}: {reason}"
        ) from exc

    linenos = np.asarray(row_linenos, dtype=np.int64)
    src = _vertex_ids(data[:, 0], linenos, path)
    dst = _vertex_ids(data[:, 1], linenos, path)
    w = None
    if weighted:
        w, keep = _weight_hygiene(data[:, 2], linenos, path, validate)
        if keep is not None:
            src, dst, w = src[keep], dst[keep], w[keep]
        w = w.astype(WEIGHT_DTYPE)

    # Compact ids: SNAP graphs frequently have gaps.
    ids = np.unique(np.concatenate([src, dst]))
    remap = np.searchsorted(ids, np.concatenate([src, dst]))
    src, dst = remap[: src.shape[0]], remap[src.shape[0] :]
    return from_edges(src, dst, w, num_vertices=ids.shape[0], symmetrize=symmetrize)


def write_edgelist(graph: CSRGraph, path: str | Path, *, weighted: bool = True) -> None:
    """Write each undirected edge once (``u <= v``) as ``u v [w]``."""
    src = graph.source_ids()
    keep = src <= graph.targets
    with _open_text(path, "wt") as fh:
        fh.write(f"# repro edge list: {graph.num_vertices} vertices\n")
        s, d, w = src[keep], graph.targets[keep], graph.weights[keep]
        for i in range(s.shape[0]):
            if weighted:
                fh.write(f"{s[i]} {d[i]} {w[i]:g}\n")
            else:
                fh.write(f"{s[i]} {d[i]}\n")


# --------------------------------------------------------------------- #
# Matrix Market
# --------------------------------------------------------------------- #


def read_matrix_market(
    path: str | Path, *, symmetrize: bool = True, validate: str = "strict"
) -> CSRGraph:
    """Read a SuiteSparse-style ``.mtx`` adjacency matrix.

    Supports ``coordinate`` format with ``pattern``/``real``/``integer``
    fields and ``general``/``symmetric`` symmetry.  A ``symmetric`` header
    stores the lower triangle only; the builder restores reverse arcs.
    ``validate`` is the weight-defect policy (``strict``/``repair``/
    ``quarantine``; see :func:`_weight_hygiene`).
    """
    with _open_text(path) as fh, _truncation_guard(path, fh):
        header = fh.readline()
        # First body line: header (1) + size line (1) + 1 = 3, plus one per
        # comment line skipped below.
        body_start = 3
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError(f"{path}: missing MatrixMarket header")
        tokens = header.lower().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise GraphFormatError(
                f"{path}: only 'matrix coordinate' files are supported"
            )
        field, symmetry = tokens[3], tokens[4]
        if field not in ("pattern", "real", "integer"):
            raise GraphFormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise GraphFormatError(f"{path}: unsupported symmetry {symmetry!r}")

        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
            body_start += 1
        try:
            nrows, ncols, nnz = (int(tok) for tok in line.split())
        except ValueError as exc:
            raise GraphFormatError(f"{path}: bad size line {line!r}") from exc
        if nrows != ncols:
            raise GraphFormatError(f"{path}: adjacency must be square")

        body = fh.read()

    ncols_data = 2 if field == "pattern" else 3
    try:
        data = np.loadtxt(io.StringIO(body), dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise GraphFormatError(
            f"{path}: malformed entries (row 0 is line {body_start}): {exc}"
        ) from exc
    if data.shape[0] != nnz:
        raise GraphFormatError(
            f"{path}: header promises {nnz} entries, file has {data.shape[0]}"
        )
    if data.shape[0] and data.shape[1] < ncols_data:
        raise GraphFormatError(f"{path}: expected {ncols_data} columns")

    linenos = body_start + np.arange(data.shape[0], dtype=np.int64)
    src = _vertex_ids(data[:, 0], linenos, path) - 1  # 1-indexed on disk
    dst = _vertex_ids(data[:, 1], linenos, path) - 1
    w = None
    if field != "pattern":
        w, keep = _weight_hygiene(data[:, 2], linenos, path, validate)
        if keep is not None:
            src, dst, w = src[keep], dst[keep], w[keep]
        w = w.astype(WEIGHT_DTYPE)
    return from_edges(src, dst, w, num_vertices=nrows, symmetrize=symmetrize)


def write_matrix_market(graph: CSRGraph, path: str | Path) -> None:
    """Write the lower triangle as a symmetric real coordinate matrix."""
    src = graph.source_ids()
    keep = src >= graph.targets  # lower triangle incl. diagonal
    s, d, w = src[keep], graph.targets[keep], graph.weights[keep]
    with _open_text(path, "wt") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{graph.num_vertices} {graph.num_vertices} {s.shape[0]}\n")
        for i in range(s.shape[0]):
            fh.write(f"{s[i] + 1} {d[i] + 1} {w[i]:g}\n")


# --------------------------------------------------------------------- #
# METIS
# --------------------------------------------------------------------- #


def read_metis(path: str | Path, *, validate: str = "strict") -> CSRGraph:
    """Read a METIS adjacency file (1-indexed; optional edge weights).

    Blank lines are significant — they are the adjacency rows of isolated
    vertices — so only comment lines are dropped.  ``validate`` is the
    weight-defect policy (``strict``/``repair``/``quarantine``; see
    :func:`_weight_hygiene`), applied with vertex-line context.
    """
    with _open_text(path) as fh, _truncation_guard(path, fh):
        numbered = [
            (no, ln.strip())
            for no, ln in enumerate(fh, 1)
            if not ln.startswith("%")
        ]
    while numbered and not numbered[-1][1]:
        numbered.pop()  # trailing newline padding
    if not numbered or not numbered[0][1]:
        raise GraphFormatError(f"{path}: empty METIS file")
    head = numbered[0][1].split()
    if len(head) < 2:
        raise GraphFormatError(f"{path}: bad METIS header {numbered[0][1]!r}")
    n, m = int(head[0]), int(head[1])
    fmt = head[2] if len(head) > 2 else "0"
    has_edge_weights = len(fmt) >= 1 and fmt[-1] == "1"
    if len(numbered) - 1 != n:
        raise GraphFormatError(
            f"{path}: header promises {n} vertex lines, found {len(numbered) - 1}"
        )

    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    linenos: list[np.ndarray] = []
    for i, (lineno, line) in enumerate(numbered[1:]):
        try:
            vals = np.fromstring(line, dtype=np.float64, sep=" ")
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}: malformed adjacency on line {lineno}: {exc}"
            ) from exc
        if has_edge_weights:
            if vals.shape[0] % 2:
                raise GraphFormatError(f"{path}: odd token count on line {lineno}")
            ids = vals[0::2]
            ws.append(vals[1::2])
        else:
            ids = vals
        nbrs = _vertex_ids(ids, np.full(ids.shape[0], lineno), path) - 1
        srcs.append(np.full(nbrs.shape[0], i, dtype=VERTEX_DTYPE))
        dsts.append(nbrs)
        linenos.append(np.full(nbrs.shape[0], lineno, dtype=np.int64))

    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=VERTEX_DTYPE)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=VERTEX_DTYPE)
    w = None
    dropped = False
    if has_edge_weights:
        w = np.concatenate(ws) if ws else np.empty(0, dtype=np.float64)
        lines = np.concatenate(linenos) if linenos else np.empty(0, np.int64)
        w, keep = _weight_hygiene(w, lines, path, validate)
        dropped = keep is not None
        if dropped:
            src, dst, w = src[keep], dst[keep], w[keep]
        w = w.astype(WEIGHT_DTYPE)
    graph = from_edges(src, dst, w, num_vertices=n, symmetrize=True)
    if not dropped and graph.num_undirected_edges != m:
        # METIS headers count undirected edges; tolerate mismatch but flag
        # it.  Skipped after quarantine — dropping arcs changes the count
        # on purpose.
        raise GraphFormatError(
            f"{path}: header edge count {m} != parsed {graph.num_undirected_edges}"
        )
    return graph


def write_metis(graph: CSRGraph, path: str | Path) -> None:
    """Write METIS format with edge weights (fmt code 001)."""
    with _open_text(path, "wt") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_undirected_edges} 001\n")
        for i in range(graph.num_vertices):
            nbrs = graph.neighbors(i)
            wts = graph.neighbor_weights(i)
            parts = [f"{nbrs[k] + 1} {wts[k]:g}" for k in range(nbrs.shape[0])]
            fh.write(" ".join(parts) + "\n")


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #

_SUFFIX_READERS = {
    ".mtx": read_matrix_market,
    ".graph": read_metis,
    ".metis": read_metis,
    ".txt": read_edgelist,
    ".edges": read_edgelist,
    ".el": read_edgelist,
}


def load_graph(path: str | Path, *, validate: str = "strict") -> CSRGraph:
    """Load a graph, dispatching on file suffix (``.gz`` transparent).

    ``validate`` is the parse-time weight-defect policy threaded to every
    reader (``strict``/``repair``/``quarantine``); the full structural
    sweep lives in :func:`repro.resilience.validate.validate_graph` and
    runs via ``nu_lpa(..., validate=...)``.
    """
    p = Path(path)
    suffix = p.suffixes[-2] if p.suffix == ".gz" and len(p.suffixes) >= 2 else p.suffix
    reader = _SUFFIX_READERS.get(suffix)
    if reader is None:
        raise GraphFormatError(
            f"cannot infer format of {path!r}; known suffixes: "
            f"{sorted(_SUFFIX_READERS)}"
        )
    return reader(p, validate=validate)
