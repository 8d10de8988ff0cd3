"""A literal statement of graph preparation (the paper's Section 5.1.3).

:func:`repro.graph.build.from_edges` sorts each arc once: dedupe sorts
packed ``key << b | index`` values in place, the CSR pack trusts the
key-sorted rows dedupe leaves, and the web generator answers its
inverse-CDF draws over sorted queries.  The functions below state the
same pipeline the plain way, as the oracle the differential tests
compare it with — the role :mod:`tests.reference_sweep` plays for
Algorithm 2 and :mod:`tests.reference_delta` for delta batches:

* :func:`reference_deduplicate_edges` groups parallel arcs by a stable
  ``argsort`` of ``src * n + dst`` and merges each group's weights in
  input order (``max``, float64 ``sum``, or ``first``);
* :func:`reference_coo_to_csr` counts rows and always stable-argsorts
  ``src`` to pack the targets and weights, storing offsets and targets
  as int32 exactly when the vertex and arc counts fit int32;
* :func:`reference_from_edges` adds reverse arcs for non-loops, dedupes
  and packs with the two above;
* :func:`reference_inverse_cdf` is one ``np.searchsorted`` in draw order.

Unit weights follow one rule: each function computes with real arrays of
ones, and its output is a :func:`~repro.graph.csr.unit_weights` view
exactly when its input was one and every weight it produced is 1 (so
only a ``sum`` that merges parallel arcs materialises weights).

:func:`reference_build` swaps these in for every module that bound the
production :func:`~repro.graph.build.from_edges` and for the web
generator's sampler, so a stand-in generated inside the block is its
reference build.  Input validation (:func:`repro.graph.build._as_edge_arrays`)
is shared, not restated.

Run from the repository root with ``PYTHONPATH=src:.`` to import this
module outside pytest.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph import build
from repro.graph.csr import CSRGraph, is_unit, unit_weights
from repro.graph.generators import webgraph
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "reference_build",
    "reference_coo_to_csr",
    "reference_deduplicate_edges",
    "reference_from_edges",
    "reference_inverse_cdf",
]


def _as_unit_when(unit, w):
    """``w`` as a unit view if the input was unit and ``w`` is all ones."""
    return unit_weights(w.shape[0]) if unit and np.all(w == 1) else w


def reference_deduplicate_edges(
    src, dst, weights=None, *, num_vertices=None, combine="max"
):
    src, dst, w = build._as_edge_arrays(src, dst, weights)
    if src.shape[0] == 0:
        return src, dst, w
    unit = is_unit(w)
    w = np.array(w)
    top = int(max(src.max(), dst.max()))
    n = top + 1 if num_vertices is None else num_vertices
    if top >= n:
        raise GraphConstructionError(f"num_vertices={n} too small for max id {top}")
    keys = src * np.int64(n) + dst
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    first = np.ones(keys_sorted.shape[0], dtype=bool)
    first[1:] = keys_sorted[1:] != keys_sorted[:-1]
    starts = np.flatnonzero(first)
    w_sorted = w[order]
    if combine == "sum":
        merged = np.add.reduceat(w_sorted.astype(np.float64), starts).astype(
            WEIGHT_DTYPE
        )
    elif combine == "max":
        merged = np.maximum.reduceat(w_sorted, starts)
    elif combine == "first":
        merged = w_sorted[starts]
    else:
        raise GraphConstructionError(f"unknown combine mode {combine!r}")
    uniq = keys_sorted[starts]
    return (
        (uniq // n).astype(VERTEX_DTYPE),
        (uniq % n).astype(VERTEX_DTYPE),
        _as_unit_when(unit, merged),
    )


def reference_coo_to_csr(src, dst, weights, num_vertices) -> CSRGraph:
    int32_max = np.iinfo(np.int32).max
    fits = num_vertices <= int32_max and dst.shape[0] <= int32_max
    width = np.int32 if fits else OFFSET_DTYPE
    counts = np.bincount(src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=width)
    np.cumsum(counts, out=offsets[1:])
    order = np.argsort(src, kind="stable")
    return CSRGraph(
        offsets, dst[order].astype(width),
        _as_unit_when(is_unit(weights), np.array(weights)[order]),
        validate=False,
    )


def reference_from_edges(
    src, dst, weights=None, *, num_vertices=None, symmetrize=True,
    dedupe=True, combine="max",
) -> CSRGraph:
    src, dst, w = build._as_edge_arrays(src, dst, weights)
    top = int(max(src.max(), dst.max())) if src.shape[0] else -1
    if num_vertices is None:
        num_vertices = top + 1
    elif num_vertices <= top:
        raise GraphConstructionError(
            f"num_vertices={num_vertices} too small for max id {top}"
        )
    if symmetrize:
        non_loop = src != dst
        src, dst, w = (
            np.concatenate([src, dst[non_loop]]),
            np.concatenate([dst, src[non_loop]]),
            _as_unit_when(is_unit(w), np.concatenate([w, w[non_loop]])),
        )
    if dedupe:
        src, dst, w = reference_deduplicate_edges(
            src, dst, w, num_vertices=num_vertices, combine=combine
        )
    return reference_coo_to_csr(src, dst, w, num_vertices)


def reference_inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(cum, u).astype(VERTEX_DTYPE)


@contextmanager
def reference_build():
    """Build every graph through the reference pipeline inside the block.

    Yields the names of the modules whose ``from_edges`` was swapped, so
    a caller can check the generators it exercises were among them.
    """
    production = build.from_edges
    with ExitStack() as stack:
        patched = []
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "repro" and getattr(
                module, "from_edges", None
            ) is production:
                stack.enter_context(
                    mock.patch.object(module, "from_edges", reference_from_edges)
                )
                patched.append(name)
        stack.enter_context(
            mock.patch.object(webgraph, "_inverse_cdf", reference_inverse_cdf)
        )
        yield patched
