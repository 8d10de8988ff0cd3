"""Shared dtype conventions and small type aliases.

The paper fixes 32-bit integers for vertex identifiers and 32-bit floats for
edge weights (Section 5.1.2); hashtable values are fp32 by default with fp64
available for the Figure-5 ablation.  Centralising the dtypes here keeps
every subsystem's arrays layout-compatible without repeated literals.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np
import numpy.typing as npt

__all__ = [
    "VERTEX_DTYPE",
    "OFFSET_DTYPE",
    "WEIGHT_DTYPE",
    "VALUE_DTYPE_F32",
    "VALUE_DTYPE_F64",
    "FLAG_DTYPE",
    "EMPTY_KEY",
    "VertexArray",
    "OffsetArray",
    "WeightArray",
    "LabelArray",
]

#: Vertex ids / community labels. int64 rather than the paper's uint32 so a
#: sentinel and intermediate arithmetic (``i + delta_i`` during probing) never
#: overflow in NumPy; the memory model still *accounts* 4 bytes per id.
VERTEX_DTYPE = np.int64

#: Wide CSR offsets/targets.  Built graphs store both int32 whenever the
#: sizes fit (:func:`repro.graph.csr.index_dtype`); this is the width of
#: larger graphs and of :meth:`~repro.graph.csr.CSRGraph.with_wide_layout`.
#: ``2 * offset`` addresses the hashtable buffers, which is int64 either way.
OFFSET_DTYPE = np.int64

#: Edge weights (paper: 32-bit floats).
WEIGHT_DTYPE = np.float32

#: Hashtable value dtypes for the Figure-5 datatype experiment.
VALUE_DTYPE_F32 = np.float32
VALUE_DTYPE_F64 = np.float64

#: Processed/active flags. The paper notes an 8-bit integer flag vector beats
#: a boolean vector in their C++ code; we keep uint8 for byte accounting.
FLAG_DTYPE = np.uint8

#: Sentinel for an empty hashtable slot (the paper's phi).
EMPTY_KEY = np.int64(-1)

VertexArray: TypeAlias = npt.NDArray[np.int64]
OffsetArray: TypeAlias = npt.NDArray[np.int64]
WeightArray: TypeAlias = npt.NDArray[np.float32]
LabelArray: TypeAlias = npt.NDArray[np.int64]


def vertex_bytes() -> int:
    """Accounted size of a vertex id on the modelled device (uint32)."""
    return 4


def weight_bytes() -> int:
    """Accounted size of an edge weight on the modelled device (float)."""
    return 4
