"""Reference paths for the engines' single production path.

The hashtable engine has one per-vertex sweep — the fused clear →
accumulate → max-key pass over workspace-arena scratch — and the
vectorized engine one arena-backed group-by.  The differential tests
(and the CI identity leg) compare that production path with the literal
statements below, swapped in for the duration of a ``with`` block:

* :func:`reference_reduce` replaces the hashtable engine's reduce (both
  the fused branch and the dense segmented branch) with
  :func:`literal_max_key` — Algorithm 2's ``hashtableMaxKey`` as a
  per-table Python loop over *every* live slot, so it relies neither on
  the slot tracker nor on vectorised masking — followed by a full
  per-table ``hashtableClear``;
* :func:`no_arena` builds both engines without a workspace arena, so
  every kernel runs the same arithmetic on freshly allocated buffers.

Run from the repository root with ``PYTHONPATH=src:.`` to import this
module outside pytest.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.core import engine_hashtable, engine_vectorized
from repro.types import EMPTY_KEY

__all__ = ["literal_max_key", "no_arena", "reference_reduce"]


def literal_max_key(keys_buf, values_buf, base, p1, fallback) -> np.ndarray:
    """``hashtableMaxKey`` for each table ``[base[t], base[t] + p1[t])``.

    Per table: the key of the lowest occupied slot holding the maximum
    value (compared in float64), or ``fallback[t]`` when the table is
    empty or holds a NaN — a NaN maximum equals no value, so no slot
    wins.
    """
    out = np.array(fallback, copy=True)
    for t in range(base.shape[0]):
        lo = int(base[t])
        hi = lo + int(p1[t])
        best_key = None
        best_value = 0.0
        for key, value in zip(keys_buf[lo:hi].tolist(), values_buf[lo:hi].tolist()):
            if key == EMPTY_KEY:
                continue
            if value != value:  # NaN: this table has no winner
                best_key = None
                break
            if best_key is None or value > best_value:
                best_key, best_value = key, value
        if best_key is not None:
            out[t] = best_key
    return out


def _literal_reduce_and_clear(keys_buf, values_buf, base, p1, fallback, out):
    out[:] = literal_max_key(keys_buf, values_buf, base, p1, fallback)
    for t in range(base.shape[0]):
        lo = int(base[t])
        hi = lo + int(p1[t])
        keys_buf[lo:hi] = EMPTY_KEY
        values_buf[lo:hi] = 0
    return out


@contextmanager
def reference_reduce():
    """Run the hashtable engine's reduce as :func:`literal_max_key` plus
    a full clear of the wave's tables, whichever branch it takes.

    The fused branch is not handed the wave's table bounds, so they are
    captured from the accumulate call of the same wave.
    """
    wave = {}
    real_accumulate = engine_hashtable.parallel_accumulate

    def accumulate(keys_buf, values_buf, base, p1, *args, **kwargs):
        wave["base"], wave["p1"] = base, p1
        return real_accumulate(keys_buf, values_buf, base, p1, *args, **kwargs)

    # The engine always passes ``out`` and reads the winners from it.
    def fused(keys_buf, values_buf, fallback, tracker, *, arena, out):
        tracker.reset()
        return _literal_reduce_and_clear(
            keys_buf, values_buf, wave["base"], wave["p1"], fallback, out
        )

    def segmented(keys_buf, values_buf, base, p1, fallback, *, arena, out):
        return _literal_reduce_and_clear(keys_buf, values_buf, base, p1, fallback, out)

    with ExitStack() as stack:
        for name, replacement in (
            ("parallel_accumulate", accumulate),
            ("fused_max_and_clear", fused),
            ("segmented_max_key", segmented),
        ):
            stack.enter_context(
                mock.patch.object(engine_hashtable, name, replacement)
            )
        yield


@contextmanager
def no_arena():
    """Build both engines with ``arena=None`` (fresh buffers per kernel)."""
    with mock.patch.object(engine_hashtable, "WorkspaceArena", lambda: None), \
            mock.patch.object(engine_vectorized, "WorkspaceArena", lambda: None):
        yield
