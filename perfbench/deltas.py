"""Seeded delta batches for the ``stream-query`` workload.

The batches are drawn with vectorised sampling from the base CSR, so a
stream of many batches is built in milliseconds.  Every batch is valid at
its point in the stream, by construction rather than by tracking the edge
set:

* the base graph's undirected edges are shuffled once and split into a
  remove pool and an update pool, so an edge is removed at most once and
  an updated edge is never one that was removed;
* added edges join two distinct random vertices; adding an edge the graph
  already has is legal and merges into it.

Kinds are interleaved at random inside each batch, so ``apply_batch``
pays its one CSR rebuild per same-kind run just as a real mixed stream
makes it do.
"""

from __future__ import annotations

import numpy as np

from repro.stream.delta import DeltaBatch, DeltaOp

__all__ = ["delta_batches"]

_KINDS = ("add", "remove", "update")


def delta_batches(
    offsets: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    *,
    num_batches: int,
    batch_size: int,
) -> list[DeltaBatch]:
    """``num_batches`` mixed add/remove/update batches of ``batch_size`` ops."""
    n = offsets.shape[0] - 1
    degrees = np.diff(offsets)
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    upper = sources < targets
    pool_src = sources[upper]
    pool_dst = targets[upper].astype(np.int64)
    order = rng.permutation(pool_src.shape[0])

    total = num_batches * batch_size
    kinds = rng.integers(0, 3, size=total)
    num_removes = int(np.count_nonzero(kinds == 1))
    num_updates = int(np.count_nonzero(kinds == 2))
    if num_removes + num_updates > order.shape[0]:
        raise ValueError(
            f"base graph has {order.shape[0]} edges; the stream needs "
            f"{num_removes + num_updates} to remove or update"
        )
    remove_idx = order[:num_removes]
    update_idx = order[num_removes : num_removes + num_updates]

    add_a = rng.integers(0, n, size=total)
    add_b = (add_a + rng.integers(1, n, size=total)) % n
    weights = np.round(rng.uniform(0.5, 2.0, size=total), 6)

    src = np.empty(total, dtype=np.int64)
    dst = np.empty(total, dtype=np.int64)
    is_add = kinds == 0
    src[is_add], dst[is_add] = add_a[is_add], add_b[is_add]
    is_remove = kinds == 1
    src[is_remove], dst[is_remove] = pool_src[remove_idx], pool_dst[remove_idx]
    is_update = kinds == 2
    src[is_update], dst[is_update] = pool_src[update_idx], pool_dst[update_idx]

    ops = [
        DeltaOp(_KINDS[k], s, d, None if k == 1 else w)
        for k, s, d, w in zip(
            kinds.tolist(), src.tolist(), dst.tolist(), weights.tolist()
        )
    ]
    return [
        DeltaBatch(ops=tuple(ops[i : i + batch_size]))
        for i in range(0, total, batch_size)
    ]
