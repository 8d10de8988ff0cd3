"""Web-graph stand-in generator (LAW crawl style).

LAW crawls (indochina-2004, uk-2002, it-2004, ...) have two signatures that
matter for LPA performance: extremely heavy-tailed degrees (hubs with 1e4+
links driving the block-per-vertex kernel) and strong host-locality (pages
on one host link mostly to each other — the reason LPA finds hundreds of
thousands of communities).  We model both directly:

* vertices are grouped into contiguous *hosts* with Pareto-distributed
  sizes (real crawls mix huge portals with a long tail of tiny sites);
* every page carries a Pareto *popularity* weight; link destinations are
  sampled proportional to popularity — within the source's host for most
  links, globally for a small ``cross_host_fraction`` — which yields a
  power-law in-degree tail (Chung-Lu attachment) with genuine hubs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["web_graph"]


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u)``, answered over the sorted queries.

    Ascending queries let each binary search start where the last one
    ended, so sorting the draws, searching, and scattering the answers
    back is faster than searching in draw order — with the same answers.
    """
    order = np.argsort(u)
    out = np.empty(u.shape[0], dtype=VERTEX_DTYPE)
    out[order] = np.searchsorted(cum, u[order])
    return out


def web_graph(
    n: int,
    *,
    avg_degree: float = 20.0,
    mean_host_size: int = 64,
    popularity_exponent: float = 1.2,
    cross_host_fraction: float = 0.08,
    seed: int = 0,
) -> CSRGraph:
    """Generate a web-crawl-like graph on ``n`` vertices.

    Parameters
    ----------
    n:
        Vertex count.
    avg_degree:
        Target average directed degree before symmetrisation (the
        undirected result lands near ``2 * avg_degree`` minus dedup).
    mean_host_size:
        Mean host (community) size; sizes are Pareto-tailed.
    popularity_exponent:
        Pareto shape of per-page popularity; smaller = heavier in-degree
        tail (1.1-1.5 reproduces crawl-like hubs).
    cross_host_fraction:
        Fraction of links leaving the source's host.
    seed:
        PRNG seed.
    """
    if n < 4:
        raise GraphConstructionError(f"need n >= 4; got {n}")
    if avg_degree <= 0:
        raise GraphConstructionError(f"avg_degree must be positive; got {avg_degree}")
    if not 0.0 <= cross_host_fraction <= 1.0:
        raise GraphConstructionError(
            f"cross_host_fraction must be in [0,1]; got {cross_host_fraction}"
        )
    rng = np.random.default_rng(seed)

    # Host assignment: contiguous blocks with Pareto-tailed sizes.
    sizes: list[int] = []
    total = 0
    while total < n:
        size = int(min(rng.pareto(1.5) * mean_host_size / 2 + 2, n - total))
        sizes.append(size)
        total += size
    host_size = np.asarray(sizes, dtype=np.int64)
    host_start = np.zeros(host_size.shape[0], dtype=np.int64)
    np.cumsum(host_size[:-1], out=host_start[1:])
    host = np.repeat(np.arange(host_size.shape[0], dtype=np.int64), host_size)

    # Per-page popularity; destinations are drawn proportional to it.
    popularity = rng.pareto(popularity_exponent, size=n) + 0.1

    m = int(round(avg_degree * n))
    src = rng.integers(0, n, size=m).astype(VERTEX_DTYPE)
    dst = np.empty(m, dtype=VERTEX_DTYPE)
    cross = rng.random(m) < cross_host_fraction

    # Cross-host links: popularity-weighted global sampling (inverse CDF).
    cum_global = np.cumsum(popularity)
    n_cross = int(cross.sum())
    if n_cross:
        u = rng.random(n_cross) * cum_global[-1]
        dst[cross] = _inverse_cdf(cum_global, u)

    # Within-host links: popularity-weighted sampling *inside the source's
    # host segment*, via segmented inverse CDF (vertices are already
    # contiguous per host).
    within_idx = np.flatnonzero(~cross)
    if within_idx.shape[0]:
        h = host[src[within_idx]]
        seg_lo = host_start[h]
        seg_hi = seg_lo + host_size[h]
        lo_cum = np.where(seg_lo > 0, cum_global[seg_lo - 1], 0.0)
        hi_cum = cum_global[seg_hi - 1]
        u = lo_cum + rng.random(within_idx.shape[0]) * (hi_cum - lo_cum)
        dst[within_idx] = _inverse_cdf(cum_global, u)

    dst = np.minimum(dst, n - 1)  # guard float-edge rounding at the CDF top
    keep = src != dst
    return from_edges(
        src[keep], dst[keep], num_vertices=n, symmetrize=True, dedupe=True
    )
