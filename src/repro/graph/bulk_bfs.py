"""Vectorized bulk k-hop reachability — the in-kernel twin of
:mod:`repro.graph.khop`.

A multi-source BFS over packed reach-sets (Then et al., "The More the
Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014)
computes, for every vertex ``x`` at once, the set ``R[x]`` of vertices
reachable from ``x`` in ``1..k-1`` hops. Row ``x`` is a bitset of ``n``
bits packed into ``uint64`` words; one round is a CSR gather of the
out-neighbours' rows and a segmented OR:

    R_1[x]     = out(x)
    R_{h+1}[x] = R_1[x] | OR_{w in out(x)} R_h[w]

From ``R = R_{k-1}``:

* ``edge_on_short_walk[x]`` — edge ``x=(u,v)`` lies on a closed walk of
  length <= k  (iff ``dist(v, u) <= k-1``, i.e. bit ``u`` of ``R[v]``);
* ``vertex_on_short_walk[v]`` — some in-edge of ``v`` is on such a walk.

Both are *may*-analyses with no false negatives for constrained simple
cycles: a simple cycle of length l <= k through an edge/vertex is itself
a closed walk of length l. Deleting everything unflagged therefore
preserves the constrained-cycle set exactly — this is the k-aware
preprocessing the kernels apply to the TDB family (tests assert
cycle-set preservation against brute force).
"""
from __future__ import annotations

import numpy as np

from .csr import CSRGraph

# Upper bound on the bytes of one round's gathered ``(m, words)`` array;
# the target columns are processed in chunks of words that fit it.
_GATHER_BYTES = 64 << 20


def short_walk_masks(g: CSRGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(edge_mask, vertex_mask)`` for closed walks of length <= k.

    ``edge_mask`` is aligned with the CSR-out edge order
    (``g.edge_array()``); ``vertex_mask`` with local vertex ids.
    """
    edge_mask = np.zeros(g.m, dtype=bool)
    vertex_mask = np.zeros(g.n, dtype=bool)
    if k < 2 or g.m == 0:
        return edge_mask, vertex_mask
    tails = np.repeat(np.arange(g.n), g.out_degrees())
    heads = g.indices_out
    # vertex v is bit v & 63 of word v >> 6 of a row
    word = np.arange(g.n) >> 6
    bit = np.left_shift(np.uint64(1), (np.arange(g.n) & 63).astype(np.uint64))
    # reduceat segments: rows with out-edges only (an empty row has none)
    active = np.flatnonzero(g.out_degrees())
    starts = g.indptr_out[active]
    words = (g.n + 63) >> 6
    chunk = max(1, _GATHER_BYTES // (8 * g.m))
    for w0 in range(0, words, chunk):
        w1 = min(words, w0 + chunk)
        r1 = np.zeros((g.n, w1 - w0), dtype=np.uint64)
        sel = (word[heads] >= w0) & (word[heads] < w1)
        np.bitwise_or.at(r1, (tails[sel], word[heads[sel]] - w0),
                         bit[heads[sel]])
        reach = r1
        for _ in range(k - 2):
            nxt = r1.copy()
            nxt[active] |= np.bitwise_or.reduceat(reach[heads], starts,
                                                  axis=0)
            if np.array_equal(nxt, reach):
                break
            reach = nxt
        # edge (u, v) is kept iff bit u of R_{k-1}[v] is set
        sel = np.flatnonzero((word[tails] >= w0) & (word[tails] < w1))
        u, v = tails[sel], heads[sel]
        edge_mask[sel] = (reach[v, word[u] - w0] & bit[u]) != 0
    vertex_mask[heads[edge_mask]] = True
    return edge_mask, vertex_mask


def restrict_to_short_walk_edges(g: CSRGraph, k: int) -> CSRGraph:
    """Sub-CSR containing only edges on closed walks of length <= k."""
    edge_mask, _ = short_walk_masks(g, k)
    if edge_mask.all():
        return g
    edges = g.edge_array()[edge_mask]
    return CSRGraph.from_edges(
        np.column_stack([g.vertex_ids[edges[:, 0]],
                         g.vertex_ids[edges[:, 1]]]))
