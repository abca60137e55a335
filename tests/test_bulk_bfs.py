"""Vectorized bulk BFS masks: exactness vs per-pair brute distances and
cycle-set preservation of the edge restriction."""
import numpy as np
import pytest

from repro.core.brute import all_simple_cycles
from repro.graph import bulk_bfs
from repro.graph.bulk_bfs import restrict_to_short_walk_edges, short_walk_masks
from repro.graph.csr import CSRGraph
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def bfs_dist(g, root):
    dist = np.full(g.n, -1)
    q = [root]
    dist[root] = 0
    head = 0
    while head < len(q):
        u = q[head]; head += 1
        for w in g.out_neighbors(u):
            w = int(w)
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def assert_masks_exact(g, k):
    """Both masks equal the per-root BFS reference: edge ``(u, v)`` is
    kept iff ``1 <= dist(v, u) <= k-1``; a vertex iff a kept edge enters
    it."""
    edge_mask, vertex_mask = short_walk_masks(g, k)
    ea = g.edge_array()
    dist = {}
    for eid, (u, v) in enumerate(ea):
        v = int(v)
        if v not in dist:
            dist[v] = bfs_dist(g, v)  # dist from head back to tail
        d = dist[v][int(u)]  # u != v, so d == 0 is impossible
        assert edge_mask[eid] == (d != -1 and d <= k - 1), (eid, u, v, k)
    expect_v = np.zeros(g.n, dtype=bool)
    expect_v[ea[edge_mask, 1]] = True
    assert (vertex_mask == expect_v).all()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [3, 5])
def test_edge_mask_exact(seed, k):
    g = CSRGraph.from_edges(uniform_digraph(15, 50, reciprocity=0.3,
                                            seed=seed))
    if g.n == 0:
        return
    assert_masks_exact(g, k)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_edge_mask_exact_multiword(seed, k):
    # n >= 130: every reach-set row spans three or more uint64 words
    g = CSRGraph.from_edges(powerlaw_digraph(160, 480, reciprocity=0.3,
                                             seed=seed))
    assert g.n >= 130
    assert_masks_exact(g, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_edge_mask_exact_sources_and_sinks(k):
    # a sparse graph: many vertices with no in-edges or no out-edges
    g = CSRGraph.from_edges(uniform_digraph(200, 260, reciprocity=0.2,
                                            seed=7))
    assert g.n >= 130
    assert (g.in_degrees() == 0).any() and (g.out_degrees() == 0).any()
    assert_masks_exact(g, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_edge_mask_exact_across_column_chunks(monkeypatch, k):
    g = CSRGraph.from_edges(powerlaw_digraph(280, 900, reciprocity=0.3,
                                             seed=11))
    # one uint64 word of target columns per chunk: four or more chunks
    monkeypatch.setattr(bulk_bfs, "_GATHER_BYTES", 8 * g.m)
    assert (g.n + 63) // 64 >= 4
    assert_masks_exact(g, k)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [3, 4, 5])
def test_restriction_preserves_cycles(seed, k):
    g = CSRGraph.from_edges(powerlaw_digraph(14, 56, reciprocity=0.4,
                                             seed=seed))
    if g.n == 0:
        return
    before = {tuple(g.to_labels(list(c))) for c in all_simple_cycles(g, 2, k)}
    gr = restrict_to_short_walk_edges(g, k)
    after = ({tuple(gr.to_labels(list(c)))
              for c in all_simple_cycles(gr, 2, k)} if gr.n else set())
    assert before == after


def test_empty_and_trivial():
    g = CSRGraph.from_edges(np.zeros((0, 2)))
    em, vm = short_walk_masks(g, 5)
    assert em.size == 0 and vm.size == 0
    g2 = CSRGraph.from_edges(np.array([[0, 1]]))
    em2, vm2 = short_walk_masks(g2, 5)
    assert not em2.any() and not vm2.any()


def test_pure_cycle_fully_kept():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
    em, vm = short_walk_masks(g, 3)
    assert em.all() and vm.all()
    em2, vm2 = short_walk_masks(g, 2)
    assert not em2.any()
