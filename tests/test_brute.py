"""Brute-force enumeration oracle on known graphs and against a DuckDB
recursive CTE on random ones."""
import duckdb
import numpy as np
import pytest

from repro.core.brute import (all_simple_cycles, is_cover,
                              optimal_cover_size, vertex_on_cycle)
from repro.graph.csr import CSRGraph
from repro.graphgen.models import uniform_digraph

# DuckDB recursive CTE enumerating hop-constrained simple cycles with the
# brute enumerator's canonical form (min vertex first, direction
# preserved), rendered as "v0->v1->..." over the original labels.
DUCK_SQL = """
WITH RECURSIVE paths(root, last, path) AS (
    SELECT src, dst, [src, dst] FROM t WHERE src < dst
    UNION ALL
    SELECT p.root, e.dst, list_append(p.path, e.dst)
    FROM paths p JOIN t e ON p.last = e.src
    WHERE e.dst > p.root
      AND NOT list_contains(p.path, e.dst)
      AND len(p.path) < {k}
)
SELECT list_aggr(list_transform(p.path, x -> CAST(x AS VARCHAR)),
                 'string_agg', '->') AS cycle
FROM paths p JOIN t e ON p.last = e.src AND e.dst = p.root
WHERE len(p.path) BETWEEN {lo} AND {k}
"""


def g_of(*edges):
    return CSRGraph.from_edges(np.array(edges))


def test_triangle_both_orientations():
    g = g_of((0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0))
    cyc = all_simple_cycles(g, 3, 5)
    assert len(cyc) == 2  # the two orientations
    assert all(c[0] == 0 for c in cyc)  # canonical min-root


def test_two_cycle_counted_only_with_lo2():
    g = g_of((0, 1), (1, 0))
    assert all_simple_cycles(g, 3, 5) == set()
    assert all_simple_cycles(g, 2, 5) == {(0, 1)}


def test_hop_constraint_cuts_long_cycles():
    g = g_of((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))  # 5-cycle
    assert all_simple_cycles(g, 3, 4) == set()
    assert all_simple_cycles(g, 3, 5) == {(0, 1, 2, 3, 4)}


def test_figure_eight():
    # two triangles sharing vertex 0
    g = g_of((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0))
    cyc = all_simple_cycles(g, 3, 6)
    assert cyc == {(0, 1, 2), (0, 3, 4)}  # no 6-circuit: not simple


def test_is_cover():
    cycles = {(0, 1, 2), (0, 3, 4)}
    assert is_cover(cycles, {0})
    assert is_cover(cycles, {1, 3})
    assert not is_cover(cycles, {1, 2})


def test_optimal_cover_size():
    assert optimal_cover_size({(0, 1, 2), (0, 3, 4)}, [0, 1, 2, 3, 4]) == 1
    assert optimal_cover_size({(0, 1, 2), (3, 4, 5)}, list(range(6))) == 2
    assert optimal_cover_size(set(), []) == 0


@pytest.mark.parametrize("v,expect", [(0, True), (1, True), (3, False)])
def test_vertex_on_cycle(v, expect):
    g = g_of((0, 1), (1, 2), (2, 0), (2, 3))
    idx = {int(l): i for i, l in enumerate(g.vertex_ids)}
    assert vertex_on_cycle(g, idx[v], 3, 5) == expect


def test_vertex_on_cycle_respects_active():
    g = g_of((0, 1), (1, 2), (2, 0))
    act = np.ones(g.n, dtype=bool)
    act[1] = False
    assert not vertex_on_cycle(g, 0, 3, 5, act)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("lo", [2, 3])
def test_vs_duckdb_recursive_cte(seed, k, lo):
    pdf = uniform_digraph(10, 26, reciprocity=0.4, seed=seed)
    g = CSRGraph.from_edges(pdf)
    con = duckdb.connect()
    try:
        con.register("t", pdf)
        rows = [r[0] for r in
                con.execute(DUCK_SQL.format(k=k, lo=lo)).fetchall()]
    finally:
        con.close()
    expect = {"->".join(str(int(g.vertex_ids[v])) for v in c)
              for c in all_simple_cycles(g, lo, k)}
    assert len(rows) == len(set(rows))
    assert set(rows) == expect
