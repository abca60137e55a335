"""Per-component kernels (applyInPandas bodies) and their dispatch."""
import numpy as np
import pandas as pd
import pytest

from repro.core.verify import check_feasible
from repro.dist.kernels import (ALGORITHMS, restrict_to_cycle_region,
                                run_algorithm, solve_component)
from repro.graph.csr import CSRGraph
from repro.graphgen.models import uniform_digraph


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_algorithm_dispatch(algo):
    g = CSRGraph.from_edges(uniform_digraph(15, 50, reciprocity=0.3,
                                            seed=1))
    res = run_algorithm(g, algo, 4)
    assert res.finished
    assert check_feasible(g, res.cover, 4)[0]


def test_run_algorithm_unknown():
    g = CSRGraph.from_edges(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        run_algorithm(g, "nope", 4)


def test_solve_component_rows():
    pdf = uniform_digraph(15, 50, reciprocity=0.3, seed=2)
    pdf["comp"] = 7
    out = solve_component(pdf, algorithm="tdb++", k=4)
    stats = out[out.vertex.isna()]
    cover = out[out.vertex.notna()]
    assert len(stats) == 1
    assert stats.iloc[0]["comp"] == 7
    assert stats.iloc[0]["finished"]
    assert stats.iloc[0]["ops"] >= 0
    g = CSRGraph.from_edges(pdf[["src", "dst"]])
    assert check_feasible(g, cover.vertex.astype(int).tolist(), 4)[0]


def test_solve_component_budget_dnf():
    pdf = uniform_digraph(30, 150, reciprocity=0.3, seed=3)
    pdf["comp"] = 1
    out = solve_component(pdf, algorithm="bur+", k=5, op_budget=10)
    stats = out[out.vertex.isna()]
    assert not stats.iloc[0]["finished"]


def test_restriction_only_for_tdb_family():
    """Baselines must see the raw graph; the TDB family self-restricts."""
    # one triangle + a long chain that only the restriction would remove
    edges = [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(10, 30)]
    pdf = pd.DataFrame(edges, columns=["src", "dst"])
    pdf["comp"] = 0
    for algo in ("tdb++", "bur+", "darc-dv"):
        out = solve_component(pdf, algorithm=algo, k=3)
        cov = set(out[out.vertex.notna()].vertex.astype(int))
        assert len(cov & {0, 1, 2}) == 1 and len(cov) == 1


def test_restrict_to_cycle_region_drops_dead_weight():
    edges = [(0, 1), (1, 2), (2, 0), (2, 50), (50, 51)]
    g = CSRGraph.from_edges(np.array(edges))
    r = restrict_to_cycle_region(g, False, 3)
    assert set(r.vertex_ids.tolist()) == {0, 1, 2}
    assert r.m == 3


def test_flk_quarter_kernel_input_pinned():
    """The TDB family's kernel input on the benchmark's ``flk-kernel``
    graph (FLK analog at a quarter of its size, seed 113). The degree
    order, and so the cover, is computed on this graph: a change to the
    reductions that moves this count changes the benchmark's covers."""
    from dataclasses import replace

    from repro.graphgen.registry import DATASETS
    flk = DATASETS["FLK"]
    pdf = replace(flk, n=round(flk.n * 0.25), m=round(flk.m * 0.25),
                  seed=113).generate()
    g = restrict_to_cycle_region(CSRGraph.from_edges(pdf), False, 5)
    assert g.m == 37_909
