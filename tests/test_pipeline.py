"""Distributed cover pipeline end-to-end."""
import pandas as pd
import pytest

from repro.core.top_down import top_down
from repro.core.verify import check_feasible, check_minimal
from repro.dist.kernels import restrict_to_cycle_region
from repro.dist.pipeline import prepare_graph, run_cover, single_group
from repro.dist.verify import distributed_check_cover
from repro.graph.csr import CSRGraph
from repro.graph.schema import EDGE_SCHEMA, edges_df
from repro.graphgen.models import powerlaw_digraph, uniform_digraph


def pipeline_cover(spark, edges, k, algo="tdb++"):
    comp_edges, _ = prepare_graph(spark, edges, k)
    return run_cover(comp_edges, algo, k)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("algo", ["tdb++", "bur+"])
def test_end_to_end_feasible_minimal(spark, seed, algo):
    pdf = uniform_digraph(30, 90, reciprocity=0.3, seed=seed)
    res = pipeline_cover(spark, edges_df(spark, pdf), 5, algo)
    assert res.finished
    g = CSRGraph.from_edges(pdf)
    assert check_feasible(g, res.cover, 5)[0]
    if algo == "tdb++":
        assert check_minimal(g, res.cover, 5)[0]


def assert_pipeline_matches_single_group(spark, pdf, k):
    """Per-component kernels after ``prepare_graph`` give the same TDB++
    cover as one kernel over the whole graph: each kernel restricts its
    input to the same cycle region and orders it by the same degrees."""
    comp_edges, info = prepare_graph(
        spark, spark.createDataFrame(pdf, schema=EDGE_SCHEMA), k)
    res_p = run_cover(comp_edges, "tdb++", k)
    res_s = run_cover(single_group(edges_df(spark, pdf)), "tdb++", k)
    assert res_p.finished and res_s.finished
    assert res_p.size > 0
    assert res_p.cover_set() == res_s.cover_set()
    return res_p, info


def test_pipeline_matches_local_kernel_on_single_scc(spark):
    """One SCC, fed as a raw frame with a repeated edge and a self-loop;
    the cover also equals the in-process kernel's."""
    pdf = uniform_digraph(14, 60, reciprocity=0.5, seed=4)
    raw = pd.concat([pdf, pd.DataFrame({"src": [pdf.src[0], 3],
                                        "dst": [pdf.dst[0], 3]})],
                    ignore_index=True)
    res, _ = assert_pipeline_matches_single_group(spark, raw, 5)
    g = restrict_to_cycle_region(CSRGraph.from_edges(pdf), False, 5)
    assert res.cover_set() == top_down(g, 5, technique="tdb++").cover_set()


@pytest.mark.parametrize("negate,k", [(False, 3), (False, 5), (True, 3)])
def test_pipeline_matches_single_group_on_multi_scc(spark, negate, k):
    # non-trivial SCCs of 3 and 15 vertices plus mutual pairs; both
    # larger SCCs hold cover vertices at k = 3 and k = 5
    pdf = powerlaw_digraph(60, 100, reciprocity=0.1, seed=6)
    if negate:  # every label negative, -1 included
        pdf = -pdf - 1
    res, info = assert_pipeline_matches_single_group(spark, pdf, k)
    assert info["n_components"] >= 2
    assert res.size >= 2


def test_prepare_graph_info(spark):
    pdf = powerlaw_digraph(60, 240, reciprocity=0.3, seed=5)
    comp_edges, info = prepare_graph(spark, edges_df(spark, pdf), 5)
    assert set(comp_edges.columns) == {"comp", "src", "dst"}
    assert info["m_partitioned"] <= info["m_trimmed"] <= info["m_input"]
    assert info["n_components"] >= 1
    assert info["prep_seconds"] > 0


def test_multi_component_graphs_solved_per_component(spark):
    # two disjoint triangles + noise chain
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 0),
                        (10, 11), (11, 12), (12, 10),
                        (20, 21), (21, 22)], columns=["src", "dst"])
    comp_edges, info = prepare_graph(spark, edges_df(spark, pdf), 3)
    assert info["n_components"] == 2
    res = run_cover(comp_edges, "tdb++", 3)
    cov = res.cover_set()
    assert len(cov & {0, 1, 2}) == 1
    assert len(cov & {10, 11, 12}) == 1
    assert len(cov) == 2
    assert res.extra["n_components"] == 2


class _NoSpark:
    """Stands in for a session or frame; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"Spark touched before validation: {name}")


def test_unconstrained_k_rejected_before_spark():
    with pytest.raises(ValueError, match="single_group.*run_cover"):
        prepare_graph(_NoSpark(), _NoSpark(), None)
    with pytest.raises(ValueError, match="single_group.*run_cover"):
        distributed_check_cover(_NoSpark(), _NoSpark(), _NoSpark(), None)


def test_unconstrained_k_through_single_group(spark):
    # a 4-cycle and a 2-cycle: with no hop bound both need a vertex
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 3), (3, 0), (10, 11), (11, 10)],
                       columns=["src", "dst"])
    res = run_cover(single_group(edges_df(spark, pdf)), "tdb++", None,
                    allow_two_cycles=True)
    assert res.finished
    g = CSRGraph.from_edges(pdf)
    assert check_feasible(g, res.cover, None, allow_two_cycles=True)[0]
    assert len(res.cover_set() & {0, 1, 2, 3}) == 1
    assert len(res.cover_set() & {10, 11}) == 1


def test_single_group_wraps_raw(spark):
    pdf = pd.DataFrame([(0, 1), (1, 0)], columns=["src", "dst"])
    sg = single_group(edges_df(spark, pdf)).toPandas()
    assert (sg.comp == 0).all() and len(sg) == 2


def test_empty_graph(spark):
    e = spark.createDataFrame([], "src BIGINT, dst BIGINT")
    res = pipeline_cover(spark, e, 5)
    assert res.size == 0 and res.finished
