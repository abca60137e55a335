"""Benchmarks for the distributed phases (Table II stats + the pipeline
the large-tier Table III rows run through), at bench scale (~SF 0.1
equivalent: the WIT analog, the largest small-tier graph)."""
import pytest

from repro.dist.pipeline import prepare_graph, run_cover
from repro.graph.schema import edges_df, graph_stats
from repro.graph.scc import scc
from repro.graph.trim import trim
from repro.graphgen.registry import generate

DATASET = "WIT"


@pytest.fixture(scope="module")
def edges(spark):
    return edges_df(spark, generate(DATASET)).localCheckpoint(eager=True)


def test_stats_table2(benchmark, edges):
    st = benchmark.pedantic(lambda: graph_stats(edges), rounds=3,
                            iterations=1, warmup_rounds=1)
    assert st["n"] > 0


def test_trim_phase(benchmark, spark, edges):
    out = benchmark.pedantic(lambda: trim(edges).count(), rounds=2,
                             iterations=1)
    assert out >= 0


def test_scc_phase(benchmark, spark, edges):
    t = trim(edges).localCheckpoint(eager=True)
    out = benchmark.pedantic(
        lambda: scc(spark, t, max_rounds=6).count(), rounds=2,
        iterations=1)
    assert out >= 0


def test_distributed_cover_end_to_end(benchmark, spark, edges):
    def cover():
        comp_edges, _ = prepare_graph(spark, edges, 5, scc_rounds=6)
        return run_cover(comp_edges, "tdb++", 5)

    res = benchmark.pedantic(cover, rounds=2, iterations=1)
    assert res.finished
    benchmark.extra_info["cover_size"] = res.size
