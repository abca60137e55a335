"""The distributed cover pipeline (DESIGN.md §3).

``prepare_graph``   normalize → trim → SCC → keep intra-component edges →
                    bulk k-circuit prefilter → trim. All iterative
                    DataFrame dataflow; the output ``(comp, src, dst)``
                    frame is checkpointed so the expensive shared phases
                    run once per (dataset, k) and every algorithm is then
                    measured on identical partitioned input.

``run_cover``       groups the prepared frame by component and runs the
                    chosen sequential kernel per component in parallel
                    (``applyInPandas``), collecting cover rows and
                    per-component stats.

Reported timing: ``seconds`` on the returned :class:`CoverResult` is the
*kernel* time — the sum of per-component kernel seconds, i.e. the
sequential-equivalent algorithm cost that Table III compares (identical
shared prep would otherwise drown the 2-3 order-of-magnitude algorithm
gaps under constant Spark overhead). Wall-clock and prep times are kept
in ``extra``.
"""
from __future__ import annotations

import time
from functools import partial

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.result import CoverResult
from ..graph.khop import prefilter_edges
from ..graph.schema import normalize_edges
from ..graph.scc import scc
from ..graph.trim import trim
from .kernels import KERNEL_SCHEMA, solve_component

ALGO_LABEL = {"bur": "BUR", "bur+": "BUR+", "tdb": "TDB", "tdb+": "TDB+",
              "tdb++": "TDB++", "darc-dv": "DARC-DV"}


def require_hop_bound(k: int | None, where: str) -> None:
    """Reject ``k=None`` where the Spark k-circuit prefilter would run."""
    if k is None:
        raise ValueError(
            f"{where} needs a hop bound k; for the unconstrained variant "
            "(k=None) run single_group(edges) + run_cover(..., k=None)")


def single_group(edges: DataFrame) -> DataFrame:
    """Wrap a raw edge frame as one kernel group (``comp = 0``).

    The paper-faithful execution mode for graphs that fit one task: every
    algorithm sees the raw graph; the TDB kernels do their own reductions
    in-kernel (counted in their time). ``prepare_graph`` is the scale-out
    alternative."""
    return edges.select(F.lit(0).cast("bigint").alias("comp"), "src", "dst")


def prepare_graph(spark: SparkSession, edges: DataFrame, k: int, *,
                  scc_rounds: int = 8) -> tuple[DataFrame, dict]:
    """Shared distributed phases; returns ``(comp_edges, info)``.

    ``comp_edges`` has columns ``comp, src, dst`` — only intra-component
    edges survive (cross-SCC edges are on no cycle).

    The k-circuit prefilter needs a hop bound: ``k=None`` raises
    :class:`ValueError` before any Spark action.
    """
    require_hop_bound(k, "prepare_graph")
    info: dict = {}
    t0 = time.perf_counter()
    e = normalize_edges(edges).localCheckpoint(eager=True)
    info["m_input"] = e.count()
    e = trim(e)
    info["m_trimmed"] = e.count()
    # SCC *before* the k-circuit prefilter: dropping cross-component and
    # singleton-component edges first keeps the prefilter's (root, v)
    # frontier off the acyclic bulk, where it would explode on dense
    # hierarchical graphs.
    comp = scc(spark, e, max_rounds=scc_rounds)
    comp_edges = (e
                  .join(comp.select(F.col("v").alias("src"),
                                    F.col("comp").alias("c_src")), "src")
                  .join(comp.select(F.col("v").alias("dst"),
                                    F.col("comp").alias("c_dst")), "dst")
                  .where(F.col("c_src") == F.col("c_dst"))
                  .select(F.col("c_src").alias("comp"), "src", "dst")
                  .localCheckpoint(eager=True))
    info["m_partitioned"] = comp_edges.count()
    if info["m_partitioned"] > 0:
        kept = trim(prefilter_edges(comp_edges.select("src", "dst"), k)) \
            .localCheckpoint(eager=True)
        comp_edges = (comp_edges.join(kept, ["src", "dst"], "leftsemi")
                      .localCheckpoint(eager=True))
        info["m_prefiltered"] = comp_edges.count()
    info["n_components"] = comp_edges.select("comp").distinct().count()
    info["prep_seconds"] = time.perf_counter() - t0
    return comp_edges, info


def run_cover(comp_edges: DataFrame, algorithm: str, k: int, *,
              allow_two_cycles: bool = False,
              op_budget: int | None = None,
              restrict: bool = True) -> CoverResult:
    """Per-component kernels over a prepared frame → one CoverResult.

    ``restrict=False`` skips the TDB family's in-kernel reductions — used
    by the technique-speedup study, where the raw search cost of TDB vs
    TDB+ vs TDB++ is the object of measurement."""
    t0 = time.perf_counter()
    kern = partial(solve_component, algorithm=algorithm, k=k,
                   allow_two_cycles=allow_two_cycles,
                   op_budget=op_budget, restrict=restrict)
    out = (comp_edges.groupBy("comp")
           .applyInPandas(lambda pdf: kern(pdf), schema=KERNEL_SCHEMA)
           .toPandas())
    wall = time.perf_counter() - t0
    stats = out[out.vertex.isna()]
    cover = out[out.vertex.notna()]
    kernel_seconds = float(stats.seconds.sum())
    finished = bool(stats.finished.all()) if len(stats) else True
    return CoverResult(
        algorithm=ALGO_LABEL[algorithm], k=k,
        cover=cover.vertex.to_numpy(dtype=np.int64),
        seconds=kernel_seconds, ops=int(stats.ops.sum()),
        allow_two_cycles=allow_two_cycles, finished=finished,
        extra={"wall_seconds": wall, "n_components": len(stats)},
    )

