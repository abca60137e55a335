"""Distributed cover verification.

Remove the cover with anti-joins, narrow with the bulk dataflow phases
(trim + k-circuit filter — if nothing survives, the cover is proven
feasible purely in Spark), and exactly check any survivors per component
with the in-kernel sweep (survivors can still be false alarms: closed
walks that are only 2-cycles, Fig. 4 style).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.verify import check_feasible
from ..graph.csr import CSRGraph
from ..graph.khop import prefilter_edges
from ..graph.schema import normalize_edges
from ..graph.trim import trim
from .pipeline import require_hop_bound


def remove_cover(edges: DataFrame, cover: DataFrame) -> DataFrame:
    """Drop every edge incident to a cover vertex (column ``v``)."""
    return (edges
            .join(cover.select(F.col("v").alias("src")), "src", "left_anti")
            .join(cover.select(F.col("v").alias("dst")), "dst", "left_anti")
            .select("src", "dst"))


def cover_frame(spark: SparkSession, cover) -> DataFrame:
    """A cover as a typed ``v BIGINT`` frame; an empty cover stays empty."""
    return spark.createDataFrame([(int(v),) for v in cover], "v BIGINT")


def distributed_check_cover(spark: SparkSession, edges: DataFrame,
                            cover: DataFrame, k: int, *,
                            allow_two_cycles: bool = False) -> bool:
    """True iff ``cover`` hits every constrained cycle of ``edges``.

    ``k=None`` raises :class:`ValueError` before any Spark action: the
    k-circuit narrowing needs a hop bound."""
    require_hop_bound(k, "distributed_check_cover")
    residual = trim(remove_cover(normalize_edges(edges), cover))
    if residual.isEmpty():
        return True
    residual = trim(prefilter_edges(residual, k))
    if residual.isEmpty():
        return True
    # Exact confirmation on the (small) survivor subgraph.
    pdf = residual.toPandas()
    g = CSRGraph.from_edges(pdf)
    ok, _ = check_feasible(g, [], k, allow_two_cycles=allow_two_cycles)
    return ok
