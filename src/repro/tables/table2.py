"""Table II harness — statistics of the (analog) datasets.

For every registry dataset: |V|, |E|, d_avg = 2|E|/|V| via Spark
aggregations, plus reciprocity (drives Table IV), side by side with the
paper's reported statistics.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..graph.schema import edges_df, graph_stats
from ..graph.two_cycles import reciprocity
from ..graphgen.registry import DATASETS, generate


def run_table2(spark: SparkSession,
               datasets: list[str] | None = None) -> pd.DataFrame:
    """One row per dataset: analog vs paper statistics."""
    rows = []
    for name in (datasets or list(DATASETS)):
        spec = DATASETS[name]
        e = edges_df(spark, generate(name)).localCheckpoint(eager=True)
        st = graph_stats(e)
        rows.append({
            "dataset": name, "tier": spec.tier, "model": spec.model,
            "V": st["n"], "E": st["m"], "d_avg": round(st["d_avg"], 2),
            "reciprocity": round(reciprocity(e), 3),
            "paper_V": spec.paper_v, "paper_E": spec.paper_e,
            "paper_d_avg": spec.paper_davg,
            "scale_V": round(spec.paper_v / max(st["n"], 1), 1),
        })
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame) -> str:
    return df.to_string(index=False)
