"""Distributed cover verification."""
import pandas as pd
import pytest

from repro.dist.pipeline import run_cover, single_group
from repro.dist.verify import (cover_frame, distributed_check_cover,
                               remove_cover)
from repro.graph.schema import edges_df
from repro.graphgen.models import uniform_digraph


def test_accepts_valid_cover(spark):
    pdf = uniform_digraph(25, 75, reciprocity=0.3, seed=1)
    e = edges_df(spark, pdf)
    res = run_cover(single_group(e), "tdb++", 5)
    assert distributed_check_cover(spark, e, cover_frame(spark, res.cover), 5)


def test_rejects_broken_cover(spark):
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 0)], columns=["src", "dst"])
    e = edges_df(spark, pdf)
    assert not distributed_check_cover(spark, e, cover_frame(spark, []), 3)
    assert distributed_check_cover(spark, e, cover_frame(spark, [0]), 3)


def test_empty_cover_on_graph_with_vertex_minus_one(spark):
    # -1 is a real label here: an empty cover must not remove it
    pdf = pd.DataFrame([(-1, 0), (0, 1), (1, -1)], columns=["src", "dst"])
    e = edges_df(spark, pdf)
    assert cover_frame(spark, []).count() == 0
    assert not distributed_check_cover(spark, e, cover_frame(spark, []), 3)
    assert distributed_check_cover(spark, e, cover_frame(spark, [-1]), 3)


def test_two_cycle_residue_not_a_violation(spark):
    # after removing nothing, a pure mutual pair survives the narrowing
    # but is not an uncovered 3..k cycle
    pdf = pd.DataFrame([(0, 1), (1, 0)], columns=["src", "dst"])
    e = edges_df(spark, pdf)
    assert distributed_check_cover(spark, e, cover_frame(spark, []), 5)
    assert not distributed_check_cover(spark, e, cover_frame(spark, []), 5,
                                       allow_two_cycles=True)


def test_remove_cover(spark):
    pdf = pd.DataFrame([(0, 1), (1, 2), (2, 0)], columns=["src", "dst"])
    e = edges_df(spark, pdf)
    left = remove_cover(e, cover_frame(spark, [1])).toPandas()
    assert {tuple(r) for r in left.to_numpy()} == {(2, 0)}
