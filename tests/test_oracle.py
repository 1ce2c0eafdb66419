"""The memoized value-function oracle against hand values and an
independent exhaustive enumerator."""

import random
import zlib

import pytest

from dpsearch import DepthLimitError, Model, StateMetadata, Transition, Variable, bellman_oracle
from dpsearch.expressions import BoolConst, NumericConst, NumericVar, TableRegistry
from dpsearch.model import BaseCase
from dpsearch.problems import (
    CLASSES,
    GraphClearInstance,
    TsptwInstance,
    build_graphclear,
    build_tsptw,
)
from conftest import exhaustive_optimum


def test_desk_tsptw_is_six(desk_tsptw_model):
    result = bellman_oracle(desk_tsptw_model)
    assert result.cost == 6
    assert len(result.values) >= 5


def test_the_oracle_builds_no_fused_query():
    # the acceptance gate checks the solvers' fused queries against the
    # oracle, so neither the oracle nor the enumerator may build them
    model = build_tsptw(TsptwInstance(((0, 2, 3), (2, 0, 4), (3, 4, 0)), (0, 0, 0), (9, 9, 9)))
    assert bellman_oracle(model).cost == exhaustive_optimum(model) == 9
    assert "_queries" not in vars(model)


def test_zero_customers_immediate_base():
    model = build_tsptw(TsptwInstance(((0,),), (0,), (10,)))
    assert bellman_oracle(model).cost == 0


def test_desk_graphclear_is_two():
    model = build_graphclear(GraphClearInstance((1, 1), {(0, 1): 1}))
    assert bellman_oracle(model).cost == 2


def test_infeasible_reports_none():
    model = build_tsptw(TsptwInstance(((0, 2), (2, 0)), (0, 0), (10, 1)))
    result = bellman_oracle(model)
    assert result.cost is None


def test_forced_mode_matches_full_mode():
    rng = random.Random(11)
    for name in ("optw", "binpacking", "salbp1", "talent"):
        cls = CLASSES[name]
        for _ in range(25):
            model = cls.build(cls.random(rng))
            assert (
                bellman_oracle(model).cost == bellman_oracle(model, use_forced=True).cost
            ), name


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_matches_exhaustive_enumeration(name):
    rng = random.Random(zlib.crc32(name.encode()))
    cls = CLASSES[name]
    for _ in range(25):
        model = cls.build(cls.random(rng))
        assert bellman_oracle(model).cost == exhaustive_optimum(model)


def test_cycle_detection():
    meta = StateMetadata({}, [Variable("x", "integer")])
    loop = Transition("stay", (), ((0, NumericVar(0, "x")),), NumericConst(1))
    model = Model(
        meta,
        TableRegistry(),
        (0,),
        [loop],
        [BaseCase((BoolConst(False),), NumericConst(0))],
    )
    with pytest.raises(DepthLimitError):
        bellman_oracle(model)


def test_depth_limit():
    from dpsearch.expressions import Comparison, NumericBinary

    meta = StateMetadata({}, [Variable("x", "integer")])
    step = Transition(
        "inc",
        (),
        ((0, NumericBinary("+", NumericVar(0, "x"), NumericConst(1))),),
        NumericConst(1),
    )
    model = Model(
        meta,
        TableRegistry(),
        (0,),
        [step],
        [BaseCase((Comparison(">=", NumericVar(0, "x"), NumericConst(50)),), NumericConst(0))],
    )
    assert bellman_oracle(model).cost == 50
    with pytest.raises(DepthLimitError):
        bellman_oracle(model, depth_limit=10)
