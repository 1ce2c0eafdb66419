"""Property-based checks over the core algebraic contracts."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dpsearch as dp
from dpsearch.expressions import (
    Cardinality,
    Comparison,
    ElementVar,
    NumericBinary,
    NumericCeil,
    NumericConst,
    NumericFloor,
    NumericIf,
    NumericMax,
    NumericMin,
    NumericVar,
    SetReduce,
    SetVar,
    Table,
    TableRegistry,
)
from dpsearch.metrics import optimality_gap, primal_integral
from dpsearch.model import CostStructure, StateMetadata, Variable, combine
from dpsearch.problems import CLASSES

from conftest import weakly_dominates

# Context for random integer expressions: state = (element, set over 4, int).
TABLES = TableRegistry(
    [Table("v", "integer", (4,), {(i,): [3, -2, 5, 7][i] for i in range(4)})]
)
ELEMENT = ElementVar(0, "e")
MASK = SetVar(1, "S", 4)
X = NumericVar(2, "x")

states = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=-9, max_value=9),
)


def integer_exprs(depth: int):
    """Random integer-tagged numeric expressions; division appears only
    under floor/ceil, mirroring the validation rule."""
    leaf = st.one_of(
        st.integers(min_value=-9, max_value=9).map(NumericConst),
        st.just(X),
        st.just(Cardinality(MASK)),
        st.just(SetReduce("sum", "v", MASK)),
        st.builds(
            lambda i: NumericConst(i), st.integers(min_value=-3, max_value=3)
        ),
    )
    if depth == 0:
        return leaf
    sub = integer_exprs(depth - 1)
    wrapped_division = st.builds(
        lambda a, d, ceil: (NumericCeil if ceil else NumericFloor)(
            NumericBinary("/", a, NumericConst(d))
        ),
        sub,
        st.integers(min_value=1, max_value=5),
        st.booleans(),
    )
    return st.one_of(
        leaf,
        st.builds(lambda a, b: NumericBinary("+", a, b), sub, sub),
        st.builds(lambda a, b: NumericBinary("-", a, b), sub, sub),
        st.builds(lambda a, b: NumericBinary("*", a, b), sub, sub),
        st.builds(NumericMin, sub, sub),
        st.builds(NumericMax, sub, sub),
        wrapped_division,
        st.builds(
            lambda c, a, b: NumericIf(Comparison("<=", c, NumericConst(0)), a, b),
            sub,
            sub,
            sub,
        ),
    )


@given(expr=integer_exprs(4), state=states)
@settings(max_examples=300, deadline=None)
def test_integer_closure(expr, state):
    """Integer-tagged expressions evaluate to exact ints whenever they
    evaluate at all (overflow is a declared error, not a wrap)."""
    try:
        value = dp.eval_numeric(expr, state, TABLES)
    except OverflowError:
        assume(False)
    assert isinstance(value, int) and not isinstance(value, bool)


@given(expr=integer_exprs(3), state=states)
@settings(max_examples=150, deadline=None)
def test_purity(expr, state):
    try:
        first = dp.eval_numeric(expr, state, TABLES)
    except OverflowError:
        assume(False)
    assert dp.eval_numeric(expr, state, TABLES) == first


numbers = st.integers(min_value=-10**6, max_value=10**6)


@given(w=numbers, x=numbers, y=numbers)
@settings(max_examples=200)
def test_isotonicity(w, x, y):
    x, y = min(x, y), max(x, y)
    for operator in ("+", "max"):
        costs = CostStructure(operator, "min", "integer")
        assert combine(costs, w, x) <= combine(costs, w, y)


META = StateMetadata(
    {"thing": 4},
    [
        Variable("U", "set", "thing"),
        Variable("a", "integer", preference="less"),
        Variable("b", "integer", preference="greater"),
    ],
)

resource_states = st.tuples(
    st.just(5),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@given(a=resource_states)
@settings(max_examples=50)
def test_dominance_reflexive(a):
    assert weakly_dominates(META, a, a)


@given(a=resource_states, b=resource_states, c=resource_states)
@settings(max_examples=300)
def test_dominance_transitive(a, b, c):
    if weakly_dominates(META, a, b) and weakly_dominates(META, b, c):
        assert weakly_dominates(META, a, c)


positive = st.integers(min_value=1, max_value=10**6)


@given(primal=positive, dual=positive, scale=st.integers(min_value=1, max_value=999))
@settings(max_examples=200)
def test_gap_scale_invariance(primal, dual, scale):
    assert optimality_gap(scale * primal, scale * dual) == pytest.approx(
        optimality_gap(primal, dual), abs=1e-12
    )


@given(
    costs=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=150)
def test_integral_monotone_under_improvements(costs, data):
    """Inserting an additional improving event never increases P(T)."""
    horizon = 100.0
    costs = sorted(set(costs), reverse=True)
    times = sorted(
        data.draw(
            st.lists(
                st.floats(min_value=0, max_value=horizon, allow_nan=False),
                min_size=len(costs),
                max_size=len(costs),
            )
        )
    )
    events = list(zip(times, costs))
    reference = min(costs) - 1
    base = primal_integral(events, reference, horizon)
    # add one better event after the last
    extra_time = data.draw(st.floats(min_value=times[-1], max_value=horizon))
    improved = events + [(extra_time, reference)]
    assert primal_integral(improved, reference, horizon) <= base + 1e-9


from conftest import random_walk_cost, recursive_solution_cost


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_path_cost_lemma(name):
    """Folding weights left-to-right and combining with the base cost
    equals the recursive solution-cost definition."""
    rng = random.Random(99)
    cls = CLASSES[name]
    checked = 0
    while checked < 30:
        model = cls.build(cls.random(rng))
        walk = random_walk_cost(model, rng)
        if walk is None:
            continue
        folded, names, _ = walk
        assert folded == recursive_solution_cost(model, names, model.target)
        checked += 1
