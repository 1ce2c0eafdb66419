"""Model operations: constraints, base costs, expansion, dominance,
cost combination, dual bounds, and the validator."""

import itertools
import math
import pickle
import random
import re
import pytest

from dpsearch import (
    BaseCase,
    CostStructure,
    EvaluationError,
    Model,
    ModelError,
    SOLVER_NAMES,
    StateMetadata,
    Status,
    Transition,
    UnknownSymbolError,
    Variable,
    bellman_oracle,
    bitset,
    caasdy,
    combine,
    solve,
    validate,
)
from dpsearch import yamlio
from dpsearch.expressions import (
    INT64_MAX,
    BoolConst,
    Comparison,
    ElementConst,
    ElementVar,
    NumericBinary,
    NumericConst,
    NumericTable,
    NumericVar,
    SuccessorCost,
    Table,
    TableRegistry,
)
from dpsearch.problems import CLASSES, TsptwInstance, build_tsptw

from conftest import registry_admits, weakly_dominates


def state_of(model, unvisited, location, time):
    return (bitset.from_items(unvisited, model.metadata.objects["customer"]), location, time)


class TestConstraints:
    def test_empty_conjunction_holds(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [],
            [BaseCase((BoolConst(True),), NumericConst(0))],
        )
        assert model.check_constraints((5,)) is True

    def test_desk_tsptw_constraint(self, desk_tsptw_model):
        # (U={1}, i=0, t=8): 8 + cstar(0,1)=2 <= b(1)=10
        assert desk_tsptw_model.check_constraints(state_of(desk_tsptw_model, [1], 0, 8))

    def test_desk_tsptw_constraint_violated(self):
        travel = ((0, 3, 3), (3, 0, 1), (3, 1, 0))
        model = build_tsptw(TsptwInstance(travel, (0, 0, 0), (10, 10, 10)))
        # 8 + cstar(0,1)=3 > 10
        assert not model.check_constraints(state_of(model, [1], 0, 8))


class TestBaseCost:
    def test_satisfied_base_case(self, desk_tsptw_model):
        assert desk_tsptw_model.base_cost(state_of(desk_tsptw_model, [], 2, 7)) == 3

    def test_unsatisfied(self, desk_tsptw_model):
        assert desk_tsptw_model.base_cost(state_of(desk_tsptw_model, [1], 2, 7)) is None

    def test_two_satisfied_cases_reduce(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [],
            [
                BaseCase((BoolConst(True),), NumericConst(5)),
                BaseCase((BoolConst(True),), NumericConst(2)),
            ],
        )
        assert model.base_cost((0,)) == 2


class TestApplicable:
    def test_declaration_order(self, desk_tsptw_model):
        names = [
            t.name
            for t in desk_tsptw_model.applicable_transitions(
                state_of(desk_tsptw_model, [1, 2], 0, 0)
            )
        ]
        assert names == ["visit-1", "visit-2"]

    def test_no_applicable(self):
        model = build_tsptw(
            TsptwInstance(((0, 2), (2, 0)), (0, 0), (10, 1))
        )  # deadline 1 < travel 2
        assert model.applicable_transitions(model.target) == []

    def test_first_declared_forced_wins(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        make = lambda name, forced: Transition(
            name, (BoolConst(True),), ((0, NumericConst(1)),), NumericConst(0), forced
        )
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [make("a", False), make("b", True), make("c", True)],
            [BaseCase((BoolConst(False),), NumericConst(0))],
        )
        assert [t.name for t in model.applicable_transitions((0,))] == ["b"]
        assert [t.name for t in model.all_applicable_transitions((0,))] == ["a", "b", "c"]


class TestSuccessor:
    def test_desk_visit(self, desk_tsptw_model):
        visit_1 = desk_tsptw_model.transitions[0]
        state = state_of(desk_tsptw_model, [1, 2], 0, 0)
        assert desk_tsptw_model.successor(visit_1, state) == state_of(
            desk_tsptw_model, [2], 1, 2
        )

    def test_effects_use_pre_state(self):
        # swap-like simultaneity: both effects read the original state
        meta = StateMetadata({}, [Variable("x", "integer"), Variable("y", "integer")])
        from dpsearch.expressions import NumericVar

        t = Transition(
            "swap",
            (),
            ((0, NumericVar(1, "y")), (1, NumericVar(0, "x"))),
            NumericConst(0),
        )
        model = Model(
            meta,
            TableRegistry(),
            (1, 2),
            [t],
            [BaseCase((BoolConst(False),), NumericConst(0))],
        )
        assert model.successor(t, (1, 2)) == (2, 1)

    def test_identity_transition(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        t = Transition("noop", (), (), NumericConst(0))
        model = Model(
            meta,
            TableRegistry(),
            (7,),
            [t],
            [BaseCase((BoolConst(False),), NumericConst(0))],
        )
        assert model.successor(t, (7,)) == (7,)


    @pytest.mark.parametrize(
        "kind, effect, produced",
        [
            ("integer", NumericBinary("/", NumericVar(0, "x"), NumericConst(2)), "Fraction"),
            ("continuous", NumericBinary("*", NumericVar(0, "x"), NumericConst(1e308)), "inf"),
        ],
    )
    def test_effect_value_must_fit_its_variable(self, kind, effect, produced):
        meta = StateMetadata({}, [Variable("x", kind)])
        t = Transition("grow", (), ((0, effect),), NumericConst(0))
        base = BaseCase((BoolConst(False),), NumericConst(0))
        model = Model(meta, TableRegistry(), (3,), [t], [base])
        pattern = f"^effect of 'grow': {kind} variable 'x' cannot take {produced}"
        with pytest.raises(EvaluationError, match=pattern):
            model.successor(t, (3,))


def _faulty_model(zero_at: str) -> Model:
    """One integer variable ``x`` with a division by ``x`` in the part
    named by ``zero_at``; every other part is harmless."""
    meta = StateMetadata({}, [Variable("x", "integer")])
    x = NumericVar(0, "x")
    ratio = NumericBinary("/", NumericConst(6), x)
    safe = NumericConst(1)

    def part(name):
        return ratio if name == zero_at else safe

    return Model(
        meta,
        TableRegistry(),
        (0,),
        [
            Transition(
                "step",
                (Comparison("<=", part("precondition"), NumericConst(9)),),
                ((0, NumericBinary("+", x, part("effect"))),),
                part("weight"),
            )
        ],
        [BaseCase((Comparison(">=", part("base case"), NumericConst(9)),), NumericConst(0))],
        constraints=[BoolConst(True), Comparison(">", part("constraint"), NumericConst(0))],
        dual_bounds=[NumericConst(0), part("bound")],
    )


@pytest.mark.parametrize(
    "zero_at, query, where",
    [
        ("constraint", lambda m: m.check_constraints((0,)), "state constraint 1"),
        ("bound", lambda m: m.eval_dual_bound((0,)), "dual bound 1"),
        ("base case", lambda m: m.base_cost((0,)), "base case 0"),
        ("precondition", lambda m: m.applicable_transitions((0,)), "precondition of 'step'"),
        ("precondition", lambda m: m.all_applicable_transitions((0,)), "precondition of 'step'"),
        ("effect", lambda m: m.successor(m.transitions[0], (0,)), "effect of 'step'"),
        ("weight", lambda m: m.weight(m.transitions[0], (0,)), "weight of 'step'"),
    ],
)
def test_arithmetic_faults_name_where_they_arose(zero_at, query, where):
    with pytest.raises(EvaluationError, match=f"^{where}: numeric division by zero"):
        query(_faulty_model(zero_at))


def _out_of_range_model(read_at: str) -> Model:
    """An element ``i`` at 5 and an integer ``x``, with a read of the
    three-entry table ``c`` at ``i`` in the part named by ``read_at``;
    every other part is harmless, and no state is a base state."""
    meta = StateMetadata({"item": 9}, [Variable("i", "element", "item"), Variable("x", "integer")])
    tables = TableRegistry([Table("c", "integer", (3,), {(k,): 1 for k in range(3)})])
    read = NumericTable("c", (ElementVar(0, "i"),))

    def part(name):
        return read if name == read_at else NumericConst(1)

    return Model(
        meta,
        tables,
        (5, 0),
        [
            Transition(
                "step",
                (Comparison("<=", part("precondition"), NumericConst(9)),),
                ((1, NumericBinary("+", NumericVar(1, "x"), part("effect"))),),
                part("weight"),
            )
        ],
        [BaseCase((Comparison(">=", part("base case"), NumericConst(9)),), NumericConst(0))],
        constraints=[BoolConst(True), Comparison(">", part("constraint"), NumericConst(0))],
        dual_bounds=[NumericConst(0), part("bound")],
    )


READ_ORIGINS = {
    "constraint": ("state constraint 1", lambda m: m.check_constraints(m.target)),
    "bound": ("dual bound 1", lambda m: m.eval_dual_bound(m.target)),
    "base case": ("base case 0", lambda m: m.base_cost(m.target)),
    "precondition": ("precondition of 'step'", lambda m: m.applicable_transitions(m.target)),
    "effect": ("effect of 'step'", lambda m: m.successor(m.transitions[0], m.target)),
    "weight": ("weight of 'step'", lambda m: m.weight(m.transitions[0], m.target)),
}


@pytest.mark.parametrize("read_at", sorted(READ_ORIGINS))
def test_a_read_out_of_range_names_its_query(read_at):
    """Through the query itself, through ``edges`` (which evaluates no
    dual bound) and through every solver."""
    where, query = READ_ORIGINS[read_at]
    model = _out_of_range_model(read_at)
    pattern = f"^{re.escape(where)}: index 5 out of range for argument 0 of table 'c'$"
    runs = [query] if read_at == "bound" else [query, lambda m: m.edges(m.target)]
    runs += [lambda m, solver=solver: solve(m, solver) for solver in SOLVER_NAMES]
    for run in runs:
        with pytest.raises(EvaluationError, match=pattern):
            run(model)


def test_overflow_is_an_evaluation_error():
    meta = StateMetadata({}, [Variable("x", "integer")])
    model = Model(
        meta,
        TableRegistry(),
        (2**62,),
        [],
        [BaseCase((BoolConst(True),), NumericBinary("*", NumericVar(0, "x"), NumericConst(4)))],
    )
    with pytest.raises(EvaluationError, match="^base case 0: .*64-bit range"):
        model.base_cost(model.target)


def test_short_state_is_an_unknown_symbol(desk_tsptw_model):
    with pytest.raises(UnknownSymbolError):
        desk_tsptw_model.check_constraints((0b110, 0))


def test_pickled_model_recompiles(desk_tsptw_model):
    solved = caasdy(desk_tsptw_model)
    copy = pickle.loads(pickle.dumps(desk_tsptw_model))
    assert copy == desk_tsptw_model
    assert caasdy(copy).transitions == solved.transitions


def test_queries_compile_once_on_first_use(desk_tsptw_model):
    """The fused queries compile on the first query of the search, the
    separate ones on the first that asks for them; neither pickles."""
    model = desk_tsptw_model
    read_back = yamlio.load_model(*yamlio.serialize_model(model))
    for name in ("_queries", "_separate"):
        assert name not in vars(read_back) and name not in vars(model)
    model.successor(model.transitions[0], model.target)
    assert "_queries" not in vars(model)
    separate = vars(model)["_separate"]
    assert model.check_constraints(model.target)
    compiled = vars(model)["_queries"]
    assert model.base_cost(model.target) is None and model.eval_dual_bound(model.target) is not None
    assert model.edges(model.target)
    assert vars(model)["_queries"] is compiled and vars(model)["_separate"] is separate
    assert "_queries" not in model.__getstate__() and "_separate" not in model.__getstate__()


def test_foreign_transition_is_a_model_error(desk_tsptw_model):
    model = desk_tsptw_model
    foreign = Transition("elsewhere", (), (), NumericConst(1))
    with pytest.raises(ModelError, match="^transition 'elsewhere' is not one of the model's"):
        model.successor(foreign, model.target)
    with pytest.raises(ModelError, match="^transition 'elsewhere' is not one of the model's"):
        model.weight(foreign, model.target)


class TestCombine:
    def test_addition(self):
        costs = CostStructure("+", "min", "integer")
        assert combine(costs, 2, 3) == 5

    def test_identity(self):
        costs = CostStructure("+", "min", "integer")
        assert combine(costs, 7, costs.identity) == 7
        maxed = CostStructure("max", "min", "integer")
        assert combine(maxed, 7, maxed.identity) == 7

    def test_max_operator(self):
        costs = CostStructure("max", "min", "integer")
        assert combine(costs, 4, 2) == 4

    def test_infinity_absorbs(self):
        costs = CostStructure("+", "min", "integer")
        assert combine(costs, 3, math.inf) == math.inf
        maxed = CostStructure("max", "min", "integer")
        assert combine(maxed, 3, math.inf) == math.inf

    def test_overflow(self):
        costs = CostStructure("+", "min", "integer")
        with pytest.raises(OverflowError):
            combine(costs, 2**62, 2**62)


def _old_combine(costs, w, x):
    """``combine`` as it was written before ``CostStructure.add``."""
    if costs.operator == "max":
        return max(w, x)
    if isinstance(w, float) and math.isinf(w):
        return w
    if isinstance(x, float) and math.isinf(x):
        return x
    value = w + x
    if isinstance(value, int) and abs(value) > INT64_MAX:
        raise OverflowError(f"cost {value} exceeds 64-bit range")
    return value


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, with its class, or the class and text
    of what it raises."""
    try:
        value = fn(*args)
    except Exception as err:
        return "raised", type(err), str(err)
    return type(value), value


COST_STRUCTURES = [
    CostStructure(operator, direction, cost_type)
    for operator, direction, cost_type in itertools.product(
        ("+", "max"), ("min", "max"), ("integer", "continuous")
    )
]
COST_VALUES = (
    0, 7, -3, INT64_MAX, INT64_MAX + 1, -INT64_MAX, -INT64_MAX - 1, 2**62,
    0.0, 2.5, -1.5, math.inf, -math.inf,
)


@pytest.mark.parametrize("costs", COST_STRUCTURES, ids=repr)
def test_builtin_cost_arithmetic_matches_the_definition(costs):
    for w, x in itertools.product(COST_VALUES, repeat=2):
        expected = _outcome(_old_combine, costs, w, x)
        assert _outcome(costs.add, w, x) == expected, (w, x)
        assert _outcome(combine, costs, w, x) == expected, (w, x)
        assert costs.better(w, x) is (w < x if costs.minimize else w > x), (w, x)


@pytest.mark.parametrize("costs", COST_STRUCTURES, ids=repr)
def test_cost_structure_pickles_with_its_helpers_cached(costs):
    better, add = costs.better, costs.add
    copy = pickle.loads(pickle.dumps(costs))
    assert copy == costs and hash(copy) == hash(costs)
    assert vars(copy)["better"] is better and vars(copy)["add"] is add
    assert copy.add(2, 3) == costs.add(2, 3) and copy.better(2, 3) is costs.better(2, 3)


def test_model_pickles_after_solving(desk_tsptw_model):
    cls = CLASSES["mdkp"]
    for model in (cls.build(cls.random(random.Random(4))), desk_tsptw_model):
        solved = caasdy(model)
        assert {"better", "add"} <= vars(model.costs).keys()
        copy = pickle.loads(pickle.dumps(model))
        assert copy == model
        again = caasdy(copy)
        assert (again.cost, again.transitions) == (solved.cost, solved.transitions)


# -- the fused edge loop against the separate queries


def _per_query_edges(model, state):
    """The edges of ``state`` through the separate queries, none of which
    shares the fused constraint check that ``Model.edges`` runs."""
    base = model.base_cost(state)
    if base is not None:
        return base
    edges = []
    for transition in model.applicable_transitions(state):
        successor = model.successor(transition, state)
        if model._constraints_by_query(successor):
            edges.append((transition, successor, model.weight(transition, state)))
    return edges


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_fused_edges_match_the_queries_on_every_reached_state(name):
    cls = CLASSES[name]
    rng = random.Random(f"edges {name}")
    forced = 0
    for _ in range(6):
        model = cls.build(cls.random(rng))
        forced += any(t.forced for t in model.transitions)
        for state in bellman_oracle(model).values:
            assert model.edges(state) == _per_query_edges(model, state), state
    assert forced == (6 if name in ("binpacking", "optw", "salbp1", "talent") else 0)


def _one_variable_model(transitions, constraints=()):
    """A model over one integer variable ``x`` that starts at 0 and has
    no base state."""
    return Model(
        StateMetadata({}, [Variable("x", "integer")]),
        TableRegistry(),
        (0,),
        transitions,
        [BaseCase((BoolConst(False),), NumericConst(0))],
        constraints=constraints,
    )


_X = NumericVar(0, "x")
_SIX_BY_X = NumericBinary("/", NumericConst(6), _X)  # divides by zero at x = 0


def _step(name, guard=BoolConst(True), effect=NumericConst(1), weight=NumericConst(1),
          forced=False):
    return Transition(name, (guard,), ((0, effect),), weight, forced)


FAULT_ORDER = {
    # the fused loop reaches a's effect first; the queries test every guard first
    "effect, then a later guard": (
        [
            _step("a", effect=_SIX_BY_X),
            _step("b", guard=Comparison("<=", _SIX_BY_X, NumericConst(9))),
        ],
        (),
        "^precondition of 'b': numeric division by zero",
    ),
    "non-integer weight": (
        [_step("a"), _step("b", weight=NumericBinary("/", NumericConst(1), NumericConst(4)))],
        (),
        "^weight of 'b': integer cost expression produced non-integer Fraction",
    ),
    # a forced transition overrides a's effect, which the queries never evaluate
    "forced after a faulty regular one": (
        [_step("a", effect=_SIX_BY_X), _step("b", effect=NumericConst(2), forced=True)],
        (),
        ["b"],
    ),
    "forced after a regular one": (
        [_step("a"), _step("b", effect=NumericConst(2), forced=True), _step("c", forced=True)],
        (),
        ["b"],
    ),
    "forced successor fails a state constraint": (
        [_step("a"), _step("b", effect=NumericConst(2), forced=True), _step("c")],
        (Comparison("<=", _X, NumericConst(1)),),
        [],
    ),
    "constraint on a successor": (
        [_step("a", effect=NumericConst(0)), _step("b")],
        (Comparison(">", _SIX_BY_X, NumericConst(0)),),
        "^state constraint 0: numeric division by zero",
    ),
}


@pytest.mark.parametrize("case", sorted(FAULT_ORDER))
def test_fused_edges_fault_as_the_queries_do(case):
    """``expected`` is the pattern of the error raised, or the names of
    the transitions of the edges returned."""
    transitions, constraints, expected = FAULT_ORDER[case]
    model = _one_variable_model(transitions, constraints)
    fused = _outcome(model.edges, model.target)
    assert fused == _outcome(_per_query_edges, model, model.target)
    if isinstance(expected, str):
        assert fused[:2] == ("raised", EvaluationError) and re.match(expected, fused[2])
    else:
        assert [t.name for t, _, _ in fused[1]] == expected


@pytest.mark.parametrize(
    "zero_at", ["constraint", "bound", "base case", "precondition", "effect", "weight"]
)
def test_fused_edges_name_each_fault_of_the_queries(zero_at):
    model = _faulty_model(zero_at)
    for state in ((0,), (1,), (-1,)):
        assert _outcome(model.edges, state) == _outcome(_per_query_edges, model, state)


class TestDominance:
    """The dominance preorder, as ``StateRegistry`` applies it."""

    def test_less_time_dominates(self, desk_tsptw_model):
        meta = desk_tsptw_model.metadata
        a = state_of(desk_tsptw_model, [1], 1, 3)
        b = state_of(desk_tsptw_model, [1], 1, 5)
        assert weakly_dominates(meta, a, b)
        assert not weakly_dominates(meta, b, a)

    def test_identical_states_equal(self, desk_tsptw_model):
        meta = desk_tsptw_model.metadata
        a = state_of(desk_tsptw_model, [1], 1, 3)
        assert weakly_dominates(meta, a, a)
        assert weakly_dominates(meta, a, state_of(desk_tsptw_model, [1], 1, 3))

    def test_different_nonresource_incomparable(self, desk_tsptw_model):
        meta = desk_tsptw_model.metadata
        a = state_of(desk_tsptw_model, [1], 1, 3)
        for b in (state_of(desk_tsptw_model, [2], 1, 3), state_of(desk_tsptw_model, [1], 2, 9)):
            assert not weakly_dominates(meta, a, b)
            assert not weakly_dominates(meta, b, a)

    def test_greater_preference(self):
        meta = StateMetadata(
            {}, [Variable("r", "integer", preference="greater")]
        )
        assert weakly_dominates(meta, (5,), (3,))
        assert not weakly_dominates(meta, (3,), (5,))

    def test_mixed_resources_incomparable(self):
        meta = StateMetadata(
            {},
            [
                Variable("r", "integer", preference="greater"),
                Variable("k", "integer", preference="less"),
            ],
        )
        assert not weakly_dominates(meta, (5, 5), (3, 3))
        assert not weakly_dominates(meta, (3, 3), (5, 5))
        assert weakly_dominates(meta, (5, 3), (3, 5))  # wins on both

    @pytest.mark.parametrize("direction, worse", [("min", 1), ("max", -1)])
    def test_no_resource_variable_is_duplicate_detection(self, direction, worse):
        meta = StateMetadata({"item": 3}, [Variable("U", "set", "item"), Variable("x", "integer")])
        costs = CostStructure("+", direction, "integer")
        state = (0b101, 2)
        assert not registry_admits(meta, state, state, g=0, costs=costs)
        assert not registry_admits(meta, state, state, g=worse, costs=costs)
        assert registry_admits(meta, state, state, g=-worse, costs=costs)
        assert registry_admits(meta, state, (0b101, 3), g=worse, costs=costs)

    def test_one_key_slot(self):
        meta = StateMetadata(
            {}, [Variable("x", "integer"), Variable("r", "integer", preference="less")]
        )
        assert weakly_dominates(meta, (1, 2), (1, 4))
        assert not weakly_dominates(meta, (1, 4), (1, 2))
        assert not weakly_dominates(meta, (1, 2), (0, 4))

    def test_zero_key_slots_share_one_bucket(self):
        meta = StateMetadata(
            {},
            [
                Variable("r", "integer", preference="less"),
                Variable("c", "continuous", preference="greater"),
            ],
        )
        assert weakly_dominates(meta, (1, 2.5), (3, 2.5))
        assert weakly_dominates(meta, (1, 2.5), (1, 0.5))
        assert not weakly_dominates(meta, (1, 0.5), (3, 2.5))


class TestDualBound:
    def test_desk_value(self, desk_tsptw_model):
        assert desk_tsptw_model.eval_dual_bound(desk_tsptw_model.target) == 4

    def test_absent_without_bounds(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [],
            [BaseCase((BoolConst(True),), NumericConst(0))],
        )
        assert model.eval_dual_bound((0,)) is None

    def test_zero_bound(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [],
            [BaseCase((BoolConst(True),), NumericConst(0))],
            dual_bounds=[NumericConst(0)],
        )
        assert model.eval_dual_bound((0,)) == 0

    @staticmethod
    def _bounded(bound, goal=2):
        """x steps from 0 up to 2 at weight 1 a step; x = ``goal`` is the base state."""
        step = Transition("up", (Comparison("<", _X, NumericConst(2)),),
                          ((0, NumericBinary("+", _X, NumericConst(1))),), NumericConst(1))
        return Model(
            StateMetadata({}, [Variable("x", "integer")]),
            TableRegistry(),
            (0,),
            [step],
            [BaseCase((Comparison("=", _X, NumericConst(goal)),), NumericConst(0))],
            dual_bounds=[bound],
        )

    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    def test_infinite_bound_proves_infeasibility(self, solver):
        model = self._bounded(NumericConst(math.inf), goal=3)  # no state reaches x = 3
        assert bellman_oracle(model).cost is None
        assert model.eval_dual_bound(model.target) == math.inf
        solution = solve(model, solver)
        assert solution.status == Status.INFEASIBLE
        assert solution.transitions is None

    def test_rational_bound_in_an_integer_model(self):
        whole = self._bounded(NumericBinary("/", NumericConst(4), NumericConst(2)))
        value = whole.eval_dual_bound(whole.target)
        assert (value, type(value)) == (2, int)
        half = self._bounded(NumericBinary("/", NumericConst(1), NumericConst(2)))
        with pytest.raises(EvaluationError) as raised:
            half.eval_dual_bound(half.target)
        assert str(raised.value) == (
            "dual bound 0: integer cost expression produced non-integer Fraction(1, 2)"
        )


class TestValidate:
    def test_desk_model_clean(self, desk_tsptw_model):
        assert validate(desk_tsptw_model) == []

    def test_successor_cost_in_weight(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        t = Transition("bad", (), (), SuccessorCost())
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [t],
            [BaseCase((BoolConst(True),), NumericConst(0))],
        )
        messages = [d.message for d in validate(model) if d.level == "error"]
        assert any("weight" in m for m in messages)

    def test_table_arity_mismatch(self, desk_tsptw_model):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            desk_tsptw_model.tables,
            (0,),
            [],
            [BaseCase((BoolConst(True),), NumericTable("c", (ElementConst(0),)))],
        )
        messages = [d.message for d in validate(model) if d.level == "error"]
        assert any("takes 2 indices" in m for m in messages)

    def test_unknown_table(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [],
            [BaseCase((BoolConst(True),), NumericTable("ghost", ()))],
        )
        messages = [d.message for d in validate(model) if d.level == "error"]
        assert any("ghost" in m for m in messages)

    def test_forced_after_regular_is_informational(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        regular = Transition("r", (), (), NumericConst(0))
        forced = Transition("f", (), (), NumericConst(0), forced=True)
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [regular, forced],
            [BaseCase((BoolConst(True),), NumericConst(0))],
        )
        assert any(d.level == "info" for d in validate(model))

    def test_caasdy_on_maximization_warns(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [],
            [BaseCase((BoolConst(True),), NumericConst(0))],
            costs=CostStructure("+", "max", "integer"),
        )
        assert any(d.level == "warning" for d in validate(model, solver="caasdy"))


def test_metadata_rejects_duplicate_names():
    with pytest.raises(ModelError):
        StateMetadata({}, [Variable("x", "integer"), Variable("x", "integer")])


def test_set_variable_needs_object():
    with pytest.raises(ModelError):
        Variable("U", "set")


def test_set_resource_preference_rejected():
    with pytest.raises(ModelError):
        Variable("U", "set", "thing", preference="less")
