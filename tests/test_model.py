"""Model operations: constraints, base costs, expansion, dominance,
cost combination, dual bounds, and the validator."""

import math
import pickle

import pytest

from dpsearch import (
    BaseCase,
    CostStructure,
    Dominance,
    EvaluationError,
    Model,
    ModelError,
    StateMetadata,
    Transition,
    UnknownSymbolError,
    Variable,
    bitset,
    caasdy,
    combine,
    dominance_compare,
    validate,
)
from dpsearch.expressions import (
    BoolConst,
    Comparison,
    ElementConst,
    NumericBinary,
    NumericConst,
    NumericTable,
    NumericVar,
    SuccessorCost,
    TableRegistry,
)
from dpsearch.problems import TsptwInstance, build_tsptw


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
        with pytest.raises(EvaluationError, match=f"effect of 'grow' produced {produced}"):
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
        ("base case", lambda m: m.is_base((0,)), "base case 0"),
        ("precondition", lambda m: m.applicable_transitions((0,)), "precondition of 'step'"),
        ("precondition", lambda m: m.all_applicable_transitions((0,)), "precondition of 'step'"),
        ("effect", lambda m: m.successor(m.transitions[0], (0,)), "effect of 'step'"),
        ("weight", lambda m: m.weight(m.transitions[0], (0,)), "weight of 'step'"),
    ],
)
def test_arithmetic_faults_name_where_they_arose(zero_at, query, where):
    with pytest.raises(EvaluationError, match=f"^{where}: numeric division by zero"):
        query(_faulty_model(zero_at))


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


class TestCombine:
    def test_addition(self):
        costs = CostStructure("+", "min", "integer")
        assert combine(costs, 2, 3) == 5

    def test_identity(self):
        costs = CostStructure("+", "min", "integer")
        assert combine(costs, 7, costs.identity) == 7
        maxed = CostStructure("max", "min", "integer", max_identity=0)
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


class TestDominance:
    def test_less_time_dominates(self, desk_tsptw_model):
        meta = desk_tsptw_model.metadata
        a = state_of(desk_tsptw_model, [1], 1, 3)
        b = state_of(desk_tsptw_model, [1], 1, 5)
        assert dominance_compare(meta, a, b) == Dominance.FIRST
        assert dominance_compare(meta, b, a) == Dominance.SECOND

    def test_identical_states_equal(self, desk_tsptw_model):
        meta = desk_tsptw_model.metadata
        a = state_of(desk_tsptw_model, [1], 1, 3)
        assert dominance_compare(meta, a, a) == Dominance.EQUAL

    def test_different_nonresource_incomparable(self, desk_tsptw_model):
        meta = desk_tsptw_model.metadata
        a = state_of(desk_tsptw_model, [1], 1, 3)
        b = state_of(desk_tsptw_model, [2], 1, 3)
        assert dominance_compare(meta, a, b) == Dominance.INCOMPARABLE

    def test_greater_preference(self):
        meta = StateMetadata(
            {}, [Variable("r", "integer", preference="greater")]
        )
        assert dominance_compare(meta, (5,), (3,)) == Dominance.FIRST

    def test_mixed_resources_incomparable(self):
        meta = StateMetadata(
            {},
            [
                Variable("r", "integer", preference="greater"),
                Variable("k", "integer", preference="less"),
            ],
        )
        assert dominance_compare(meta, (5, 5), (3, 3)) == Dominance.INCOMPARABLE


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

    def test_beam_on_undeclared_acyclicity_warns(self):
        meta = StateMetadata({}, [Variable("x", "integer")])
        model = Model(
            meta,
            TableRegistry(),
            (0,),
            [],
            [BaseCase((BoolConst(True),), NumericConst(0))],
            acyclic=False,
        )
        assert any(d.level == "warning" for d in validate(model, solver="cabs"))


def test_metadata_rejects_duplicate_names():
    with pytest.raises(ModelError):
        StateMetadata({}, [Variable("x", "integer"), Variable("x", "integer")])


def test_set_variable_needs_object():
    with pytest.raises(ModelError):
        Variable("U", "set")


def test_set_resource_preference_rejected():
    with pytest.raises(ModelError):
        Variable("U", "set", "thing", preference="less")
