"""Expression evaluation: values, errors, and the purity contracts."""

import math
from fractions import Fraction

import pytest

from dpsearch import bitset
from dpsearch import EvaluationError, Model, Transition, UnknownSymbolError, caasdy
from dpsearch.expressions import (
    And,
    BoolConst,
    BooleanTable,
    Cardinality,
    Comparison,
    ElementBinary,
    ElementConst,
    ElementIf,
    ElementTable,
    ElementVar,
    FromElement,
    NumericBinary,
    NumericCeil,
    NumericConst,
    NumericFloor,
    NumericMax,
    NumericTable,
    NumericVar,
    Not,
    Or,
    SetAdd,
    SetComplement,
    SetConst,
    SetDifference,
    SetIntersection,
    SetIsEmpty,
    SetMember,
    SetReduce,
    SetRemove,
    SetSubset,
    SetTable,
    SetUnion,
    SetVar,
    SuccessorCost,
    Table,
    TableRegistry,
    eval_condition,
    eval_element,
    eval_numeric,
    eval_set,
)

# TSPTW-shaped context: state = (U, i, t) over three customers.
TABLES = TableRegistry(
    [
        Table(
            "c",
            "integer",
            (3, 3),
            {
                (i, j): v
                for i, row in enumerate([[0, 2, 3], [2, 0, 1], [3, 1, 0]])
                for j, v in enumerate(row)
            },
        ),
        Table("cin", "integer", (3,), {(0,): 2, (1,): 1, (2,): 1}),
        Table("b", "integer", (3,), {(0,): 10, (1,): 10, (2,): 10}),
        Table("flag", "boolean", (3,), {(0,): True, (1,): False, (2,): True}),
    ]
)
U = SetVar(0, "U", 3)
LOC = ElementVar(1, "i")
TIME = NumericVar(2, "t")
TARGET = (bitset.from_items([1, 2], 3), 0, 0)


class TestElement:
    def test_constant(self):
        assert eval_element(ElementConst(3), TARGET, TABLES) == 3

    def test_variable_on_target(self):
        assert eval_element(LOC, TARGET, TABLES) == 0

    def test_table_read(self):
        expr = ElementTable("c", (ElementConst(1), ElementConst(2)))
        assert eval_element(expr, TARGET, TABLES) == 1

    def test_table_read_with_two_state_indices(self):
        expr = ElementTable("c", (LOC, ElementBinary("+", LOC, ElementConst(2))))
        assert eval_element(expr, TARGET, TABLES) == 3

    def test_division_truncates(self):
        expr = ElementBinary("/", ElementConst(7), ElementConst(2))
        assert eval_element(expr, TARGET, TABLES) == 3

    def test_negative_result_rejected(self):
        expr = ElementBinary("-", ElementConst(1), ElementConst(2))
        with pytest.raises(EvaluationError):
            eval_element(expr, TARGET, TABLES)

    def test_division_by_zero(self):
        expr = ElementBinary("/", ElementConst(1), ElementConst(0))
        with pytest.raises(ZeroDivisionError):
            eval_element(expr, TARGET, TABLES)

    def test_unknown_table(self):
        with pytest.raises(UnknownSymbolError):
            eval_element(ElementTable("nope", (ElementConst(0),)), TARGET, TABLES)

    def test_index_out_of_range(self):
        expr = ElementTable("cin", (ElementConst(9),))
        with pytest.raises(EvaluationError):
            eval_element(expr, TARGET, TABLES)

    def test_conditional(self):
        expr = ElementIf(BoolConst(False), ElementConst(1), ElementConst(2))
        assert eval_element(expr, TARGET, TABLES) == 2


class TestSet:
    def test_remove(self):
        assert eval_set(SetRemove(ElementConst(1), U), TARGET, TABLES) == bitset.from_items(
            [2], 3
        )

    def test_union_identity(self):
        expr = SetUnion(U, SetConst(0, 3))
        assert eval_set(expr, TARGET, TABLES) == TARGET[0]

    def test_intersection(self):
        lhs = SetConst(bitset.from_items([1, 2], 3), 3)
        rhs = SetConst(bitset.from_items([2], 3), 3)
        assert eval_set(SetIntersection(lhs, rhs), TARGET, TABLES) == bitset.from_items(
            [2], 3
        )

    def test_difference_and_complement(self):
        assert eval_set(SetDifference(U, U), TARGET, TABLES) == 0
        assert eval_set(SetComplement(U), TARGET, TABLES) == bitset.from_items([0], 3)

    def test_add_out_of_universe(self):
        with pytest.raises(EvaluationError):
            eval_set(SetAdd(ElementConst(3), U), TARGET, TABLES)


class TestNumeric:
    def test_constant_arithmetic(self):
        expr = NumericBinary("+", NumericConst(1), NumericConst(2))
        assert eval_numeric(expr, TARGET, TABLES) == 3

    def test_sum_reduction(self):
        expr = SetReduce("sum", "cin", U)
        assert eval_numeric(expr, TARGET, TABLES) == 2

    def test_ceiling_of_exact_quotient(self):
        expr = NumericCeil(NumericBinary("/", NumericConst(15), NumericConst(8)))
        assert eval_numeric(expr, TARGET, TABLES) == 2

    def test_floor_of_exact_quotient(self):
        expr = NumericFloor(NumericBinary("/", NumericConst(15), NumericConst(8)))
        assert eval_numeric(expr, TARGET, TABLES) == 1

    def test_empty_sum_is_zero(self):
        expr = SetReduce("sum", "cin", SetConst(0, 3))
        assert eval_numeric(expr, TARGET, TABLES) == 0

    def test_empty_product_is_one(self):
        expr = SetReduce("product", "cin", SetConst(0, 3))
        assert eval_numeric(expr, TARGET, TABLES) == 1

    def test_empty_max_errors(self):
        expr = SetReduce("max", "cin", SetConst(0, 3))
        with pytest.raises(EvaluationError):
            eval_numeric(expr, TARGET, TABLES)

    def test_cardinality(self):
        assert eval_numeric(Cardinality(U), TARGET, TABLES) == 2

    def test_overflow_detection(self):
        big = NumericConst(2**62)
        with pytest.raises(OverflowError):
            eval_numeric(NumericBinary("*", big, NumericConst(4)), TARGET, TABLES)

    def test_division_by_zero(self):
        expr = NumericBinary("/", NumericConst(1), NumericConst(0))
        with pytest.raises(ZeroDivisionError):
            eval_numeric(expr, TARGET, TABLES)

    def test_max_of_arrival_and_ready(self):
        arrival = NumericBinary(
            "+", TIME, NumericConst(2)
        )  # t + c(0,1) on the target state
        assert eval_numeric(NumericMax(arrival, NumericConst(0)), TARGET, TABLES) == 2


class TestCondition:
    def test_empty_set(self):
        assert eval_condition(SetIsEmpty(SetConst(0, 3)), TARGET, TABLES) is True

    def test_deadline_check(self):
        # t + c(i, 1) <= b(1) on the target state: 0 + 2 <= 10
        arrival = NumericBinary(
            "+", TIME, NumericConst(2)
        )
        cond = Comparison("<=", arrival, NumericConst(10))
        assert eval_condition(cond, TARGET, TABLES) is True

    def test_membership(self):
        assert eval_condition(
            SetMember(ElementConst(1), SetConst(bitset.from_items([2], 3), 3)),
            TARGET,
            TABLES,
        ) is False

    def test_subset_and_logic(self):
        sub = SetConst(bitset.from_items([1], 3), 3)
        assert eval_condition(SetSubset(sub, U), TARGET, TABLES) is True
        assert eval_condition(Not(SetSubset(U, sub)), TARGET, TABLES) is True
        assert eval_condition(
            And((BoolConst(True), Or((BoolConst(False), BoolConst(True))))),
            TARGET,
            TABLES,
        ) is True

    def test_boolean_table(self):
        assert eval_condition(BooleanTable("flag", (LOC,)), TARGET, TABLES) is True


def test_purity_and_substitution_consistency():
    expr = NumericBinary(
        "+",
        SetReduce("sum", "cin", U),
        NumericBinary("*", TIME, NumericConst(3)),
    )
    state = (bitset.from_items([0, 2], 3), 1, 7)
    first = eval_numeric(expr, state, TABLES)
    second = eval_numeric(expr, state, TABLES)
    assert first == second == (2 + 1) + 21
    # a table access equals indexing the registry directly
    direct = TABLES.lookup("c").lookup((1, 2))
    via_expr = eval_numeric(
        NumericBinary("+", NumericConst(0), NumericConst(0)), state, TABLES
    ) + direct
    assert via_expr == direct
    assert (
        eval_element(ElementTable("c", (ElementConst(1), ElementConst(2))), state, TABLES)
        == direct
    )


# Tables whose values fail a context check, or leave a key out.
FAULTY = TableRegistry(
    list(TABLES)
    + [
        Table("sparse", "integer", (3,), {(0,): 1}),
        Table("neg", "integer", (2,), {(0,): -1, (1,): 2}),
        Table("half", "continuous", (2,), {(0,): 0.5, (1,): 1.5}),
        Table("nan", "continuous", (1,), {(0,): math.nan}),
        Table("big", "integer", (3,), {(j,): 2**62 for j in range(3)}),
    ]
)
ZERO, ONE, TWO = ElementConst(0), ElementConst(1), ElementConst(2)
STRAY = (bitset.from_items([1, 2], 3), 5, 0)  # location 5 is past every table
NEGATIVE = (bitset.from_items([1, 2], 3), -1, 0)  # not a well-typed state

# (evaluator, expression, state, exception): every check of the expression
# semantics, each raising through the compiled path.
ERROR_CASES = {
    "unknown table": (eval_element, ElementTable("nope", (ZERO,)), TARGET, UnknownSymbolError),
    "unknown table in reduction": (eval_numeric, SetReduce("sum", "nope", U), TARGET,
                                   UnknownSymbolError),
    "unknown variable slot": (eval_element, ElementVar(7, "ghost"), TARGET, UnknownSymbolError),
    "table arity": (eval_element, ElementTable("c", (ZERO,)), TARGET, EvaluationError),
    "constant index range": (eval_element, ElementTable("cin", (ElementConst(9),)), TARGET,
                             EvaluationError),
    "state index range": (eval_numeric, NumericTable("cin", (LOC,)), STRAY, EvaluationError),
    "negative state index": (eval_numeric, NumericTable("cin", (LOC,)), NEGATIVE,
                             EvaluationError),
    "two-index range": (eval_numeric, NumericTable("c", (LOC, ONE)), STRAY, EvaluationError),
    "two free indices": (eval_numeric, NumericTable("c", (LOC, LOC)), STRAY, EvaluationError),
    "reduction index range": (eval_numeric, SetReduce("sum", "cin", SetConst(0b1000, 4)),
                              TARGET, EvaluationError),
    "missing key": (eval_numeric, NumericTable("sparse", (ONE,)), TARGET, EvaluationError),
    "missing key from state": (eval_numeric, NumericTable("sparse", (LOC,)),
                               (0, 2, 0), EvaluationError),
    "missing key in reduction": (eval_numeric, SetReduce("sum", "sparse", U), TARGET,
                                 EvaluationError),
    "negative value in element context": (eval_element, ElementTable("neg", (ZERO,)), TARGET,
                                          EvaluationError),
    "float in element context": (eval_element, ElementTable("half", (LOC,)), TARGET,
                                 EvaluationError),
    "float in set context": (eval_set, SetTable("half", (ZERO,), 3), TARGET, EvaluationError),
    "bool in numeric context": (eval_numeric, NumericTable("flag", (LOC,)), TARGET,
                                EvaluationError),
    "int in boolean context": (eval_condition, BooleanTable("cin", (LOC,)), TARGET,
                               EvaluationError),
    "bool in numeric reduction": (eval_numeric, SetReduce("sum", "flag", U), TARGET,
                                  EvaluationError),
    "negative element": (eval_element, ElementBinary("-", LOC, ONE), TARGET, EvaluationError),
    "element overflow": (eval_element, ElementBinary("*", ElementConst(2**62), ElementTable(
        "cin", (ZERO,))), TARGET, OverflowError),
    "numeric overflow": (eval_numeric, NumericBinary("+", TIME, NumericConst(2**63 - 1)),
                         (0, 0, 1), OverflowError),
    "reduction overflow": (eval_numeric, SetReduce("sum", "big", U), TARGET, OverflowError),
    "NaN": (eval_numeric, NumericBinary("+", TIME, NumericTable("nan", (ZERO,))), TARGET,
            EvaluationError),
    "NaN from arithmetic": (eval_numeric, NumericBinary(
        "*", NumericConst(math.inf), NumericConst(0.0)), TARGET, EvaluationError),
    "element division by zero": (eval_element, ElementBinary("/", ONE, LOC), TARGET,
                                 ZeroDivisionError),
    "element modulo by zero": (eval_element, ElementBinary("%", ONE, ZERO), TARGET,
                               ZeroDivisionError),
    "numeric division by zero": (eval_numeric, NumericBinary("/", NumericConst(1), TIME),
                                 TARGET, ZeroDivisionError),
    "set universe": (eval_set, SetAdd(LOC, U), STRAY, EvaluationError),
    "empty min": (eval_numeric, SetReduce("min", "cin", SetRemove(ONE, SetRemove(TWO, U))),
                  TARGET, EvaluationError),
    "successor-cost placeholder": (eval_numeric, SuccessorCost(), TARGET, EvaluationError),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_each_check_raises(case):
    evaluate, expr, state, error = ERROR_CASES[case]
    with pytest.raises(error):
        evaluate(expr, state, FAULTY)


def test_faults_in_unevaluated_branches_stay_silent():
    fault = Comparison("<", NumericBinary("/", NumericConst(1), NumericConst(0)), TIME)
    assert eval_condition(Or((BoolConst(True), fault)), TARGET, FAULTY) is True
    assert eval_condition(And((SetIsEmpty(U), fault)), TARGET, FAULTY) is False
    unknown = ElementTable("nope", (ZERO,))
    assert eval_element(ElementIf(SetMember(ONE, U), ONE, unknown), TARGET, FAULTY) == 1


def test_evaluation_keeps_value_types():
    third = NumericBinary("/", FromElement(ONE), NumericConst(3))
    assert eval_numeric(third, TARGET, TABLES) == Fraction(1, 3)
    assert eval_numeric(NumericBinary("*", third, NumericConst(3)), TARGET, TABLES) == 1
    assert type(eval_numeric(NumericBinary("*", third, NumericConst(3)), TARGET, TABLES)) is int
    half = NumericBinary("/", NumericConst(1.0), NumericConst(2))
    assert eval_numeric(half, TARGET, TABLES) == 0.5


def test_unused_transition_with_unknown_table(desk_tsptw_model):
    base = desk_tsptw_model
    # never applicable, so no solver evaluates its effect or weight
    ghost = Transition(
        "ghost",
        (BoolConst(False),),
        ((1, ElementTable("nope", (ZERO,))),),
        NumericTable("nope", ()),
    )
    model = Model(
        base.metadata,
        base.tables,
        base.target,
        base.transitions + (ghost,),
        base.base_cases,
        base.constraints,
        base.dual_bounds,
        base.costs,
    )
    assert caasdy(model).cost == 6
    with pytest.raises(UnknownSymbolError):
        model.successor(ghost, model.target)
    with pytest.raises(UnknownSymbolError):
        model.weight(ghost, model.target)


def test_duplicate_table_names_rejected():
    with pytest.raises(ValueError):
        TableRegistry([Table("x", "integer", (), {(): 1}), Table("x", "integer", (), {(): 2})])


def test_table_default_used_for_absent_keys():
    table = Table("sparse", "integer", (4, 4), {(0, 1): 5}, default=0)
    assert table.lookup((0, 1)) == 5
    assert table.lookup((2, 3)) == 0
    with pytest.raises(EvaluationError):
        table.lookup((4, 0))
