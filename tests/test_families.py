"""Lifted families in the compiler and the validator: each family's trees
are emitted and walked once, and the result is the ground model's."""

from types import FunctionType

import pytest

import dpsearch.model as model_module
from dpsearch import compiler, yamlio
from dpsearch import expressions as ex
from dpsearch.errors import DpsearchError
from dpsearch.model import (
    BaseCase,
    Forall,
    Model,
    ModelError,
    StateMetadata,
    Transition,
    Variable,
    validate,
)
from dpsearch.problems import common as c
from dpsearch.problems.cvrp import CvrpInstance
from dpsearch.problems.tsptw import TsptwInstance, build_tsptw


def _ground_copy(model: Model) -> Model:
    """The same model built from its ground transitions and constraints."""
    return Model(model.metadata, model.tables, model.target, model.transitions,
                 model.base_cases, model.constraints, model.dual_bounds, model.costs)


def _generated(model: Model) -> list:
    """Each fused query's code and defaults; the model's own callables
    (its separate queries, its ``feasible``) by name, and a spilled
    function by its code and defaults."""
    queries = model._queries

    def own(value):
        if getattr(value, "__self__", None) is queries.separate:
            return ("separate", value.__name__)
        if value is queries.feasible:
            return "feasible"
        if isinstance(value, FunctionType):
            return value.__code__, own(value.__defaults__ or ())
        return [own(v) for v in value] if type(value) in (list, tuple) else value

    return [(fn.__code__, own(fn.__defaults__ or ()))
            for fn in (queries.expand, queries.feasible, queries.bound)]


def _assert_emitted_as_ground(model: Model) -> None:
    ground = _ground_copy(model)
    assert ground == model
    for (code, defaults), (ground_code, ground_defaults) in zip(
            _generated(model), _generated(ground)):
        assert code is ground_code
        assert defaults == ground_defaults


def _travel(n: int):
    return tuple(tuple(0 if a == b else 1 + (5 * a + 3 * b) % 7 for b in range(n))
                 for a in range(n))


def _tsptw(n: int, unvisited=None) -> Model:
    instance = TsptwInstance(travel=_travel(n), ready=tuple(range(n)),
                             deadline=tuple(8 * n + 3 * k for k in range(n)))
    model = build_tsptw(instance)
    if unvisited is None:
        return model
    target = (sum(1 << j for j in unvisited),) + model.target[1:]
    return Model(model.metadata, model.tables, target, model.declared_transitions,
                 model.base_cases, model.declared_constraints, model.dual_bounds, model.costs)


def _cvrp_families(n: int) -> Model:
    """CVRP as two families, ``visit`` and ``visit-via-depot``, over U."""
    instance = CvrpInstance(_travel(n), (0,) + tuple(1 + j % 3 for j in range(1, n)),
                            capacity=5, vehicles=2)
    meta = StateMetadata({"customer": n}, [
        Variable("U", "set", "customer"), Variable("i", "element", "customer"),
        Variable("l", "integer", preference="less"), Variable("k", "integer", preference="less"),
    ])
    tables = ex.TableRegistry([
        c.matrix_table("c", instance.travel), c.vector_table("d", instance.demands),
        c.vector_table("cin", instance.cheapest_in), c.vector_table("cout", instance.cheapest_out),
    ])
    U, i = meta.set_("U"), meta.element("i")
    load, used = meta.numeric("l"), meta.numeric("k")
    j = ex.ElementParameter("j")
    demand = c.ntab("d", j)
    over_u = (("j", "U"),)
    visit = Transition(
        "visit", (c.le(c.add(load, demand), instance.capacity),),
        ((0, ex.SetRemove(j, U)), (1, j), (2, c.add(load, demand))),
        c.ntab("c", i, j), parameters=over_u)
    via_depot = Transition(
        "visit-via-depot", (c.lt(used, instance.vehicles),),
        ((0, ex.SetRemove(j, U)), (1, j), (2, demand), (3, c.add(used, 1))),
        c.add(c.ntab("c", i, c.econst(0)), c.ntab("c", c.econst(0), j)), parameters=over_u)
    room = c.mul(c.add(c.sub(instance.vehicles, used), 1), instance.capacity)
    return Model(
        meta, tables, ((1 << n) - 2, 0, 0, 1), [visit, via_depot],
        [BaseCase((c.empty(U),), c.ntab("c", i, c.econst(0)))],
        [c.ge(room, c.add(load, c.sum_over("d", U)))],
        [c.add(c.sum_over("cin", U), c.ntab("cin", c.econst(0))),
         c.add(c.sum_over("cout", U), c.ntab("cout", i))])


# -- a model whose families split

ITEMS, SMALL = 4, 2
X = ex.NumericVar(2, "x")
J = ex.ElementParameter("j")
NJ = ex.NumericParameter("j")


def _at(x: int) -> ex.Condition:
    return ex.Comparison("=", X, ex.NumericConst(x))


def _split_model() -> Model:
    """Families whose members take different paths through the emitter:
    a boolean-table guard (``guard``), an ``if`` on a table value
    (``branch``), ``add j`` past a set's universe (``add``), a table that
    lacks the key of j = 2 (``weigh``) and a ``forall`` that holds for
    some j whatever the state.  ``add`` and ``weigh`` fault on some
    states."""
    meta = StateMetadata({"item": ITEMS, "small": SMALL}, [
        Variable("S", "set", "small"), Variable("T", "set", "item"), Variable("x", "integer"),
    ])
    S, T = meta.set_("S"), meta.set_("T")

    def table(name, kind, values):
        return ex.Table(name, kind, (ITEMS,), {(k,): v for k, v in values.items()})

    tables = ex.TableRegistry([
        table("allowed", "boolean", {0: True, 1: False, 2: True, 3: True}),
        table("flag", "boolean", {0: False, 1: True, 2: True, 3: False}),
        table("v", "integer", {0: 5, 1: 6, 2: 7, 3: 8}),
        table("w", "integer", {0: 1, 1: 2, 3: 4}),
    ])
    step = ex.NumericBinary("+", X, ex.NumericConst(1))
    item = (("j", "item"),)
    transitions = [
        Transition("guard", (_at(0), ex.BooleanTable("allowed", (J,))), ((2, step),),
                   ex.NumericTable("v", (J,)), parameters=item),
        Transition("branch", (_at(1),), (
            (2, ex.NumericBinary("+", X, ex.NumericIf(
                ex.BooleanTable("flag", (J,)), ex.NumericTable("v", (J,)), ex.NumericConst(1)))),),
            ex.NumericConst(1), parameters=item),
        Transition("add", (ex.Comparison("<", ex.NumericBinary("+", NJ, ex.NumericConst(2)), X),
                           ex.Comparison("<", X, ex.NumericConst(6))),
                   ((0, ex.SetAdd(J, S)), (2, step)), ex.NumericConst(1), parameters=item),
        Transition("weigh", (_at(6),), ((2, step),), ex.NumericTable("w", (J,)),
                   parameters=(("j", "T"),)),
    ]
    constraints = [Forall(("j", "item"), ex.Or((
        ex.Not(ex.BooleanTable("allowed", (J,))), ex.Comparison("<", X, ex.NumericConst(8)))))]
    return Model(meta, tables, (0, (1 << ITEMS) - 1, 0), transitions,
                 [BaseCase((ex.Comparison(">=", X, ex.NumericConst(7)),), ex.NumericConst(0))],
                 constraints)


def _answer(query, state):
    try:
        return query(state)
    except DpsearchError as err:
        return type(err), str(err)


class TestLiftedEmission:
    @pytest.mark.parametrize("n", [2, 5, 14, 40])
    def test_tsptw(self, n):
        _assert_emitted_as_ground(_tsptw(n))

    def test_the_fixture_domain(self, fixture_texts):
        _assert_emitted_as_ground(yamlio.load_model(*fixture_texts))

    def test_a_family_without_members(self):
        model = _tsptw(6, unvisited=())
        assert not model.transitions and not model.constraints
        _assert_emitted_as_ground(model)

    @pytest.mark.parametrize("n", [3, 8, 14])
    def test_cvrp_as_two_families(self, n):
        model = _cvrp_families(n)
        assert [t.name for t in model.declared_transitions] == ["visit", "visit-via-depot"]
        _assert_emitted_as_ground(model)

    def test_families_whose_members_split(self):
        _assert_emitted_as_ground(_split_model())

    def test_a_family_too_deep_for_one_body(self):
        # the weight spills into functions of their own, one per member
        weight = ex.NumericTable("v", (J,))
        for k in range(3 * compiler._DEPTH):
            weight = ex.NumericIf(ex.Comparison(">", X, ex.NumericConst(k)), ex.NumericConst(k),
                                  weight)
        split = _split_model()
        deep = Transition("deep", (_at(0),), ((2, ex.NumericConst(1)),), weight,
                          parameters=(("j", "item"),))
        model = Model(split.metadata, split.tables, split.target, [deep], split.base_cases)
        _assert_emitted_as_ground(model)
        assert [w for _, _, w in model.edges((0, 0, 0))] == [5, 6, 7, 8]

    def test_emission_does_not_grow_with_the_customers(self, monkeypatch):
        calls = []
        for node, rule in list(compiler._RULES.items()):
            monkeypatch.setitem(compiler._RULES, node,
                                lambda b, e, _rule=rule: calls.append(1) or _rule(b, e))
        counts = []
        for n in (5, 40):
            model = _tsptw(n)
            calls.clear()
            compiler.Queries(model)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestSplitFamilies:
    """Where a rule decides differently for a family's members, each member
    is emitted alone, and the queries answer as the ground model's do."""

    STATES = [(s, t, x) for s in range(1 << SMALL) for t in range(1 << ITEMS) for x in range(9)]

    def test_each_kind_of_decision_splits(self, monkeypatch):
        split = []
        same = compiler._same

        def spy(value, f):
            try:
                return same(value, f)
            except compiler._Split:
                split.append(f)
                raise

        monkeypatch.setattr(compiler, "_same", spy)
        compiler.Queries(_split_model())
        # the guard, the if, the add, the missing key and the forall's or
        assert len(split) == 5

    @pytest.mark.parametrize("query", ["edges", "check_constraints"])
    def test_the_fused_queries_answer_as_the_ground_ones(self, query):
        model = _split_model()
        ground = _ground_copy(model)
        separate = {"edges": model._separate.expand,
                    "check_constraints": model._separate.feasible}[query]
        faults = 0
        for state in self.STATES:
            answer = _answer(getattr(model, query), state)
            assert answer == _answer(getattr(ground, query), state) == _answer(separate, state)
            faults += type(answer) is tuple and isinstance(answer[1], str)
        if query == "edges":
            assert faults  # some states reach the faulting members

    def test_faults_are_named_as_in_the_ground_model(self):
        model = _split_model()
        assert _answer(model.edges, (0, 0, 5)) == (
            compiler.EvaluationError,
            "effect of 'add-2': cannot add element 2 to a set over 2 objects")
        assert _answer(model.edges, (0, 0b0100, 6)) == (
            compiler.EvaluationError,
            "weight of 'weigh-2': table 'w' has no value for key (2,)")
        weigh = {t.name: t for t in model.transitions if t.name.startswith("weigh")}
        assert model.edges((0, 0b1011, 6)) == [
            (weigh["weigh-0"], (0, 0b1011, 7), 1), (weigh["weigh-1"], (0, 0b1011, 7), 2),
            (weigh["weigh-3"], (0, 0b1011, 7), 4)]


class TestFamilyValidation:
    def _model(self) -> Model:
        """TSPTW-5 with faulty families over every customer and over U, a
        faulty ground transition between them and a faulty ``forall``."""
        base = _tsptw(5)
        (visit,), (deadline,) = base.declared_transitions, base.declared_constraints
        j, i = ex.ElementParameter("j"), base.metadata.element("i")

        def wrong(name, binding):
            weight = c.add(c.ntab("c", j), c.ntab("a", i, j))
            return Transition(name, (c.le(c.ntab("nope", j), 3),), visit.effects, weight,
                              parameters=(("j", binding),))

        plain = Transition("plain", (c.le(c.ntab("missing"), 1),), (), c.num(0))
        forall = Forall(("j", "U"), c.le(c.ntab("b", j, j), c.ntab("ghost", j)))
        return Model(base.metadata, base.tables, base.target,
                     [visit, wrong("wrong", "customer"), plain, wrong("again", "U")],
                     base.base_cases, [deadline, forall], base.dual_bounds, base.costs)

    def test_each_family_reports_for_every_member_in_ground_order(self):
        model = self._model()
        found = validate(model)
        assert found == validate(_ground_copy(model))
        messages = [d.message for d in found]
        assert messages[:4] == [
            "unknown table 'nope' in precondition of 'wrong-0'",
            "table 'c' takes 2 indices, got 1 in weight of 'wrong-0'",
            "table 'a' takes 1 indices, got 2 in weight of 'wrong-0'",
            "unknown table 'nope' in precondition of 'wrong-1'",
        ]
        assert messages[15] == "unknown table 'missing' in precondition of 'plain'"
        assert messages[-2:] == ["table 'b' takes 1 indices, got 2 in state constraint 7",
                                 "unknown table 'ghost' in state constraint 7"]
        # 3 for each of 5 + 4 members, 1 for plain, 2 for each of 4 constraints
        assert len(messages) == 3 * 9 + 1 + 2 * 4

    def test_a_family_is_walked_once(self, monkeypatch):
        walked = []
        faults = model_module._faults
        monkeypatch.setattr(model_module, "_faults",
                            lambda model, n, trees: walked.extend(trees) or faults(model, n, trees))
        for n in (5, 40):
            walked.clear()
            validate(_tsptw(n))
            # visit's guard, precondition, 3 effects and weight; the base
            # case's condition and cost; the forall; 2 dual bounds
            assert len(walked) == 11


class TestParameterNames:
    def test_two_parameters_of_one_name_are_rejected(self):
        model = _tsptw(4)
        (visit,) = model.declared_transitions
        twice = Transition(visit.name, visit.preconditions, visit.effects, visit.weight,
                           parameters=(("j", "U"), ("j", "customer")))
        with pytest.raises(ModelError, match="^transition 'visit' has two parameters named 'j'$"):
            Model(model.metadata, model.tables, model.target, [twice], model.base_cases)
