"""The generated query source: what reaches it, how it scales, and how
deep a tree it takes."""

import linecache
import math
import random

import pytest
import yaml

from dpsearch import compiler, yamlio
from dpsearch.errors import UnknownSymbolError
from dpsearch.expressions import (
    And,
    BoolConst,
    Comparison,
    NumericBinary,
    NumericConst,
    NumericFloor,
    NumericIf,
    NumericVar,
    Or,
    TableRegistry,
    eval_condition,
    eval_numeric,
)
from dpsearch.model import BaseCase, Model, StateMetadata, Transition, Variable
from dpsearch.oracle import bellman_oracle
from dpsearch.problems import CLASSES
from dpsearch.problems.cvrp import CvrpInstance, build_cvrp
from dpsearch.problems.tsptw import TsptwInstance, build_tsptw
from dpsearch.search import caasdy


def _source(fn) -> str:
    """The source text a generated function was compiled from."""
    return "".join(linecache.getlines(fn.__code__.co_filename))


def _fused_sources(model) -> list[str]:
    queries = model._queries
    return [_source(fn) for fn in (queries.expand, queries.feasible, queries.bound)]


# -- no document text reaches the source

def _documents(n: dict) -> tuple[str, str]:
    """A domain and problem with the names ``n``; s-expressions take them
    as they are, and YAML quotes them where it must."""
    def transition(name, j, cost):
        return {
            "name": n[name],
            "preconditions": [f"(is_in {j} {n['left']})",
                              f"(< ({n['weight']} {j}) ({n['limit']} {j}))",
                              f"(< {n['load']} inf)"],
            "effect": {n["left"]: f"(remove {j} {n['left']})", n["at"]: str(j),
                       n["load"]: f"(+ {n['load']} ({n['weight']} {j}))"},
            "cost": f"(+ {cost} cost)",
        }

    domain = {
        "cost_type": "continuous",
        "reduce": "min",
        "objects": [n["item"]],
        "state_variables": [
            {"name": n["left"], "type": "set", "object": n["item"]},
            {"name": n["at"], "type": "element", "object": n["item"]},
            {"name": n["load"], "type": "continuous"},
        ],
        "tables": [
            {"name": n["weight"], "type": "continuous", "args": [n["item"]]},
            {"name": n["limit"], "type": "continuous", "args": [n["item"]]},
            {"name": n["big"], "type": "integer"},
        ],
        "transitions": [
            transition("first", 0, f"(* 1/3 ({n['weight']} 0))"),
            transition("second", 1, f"(+ ({n['weight']} 1) 1/7)"),
        ],
        "constraints": [{"condition": f"(< {n['load']} 9223372036854775817)"},
                        {"condition": f"(<= {n['big']} 9223372036854775813)"}],
        "base_cases": [{"conditions": [f"(is_empty {n['left']})"], "cost": "0"}],
        "dual_bounds": ["0"],
    }
    problem = {
        "object_numbers": {n["item"]: 2},
        "target": {n["left"]: [0, 1], n["at"]: 0, n["load"]: 0},
        "table_values": {n["weight"]: ["1/3", 2.5], n["limit"]: [math.inf, 4],
                         n["big"]: 9223372036854775813},
    }
    return yaml.safe_dump(domain), yaml.safe_dump(problem)


PLAIN = {
    "item": "item", "left": "left", "at": "at", "load": "load", "weight": "weight",
    "limit": "limit", "big": "big", "first": "first", "second": "second",
}
# s-expression symbols cannot hold whitespace or parentheses; the other names can
STRANGE = {
    "item": "\"item)\n#__import__('os')",
    "left": "'left\"#",
    "at": "at#\"'",
    "load": "l\"o'a#d",
    "weight": "__import__'os'",
    "limit": "#limit\"",
    "big": "b'i\"g#",
    "first": "\"first)\n# __import__('os').system('true')",
    "second": "'second\n)#\"",
}


def _load(names: dict) -> Model:
    return yamlio.load_model(*_documents(names))


def test_no_document_text_reaches_the_source():
    compiler._CODES.clear()
    strange, plain = _load(STRANGE), _load(PLAIN)
    assert [t.name for t in strange.transitions] == [STRANGE["first"], STRANGE["second"]]
    solution = caasdy(strange)
    assert bellman_oracle(strange).cost == solution.cost
    strange.eval_dual_bound(strange.target)
    sources = "".join(line for code in compiler._CODES.values()
                      for line in linecache.getlines(code.co_filename))
    assert "def expand(" in sources and "def guard(" in sources
    names = [t.name for t in strange.transitions] + [t.name for t in strange.tables]
    names += [v.name for v in strange.metadata.variables] + list(strange.metadata.objects)
    for text in names + ["__import__", "#", "1/3", "1/7", "Fraction", "inf",
                         "9223372036854775813", "9223372036854775817"]:
        assert text not in sources, text

    expected = caasdy(plain)
    assert (solution.cost, solution.expanded, solution.generated) == (
        expected.cost, expected.expanded, expected.generated
    )
    by_name = dict(zip((t.name for t in strange.transitions), (t.name for t in plain.transitions)))
    assert [by_name[name] for name in solution.transitions] == expected.transitions
    assert solution.cost == 1 / 3 * (1 / 3) + 2.5 + 1 / 7


# -- deep trees

DEPTH = 400
X = NumericVar(0, "x")


def _chain():
    chain = X
    for _ in range(DEPTH):
        chain = NumericBinary("+", X, chain)
    return chain


def _junctions():
    """``DEPTH`` nested Or and And nodes over ``x >= k`` tests."""
    tree = Comparison(">", X, NumericConst(0))
    for k in range(DEPTH):
        tree = (And if k % 2 else Or)((Comparison(">=", X, NumericConst(DEPTH - k)), tree))
    return tree


def _junctions_value(x: int) -> bool:
    value = x > 0
    for k in range(DEPTH):
        test = x >= DEPTH - k
        value = (test and value) if k % 2 else (test or value)
    return value


def _ifs():
    tree = X
    for k in range(DEPTH):
        tree = NumericIf(Comparison("=", X, NumericConst(k)), NumericConst(10 * k), tree)
    return tree


@pytest.mark.parametrize("x", [0, 1, 7, 399, 400, 401])
def test_deep_trees_evaluate(x):
    tables = TableRegistry()
    assert eval_numeric(_chain(), (x,), tables) == (DEPTH + 1) * x
    assert eval_condition(_junctions(), (x,), tables) is _junctions_value(x)
    assert eval_numeric(_ifs(), (x,), tables) == (10 * x if x < DEPTH else x)


@pytest.mark.parametrize("x", [0, 1, 7, 400])
def test_deep_trees_in_a_model(x):
    junctions, ifs, chain = _junctions(), _ifs(), _chain()
    step = Transition("step", (junctions,), ((0, chain),), ifs)
    model = Model(
        StateMetadata({}, [Variable("x", "integer")]),
        TableRegistry(),
        (0,),
        [step],
        [BaseCase((BoolConst(False),), NumericConst(0))],
        constraints=[junctions],
        dual_bounds=[ifs, chain],
    )
    holds = _junctions_value(x)
    cost = 10 * x if x < DEPTH else x
    assert model.check_constraints((x,)) is holds
    assert model.eval_dual_bound((x,)) == max(cost, (DEPTH + 1) * x)
    successor = ((DEPTH + 1) * x,)
    expected = [(step, successor, cost)] if holds and _junctions_value(successor[0]) else []
    assert model.edges((x,)) == expected


def test_a_chain_of_roundings_is_emitted_once():
    # the general path of each floor reuses the operand its fast path computed
    tree, links = X, 12
    for k in range(links):
        tree = NumericFloor(NumericBinary("/", NumericBinary("+", tree, NumericConst(k)),
                                          NumericConst(2)))
    fn = compiler.Emitter(TableRegistry()).evaluate(tree)
    assert _source(fn).count("\n") < 12 * links
    for x in (0, 5, 1000, 2.5):
        value = x
        for k in range(links):
            value = math.floor((value + k) / 2)
        assert fn((x,)) == value


# -- one code object per structure, of one size whatever n


def _travel(n: int):
    return tuple(tuple(0 if i == j else 1 + (7 * i + 3 * j) % 9 for j in range(n))
                 for i in range(n))


def _tsptw(n: int) -> Model:
    return build_tsptw(TsptwInstance(travel=_travel(n), ready=(0,) * n, deadline=(10 * n,) * n))


def _cvrp(n: int) -> Model:
    demands = (0,) + tuple(1 + j % 3 for j in range(1, n))
    return build_cvrp(CvrpInstance(_travel(n), demands, capacity=7, vehicles=3))


def test_models_of_one_structure_share_their_code():
    small, large = _tsptw(8), _tsptw(14)
    for query in ("expand", "feasible", "bound"):
        assert getattr(small._queries, query).__code__ is getattr(large._queries, query).__code__
    mdkp = CLASSES["mdkp"]
    other = mdkp.build(mdkp.random(random.Random(1)))
    assert other._queries.expand.__code__ is not small._queries.expand.__code__


def test_expand_calls_no_constraint_check_for_a_model_without_constraints():
    mdkp = CLASSES["mdkp"]
    model = mdkp.build(mdkp.random(random.Random(1)))
    assert not model.constraints and model.edges(model.target)
    assert "FEASIBLE" not in model._queries.expand.__code__.co_varnames
    assert "FEASIBLE" in _tsptw(5)._queries.expand.__code__.co_varnames  # TSPTW has some


def test_the_model_queries_are_the_generated_functions():
    model = _tsptw(5)
    queries = model._queries
    assert model.edges is queries.expand and model.check_constraints is queries.feasible
    assert model.eval_dual_bound is queries.bound


def _steps(c: int) -> Model:
    """Six transitions ``t{j}``: when x = j, x := x + c."""
    steps = [Transition(f"t{j}", (Comparison("=", X, NumericConst(j)),),
                        ((0, NumericBinary("+", X, NumericConst(c))),), NumericConst(1))
             for j in range(6)]
    return Model(StateMetadata({}, [Variable("x", "integer")]), TableRegistry(), (0,), steps,
                 [BaseCase((Comparison(">=", X, NumericConst(6)),), NumericConst(0))])


def test_a_block_source_does_not_depend_on_its_constants():
    # with c = 3, t3 holds the value 3 twice; its block keeps the text of the others
    three, hundred = _steps(3), _steps(100)
    assert three._queries.expand.__code__ is hundred._queries.expand.__code__
    assert three.edges((3,)) == [(three.transitions[3], (6,), 1)]
    assert hundred.edges((5,)) == [(hundred.transitions[5], (105,), 1)]
    assert three.edges((6,)) == 0


@pytest.mark.parametrize("build", [_tsptw, _cvrp], ids=["tsptw", "cvrp"])
def test_source_size_does_not_grow_with_the_instance(build):
    sizes = {n: [source.count("\n") for source in _fused_sources(build(n))] for n in (8, 14, 40)}
    assert sizes[8] == sizes[14] == sizes[40], sizes


def test_the_code_cache_keeps_to_its_bound(monkeypatch):
    monkeypatch.setattr(compiler, "_CACHE_SIZE", 4)
    compiler._CODES.clear()
    terms = NumericConst(1)
    for k in range(12):  # each sum is a source of its own
        terms = NumericBinary("+", terms, NumericConst(k))
        assert eval_numeric(terms, (), TableRegistry()) == 1 + k * (k + 1) // 2
        assert len(compiler._CODES) <= 4
    assert _tsptw(5)._queries.expand((0b11110, 0, 0)) != []
    assert len(compiler._CODES) <= 4


def test_a_fused_query_falls_back_to_name_its_fault():
    # the fused state constraints raise unnamed; the model names the constraint
    model = _tsptw(5)
    with pytest.raises(UnknownSymbolError, match="^state constraint 0 reads a variable slot"):
        model.check_constraints((0b11110, 0))
    assert math.isfinite(model.eval_dual_bound(model.target))


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_a_solve_never_falls_back_on_the_separate_queries(name):
    # the fused functions check slot ranges once on entry only where the
    # table covers every object of the variable: an MDKP stage reaches n,
    # past the weight table, at every base state
    cls = CLASSES[name]
    for seed in range(4):
        model = cls.build(cls.random(random.Random(seed)))
        caasdy(model)
        assert "_separate" not in vars(model), seed


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_a_solve_builds_none_of_the_fallback_queries(name):
    # the fallback the fused functions call builds its query sets on first
    # use, so a solve that never falls back leaves every one of them unbuilt
    cls = CLASSES[name]
    for seed in range(4):
        model = cls.build(cls.random(random.Random(seed)))
        caasdy(model)
        built = vars(model._queries.separate).keys()
        assert not built & {"edges", "edge_of", "base_cases", "constraints", "bounds"}, seed


def test_a_model_has_one_separate_whichever_query_is_built_first(desk_tsptw_model):
    model = desk_tsptw_model
    copy = yamlio.load_model(*yamlio.serialize_model(model))
    assert model.check_constraints(model.target) and copy.base_cost(copy.target) is None
    assert model._separate is model._queries.separate
    assert copy.check_constraints(copy.target)
    assert copy._queries.separate is vars(copy)["_separate"]
