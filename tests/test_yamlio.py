"""Expression grammar, document parsing, grounding, and serialization."""

import dataclasses
import gc
import itertools
import math
import pickle
import random
import re
import zlib
from fractions import Fraction

import pytest
import yaml

import dpsearch as dp
from conftest import REMOVED_POLICY_KEYS
from dpsearch import DocumentError, ExpressionParseError, UnknownSymbolError
from dpsearch import sexpr, yamlio
from dpsearch.expressions import (
    BoolConst,
    ElementConst,
    ElementParameter,
    NumericBinary,
    NumericConst,
    NumericMax,
    NumericTable,
    NumericVar,
    SetIsEmpty,
    SetRemove,
    Table,
    TableRegistry,
)
from dpsearch.problems import CLASSES, CvrpInstance, TsptwInstance, build_cvrp, build_tsptw
from dpsearch.problems import common as c


# A domain whose grounded transitions are named a-1, a-0, a-1.
REPEATED_NAME_DOMAIN = (
    "cost_type: integer\n"
    "reduce: min\n"
    "objects: [spot]\n"
    "state_variables:\n"
    "  - {name: x, type: integer}\n"
    "transitions:\n"
    "  - {name: a-1, preconditions: ['(< x 1)'], effect: {x: '(+ x 1)'}, cost: '(+ 1 cost)'}\n"
    "  - name: a\n"
    "    parameters: [{name: p, object: spot}]\n"
    "    preconditions: ['(< x 1)']\n"
    "    effect: {x: '(+ x 1)'}\n"
    "    cost: '(+ 1 cost)'\n"
    "base_cases:\n"
    "  - {conditions: ['(>= x 1)'], cost: '0'}\n"
)


@pytest.fixture
def tsptw_context(desk_tsptw_model):
    model = desk_tsptw_model
    return sexpr.ParseContext(model.metadata, model.tables, {"j": 1})


class TestExpressionText:
    def test_cost_text_splits_weight(self, tsptw_context):
        operator, weight = sexpr.parse_cost("(+ (c i j) cost)", tsptw_context)
        assert operator == "+"
        assert isinstance(weight, NumericTable)
        assert weight.table == "c"

    def test_effect_max_expression(self, tsptw_context):
        expr = sexpr.parse_numeric("(max (+ t (c i j)) (a j))", tsptw_context)
        assert isinstance(expr, NumericMax)
        state = (dp.bitset.from_items([1, 2], 3), 0, 0)
        assert dp.eval_numeric(expr, state, tsptw_context.tables) == 2

    def test_base_condition(self, tsptw_context):
        cond = sexpr.parse_condition("(is_empty U)", tsptw_context)
        assert isinstance(cond, SetIsEmpty)

    def test_misplaced_cost_rejected(self, tsptw_context):
        for text in ("cost", "(+ cost (c i j))", "(* (c i j) cost)", "(+ (+ cost 1) cost)"):
            with pytest.raises(ExpressionParseError):
                sexpr.parse_cost(text, tsptw_context)

    def test_cost_illegal_outside_cost_context(self, tsptw_context):
        with pytest.raises(ExpressionParseError):
            sexpr.parse_numeric("(+ 1 cost)", tsptw_context)

    def test_unknown_symbol(self, tsptw_context):
        with pytest.raises(UnknownSymbolError):
            sexpr.parse_numeric("(+ t ghost)", tsptw_context)

    def test_arity_mismatch(self, tsptw_context):
        with pytest.raises(ExpressionParseError):
            sexpr.parse_numeric("(is_empty U U)", tsptw_context)

    def test_type_mismatch(self, tsptw_context):
        with pytest.raises(ExpressionParseError):
            sexpr.parse_set("(+ 1 2)", tsptw_context)

    def test_unbalanced_parens(self, tsptw_context):
        with pytest.raises(ExpressionParseError):
            sexpr.parse_numeric("(+ 1 2", tsptw_context)

    def test_trailing_tokens(self, tsptw_context):
        with pytest.raises(ExpressionParseError):
            sexpr.parse_numeric("1 2", tsptw_context)

    def test_fraction_literals_roundtrip(self, tsptw_context):
        expr = sexpr.parse_numeric("(floor (* 2/3 t))", tsptw_context)
        assert sexpr.unparse(expr) == "(floor (* 2/3 t))"

    def test_unparse_inverts_parse(self, tsptw_context):
        # ground texts only: bound parameters substitute at parse time
        texts = [
            "(remove 1 U)",
            "(max (+ t (c i 1)) (a 1))",
            "(+ (sum cin U) (cin 0))",
            "(is_empty U)",
            "(or (not (is_in 1 U)) (<= (+ t (cstar i 1)) (b 1)))",
            "(if (is_empty U) 1 (card U))",
            "(set-of 3 1 2)",
            "(is_subset (set-of 3 1) (complement (intersection U U)))",
        ]
        for text in texts:
            parsed = sexpr.parse_condition(text, tsptw_context) if text.startswith(
                ("(is", "(or", "(not")
            ) else sexpr.parse_effect(
                text,
                tsptw_context,
                "set" if text.startswith(("(remove", "(set-of")) else "integer",
            )
            assert sexpr.unparse(parsed) == text


class TestDomainParsing:
    def test_fixture_counts(self, fixture_texts):
        domain = yamlio.parse_domain(fixture_texts[0])
        assert domain.cost_type == "integer"
        assert domain.reduce == "min"
        assert len(domain.objects) == 1
        assert len(domain.state_variables) == 3
        assert len(domain.tables) == 6
        assert len(domain.transitions) == 1
        assert len(domain.transitions[0].parameters) == 1
        assert len(domain.constraints) == 1
        assert domain.constraints[0].forall is not None
        assert len(domain.base_cases) == 1
        assert len(domain.dual_bounds) == 2

    def test_empty_document(self):
        with pytest.raises(DocumentError, match="cost_type"):
            yamlio.parse_domain("")

    def test_unknown_key_named(self):
        text = "cost_type: integer\nreduce: min\nstate_variables: []\ntransitions: []\nbase_cases: []\ndualbounds: []\n"
        with pytest.raises(DocumentError, match="dualbounds"):
            yamlio.parse_domain(text)

    def test_bad_enum(self):
        with pytest.raises(DocumentError, match="maximize"):
            yamlio.parse_domain("cost_type: integer\nreduce: maximize\n")

    def test_yaml_syntax_error(self):
        with pytest.raises(DocumentError, match="YAML"):
            yamlio.parse_domain("cost_type: [unclosed")

    def test_lone_surrogate(self):
        with pytest.raises(DocumentError, match="d800"):
            yamlio.parse_domain("a: '\ud800'")


class TestProblemParsing:
    def test_fixture(self, fixture_texts):
        problem = yamlio.parse_problem(fixture_texts[1])
        assert problem.object_numbers == {"customer": 4}
        assert problem.target["U"] == [1, 2, 3]
        assert problem.table_values["c"][(0, 1)] == 3

    def test_unknown_key(self):
        with pytest.raises(DocumentError, match="targets"):
            yamlio.parse_problem("object_numbers: {}\ntargets: {}\n")

    def test_missing_table_value_without_default(self, fixture_texts):
        domain = yamlio.parse_domain(fixture_texts[0])
        problem = yamlio.parse_problem(fixture_texts[1])
        del problem.table_values["a"][(1,) if (1,) in problem.table_values["a"] else 1]
        with pytest.raises(DocumentError, match="'a'"):
            yamlio.instantiate(domain, problem)


class TestInstantiation:
    def test_three_ground_transitions(self, fixture_texts):
        model = yamlio.load_model(*fixture_texts)
        assert [t.name for t in model.transitions] == ["visit-1", "visit-2", "visit-3"]
        assert len(model.constraints) == 3
        assert len(model.dual_bounds) == 2

    def test_matches_programmatic_builder(self, fixture_texts):
        model = yamlio.load_model(*fixture_texts)
        travel = ((0, 3, 4, 5), (3, 0, 5, 4), (4, 5, 0, 3), (5, 4, 3, 0))
        built = build_tsptw(TsptwInstance(travel, (0, 5, 0, 8), (100, 16, 10, 14)))
        assert model == built

    def test_zero_object_count_solves_to_base(self, fixture_texts):
        domain = yamlio.parse_domain(fixture_texts[0])
        problem = yamlio.parse_problem(
            "object_numbers: {customer: 1}\n"
            "target: {U: [], i: 0, t: 0}\n"
            "table_values:\n"
            "  c: {? [0, 0]\n     : 0}\n"
            "  cstar: {? [0, 0]\n     : 0}\n"
            "  a: {0: 0}\n  b: {0: 10}\n  cin: {0: 0}\n  cout: {0: 0}\n"
        )
        model = yamlio.instantiate(domain, problem)
        assert not model.transitions
        solution = dp.cabs(model)
        assert solution.status == dp.Status.OPTIMAL
        assert solution.cost == 0

    def test_two_parameters_ground_as_a_product(self):
        text = (
            "cost_type: integer\n"
            "reduce: min\n"
            "objects: [spot]\n"
            "state_variables:\n"
            "  - {name: x, type: integer}\n"
            "transitions:\n"
            "  - name: move\n"
            "    parameters: [{name: p, object: spot}, {name: q, object: spot}]\n"
            "    preconditions: ['(< x 1)']\n"
            "    effect: {x: '(+ (+ x p) q)'}\n"
            "    cost: '(+ 1 cost)'\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 1)'], cost: '0'}\n"
        )
        model = yamlio.instantiate(
            yamlio.parse_domain(text),
            yamlio.parse_problem("object_numbers: {spot: 3}\ntarget: {x: 0}\n"),
        )
        names = [t.name for t in model.transitions]
        assert len(names) == 9  # 3 x 3, textual parameter order
        assert names[:4] == ["move-0-0", "move-0-1", "move-0-2", "move-1-0"]

    def test_a_grounded_name_that_repeats_another_is_rejected(self):
        """``a`` over two spots grounds to ``a-0`` and ``a-1``, and a
        declared ``a-1`` already holds that name."""
        with pytest.raises(dp.ModelError, match="^transition name 'a-1' is used twice$"):
            yamlio.load_model(REPEATED_NAME_DOMAIN, "object_numbers: {spot: 2}\ntarget: {x: 0}\n")

    def test_mixed_cost_operators_rejected(self):
        text = (
            "cost_type: integer\nreduce: min\nstate_variables:\n"
            "  - {name: x, type: integer}\n"
            "transitions:\n"
            "  - {name: a, effect: {x: '(+ x 1)'}, cost: '(+ 1 cost)'}\n"
            "  - {name: b, effect: {x: '(+ x 1)'}, cost: '(max 1 cost)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 3)'], cost: '0'}\n"
        )
        with pytest.raises(DocumentError, match="mix"):
            yamlio.instantiate(yamlio.parse_domain(text), yamlio.parse_problem(
                "object_numbers: {}\ntarget: {x: 0}\n"
            ))


def _customers_problem(*unvisited: int) -> str:
    """A TSPTW problem for the fixture domain: the depot and the customers
    ``unvisited``, all one apart, in wide windows."""
    n = 1 + len(unvisited)
    square = [[int(a != b) for b in range(n)] for a in range(n)]
    return (
        f"object_numbers: {{customer: {n}}}\n"
        f"target: {{U: {list(unvisited)}, i: 0, t: 0}}\n"
        f"table_values: {{c: {square}, cstar: {square}, a: {[0] * n}, b: {[99] * n},\n"
        f"  cin: {[1] * n}, cout: {[1] * n}}}\n"
    )


def _tsptw(customers: int) -> TsptwInstance:
    travel = tuple(tuple(abs(a - b) for b in range(customers)) for a in range(customers))
    return TsptwInstance(travel, (0,) * customers, (10 * customers,) * customers)


def _cvrp(customers: int) -> CvrpInstance:
    travel = _tsptw(customers).travel
    return CvrpInstance(travel, (0,) + (2,) * (customers - 1), 2 * customers, 2)


class TestLiftedFamilies:
    """A transition with parameters and a ``forall`` constraint are read
    as one family each, parsed once, grounded by the model and written
    back whole."""

    @pytest.mark.parametrize("unvisited", [(), (1,)], ids=["no-member", "one-member"])
    def test_a_malformed_precondition_is_rejected_whatever_the_instance(
        self, fixture_texts, unvisited
    ):
        text = '"(<= (+ t (c i j)) (b j))"'
        domain = fixture_texts[0]
        assert text in domain
        broken = domain.replace(text, text[:-2] + '"')
        with pytest.raises(ExpressionParseError, match="^unbalanced parentheses$"):
            yamlio.load_model(broken, _customers_problem(*unvisited))

    def test_a_malformed_forall_condition_over_an_empty_set_is_rejected(self, fixture_texts):
        text = '"(<= (+ t (cstar i j)) (b j))"'
        domain = fixture_texts[0]
        assert text in domain
        broken = domain.replace(text, text[:-2] + '"')
        yamlio.load_model(domain, _customers_problem())  # well formed before the change
        with pytest.raises(ExpressionParseError, match="^unbalanced parentheses$"):
            yamlio.load_model(broken, _customers_problem())

    def test_parsing_does_not_grow_with_the_customers(self, monkeypatch):
        calls = []
        for name in ("parse_condition", "parse_effect", "parse_cost", "parse_numeric",
                     "parse_set"):
            parse = getattr(sexpr, name)
            monkeypatch.setattr(
                sexpr, name, lambda *args, _parse=parse: calls.append(1) or _parse(*args)
            )
        counts = []
        for customers in (5, 40):
            texts = yamlio.serialize_model(build_tsptw(_tsptw(customers)))
            calls.clear()
            assert len(yamlio.load_model(*texts).transitions) == customers - 1
            counts.append(len(calls))
        # visit: a precondition, three effects and a cost; the forall
        # condition; a base case's condition and cost; two dual bounds
        assert counts == [10, 10]

    @pytest.mark.parametrize("customers", [4, 14, 40])
    @pytest.mark.parametrize(
        "build, instance, lifted",
        [(build_tsptw, _tsptw, True), (build_cvrp, _cvrp, False)],
        ids=["tsptw", "cvrp"],
    )
    def test_written_text_is_a_fixpoint(self, build, instance, lifted, customers):
        """TSPTW is written as one ``visit`` family and one ``forall``
        constraint; CVRP stays ground, its visits interleaved by customer."""
        model = build(instance(customers))
        texts = yamlio.serialize_model(model)
        loaded = yamlio.load_model(*texts)
        assert loaded == model
        assert yamlio.serialize_model(loaded) == texts
        assert yamlio.serialize_model(pickle.loads(pickle.dumps(loaded))) == texts
        domain = yamlio.parse_domain(texts[0])
        members = len(model.transitions) // (customers - 1)
        assert len(domain.transitions) == (1 if lifted else members * (customers - 1))
        assert [len(t.parameters) for t in domain.transitions] == (
            [1] if lifted else [0] * len(domain.transitions)
        )
        assert len(domain.constraints) == 1
        assert (domain.constraints[0].forall is not None) == lifted

    def test_a_lifted_and_a_ground_document_of_one_model_are_equal(self, fixture_texts):
        lifted = yamlio.load_model(*fixture_texts)
        ground = dp.Model(
            lifted.metadata, lifted.tables, lifted.target, lifted.transitions,
            lifted.base_cases, lifted.constraints, lifted.dual_bounds, lifted.costs,
        )
        texts = yamlio.serialize_model(ground)
        assert "parameters" not in texts[0] and "visit-3" in texts[0]
        assert yamlio.load_model(*texts) == lifted
        assert texts != yamlio.serialize_model(lifted)

    @pytest.mark.parametrize("item, parameters",
                             [(ElementParameter("j"), (("j", "U"),)), (ElementConst(1), ())],
                             ids=["lifted", "ground"])
    def test_an_element_read_as_a_number_reads_back_equal(self, item, parameters):
        # (>= j x) reads j as a number, the leaf the parser builds for its text
        meta = dp.StateMetadata({"item": 3}, [dp.Variable("U", "set", "item"),
                                              dp.Variable("x", "integer")])
        U, x = meta.set_("U"), meta.numeric("x")
        take = dp.Transition(
            name="take",
            preconditions=(c.ge(c.num(item), x),),
            effects=((0, SetRemove(item, U)), (1, c.add(x, c.num(item)))),
            weight=c.num(item),
            parameters=parameters,
        )
        model = dp.Model(meta, TableRegistry(), (0b111, 0), [take],
                         [dp.BaseCase((c.empty(U),), NumericConst(0))])
        assert yamlio.load_model(*yamlio.serialize_model(model)) == model

    def test_grounding_shares_what_holds_no_parameter(self, fixture_texts):
        first, second = yamlio.load_model(*fixture_texts).transitions[:2]
        assert first.effects != second.effects
        # (remove j U) shares U, and (max (+ t (c i j)) (a j)) shares t
        assert first.effects[0][1].operand is second.effects[0][1].operand
        assert first.effects[2][1].lhs.lhs is second.effects[2][1].lhs.lhs

    @pytest.mark.parametrize("binding", ["ghost", "i"])
    def test_a_parameter_binds_an_object_type_or_a_set_variable(self, fixture_texts, binding):
        domain = fixture_texts[0].replace("        object: U", f"        object: {binding}", 1)
        message = f"parameter 'j' binds '{binding}', which is neither an object type nor a set"
        with pytest.raises(dp.ModelError, match=f"^{re.escape(message)} variable$"):
            yamlio.load_model(domain, fixture_texts[1])

    def test_two_parameters_of_one_name_are_rejected(self, fixture_texts):
        # the later binding used to overwrite the earlier: 12 members, with
        # visit-1-0 guarded on 1 in U but visiting customer 0
        one = "      - name: j\n        object: U\n"
        domain = fixture_texts[0].replace(one, one + one.replace("U", "customer"), 1)
        assert domain != fixture_texts[0]
        with pytest.raises(dp.ModelError,
                           match="^transition 'visit' has two parameters named 'j'$"):
            yamlio.load_model(domain, fixture_texts[1])


MINIMAL_DOMAIN = (
    "cost_type: integer\n"
    "reduce: min\n"
    "state_variables:\n"
    "  - {name: x, type: integer}\n"
    "transitions:\n"
    "  - {name: step, effect: {x: '(+ x 1)'}, cost: '(+ 1 cost)'}\n"
    "base_cases:\n"
    "  - {conditions: ['(>= x 2)'], cost: '0'}\n"
)


class TestRejectionCompleteness:
    """Every malformed document names the offending key or symbol."""

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("cost_type: int\n", "int"),  # bad enum value
            ("cost_type: integer\nreduce: min\nstate_variables: []\n"
             "transitions: []\nbase_cases: []\nconstraint: []\n", "constraint"),
            ("cost_type: integer\nreduce: min\n"
             "state_variables: [{name: x, type: number}]\n"
             "transitions: []\nbase_cases: []\n", "number"),
            ("cost_type: integer\nreduce: min\n"
             "state_variables: [{name: x, type: integer, preference: lesser}]\n"
             "transitions: []\nbase_cases: []\n", "lesser"),
            ("cost_type: integer\nreduce: min\nstate_variables: []\n"
             "tables: [{name: t, type: integer, arity: 2}]\n"
             "transitions: []\nbase_cases: []\n", "arity"),
        ],
    )
    def test_domain_rejections(self, text, needle):
        with pytest.raises(DocumentError, match=needle):
            yamlio.parse_domain(text)

    def test_target_missing_variable(self):
        with pytest.raises(DocumentError, match="'x'"):
            yamlio.instantiate(
                yamlio.parse_domain(MINIMAL_DOMAIN),
                yamlio.parse_problem("object_numbers: {}\ntarget: {}\n"),
            )

    def test_target_unknown_variable(self):
        with pytest.raises(DocumentError, match="'y'"):
            yamlio.instantiate(
                yamlio.parse_domain(MINIMAL_DOMAIN),
                yamlio.parse_problem("object_numbers: {}\ntarget: {x: 0, y: 0}\n"),
            )

    def test_unknown_table_in_values(self):
        with pytest.raises(DocumentError, match="'ghost'"):
            yamlio.instantiate(
                yamlio.parse_domain(MINIMAL_DOMAIN),
                yamlio.parse_problem(
                    "object_numbers: {}\ntarget: {x: 0}\ntable_values: {ghost: 3}\n"
                ),
            )

    def test_unknown_symbol_in_expression(self):
        broken = MINIMAL_DOMAIN.replace("(+ x 1)", "(+ x ghost)")
        with pytest.raises(UnknownSymbolError, match="ghost"):
            yamlio.instantiate(
                yamlio.parse_domain(broken),
                yamlio.parse_problem("object_numbers: {}\ntarget: {x: 0}\n"),
            )

    def test_missing_object_count(self):
        domain = MINIMAL_DOMAIN.replace(
            "state_variables:", "objects: [thing]\nstate_variables:"
        )
        with pytest.raises(DocumentError, match="'thing'"):
            yamlio.instantiate(
                yamlio.parse_domain(domain),
                yamlio.parse_problem("object_numbers: {}\ntarget: {x: 0}\n"),
            )

    @pytest.mark.parametrize(
        "change, needle",
        [
            (("  - {name: x, type: integer}\n", "  - 5\n"), "state variable must be a map"),
            (("  - {name: step, effect: {x: '(+ x 1)'}, cost: '(+ 1 cost)'}\n", "  7\n"),
             "transitions in domain document must be a list"),
            (("{name: step,", "{name: step, preconditions: 5,"),
             "preconditions in transition 'step' must be a list"),
            (("effect: {x: '(+ x 1)'}", "effect: [1]"),
             "effect in transition 'step' must be a map"),
            (("conditions: ['(>= x 2)']", "conditions: 3"),
             "conditions in base case must be a list"),
            (("base_cases:", "constraints: [5]\nbase_cases:"), "constraint must be a map"),
            (("base_cases:", "dual_bounds: 5\nbase_cases:"),
             "dual_bounds in domain document must be a list"),
            (("object_numbers: {item: 2}", "object_numbers: {item: 2, a: x}"),
             "object count of 'a' must be an integer"),
            (("t: {0: 1}", "t: {a: 1}"), "key of table 't' must be an integer"),
            (("s: {0: [1]}", "s: {0: [x]}"), "set member in table 's' must be an integer"),
            (("t: {0: 1}", "t: {? [[0], 1] : 1}"), "map key ([0], 1) on line 3 must be"),
            (("t: {0: 1}", "t: {? {a: 0} : 1}"), "map key {'a': 0} on line 3 must be"),
            (("{name: step,", "{name: step, forced: 'no',"),
             "forced in transition 'step' must be true or false, got 'no'"),
            (("{name: step,", '{name: step, forced: "false",'),
             "forced in transition 'step' must be true or false, got 'false'"),
            (("{name: step,", "{name: step, forced: 1,"),
             "forced in transition 'step' must be true or false, got 1"),
            (("  - {name: x, type: integer}\n",
              "  - {name: x, type: integer}\n  - {name: U, type: set, object: [item]}\n"),
             "object in state variable must be a name, got ['item']"),
            (("object: item, default", "object: [item], default"),
             "object in table must be a name, got ['item']"),
            (("  - {name: x, type: integer}\n",
              "  - {name: x, type: integer}\n  - {name: U, type: set, object: 5}\n"),
             "object in state variable must be a name, got 5"),
            (("object: item, default", "object: true, default"),
             "object in table must be a name, got True"),
        ],
    )
    def test_malformed_shapes_are_document_errors(self, change, needle):
        domain = MINIMAL_DOMAIN.replace(
            "state_variables:", "objects: [item]\nstate_variables:"
        ) + (
            "tables:\n  - {name: t, type: integer, args: [item], default: 0}\n"
            "  - {name: s, type: set, args: [item], object: item, default: []}\n"
        )
        problem = (
            "object_numbers: {item: 2}\ntarget: {x: 0}\n"
            "table_values: {t: {0: 1}, s: {0: [1]}}\n"
        )
        yamlio.load_model(domain, problem)  # well formed before the change
        old, new = change
        assert (old in domain) != (old in problem)
        domain, problem = domain.replace(old, new), problem.replace(old, new)
        with pytest.raises(DocumentError, match=re.escape(needle)):
            yamlio.load_model(domain, problem)


class TestBooleanEntries:
    """YAML reads an unquoted true/false as a bool; in a condition it is
    the constant condition, in a numeric position a named error."""

    @pytest.mark.parametrize("literal", ["true", "false"])
    def test_precondition(self, literal):
        domain = MINIMAL_DOMAIN.replace("{name: step,", f"{{name: step, preconditions: [{literal}],")
        model = yamlio.load_model(domain, "object_numbers: {}\ntarget: {x: 0}\n")
        assert model.transitions[0].preconditions == (BoolConst(literal == "true"),)
        expected = dp.Status.OPTIMAL if literal == "true" else dp.Status.INFEASIBLE
        assert dp.cabs(model).status == expected

    @pytest.mark.parametrize("literal", ["true", "false"])
    def test_base_case_condition(self, literal):
        domain = MINIMAL_DOMAIN.replace("conditions: ['(>= x 2)']", f"conditions: [{literal}]")
        model = yamlio.load_model(domain, "object_numbers: {}\ntarget: {x: 0}\n")
        assert model.base_cases[0].conditions == (BoolConst(literal == "true"),)
        if literal == "true":  # the target is a base state
            assert dp.bellman_oracle(model).cost == 0

    def test_bare_constraint(self):
        domain = MINIMAL_DOMAIN.replace("base_cases:", "constraints: [false]\nbase_cases:")
        model = yamlio.load_model(domain, "object_numbers: {}\ntarget: {x: 0}\n")
        assert model.constraints == (BoolConst(False),)
        assert dp.cabs(model).status == dp.Status.INFEASIBLE

    def test_numeric_position_is_a_named_error(self):
        domain = MINIMAL_DOMAIN.replace("effect: {x: '(+ x 1)'}", "effect: {x: true}")
        with pytest.raises(UnknownSymbolError, match="'true'"):
            yamlio.load_model(domain, "object_numbers: {}\ntarget: {x: 0}\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CLASSES))
    def test_serialize_parse_instantiate(self, name):
        rng = random.Random(zlib.crc32(name.encode()))
        cls = CLASSES[name]
        for _ in range(3):
            model = cls.build(cls.random(rng))
            domain_text, problem_text = yamlio.serialize_model(model)
            again = yamlio.load_model(domain_text, problem_text)
            assert again == model
            assert dp.bellman_oracle(again).cost == dp.bellman_oracle(model).cost

    def test_set_boolean_and_scalar_tables(self):
        tables = [
            Table("nbr", "set", (3,), {(0,): 0b110}, default=0b001, value_universe=3),
            Table("seed", "set", (), {}, default=0b100, value_universe=3),
            Table("ok", "boolean", (3,), {(1,): True}, default=False),
            Table("k", "integer", (), {(): 7}),
            Table("w", "integer", (3, 3), {(0, 2): 4}, default=1),
        ]
        model = dp.Model(
            dp.StateMetadata({"item": 3}, [dp.Variable("U", "set", "item")]),
            TableRegistry(tables),
            (0b111,),
            [],
            [dp.BaseCase((BoolConst(True),), NumericConst(0))],
        )
        domain_text, problem_text = yamlio.serialize_model(model)
        again = yamlio.load_model(domain_text, problem_text)
        assert again == model
        assert [again.tables.lookup("nbr").lookup((j,)) for j in range(3)] == [6, 1, 1]
        assert again.tables.lookup("seed").lookup(()) == 4
        assert [again.tables.lookup("ok").lookup((j,)) for j in range(3)] == [False, True, False]
        assert yamlio.serialize_model(again) == (domain_text, problem_text)


class _PureLoader(yaml.SafeLoader):
    construct_mapping = yamlio._Loader.construct_mapping


def _load_with_both_loaders(texts, monkeypatch) -> list:
    """The model ``load_model`` reads from ``texts`` with the loader it
    uses (libyaml's where PyYAML has it) and with the pure-Python one."""
    models = [yamlio.load_model(*texts)]
    with monkeypatch.context() as patch:
        patch.setattr(yamlio, "_Loader", _PureLoader)
        models.append(yamlio.load_model(*texts))
    return models


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML has no libyaml")
def test_pure_python_yaml_classes_agree(monkeypatch):
    """The pure-Python loader, used where PyYAML has no libyaml, and
    libyaml's both read the written text of every class to the model
    that was written."""
    assert not issubclass(yamlio._Loader, yaml.SafeLoader)
    for name in sorted(CLASSES):
        cls = CLASSES[name]
        for seed in range(3):
            model = cls.build(cls.random(random.Random(seed)))
            texts = yamlio.serialize_model(model)
            assert _load_with_both_loaders(texts, monkeypatch) == [model, model], name


def test_unencodable_name_is_a_document_error():
    model = build_tsptw(TsptwInstance(((0, 2), (2, 0)), (0, 0), (10, 10)))
    first = dataclasses.replace(model.transitions[0], name="visit-\ud800")
    broken = dp.Model(
        metadata=model.metadata,
        tables=model.tables,
        target=model.target,
        transitions=[first, *model.transitions[1:]],
        base_cases=model.base_cases,
        constraints=model.constraints,
        dual_bounds=model.dual_bounds,
        costs=model.costs,
    )
    with pytest.raises(DocumentError, match="d800"):
        yamlio.serialize_model(broken)


def _named_model(obj="item", var="x", table="t", transition="go"):
    """A model whose object type, continuous variable, table and
    transition have the given names, holding continuous values YAML
    spells in several ways in its target (which takes finite floats
    only), its rows and its keyed map."""
    values = {(0,): 1e-05, (1,): 1e20, (2,): math.inf, (3,): Fraction(1, 3)}
    tables = [
        Table(table, "continuous", (4,), values),
        Table("k", "continuous", (4, 4), {(i, i): v for (i,), v in values.items()}, default=0.5),
    ]
    metadata = dp.StateMetadata(
        {obj: 4}, [dp.Variable(name, "continuous") for name in (var, "small", "large")]
    )
    grow = NumericBinary("+", NumericVar(0, var), NumericTable(table, (ElementConst(3),)))
    return dp.Model(
        metadata,
        TableRegistry(tables),
        (0, 1e-05, 1e20),
        [dp.Transition(transition, (), ((0, grow),), NumericConst(1))],
        [dp.BaseCase((BoolConst(True),), NumericConst(0))],
    )


# Transition and object type names are free text; variable and table
# names must also read as one symbol of an expression.
TEXT_NAMES = [
    # resolved as other types when plain
    "1", "true", "null", "~", "1e3", ".inf", "0x10", "yes", "on", "<<", "=", "",
    # indicators
    "a: b", "a #b", "a:", "-a", "- a", "-", "?a", "? a", "*a", "&a", "!a", "%a", "@a", "`a",
    "[a", "a]", "{a", "a,b", "|a", ">a", "---", "...",
    # quotes, backslashes, tabs and line breaks
    "'a'", '"a"', "a\\b", "a\tb", "a\nb", "a\r\nb", "a\x00b", "a\x1bb",
    # not printed by YAML, or read as a line break
    "a\x7fb", "a\x80b", "a\x9fb", "a\x85b", "a\u2028b", "a\u2029b", "\ufeffa", "a\ufffeb",
    "a\uffffb", "a\U0001f600b", "\u00e9",
    # leading or trailing spaces
    " a", "a ", "a  b",
    # written longer than the 1024 characters YAML allows an implicit key
    "n" * 1100, "n" * 3000, "\x01" * 200,
]
SYMBOL_NAMES = [
    "null", "~", ".inf", "0x10", "yes", "on", "<<", "-a", "?a", "*a", "&a", "!a", "%a", "@a",
    "`a", "[a", "{a", "|a", ">a", "'a'", '"a"', "a\\b", "a\x7fb", "\ufeffa", "a\U0001f600b",
    "v" * 1024, "v" * 1025, "v" * 1100, "v" * 3000,
]


@pytest.mark.parametrize(
    "field, name",
    [(field, name) for field in ("transition", "obj") for name in TEXT_NAMES]
    + [(field, name) for field in ("var", "table") for name in SYMBOL_NAMES],
)
def test_odd_names_and_values_round_trip(field, name, monkeypatch):
    model = _named_model(**{field: name})
    texts = yamlio.serialize_model(model)
    assert all(text.isascii() for text in texts)
    assert _load_with_both_loaders(texts, monkeypatch) == [model, model]


def test_continuous_values_are_written_as_yaml_floats():
    problem_text = yamlio.serialize_model(_named_model())[1]
    for excerpt in (
        "  small: 1.0e-05\n  large: 1.0e+20\n",
        "  t: [1.0e-05, 1.0e+20, .inf, 1/3]\n",
        "    ? [2, 2]\n    : .inf\n    ? [3, 3]\n    : 1/3\n",
    ):
        assert excerpt in problem_text


@pytest.mark.parametrize(
    "table, needle",
    [
        (Table("t", "integer", (3,), {}, default=0),
         "table 't' indexes 3 objects, but no object type has that count"),
        (Table("s", "set", (2,), {}, default=0, value_universe=5),
         "set table 's' values range over 5 objects, but no object type has that count"),
    ],
    ids=["argument", "set value"],
)
def test_a_count_no_object_type_has_is_a_document_error(table, needle):
    """YAML-DyPDL names object types, not counts: a table over a count
    that no object type of the model has cannot be written."""
    model = dp.Model(
        dp.StateMetadata({"item": 2}, [dp.Variable("x", "integer")]),
        TableRegistry([table]),
        (0,),
        [],
        [dp.BaseCase((BoolConst(True),), NumericConst(0))],
    )
    with pytest.raises(DocumentError, match=f"^{re.escape(needle)}$"):
        yamlio.serialize_model(model)


class TestTableRows:
    """A table with a value for every key is written as nested rows;
    both the rows and the keyed map read back."""

    DOMAIN = MINIMAL_DOMAIN.replace("state_variables:", "objects: [item]\nstate_variables:") + (
        "tables:\n"
        "  - {name: t, type: integer, args: [item]}\n"
        "  - {name: c, type: integer, args: [item, item]}\n"
        "  - {name: d, type: integer, args: [item, item, item]}\n"
        "  - {name: x, type: continuous, args: [item, item]}\n"
        "  - {name: s, type: set, args: [item], object: item}\n"
        "  - {name: ok, type: boolean, args: [item]}\n"
    )
    PROBLEM = (
        "object_numbers: {item: 2}\n"
        "target: {x: 0}\n"
        "table_values:\n"
        "  t: [1, 2]\n"
        "  c: [[1, 2], [3, 4]]\n"
        "  d: [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]\n"
        "  x: [[0.5, '1/3'], [2, 0]]\n"
        "  s: [[0], [0, 1]]\n"
        "  ok: [true, false]\n"
    )

    def test_dense_table_is_written_as_rows(self):
        model = build_tsptw(TsptwInstance(((0, 2, 5), (2, 0, 8), (8, 8, 0)), (0, 3, 7), (30, 6, 9)))
        problem_text = yamlio.serialize_model(model)[1]
        assert "? [" not in problem_text
        assert "  c:\n  - [0, 2, 5]\n  - [2, 0, 8]\n  - [8, 8, 0]\n" in problem_text
        assert "  a: [0, 3, 7]\n" in problem_text

    def test_table_with_a_missing_key_keeps_the_keyed_map(self):
        cls = CLASSES["graphclear"]
        model = cls.build(cls.random(random.Random(2)))
        b = model.tables.lookup("b")
        assert 0 < len(b.values) < math.prod(b.shape)
        texts = yamlio.serialize_model(model)
        dense, sparse = texts[1].split("  b:\n", 1)
        assert sparse.startswith("    ? [")
        assert "? [" not in dense
        assert yamlio.load_model(*texts) == model

    @pytest.mark.parametrize(
        "shape, values, needle",
        [
            ((2,), {(0,): 1, (5,): 2}, "index 5 out of range at position 0 in table 't'"),
            ((2, 1), {(0,): 1, (1,): 2}, "key (0,) has wrong arity for table 't'"),
        ],
    )
    def test_key_outside_the_shape_keeps_the_keyed_map(self, shape, values, needle):
        # as many keys as the shape holds, but not the keys of the shape
        model = dp.Model(
            dp.StateMetadata({"item": 2, "one": 1}, [dp.Variable("x", "integer")]),
            TableRegistry([Table("t", "integer", shape, values)]),
            (0,),
            [],
            [dp.BaseCase((BoolConst(True),), NumericConst(0))],
        )
        domain_text, problem_text = yamlio.serialize_model(model)
        assert "  t:\n    0: 1\n" in problem_text
        with pytest.raises(DocumentError, match=f"^{re.escape(needle)}$"):
            yamlio.load_model(domain_text, problem_text)

    def test_rows_round_trip(self):
        tables = [
            Table("nbr", "set", (3,), {(0,): 0b110, (1,): 0, (2,): 0b011}, value_universe=3),
            Table("ok", "boolean", (3, 2), {(i, j): i == j for i in range(3) for j in range(2)}),
            Table("r", "continuous", (3,), {(0,): Fraction(1, 3), (1,): 2.5, (2,): Fraction(-7, 2)}),
            Table("d", "integer", (2, 3, 2), {
                key: 100 * key[0] + 10 * key[1] + key[2]
                for key in itertools.product(range(2), range(3), range(2))
            }),
            Table("none", "integer", (0,), {}),
            Table("empty", "integer", (2, 0), {}),
            Table("w", "integer", (3, 3), {(0, 2): 4}, default=1),
        ]
        model = dp.Model(
            dp.StateMetadata(
                {"item": 3, "pair": 2, "nothing": 0}, [dp.Variable("U", "set", "item")]
            ),
            TableRegistry(tables),
            (0b111,),
            [],
            [dp.BaseCase((BoolConst(True),), NumericConst(0))],
        )
        domain_text, problem_text = yamlio.serialize_model(model)
        for excerpt in (
            "  nbr: [[1, 2], [], [0, 1]]\n",
            "  ok:\n  - [true, false]\n  - [false, true]\n  - [false, false]\n",
            "  r: [1/3, 2.5, -7/2]\n",
            "  d:\n  - - [0, 1]\n    - [10, 11]\n    - [20, 21]\n  - - [100, 101]\n",
            "  none: []\n",
            "  empty:\n  - []\n  - []\n",
            "  w:\n    ? [0, 2]\n    : 4\n",
        ):
            assert excerpt in problem_text
        assert problem_text.count("? [") == 1  # only the sparse w
        again = yamlio.load_model(domain_text, problem_text)
        assert again == model
        assert again.tables.lookup("r").lookup((0,)) == Fraction(1, 3)
        assert yamlio.serialize_model(again) == (domain_text, problem_text)

    def test_keyed_fixture_and_its_rows_load_equal(self, fixture_texts):
        domain_text, problem_text = fixture_texts
        assert "? [" in problem_text
        domain = yamlio.parse_domain(domain_text)
        problem = yamlio.parse_problem(problem_text)

        def rows(keyed, shape, prefix=()):
            keys = [(*prefix, i) for i in range(shape[len(prefix)])]
            if len(prefix) + 1 < len(shape):
                return [rows(keyed, shape, key) for key in keys]
            return [keyed[key if len(key) > 1 else key[0]] for key in keys]

        table_values = {
            decl.name: rows(
                problem.table_values[decl.name],
                [problem.object_numbers[arg] for arg in decl.args],
            )
            for decl in domain.tables
        }
        rewrite = yaml.safe_dump(
            {
                "object_numbers": problem.object_numbers,
                "target": problem.target,
                "table_values": table_values,
            },
            default_flow_style=None,
        )
        assert "c:\n  - [0, 3, 4, 5]\n" in rewrite
        assert "?" not in rewrite
        assert yamlio.load_model(domain_text, rewrite) == yamlio.load_model(*fixture_texts)

    @pytest.mark.parametrize(
        "old, new, needle",
        [
            ("c: [[1, 2], [3, 4]]", "c: [[1, 2], [3, 4, 5]]", "row [1] of table 'c' must list 2 values"),
            ("c: [[1, 2], [3, 4]]", "c: [[1, 2]]", "table 'c' must list 2 rows"),
            ("c: [[1, 2], [3, 4]]", "c: [[1, 2], 3]", "row [1] of table 'c' must list 2 values"),
            ("c: [[1, 2], [3, 4]]", "c: [[1, [2]], [3, 4]]",
             "non-integer value [2] in row [0] of table 'c'"),
            ("c: [[1, 2], [3, 4]]", "c: 5", "values of table 'c' must be a map or a list of rows"),
            ("t: [1, 2]", "t: [1, 2, 3]", "table 't' must list 2 values"),
            ("t: [1, 2]", "t: [[1, 2], [3, 4]]", "non-integer value [1, 2] in table 't'"),
            ("[[5, 6], [7, 8]]]", "[[5, 6], [7]]]", "row [1, 1] of table 'd' must list 2 values"),
            ("[[5, 6], [7, 8]]]", "[5, 6]]", "row [1, 0] of table 'd' must list 2 values"),
            ("[[0.5, '1/3']", "[[0.5, .nan]", "NaN value in row [0] of table 'x'"),
            ("[[0.5, '1/3']", "[[0.5, '1/0']", "bad numeric value '1/0' in row [0] of table 'x'"),
            ("s: [[0], [0, 1]]", "s: [[0], [0, 5]]", "element 5 outside universe of size 2 in table 's'"),
            ("s: [[0], [0, 1]]", "s: [[0], 1]", "set value in table 's' must be an index list"),
            ("ok: [true, false]", "ok: [true, 1]", "non-boolean value 1 in table 'ok'"),
        ],
    )
    def test_malformed_rows_name_the_table_and_the_row(self, old, new, needle):
        model = yamlio.load_model(self.DOMAIN, self.PROBLEM)  # well formed before the change
        assert model.tables.lookup("d").lookup((1, 0, 1)) == 6
        assert model.tables.lookup("x").lookup((0, 1)) == Fraction(1, 3)
        assert self.PROBLEM.count(old) == 1
        with pytest.raises(DocumentError, match=re.escape(needle)):
            yamlio.load_model(self.DOMAIN, self.PROBLEM.replace(old, new))


class TestValueFaults:
    """A bad value in a table, a default or the target is a DocumentError
    that names where it is."""

    DOMAIN = MINIMAL_DOMAIN.replace(
        "state_variables:\n", "objects: [item]\nstate_variables:\n  - {name: U, type: set, object: item}\n"
    ) + (
        "tables:\n"
        "  - {name: t, type: integer, args: [item], default: 0}\n"
        "  - {name: s, type: set, args: [item], object: item, default: []}\n"
    )
    PROBLEM = "object_numbers: {item: 2}\ntarget: {x: 0, U: [1]}\ntable_values: {t: {0: 1}, s: {0: [0, 1]}}\n"

    @pytest.mark.parametrize(
        "old, new, needle",
        [
            ("t: {0: 1}", "t: {0: '1/0', 1: 1}", "bad numeric value '1/0' in table 't'"),
            ("default: 0}", "default: '1/0'}", "bad numeric value '1/0' in table 't'"),
            ("x: 0,", "x: '1/0',", "bad numeric value '1/0' in target"),
            ("s: {0: [0, 1]}", "s: {0: [0, 5]}", "element 5 outside universe of size 2 in table 's'"),
            ("default: []}", "default: [2]}", "element 2 outside universe of size 2 in table 's'"),
            ("U: [1]", "U: [5]", "element 5 outside universe of size 2 in target 'U'"),
            ("U: [1]", "U: [-1]", "element -1 outside universe of size 2 in target 'U'"),
            ("U: [1]", "U: 1", "set value in target 'U' must be an index list"),
        ],
    )
    def test_bad_value_is_a_named_document_error(self, old, new, needle):
        yamlio.load_model(self.DOMAIN, self.PROBLEM)  # well formed before the change
        domain, problem = self.DOMAIN.replace(old, new), self.PROBLEM.replace(old, new)
        assert (domain, problem) != (self.DOMAIN, self.PROBLEM)
        with pytest.raises(DocumentError, match=re.escape(needle)):
            yamlio.load_model(domain, problem)


class TestContinuousCostType:
    DOMAIN = (
        "cost_type: continuous\n"
        "reduce: min\n"
        "state_variables:\n"
        "  - {name: x, type: continuous}\n"
        "transitions:\n"
        "  - {name: small, effect: {x: '(+ x 0.5)'}, cost: '(+ 0.5 cost)'}\n"
        "  - {name: big, effect: {x: '(+ x 1.5)'}, cost: '(+ 1.25 cost)'}\n"
        "base_cases:\n"
        "  - {conditions: ['(>= x 3)'], cost: '0.0'}\n"
    )
    PROBLEM = "object_numbers: {}\ntarget: {x: 0.0}\n"

    def test_solves_with_float_costs(self):
        model = yamlio.load_model(self.DOMAIN, self.PROBLEM)
        assert model.costs.cost_type == "continuous"
        # 2 big steps reach 3.0 for 2.5; 6 small steps cost 3.0
        solution = dp.cabs(model)
        assert solution.status == dp.Status.OPTIMAL
        assert solution.cost == pytest.approx(2.5)
        assert dp.bellman_oracle(model).cost == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "table, values, target, needle",
        [
            ("{name: w, type: continuous, args: [item]}", "{w: {0: .nan, 1: 0.5}}", "0.0",
             "NaN value in table 'w'"),
            ("{name: w, type: continuous, args: [item], default: .nan}", "{w: {0: 0.5}}",
             "0.0", "NaN value in table 'w'"),
            ("{name: w, type: continuous, args: [item], default: 0}", "{}", ".nan",
             "NaN value in target"),
        ],
    )
    def test_nan_is_a_document_error(self, table, values, target, needle):
        domain = self.DOMAIN.replace(
            "state_variables:", "objects: [item]\nstate_variables:"
        ) + f"tables:\n  - {table}\n"
        problem = f"object_numbers: {{item: 2}}\ntarget: {{x: {target}}}\ntable_values: {values}\n"
        yamlio.load_model(domain.replace(".nan", "1.5"), problem.replace(".nan", "1.5"))
        with pytest.raises(DocumentError, match=re.escape(needle)):
            yamlio.load_model(domain, problem)

    def test_unwrapped_fractional_division_errors_in_integer_models(self):
        domain = (
            "cost_type: integer\n"
            "reduce: min\n"
            "state_variables:\n"
            "  - {name: x, type: integer}\n"
            "transitions:\n"
            "  - {name: step, effect: {x: '(+ x 1)'}, cost: '(+ (/ 3 2) cost)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 3)'], cost: '0'}\n"
        )
        model = yamlio.load_model(domain, "object_numbers: {}\ntarget: {x: 0}\n")
        with pytest.raises(dp.EvaluationError, match="non-integer"):
            dp.cabs(model)


class TestSolverConfig:
    def test_basic(self):
        config = yamlio.parse_solver_config("{solver: cabs, time_limit: 10}")
        assert config.solver == "cabs"
        assert config.params.time_limit == 10

    def test_unknown_solver(self):
        with pytest.raises(DocumentError, match="nosuch"):
            yamlio.parse_solver_config("{solver: nosuch}")

    def test_unknown_key(self):
        with pytest.raises(DocumentError, match="beamwidth"):
            yamlio.parse_solver_config("{solver: cabs, beamwidth: 5}")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("time_limit: -1", "time_limit must be at least 0"),
            ("time_limit: .nan", "time_limit must be at least 0"),
            ("time_limit: true", "time_limit must be a number, not a boolean"),
            ("initial_bound: .nan", "initial_bound must be a number other than NaN"),
            ("initial_bound: abc", "initial_bound must be a number other than NaN"),
            ("initial_bound: true", "initial_bound must be a number, not a boolean"),
        ],
    )
    def test_out_of_range_values_are_rejected(self, entry, message):
        with pytest.raises(DocumentError, match=message):
            yamlio.parse_solver_config(f"{{solver: cabs, {entry}}}")

    def test_zero_time_limit_is_accepted(self):
        assert yamlio.parse_solver_config("{solver: cabs, time_limit: 0}").params.time_limit == 0

    @pytest.mark.parametrize("key", REMOVED_POLICY_KEYS)
    def test_policy_keys_are_unknown(self, key):
        with pytest.raises(DocumentError, match=f"^unknown key '{key}' in solver config$"):
            yamlio.parse_solver_config(f"{{solver: cabs, {key}: 2}}")


class TestSolutionText:
    def test_desk_record(self, desk_tsptw_model):
        solution = dp.cabs(desk_tsptw_model)
        text = yamlio.write_solution(solution)
        lines = text.splitlines()
        assert lines[0] == "status: optimal"
        assert lines[1] == "cost: 6"
        assert lines[2] == "bound: 6"
        assert lines[3] == "transitions: 2"
        assert len(lines[4:6]) == 2 and all(line.startswith("visit-") for line in lines[4:6])
        assert lines[6].startswith("expanded: ")
        assert lines[7].startswith("generated: ")

    def test_infeasible_record(self):
        model = build_tsptw(TsptwInstance(((0, 2), (2, 0)), (0, 0), (10, 1)))
        text = yamlio.write_solution(dp.cabs(model))
        assert text.splitlines()[0] == "status: infeasible"
        assert "cost: none" in text

    def test_three_transition_solution_is_a_seven_line_record(self, fixture_texts):
        model = yamlio.load_model(*fixture_texts)
        solution = dp.cabs(model)
        assert len(solution.transitions) == 3
        lines = yamlio.write_solution(solution).splitlines()
        record, statistics = lines[:7], lines[7:]
        assert len(record) == 7
        assert statistics == [
            f"expanded: {solution.expanded}",
            f"generated: {solution.generated}",
        ]


SCHEMA_DOMAIN = (
    "cost_type: integer\n"
    "reduce: min\n"
    "objects: [item]\n"
    "state_variables:\n"
    "  - {name: x, type: integer}\n"
    "tables:\n"
    "  - {name: t, type: integer, args: [item], default: 0}\n"
    "transitions:\n"
    "  - name: step\n"
    "    parameters: [{name: p, object: item}]\n"
    "    effect: {x: '(+ x 1)'}\n"
    "    cost: '(+ (t p) cost)'\n"
    "constraints:\n"
    "  - {condition: '(>= x (t q))', forall: {name: q, object: item}}\n"
    "base_cases:\n"
    "  - {conditions: ['(>= x 2)'], cost: '0'}\n"
)
SCHEMA_PROBLEM = "object_numbers: {item: 2}\ntarget: {x: 0}\ntable_values: {t: [1, 2]}\n"


class TestSchema:
    """Each record's keys: what an unknown or a missing key reports, and
    that spelling an optional key at its default changes nothing."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # DomainDocument
            ("reduce: min\n", "reduce: min\nextra: 1\n", "unknown key 'extra' in domain document"),
            ("reduce: min\n", "", "missing reduce in domain document"),
            ("base_cases:\n  - {conditions: ['(>= x 2)'], cost: '0'}\n", "",
             "missing base_cases in domain document"),
            # VariableDecl
            ("{name: x, type: integer}", "{name: x, type: integer, extra: 1}",
             "unknown key 'extra' in state variable"),
            ("{name: x, type: integer}", "{type: integer}", "missing name in state variable"),
            ("{name: x, type: integer}", "{name: x}", "missing type in state variable"),
            # TableDecl
            ("default: 0}", "default: 0, extra: 1}", "unknown key 'extra' in table"),
            ("{name: t, type: integer,", "{name: t,", "missing type in table"),
            ("{name: t, type: integer,", "{type: integer,", "missing name in table"),
            # TransitionDecl
            ("    cost: '(+ (t p) cost)'\n", "    cost: '(+ (t p) cost)'\n    extra: 1\n",
             "unknown key 'extra' in transition"),
            ("  - name: step\n    parameters", "  - parameters", "missing name in transition"),
            # ParameterDecl, in a transition and as a forall
            ("{name: p, object: item}", "{name: p, object: item, extra: 1}",
             "unknown key 'extra' in parameter in transition 'step'"),
            ("{name: p, object: item}", "{name: p}", "missing object in transition 'step'"),
            ("{name: p, object: item}", "{object: item}", "missing name in transition 'step'"),
            ("{name: q, object: item}", "{name: q, object: item, extra: 1}",
             "unknown key 'extra' in parameter in constraint"),
            ("{name: q, object: item}", "{name: q}", "missing object in constraint"),
            # ConstraintDecl
            ("forall: {name: q, object: item}}", "forall: {name: q, object: item}, extra: 1}",
             "unknown key 'extra' in constraint"),
            ("{condition: '(>= x (t q))', forall", "{forall", "missing condition in constraint"),
            # BaseCaseDecl
            ("cost: '0'}", "cost: '0', extra: 1}", "unknown key 'extra' in base case"),
            ("{conditions: ['(>= x 2)'], cost: '0'}", "{cost: '0'}",
             "missing conditions in base case"),
            # ProblemDocument
            ("target: {x: 0}\n", "target: {x: 0}\nextra: 1\n",
             "unknown key 'extra' in problem document"),
            ("target: {x: 0}\n", "", "missing target in problem document"),
            ("object_numbers: {item: 2}\n", "", "missing object_numbers in problem document"),
        ],
    )
    def test_unknown_and_missing_keys(self, old, new, message):
        yamlio.load_model(SCHEMA_DOMAIN, SCHEMA_PROBLEM)  # well formed before the change
        assert (old in SCHEMA_DOMAIN) != (old in SCHEMA_PROBLEM)
        domain = SCHEMA_DOMAIN.replace(old, new, 1)
        problem = SCHEMA_PROBLEM.replace(old, new, 1)
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            yamlio.load_model(domain, problem)

    @pytest.mark.parametrize(
        "forall, message",
        [
            ("{}", "missing name in constraint"),
            ("[]", "parameter in constraint must be a map, got []"),
            ("false", "parameter in constraint must be a map, got False"),
        ],
    )
    def test_forall_is_a_parameter_or_null(self, forall, message):
        domain = SCHEMA_DOMAIN.replace("forall: {name: q, object: item}", f"forall: {forall}")
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            yamlio.parse_domain(domain)
        unbound = yamlio.parse_domain(domain.replace(f"forall: {forall}", "forall: null"))
        assert unbound.constraints[0].forall is None

    def test_optional_keys_spelled_at_their_defaults(self):
        omitted = (
            "cost_type: integer\n"
            "reduce: min\n"
            "state_variables:\n"
            "  - {name: x, type: integer}\n"
            "tables:\n"
            "  - {name: t, type: integer}\n"
            "transitions:\n"
            "  - {name: stay}\n"
            "  - {name: step, effect: {x: '(+ x t)'}, cost: '(+ 1 cost)'}\n"
            "constraints:\n"
            "  - '(>= x 0)'\n"
            "  - {condition: '(<= x 5)'}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 2)']}\n"
        )
        spelled = (
            "cost_type: integer\n"
            "reduce: min\n"
            "objects: []\n"
            "state_variables:\n"
            "  - {name: x, type: integer, object: null, preference: null}\n"
            "tables:\n"
            "  - {name: t, type: integer, args: [], default: null, object: null}\n"
            "transitions:\n"
            "  - {name: stay, parameters: [], preconditions: [], effect: {},\n"
            "     cost: '(+ 0 cost)', forced: false}\n"
            "  - {name: step, parameters: [], preconditions: [], effect: {x: '(+ x t)'},\n"
            "     cost: '(+ 1 cost)', forced: false}\n"
            "constraints:\n"
            "  - '(>= x 0)'\n"
            "  - {condition: '(<= x 5)', forall: null}\n"
            "base_cases:\n"
            "  - {conditions: ['(>= x 2)'], cost: '0'}\n"
            "dual_bounds: []\n"
        )
        problem = "object_numbers: {}\ntarget: {x: 0}\ntable_values: {t: 1}\n"
        assert yamlio.parse_domain(spelled) == yamlio.parse_domain(omitted)
        assert yamlio.load_model(spelled, problem) == yamlio.load_model(omitted, problem)
        bare = "object_numbers: {}\ntarget: {x: 0}\n"
        assert yamlio.parse_problem(bare + "table_values: {}\n") == yamlio.parse_problem(bare)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_loading_leaves_no_reference_cycle(name):
    """Every object a load makes is freed by reference counting alone."""
    rng = random.Random(zlib.crc32(name.encode()))
    cls = CLASSES[name]
    texts = yamlio.serialize_model(cls.build(cls.random(rng)))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yamlio.load_model(*texts)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
