"""Expression grammar, document parsing, grounding, and serialization."""

import random
import zlib

import pytest

import dpsearch as dp
from dpsearch import DocumentError, ExpressionParseError, UnknownSymbolError
from dpsearch import sexpr, yamlio
from dpsearch.expressions import NumericMax, NumericTable, SetIsEmpty
from dpsearch.problems import CLASSES, TsptwInstance, build_tsptw


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
            ("beam_growth: 1", "beam_growth must be an integer of at least 2"),
            ("beam_growth: 2.5", "beam_growth must be an integer of at least 2"),
            ("beam_initial_width: 0", "beam_initial_width must be an integer of at least 1"),
            ("apps_max_budget: abc", "apps_max_budget must be a number of at least 1"),
            ("time_limit: -1", "time_limit must be at least 0"),
            ("time_limit: .nan", "time_limit must be at least 0"),
        ],
    )
    def test_out_of_range_values_are_rejected(self, entry, message):
        with pytest.raises(DocumentError, match=message):
            yamlio.parse_solver_config(f"{{solver: cabs, {entry}}}")

    def test_zero_time_limit_is_accepted(self):
        assert yamlio.parse_solver_config("{solver: cabs, time_limit: 0}").params.time_limit == 0

    def test_policy_constants(self):
        config = yamlio.parse_solver_config(
            "{solver: acps, acps_initial_budget: 2, acps_budget_step: 3}"
        )
        assert config.params.acps_initial_budget == 2
        assert config.params.acps_budget_step == 3


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
