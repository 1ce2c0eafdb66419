"""The generic engine and its six policy instantiations."""

import random
import zlib

import pytest

import dpsearch as dp
from dpsearch.problems import (
    BinPackingInstance,
    CLASSES,
    MospInstance,
    TalentInstance,
    WtInstance,
    build_binpacking,
    build_mosp,
    build_talent,
    build_wt,
)

ALL_SOLVERS = dp.SOLVER_NAMES


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_desk_tsptw_optimal(desk_tsptw_model, solver):
    solution = dp.solve(desk_tsptw_model, solver)
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == 6
    assert solution.bound == 6
    assert solution.gap() == 0.0
    assert len(solution.transitions) == 2


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_target_constraint_violation_is_infeasible(solver):
    # two unit-demand customers, one unit vehicle: the fleet constraint
    # already fails at the target state
    from dpsearch.problems import CvrpInstance, build_cvrp

    model = build_cvrp(
        CvrpInstance(((0, 2, 3), (2, 0, 1), (3, 1, 0)), (0, 1, 1), 1, 1)
    )
    solution = dp.solve(model, solver)
    assert solution.status == dp.Status.INFEASIBLE
    assert solution.transitions is None


def test_dfbnb_on_desk_binpacking():
    model = build_binpacking(BinPackingInstance((5, 4, 3, 3), 8))
    solution = dp.dfbnb(model)
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == 2


def test_cbfs_on_desk_talent():
    model = build_talent(
        TalentInstance((frozenset({0}), frozenset({0, 1})), (1, 1), (1, 1))
    )
    assert dp.cbfs(model).cost == 3


def test_acps_on_desk_tardiness():
    model = build_wt(WtInstance((2, 3), (2, 2), (1, 1)))
    assert dp.acps(model).cost == 3


def test_apps_on_desk_mosp():
    model = build_mosp(MospInstance((frozenset({0}), frozenset({1})), 2))
    assert dp.apps(model).cost == 1


def test_time_limit_zero_reports_root_bound(desk_tsptw_model):
    params = dp.SolverParams(time_limit=0.0)
    solution = dp.caasdy(desk_tsptw_model, params)
    assert solution.status == dp.Status.NOT_FOUND
    assert solution.cost is None
    assert solution.bound == 4  # combine(identity, root dual bound)
    assert solution.dual_events and solution.dual_events[0][1] == 4


def test_initial_bound_at_optimum_proves_no_better(desk_tsptw_model):
    params = dp.SolverParams(initial_bound=6)
    solution = dp.caasdy(desk_tsptw_model, params)
    assert solution.status == dp.Status.INFEASIBLE
    assert solution.transitions is None


def test_initial_bound_above_optimum_still_finds_it(desk_tsptw_model):
    params = dp.SolverParams(initial_bound=7)
    solution = dp.caasdy(desk_tsptw_model, params)
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == 6


def test_callbacks_fire(desk_tsptw_model):
    primal, dual = [], []
    dp.cabs(
        desk_tsptw_model,
        on_primal=lambda t, cost, path: primal.append((cost, tuple(path))),
        on_dual=lambda t, bound: dual.append(bound),
    )
    assert primal and primal[-1][0] == 6
    assert len(primal[-1][1]) == 2
    assert dual and max(dual) == 6


def test_reconstructed_path_replays_to_the_reported_cost(desk_tsptw_model):
    model = desk_tsptw_model
    solution = dp.dfbnb(model)
    by_name = {t.name: t for t in model.transitions}
    state = model.target
    folded = model.costs.identity
    for name in solution.transitions:
        transition = by_name[name]
        assert transition.is_applicable(state, model.tables)
        folded = dp.combine(model.costs, folded, model.weight(transition, state))
        state = model.successor(transition, state)
    assert dp.combine(model.costs, folded, model.base_cost(state)) == solution.cost


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_determinism(solver):
    rng = random.Random(5)
    cls = CLASSES["tsptw"]
    for _ in range(5):
        model = cls.build(cls.random(rng))
        first = dp.solve(model, solver)
        second = dp.solve(model, solver)
        assert first.status == second.status
        assert first.cost == second.cost
        assert first.transitions == second.transitions
        assert first.expanded == second.expanded
        assert first.generated == second.generated
        assert [c for _, c in first.primal_events] == [c for _, c in second.primal_events]


@pytest.mark.parametrize("name", sorted(CLASSES))
@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_solvers_match_oracle_on_random_instances(name, solver):
    rng = random.Random(zlib.crc32(f'{name}/{solver}'.encode()))
    cls = CLASSES[name]
    for _ in range(15):
        model = cls.build(cls.random(rng))
        expected = dp.bellman_oracle(model).cost
        solution = dp.solve(model, solver)
        if expected is None:
            assert solution.status == dp.Status.INFEASIBLE
        else:
            assert solution.status == dp.Status.OPTIMAL
            assert solution.cost == expected


def test_timeout_with_incumbent_reports_feasible():
    # large enough that the proof cannot finish within the limit (it takes
    # far longer than 2 s), while depth-first search finds some tour almost
    # immediately
    rng = random.Random(17)
    n = 20
    travel = tuple(
        tuple(0 if i == j else rng.randint(1, 50) for j in range(n)) for i in range(n)
    )
    from dpsearch.problems import TsptwInstance, build_tsptw

    model = build_tsptw(TsptwInstance(travel, (0,) * n, (10**6,) * n))
    solution = dp.dfbnb(model, dp.SolverParams(time_limit=0.15))
    assert solution.status == dp.Status.FEASIBLE
    assert solution.transitions is not None and len(solution.transitions) == n - 1
    assert solution.bound is not None
    assert not model.costs.better(solution.bound, 0)  # bound stays nonnegative
    assert not model.costs.better(solution.cost, solution.bound)  # bound <= cost
    assert 0.0 <= solution.gap() <= 1.0


def test_model_without_bounds_probes_nothing_mid_search(desk_tsptw_model):
    from conftest import with_bounds

    bare = with_bounds(desk_tsptw_model, [])
    solution = dp.caasdy(bare)
    # no mid-search dual probes exist; the exhaustion proof still closes
    # the gap at the end, which is the solution invariant for OPTIMAL
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == solution.bound == 6
    assert [b for _, b in solution.dual_events] == [6]
    # and no bound-based pruning happened: a worse-but-generated state count
    full = dp.caasdy(desk_tsptw_model)
    assert solution.generated >= full.generated


def test_anytime_improvement_sequence():
    # a model where depth-first search finds improving solutions
    rng = random.Random(40)
    cls = CLASSES["wt"]
    saw_improvements = False
    for _ in range(20):
        model = cls.build(cls.random(rng))
        solution = dp.dfbnb(model)
        costs = [c for _, c in solution.primal_events]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)  # strict improvements
        saw_improvements = saw_improvements or len(costs) > 1
    assert saw_improvements


def test_dual_bound_tightens_while_nodes_are_expanded():
    # an expanded node is closed, so the dual bound follows the best f
    # still open instead of staying at the root's until the final proof
    cls = CLASSES["tsptw"]
    saw_interior = False
    for seed in range(30):
        model = cls.build(cls.random(random.Random(seed)))
        solution = dp.caasdy(model)
        if solution.status != dp.Status.OPTIMAL:
            continue
        bounds = [b for _, b in solution.dual_events]
        assert bounds == sorted(bounds)
        assert max(bounds) == solution.cost  # no event exceeds the optimum
        saw_interior = saw_interior or any(bounds[0] < b < solution.cost for b in bounds)
    assert saw_interior


def _overflow_model(step_weight, base_cost):
    """Two steps of ``step_weight`` to a base case of ``base_cost``."""
    from dpsearch import BaseCase, Model, StateMetadata, TableRegistry, Transition, Variable
    from dpsearch.expressions import Comparison, NumericBinary, NumericConst, NumericVar

    x = NumericVar(0, "x")
    meta = StateMetadata({}, [Variable("x", "integer")])
    step = Transition(
        "step",
        preconditions=(),
        effects=((0, NumericBinary("+", x, NumericConst(1))),),
        weight=NumericConst(step_weight),
    )
    done = BaseCase((Comparison(">=", x, NumericConst(2)),), NumericConst(base_cost))
    return Model(meta, TableRegistry(), (0,), [step], [done])


@pytest.mark.parametrize("solver", ["caasdy", "cabs"])
@pytest.mark.parametrize(
    "step_weight, base_cost, where",
    [(2**62, 0, "path cost through 'step'"), (2**61, 2**62, "path cost at a base case")],
    ids=["transition", "base-case"],
)
def test_path_cost_overflow_is_an_evaluation_error(solver, step_weight, base_cost, where):
    model = _overflow_model(step_weight, base_cost)
    with pytest.raises(dp.EvaluationError, match=f"^{where}: .*64-bit range"):
        dp.solve(model, solver)
