"""The generic engine and its six policy instantiations."""

import dataclasses
import inspect
import itertools
import math
import random
import time
import zlib

import pytest

import dpsearch as dp
from conftest import REMOVED_POLICY_KEYS
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


@pytest.mark.parametrize(
    "knob, value, message",
    [
        ("initial_bound", float("nan"), "initial_bound must be a number other than NaN"),
        ("initial_bound", "abc", "initial_bound must be a number other than NaN"),
        ("initial_bound", True, "initial_bound must be a number, not a boolean"),
        ("time_limit", True, "time_limit must be a number, not a boolean"),
        ("time_limit", "abc", "time_limit must be a number"),
    ],
)
def test_bad_params_are_rejected(knob, value, message):
    with pytest.raises(ValueError, match=message):
        dp.SolverParams(**{knob: value})


def test_params_hold_only_time_limit_and_initial_bound():
    assert [f.name for f in dataclasses.fields(dp.SolverParams)] == [
        "time_limit", "initial_bound"
    ]
    for key in REMOVED_POLICY_KEYS:
        with pytest.raises(TypeError, match=key):
            dp.SolverParams(**{key: 1})


def test_infinite_initial_bound_is_no_bound(desk_tsptw_model):
    solution = dp.caasdy(desk_tsptw_model, dp.SolverParams(initial_bound=math.inf))
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == 6


def test_reconstructed_path_replays_to_the_reported_cost(desk_tsptw_model):
    model = desk_tsptw_model
    solution = dp.dfbnb(model)
    by_name = {t.name: t for t in model.transitions}
    state = model.target
    folded = model.costs.identity
    for name in solution.transitions:
        transition = by_name[name]
        assert transition in model.all_applicable_transitions(state)
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


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_solvers_match_oracle_on_a_continuous_cost_model(solver):
    # TSPTW's integer tables under a continuous cost type: every weight,
    # base cost and bound is an int converted to a float
    rng = random.Random(zlib.crc32(b"continuous"))
    cls = CLASSES["tsptw"]
    solved = 0
    for _ in range(15):
        built = cls.build(cls.random(rng))
        model = dp.Model(
            metadata=built.metadata,
            tables=built.tables,
            target=built.target,
            transitions=built.transitions,
            base_cases=built.base_cases,
            constraints=built.constraints,
            dual_bounds=built.dual_bounds,
            costs=dp.CostStructure(operator="+", direction="min", cost_type="continuous"),
        )
        expected = dp.bellman_oracle(model).cost
        solution = dp.solve(model, solver)
        if expected is None:
            assert solution.status == dp.Status.INFEASIBLE
            continue
        assert solution.status == dp.Status.OPTIMAL
        assert (solution.cost, type(solution.cost)) == (expected, float)
        solved += 1
    assert solved >= 3


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


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_every_solver_stops_soon_after_its_time_limit(solver):
    # the proof on this tour takes far longer than the limit for every
    # solver's fixed schedule; each must stop on time rather than run on
    rng = random.Random(17)
    n = 20
    travel = tuple(
        tuple(0 if i == j else rng.randint(1, 50) for j in range(n)) for i in range(n)
    )
    from dpsearch.problems import TsptwInstance, build_tsptw

    model = build_tsptw(TsptwInstance(travel, (0,) * n, (10**6,) * n))
    start = time.perf_counter()
    solution = dp.solve(model, solver, dp.SolverParams(time_limit=0.15))
    wall = time.perf_counter() - start
    assert solution.status in (dp.Status.FEASIBLE, dp.Status.NOT_FOUND)
    assert 0.15 <= solution.elapsed <= wall < 1.15


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


def _kernel_model(costs, bound):
    """Steps from ``x`` to ``x + 1`` or ``x + 2`` whose weights include 0
    and, in a continuous model, infinity; two steps share a successor, so
    dominance blocks or evicts one of them.  ``bound`` is the one dual
    bound, or None for none."""
    from dpsearch import BaseCase, Model, StateMetadata, TableRegistry, Transition, Variable
    from dpsearch.expressions import Comparison, NumericBinary, NumericConst, NumericVar

    x = NumericVar(0, "x")
    weights = (0, 2.5, 7, math.inf) if costs.cost_type == "continuous" else (0, 2, 7)
    steps = [
        Transition(f"t{k}", (), ((0, NumericBinary("+", x, NumericConst(1 + k % 2))),),
                   NumericConst(w))
        for k, w in enumerate(weights)
    ]
    never = BaseCase((Comparison(">=", x, NumericConst(100)),), NumericConst(0))
    bounds = () if bound is None else (NumericConst(bound),)
    return Model(StateMetadata({}, [Variable("x", "integer")]), TableRegistry(), (0,), steps,
                 [never], dual_bounds=bounds, costs=costs)


def _reference_children(run, node, registry):
    """``Run.expand`` of a non-base ``node`` as a loop over ``costs.add``
    and ``costs.better``."""
    from dpsearch.search.nodes import make_node

    costs, children = run.costs, []
    for transition, successor, w in run.model.edges(node.state):
        try:
            g = costs.add(node.g, w)
        except OverflowError as err:
            raise dp.EvaluationError(f"path cost through {transition.name!r}: {err}") from err
        if registry.blocked(successor, g):
            continue
        h, f = costs.identity, g
        if run.has_bound:
            h = run.model.eval_dual_bound(successor)
            f = costs.add(g, h)
            if not costs.better(f, run.cutoff):
                continue
        child = make_node(costs, successor, g, h, f, node.depth + 1, run.generated + len(children),
                          node, transition.name)
        registry.insert(child)
        children.append(child)
    return children


def _children(expand, model, g0, cutoff):
    from dpsearch.search.engine import Run
    from dpsearch.search.nodes import StateRegistry, make_node

    run = Run(model, dp.SolverParams(initial_bound=cutoff))
    node = make_node(model.costs, (3,), g0, 0, g0, 1, 0)
    try:
        children = expand(run, node, StateRegistry(model.metadata, model.costs))
    except dp.EvaluationError as err:
        return str(err)
    return [repr((c.state, c.g, c.f, c.order, c.transition)) for c in children]


@pytest.mark.parametrize("bound", [None, 1, math.inf, -math.inf], ids=["none", "1", "inf", "-inf"])
@pytest.mark.parametrize(
    "costs",
    [dp.CostStructure(op, direction, kind)
     for op in ("+", "max") for direction in ("min", "max") for kind in ("integer", "continuous")],
    ids=lambda c: f"{c.operator}-{c.direction}-{c.cost_type}",
)
def test_the_kernel_adds_and_compares_as_the_cost_structure_does(costs, bound):
    from dpsearch.search.engine import Run

    model = _kernel_model(costs, bound)
    for g0, cutoff in itertools.product((0, 4, 9, 2**63 - 2), (None, 5, 8)):
        kernel = _children(Run.expand, model, g0, cutoff)
        assert kernel == _children(_reference_children, model, g0, cutoff), (g0, cutoff)
        # a g one past INT64_MAX raises where the sum is exact
        overflows = costs.operator == "+" and costs.cost_type == "integer" and g0 > 9
        assert (kernel == "path cost through 't1': cost 9223372036854775808 exceeds 64-bit range"
                ) is overflows


def _stop_after_pops(monkeypatch, solver, model, pops):
    """Run ``solver`` with ``Run.out_of_time`` true once ``pops`` nodes
    have been popped, so that it stops after exactly that many.  Returns
    the solution and every node the run made."""
    from dpsearch.search import engine

    nodes, checks = [], itertools.count()
    make_node = engine.make_node

    def recording_make_node(*args):
        nodes.append(make_node(*args))
        return nodes[-1]

    with monkeypatch.context() as patch:
        patch.setattr(engine, "make_node", recording_make_node)
        patch.setattr(engine.Run, "out_of_time", lambda run: next(checks) >= pops)
        return dp.solve(model, solver), nodes


@pytest.mark.parametrize("solver", [s for s in ALL_SOLVERS if s != "cabs"])
@pytest.mark.parametrize("seed", range(8))
def test_timed_out_bound_is_valid_and_live(monkeypatch, solver, seed):
    # the bound reported at a timeout is at least min(primal, the best f
    # still open): nodes alive after the stop are the open ones
    model = CLASSES["tsptw"].build(CLASSES["tsptw"].random(random.Random(seed)))
    optimum = dp.bellman_oracle(model).cost
    if optimum is None:
        return
    full = dp.solve(model, solver)
    for pops in range(1, full.expanded + 1):
        solution, nodes = _stop_after_pops(monkeypatch, solver, model, pops)
        assert solution.expanded == pops
        assert solution.bound is not None and solution.bound <= optimum
        open_f = [n.f for n in nodes if not n.dead]
        if solution.cost is not None:
            open_f = [f for f in open_f if f < solution.cost] + [solution.cost]
        assert solution.bound >= min(open_f), (pops, solution.bound, open_f)


def _best_dual(model, solution):
    values = [b for _, b in solution.dual_events]
    if not values:
        return None
    return max(values) if model.costs.minimize else min(values)


@pytest.mark.parametrize("name", sorted(CLASSES))
@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_bound_is_the_best_logged_dual_bound(monkeypatch, name, solver):
    """The event logs are the run's anytime record: the reported bound is
    their best dual value, run to completion and stopped early alike."""
    from test_search_golden import INSTANCES, build

    for index in range(INSTANCES):
        model = build(name, index)
        runs = [dp.solve(model, solver)]
        runs += [_stop_after_pops(monkeypatch, solver, model, pops)[0] for pops in (1, 4)]
        for solution in runs:
            if solution.status == dp.Status.INFEASIBLE:
                assert solution.bound is None
            else:
                assert solution.bound == _best_dual(model, solution)


class _TwoHeaps:
    """A best-first policy that is not a ``BestFirstList``: it delegates
    to one, so the engine shadows it with a separate ``BoundTracker``."""

    def __init__(self, is_live):
        from dpsearch.search.open_lists import BestFirstList

        inner = BestFirstList(is_live)
        self.push, self.pop, self.notify_new_best = inner.push, inner.pop, inner.notify_new_best


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_a_best_first_list_tracks_the_bound_as_a_separate_tracker_would(monkeypatch, name):
    """caasdy probes its open list for the dual bound; shadowing the same
    list with a second heap gives the same run, complete or stopped."""
    from dpsearch.search import SOLVERS, engine
    from test_search_golden import INSTANCES, build

    def two_heaps(model, params=None):
        return engine.generic_search(model, _TwoHeaps, params)

    monkeypatch.setitem(SOLVERS, "two-heaps", two_heaps)

    def seen(solution):
        return (
            solution.status,
            solution.cost,
            solution.transitions,
            solution.expanded,
            solution.generated,
            [value for _, value in solution.primal_events],
            [value for _, value in solution.dual_events],
        )

    for index in range(INSTANCES):
        model = build(name, index)
        for pops in (None, 1, 4):
            one, two = (
                dp.solve(model, solver)
                if pops is None
                else _stop_after_pops(monkeypatch, solver, model, pops)[0]
                for solver in ("caasdy", "two-heaps")
            )
            assert seen(one) == seen(two), (index, pops)


@pytest.mark.parametrize("solver", [s for s in ALL_SOLVERS if s != "cabs"])
def test_only_a_policy_other_than_best_first_gets_a_separate_tracker(
    monkeypatch, desk_tsptw_model, solver
):
    from conftest import with_bounds
    from dpsearch.search import engine, nodes

    built = []

    class CountingTracker(nodes.BoundTracker):
        def __init__(self, is_live):
            super().__init__(is_live)
            built.append(self)

    monkeypatch.setattr(engine, "BoundTracker", CountingTracker)
    assert dp.solve(desk_tsptw_model, solver).cost == 6
    assert len(built) == (0 if solver == "caasdy" else 1)
    built.clear()
    assert dp.solve(with_bounds(desk_tsptw_model, []), solver).cost == 6
    assert built == []


def test_solver_signatures():
    from dpsearch.search import SOLVERS

    for solver in SOLVERS.values():
        assert list(inspect.signature(solver).parameters) == ["model", "params"], solver
        assert inspect.signature(solver).parameters["params"].default is None
    assert list(inspect.signature(dp.solve).parameters) == ["model", "solver", "params"]
    assert inspect.signature(dp.solve).parameters["params"].default is None
