"""Acceptance gate: one test per criterion, one printed verdict per test.

The exhaustive benchmark campaign is out of scope; acceptance instead
checks every solver against the memoized value-function oracle on 100
seeded random tiny instances per problem class, plus the theorem-backed
invariants (first-solution optimality, bound validity, anytime
behavior, beam completeness, pruning ablations), the YAML round trip,
the metric formulas, and the path-cost identity.  All comparisons are
exact: every shipped model has integer cost type.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

import pytest

import dpsearch as dp
from dpsearch import yamlio
from dpsearch.expressions import NumericConst
from dpsearch.problems import CLASSES, TsptwInstance, build_tsptw
from conftest import (
    FIXTURES,
    count_reachable_states,
    random_walk_cost,
    recursive_solution_cost,
    strip_preferences,
    with_bounds,
)

RUNS_PER_CLASS = 100
SEED_SALT = 0x5EED

# zero base cost + nonnegative weights + minimization: the first
# solution popped by best-first search is already optimal
FIRST_SOLUTION_CLASSES = ("binpacking", "salbp1", "wt", "talent", "mosp", "graphclear")

# classes whose declared bounds are non-trivial and minimizing, for the
# zero-bound ablation (the others either maximize or already declare 0)
ZERO_BOUND_CLASSES = ("tsptw", "cvrp", "mpdtsp", "binpacking", "salbp1", "talent")


@dataclass
class Record:
    model: object
    optimum: object  # oracle cost; None when infeasible
    solutions: dict = field(default_factory=dict)


def _verdict(number: int, label: str):
    print(f"criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def suite():
    records: dict[str, list[Record]] = {}
    for name, cls in CLASSES.items():
        rng = random.Random(zlib.crc32(name.encode()) ^ SEED_SALT)
        rows = []
        for _ in range(RUNS_PER_CLASS):
            model = cls.build(cls.random(rng))
            optimum = dp.bellman_oracle(model).cost
            solutions = {solver: dp.solve(model, solver) for solver in dp.SOLVER_NAMES}
            rows.append(Record(model, optimum, solutions))
        records[name] = rows
    return records


def test_criterion_1_oracle_equivalence(suite):
    for name, rows in suite.items():
        for index, record in enumerate(rows):
            for solver, solution in record.solutions.items():
                if record.optimum is None:
                    assert solution.status == dp.Status.INFEASIBLE, (
                        f"{name}[{index}] {solver}: expected infeasible"
                    )
                else:
                    assert solution.status == dp.Status.OPTIMAL, (
                        f"{name}[{index}] {solver}: {solution.status}"
                    )
                    assert solution.cost == record.optimum, (
                        f"{name}[{index}] {solver}: {solution.cost} != {record.optimum}"
                    )
    _verdict(1, "oracle equivalence, 7 solvers x 100 instances x 11 classes")


def test_criterion_2_first_solution_optimality(suite):
    checked = 0
    for name in FIRST_SOLUTION_CLASSES:
        for index, record in enumerate(suite[name]):
            solution = record.solutions["caasdy"]
            if record.optimum is None:
                continue
            first = solution.primal_events[0][1]
            assert first == solution.cost == record.optimum, (
                f"{name}[{index}]: first {first}, final {solution.cost}"
            )
            checked += 1
    assert checked > 100
    _verdict(2, f"first solution popped is optimal on {checked} runs")


def test_criterion_3_bound_validity(suite):
    for name, rows in suite.items():
        for index, record in enumerate(rows):
            for solver, solution in record.solutions.items():
                minimize = record.model.costs.minimize
                if record.optimum is None:
                    assert not solution.primal_events
                    continue
                for _, bound in solution.dual_events:
                    ok = bound <= record.optimum if minimize else bound >= record.optimum
                    assert ok, f"{name}[{index}] {solver}: dual {bound} vs {record.optimum}"
                for _, cost in solution.primal_events:
                    ok = cost >= record.optimum if minimize else cost <= record.optimum
                    assert ok, f"{name}[{index}] {solver}: primal {cost} vs {record.optimum}"
    _verdict(3, "every reported dual <= optimum <= every reported primal")


def test_criterion_4_anytime_contract(suite):
    for name, rows in suite.items():
        for record in rows:
            better = record.model.costs.better
            for solver, solution in record.solutions.items():
                costs = [c for _, c in solution.primal_events]
                for previous, current in zip(costs, costs[1:]):
                    assert better(current, previous), f"{name} {solver}: {costs}"
                bounds = [b for _, b in solution.dual_events]
                for previous, current in zip(bounds, bounds[1:]):
                    assert better(previous, current), f"{name} {solver}: {bounds}"
                # all suite runs terminate naturally: the gap closes exactly
                assert solution.proved
                assert solution.gap() == 0.0
    _verdict(4, "primal strictly improves, dual tightens, final gap 0")


def test_criterion_5_beam_completeness():
    model = build_tsptw(
        TsptwInstance(((0, 2, 3), (2, 0, 1), (3, 1, 0)), (0, 0, 0), (10, 10, 10))
    )
    width = count_reachable_states(model)
    solution, complete = dp.beam_search(model, width=width)
    assert complete is True
    assert solution.status == dp.Status.OPTIMAL and solution.cost == 6

    proof, complete = dp.beam_search(
        model, width=width, params=dp.SolverParams(initial_bound=6)
    )
    assert complete is True
    assert proof.transitions is None  # no solution cheaper than the bound exists
    _verdict(5, "wide beam is complete at 6; bound 6 certifies no better")


def test_criterion_6_pruning_ablations(suite):
    zero_wins = zero_total = 0
    for name in ZERO_BOUND_CLASSES:
        for index, record in enumerate(suite[name]):
            ablated = with_bounds(record.model, [NumericConst(0)])
            solution = dp.cabs(ablated)
            got = solution.cost if solution.status != dp.Status.INFEASIBLE else None
            assert got == record.optimum, f"zero-bound {name}[{index}]"
            zero_total += 1
            if solution.expanded >= record.solutions["cabs"].expanded:
                zero_wins += 1

    bare_wins = bare_total = 0
    for name, rows in suite.items():
        for index, record in enumerate(rows):
            bare = strip_preferences(record.model)
            solution = dp.cabs(bare)
            got = solution.cost if solution.status != dp.Status.INFEASIBLE else None
            assert got == record.optimum, f"no-dominance {name}[{index}]"
            bare_total += 1
            if solution.expanded >= record.solutions["cabs"].expanded:
                bare_wins += 1

    assert zero_wins >= 0.9 * zero_total, f"{zero_wins}/{zero_total}"
    assert bare_wins >= 0.9 * bare_total, f"{bare_wins}/{bare_total}"
    _verdict(
        6,
        "ablations stay oracle-equal; expansions grew in "
        f"{zero_wins}/{zero_total} (zero bound) and {bare_wins}/{bare_total} "
        "(no dominance) runs",
    )


def test_criterion_7_yaml_round_trip(tmp_path):
    domain_text = (FIXTURES / "tsptw_domain.yaml").read_text()
    problem_text = (FIXTURES / "tsptw_problem.yaml").read_text()
    model = yamlio.load_model(domain_text, problem_text)
    assert [t.name for t in model.transitions] == ["visit-1", "visit-2", "visit-3"]

    travel = ((0, 3, 4, 5), (3, 0, 5, 4), (4, 5, 0, 3), (5, 4, 3, 0))
    built = build_tsptw(TsptwInstance(travel, (0, 5, 0, 8), (100, 16, 10, 14)))
    from_yaml = dp.cabs(model)
    programmatic = dp.cabs(built)
    assert from_yaml.status == programmatic.status == dp.Status.OPTIMAL
    assert from_yaml.cost == programmatic.cost

    first = yamlio.write_solution(dp.cabs(yamlio.load_model(domain_text, problem_text)))
    second = yamlio.write_solution(dp.cabs(yamlio.load_model(domain_text, problem_text)))
    assert first.encode() == second.encode()
    _verdict(7, "figure fixtures ground to 3 transitions and re-solve identically")


def test_criterion_8_metrics_worked_examples():
    assert dp.optimality_gap(10, 5) == 0.5
    assert dp.optimality_gap(0, 0) == 0.0
    assert dp.optimality_gap(6, None) == 1.0
    assert dp.primal_integral([(2.0, 10), (6.0, 5)], reference=5, horizon=10) == 4.0
    assert dp.primal_integral([], reference=5, horizon=10) == 10.0
    assert dp.primal_integral([(0.0, 5)], reference=5, horizon=10) == 0.0
    _verdict(8, "gap and primal-integral formulas reproduce the worked examples")


def test_criterion_9_path_cost_identity():
    rng = random.Random(0xF01D)
    checked = 0
    names = sorted(CLASSES)
    while checked < 1000:
        cls = CLASSES[names[checked % len(names)]]
        model = cls.build(cls.random(rng))
        walk = random_walk_cost(model, rng)
        if walk is None:
            continue
        folded, sequence, _ = walk
        assert folded == recursive_solution_cost(model, sequence, model.target)
        checked += 1
    _verdict(9, "1000 random solutions: fold of weights + base cost is exact")
