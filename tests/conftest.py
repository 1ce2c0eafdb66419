"""Shared fixtures: desk instances, an independent exhaustive oracle,
and model surgery helpers used by the ablation tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from dpsearch import CostStructure, Model, StateMetadata, Variable, combine, yamlio
from dpsearch.problems import TsptwInstance, build_tsptw
from dpsearch.search.nodes import StateRegistry, make_node

FIXTURES = Path(__file__).parent / "fixtures"

# solver-config keys that set a policy constant; each solver now runs one
# fixed schedule, so every one of them is an unknown key
REMOVED_POLICY_KEYS = (
    "beam_initial_width", "beam_growth", "acps_initial_budget", "acps_budget_step",
    "apps_initial_budget", "apps_budget_step", "apps_max_budget", "dbdfs_k",
)


def exhaustive_optimum(model: Model, limit: int = 500_000):
    """Enumerate every transition sequence per the solution definition.

    Deliberately independent of the memoized oracle and the search
    engine: follows all applicable transitions (ignoring forced flags),
    recomputes costs by the recursive definition, and returns the best
    solution cost or None when no solution exists.
    """
    costs = model.costs
    calls = [0]

    def walk(state):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError("instance too large for exhaustive enumeration")
        if not model._constraints_by_query(state):
            return None
        base = model.base_cost(state)
        if base is not None:
            return base
        values = []
        for transition in model.all_applicable_transitions(state):
            w = model.weight(transition, state)
            sub = walk(model.successor(transition, state))
            if sub is not None:
                values.append(combine(costs, w, sub))
        return costs.reduce(values) if values else None

    return walk(model.target)


def strip_preferences(model: Model) -> Model:
    """The same model with every resource preference removed, so the
    registry falls back to plain duplicate detection."""
    meta = model.metadata
    stripped = StateMetadata(
        meta.objects,
        [Variable(v.name, v.kind, v.object_type, None) for v in meta.variables],
    )
    return Model(
        metadata=stripped,
        tables=model.tables,
        target=model.target,
        transitions=model.transitions,
        base_cases=model.base_cases,
        constraints=model.constraints,
        dual_bounds=model.dual_bounds,
        costs=model.costs,
    )


def registry_admits(meta: StateMetadata, kept, newcomer, g=0, costs=CostStructure()) -> bool:
    """Whether a ``StateRegistry`` holding ``kept`` at path weight 0 lets
    ``newcomer`` in at path weight ``g``.

    Checks that the registry's two uses of its dominance rule agree: a
    blocked newcomer is one that, inserted anyway, would have been
    evicted by ``kept`` coming second at weight 0.
    """
    registry = StateRegistry(meta, costs)
    registry.insert(make_node(costs, kept, 0, 0, 0, 0, 0))
    blocked = registry.blocked(newcomer, g)
    reverse = StateRegistry(meta, costs)
    reverse.insert(make_node(costs, newcomer, g, 0, g, 0, 0))
    assert bool(reverse.insert(make_node(costs, kept, 0, 0, 0, 0, 1))) == blocked
    return not blocked


def weakly_dominates(meta: StateMetadata, a, b) -> bool:
    """The registry's dominance preorder: ``a`` weakly dominates ``b``
    when a kept ``a`` blocks ``b`` at an equal path weight."""
    return not registry_admits(meta, a, b)


def with_bounds(model: Model, bounds) -> Model:
    return Model(
        metadata=model.metadata,
        tables=model.tables,
        target=model.target,
        transitions=model.transitions,
        base_cases=model.base_cases,
        constraints=model.constraints,
        dual_bounds=bounds,
        costs=model.costs,
    )


DESK_TRAVEL = ((0, 2, 3), (2, 0, 1), (3, 1, 0))


@pytest.fixture
def desk_tsptw() -> TsptwInstance:
    """Three customers including the depot, wide windows; optimal tour 6."""
    return TsptwInstance(DESK_TRAVEL, (0, 0, 0), (10, 10, 10))


@pytest.fixture
def desk_tsptw_model(desk_tsptw) -> Model:
    return build_tsptw(desk_tsptw)


@pytest.fixture
def fixture_texts():
    return (
        (FIXTURES / "tsptw_domain.yaml").read_text(),
        (FIXTURES / "tsptw_problem.yaml").read_text(),
    )


@pytest.fixture
def deep_effect_fault_model() -> Model:
    """x goes 0 -> 1, then the effect divides by zero making the depth-2
    successor: every solver raises an ``EvaluationError`` mid-search."""
    domain = (
        "cost_type: integer\n"
        "reduce: min\n"
        "state_variables:\n"
        "  - {name: x, type: integer}\n"
        "transitions:\n"
        "  - {name: step, effect: {x: '(+ x (/ 1 (- 1 x)))'}, cost: '(+ 1 cost)'}\n"
        "base_cases:\n"
        "  - {conditions: ['(>= x 3)'], cost: '0'}\n"
    )
    return yamlio.load_model(domain, "object_numbers: {}\ntarget: {x: 0}\n")


def random_walk_cost(model: Model, rng):
    """Follow applicable transitions to a base state, folding weights
    left to right; None when the walk dead-ends."""
    state = model.target
    if not model.check_constraints(state):
        return None
    names = []
    folded = model.costs.identity
    for _ in range(200):
        base = model.base_cost(state)
        if base is not None:
            return combine(model.costs, folded, base), names, state
        options = [
            t
            for t in model.all_applicable_transitions(state)
            if model.check_constraints(model.successor(t, state))
        ]
        if not options:
            return None
        transition = rng.choice(options)
        folded = combine(model.costs, folded, model.weight(transition, state))
        names.append(transition.name)
        state = model.successor(transition, state)
    return None


def recursive_solution_cost(model: Model, names, state):
    """The textbook recursive definition of a solution's cost."""
    if not names:
        return model.base_cost(state)
    by_name = {t.name: t for t in model.transitions}
    transition = by_name[names[0]]
    tail = recursive_solution_cost(model, names[1:], model.successor(transition, state))
    return combine(model.costs, model.weight(transition, state), tail)


def count_reachable_states(model: Model, limit: int = 1_000_000) -> int:
    """States reachable through constraint-satisfying expansion."""
    seen = {model.target}
    frontier = [model.target]
    while frontier:
        state = frontier.pop()
        if model.base_cost(state) is not None:
            continue
        for transition in model.all_applicable_transitions(state):
            successor = model.successor(transition, state)
            if not model.check_constraints(successor):
                continue
            if successor not in seen:
                if len(seen) >= limit:
                    raise RuntimeError("too many states")
                seen.add(successor)
                frontier.append(successor)
    return len(seen)
