"""Beam search semantics and the width-doubling wrapper."""

import random

import pytest

import dpsearch as dp
from dpsearch.problems import (
    CLASSES,
    Salbp1Instance,
    TsptwInstance,
    build_salbp1,
    build_tsptw,
)
from dpsearch.search.engine import Run
from conftest import count_reachable_states


def test_width_one_finds_the_desk_tour(desk_tsptw_model):
    solution, complete = dp.beam_search(desk_tsptw_model, width=1)
    # both tours cost 6, so even the greediest beam is optimal here
    assert solution.cost == 6


def test_wide_beam_is_complete(desk_tsptw_model):
    width = count_reachable_states(desk_tsptw_model)
    solution, complete = dp.beam_search(desk_tsptw_model, width=width)
    assert complete is True
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == 6


def test_optimum_as_input_bound_proves_no_better(desk_tsptw_model):
    width = count_reachable_states(desk_tsptw_model)
    solution, complete = dp.beam_search(desk_tsptw_model, width=width, primal_bound=6)
    assert complete is True
    assert solution.transitions is None
    assert solution.status == dp.Status.INFEASIBLE  # no solution below the bound


def test_truncation_clears_complete():
    # four customers, width 1: layers exceed the width
    travel = (
        (0, 3, 4, 5),
        (3, 0, 5, 4),
        (4, 5, 0, 3),
        (5, 4, 3, 0),
    )
    model = build_tsptw(TsptwInstance(travel, (0,) * 4, (100,) * 4))
    solution, complete = dp.beam_search(model, width=1)
    assert complete is False
    assert solution.status in (dp.Status.FEASIBLE, dp.Status.NOT_FOUND)


def test_cabs_on_desk_tsptw(desk_tsptw_model):
    solution = dp.cabs(desk_tsptw_model)
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == solution.bound == 6


def test_cabs_infeasible():
    model = build_tsptw(TsptwInstance(((0, 2), (2, 0)), (0, 0), (10, 1)))
    assert dp.cabs(model).status == dp.Status.INFEASIBLE


def test_cabs_on_desk_salbp1():
    model = build_salbp1(
        Salbp1Instance((3, 3, 3), 6, (frozenset(), frozenset(), frozenset()))
    )
    solution = dp.cabs(model)
    assert solution.status == dp.Status.OPTIMAL
    assert solution.cost == 2


def test_beam_dual_bound_tracks_dropped_states():
    rng = random.Random(9)
    cls = CLASSES["tsptw"]
    for _ in range(25):
        model = cls.build(cls.random(rng))
        optimum = dp.bellman_oracle(model).cost
        solution, complete = dp.beam_search(model, width=1)
        for _, bound in solution.dual_events:
            if optimum is not None:
                assert bound <= optimum
        if complete and solution.transitions is not None:
            assert solution.cost == optimum


def test_cabs_aggregates_events_across_iterations():
    rng = random.Random(10)
    cls = CLASSES["wt"]
    for _ in range(10):
        model = cls.build(cls.random(rng))
        solution = dp.cabs(model)
        costs = [c for _, c in solution.primal_events]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
        bounds = [b for _, b in solution.dual_events]
        assert bounds == sorted(bounds)


def test_width_must_be_positive(desk_tsptw_model):
    with pytest.raises(ValueError):
        dp.beam_search(desk_tsptw_model, width=0)


class _Countdown(Run):
    """A run whose time runs out after ``checks`` clock checks."""

    def __init__(self, model, checks):
        super().__init__(model, dp.SolverParams(), None, None)
        self.checks = checks

    def out_of_time(self):
        self.checks -= 1
        return self.checks < 0


def test_timeout_inside_a_layer_keeps_the_dual_bound_valid():
    # the unexpanded rest of the layer may hold the optimum, so a layer
    # cut short by the clock must not lift the dual bound past it
    cls = CLASSES["tsptw"]
    for seed in (10, 17):
        model = cls.build(cls.random(random.Random(seed)))
        optimum = dp.bellman_oracle(model).cost
        for checks in range(1, 40):
            run = _Countdown(model, checks)
            solution, _ = dp.beam_search(model, width=1000, run=run)
            assert solution.bound is None or solution.bound <= optimum
