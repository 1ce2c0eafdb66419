"""Beam search semantics and the width-doubling wrapper."""

import gc
import random
import weakref

import pytest

import dpsearch as dp
from dpsearch.problems import (
    CLASSES,
    Salbp1Instance,
    TsptwInstance,
    build_salbp1,
    build_tsptw,
)
from dpsearch.search import beam
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
    solution, complete = dp.beam_search(
        desk_tsptw_model, width=width, params=dp.SolverParams(initial_bound=6)
    )
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
        super().__init__(model, dp.SolverParams())
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


# -- the expansion memo of cabs

MODEL_QUERIES = (  # as perfbench/tracing.py wraps them, and the fused edge loop
    "applicable_transitions", "successor", "check_constraints", "weight",
    "eval_dual_bound", "base_cost", "edges",
)


def _cvrp_of_six_passes():
    cls = CLASSES["cvrp"]
    return cls.build(cls.random(random.Random(6)))


def _passes_without_memo(model):
    """cabs without its memo: every pass queries the model afresh."""
    run = Run(model, dp.SolverParams())
    width = 1
    while not dp.beam_search(model, width, run=run)[1]:
        width *= 2
    return run.finish(natural=True)


def _outcome(solution):
    return (
        solution.status, solution.cost, solution.transitions, solution.bound,
        solution.expanded, solution.generated, [c for _, c in solution.primal_events],
    )


def test_cabs_reuses_expansions_without_changing_its_answer():
    model = _cvrp_of_six_passes()
    expected = _outcome(_passes_without_memo(model))
    calls = dict.fromkeys(MODEL_QUERIES, 0)
    for query in MODEL_QUERIES:
        def counted(*args, _query=query, _fn=getattr(model, query)):
            calls[_query] += 1
            return _fn(*args)
        setattr(model, query, counted)
    solution = dp.cabs(model)
    assert _outcome(solution) == expected
    assert calls["applicable_transitions"] < solution.expanded
    assert calls["edges"] < solution.expanded
    assert calls["eval_dual_bound"] < solution.generated


def test_cabs_memo_holds_every_pass(monkeypatch):
    model = _cvrp_of_six_passes()
    runs, memos, expanded = [], [], []

    def beam_search(model, width, params=None, run=None):
        runs.append(run)
        memos.append((run.edges.__self__, run.bound.__self__))
        return search(model, width, params=params, run=run)

    def expand(run, node, registry):
        expanded.append(node.state)
        return explore(run, node, registry)

    search, explore = beam.beam_search, Run.expand
    monkeypatch.setattr(beam, "beam_search", beam_search)
    monkeypatch.setattr(Run, "expand", expand)
    dp.cabs(model)
    assert len(runs) >= 3 and len(set(map(id, runs))) == 1  # one run
    assert len({tuple(map(id, pair)) for pair in memos}) == 1  # one memo
    edges, bounds = memos[-1]
    assert edges.keys() == set(expanded)  # over all passes, not the last two
    assert len(expanded) > len(edges)  # later passes re-expanded earlier states
    expansions = [model.edges(state) for state in edges]
    successors = {s for found in expansions if isinstance(found, list) for _, s, _ in found}
    assert model.target in bounds
    assert bounds.keys() <= successors | {model.target}


def test_cabs_checks_the_target_once(monkeypatch):
    model = _cvrp_of_six_passes()
    expected = _outcome(_passes_without_memo(model))
    on_target = {"check_constraints": 0, "eval_dual_bound": 0}
    for query in on_target:
        def counted(state, _query=query, _fn=getattr(model, query)):
            on_target[_query] += state == model.target
            return _fn(state)
        setattr(model, query, counted)
    widths = []

    def beam_search(model, width, params=None, run=None):
        widths.append(width)
        return search(model, width, params=params, run=run)

    search = beam.beam_search
    monkeypatch.setattr(beam, "beam_search", beam_search)
    assert _outcome(dp.cabs(model)) == expected
    assert len(widths) >= 3
    assert on_target == {"check_constraints": 1, "eval_dual_bound": 1}


def test_cabs_widths_start_at_one_and_double(monkeypatch):
    widths = []

    def beam_search(model, width, params=None, run=None):
        widths.append(width)
        return search(model, width, params=params, run=run)

    search = beam.beam_search
    monkeypatch.setattr(beam, "beam_search", beam_search)
    dp.cabs(_cvrp_of_six_passes())
    assert widths == [1, 2, 4, 8, 16, 32]


def test_cabs_memo_is_freed_with_its_run(monkeypatch):
    # a memo that held its run would form a reference cycle, and then
    # every finished run's memo would stay in memory until a collection
    runs = []

    def beam_search(model, width, params=None, run=None):
        runs.append(weakref.ref(run))
        return search(model, width, params=params, run=run)

    search = beam.beam_search
    monkeypatch.setattr(beam, "beam_search", beam_search)
    gc.disable()
    try:
        dp.cabs(_cvrp_of_six_passes())
        assert runs[-1]() is None
    finally:
        gc.enable()


def test_cabs_frees_its_memos_before_it_reports(monkeypatch):
    # the memos are freed within ``Solution.elapsed``, not after it
    memos, alive = [], []

    class Memo(beam.PassCache):
        def __init__(self, fn):
            super().__init__(fn)
            memos.append(weakref.ref(self))

    def finish(run, natural):
        alive.append(sum(memo() is not None for memo in memos))
        return run_finish(run, natural)

    run_finish = Run.finish
    monkeypatch.setattr(beam, "PassCache", Memo)
    monkeypatch.setattr(Run, "finish", finish)
    dp.cabs(_cvrp_of_six_passes())
    assert len(memos) == 3
    assert alive[:-1] == [3] * (len(alive) - 1) and alive[-1] == 0  # each pass, then the run


def test_cabs_reports_a_deep_effect_fault_as_caasdy_does(deep_effect_fault_model):
    model = deep_effect_fault_model
    messages = []
    for solver in (dp.caasdy, dp.cabs):
        with pytest.raises(dp.EvaluationError) as caught:
            solver(model)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("effect of 'step'")
