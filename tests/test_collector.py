"""Each run pauses the cyclic garbage collector and leaves its switch as
the caller left it.

The pause is safe because the search builds no reference cycles: what a
run drops is freed by reference counting, so a collection after it finds
nothing.  A run drops its nodes before it reports, so the time freeing
them takes is inside ``Solution.elapsed``.
"""

import gc
import random

import pytest

import dpsearch as dp
from dpsearch.problems import CLASSES
from dpsearch.search import engine
from dpsearch.search.nodes import SearchNode

RUNS = {
    "caasdy": dp.caasdy,
    "cabs": dp.cabs,
    "beam_search": lambda model: dp.beam_search(model, 2)[0],
}


@pytest.fixture
def collector_switch():
    """Restores the caller's switch, whatever the test leaves."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.usefixtures("collector_switch")
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_run_leaves_the_switch_as_it_found_it(desk_tsptw_model, run, enabled):
    (gc.enable if enabled else gc.disable)()
    assert RUNS[run](desk_tsptw_model).cost == 6
    assert gc.isenabled() is enabled


@pytest.mark.usefixtures("collector_switch")
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_run_that_raises_leaves_the_switch_as_it_found_it(
    deep_effect_fault_model, run, enabled
):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(dp.EvaluationError):
        RUNS[run](deep_effect_fault_model)
    assert gc.isenabled() is enabled


@pytest.mark.usefixtures("collector_switch")
@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_collector_is_off_inside_a_run(monkeypatch, desk_tsptw_model, run):
    seen = []

    def make_node(*args):
        seen.append(gc.isenabled())
        return build(*args)

    build = engine.make_node
    monkeypatch.setattr(engine, "make_node", make_node)
    gc.enable()
    RUNS[run](desk_tsptw_model)
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.usefixtures("collector_switch")
@pytest.mark.parametrize("solver", dp.SOLVER_NAMES)
def test_no_solver_leaves_cyclic_garbage(solver):
    gc.disable()
    gc.freeze()  # only what the test builds is scanned: quicker collections
    try:
        for name in sorted(CLASSES):
            cls = CLASSES[name]
            for seed in range(3):
                model = cls.build(cls.random(random.Random(seed)))
                gc.collect()
                dp.solve(model, solver)
                assert gc.collect() == 0, (name, seed)
    finally:
        gc.unfreeze()


def _nodes_alive() -> int:
    return sum(isinstance(o, SearchNode) for o in gc.get_objects())


@pytest.mark.usefixtures("collector_switch")
@pytest.mark.parametrize("time_limit", [None, 0])
@pytest.mark.parametrize("run", [*dp.SOLVER_NAMES, "beam_search"])
def test_a_run_frees_its_nodes_before_it_reports(monkeypatch, desk_tsptw_model, run, time_limit):
    alive = []

    def finish(self, natural):
        alive.append(_nodes_alive())
        return report(self, natural)

    report = engine.Run.finish
    monkeypatch.setattr(engine.Run, "finish", finish)
    params = dp.SolverParams(time_limit=time_limit)
    gc.collect()
    before = _nodes_alive()
    if run == "beam_search":
        dp.beam_search(desk_tsptw_model, 2, params)
    else:
        dp.solve(desk_tsptw_model, run, params)
    assert alive and alive == [before] * len(alive)
