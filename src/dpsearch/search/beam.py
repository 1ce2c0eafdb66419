"""Beam search over state layers, and its width-doubling complete wrapper.

Beam search expands the whole current layer with the engine's kernel
(``Run.expand``), keeps the best ``width`` successors (ordered by f,
then h, then most recent), and repeats.  Duplicate and dominance
detection only spans the next layer, which is why the model must be
acyclic.  The ``complete`` flag reports whether the run could have
missed a better solution: any truncation clears it, as does terminating
on a solution while deeper layers were nonempty.  The dual bound is the
best f among the frontier, the states cut by the width so far, and the
primal bound.

The wrapper reruns beam search with widths 1, 2, 4, ... until a run
comes back complete.  Every pass records into one ``Run``, so the event
logs of the ``Solution`` it returns span all its passes.  The wrapper
carries forward the primal bound, and memoizes the run's state
constraints, edges and dual bounds for all its passes (``PassCache``),
so the target is checked once and a state any earlier pass expanded is
not expanded through the model again; it frees the memos before it
reports, so ``Solution.elapsed`` covers that.
"""

from __future__ import annotations

from typing import Optional

from ..model import Model
from .engine import Run, collector_paused

# The kernel builds nodes through ``engine.make_node``; the name stays
# importable here because perfbench/tracing.py patches it on this module.
from .nodes import StateRegistry, make_node  # noqa: F401
from .solution import Solution, SolverParams


class PassCache(dict):
    """``fn``, a pure function of the state, memoized across every pass
    of one ``cabs`` run."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, state):
        value = self[state] = self.fn(state)
        return value


@collector_paused
def beam_search(
    model: Model,
    width: int,
    params: Optional[SolverParams] = None,
    run: Optional[Run] = None,
) -> tuple[Solution, bool]:
    """One beam-search pass; returns the run outcome and the complete flag.

    A ``run`` passed in is shared with the caller, which then owns the
    outcome: the pass reports it unproved whatever the flag says.
    """
    if width < 1:
        raise ValueError("beam width must be at least 1")
    shared = run is not None
    if run is None:
        run = Run(model, params or SolverParams())
    # the pass's nodes are freed as ``_beam_pass`` returns, within ``elapsed``
    complete = _beam_pass(run, width)
    return run.finish(natural=complete and not shared), complete


def _beam_pass(run: Run, width: int) -> bool:
    """Run one pass into ``run``; returns the complete flag, False when
    time ran out."""
    root = run.root()
    if root is None:
        return True

    costs = run.costs
    solutions = len(run.primal_events)
    complete = True
    dropped_best = None  # best f among states cut by the width, across layers
    frontier = [root]
    while True:
        if run.has_bound:
            candidates = [b for b in (run.primal, dropped_best) if b is not None]
            if frontier:
                candidates.append(frontier[0].f)
            if candidates:
                run.record_dual(costs.reduce(candidates))
        if not frontier or len(run.primal_events) > solutions:
            break

        registry = StateRegistry(run.model.metadata, costs)
        children = []
        for node in frontier:
            if run.out_of_time():
                return False
            children += run.expand(node, registry) or ()  # None on a base state

        frontier = sorted(filter(run.is_live, children), key=lambda n: n.order)
        if len(frontier) > width:
            cut = frontier[width].f
            if dropped_best is None or costs.better(cut, dropped_best):
                dropped_best = cut
            frontier = frontier[:width]
            complete = False

    return complete and not frontier  # a better solution may lie past the found one


@collector_paused
def cabs(model: Model, params: Optional[SolverParams] = None) -> Solution:
    """Repeat beam search with widths 1, 2, 4, ... until a complete pass.

    The primal bound carries across iterations, so each pass only looks
    for strictly better solutions; a complete pass proves optimality (or
    infeasibility when no solution was ever found).
    """
    run = Run(model, params or SolverParams())
    own = run.feasible, run.edges, run.bound
    # bound to the memos, not the run: no reference cycle
    run.feasible, run.edges, run.bound = (PassCache(fn).__getitem__ for fn in own)
    width = 1
    while True:
        _, complete = beam_search(model, width, run=run)
        if complete or run.out_of_time():
            # the memos are freed here, within ``elapsed``
            run.feasible, run.edges, run.bound = own
            return run.finish(natural=complete)
        width *= 2
