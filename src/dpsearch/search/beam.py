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

The wrapper reruns beam search with the width doubling each iteration,
carrying the primal bound forward, until a run comes back complete.
"""

from __future__ import annotations

from typing import Optional

from ..model import Model
from .engine import Run

# The kernel builds nodes through ``engine.make_node``; the name stays
# importable here because perfbench/tracing.py patches it on this module.
from .nodes import StateRegistry, make_node  # noqa: F401
from .solution import DualCallback, PrimalCallback, Solution, SolverParams


def beam_search(
    model: Model,
    width: int,
    primal_bound=None,
    params: Optional[SolverParams] = None,
    on_primal: Optional[PrimalCallback] = None,
    on_dual: Optional[DualCallback] = None,
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
        run = Run(model, params or SolverParams(), on_primal, on_dual)
        if primal_bound is not None:
            run.primal = primal_bound

    root = run.root()
    if root is None:
        return run.finish(natural=True), True

    costs = model.costs
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

        registry = StateRegistry(model.metadata, costs)
        children = []
        for node in frontier:
            if run.out_of_time():
                return run.finish(natural=False), False
            children += run.expand(node, registry) or ()  # None on a base state

        frontier = [
            c
            for c in children
            if not c.dead and (not run.has_bound or costs.better(c.f, run.cutoff))
        ]
        frontier.sort(key=lambda n: n.order)
        if len(frontier) > width:
            cut = frontier[width].f
            if dropped_best is None or costs.better(cut, dropped_best):
                dropped_best = cut
            frontier = frontier[:width]
            complete = False

    complete = complete and not frontier  # a better solution may lie past the found one
    return run.finish(natural=complete and not shared), complete


def cabs(
    model: Model,
    params: Optional[SolverParams] = None,
    on_primal: Optional[PrimalCallback] = None,
    on_dual: Optional[DualCallback] = None,
) -> Solution:
    """Repeat beam search with doubling width until a complete pass.

    The primal bound carries across iterations, so each pass only looks
    for strictly better solutions; a complete pass proves optimality (or
    infeasibility when no solution was ever found).
    """
    params = params or SolverParams()
    run = Run(model, params, on_primal, on_dual)
    width = params.beam_initial_width
    while True:
        _, complete = beam_search(model, width, params=params, run=run)
        if complete:
            return run.finish(natural=True)
        if run.out_of_time():
            return run.finish(natural=False)
        width *= params.beam_growth
