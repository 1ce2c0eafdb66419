"""The expansion kernel every solver shares, and generic anytime
best-first branch-and-bound over it.

A ``Run`` holds one solver invocation's bookkeeping (primal and dual
incumbents, event logs, counters, the wall clock) and the kernel:
``root`` builds the target node, and ``expand`` turns a node into its
successors.  A base state is a candidate solution, recorded when it
improves the primal bound.  Any other state's successors are filtered
by state constraints, checked against the dominance registry, cut off
when their f-value cannot beat the primal bound, and inserted into the
registry.  Beam search (``beam.py``) drives the same kernel layer by
layer.

``generic_search`` drives it for every non-beam solver; the open-list
policy is the only difference between them.  A popped node is closed,
so the dual bound is the best f-value among the nodes still open.  On
natural exhaustion the returned status is proved: OPTIMAL when a
solution was found, INFEASIBLE otherwise (meaning "no solution better
than the initial primal bound" when one was supplied).  A time limit
yields the best solution found so far plus the best dual bound seen.

Each invocation is single-threaded and self-contained; the model is
only read, so concurrent invocations may share it.  Progress callbacks
run on the invoking thread.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import EvaluationError
from ..model import Model, combine
from .nodes import BoundTracker, SearchNode, StateRegistry, make_node
from .open_lists import (
    BestFirstList,
    CyclicLayerList,
    DepthStackList,
    DiscrepancyList,
    LayerBudgetList,
    PackList,
)
from .solution import DualCallback, PrimalCallback, Solution, SolverParams, Status


class Run:
    """One solver invocation: its bookkeeping and the expansion kernel.

    ``generated`` doubles as the node counter behind the most-recently-
    generated tie-break, so it keeps counting across beam passes.
    """

    def __init__(
        self,
        model: Model,
        params: SolverParams,
        on_primal: Optional[PrimalCallback],
        on_dual: Optional[DualCallback],
    ):
        self.model = model
        self.params = params
        self.on_primal = on_primal
        self.on_dual = on_dual
        self.start = time.monotonic()
        self.costs = model.costs
        self.has_bound = bool(model.dual_bounds)
        self.primal = params.initial_bound
        self.incumbent: Optional[list[str]] = None
        self.best_dual = None
        self.primal_events: list[tuple[float, float]] = []
        self.dual_events: list[tuple[float, float]] = []
        self.first_solution_cost = None
        self.expanded = 0
        self.generated = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def out_of_time(self) -> bool:
        limit = self.params.time_limit
        return limit is not None and self.elapsed() >= limit

    @property
    def cutoff(self):
        """Current primal bound as a pruning threshold."""
        return self.costs.worst if self.primal is None else self.primal

    def record_solution(self, cost, transitions: list[str]) -> None:
        self.primal = cost
        self.incumbent = transitions
        if self.first_solution_cost is None:
            self.first_solution_cost = cost
        stamp = self.elapsed()
        self.primal_events.append((stamp, cost))
        if self.on_primal is not None:
            self.on_primal(stamp, cost, transitions)

    def record_dual(self, bound) -> None:
        """Keep the reported dual bound monotone: only improvements count."""
        if bound is None:
            return
        if self.best_dual is None or self.costs.better(self.best_dual, bound):
            self.best_dual = bound
            stamp = self.elapsed()
            self.dual_events.append((stamp, bound))
            if self.on_dual is not None:
                self.on_dual(stamp, bound)

    def finish(self, natural: bool) -> Solution:
        if natural:
            if self.incumbent is not None:
                self.record_dual(self.primal)  # a proved optimum closes the gap
                status = Status.OPTIMAL
            else:
                status = Status.INFEASIBLE
        else:
            status = Status.FEASIBLE if self.incumbent is not None else Status.NOT_FOUND
        return Solution(
            status=status,
            transitions=self.incumbent,
            cost=self.primal if self.incumbent is not None else None,
            bound=self.best_dual if status != Status.INFEASIBLE else None,
            expanded=self.expanded,
            generated=self.generated,
            elapsed=self.elapsed(),
            primal_events=self.primal_events,
            dual_events=self.dual_events,
            first_solution_cost=self.first_solution_cost,
        )

    # -- the expansion kernel

    def root(self) -> Optional[SearchNode]:
        """The target node, counted as generated; None when the target
        violates a state constraint."""
        model, costs = self.model, self.costs
        if not model.check_constraints(model.target):
            return None
        h = model.eval_dual_bound(model.target)
        if h is None:
            h = f = costs.identity
        else:
            f = combine(costs, costs.identity, h)
        node = make_node(costs, model.target, costs.identity, h, f, 0, self.generated)
        self.generated += 1
        return node

    def expand(self, node: SearchNode, registry: StateRegistry) -> Optional[list[SearchNode]]:
        """Expand ``node``.  A base state records an improving solution
        and returns None; any other state returns its successors that
        pass the state constraints, dominance and the primal bound, each
        already inserted into ``registry``."""
        self.expanded += 1
        model, costs = self.model, self.costs
        state = node.state
        base = model.base_cost(state)
        if base is not None:
            try:
                cost = combine(costs, node.g, base)
            except OverflowError as err:
                raise EvaluationError(f"path cost at a base case: {err}") from err
            if costs.better(cost, self.cutoff):
                self.record_solution(cost, node.path())
            return None

        # Locals for the successor loop, its hottest code.  The cutoff
        # stays fixed: only a base state changes it.
        successor_of, check = model.successor, model.check_constraints
        weight, dual_bound = model.weight, model.eval_dual_bound
        blocked, insert = registry.blocked, registry.insert
        better, add, new_node = costs.better, combine, make_node
        has_bound, cutoff, identity = self.has_bound, self.cutoff, costs.identity
        g0, depth, generated = node.g, node.depth + 1, self.generated
        children = []
        try:
            for transition in model.applicable_transitions(state):
                successor = successor_of(transition, state)
                if not check(successor):
                    continue
                g = add(costs, g0, weight(transition, state))
                if blocked(successor, g):
                    continue
                if has_bound:
                    h = dual_bound(successor)
                    f = add(costs, g, h)
                    if not better(f, cutoff):
                        continue
                else:
                    h = identity
                    f = g
                child = new_node(
                    costs, successor, g, h, f, depth, generated, node, transition.name
                )
                generated += 1
                insert(child)
                children.append(child)
        except OverflowError as err:  # from combine: model queries report their own
            raise EvaluationError(f"path cost through {transition.name!r}: {err}") from err
        self.generated = generated
        return children


def generic_search(
    model: Model,
    policy_factory: Callable,
    params: Optional[SolverParams] = None,
    on_primal: Optional[PrimalCallback] = None,
    on_dual: Optional[DualCallback] = None,
) -> Solution:
    """Run the engine with the open list built by ``policy_factory``,
    which receives the liveness predicate shared with the engine."""
    params = params or SolverParams()
    run = Run(model, params, on_primal, on_dual)
    costs = model.costs

    root = run.root()
    if root is None:
        return run.finish(natural=True)

    def is_live(node: SearchNode) -> bool:
        if node.dead:
            return False
        if run.has_bound and not costs.better(node.f, run.cutoff):
            node.dead = True
            return False
        return True

    policy = policy_factory(is_live)
    registry = StateRegistry(model.metadata, costs)
    tracker = BoundTracker(costs) if run.has_bound else None

    registry.insert(root)
    policy.push(root)
    policy.end_expansion()
    if tracker is not None:
        tracker.push(root)

    while True:
        if tracker is not None:
            run.record_dual(tracker.probe(run.cutoff))
        if run.out_of_time():
            return run.finish(natural=False)
        node = policy.pop()
        if node is None:
            return run.finish(natural=True)
        node.dead = True  # closed: its f no longer bounds what is open
        primal = run.primal
        children = run.expand(node, registry)
        if children is None:
            if run.primal != primal:
                policy.notify_new_best()
            continue
        for child in children:
            policy.push(child)
            if tracker is not None:
                tracker.push(child)
        policy.end_expansion()


# ---------------------------------------------------------------------------
# The policy-specific entry points


def caasdy(model, params=None, on_primal=None, on_dual=None) -> Solution:
    """Best-first search on f-values; on cost-algebraic minimization with
    zero base costs the first solution popped is already optimal."""
    return generic_search(model, BestFirstList, params, on_primal, on_dual)


def dfbnb(model, params=None, on_primal=None, on_dual=None) -> Solution:
    """Depth-first branch and bound."""
    return generic_search(model, DepthStackList, params, on_primal, on_dual)


def cbfs(model, params=None, on_primal=None, on_dual=None) -> Solution:
    """Cyclic best-first search over depth layers."""
    return generic_search(model, CyclicLayerList, params, on_primal, on_dual)


def acps(model, params=None, on_primal=None, on_dual=None) -> Solution:
    """Layer-cycling search with a progressively growing per-layer budget."""
    params = params or SolverParams()
    factory = lambda is_live: LayerBudgetList(
        is_live, budget=params.acps_initial_budget, step=params.acps_budget_step
    )
    return generic_search(model, factory, params, on_primal, on_dual)


def apps(model, params=None, on_primal=None, on_dual=None) -> Solution:
    """Pack search with a progressively growing pack size."""
    params = params or SolverParams()
    factory = lambda is_live: PackList(
        is_live,
        budget=params.apps_initial_budget,
        step=params.apps_budget_step,
        max_budget=params.apps_max_budget,
    )
    return generic_search(model, factory, params, on_primal, on_dual)


def dbdfs(model, params=None, on_primal=None, on_dual=None) -> Solution:
    """Discrepancy-bounded depth-first search."""
    params = params or SolverParams()
    factory = lambda is_live: DiscrepancyList(is_live, k=params.dbdfs_k)
    return generic_search(model, factory, params, on_primal, on_dual)


def solve(
    model, solver: str, params=None, on_primal=None, on_dual=None
) -> Solution:
    """Dispatch by solver name (the names accepted in solver configs)."""
    from . import SOLVERS

    try:
        chosen = SOLVERS[solver]
    except KeyError:
        raise ValueError(f"unknown solver {solver!r}") from None
    return chosen(model, params, on_primal=on_primal, on_dual=on_dual)
