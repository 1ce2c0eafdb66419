"""The expansion kernel every solver shares, and generic anytime
best-first branch-and-bound over it.

A ``Run`` holds one solver invocation's bookkeeping (primal and dual
incumbents, event logs, counters, the wall clock) and the kernel:
``root`` builds the target node, and ``expand`` turns a node into its
successors.  A base state is a candidate solution, recorded when it
improves the primal bound.  Any other state's edges come from
``Model.edges``, one generated function over the guards, effects, state
constraints and weights that falls back on the per-query path when
anything in it raises, so a fault is named as the separate queries name
it.  The edges are all built before any dual bound is evaluated, so a
fault in a later transition surfaces before one in an earlier
successor's bound.  Path costs are summed or maximized and compared
inline, with the operator and direction picked once per run; a cost
that is infinite or past 64 bits goes to ``CostStructure.add``, which
saturates or raises.  Each successor is checked against the dominance
registry, cut off when its f-value cannot beat the primal bound, and
inserted into the registry.  The kernel calls the model's generated
functions through three attributes of the ``Run``, ``feasible``,
``edges`` and ``bound``; beam search (``beam.py``) drives the kernel
layer by layer, and ``cabs`` swaps the three for memos that last its
whole run.

``generic_search`` drives it for every non-beam solver; the open-list
policy is the only difference between them.  A popped node is closed,
so the dual bound is the best f-value among the nodes still open: a
best-first open list holds them in f-order and is probed for it, and
any other policy is shadowed by a separate ``BoundTracker``.  On
natural exhaustion the returned status is proved: OPTIMAL when a
solution was found, INFEASIBLE otherwise (meaning "no solution better
than the initial primal bound" when one was supplied).  A time limit
yields the best solution found so far plus the best dual bound seen.

The returned ``Solution`` is the run's anytime record: its
``primal_events`` and ``dual_events`` log each new incumbent cost and
each tightened dual bound with the elapsed time.

Each invocation is single-threaded and self-contained; the model is
only read, so concurrent invocations may share it.  The search builds
no reference cycles, so its objects are freed by reference counting,
and each run pauses the cyclic garbage collector (``collector_paused``)
rather than let it rescan a frontier that only grows.  The switch is
process-wide: a run on another thread shares it, and the collector stays
off until the run that switched it off returns.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Callable, Optional

from ..errors import EvaluationError
from ..expressions import INT64_MAX
from ..model import Model
from .nodes import BoundTracker, SearchNode, StateRegistry, make_node
from .open_lists import (
    BestFirstList,
    CyclicLayerList,
    DepthStackList,
    DiscrepancyList,
    LayerBudgetList,
    PackList,
)
from .solution import Solution, SolverParams, Status


def collector_paused(search: Callable) -> Callable:
    """``search`` run with the cyclic garbage collector switched off.

    Only a call that finds the collector on switches it off, and it turns
    it back on when it returns or raises; a nested call, or a caller who
    disabled it, is left alone.  On the way out one young-generation
    collection moves the objects the run left alive (mostly the model's
    lazily compiled queries) to an older generation and resets the
    allocation count, so the caller's next steps do not pay for the
    collections the run put off.
    """

    @functools.wraps(search)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return search(*args, **kwargs)
        gc.disable()
        try:
            return search(*args, **kwargs)
        finally:
            gc.enable()
            gc.collect(0)

    return paused


class Run:
    """One solver invocation: its bookkeeping and the expansion kernel.

    ``generated`` doubles as the node counter behind the most-recently-
    generated tie-break, so it keeps counting across beam passes.  The
    kernel reads the model only through ``feasible`` (the state
    constraints), ``edges`` and ``bound`` (the dual bound): the model's
    generated functions themselves, called with no wrapper, unless a
    caller swaps them, as ``cabs`` does for its memos.  A swapped-in
    callable must not hold the run, or the two form a reference cycle.
    ``out_of_time`` compares the clock with a deadline fixed at the start.
    """

    def __init__(self, model: Model, params: SolverParams):
        self.model = model
        self.start = time.monotonic()
        limit = params.time_limit
        self.deadline = None if limit is None else self.start + limit
        self.costs = model.costs
        # the operator and direction of the costs the kernel adds and compares
        self.plus, self.minimize = model.costs.operator == "+", model.costs.minimize
        self.has_bound = bool(model.dual_bounds)
        self.primal = params.initial_bound
        # the primal bound as a pruning threshold, read for every node;
        # ``record_solution`` sets it along with ``primal``
        self.cutoff = self.costs.worst if self.primal is None else self.primal
        self.incumbent: Optional[list[str]] = None
        self.best_dual = None
        self.primal_events: list[tuple[float, float]] = []
        self.dual_events: list[tuple[float, float]] = []
        self.expanded = 0
        self.generated = 0
        self.feasible = model.check_constraints
        self.edges = model.edges
        self.bound = model.eval_dual_bound

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def out_of_time(self) -> bool:
        deadline = self.deadline  # None without a limit: no clock read
        return deadline is not None and time.monotonic() >= deadline

    def is_live(self, node: SearchNode) -> bool:
        """Whether ``node`` is still worth expanding: neither closed nor
        evicted, and with an f-value that beats the primal bound when the
        model has a dual bound.  A node that fails is marked dead."""
        if node.dead:
            return False
        f, cutoff = node.f, self.cutoff
        if self.has_bound and not (f < cutoff if self.minimize else cutoff < f):
            node.dead = True
            return False
        return True

    def record_solution(self, cost, transitions: list[str]) -> None:
        self.primal = self.cutoff = cost
        self.incumbent = transitions
        self.primal_events.append((self.elapsed(), cost))

    def record_dual(self, bound) -> None:
        """Keep the reported dual bound monotone: only improvements count."""
        if bound is None:
            return
        if self.best_dual is None or self.costs.better(self.best_dual, bound):
            self.best_dual = bound
            self.dual_events.append((self.elapsed(), bound))

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
        )

    # -- the expansion kernel

    def root(self) -> Optional[SearchNode]:
        """The target node, counted as generated; None when the target
        violates a state constraint."""
        costs, target = self.costs, self.model.target
        if not self.feasible(target):
            return None
        h = self.bound(target)
        if h is None:
            h = f = costs.identity
        else:
            f = costs.add(costs.identity, h)
        node = make_node(costs, target, costs.identity, h, f, 0, self.generated)
        self.generated += 1
        return node

    def expand(self, node: SearchNode, registry: StateRegistry) -> Optional[list[SearchNode]]:
        """Expand ``node``.  A base state records an improving solution
        and returns None; any other state returns its successors that
        pass the state constraints, dominance and the primal bound, each
        already inserted into ``registry``."""
        self.expanded += 1
        costs = self.costs
        edges = self.edges(node.state)
        if edges.__class__ is not list:  # a base state: ``edges`` is its cost
            try:
                cost = costs.add(node.g, edges)
            except OverflowError as err:
                raise EvaluationError(f"path cost at a base case: {err}") from err
            if costs.better(cost, self.cutoff):
                self.record_solution(cost, node.path())
            return None

        # Locals for the successor loop, its hottest code.  The cutoff
        # stays fixed: only a base state changes it.  A cost within 64 bits
        # is what ``add`` returns; any other, infinite or past the range, is
        # left to ``add``, which saturates or raises.
        blocked, insert = registry.blocked, registry.insert
        add, new_node, dual_bound = costs.add, make_node, self.bound
        plus, minimize, top, low = self.plus, self.minimize, INT64_MAX, -INT64_MAX
        has_bound, cutoff, identity = self.has_bound, self.cutoff, costs.identity
        g0, depth, generated = node.g, node.depth + 1, self.generated
        children = []
        try:
            for transition, successor, w in edges:
                g = g0 + w if plus else w if w > g0 else g0
                if not low <= g <= top:
                    g = add(g0, w)
                if blocked(successor, g):
                    continue
                if has_bound:
                    h = dual_bound(successor)
                    f = g + h if plus else h if h > g else g
                    if not low <= f <= top:
                        f = add(g, h)
                    if not (f < cutoff if minimize else cutoff < f):
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
        except OverflowError as err:  # from ``add``: model queries report their own
            raise EvaluationError(f"path cost through {transition.name!r}: {err}") from err
        self.generated = generated
        return children


@collector_paused
def generic_search(
    model: Model, policy_factory: Callable, params: Optional[SolverParams] = None
) -> Solution:
    """Run the engine with the open list built by ``policy_factory``,
    which receives the liveness predicate ``Run.is_live``."""
    run = Run(model, params or SolverParams())
    # the search's nodes are freed as ``_search`` returns, within ``elapsed``
    return run.finish(natural=_search(run, policy_factory))


def _search(run: Run, policy_factory: Callable) -> bool:
    """Search until the open list runs dry (True) or time runs out (False)."""
    root = run.root()
    if root is None:
        return True

    policy = policy_factory(run.is_live)
    registry = StateRegistry(run.model.metadata, run.costs)
    # ``tracker`` is the heap probed for the dual bound.  A best-first list
    # already holds every open node in f-order, so it is its own tracker;
    # any other policy is shadowed by a ``separate`` one.
    tracker = separate = None
    if run.has_bound:
        if isinstance(policy, BestFirstList):
            tracker = policy
        else:
            tracker = separate = BoundTracker(run.is_live)
    # probed through the class, so a traced ``BoundTracker`` times the shared heap too
    probe = BoundTracker.probe
    recorded = None  # the bound last recorded: recording it again changes nothing

    registry.insert(root)
    policy.push((root,))
    if separate is not None:
        separate.push((root,))

    while True:
        if tracker is not None:
            bound = probe(tracker)
            if bound is None and run.incumbent is not None:
                bound = run.primal  # no open node beats the incumbent: proved
            if bound is not recorded:
                run.record_dual(bound)
                recorded = bound
        if run.out_of_time():
            return False
        node = policy.pop()
        if node is None:
            return True
        node.dead = True  # closed: its f no longer bounds what is open
        primal = run.primal
        children = run.expand(node, registry)
        if children is None:
            if run.primal != primal:
                policy.notify_new_best()
            continue
        policy.push(children)
        if separate is not None:
            separate.push(children)


# ---------------------------------------------------------------------------
# The policy-specific entry points


def caasdy(model, params=None) -> Solution:
    """Best-first search on f-values; on cost-algebraic minimization with
    zero base costs the first solution popped is already optimal."""
    return generic_search(model, BestFirstList, params)


def dfbnb(model, params=None) -> Solution:
    """Depth-first branch and bound."""
    return generic_search(model, DepthStackList, params)


def cbfs(model, params=None) -> Solution:
    """Cyclic best-first search over depth layers."""
    return generic_search(model, CyclicLayerList, params)


def acps(model, params=None) -> Solution:
    """Layer-cycling search with per-layer budgets 1, 2, 3, ..."""
    return generic_search(model, LayerBudgetList, params)


def apps(model, params=None) -> Solution:
    """Pack search with pack sizes 1, 2, 3, ..."""
    return generic_search(model, PackList, params)


def dbdfs(model, params=None) -> Solution:
    """Discrepancy-bounded depth-first search with a discrepancy window of 1."""
    return generic_search(model, DiscrepancyList, params)


def solve(model, solver: str, params=None) -> Solution:
    """Dispatch by solver name (the names accepted in solver configs)."""
    from . import SOLVERS

    try:
        chosen = SOLVERS[solver]
    except KeyError:
        raise ValueError(f"unknown solver {solver!r}") from None
    return chosen(model, params)
