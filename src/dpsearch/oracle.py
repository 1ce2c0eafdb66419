"""Memoized value-function oracle for finite acyclic models.

Evaluates the recursion exactly as defined: a state violating the state
constraints is worth the worst sentinel, a base state is worth its best
base cost, any other state is worth the best ``combine(weight, child)``
over applicable transitions with solvable successors, and a dead end is
worth the worst sentinel again.

By default the full applicable set is used, ignoring forced flags, so
the oracle stays valid even if a user mislabels a transition as forced;
``use_forced=True`` switches to the restricted set, which lets tests
verify that forced-transition declarations are sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import DepthLimitError
from .model import Model, State, combine

Number = Union[int, float]

DEFAULT_DEPTH_LIMIT = 10**6


@dataclass
class OracleResult:
    value: Number  # optimal cost, or the worst sentinel if infeasible
    values: dict[State, Number]  # memo: value of every state examined

    @property
    def cost(self) -> Optional[Number]:
        """Optimal solution cost, or None when no solution exists."""
        if isinstance(self.value, float) and math.isinf(self.value):
            return None
        return self.value

    @property
    def memo_size(self) -> int:
        return len(self.values)


def bellman_oracle(
    model: Model, depth_limit: Optional[int] = None, use_forced: bool = False
) -> OracleResult:
    """Evaluate the value function at the target state.

    ``depth_limit`` bounds the recursion depth (default 10^6); exceeding
    it, or revisiting a state already on the recursion stack, raises
    :class:`DepthLimitError` and signals an undeclared cycle.
    """
    if depth_limit is None:
        depth_limit = DEFAULT_DEPTH_LIMIT
    worst = model.costs.worst
    memo: dict[State, Number] = {}
    on_stack: set[State] = set()

    picker = (
        model.applicable_transitions if use_forced else model.all_applicable_transitions
    )

    def settle(state: State):
        """``(value, None)`` for a state worth a value of its own, else
        ``(None, edges)`` with one ``(weight, successor)`` per transition.

        It asks the model's separate queries, not the fused ``Model.edges``
        loop or constraint check the solvers use: the acceptance gate
        checks the solvers against this oracle, so the oracle must not
        share the fast path it checks."""
        if not model._constraints_by_query(state):
            return worst, None  # constraint violation: worth the worst sentinel
        base = model.base_cost(state)
        if base is not None:
            return base, None
        edges = [(model.weight(t, state), model.successor(t, state)) for t in picker(state)]
        return None, edges

    # Explicit post-order stack; frames are [state, edges, next-edge index].
    root = model.target
    stack = [[root, None, 0]]
    on_stack.add(root)
    while stack:
        frame = stack[-1]
        state, edges, cursor = frame
        if edges is None:
            value, edges = settle(state)
            if edges is None:
                memo[state] = value
                on_stack.discard(state)
                stack.pop()
                continue
            frame[1] = edges
        while cursor < len(edges) and edges[cursor][1] in memo:
            cursor += 1
        frame[2] = cursor
        if cursor < len(edges):
            child = edges[cursor][1]
            if child in on_stack:
                raise DepthLimitError(
                    f"cycle through state {child!r}; the model is not acyclic"
                )
            if len(stack) >= depth_limit:
                raise DepthLimitError(f"depth limit {depth_limit} exceeded")
            stack.append([child, None, 0])
            on_stack.add(child)
            continue
        candidates = [
            combine(model.costs, w, memo[s])
            for w, s in edges
            if not (isinstance(memo[s], float) and math.isinf(memo[s]))
        ]
        memo[state] = model.costs.reduce(candidates) if candidates else worst
        on_stack.discard(state)
        stack.pop()

    return OracleResult(memo[root], memo)
