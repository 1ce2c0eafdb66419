"""Open-list policies: how the next frontier node is chosen.

A policy has three methods:

- ``push(nodes)`` takes the successors of one expansion at once (the
  root as ``(root,)``), so a policy can rank siblings against each other;
- ``pop()`` returns the next node under the policy's selection rule, or
  None when no live node is left;
- ``notify_new_best()`` is called after an expansion that improved the
  primal bound; it does nothing unless the policy restarts on one.

Four classes cover the six strategies: depth-first branch and bound is
discrepancy-bounded search without a discrepancy limit, and cyclic
best-first search is layer cycling with a per-layer budget of one that
never grows.

Stale entries are handled lazily: nodes evicted by dominance or cut off
by the primal bound stay in the internal containers until they surface,
at which point the liveness predicate the engine passes in discards them.
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter
from typing import Callable, Optional

from .nodes import BoundTracker, SearchNode

IsLive = Callable[[SearchNode], bool]

_order = attrgetter("order")


class _OpenList:
    def notify_new_best(self) -> None:
        """Called after an expansion that improved the primal bound."""


class BestFirstList(BoundTracker, _OpenList):
    """Plain best-first selection: the node with the best f-value, from
    the bound tracker's lazy heap over the deterministic node order.  Its
    heap holds every open node, so ``probe()`` reads the best live f
    without popping, and the engine probes it for the dual bound instead
    of keeping a second heap."""

    def pop(self) -> Optional[SearchNode]:
        heap, is_live = self._heap, self._is_live
        while heap:
            node = heapq.heappop(heap)[-1]
            if is_live(node):
                return node
        return None


class LayerBudgetList(_OpenList):
    """Cycle through depth layers, taking up to a budget of best nodes of
    each in turn, one at first.  When the cursor wraps around or a new
    best solution is found, the cycle restarts at depth 0 and the budget
    grows by ``step``: by 1 in acps, by 0 in cbfs."""

    def __init__(self, is_live: IsLive, step: int = 1):
        self._is_live = is_live
        self._layers: list[BestFirstList] = []
        self._cursor = 0
        self._taken = 0
        self._budget = 1
        self._step = step

    def push(self, nodes):
        layers = self._layers
        for node in nodes:
            while len(layers) <= node.depth:
                layers.append(BestFirstList(self._is_live))
            layers[node.depth].push((node,))

    def pop(self):
        wrapped = False
        while True:
            if self._cursor >= len(self._layers):
                if wrapped:
                    return None
                wrapped = True
                self.notify_new_best()
                continue
            node = self._layers[self._cursor].pop()
            if node is None:
                self._cursor += 1
                self._taken = 0
                continue
            self._taken += 1
            if self._taken >= self._budget:
                self._cursor += 1
                self._taken = 0
            return node

    def notify_new_best(self):
        self._cursor = 0
        self._taken = 0
        self._budget += self._step


class CyclicLayerList(LayerBudgetList):
    """Cyclic best-first search: the best node of each depth layer in turn."""

    def __init__(self, is_live: IsLive):
        super().__init__(is_live, step=0)


class PackList(_OpenList):
    """Expand a pack of best states, one at first; their best successors
    form the next pack and the rest are suspended.  When both run dry,
    the best states are recalled from the suspend list and the pack size
    grows by one."""

    def __init__(self, is_live: IsLive):
        self._is_live = is_live
        self._pack: list[SearchNode] = []  # reversed order: best last
        self._staging: list[SearchNode] = []  # successors of the current pack
        self._suspend = BestFirstList(is_live)
        self._budget = 1

    def push(self, nodes):
        self._staging += nodes

    def pop(self):
        while True:
            while self._pack:
                node = self._pack.pop()
                if self._is_live(node):
                    return node
            if self._staging:
                nodes = sorted(filter(self._is_live, self._staging), key=_order)
                self._staging.clear()
                self._suspend.push(nodes[self._budget :])
                self._pack = nodes[: self._budget][::-1]
                continue
            recalled = []
            while len(recalled) < self._budget:
                node = self._suspend.pop()
                if node is None:
                    break
                recalled.append(node)
            if not recalled:
                return None
            recalled.reverse()
            self._pack = recalled
            self._budget += 1


class DiscrepancyList(_OpenList):
    """Depth-first search bounded by path discrepancy; siblings are
    expanded in f-order.

    The best successor of each expansion inherits its parent's
    discrepancy; the others get one more.  Nodes within the current
    discrepancy window live on the active stack; the rest wait on the
    deferred list, which becomes the active stack when the window moves.
    """

    def __init__(self, is_live: IsLive, k: float = 1):
        self._is_live = is_live
        self._k = k
        self._window = 1  # nodes with discrepancy <= window * k - 1 are active
        self._active: list[SearchNode] = []
        self._deferred: list[SearchNode] = []

    def push(self, nodes):
        ranked = sorted(nodes, key=_order, reverse=True)  # best on top of the stack
        limit = self._window * self._k - 1
        for node in ranked:
            parent_d = node.parent.discrepancy if node.parent is not None else 0
            node.discrepancy = parent_d if node is ranked[-1] else parent_d + 1
            if node.discrepancy <= limit:
                self._active.append(node)
            else:
                self._deferred.append(node)

    def pop(self):
        while True:
            while self._active:
                node = self._active.pop()
                if self._is_live(node):
                    return node
            live = [n for n in self._deferred if self._is_live(n)]
            self._deferred.clear()
            if not live:
                return None
            self._active = live
            self._window += 1


class DepthStackList(DiscrepancyList):
    """Depth-first branch and bound: the deepest node first, siblings in
    f-order; discrepancy-bounded search without a limit."""

    def __init__(self, is_live: IsLive):
        super().__init__(is_live, k=math.inf)
