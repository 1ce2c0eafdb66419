"""Search nodes, the dominance registry, and dual-bound tracking."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Union

from ..model import CostStructure, Dominance, StateMetadata, State, dominance_compare

Number = Union[int, float]


@dataclass(slots=True)
class SearchNode:
    """One frontier entry: a state plus path bookkeeping.

    ``g`` is the fold of transition weights along the incoming path,
    ``h`` the dual-bound estimate (the cost identity when the model has
    none), and ``f = combine(g, h)`` the pruning/guidance value.  ``order``
    is a ready-made sort key implementing the deterministic tie-break:
    best f, then best h, then most recently generated.
    """

    state: State
    g: Number
    h: Number
    f: Number
    depth: int
    counter: int
    parent: Optional["SearchNode"] = None
    transition: Optional[str] = None
    dead: bool = False
    discrepancy: int = 0
    order: tuple = field(init=False)

    def __post_init__(self):
        self.order = (self.f, self.h, -self.counter)

    def flip_order(self) -> None:
        """Maximization flips the comparison of f and h."""
        self.order = (-self.f, -self.h, -self.counter)

    def path(self) -> list[str]:
        names: list[str] = []
        node = self
        while node.parent is not None:
            names.append(node.transition)
            node = node.parent
        names.reverse()
        return names


def make_node(
    costs: CostStructure,
    state: State,
    g: Number,
    h: Number,
    f: Number,
    depth: int,
    counter: int,
    parent: Optional[SearchNode] = None,
    transition: Optional[str] = None,
) -> SearchNode:
    node = SearchNode(state, g, h, f, depth, counter, parent, transition)
    if not costs.minimize:
        node.flip_order()
    return node


class StateRegistry:
    """Generated states bucketed by their non-resource variable values.

    Within a bucket, nodes differ on resource variables or path weight.
    The registry never keeps two nodes where one weakly dominates the
    other with a weakly better g; the dominated one is evicted.
    """

    def __init__(self, metadata: StateMetadata, costs: CostStructure):
        self._meta = metadata
        self._costs = costs
        self._key_indices = metadata.non_resource_indices
        self._buckets: dict[tuple, list[SearchNode]] = {}

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def _key(self, state: State) -> tuple:
        return tuple(state[i] for i in self._key_indices)

    def blocked(self, state: State, g: Number) -> bool:
        """True if some kept node weakly dominates ``state`` with a
        weakly better g; such a newcomer must not be inserted."""
        better = self._costs.better
        for node in self._buckets.get(self._key(state), ()):
            cmp = dominance_compare(self._meta, node.state, state)
            if cmp in (Dominance.FIRST, Dominance.EQUAL) and not better(g, node.g):
                return True
        return False

    def insert(self, node: SearchNode) -> list[SearchNode]:
        """Insert, evicting nodes the newcomer weakly dominates with a
        weakly better g.  Returns the evicted nodes (marked dead)."""
        better = self._costs.better
        bucket = self._buckets.setdefault(self._key(node.state), [])
        evicted = []
        kept = []
        for old in bucket:
            cmp = dominance_compare(self._meta, node.state, old.state)
            if cmp in (Dominance.FIRST, Dominance.EQUAL) and not better(old.g, node.g):
                old.dead = True
                evicted.append(old)
            else:
                kept.append(old)
        kept.append(node)
        self._buckets[self._key(node.state)] = kept
        return evicted


class BoundTracker:
    """Lazy min-heap over the f-values of live open nodes.

    The best f-value among open nodes is a valid dual bound whenever the
    model declares one, regardless of the expansion policy, so a single
    tracker serves every solver.  Entries whose node died or no longer
    beats the primal bound are discarded on probe.
    """

    def __init__(self, costs: CostStructure):
        self._sign = 1 if costs.minimize else -1  # heap keys: smaller is better
        self._heap: list[tuple] = []

    def push(self, node: SearchNode) -> None:
        heapq.heappush(self._heap, (self._sign * node.f, node.counter, node))

    def probe(self, primal: Number) -> Optional[Number]:
        """Best f among live entries strictly better than ``primal``."""
        heap, limit = self._heap, self._sign * primal
        while heap:
            key, _, node = heap[0]
            if node.dead or not key < limit:
                node.dead = True
                heapq.heappop(heap)
                continue
            return node.f
        return None
