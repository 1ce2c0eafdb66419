"""Search nodes, the dominance registry, and dual-bound tracking."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional, Union

from ..model import LESS, CostStructure, StateMetadata, State

Number = Union[int, float]


@dataclass(slots=True, eq=False)
class SearchNode:
    """One frontier entry: a state plus path bookkeeping.

    Nodes compare and hash by identity: two nodes reaching one state on
    different paths are different entries, and ``StateRegistry.insert``
    finds the nodes it evicted in a bucket by their hash.

    ``g`` is the fold of transition weights along the incoming path and
    ``f = combine(g, h)`` the pruning/guidance value, where h is the
    dual-bound estimate (the cost identity when the model has none).
    ``order`` is a ready-made sort key implementing the deterministic
    tie-break: best f, then best h, then most recently generated.
    """

    state: State
    g: Number
    f: Number
    depth: int
    order: tuple
    parent: Optional["SearchNode"] = None
    transition: Optional[str] = None
    dead: bool = False
    discrepancy: int = 0

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
    # maximization flips the comparison of f and h
    order = (f, h, -counter) if costs.minimize else (-f, -h, -counter)
    return SearchNode(state, g, f, depth, order, parent, transition)


class StateRegistry:
    """Generated states bucketed by their non-resource variable values.

    In a bucket, a state weakly dominates another when each of its
    resource values is weakly preferred.  The registry never keeps two
    nodes where one weakly dominates the other with a weakly better g:
    the dominated one is evicted, and a dominated newcomer is blocked.

    Declaring a preference is a modeling contract: the preferred state
    must lead to an equally good solution using no more transitions.
    The transition-count half cannot be checked structurally (typically
    every solution from both states has the same length, as when each
    transition consumes one element of a shrinking set).
    """

    def __init__(self, metadata: StateMetadata, costs: CostStructure):
        self._better = costs.better
        keys = metadata.non_resource_indices
        self._key = itemgetter(*keys) if keys else lambda state: ()
        self._resources = tuple(
            (i, metadata.variables[i].preference == LESS) for i in metadata.resource_indices
        )
        self._buckets: dict[object, list[SearchNode]] = {}

    def _covers(self, a: State, b: State) -> bool:
        """Whether ``a`` weakly dominates ``b``, which shares its key."""
        for i, less in self._resources:
            if (a[i] > b[i]) if less else (a[i] < b[i]):
                return False
        return True

    # Both walks test the builtin g-comparison first, so the Python
    # ``_covers`` walk runs only where the g-values leave the test open.

    def blocked(self, state: State, g: Number) -> bool:
        """True if some kept node weakly dominates ``state`` with a
        weakly better g; such a newcomer must not be inserted."""
        better, covers = self._better, self._covers
        for node in self._buckets.get(self._key(state), ()):
            if not better(g, node.g) and covers(node.state, state):
                return True
        return False

    def insert(self, node: SearchNode) -> list[SearchNode]:
        """Insert, evicting nodes the newcomer weakly dominates with a
        weakly better g.  Returns the evicted nodes (marked dead)."""
        better, covers = self._better, self._covers
        key, state, g = self._key(node.state), node.state, node.g
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [node]
            return []
        evicted = []
        for old in bucket:
            if not better(old.g, g) and covers(state, old.state):
                old.dead = True
                evicted.append(old)
        if evicted:  # the bucket is rebuilt only when something left it
            gone = set(evicted)
            bucket[:] = [old for old in bucket if old not in gone]
        bucket.append(node)
        return evicted


class BoundTracker:
    """Lazy heap of open nodes in the deterministic node order.

    The best f-value among open nodes is a valid dual bound whenever the
    model declares one, regardless of the expansion policy.  Entries the
    liveness predicate rejects are discarded on probe.
    ``open_lists.BestFirstList`` is this heap plus ``pop``, so a best-first
    open list is its own tracker; the engine pushes a separate one only
    beside the other policies.

    A heap entry is the flat tuple ``node.order + (node,)``, that is
    ``(f, h, -counter, node)``, with f and h negated when maximizing.  No
    two nodes share a counter, so a comparison is decided by the first
    three fields and never reaches the node.
    """

    def __init__(self, is_live: Callable[[SearchNode], bool]):
        self._is_live = is_live
        self._heap: list[tuple] = []

    def push(self, nodes) -> None:
        heap, heappush = self._heap, heapq.heappush
        for node in nodes:
            heappush(heap, node.order + (node,))

    def probe(self) -> Optional[Number]:
        """Best f among live open nodes, or None when none is left."""
        heap, is_live = self._heap, self._is_live
        while heap:
            node = heap[0][-1]
            if is_live(node):
                return node.f
            heapq.heappop(heap)
        return None
