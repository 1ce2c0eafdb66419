"""Selection order of each open-list policy on synthetic nodes."""

import pytest

from dpsearch.model import CostStructure
from dpsearch.search.nodes import SearchNode, make_node
from dpsearch.search.open_lists import (
    BestFirstList,
    CyclicLayerList,
    DepthStackList,
    DiscrepancyList,
    LayerBudgetList,
    PackList,
)

COSTS = CostStructure("+", "min", "integer")


def live(node: SearchNode) -> bool:
    return not node.dead


class NodeFactory:
    def __init__(self):
        self.counter = 0

    def __call__(self, f, h=0, depth=0, parent=None):
        self.counter += 1
        return make_node(
            COSTS, state=(self.counter,), g=f - h, h=h, f=f,
            depth=depth, counter=self.counter, parent=parent,
        )


def drain(policy):
    names = []
    while (node := policy.pop()) is not None:
        names.append(node.f)
    return names


def test_best_first_orders_by_f_then_h_then_recency():
    nodes = NodeFactory()
    policy = BestFirstList(live)
    a = nodes(5, h=2)
    b = nodes(3, h=1)
    c = nodes(3, h=0)
    d = nodes(3, h=0)  # same key as c but generated later: popped first
    policy.push((a, b, c, d))
    assert [policy.pop() for _ in range(4)] == [d, c, b, a]


def test_best_first_skips_dead_nodes():
    nodes = NodeFactory()
    policy = BestFirstList(live)
    a, b = nodes(1), nodes(2)
    policy.push((a, b))
    a.dead = True
    assert policy.pop() is b
    assert policy.pop() is None


def test_depth_stack_expands_best_sibling_first_and_deepest_first():
    nodes = NodeFactory()
    policy = DepthStackList(live)
    root = nodes(0)
    policy.push((root,))
    assert policy.pop() is root
    s1, s2 = nodes(4, depth=1), nodes(2, depth=1)
    policy.push((s1, s2))
    assert policy.pop() is s2  # better sibling first
    child = nodes(9, depth=2)
    policy.push((child,))
    assert policy.pop() is child  # deeper before the worse sibling
    assert policy.pop() is s1


def test_cyclic_layers_take_the_best_of_each_depth_in_turn():
    nodes = NodeFactory()
    policy = CyclicLayerList(live)
    d0a, d0b = nodes(5, depth=0), nodes(1, depth=0)
    d1 = nodes(7, depth=1)
    d2 = nodes(2, depth=2)
    policy.push((d0a, d0b, d1, d2))
    # cycle: depth 0 (best first), 1, 2, then wrap to depth 0 again
    assert [policy.pop() for _ in range(4)] == [d0b, d1, d2, d0a]


def test_cyclic_layers_reset_on_new_best():
    nodes = NodeFactory()
    policy = CyclicLayerList(live)
    d0 = nodes(5, depth=0)
    d1 = nodes(6, depth=1)
    d0_late = nodes(7, depth=0)
    policy.push((d0, d1, d0_late))
    assert policy.pop() is d0
    policy.notify_new_best()
    assert policy.pop() is d0_late  # back to depth 0 instead of depth 1
    assert policy.pop() is d1


def test_layer_budget_grows_on_wraparound():
    nodes = NodeFactory()
    policy = LayerBudgetList(live, step=1)
    d0 = [nodes(2, depth=0), nodes(4, depth=0), nodes(6, depth=0)]
    d1 = [nodes(1, depth=1), nodes(3, depth=1), nodes(5, depth=1)]
    policy.push(d0 + d1)
    order = [policy.pop() for _ in range(6)]
    # budget 1: best of depth 0, best of depth 1; wrap doubles the budget:
    # two from depth 0, two from depth 1
    assert order == [d0[0], d1[0], d0[1], d0[2], d1[1], d1[2]]


def test_layer_budgets_run_one_two_three():
    # the acps schedule: each wraparound grows the budget by one
    nodes = NodeFactory()
    policy = LayerBudgetList(live, step=1)
    d0 = [nodes(f, depth=0) for f in range(10, 16)]
    d1 = [nodes(f, depth=1) for f in range(20, 26)]
    policy.push(d0 + d1)
    assert drain(policy) == [10, 20, 11, 12, 21, 22, 13, 14, 15, 23, 24, 25]


def test_layer_budget_grows_on_new_best():
    nodes = NodeFactory()
    policy = LayerBudgetList(live, step=1)
    d0 = [nodes(f, depth=0) for f in range(10, 14)]
    d1 = [nodes(f, depth=1) for f in range(20, 24)]
    policy.push(d0 + d1)
    assert policy.pop() is d0[0]
    policy.notify_new_best()  # back to depth 0 with a budget of two
    assert [policy.pop() for _ in range(4)] == [d0[1], d0[2], d1[0], d1[1]]


def test_pack_list_recalls_packs_of_one_two_three_and_on():
    # the apps schedule: each recall takes one state more than the last,
    # with no cap
    nodes = NodeFactory()
    policy = PackList(live)
    policy.push((nodes(0),))
    policy.pop()
    kids = [nodes(f, depth=1) for f in range(1, 21)]
    policy.push(kids)
    assert policy.pop() is kids[0]  # the first pack: the best successor
    sizes, recalled = [], []
    for _ in range(5):
        first = policy.pop()  # a recall, since the pack had no successors
        child = nodes(0, depth=2, parent=first)
        policy.push((child,))
        pack = [first]
        while (node := policy.pop()) is not child:  # the pack ends before its successors
            pack.append(node)
        sizes.append(len(pack))
        recalled += pack
    assert sizes == [1, 2, 3, 4, 5]
    assert recalled == kids[1:16]


def test_pack_list_expands_packs_and_recalls_from_suspend():
    nodes = NodeFactory()
    policy = PackList(live)
    root = nodes(0)
    policy.push((root,))
    assert policy.pop() is root
    kids = [nodes(3, depth=1), nodes(1, depth=1), nodes(2, depth=1)]
    policy.push(kids)
    assert policy.pop() is kids[1]  # best successor forms the next pack
    # no new successors: pack and staging empty, recall from the suspend
    # list with the budget grown to 2
    assert policy.pop() is kids[2]
    assert policy.pop() is kids[0]
    assert policy.pop() is None


def test_discrepancy_defers_non_best_siblings():
    nodes = NodeFactory()
    policy = DiscrepancyList(live, k=1)
    root = nodes(0)
    policy.push((root,))
    assert policy.pop() is root
    best, second = nodes(1, depth=1, parent=root), nodes(2, depth=1, parent=root)
    policy.push((second, best))
    assert policy.pop() is best  # discrepancy 0 stays in the window
    grandchild = nodes(5, depth=2, parent=best)
    policy.push((grandchild,))
    assert policy.pop() is grandchild
    assert best.discrepancy == 0 and second.discrepancy == 1
    # window exhausted: the deferred sibling becomes available
    assert policy.pop() is second
    assert policy.pop() is None


def test_discrepancy_window_of_one_admits_one_discrepancy_per_move():
    # the dbdfs schedule: window w admits the nodes of discrepancy below w
    nodes = NodeFactory()
    policy = DiscrepancyList(live)
    root = nodes(0)
    policy.push((root,))
    assert policy.pop() is root
    a, b, c = (nodes(f, depth=1, parent=root) for f in (1, 2, 3))
    policy.push((c, a, b))
    assert policy.pop() is a
    a1, a2 = nodes(4, depth=2, parent=a), nodes(5, depth=2, parent=a)
    policy.push((a2, a1))
    assert policy.pop() is a1
    # discrepancy 0 is done; the window moves to admit discrepancy 1
    assert policy.pop() is a2
    x, y = nodes(6, depth=3, parent=a2), nodes(7, depth=3, parent=a2)
    policy.push((y, x))
    assert [policy.pop() for _ in range(3)] == [x, b, c]
    assert [n.discrepancy for n in (a, b, c, a1, a2, x, y)] == [0, 1, 1, 0, 1, 1, 2]
    assert policy.pop() is y  # discrepancy 2 waits for the next move
    assert policy.pop() is None
