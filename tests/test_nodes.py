"""Search nodes, the registry's buckets and the shape of heap entries."""

import pytest

from dpsearch.model import CostStructure, StateMetadata, Variable
from dpsearch.search.nodes import BoundTracker, SearchNode, StateRegistry, make_node
from dpsearch.search.open_lists import BestFirstList

MIN = CostStructure("+", "min", "integer")


def test_nodes_compare_and_hash_by_identity():
    a = make_node(MIN, (1,), 0, 0, 0, 0, 5)
    b = make_node(MIN, (1,), 0, 0, 0, 0, 5)
    assert a != b and a == a
    assert len({a, b, a}) == 2


class TestRegistryBucket:
    """One bucket (x = 0) of three nodes where none dominates another:
    the less ``r`` the better, so each trades ``r`` against ``g``."""

    META = StateMetadata(
        {}, [Variable("x", "integer"), Variable("r", "integer", preference="less")]
    )

    @pytest.fixture
    def registry(self):
        registry = StateRegistry(self.META, MIN)
        for counter, (r, g) in enumerate(((1, 5), (5, 3), (9, 1))):
            assert registry.insert(make_node(MIN, (0, r), g, 0, g, 1, counter)) == []
        return registry

    @staticmethod
    def bucket(registry):
        return registry._buckets[registry._key((0, 0))]

    def test_an_eviction_keeps_the_rest_in_order(self, registry):
        a, b, c = self.bucket(registry)
        probes = [((0, 2), 5), ((0, 9), 1), ((0, 7), 3), ((1, 9), 9)]
        before = [registry.blocked(state, g) for state, g in probes]
        assert before == [True, True, True, False]  # by a, by c, by b

        d = make_node(MIN, (0, 4), 3, 0, 3, 1, 3)
        evicted = registry.insert(d)

        assert evicted == [b]
        assert self.bucket(registry) == [a, c, d]
        assert [n.dead for n in (a, b, c, d)] == [False, True, False, False]
        # d took b's place in blocking (0, 7) at g = 3; a and c still block theirs
        assert [registry.blocked(state, g) for state, g in probes] == before

    def test_insert_returns_exactly_the_evicted_nodes(self, registry):
        a, b, c = self.bucket(registry)
        closed = make_node(MIN, (0, 12), 0, 0, 0, 1, 3)
        registry.insert(closed)
        closed.dead = True  # expanded: stays in the bucket, dead
        e = make_node(MIN, (0, 1), 1, 0, 1, 1, 4)

        evicted = registry.insert(e)

        assert evicted == [a, b, c]
        assert all(node.dead for node in evicted)
        assert self.bucket(registry) == [closed, e]  # dead, but its g keeps it
        assert not e.dead


@pytest.mark.parametrize("direction", ["min", "max"])
def test_equal_f_and_h_pop_most_recent_first_without_comparing_nodes(
    monkeypatch, direction
):
    def compared(self, other):
        raise AssertionError("a heap comparison reached a SearchNode")

    for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(SearchNode, name, compared, raising=False)
    costs = CostStructure("+", direction, "integer")
    nodes = [make_node(costs, (i,), 2, 1, 3, 1, i) for i in range(8)]
    policy, tracker = BestFirstList(lambda n: not n.dead), BoundTracker(lambda n: not n.dead)
    for order in (nodes[::2], nodes[1::2]):
        policy.push(order)
        tracker.push(order)

    assert tracker.probe() == policy.probe() == 3
    popped = [policy.pop() for _ in nodes]
    assert all(x is y for x, y in zip(popped, reversed(nodes)))
    assert policy.pop() is None
