"""One-to-one multi-commodity pickup-and-delivery TSP.

State: unvisited customers U, current location i, current load l (less
preferred).  The tour starts at customer 0 and must stop at customer
n-1.  Each commodity raises the load at its pickup customer and lowers
it at its delivery customer; the per-customer net change and the set of
customers that must precede each customer (the set table ``pred``) are
precomputed.  The lifted ``visit`` ranges over j in U: j is visitable
when an edge from the current location exists, the load stays within
capacity, and all its pickups are done.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import bitset
from .. import expressions as ex
from ..model import (
    BaseCase,
    CostStructure,
    ELEMENT,
    INTEGER,
    LESS,
    Model,
    SET,
    StateMetadata,
    Transition,
    Variable,
)
from . import common as c


@dataclass(frozen=True)
class MpdtspInstance(c.Routing):
    edges: frozenset[tuple[int, int]]  # directed (i, j) pairs
    capacity: int
    commodities: tuple[tuple[int, int, int], ...]  # (pickup, delivery, weight)

    def __post_init__(self):
        super().__post_init__()
        for pickup, delivery, _ in self.commodities:
            if not (0 <= pickup < self.n and 0 <= delivery < self.n):
                raise ValueError(
                    f"commodity {pickup} -> {delivery} is outside customers 0..{self.n - 1}"
                )
        for i, j in sorted(self.edges):
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {i} {j} is outside customers 0..{self.n - 1}")

    @cached_property
    def net_change(self) -> tuple[int, ...]:
        delta = [0] * self.n
        for pickup, delivery, weight in self.commodities:
            delta[pickup] += weight
            delta[delivery] -= weight
        return tuple(delta)

    @cached_property
    def predecessors(self) -> tuple[frozenset[int], ...]:
        pred = [set() for _ in range(self.n)]
        for pickup, delivery, _ in self.commodities:
            pred[delivery].add(pickup)
        return tuple(frozenset(p) for p in pred)

    @cached_property
    def cheapest_in(self) -> tuple[int, ...]:
        """The cheapest edge into each customer among ``edges`` only."""
        return tuple(
            min((self.travel[k][j] for k in range(self.n) if (k, j) in self.edges), default=0)
            for j in range(self.n)
        )

    @cached_property
    def cheapest_out(self) -> tuple[int, ...]:
        """The cheapest edge out of each customer among ``edges`` only."""
        return tuple(
            min((self.travel[j][k] for k in range(self.n) if (j, k) in self.edges), default=0)
            for j in range(self.n)
        )


def parse_mpdtsp(text: str) -> MpdtspInstance:
    """Text form: ``n commodity-count capacity edge-count``, the travel
    matrix rows, one ``pickup delivery weight`` line per commodity, then
    one ``i j`` line per directed edge (``edge-count = -1`` means the
    complete graph)."""
    read = c.FieldReader(text)
    n, m = read.count("customer count"), read.count("commodity count")
    capacity, edge_count = read(), read()
    if edge_count < -1:
        raise ValueError(f"negative edge count {edge_count}")
    travel = tuple(tuple(read() for _ in range(n)) for _ in range(n))
    commodities = tuple((read(), read(), read()) for _ in range(m))
    if edge_count == -1:
        edges = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
    else:
        edges = frozenset((read(), read()) for _ in range(edge_count))
    read.end()
    return MpdtspInstance(travel, edges, capacity, commodities)


def build_mpdtsp(instance: MpdtspInstance) -> Model:
    n = instance.n
    q = instance.capacity
    meta = StateMetadata(
        {"customer": n},
        [
            Variable("U", SET, "customer"),
            Variable("i", ELEMENT, "customer"),
            Variable("l", INTEGER, preference=LESS),
        ],
    )
    # the stop customer reaches itself, so a one-customer tour ends where
    # it starts; with two or more customers the tour never stands on the stop
    edge_matrix = tuple(
        tuple(1 if (i, j) in instance.edges or i == j == n - 1 else 0 for j in range(n))
        for i in range(n)
    )
    tables = ex.TableRegistry(
        [
            c.matrix_table("c", instance.travel),
            c.matrix_table("edge", edge_matrix),
            c.vector_table("delta", instance.net_change),
            c.vector_table("cin", instance.cheapest_in),
            c.vector_table("cout", instance.cheapest_out),
            c.set_table("pred", instance.predecessors),
        ]
    )
    U = meta.set_("U")
    i = meta.element("i")
    load = meta.numeric("l")

    j = ex.ElementParameter("j")
    visit = Transition(
        name="visit",
        preconditions=(
            c.eq(c.ntab("edge", i, j), 1),
            c.le(c.add(load, c.ntab("delta", j)), q),
            c.empty(ex.SetIntersection(ex.SetTable("pred", (j,), n), U)),
        ),
        effects=(
            (meta.index("U"), ex.SetRemove(j, U)),
            (meta.index("i"), j),
            (meta.index("l"), c.add(load, c.ntab("delta", j))),
        ),
        weight=c.ntab("c", i, j),
        parameters=(("j", "U"),),
    )

    stop = c.econst(n - 1)
    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(1, n - 1), n), 0, 0),
        transitions=[visit],
        base_cases=[
            BaseCase(
                (c.empty(U), c.eq(c.ntab("edge", i, stop), 1)),
                c.ntab("c", i, stop),
            )
        ],
        dual_bounds=[
            c.add(c.sum_over("cin", U), c.ntab("cin", stop)),
            c.add(c.sum_over("cout", U), c.ntab("cout", i)),
        ],
        costs=CostStructure(operator="+", direction="min", cost_type="integer"),
    )
