"""Capacitated vehicle routing in giant-tour form.

State: unvisited customers U, current location i, current vehicle load l
and used-vehicle count k (both less preferred).  A customer is visited
either directly by the current vehicle (when its demand fits) or by a
fresh vehicle routed through the depot.  A state constraint prunes
states whose remaining fleet capacity cannot cover the load plus the
outstanding demand.

The transitions stay ground, one pair per customer.  As two lifted
families they would ground family by family (every ``visit``, then every
``visit-via-depot``), and the fused ``expand`` would loop twice, which
read 0.2-1.4% slower on the CVRP solve.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class CvrpInstance(c.Routing):
    demands: tuple[int, ...]  # demands[0] = 0 for the depot
    capacity: int
    vehicles: int

    def __post_init__(self):
        super().__post_init__()
        if any(d > self.capacity for d in self.demands):
            raise ValueError("a demand exceeds the vehicle capacity")
        if self.vehicles < 1:
            raise ValueError("at least one vehicle required")


def parse_cvrp(text: str) -> CvrpInstance:
    """Text form: customer count, travel matrix rows, a demand line,
    then ``capacity vehicles`` on the final line."""
    read = c.FieldReader(text)
    n = read.count("customer count")
    travel = tuple(tuple(read() for _ in range(n)) for _ in range(n))
    demands = tuple(read() for _ in range(n))
    capacity = read()
    vehicles = read()
    read.end()
    return CvrpInstance(travel, demands, capacity, vehicles)


def build_cvrp(instance: CvrpInstance) -> Model:
    n = instance.n
    q = instance.capacity
    m = instance.vehicles
    meta = StateMetadata(
        {"customer": n},
        [
            Variable("U", SET, "customer"),
            Variable("i", ELEMENT, "customer"),
            Variable("l", INTEGER, preference=LESS),
            Variable("k", INTEGER, preference=LESS),
        ],
    )
    tables = ex.TableRegistry(
        [
            c.matrix_table("c", instance.travel),
            c.vector_table("d", instance.demands),
            c.vector_table("cin", instance.cheapest_in),
            c.vector_table("cout", instance.cheapest_out),
        ]
    )
    U = meta.set_("U")
    i = meta.element("i")
    load = meta.numeric("l")
    used = meta.numeric("k")

    transitions = []
    for j in range(1, n):
        ej = c.econst(j)
        demand = c.ntab("d", ej)
        transitions.append(
            Transition(
                name=f"visit-{j}",
                preconditions=(c.member(j, U), c.le(c.add(load, demand), q)),
                effects=(
                    (meta.index("U"), ex.SetRemove(ej, U)),
                    (meta.index("i"), ej),
                    (meta.index("l"), c.add(load, demand)),
                ),
                weight=c.ntab("c", i, ej),
            )
        )
        transitions.append(
            Transition(
                name=f"visit-via-depot-{j}",
                preconditions=(c.member(j, U), c.lt(used, m)),
                effects=(
                    (meta.index("U"), ex.SetRemove(ej, U)),
                    (meta.index("i"), ej),
                    (meta.index("l"), demand),
                    (meta.index("k"), c.add(used, 1)),
                ),
                weight=c.add(c.ntab("c", i, c.econst(0)), c.ntab("c", c.econst(0), ej)),
            )
        )

    # (m - k + 1) q >= l + sum of outstanding demands
    fleet_room = c.mul(c.add(c.sub(m, used), 1), q)
    constraints = [c.ge(fleet_room, c.add(load, c.sum_over("d", U)))]

    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(1, n), n), 0, 0, 1),
        transitions=transitions,
        base_cases=[BaseCase((c.empty(U),), c.ntab("c", i, c.econst(0)))],
        constraints=constraints,
        dual_bounds=[
            c.add(c.sum_over("cin", U), c.ntab("cin", c.econst(0))),
            c.add(c.sum_over("cout", U), c.ntab("cout", i)),
        ],
        costs=CostStructure(operator="+", direction="min", cost_type="integer"),
    )
