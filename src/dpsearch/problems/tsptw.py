"""Traveling salesperson with time windows.

State: unvisited customers U, current location i, current time t (less
preferred).  One lifted transition, ``visit`` j for every j in U,
visits a customer within its window; the tour ends back at the depot
once U is empty.  A ``forall`` state constraint cuts states from which
some unvisited customer can no longer be reached by its deadline even
via shortest paths, and two bound expressions sum the cheapest
incoming/outgoing edges over the remaining customers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import bitset
from .. import expressions as ex
from ..model import (
    CostStructure,
    ELEMENT,
    Forall,
    INTEGER,
    LESS,
    Model,
    SET,
    StateMetadata,
    Transition,
    BaseCase,
    Variable,
)
from . import common as c


@dataclass(frozen=True)
class TsptwInstance(c.Routing):
    """Customer 0 is the depot; a time window per customer."""

    ready: tuple[int, ...]
    deadline: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.ready) != self.n or len(self.deadline) != self.n:
            raise ValueError("time windows must cover every customer")


def parse_tsptw(text: str) -> TsptwInstance:
    """Parse the plain text form: the customer count, then the travel
    matrix one row per line, then one ``ready deadline`` line per
    customer."""
    read = c.FieldReader(text)
    n = read.count("customer count")
    travel = tuple(tuple(read() for _ in range(n)) for _ in range(n))
    windows = tuple((read(), read()) for _ in range(n))
    read.end()
    return TsptwInstance(
        travel=travel,
        ready=tuple(w[0] for w in windows),
        deadline=tuple(w[1] for w in windows),
    )


def build_tsptw(instance: TsptwInstance) -> Model:
    n = instance.n
    meta = StateMetadata(
        {"customer": n},
        [
            Variable("U", SET, "customer"),
            Variable("i", ELEMENT, "customer"),
            Variable("t", INTEGER, preference=LESS),
        ],
    )
    tables = ex.TableRegistry(
        [
            c.matrix_table("c", instance.travel),
            c.matrix_table("cstar", instance.shortest),
            c.vector_table("a", instance.ready),
            c.vector_table("b", instance.deadline),
            c.vector_table("cin", instance.cheapest_in),
            c.vector_table("cout", instance.cheapest_out),
        ]
    )
    U = meta.set_("U")
    i = meta.element("i")
    t = meta.numeric("t")

    j = ex.ElementParameter("j")
    arrival = c.add(t, c.ntab("c", i, j))
    visit = Transition(
        name="visit",
        preconditions=(c.le(arrival, c.ntab("b", j)),),
        effects=(
            (meta.index("U"), ex.SetRemove(j, U)),
            (meta.index("i"), j),
            (meta.index("t"), c.nmax(arrival, c.ntab("a", j))),
        ),
        weight=c.ntab("c", i, j),
        parameters=(("j", "U"),),
    )
    deadline = Forall(("j", "U"), c.le(c.add(t, c.ntab("cstar", i, j)), c.ntab("b", j)))

    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(1, n), n), 0, 0),
        transitions=[visit],
        base_cases=[
            BaseCase((c.empty(U),), c.ntab("c", i, c.econst(0))),
        ],
        constraints=[deadline],
        dual_bounds=[
            c.add(c.sum_over("cin", U), c.ntab("cin", c.econst(0))),
            c.add(c.sum_over("cout", U), c.ntab("cout", i)),
        ],
        costs=CostStructure(operator="+", direction="min", cost_type="integer"),
    )
