"""Orienteering with time windows (profit maximization).

State: candidate customers U, current location i, current time t (less
preferred).  Three lifted transitions range over j in U: ``visit``
collects j's profit; ``drop-unreachable`` strikes j from U by a forced
zero-profit removal once j can no longer be reached in time, and
``drop-stuck`` strikes it when nobody is directly reachable.  The run
ends once U is empty and the depot is reachable by its deadline.  Three
bound expressions cap the remaining profit: the profit sum of
still-reachable customers and two knapsack-style bounds built from best
profit-per-travel-time ratios (kept as exact rationals).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
class OptwInstance(c.Routing):
    """Off-diagonal travel times must be positive; service times are
    assumed to be folded into the travel times already."""

    profits: tuple[int, ...]  # profits[0] = 0 for the depot
    ready: tuple[int, ...]
    deadline: tuple[int, ...]

    lone_edge = 1  # the efficiency tables divide by the cheapest edges

    def __post_init__(self):
        super().__post_init__()
        n = self.n
        for i in range(n):
            for j in range(n):
                if i != j and self.travel[i][j] <= 0:
                    raise ValueError("off-diagonal travel times must be positive")

    @cached_property
    def efficiency_in(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(p, w) for p, w in zip(self.profits, self.cheapest_in)
        )

    @cached_property
    def efficiency_out(self) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(p, w) for p, w in zip(self.profits, self.cheapest_out)
        )


def parse_optw(text: str) -> OptwInstance:
    """Text form: customer count, travel matrix rows, then one
    ``profit ready deadline`` line per customer."""
    read = c.FieldReader(text)
    n = read.count("customer count")
    travel = tuple(tuple(read() for _ in range(n)) for _ in range(n))
    rows = tuple((read(), read(), read()) for _ in range(n))
    read.end()
    return OptwInstance(
        travel=travel,
        profits=tuple(r[0] for r in rows),
        ready=tuple(r[1] for r in rows),
        deadline=tuple(r[2] for r in rows),
    )


def build_optw(instance: OptwInstance) -> Model:
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
            c.vector_table("p", instance.profits),
            c.vector_table("a", instance.ready),
            c.vector_table("b", instance.deadline),
            c.vector_table("cin", instance.cheapest_in),
            c.vector_table("cout", instance.cheapest_out),
            c.vector_table("ein", instance.efficiency_in, kind="continuous"),
            c.vector_table("eout", instance.efficiency_out, kind="continuous"),
        ]
    )
    U = meta.set_("U")
    i = meta.element("i")
    t = meta.numeric("t")
    b_depot = c.ntab("b", c.econst(0))

    def unreachable(j: ex.ElementExpression) -> ex.Condition:
        """Customer j is out of reach even via shortest paths."""
        shortest_leg = c.add(t, c.ntab("cstar", i, j))
        return c.or_(
            c.gt(shortest_leg, c.ntab("b", j)),
            c.gt(c.add(shortest_leg, c.ntab("cstar", j, c.econst(0))), b_depot),
        )

    def directly_visitable(j: ex.ElementExpression) -> ex.Condition:
        arrival = c.add(t, c.ntab("c", i, j))
        return c.and_(
            c.le(arrival, c.ntab("b", j)),
            c.le(c.add(arrival, c.ntab("cstar", j, c.econst(0))), b_depot),
        )

    nobody_visitable = c.and_(*[
        c.not_(c.and_(c.member(j, U), directly_visitable(c.econst(j)))) for j in range(1, n)
    ])

    j = ex.ElementParameter("j")
    removed = ((meta.index("U"), ex.SetRemove(j, U)),)
    arrival = c.add(t, c.ntab("c", i, j))
    transitions = [
        Transition(
            name="drop-unreachable",
            preconditions=(unreachable(j),),
            effects=removed,
            weight=c.nconst(0),
            forced=True,
            parameters=(("j", "U"),),
        ),
        Transition(
            name="drop-stuck",
            preconditions=(nobody_visitable,),
            effects=removed,
            weight=c.nconst(0),
            forced=True,
            parameters=(("j", "U"),),
        ),
        Transition(
            name="visit",
            preconditions=(directly_visitable(j),),
            effects=(
                *removed,
                (meta.index("i"), j),
                (meta.index("t"), c.nmax(arrival, c.ntab("a", j))),
            ),
            weight=c.ntab("p", j),
            parameters=(("j", "U"),),
        ),
    ]

    def still_open(j: int) -> ex.Condition:
        return c.and_(c.member(j, U), c.not_(unreachable(c.econst(j))))

    profit_terms = [c.ite(still_open(j), c.ntab("p", c.econst(j)), 0) for j in range(1, n)]
    reachable_profit = c.add(*profit_terms)

    def ratio_bound(rates: str, slack: ex.NumericExpression) -> ex.NumericExpression:
        best = c.num(0)
        for j in range(1, n):
            best = c.nmax(best, c.ite(still_open(j), c.ntab(rates, c.econst(j)), 0))
        return c.floor(c.mul(slack, best))

    dual_bounds = [
        reachable_profit,
        ratio_bound("ein", c.sub(c.sub(b_depot, t), c.ntab("cin", c.econst(0)))),
        ratio_bound("eout", c.sub(c.sub(b_depot, t), c.ntab("cout", i))),
    ]

    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(1, n), n), 0, 0),
        transitions=transitions,
        base_cases=[
            BaseCase(
                (c.empty(U), c.le(c.add(t, c.ntab("c", i, c.econst(0))), b_depot)),
                c.nconst(0),
            )
        ],
        dual_bounds=dual_bounds,
        costs=CostStructure(operator="+", direction="max", cost_type="integer"),
    )
