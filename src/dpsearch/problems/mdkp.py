"""Multi-dimensional knapsack (profit maximization).

State: the index of the item under consideration plus the remaining
room in every weight dimension.  Two transitions advance the index:
include (when the item fits everywhere) and skip.  Bounds: the suffix
profit sum, and per dimension the best remaining profit/weight ratio
times the remaining room (zero-weight items rate as the whole suffix
profit, with the room clamped to at least one).  Neither transition
ranges over the items, so the model has nothing to lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .. import expressions as ex
from ..model import (
    BaseCase,
    CONTINUOUS,
    CostStructure,
    ELEMENT,
    INTEGER,
    Model,
    StateMetadata,
    Transition,
    Variable,
)
from . import common as c


@dataclass(frozen=True)
class MdkpInstance:
    profits: tuple[int, ...]
    weights: tuple[tuple, ...]  # weights[item][dimension]
    capacities: tuple

    def __post_init__(self):
        for row in self.weights:
            if len(row) != len(self.capacities):
                raise ValueError("weight rows must match the capacity count")
        if any(p < 0 for p in self.profits):
            raise ValueError("profits must be nonnegative")
        if any(w < 0 for row in self.weights for w in row):
            raise ValueError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.profits)

    @property
    def dimensions(self) -> int:
        return len(self.capacities)

    @property
    def fractional(self) -> bool:
        values = list(self.capacities) + [w for row in self.weights for w in row]
        return any(not isinstance(v, int) for v in values)

    @cached_property
    def suffix_profit(self) -> tuple[int, ...]:
        total = [0] * (self.n + 1)
        for i in range(self.n - 1, -1, -1):
            total[i] = total[i + 1] + self.profits[i]
        return tuple(total)

    @cached_property
    def best_ratio(self) -> tuple[tuple, ...]:
        """best_ratio[j][i]: the best profit/weight ratio in dimension j
        among items i..n-1.  A zero-weight item k >= i rates as the whole
        profit suffix from stage i (not from k), which keeps the ratio an
        upper bound on anything reachable from stage i."""
        out = []
        for j in range(self.dimensions):
            positive = [0] * (self.n + 1)  # best p/w over items >= i with w > 0
            has_zero = [False] * (self.n + 1)
            for i in range(self.n - 1, -1, -1):
                w = self.weights[i][j]
                if w == 0:
                    rate = 0
                    has_zero[i] = True
                elif isinstance(w, int):
                    rate = Fraction(self.profits[i], w)
                else:
                    rate = self.profits[i] / w
                positive[i] = max(rate, positive[i + 1])
                has_zero[i] = has_zero[i] or has_zero[i + 1]
            column = [
                max(positive[i], self.suffix_profit[i]) if has_zero[i] else positive[i]
                for i in range(self.n + 1)
            ]
            out.append(tuple(column))
        return tuple(out)


def parse_mdkp(text: str, allow_fractional: bool = False) -> MdkpInstance:
    """Text form: ``n m``, a profit line, one m-value weight line per
    item, then the capacity line.  Fractional weights or capacities are
    rejected unless ``allow_fractional`` (the continuous gate) is set."""

    def number(token: str):
        try:
            return int(token)
        except ValueError:
            value = float(token)
            if not allow_fractional:
                raise ValueError(
                    "fractional values need the continuous cost type flag"
                ) from None
            return value

    read = c.FieldReader(text)
    n = read.count("item count")
    m = read.count("dimension count")
    profits = tuple(read() for _ in range(n))
    weights = tuple(tuple(read(number) for _ in range(m)) for _ in range(n))
    capacities = tuple(read(number) for _ in range(m))
    read.end()
    return MdkpInstance(profits, weights, capacities)


def build_mdkp(instance: MdkpInstance) -> Model:
    n = instance.n
    m = instance.dimensions
    room_kind = CONTINUOUS if instance.fractional else INTEGER
    meta = StateMetadata(
        {"item": n, "stage": n + 1, "dimension": m},
        [Variable("i", ELEMENT, "stage")]
        + [Variable(f"r{j}", room_kind) for j in range(m)],
    )
    weight_values = {
        (i, j): instance.weights[i][j] for i in range(n) for j in range(m)
    }
    tables = ex.TableRegistry(
        [
            c.vector_table("p", instance.profits),
            ex.Table("w", room_kind, (n, m), weight_values, default=0),
            c.vector_table("rest", instance.suffix_profit),
            ex.Table(
                "rate",
                "continuous",
                (m, n + 1),
                {
                    (j, i): instance.best_ratio[j][i]
                    for j in range(m)
                    for i in range(n + 1)
                },
                default=0,
            ),
        ]
    )
    stage = meta.element("i")
    rooms = [meta.numeric(f"r{j}") for j in range(m)]
    advanced = ex.ElementBinary("+", stage, c.econst(1))

    fits = [c.le(c.ntab("w", stage, c.econst(j)), rooms[j]) for j in range(m)]
    include_effects = [(meta.index("i"), advanced)] + [
        (meta.index(f"r{j}"), c.sub(rooms[j], c.ntab("w", stage, c.econst(j))))
        for j in range(m)
    ]
    transitions = [
        Transition(
            name="include",
            preconditions=tuple([c.lt(c.num(stage), n)] + fits),
            effects=tuple(include_effects),
            weight=c.ntab("p", stage),
        ),
        Transition(
            name="skip",
            preconditions=(c.lt(c.num(stage), n),),
            effects=((meta.index("i"), advanced),),
            weight=c.nconst(0),
        ),
    ]

    dual_bounds = [c.ntab("rest", stage)]
    for j in range(m):
        dual_bounds.append(
            c.floor(c.mul(c.nmax(rooms[j], 1), c.ntab("rate", c.econst(j), stage)))
        )

    return Model(
        metadata=meta,
        tables=tables,
        target=tuple([0] + [
            float(v) if room_kind == CONTINUOUS else v for v in instance.capacities
        ]),
        transitions=transitions,
        base_cases=[BaseCase((c.eq(c.num(stage), n),), c.nconst(0))],
        dual_bounds=dual_bounds,
        costs=CostStructure(operator="+", direction="max", cost_type="integer"),
    )
