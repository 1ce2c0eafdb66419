"""Bin packing (minimize the number of bins).

State: unpacked items U, remaining room r in the open bin (more is
preferred), and the count k of opened bins (less is preferred).  Two
lifted transitions range over the items in U.  ``pack`` is
symmetry-broken: item i may only go into the i-th or an earlier bin.
When nothing fits, the forced ``open-bin`` opens a fresh bin around an
eligible item.  Three lower-bound expressions are declared; the halves
and thirds of the classic weight-class bounds are scaled to integers
(x2 and x6) so the ceilings stay exact.
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
    GREATER,
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
class BinPackingInstance:
    weights: tuple[int, ...]
    capacity: int

    def __post_init__(self):
        if any(w > self.capacity for w in self.weights):
            raise ValueError("an item is heavier than the bin capacity")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def large_half(self) -> tuple[int, ...]:
        """1 for items heavier than half the capacity."""
        return tuple(1 if 2 * w > self.capacity else 0 for w in self.weights)

    @cached_property
    def exact_half_x2(self) -> tuple[int, ...]:
        """Twice the half-bound coefficient: 1 for items of exactly half."""
        return tuple(1 if 2 * w == self.capacity else 0 for w in self.weights)

    @cached_property
    def third_class_x6(self) -> tuple[int, ...]:
        """Six times the third-bound coefficient per weight class."""
        q = self.capacity
        out = []
        for w in self.weights:
            if 3 * w > 2 * q:
                out.append(6)
            elif 3 * w == 2 * q:
                out.append(4)
            elif q < 3 * w:
                out.append(3)
            elif 3 * w == q:
                out.append(2)
            else:
                out.append(0)
        return tuple(out)


def parse_binpacking(text: str) -> BinPackingInstance:
    """Text form: the capacity, the item count, then the weights."""
    read = c.FieldReader(text)
    capacity = read()
    weights = tuple(read() for _ in range(read.count("item count")))
    read.end()
    return BinPackingInstance(weights, capacity)


def bound_expressions(meta, U, room, capacity: int) -> list:
    """The three lower bounds shared with the line-balancing model."""
    lb1 = c.ceil(c.div(c.sub(c.sum_over("w", U), room), capacity))
    lb2 = c.sub(
        c.add(c.sum_over("half", U), c.ceil(c.div(c.sum_over("half2", U), 2))),
        c.ite(c.ge(c.mul(2, room), capacity), 1, 0),
    )
    lb3 = c.sub(
        c.ceil(c.div(c.sum_over("third6", U), 6)),
        c.ite(c.ge(c.mul(3, room), capacity), 1, 0),
    )
    return [lb1, lb2, lb3]


def bound_tables(instance) -> list:
    return [
        c.vector_table("w", instance.weights),
        c.vector_table("half", instance.large_half),
        c.vector_table("half2", instance.exact_half_x2),
        c.vector_table("third6", instance.third_class_x6),
    ]


def build_binpacking(instance: BinPackingInstance) -> Model:
    n = instance.n
    q = instance.capacity
    meta = StateMetadata(
        {"item": n},
        [
            Variable("U", SET, "item"),
            Variable("r", INTEGER, preference=GREATER),
            Variable("k", ELEMENT, "item", preference=LESS),
        ],
    )
    tables = ex.TableRegistry(bound_tables(instance))
    U = meta.set_("U")
    room = meta.numeric("r")
    bins = meta.element("k")

    nothing_fits = c.and_(
        *[c.or_(c.not_(c.member(j, U)), c.lt(room, c.ntab("w", c.econst(j)))) for j in range(n)]
    )

    item = ex.ElementParameter("item")
    weight = c.ntab("w", item)
    packed = (meta.index("U"), ex.SetRemove(item, U))
    open_bin = Transition(
        name="open-bin",
        preconditions=(c.ge(c.num(item), c.num(bins)), nothing_fits),
        effects=(
            packed,
            (meta.index("r"), c.sub(q, weight)),
            (meta.index("k"), ex.ElementBinary("+", bins, c.econst(1))),
        ),
        weight=c.nconst(1),
        forced=True,
        parameters=(("item", "U"),),
    )
    pack = Transition(
        name="pack",
        preconditions=(c.ge(room, weight), c.ge(c.add(c.num(item), 1), c.num(bins))),
        effects=(packed, (meta.index("r"), c.sub(room, weight))),
        weight=c.nconst(0),
        parameters=(("item", "U"),),
    )

    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(n), n), 0, 0),
        transitions=[open_bin, pack],
        base_cases=[BaseCase((c.empty(U),), c.nconst(0))],
        dual_bounds=bound_expressions(meta, U, room, q),
        costs=CostStructure(operator="+", direction="min", cost_type="integer"),
    )
