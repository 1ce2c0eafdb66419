"""Minimization of open stacks, solved in customer order.

State: customers whose stacks are not yet closed (R) and customers whose
stacks have been opened (O).  The lifted ``finish`` ranges over c in R:
finishing c produces all of c's outstanding products at once, opening
the stacks of every neighbor (the set table ``near``), so the step's
stack count is the open-and-unfinished stacks plus the newly opened
ones.  The objective folds steps with max, not addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import bitset
from .. import expressions as ex
from ..model import (
    BaseCase,
    CostStructure,
    Model,
    SET,
    StateMetadata,
    Transition,
    Variable,
)
from . import common as c


@dataclass(frozen=True)
class MospInstance:
    customer_products: tuple[frozenset[int], ...]
    products: int

    def __post_init__(self):
        for customer, order in enumerate(self.customer_products):
            for product in sorted(order):
                if not 0 <= product < self.products:
                    raise ValueError(
                        f"product {product} of customer {customer} is outside products "
                        f"0..{self.products - 1}"
                    )

    @property
    def customers(self) -> int:
        return len(self.customer_products)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        """Customers sharing at least one product (including oneself)."""
        return tuple(
            frozenset(
                other
                for other, theirs in enumerate(self.customer_products)
                if mine & theirs
            )
            for mine in self.customer_products
        )


def parse_mosp(text: str) -> MospInstance:
    """Text form: ``customers products``, then one line per customer:
    the order size followed by its product indices."""
    read = c.FieldReader(text)
    customers = read.count("customer count")
    products = read.count("product count")
    orders = tuple(
        frozenset(read() for _ in range(read.count("order size"))) for _ in range(customers)
    )
    read.end()
    return MospInstance(orders, products)


def build_mosp(instance: MospInstance) -> Model:
    n = instance.customers
    meta = StateMetadata(
        {"customer": n},
        [
            Variable("R", SET, "customer"),
            Variable("O", SET, "customer"),
        ],
    )
    tables = ex.TableRegistry([c.set_table("near", instance.neighbors)])
    remaining = meta.set_("R")
    opened = meta.set_("O")

    customer = ex.ElementParameter("customer")
    near = ex.SetTable("near", (customer,), n)
    finish = Transition(
        name="finish",
        preconditions=(),
        effects=(
            (meta.index("R"), ex.SetRemove(customer, remaining)),
            (meta.index("O"), ex.SetUnion(opened, near)),
        ),
        weight=c.card(
            ex.SetUnion(ex.SetIntersection(opened, remaining), ex.SetDifference(near, opened))
        ),
        parameters=(("customer", "R"),),
    )

    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(n), n), 0),
        transitions=[finish],
        base_cases=[BaseCase((c.empty(remaining),), c.nconst(0))],
        dual_bounds=[c.nconst(0)],
        costs=CostStructure(operator="max", direction="min", cost_type="integer"),
    )
