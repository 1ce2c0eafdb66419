"""Simple assembly line balancing, type 1 (minimize stations).

Bin packing with precedence: the lifted ``schedule`` over the tasks in U
takes a task only once all its predecessors, the set table ``pred``, are
done, and a new station opens (forced) only when no task can be
scheduled in the current one, the maximum-load rule.  The
three bin-packing lower bounds carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import bitset
from .. import expressions as ex
from ..model import (
    BaseCase,
    CostStructure,
    GREATER,
    INTEGER,
    Model,
    SET,
    StateMetadata,
    Transition,
    Variable,
)
from . import binpacking as bp
from . import common as c


@dataclass(frozen=True)
class Salbp1Instance(bp.BinPackingInstance):
    """Bin packing whose weights are task times and whose capacity is the
    cycle time."""

    predecessors: tuple[frozenset[int], ...]

    def __post_init__(self):
        super().__post_init__()
        n = len(self.weights)
        if len(self.predecessors) != n:
            raise ValueError("predecessor sets must cover every task")
        # reject cyclic precedence via topological elimination
        remaining = set(range(n))
        while remaining:
            free = [i for i in remaining if not (self.predecessors[i] & remaining)]
            if not free:
                raise ValueError("cyclic precedence constraints")
            remaining.difference_update(free)


def parse_salbp1(text: str) -> Salbp1Instance:
    """Text form: the cycle time, the task count, the task times, then
    any number of ``before after`` precedence lines."""
    read = c.FieldReader(text)
    capacity = read()
    weights = tuple(read() for _ in range(read.count("task count")))
    return Salbp1Instance(weights, capacity, c.precedence_sets(read.rest(), len(weights)))


def build_salbp1(instance: Salbp1Instance) -> Model:
    n = instance.n
    q = instance.capacity
    meta = StateMetadata(
        {"task": n},
        [
            Variable("U", SET, "task"),
            Variable("r", INTEGER, preference=GREATER),
        ],
    )
    tables = ex.TableRegistry(
        [*bp.bound_tables(instance), c.set_table("pred", instance.predecessors)]
    )
    U = meta.set_("U")
    room = meta.numeric("r")

    def fits(task: ex.ElementExpression) -> tuple[ex.Condition, ...]:
        """The task fits the open station and its predecessors are done."""
        return (
            c.ge(room, c.ntab("w", task)),
            c.empty(ex.SetIntersection(ex.SetTable("pred", (task,), n), U)),
        )

    none_schedulable = c.and_(
        *[c.not_(c.and_(c.member(k, U), *fits(c.econst(k)))) for k in range(n)]
    )

    task = ex.ElementParameter("task")
    transitions = [
        Transition(
            name="open-station",
            preconditions=(c.not_(c.empty(U)), none_schedulable),
            effects=((meta.index("r"), c.nconst(q)),),
            weight=c.nconst(1),
            forced=True,
        ),
        Transition(
            name="schedule",
            preconditions=fits(task),
            effects=(
                (meta.index("U"), ex.SetRemove(task, U)),
                (meta.index("r"), c.sub(room, c.ntab("w", task))),
            ),
            weight=c.nconst(0),
            parameters=(("task", "U"),),
        ),
    ]

    return Model(
        metadata=meta,
        tables=tables,
        target=(bitset.from_items(range(n), n), 0),
        transitions=transitions,
        base_cases=[BaseCase((c.empty(U),), c.nconst(0))],
        dual_bounds=bp.bound_expressions(meta, U, room, q),
        costs=CostStructure(operator="+", direction="min", cost_type="integer"),
    )
