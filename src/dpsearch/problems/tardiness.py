"""Single-machine total weighted tardiness (minimize).

State: the set F of already scheduled jobs.  The lifted ``schedule``
ranges over every job, since F starts empty: scheduling job i after F
costs its weight times its tardiness at completion, and the optional
predecessor sets, the set table ``pred``, restrict which jobs may come
before others.  The declared bound is
the trivial zero function, which still enables primal-bound pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class WtInstance:
    processing: tuple[int, ...]
    due: tuple[int, ...]
    weights: tuple[int, ...]
    predecessors: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        n = len(self.processing)
        if len(self.due) != n or len(self.weights) != n:
            raise ValueError("processing, due, and weight lists must align")
        if not self.predecessors:
            object.__setattr__(self, "predecessors", tuple(frozenset() for _ in range(n)))
        elif len(self.predecessors) != n:
            raise ValueError("predecessor sets must cover every job")

    @property
    def n(self) -> int:
        return len(self.processing)


def parse_wt(text: str) -> WtInstance:
    """Text form: the job count, one ``processing due weight`` line per
    job, then any number of optional ``before after`` precedence pairs."""
    read = c.FieldReader(text)
    n = read.count("job count")
    rows = [(read(), read(), read()) for _ in range(n)]
    return WtInstance(
        processing=tuple(r[0] for r in rows),
        due=tuple(r[1] for r in rows),
        weights=tuple(r[2] for r in rows),
        predecessors=c.precedence_sets(read.rest(), n),
    )


def build_wt(instance: WtInstance) -> Model:
    n = instance.n
    meta = StateMetadata(
        {"job": n},
        [Variable("F", SET, "job")],
    )
    tables = ex.TableRegistry(
        [
            c.vector_table("p", instance.processing),
            c.vector_table("d", instance.due),
            c.vector_table("w", instance.weights),
            c.set_table("pred", instance.predecessors),
        ]
    )
    done = meta.set_("F")

    # F starts empty, so the job ranges over its object type
    job = ex.ElementParameter("job")
    completion = c.add(c.sum_over("p", done), c.ntab("p", job))
    tardiness = c.nmax(0, c.sub(completion, c.ntab("d", job)))
    schedule = Transition(
        name="schedule",
        preconditions=(
            c.not_(c.member(job, done)),
            c.subset(ex.SetTable("pred", (job,), n), done),
        ),
        effects=((meta.index("F"), ex.SetAdd(job, done)),),
        weight=c.mul(c.ntab("w", job), tardiness),
        parameters=(("job", "job"),),
    )

    everyone = c.sconst(range(n), n)
    return Model(
        metadata=meta,
        tables=tables,
        target=(0,),
        transitions=[schedule],
        base_cases=[BaseCase((c.subset(everyone, done),), c.nconst(0))],
        dual_bounds=[c.nconst(0)],
        costs=CostStructure(operator="+", direction="min", cost_type="integer"),
    )
