"""Solver results and parameters."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Union

Number = Union[int, float]


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible-not-proved"
    NOT_FOUND = "no-solution-found"


@dataclass
class Solution:
    """Outcome of one solver run.

    ``status`` is OPTIMAL or INFEASIBLE only when proved by exhausting the
    search space.  When an initial primal bound was supplied, INFEASIBLE
    means no solution better than that bound exists.  The event logs hold
    (elapsed seconds, value) pairs; primal costs strictly improve and
    dual bounds tighten monotonically.
    """

    status: Status
    transitions: Optional[list[str]] = None
    cost: Optional[Number] = None
    bound: Optional[Number] = None
    expanded: int = 0
    generated: int = 0
    elapsed: float = 0.0
    primal_events: list[tuple[float, Number]] = field(default_factory=list)
    dual_events: list[tuple[float, Number]] = field(default_factory=list)

    @property
    def proved(self) -> bool:
        return self.status in (Status.OPTIMAL, Status.INFEASIBLE)

    def gap(self) -> float:
        from ..metrics import optimality_gap

        if self.status == Status.INFEASIBLE:
            return 0.0
        return optimality_gap(self.cost, self.bound)


@dataclass
class SolverParams:
    """What a caller sets for any solver: ``time_limit`` in wall-clock
    seconds (None = run to completion) and ``initial_bound``, which seeds
    the primal bound.  Everything else is fixed: each solver runs one
    schedule (see its entry point), and ties break on f-value, then
    h-value, then most recently generated, so identical inputs give
    identical runs.
    """

    time_limit: Optional[float] = None
    initial_bound: Optional[Number] = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool):  # a bool is an int: YAML true would read as 1
                raise ValueError(f"{name} must be a number, not a boolean")
        if self.time_limit is not None and not isinstance(self.time_limit, (int, float)):
            raise ValueError("time_limit must be a number")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be at least 0")
        bound = self.initial_bound
        if bound is not None and not (isinstance(bound, (int, float)) and not math.isnan(bound)):
            raise ValueError("initial_bound must be a number other than NaN")
