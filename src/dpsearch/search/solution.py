"""Solver results and parameters."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

Number = Union[int, float]

PrimalCallback = Callable[[float, Number, list[str]], None]
DualCallback = Callable[[float, Number], None]


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
    first_solution_cost: Optional[Number] = None

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
    """Knobs shared by every solver; policy-specific fields carry defaults.

    ``time_limit`` is wall-clock seconds (None = run to completion) and
    ``initial_bound`` seeds the primal bound.  Tie-breaking is fixed to
    the deterministic f-value, then h-value, then most-recently-generated
    order, so identical inputs give identical runs.
    """

    time_limit: Optional[float] = None
    initial_bound: Optional[Number] = None
    beam_initial_width: int = 1
    beam_growth: int = 2
    acps_initial_budget: int = 1
    acps_budget_step: int = 1
    apps_initial_budget: int = 1
    apps_budget_step: int = 1
    apps_max_budget: float = math.inf
    dbdfs_k: int = 1

    def __post_init__(self):
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be at least 0")
        for name, least in (
            ("beam_initial_width", 1),
            ("beam_growth", 2),  # a width that never grows reruns one beam forever
            ("acps_initial_budget", 1),
            ("acps_budget_step", 1),
            ("apps_initial_budget", 1),
            ("dbdfs_k", 1),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}")
        if not isinstance(self.apps_max_budget, (int, float)) or not self.apps_max_budget >= 1:
            raise ValueError("apps_max_budget must be a number of at least 1")
