"""Run-quality metrics: optimality gap and primal integral."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

Number = Union[int, float]


def _not_nan(value, what: str):
    if value != value:
        raise ValueError(f"{what} must not be NaN")
    return value


def optimality_gap(primal: Optional[Number], dual: Optional[Number]) -> float:
    """Relative difference between primal and dual bounds, in [0, 1].

    This is the primal gap of Kuroiwa and Beck (ICAPS 2023): 0 when the
    bounds are equal, 1 when they differ in sign, and otherwise
    ``|primal - dual| / max(|primal|, |dual|)``.  A missing or infinite
    bound counts as a gap of 1.  Note that a proved infeasibility is a
    gap of 0 by convention; callers must special-case it since both
    bounds are absent then.  A NaN bound is a ValueError.
    """
    _not_nan(primal, "primal bound")
    _not_nan(dual, "dual bound")
    if primal is None or dual is None or abs(primal) == math.inf or abs(dual) == math.inf:
        return 1.0
    if primal == dual:
        return 0.0
    if primal * dual < 0:
        return 1.0
    return abs(primal - dual) / max(abs(primal), abs(dual))


def primal_gap(cost: Optional[Number], reference: Number) -> float:
    """Gap of a single solution against a reference cost, in [0, 1], by
    the same rule as ``optimality_gap``."""
    return optimality_gap(_not_nan(cost, "cost"), _not_nan(reference, "reference"))


def primal_integral(
    events: Sequence[tuple[float, Optional[Number]]],
    reference: Number,
    horizon: float,
) -> float:
    """Time integral of the piecewise-constant primal gap over [0, horizon].

    ``events`` holds (time, cost) pairs with non-decreasing times; a cost
    of None marks a proved infeasibility, after which the gap is 0.  The
    result lies in [0, horizon]; lower is better.  A NaN reference, cost
    or horizon and a negative or infinite horizon are ValueErrors.
    """
    _not_nan(reference, "reference")
    if not horizon >= 0:
        raise ValueError(f"horizon {horizon} must be a number of at least 0")
    if math.isinf(horizon):
        raise ValueError(f"horizon {horizon} must be finite")
    last_time = 0.0
    gap = 1.0
    total = 0.0
    for time, cost in events:
        if not 0.0 <= time <= horizon:
            raise ValueError(f"event time {time} outside [0, {horizon}]")
        if time < last_time:
            raise ValueError("event times must be non-decreasing")
        total += gap * (time - last_time)
        last_time = time
        gap = 0.0 if cost is None else primal_gap(cost, reference)
    total += gap * (horizon - last_time)
    return total
