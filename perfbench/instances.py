"""Seeded benchmark-size instance generators.

Each generator draws from the ``random.Random`` it is given and returns
one of the public instance records of ``dpsearch.problems``.  They are
larger than the tiny generators in ``dpsearch.problems.random_instances``
(which the acceptance gate keeps using), and every instance they draw is
feasible, so no solve in the benchmark is expected to fail.

Travel times are drawn from a narrow band (40 to 60) rather than from
points in the plane: search effort then varies less from one seed to the
next, so a workload's totals are steadier across seeds.  Any such matrix
satisfies the triangle inequality.
"""

from __future__ import annotations

import math
from random import Random

from dpsearch.problems import CvrpInstance, MdkpInstance, TalentInstance, TsptwInstance


def _travel(rng: Random, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(0 if i == j else rng.randint(40, 60) for j in range(n)) for i in range(n)
    )


def tsptw(rng: Random, n: int, half_width: int) -> TsptwInstance:
    """Depot plus ``n - 1`` customers, windows around a hidden random tour.

    Each customer's window spans ``half_width`` either side of its
    arrival time on the hidden tour, so that tour is always feasible and
    wider windows leave more orders open.
    """
    travel = _travel(rng, n)
    tour = list(range(1, n))
    rng.shuffle(tour)
    ready = [0] * n
    deadline = [0] * n
    clock, here = 0, 0
    for j in tour:
        clock += travel[here][j]
        ready[j] = max(0, clock - half_width)
        deadline[j] = clock + half_width
        here = j
    deadline[0] = clock + travel[here][0] + half_width
    return TsptwInstance(travel, tuple(ready), tuple(deadline))


def mdkp(rng: Random, n: int, m: int) -> MdkpInstance:
    """``n`` items in ``m`` dimensions, profits loosely tied to weight;
    each capacity holds half the total weight of its dimension."""
    weights = tuple(tuple(rng.randint(1, 30) for _ in range(m)) for _ in range(n))
    profits = tuple(sum(row) // m + rng.randint(0, 20) for row in weights)
    capacities = tuple(sum(row[j] for row in weights) // 2 for j in range(m))
    return MdkpInstance(profits, weights, capacities)


def cvrp(rng: Random, n: int, vehicles: int) -> CvrpInstance:
    """Depot plus ``n - 1`` customers; the fleet has 25% spare capacity."""
    demands = tuple([0] + [rng.randint(3, 7) for _ in range(n - 1)])
    capacity = max(max(demands), math.ceil(1.25 * sum(demands) / vehicles))
    return CvrpInstance(_travel(rng, n), demands, capacity, vehicles)


def talent(rng: Random, scenes: int, actors: int) -> TalentInstance:
    """Scenes with random casts; every actor plays in at least one scene."""
    casts = [set() for _ in range(scenes)]
    for actor in range(actors):
        for scene in rng.sample(range(scenes), rng.randint(1, max(1, scenes // 3))):
            casts[scene].add(actor)
    durations = tuple(rng.randint(1, 5) for _ in range(scenes))
    costs = tuple(rng.randint(1, 20) for _ in range(actors))
    return TalentInstance(tuple(frozenset(c) for c in casts), durations, costs)
