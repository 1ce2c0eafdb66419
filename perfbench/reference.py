"""Expected optima, computed without dpsearch.

Each function is a plain memoized recursion over the instance record
that states the problem exactly as the matching builder in
``dpsearch.problems`` does, with none of dpsearch's models, expressions
or solvers.  A solver's answer is checked against these values, so the
check holds even when every dpsearch solver shares a defect.
"""

from __future__ import annotations

import math
from functools import lru_cache

from dpsearch.problems import CvrpInstance, MdkpInstance, TsptwInstance


def _shortest(travel) -> list[list[int]]:
    dist = [list(row) for row in travel]
    n = len(dist)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def _solved(best, *root):
    """``best(*root)``, then the memo freed at once: a recursive closure
    sits in a reference cycle that only the garbage collector would
    break, and the benchmark's peak memory must be dpsearch's."""
    try:
        return best(*root)
    finally:
        best.cache_clear()


def _members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tsptw(instance: TsptwInstance) -> int:
    """Minimum tour length from the depot through every customer within
    its window and back; arriving early waits until the window opens."""
    c, a, b = instance.travel, instance.ready, instance.deadline
    shortest = _shortest(c)

    @lru_cache(maxsize=None)
    def best(unvisited: int, here: int, time: int) -> float:
        if not unvisited:
            return c[here][0]
        todo = list(_members(unvisited))
        if any(time + shortest[here][j] > b[j] for j in todo):
            return math.inf
        value = math.inf
        for j in todo:
            arrival = time + c[here][j]
            if arrival <= b[j]:
                rest = best(unvisited & ~(1 << j), j, max(arrival, a[j]))
                value = min(value, c[here][j] + rest)
        return value

    return _solved(best, sum(1 << j for j in range(1, instance.n)), 0, 0)


def mdkp(instance: MdkpInstance) -> int:
    """Maximum profit of items that fit every capacity together."""
    profits, weights = instance.profits, instance.weights

    @lru_cache(maxsize=None)
    def best(item: int, room: tuple) -> int:
        if item == len(profits):
            return 0
        value = best(item + 1, room)
        if all(w <= r for w, r in zip(weights[item], room)):
            left = tuple(r - w for w, r in zip(weights[item], room))
            value = max(value, profits[item] + best(item + 1, left))
        return value

    return _solved(best, 0, tuple(instance.capacities))


def cvrp(instance: CvrpInstance) -> int:
    """Minimum length of at most ``vehicles`` depot-to-depot routes that
    serve every customer within the vehicle capacity."""
    c, d = instance.travel, instance.demands
    q, m = instance.capacity, instance.vehicles

    @lru_cache(maxsize=None)
    def best(unvisited: int, here: int, load: int, used: int) -> float:
        if not unvisited:
            return c[here][0]
        todo = list(_members(unvisited))
        if (m - used + 1) * q < load + sum(d[j] for j in todo):
            return math.inf
        value = math.inf
        for j in todo:
            rest = unvisited & ~(1 << j)
            if load + d[j] <= q:
                value = min(value, c[here][j] + best(rest, j, load + d[j], used))
            if used < m:
                detour = c[here][0] + c[0][j]
                value = min(value, detour + best(rest, j, d[j], used + 1))
        return value

    return _solved(best, sum(1 << j for j in range(1, instance.n)), 0, 0, 1)


OPTIMUM = {"tsptw": tsptw, "mdkp": mdkp, "cvrp": cvrp}
