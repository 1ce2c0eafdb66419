"""Shared helpers for the benchmark model builders.

:class:`Routing` is the travel-matrix record that the four routing
instances (TSPTW, CVRP, m-PDTSP, OPTW) extend: it checks that the matrix
is non-empty, square and of nonnegative integers, and derives the
shortest paths and the cheapest edge into and out of each customer that
their dual bounds read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import bitset
from .. import expressions as ex


class FieldReader:
    """The whitespace-separated fields of an instance text, in order.

    Calling it returns the next field, converted by its argument (``int``
    by default).  Past the last field it raises ValueError; a bare
    ``next`` would stop an enclosing generator expression with
    RuntimeError instead.
    """

    def __init__(self, text: str):
        self._fields = iter(text.split())

    def __call__(self, convert=int):
        field = next(self._fields, None)
        if field is None:
            raise ValueError("truncated instance text")
        return convert(field)

    def count(self, what: str) -> int:
        """The next field as the number of ``what``, which is not negative."""
        value = self()
        if value < 0:
            raise ValueError(f"negative {what} {value}")
        return value

    def rest(self) -> list[str]:
        """Every field not read yet."""
        return list(self._fields)

    def end(self) -> None:
        """Raise unless every field has been read."""
        extra = next(self._fields, None)
        if extra is not None:
            raise ValueError(f"unexpected field {extra!r} past the end of the instance text")


def precedence_sets(fields: list[str], n: int) -> tuple[frozenset[int], ...]:
    """Predecessor sets of ``n`` tasks from ``before after`` index pairs."""
    if len(fields) % 2:
        raise ValueError("precedence lines must hold pairs")
    pred = [set() for _ in range(n)]
    for pos in range(0, len(fields), 2):
        before, after = int(fields[pos]), int(fields[pos + 1])
        if not (0 <= before < n and 0 <= after < n):
            raise ValueError(f"precedence pair {before} {after} is outside tasks 0..{n - 1}")
        pred[after].add(before)
    return tuple(frozenset(p) for p in pred)


@dataclass(frozen=True)
class Routing:
    """A complete travel matrix of nonnegative integers; customer 0 is
    the depot.  ``lone_edge`` stands for the cheapest edge in or out of a
    depot without customers, which has no edge."""

    travel: tuple[tuple[int, ...], ...]

    lone_edge = 0

    def __post_init__(self):
        n = len(self.travel)
        if n == 0:
            raise ValueError("instance needs at least the depot")
        for row in self.travel:
            if len(row) != n:
                raise ValueError("travel matrix must be square")
            for value in row:
                if not isinstance(value, int) or value < 0:
                    raise ValueError("travel times must be nonnegative integers")

    @property
    def n(self) -> int:
        return len(self.travel)

    @cached_property
    def shortest(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs shortest travel times (Floyd-Warshall)."""
        n = self.n
        best = [list(row) for row in self.travel]
        for k in range(n):
            row_k = best[k]
            for row_i in best:
                via = row_i[k]
                for j in range(n):
                    if via + row_k[j] < row_i[j]:
                        row_i[j] = via + row_k[j]
        return tuple(map(tuple, best))

    @cached_property
    def cheapest_in(self) -> tuple[int, ...]:
        """Per customer j: the cheapest edge into j from another customer."""
        n, travel = self.n, self.travel
        if n == 1:
            return (self.lone_edge,)
        return tuple(min(travel[k][j] for k in range(n) if k != j) for j in range(n))

    @cached_property
    def cheapest_out(self) -> tuple[int, ...]:
        """Per customer j: the cheapest edge out of j to another customer."""
        n, travel = self.n, self.travel
        if n == 1:
            return (self.lone_edge,)
        return tuple(min(travel[j][k] for k in range(n) if k != j) for j in range(n))


def matrix_table(name: str, matrix) -> ex.Table:
    n = len(matrix)
    values = {(i, j): matrix[i][j] for i in range(n) for j in range(n)}
    return ex.Table(name, "integer", (n, n), values)


def vector_table(name: str, vector, kind: str = "integer") -> ex.Table:
    values = {(i,): v for i, v in enumerate(vector)}
    return ex.Table(name, kind, (len(vector),), values)


def set_table(name: str, sets) -> ex.Table:
    """One set of objects per object, over as many objects as there are sets."""
    n = len(sets)
    values = {(i,): bitset.from_items(s, n) for i, s in enumerate(sets)}
    return ex.Table(name, "set", (n,), values, value_universe=n)


# Terse constructors; the builders assemble large trees from these.

econst = ex.ElementConst
nconst = ex.NumericConst


def ntab(name, *args):
    return ex.NumericTable(name, tuple(args))


def num(value) -> ex.NumericExpression:
    """``value`` in numeric context, as the parser reads its text back: an
    element constant or parameter becomes its numeric leaf."""
    if isinstance(value, ex.NumericExpression):
        return value
    if isinstance(value, ex.ElementConst):
        return ex.NumericConst(value.value)
    if isinstance(value, ex.ElementParameter):
        return ex.NumericParameter(value.name)
    if isinstance(value, ex.ElementExpression):
        return ex.FromElement(value)
    return ex.NumericConst(value)


def add(*terms):
    """The sum of ``terms``; 0 for none."""
    terms = [num(t) for t in terms] or [ex.NumericConst(0)]
    expr = terms[0]
    for term in terms[1:]:
        expr = ex.NumericBinary("+", expr, term)
    return expr


def sub(a, b):
    return ex.NumericBinary("-", num(a), num(b))


def mul(a, b):
    return ex.NumericBinary("*", num(a), num(b))


def div(a, b):
    return ex.NumericBinary("/", num(a), num(b))


def nmax(a, b, *rest):
    expr = ex.NumericMax(num(a), num(b))
    for term in rest:
        expr = ex.NumericMax(expr, num(term))
    return expr


def ceil(a):
    return ex.NumericCeil(num(a))


def floor(a):
    return ex.NumericFloor(num(a))


def card(s):
    return ex.Cardinality(s)


def ite(cond, a, b):
    return ex.NumericIf(cond, num(a), num(b))


def sum_over(table, over, *prefix):
    return ex.SetReduce("sum", table, over, tuple(prefix))


def eq(a, b):
    return ex.Comparison("=", num(a), num(b))


def le(a, b):
    return ex.Comparison("<=", num(a), num(b))


def lt(a, b):
    return ex.Comparison("<", num(a), num(b))


def ge(a, b):
    return ex.Comparison(">=", num(a), num(b))


def gt(a, b):
    return ex.Comparison(">", num(a), num(b))


def member(element, set_expr):
    if isinstance(element, int):
        element = ex.ElementConst(element)
    return ex.SetMember(element, set_expr)


def subset(a, b):
    return ex.SetSubset(a, b)


def empty(s):
    return ex.SetIsEmpty(s)


def not_(c):
    return ex.Not(c)


def and_(*cs):
    """The conjunction of ``cs``; true for none."""
    if not cs:
        return ex.BoolConst(True)
    return cs[0] if len(cs) == 1 else ex.And(tuple(cs))


def or_(*cs):
    """The disjunction of ``cs``; false for none."""
    if not cs:
        return ex.BoolConst(False)
    return cs[0] if len(cs) == 1 else ex.Or(tuple(cs))


def sconst(items, universe):
    return ex.SetConst(bitset.from_items(items, universe), universe)
