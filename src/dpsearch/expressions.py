"""Immutable expression trees over state variables and constant tables.

Four expression families exist, mirroring the value families of states:

* element expressions produce nonnegative integers,
* set expressions produce bitmask subsets of a fixed universe,
* numeric expressions produce integers or floats (rationals appear as
  exact :class:`fractions.Fraction` intermediates under division),
* conditions produce booleans.

The trees are the intermediate representation: the s-expression and YAML
layers read and write them, ``validate`` inspects them, and models hold
them, but nothing walks them to evaluate.  Evaluation is generated as
Python source once per model (:mod:`dpsearch.compiler`) and compiled
once per source text; the model caches its functions on the first query
that needs them, without a lock, so two threads that race on it only
emit twice.  The ``eval_*`` functions below emit the tree they are given
on each call, for callers outside a model.

Evaluation is strict, pure, and reentrant: a node evaluated twice on
the same state yields the same value and never mutates its inputs, and
expressions and tables are immutable after construction, so they can be
shared and read from any number of threads.  Integer arithmetic is
exact with an explicit 64-bit overflow check; silently wrapping values
would corrupt optimality proofs downstream.  Every fault (an unknown
table or variable slot, a bad index or missing key, a table value of the
wrong kind for its context, a negative element, overflow, NaN, division
by zero, an element outside a set's universe) raises when the faulty
node is evaluated, never earlier.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from . import bitset
from .errors import EvaluationError, UnknownSymbolError

State = tuple
Number = Union[int, float, Fraction]

INT64_MAX = 2**63 - 1

TABLE_KINDS = ("integer", "continuous", "boolean", "element", "set")


def _check_int(value: int) -> int:
    if abs(value) > INT64_MAX:
        raise OverflowError(f"integer value {value} exceeds 64-bit range")
    return value


def _check_number(value: Number) -> Number:
    if isinstance(value, float) and math.isnan(value):
        raise EvaluationError("expression produced NaN")
    if isinstance(value, int):
        _check_int(value)
    return value


def collapse(value: Number) -> Number:
    """Turn integral fractions into ints; leave everything else alone."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _check_int(int(value))
        return value
    return value


# ---------------------------------------------------------------------------
# Tables


@dataclass(frozen=True, slots=True)
class Table:
    """A named constant table indexed by tuples of object indices.

    ``shape`` gives the object count for each argument position; an empty
    shape declares a scalar constant.  Absent keys fall back to ``default``
    when one is declared and are an error otherwise.  Set-valued tables
    store bitmasks and carry the universe size of their values.
    """

    name: str
    kind: str
    shape: tuple[int, ...]
    values: Mapping[tuple, object]
    default: object = None
    value_universe: int | None = None

    def __post_init__(self):
        if self.kind not in TABLE_KINDS:
            raise ValueError(f"unknown table kind {self.kind!r}")
        if self.kind == "set" and self.value_universe is None:
            raise ValueError(f"set table {self.name!r} needs a value universe")
        # NaN is the one value unequal to itself
        if self.default != self.default or any(v != v for v in self.values.values()):
            raise ValueError(f"table {self.name!r} holds NaN")

    @property
    def arity(self) -> int:
        return len(self.shape)

    def lookup(self, key: tuple):
        if len(key) != len(self.shape):
            raise EvaluationError(
                f"table {self.name!r} takes {len(self.shape)} indices, got {len(key)}"
            )
        for pos, (index, bound) in enumerate(zip(key, self.shape)):
            if not 0 <= index < bound:
                raise EvaluationError(
                    f"index {index} out of range for argument {pos} of table {self.name!r}"
                )
        if key in self.values:
            return self.values[key]
        if self.default is not None:
            return self.default
        raise EvaluationError(f"table {self.name!r} has no value for key {key}")


class TableRegistry:
    """Immutable-after-construction collection of uniquely named tables."""

    def __init__(self, tables: Iterable = ()):
        self._tables: dict[str, Table] = {}
        for table in tables:
            self.add(table)

    def add(self, table: Table) -> Table:
        if table.name in self._tables:
            raise ValueError(f"duplicate table name {table.name!r}")
        self._tables[table.name] = table
        return table

    def lookup(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableRegistry):
            return NotImplemented
        return self._tables == other._tables


# ---------------------------------------------------------------------------
# Element expressions


class ElementExpression:
    """Base class; evaluates to a nonnegative integer."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class ElementConst(ElementExpression):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("element constants must be nonnegative")


@dataclass(frozen=True, slots=True)
class ElementVar(ElementExpression):
    index: int
    name: str


@dataclass(frozen=True, slots=True)
class ElementTable(ElementExpression):
    table: str
    args: tuple[ElementExpression, ...]


@dataclass(frozen=True, slots=True)
class ElementBinary(ElementExpression):
    op: str
    lhs: ElementExpression
    rhs: ElementExpression

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/", "%"):
            raise ValueError(f"unknown element operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class ElementIf(ElementExpression):
    condition: "Condition"
    then: ElementExpression
    otherwise: ElementExpression


# ---------------------------------------------------------------------------
# Set expressions


class SetExpression:
    """Base class; evaluates to a bitmask within a fixed universe."""

    __slots__ = ()
    universe: int


@dataclass(frozen=True, slots=True)
class SetConst(SetExpression):
    mask: int
    universe: int

    def __post_init__(self):
        if self.mask & ~bitset.full(self.universe):
            raise ValueError("set constant exceeds its universe")


@dataclass(frozen=True, slots=True)
class SetVar(SetExpression):
    index: int
    name: str
    universe: int


@dataclass(frozen=True, slots=True)
class SetTable(SetExpression):
    table: str
    args: tuple[ElementExpression, ...]
    universe: int


@dataclass(frozen=True, slots=True)
class SetAdd(SetExpression):
    element: ElementExpression
    operand: SetExpression

    @property
    def universe(self):
        return self.operand.universe


@dataclass(frozen=True, slots=True)
class SetRemove(SetExpression):
    element: ElementExpression
    operand: SetExpression

    @property
    def universe(self):
        return self.operand.universe


@dataclass(frozen=True, slots=True)
class SetUnion(SetExpression):
    lhs: SetExpression
    rhs: SetExpression

    @property
    def universe(self):
        return self.lhs.universe


@dataclass(frozen=True, slots=True)
class SetIntersection(SetExpression):
    lhs: SetExpression
    rhs: SetExpression

    @property
    def universe(self):
        return self.lhs.universe


@dataclass(frozen=True, slots=True)
class SetDifference(SetExpression):
    lhs: SetExpression
    rhs: SetExpression

    @property
    def universe(self):
        return self.lhs.universe


@dataclass(frozen=True, slots=True)
class SetComplement(SetExpression):
    operand: SetExpression

    @property
    def universe(self):
        return self.operand.universe


# ---------------------------------------------------------------------------
# Numeric expressions


class NumericExpression:
    """Base class; evaluates to an int, float, or exact Fraction."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class NumericConst(NumericExpression):
    value: Number

    def __post_init__(self):
        if isinstance(self.value, float) and math.isnan(self.value):
            raise ValueError("NaN constants are rejected")


@dataclass(frozen=True, slots=True)
class NumericVar(NumericExpression):
    index: int
    name: str


@dataclass(frozen=True, slots=True)
class FromElement(NumericExpression):
    """Promotion of an element expression into numeric context."""

    operand: ElementExpression


@dataclass(frozen=True, slots=True)
class NumericTable(NumericExpression):
    table: str
    args: tuple[ElementExpression, ...]


@dataclass(frozen=True, slots=True)
class NumericBinary(NumericExpression):
    op: str
    lhs: NumericExpression
    rhs: NumericExpression

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown numeric operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class NumericMin(NumericExpression):
    lhs: NumericExpression
    rhs: NumericExpression


@dataclass(frozen=True, slots=True)
class NumericMax(NumericExpression):
    lhs: NumericExpression
    rhs: NumericExpression


@dataclass(frozen=True, slots=True)
class NumericAbs(NumericExpression):
    operand: NumericExpression


@dataclass(frozen=True, slots=True)
class NumericFloor(NumericExpression):
    operand: NumericExpression


@dataclass(frozen=True, slots=True)
class NumericCeil(NumericExpression):
    operand: NumericExpression


@dataclass(frozen=True, slots=True)
class SetReduce(NumericExpression):
    """Fold a one-dimensional table slice over the members of a set.

    ``prefix`` fixes the leading indices of the table; the reduction runs
    over the final index.  Sum and product reduce the empty set to their
    identities; max and min over an empty set are an evaluation error, so
    models must guard emptiness themselves.
    """

    op: str
    table: str
    over: SetExpression
    prefix: tuple[ElementExpression, ...] = ()

    def __post_init__(self):
        if self.op not in ("sum", "product", "max", "min"):
            raise ValueError(f"unknown reduction {self.op!r}")


@dataclass(frozen=True, slots=True)
class Cardinality(NumericExpression):
    operand: SetExpression


@dataclass(frozen=True, slots=True)
class NumericIf(NumericExpression):
    condition: "Condition"
    then: NumericExpression
    otherwise: NumericExpression


@dataclass(frozen=True, slots=True)
class SuccessorCost(NumericExpression):
    """Placeholder for the successor cost inside raw cost texts.

    Transition weights must never contain it; it only exists transiently
    while a cost expression of the shape ``w (+|max) cost`` is split into
    the weight ``w`` and the combining operator.
    """


# ---------------------------------------------------------------------------
# Conditions


class Condition:
    """Base class; evaluates to exactly one boolean on any well-typed state."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class BoolConst(Condition):
    value: bool


COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class Comparison(Condition):
    op: str
    lhs: NumericExpression
    rhs: NumericExpression

    def __post_init__(self):
        if self.op not in COMPARISONS:
            raise ValueError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True, slots=True)
class SetMember(Condition):
    element: ElementExpression
    operand: SetExpression


@dataclass(frozen=True, slots=True)
class SetSubset(Condition):
    lhs: SetExpression
    rhs: SetExpression


@dataclass(frozen=True, slots=True)
class SetIsEmpty(Condition):
    operand: SetExpression


@dataclass(frozen=True, slots=True)
class BooleanTable(Condition):
    table: str
    args: tuple[ElementExpression, ...]


@dataclass(frozen=True, slots=True)
class Not(Condition):
    operand: Condition


@dataclass(frozen=True, slots=True)
class And(Condition):
    operands: tuple[Condition, ...]


@dataclass(frozen=True, slots=True)
class Or(Condition):
    operands: tuple[Condition, ...]


# ---------------------------------------------------------------------------
# Public evaluation entry points


def _evaluate(expr, state: State, tables: TableRegistry):
    from .compiler import Emitter

    try:
        return Emitter(tables).evaluate(expr)(state)
    except IndexError:
        raise UnknownSymbolError(
            f"state {state!r} has no slot for a variable the expression reads"
        ) from None


def eval_element(expr: ElementExpression, state: State, tables: TableRegistry) -> int:
    value = _evaluate(expr, state, tables)
    if not isinstance(value, int) or value < 0:
        raise EvaluationError(f"element expression produced {value!r}")
    return value


def eval_set(expr: SetExpression, state: State, tables: TableRegistry) -> int:
    """Evaluate to a bitmask; guaranteed to stay within the universe."""
    return _evaluate(expr, state, tables) & bitset.full(expr.universe)


def eval_numeric(expr: NumericExpression, state: State, tables: TableRegistry) -> Number:
    """Evaluate; integral rationals collapse to exact ints."""
    return collapse(_evaluate(expr, state, tables))


def eval_condition(expr: Condition, state: State, tables: TableRegistry) -> bool:
    return bool(_evaluate(expr, state, tables))


_NODES = (ElementExpression, SetExpression, NumericExpression, Condition)


def children(expr):
    """Yield the subexpressions of a node, in field order."""
    for name in getattr(expr, "__dataclass_fields__", ()):
        value = getattr(expr, name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, _NODES):
                yield child


def walk(expr):
    """Yield every node of an expression tree, root first."""
    yield expr
    for child in children(expr):
        yield from walk(child)
