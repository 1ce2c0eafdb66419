"""Whitespace-tokenized s-expression grammar for expression texts.

The grammar has no infix forms; every compound expression is a
parenthesized operator application.  ``_FORMS`` is the vocabulary: for
each result family (element, set, numeric, condition) it maps an
operator head to its node class and the families of its arguments, and
both the parser and :func:`unparse` read it.  Its forms are:

* element / numeric: ``(+ a b)`` ``(- a b)`` ``(* a b)`` ``(/ a b)``
  (``%`` on elements only), ``(if cond a b)``, and on numerics only
  ``(min a b)`` ``(max a b)`` ``(abs a)`` ``(floor a)`` ``(ceil a)``
  ``(card S)``;
* set: ``(add e S)`` ``(remove e S)`` ``(union A B)``
  ``(intersection A B)`` ``(difference A B)`` ``(complement S)``;
* condition: ``(= a b)`` ``(!= a b)`` ``(< a b)`` ``(<= a b)``
  ``(> a b)`` ``(>= a b)`` ``(is_in e S)`` ``(is_subset A B)``
  ``(is_empty S)`` ``(not c)`` ``(and c...)`` ``(or c...)``.

Numeric ``+`` ``*`` ``max`` ``min`` and ``and`` ``or`` take two or more
operands; the numeric ones fold left, so ``(+ a b c)`` is
``(+ (+ a b) c)``.  The remaining forms are written as code: table
access ``(name idx...)`` in every family (a boolean table is a
condition), the set literal ``(set-of universe members...)``, the
literals ``true`` / ``false``, and the set reductions ``(sum name S)`` /
``(product name S)`` / ``(max name S)`` / ``(min name S)``, where a
partial table application fixes leading indices: ``(sum (name idx...)
S)``.  A ``max`` or ``min`` is a reduction when its first argument names
a table and its second looks like a set.

Atoms are integers, floats, exact fractions written ``p/q``, and
symbols.  Symbols resolve, in order, against parameters, declared
state variables, and declared tables.  The symbol ``cost`` is legal only
in transition cost texts and only as the second argument of the
outermost ``(+ w cost)`` or ``(max w cost)``: :func:`parse_cost` splits
such a text into the operator and the weight ``w``, so no parsed
expression holds ``cost`` and :func:`unparse` never prints it.

Division is exact: on integers it yields an exact rational, so in
integer-cost models a division must either come out whole or sit under
``floor``/``ceil``; a fractional value surfacing where an integer is
required is an evaluation error, never a silent truncation.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

from . import bitset
from . import expressions as ex
from .errors import ExpressionParseError, UnknownSymbolError
from .model import CONTINUOUS, ELEMENT, INTEGER, SET, StateMetadata

Ast = Union[int, float, Fraction, str, list]

_FRACTION = re.compile(r"^-?\d+/\d+$")

NUMERIC, CONDITION = "numeric", "condition"  # the families besides ELEMENT and SET

# family -> head -> (node class, argument families).  A trailing ``...``
# takes two or more operands of the family before it.
_FORMS = {
    ELEMENT: {
        "if": (ex.ElementIf, (CONDITION, ELEMENT, ELEMENT)),
        **{op: (ex.ElementBinary, (ELEMENT, ELEMENT)) for op in ("+", "-", "*", "/", "%")},
    },
    SET: {
        "add": (ex.SetAdd, (ELEMENT, SET)),
        "remove": (ex.SetRemove, (ELEMENT, SET)),
        "union": (ex.SetUnion, (SET, SET)),
        "intersection": (ex.SetIntersection, (SET, SET)),
        "difference": (ex.SetDifference, (SET, SET)),
        "complement": (ex.SetComplement, (SET,)),
    },
    NUMERIC: {
        "if": (ex.NumericIf, (CONDITION, NUMERIC, NUMERIC)),
        "+": (ex.NumericBinary, (NUMERIC, ...)),
        "*": (ex.NumericBinary, (NUMERIC, ...)),
        "-": (ex.NumericBinary, (NUMERIC, NUMERIC)),
        "/": (ex.NumericBinary, (NUMERIC, NUMERIC)),
        "max": (ex.NumericMax, (NUMERIC, ...)),
        "min": (ex.NumericMin, (NUMERIC, ...)),
        "abs": (ex.NumericAbs, (NUMERIC,)),
        "floor": (ex.NumericFloor, (NUMERIC,)),
        "ceil": (ex.NumericCeil, (NUMERIC,)),
        "card": (ex.Cardinality, (SET,)),
    },
    CONDITION: {
        **{op: (ex.Comparison, (NUMERIC, NUMERIC)) for op in ex.COMPARISONS},
        "is_in": (ex.SetMember, (ELEMENT, SET)),
        "is_subset": (ex.SetSubset, (SET, SET)),
        "is_empty": (ex.SetIsEmpty, (SET,)),
        "not": (ex.Not, (CONDITION,)),
        "and": (ex.And, (CONDITION, ...)),
        "or": (ex.Or, (CONDITION, ...)),
    },
}
# The inverse, for unparsing; a class with an ``op`` field prints that.
_HEADS = {cls: head for forms in _FORMS.values() for head, (cls, _) in forms.items()}

# family -> (table node class, the table kinds the family reads)
_TABLES = {
    ELEMENT: (ex.ElementTable, (INTEGER, ELEMENT)),
    SET: (ex.SetTable, (SET,)),
    NUMERIC: (ex.NumericTable, (INTEGER, CONTINUOUS, ELEMENT)),
    CONDITION: (ex.BooleanTable, ("boolean",)),
}
_NOUNS = {
    ELEMENT: "an element expression",
    SET: "a set expression",
    NUMERIC: "a numeric expression",
    CONDITION: "a condition",
}


def _node(cls, head: str, *args):
    """A table form's node; the classes with an ``op`` field take the head."""
    return cls(head, *args) if "op" in cls.__dataclass_fields__ else cls(*args)


def tokenize(text: str) -> list[str]:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ExpressionParseError("empty expression text")
    return tokens


def _atom(token: str) -> Ast:
    try:
        return int(token)
    except ValueError:
        pass
    if _FRACTION.match(token):
        return Fraction(token)
    try:
        return float(token)
    except ValueError:
        return token


def read(text: str) -> Ast:
    """Parse text into a nested-list AST; exactly one expression allowed."""
    tokens = tokenize(text)
    ast, rest = _read(tokens, 0)
    if rest != len(tokens):
        raise ExpressionParseError(f"trailing tokens in {text!r}")
    return ast


def _read(tokens: list[str], pos: int) -> tuple[Ast, int]:
    token = tokens[pos]
    if token == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise ExpressionParseError("unbalanced parentheses")
        return items, pos + 1
    if token == ")":
        raise ExpressionParseError("unexpected ')'")
    return _atom(token), pos + 1


@dataclass
class ParseContext:
    """Name bindings used while typing an expression tree.  ``cost`` is
    not among them: only :func:`parse_cost` reads that symbol.  A
    parameter bound to None reads as a parameter leaf, which a model binds
    when it grounds the lifted transition or constraint that holds it."""

    metadata: StateMetadata
    tables: ex.TableRegistry
    parameters: Mapping[str, Optional[int]] = field(default_factory=dict)

    def variable_kind(self, name: str):
        try:
            index = self.metadata.index(name)
        except UnknownSymbolError:
            return None
        return self.metadata.variables[index].kind

    def table_kind(self, name: str):
        if isinstance(name, str) and name in self.tables:
            return self.tables.lookup(name).kind
        return None


class _Cost(ex.NumericExpression):
    """The symbol ``cost``, which only the parser of :func:`parse_cost`
    returns: it never leaves that function."""

    __slots__ = ()


class _Parser:
    def __init__(self, ctx: ParseContext, cost: bool = False):
        self.ctx = ctx
        self.cost = cost  # whether the symbol ``cost`` reads as a _Cost

    def parse(self, family: str, ast: Ast):
        """Type ``ast`` as an expression of ``family``."""
        if isinstance(ast, list) and ast:
            return self._compound(family, ast)
        if isinstance(ast, str):
            return self._symbol(family, ast)
        if family == NUMERIC and not isinstance(ast, list):
            if isinstance(ast, float) and math.isnan(ast):
                raise ExpressionParseError(f"NaN is not a numeric constant: {ast!r}")
            return ex.NumericConst(ast)
        if family == ELEMENT and isinstance(ast, int):
            if ast < 0:
                raise ExpressionParseError(f"negative element literal {ast}")
            return ex.ElementConst(ast)
        raise ExpressionParseError(f"expected {_NOUNS[family]}, got {ast!r}")

    def _symbol(self, family: str, name: str):
        ctx = self.ctx
        if family == CONDITION:
            if name in ("true", "false"):
                return ex.BoolConst(name == "true")
            if ctx.table_kind(name) == "boolean":
                return ex.BooleanTable(name, ())
            raise ExpressionParseError(f"expected a condition, got symbol {name!r}")
        if family == NUMERIC and name == "cost":
            if not self.cost:
                raise ExpressionParseError(
                    "'cost' is only legal inside a transition cost expression"
                )
            return _Cost()
        if family != SET and name in ctx.parameters:
            if ctx.parameters[name] is None:
                return (ex.ElementParameter if family == ELEMENT else ex.NumericParameter)(name)
            const = ex.ElementConst if family == ELEMENT else ex.NumericConst
            return const(ctx.parameters[name])
        kind = ctx.variable_kind(name)
        if family == ELEMENT and kind is not None:
            if kind != ELEMENT:
                raise ExpressionParseError(f"{name!r} is not an element variable")
            return ctx.metadata.element(name)
        if family == NUMERIC and kind is not None:
            if kind == SET:
                raise ExpressionParseError(f"{name!r} is not usable in numeric context")
            return ctx.metadata.numeric(name)
        if family == SET and kind == SET:
            return ctx.metadata.set_(name)
        if ctx.table_kind(name) in _TABLES[family][1]:
            return self._table(family, name, ())
        raise UnknownSymbolError(f"unknown symbol {name!r} in {family} context")

    def _compound(self, family: str, ast: list):
        head = ast[0]
        if family == SET and head == "set-of":
            return self._set_of(ast)
        if family == NUMERIC and (
            head in ("sum", "product") or (head in ("max", "min") and self._is_reduction(ast))
        ):
            return self._reduction(ast)
        if isinstance(head, str) and head in _FORMS[family]:
            return self._form(family, ast)
        if self.ctx.table_kind(head) in _TABLES[family][1]:
            return self._table(family, head, tuple(self.parse(ELEMENT, a) for a in ast[1:]))
        raise ExpressionParseError(f"unknown {family} operator {head!r}")

    def _form(self, family: str, ast: list):
        head, args = ast[0], ast[1:]
        cls, families = _FORMS[family][head]
        if families[-1] is ...:
            if len(args) < 2:
                raise ExpressionParseError(f"({head} ...) needs at least two operands")
            operands = [self.parse(families[0], a) for a in args]
            if cls in (ex.And, ex.Or):
                return cls(tuple(operands))
            return functools.reduce(lambda lhs, rhs: _node(cls, head, lhs, rhs), operands)
        self._arity(ast, len(families))
        operands = [self.parse(f, a) for f, a in zip(families, args)]
        if family == SET and families == (SET, SET):
            if operands[0].universe != operands[1].universe:
                raise ExpressionParseError(f"({head} ...) mixes set universes")
        return _node(cls, head, *operands)

    def _table(self, family: str, name: str, args: tuple):
        cls = _TABLES[family][0]
        if family == SET:
            return cls(name, args, self.ctx.tables.lookup(name).value_universe)
        return cls(name, args)

    def _set_of(self, ast: list) -> ex.SetConst:
        if len(ast) < 2 or not isinstance(ast[1], int):
            raise ExpressionParseError("(set-of universe members...) needs a universe")
        universe = ast[1]
        if universe < 0:
            raise ExpressionParseError(f"negative set-of universe {universe}")
        members = 0
        for item in ast[2:]:
            if not isinstance(item, int) or not 0 <= item < universe:
                raise ExpressionParseError(f"bad set literal member {item!r}")
            members |= 1 << item
        return ex.SetConst(members, universe)

    def _looks_like_set(self, ast: Ast) -> bool:
        if isinstance(ast, str):
            return self.ctx.variable_kind(ast) == SET or self.ctx.table_kind(ast) == SET
        if isinstance(ast, list) and ast:
            head = ast[0]
            if head == "set-of" or (isinstance(head, str) and head in _FORMS[SET]):
                return True
            return self.ctx.table_kind(head) == SET
        return False

    def _is_reduction(self, ast: list) -> bool:
        """(max name S) / (max (name idx...) S) reduce a table over a set;
        anything else is an ordinary max/min."""
        if len(ast) != 3 or not self._looks_like_set(ast[2]):
            return False
        target = ast[1]
        if isinstance(target, str):
            return self.ctx.table_kind(target) is not None
        return (
            isinstance(target, list)
            and bool(target)
            and isinstance(target[0], str)
            and self.ctx.table_kind(target[0]) is not None
        )

    def _reduction(self, ast: list) -> ex.NumericExpression:
        self._arity(ast, 2)
        op, target, over = ast
        if isinstance(target, str):
            name, prefix = target, ()
        elif isinstance(target, list) and target and isinstance(target[0], str):
            name = target[0]
            prefix = tuple(self.parse(ELEMENT, a) for a in target[1:])
        else:
            raise ExpressionParseError(f"({op} ...) needs a table to reduce")
        if self.ctx.table_kind(name) not in _TABLES[NUMERIC][1]:
            raise ExpressionParseError(f"{name!r} is not a numeric table")
        return ex.SetReduce(op, name, self.parse(SET, over), prefix)

    @staticmethod
    def _arity(ast: list, count: int) -> None:
        if len(ast) != count + 1:
            raise ExpressionParseError(
                f"({ast[0]} ...) takes {count} arguments, got {len(ast) - 1}"
            )


def parse_set(text: str, ctx: ParseContext) -> ex.SetExpression:
    return _Parser(ctx).parse(SET, read(text))


def parse_numeric(text: str, ctx: ParseContext) -> ex.NumericExpression:
    return _Parser(ctx).parse(NUMERIC, read(text))


def parse_condition(text: str, ctx: ParseContext) -> ex.Condition:
    return _Parser(ctx).parse(CONDITION, read(text))


def parse_effect(text: str, ctx: ParseContext, kind: str):
    """An effect on a variable of ``kind``; integer and continuous ones are numeric."""
    return _Parser(ctx).parse(kind if kind in (ELEMENT, SET) else NUMERIC, read(text))


def parse_cost(text: str, ctx: ParseContext) -> tuple[str, ex.NumericExpression]:
    """Split a transition cost text into (operator, weight term).

    The text must have the exact shape ``(+ w cost)`` or ``(max w cost)``
    where ``w`` never mentions ``cost``.  This is the one parser that reads
    the symbol ``cost``; every other entry point rejects it.
    """
    expr = _Parser(ctx, cost=True).parse(NUMERIC, read(text))
    bad = ExpressionParseError(
        "cost term must combine a weight with 'cost', as in (+ w cost) or (max w cost)"
    )
    if isinstance(expr, ex.NumericBinary) and expr.op == "+":
        operator, weight, tail = "+", expr.lhs, expr.rhs
    elif isinstance(expr, ex.NumericMax):
        operator, weight, tail = "max", expr.lhs, expr.rhs
    else:
        raise bad
    if not isinstance(tail, _Cost) or any(isinstance(node, _Cost) for node in ex.walk(weight)):
        raise bad
    return operator, weight


# ---------------------------------------------------------------------------
# Unparsing


def unparse(expr) -> str:
    """Render an expression back to grammar text."""
    if isinstance(expr, ex.FromElement):
        return unparse(expr.operand)
    if isinstance(expr, ex.ElementConst):
        return str(expr.value)
    if isinstance(expr, ex.NumericConst):
        value = expr.value
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        return repr(value) if isinstance(value, float) else str(value)
    if isinstance(expr, (ex.ElementVar, ex.NumericVar, ex.SetVar,
                         ex.ElementParameter, ex.NumericParameter)):
        return expr.name
    if isinstance(expr, (ex.ElementTable, ex.NumericTable, ex.BooleanTable, ex.SetTable)):
        return _application(expr.table, expr.args)
    if isinstance(expr, ex.SetReduce):
        return f"({expr.op} {_application(expr.table, expr.prefix)} {unparse(expr.over)})"
    if isinstance(expr, ex.SetConst):
        items = "".join(f" {i}" for i in bitset.members(expr.mask))
        return f"(set-of {expr.universe}{items})"
    if isinstance(expr, ex.BoolConst):
        return "true" if expr.value else "false"
    if type(expr) not in _HEADS:
        raise TypeError(f"cannot unparse {expr!r}")
    head = getattr(expr, "op", _HEADS[type(expr)])
    return f"({head} {' '.join(unparse(child) for child in ex.children(expr))})"


def _application(name: str, args: tuple) -> str:
    return f"({name} {' '.join(unparse(a) for a in args)})" if args else name


def unparse_cost(operator: str, weight) -> str:
    head = "+" if operator == "+" else "max"
    return f"({head} {unparse(weight)} cost)"
