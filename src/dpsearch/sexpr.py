"""Whitespace-tokenized s-expression grammar for expression texts.

The grammar has no infix forms; every compound expression is a
parenthesized operator application.  The vocabulary:

* element / numeric: ``(+ a b)`` ``(- a b)`` ``(* a b)`` ``(/ a b)``
  (``%`` on elements only), ``(min a b)`` ``(max a b)`` ``(abs a)``
  ``(floor a)`` ``(ceil a)`` (numeric only), ``(if cond a b)``,
  table access ``(name idx...)``, ``(card S)``, and set reductions
  ``(sum name S)`` / ``(product name S)`` / ``(max name S)`` /
  ``(min name S)``; a partial table application fixes leading indices:
  ``(sum (name idx...) S)``.
* set: ``(add e S)`` ``(remove e S)`` ``(union A B)``
  ``(intersection A B)`` ``(difference A B)`` ``(complement S)`` and the
  literal ``(set-of universe members...)``.
* condition: ``(= a b)`` ``(!= a b)`` ``(< a b)`` ``(<= a b)``
  ``(> a b)`` ``(>= a b)`` ``(is_in e S)`` ``(is_subset A B)``
  ``(is_empty S)`` ``(not c)`` ``(and c...)`` ``(or c...)``, the
  literals ``true`` / ``false``, and boolean table access.

Atoms are integers, floats, exact fractions written ``p/q``, and
symbols.  Symbols resolve, in order, against bound parameters, declared
state variables, and declared tables.  The symbol ``cost`` is legal only
in transition cost texts and only as the second argument of the
outermost ``(+ w cost)`` or ``(max w cost)``.

Division is exact: on integers it yields an exact rational, so in
integer-cost models a division must either come out whole or sit under
``floor``/``ceil``; a fractional value surfacing where an integer is
required is an evaluation error, never a silent truncation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

from . import expressions as ex
from .errors import ExpressionParseError, UnknownSymbolError
from .model import CONTINUOUS, ELEMENT, INTEGER, SET, StateMetadata

Ast = Union[int, float, Fraction, str, list]

_FRACTION = re.compile(r"^-?\d+/\d+$")

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
_REDUCTIONS = ("sum", "product", "max", "min")


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
    """Name bindings used while typing an expression tree."""

    metadata: StateMetadata
    tables: ex.TableRegistry
    parameters: Mapping[str, int] = field(default_factory=dict)
    allow_cost: bool = False

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


class _Parser:
    def __init__(self, ctx: ParseContext):
        self.ctx = ctx

    # -- element ------------------------------------------------------

    def element(self, ast: Ast) -> ex.ElementExpression:
        if isinstance(ast, int) and not isinstance(ast, bool):
            if ast < 0:
                raise ExpressionParseError(f"negative element literal {ast}")
            return ex.ElementConst(ast)
        if isinstance(ast, str):
            return self._element_symbol(ast)
        if isinstance(ast, list) and ast:
            return self._element_list(ast)
        raise ExpressionParseError(f"expected an element expression, got {ast!r}")

    def _element_symbol(self, name: str) -> ex.ElementExpression:
        if name in self.ctx.parameters:
            return ex.ElementConst(self.ctx.parameters[name])
        kind = self.ctx.variable_kind(name)
        if kind == ELEMENT:
            return self.ctx.metadata.element(name)
        if kind is not None:
            raise ExpressionParseError(f"{name!r} is not an element variable")
        if self.ctx.table_kind(name) in (INTEGER, ELEMENT):
            return ex.ElementTable(name, ())
        raise UnknownSymbolError(f"unknown symbol {name!r} in element context")

    def _element_list(self, ast: list) -> ex.ElementExpression:
        head = ast[0]
        if head == "if":
            self._arity(ast, 3)
            return ex.ElementIf(
                self.condition(ast[1]), self.element(ast[2]), self.element(ast[3])
            )
        if head in ("+", "-", "*", "/", "%"):
            self._arity(ast, 2)
            return ex.ElementBinary(head, self.element(ast[1]), self.element(ast[2]))
        if isinstance(head, str) and self.ctx.table_kind(head) in (INTEGER, ELEMENT):
            return ex.ElementTable(head, tuple(self.element(a) for a in ast[1:]))
        raise ExpressionParseError(f"unknown element operator {head!r}")

    # -- set ------------------------------------------------------------

    def set_(self, ast: Ast) -> ex.SetExpression:
        if isinstance(ast, str):
            kind = self.ctx.variable_kind(ast)
            if kind == SET:
                return self.ctx.metadata.set_(ast)
            if self.ctx.table_kind(ast) == SET:
                table = self.ctx.tables.lookup(ast)
                return ex.SetTable(ast, (), table.value_universe)
            raise UnknownSymbolError(f"unknown symbol {ast!r} in set context")
        if isinstance(ast, list) and ast:
            return self._set_list(ast)
        raise ExpressionParseError(f"expected a set expression, got {ast!r}")

    def _set_list(self, ast: list) -> ex.SetExpression:
        head = ast[0]
        if head == "set-of":
            if len(ast) < 2 or not isinstance(ast[1], int):
                raise ExpressionParseError("(set-of universe members...) needs a universe")
            universe = ast[1]
            members = 0
            for item in ast[2:]:
                if not isinstance(item, int) or not 0 <= item < universe:
                    raise ExpressionParseError(f"bad set literal member {item!r}")
                members |= 1 << item
            return ex.SetConst(members, universe)
        if head == "add":
            self._arity(ast, 2)
            return ex.SetAdd(self.element(ast[1]), self.set_(ast[2]))
        if head == "remove":
            self._arity(ast, 2)
            return ex.SetRemove(self.element(ast[1]), self.set_(ast[2]))
        if head in ("union", "intersection", "difference"):
            self._arity(ast, 2)
            nodes = {
                "union": ex.SetUnion,
                "intersection": ex.SetIntersection,
                "difference": ex.SetDifference,
            }
            lhs, rhs = self.set_(ast[1]), self.set_(ast[2])
            if lhs.universe != rhs.universe:
                raise ExpressionParseError(f"({head} ...) mixes set universes")
            return nodes[head](lhs, rhs)
        if head == "complement":
            self._arity(ast, 1)
            return ex.SetComplement(self.set_(ast[1]))
        if isinstance(head, str) and self.ctx.table_kind(head) == SET:
            table = self.ctx.tables.lookup(head)
            args = tuple(self.element(a) for a in ast[1:])
            return ex.SetTable(head, args, table.value_universe)
        raise ExpressionParseError(f"unknown set operator {head!r}")

    # -- numeric ----------------------------------------------------------

    def numeric(self, ast: Ast) -> ex.NumericExpression:
        if isinstance(ast, bool):
            raise ExpressionParseError("boolean literal in numeric context")
        if isinstance(ast, (int, float, Fraction)):
            return ex.NumericConst(ast)
        if isinstance(ast, str):
            return self._numeric_symbol(ast)
        if isinstance(ast, list) and ast:
            return self._numeric_list(ast)
        raise ExpressionParseError(f"expected a numeric expression, got {ast!r}")

    def _numeric_symbol(self, name: str) -> ex.NumericExpression:
        if name == "cost":
            if not self.ctx.allow_cost:
                raise ExpressionParseError(
                    "'cost' is only legal inside a transition cost expression"
                )
            return ex.SuccessorCost()
        if name in self.ctx.parameters:
            return ex.NumericConst(self.ctx.parameters[name])
        kind = self.ctx.variable_kind(name)
        if kind in (INTEGER, CONTINUOUS, ELEMENT):
            return self.ctx.metadata.numeric(name)
        if kind is not None:
            raise ExpressionParseError(f"{name!r} is not usable in numeric context")
        if self.ctx.table_kind(name) in (INTEGER, CONTINUOUS, ELEMENT):
            return ex.NumericTable(name, ())
        raise UnknownSymbolError(f"unknown symbol {name!r} in numeric context")

    def _numeric_list(self, ast: list) -> ex.NumericExpression:
        head = ast[0]
        if head == "if":
            self._arity(ast, 3)
            return ex.NumericIf(
                self.condition(ast[1]), self.numeric(ast[2]), self.numeric(ast[3])
            )
        if head in ("sum", "product") or (
            head in ("max", "min") and self._is_reduction(ast)
        ):
            return self._reduction(ast)
        if head in ("+", "*"):
            if len(ast) < 3:
                raise ExpressionParseError(f"({head} ...) needs at least two operands")
            expr = self.numeric(ast[1])
            for item in ast[2:]:
                expr = ex.NumericBinary(head, expr, self.numeric(item))
            return expr
        if head in ("-", "/"):
            self._arity(ast, 2)
            return ex.NumericBinary(head, self.numeric(ast[1]), self.numeric(ast[2]))
        if head in ("max", "min"):
            if len(ast) < 3:
                raise ExpressionParseError(f"({head} ...) needs at least two operands")
            node = ex.NumericMax if head == "max" else ex.NumericMin
            expr = self.numeric(ast[1])
            for item in ast[2:]:
                expr = node(expr, self.numeric(item))
            return expr
        if head == "abs":
            self._arity(ast, 1)
            return ex.NumericAbs(self.numeric(ast[1]))
        if head == "floor":
            self._arity(ast, 1)
            return ex.NumericFloor(self.numeric(ast[1]))
        if head == "ceil":
            self._arity(ast, 1)
            return ex.NumericCeil(self.numeric(ast[1]))
        if head == "card":
            self._arity(ast, 1)
            return ex.Cardinality(self.set_(ast[1]))
        if isinstance(head, str) and self.ctx.table_kind(head) in (
            INTEGER,
            CONTINUOUS,
            ELEMENT,
        ):
            return ex.NumericTable(head, tuple(self.element(a) for a in ast[1:]))
        raise ExpressionParseError(f"unknown numeric operator {head!r}")

    def _looks_like_set(self, ast: Ast) -> bool:
        if isinstance(ast, str):
            return self.ctx.variable_kind(ast) == SET or self.ctx.table_kind(ast) == SET
        if isinstance(ast, list) and ast:
            head = ast[0]
            if head in (
                "add",
                "remove",
                "union",
                "intersection",
                "difference",
                "complement",
                "set-of",
            ):
                return True
            return isinstance(head, str) and self.ctx.table_kind(head) == SET
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
        op, target, over = ast[0], ast[1], ast[2]
        if isinstance(target, str):
            name, prefix = target, ()
        elif isinstance(target, list) and target and isinstance(target[0], str):
            name = target[0]
            prefix = tuple(self.element(a) for a in target[1:])
        else:
            raise ExpressionParseError(f"({op} ...) needs a table to reduce")
        if self.ctx.table_kind(name) not in (INTEGER, CONTINUOUS, ELEMENT):
            raise ExpressionParseError(f"{name!r} is not a numeric table")
        return ex.SetReduce(op, name, self.set_(over), prefix)

    # -- condition -------------------------------------------------------

    def condition(self, ast: Ast) -> ex.Condition:
        if ast == "true" or ast is True:
            return ex.BoolConst(True)
        if ast == "false" or ast is False:
            return ex.BoolConst(False)
        if isinstance(ast, str):
            if self.ctx.table_kind(ast) == "boolean":
                return ex.BooleanTable(ast, ())
            raise ExpressionParseError(f"expected a condition, got symbol {ast!r}")
        if isinstance(ast, list) and ast:
            return self._condition_list(ast)
        raise ExpressionParseError(f"expected a condition, got {ast!r}")

    def _condition_list(self, ast: list) -> ex.Condition:
        head = ast[0]
        if head in _COMPARISONS:
            self._arity(ast, 2)
            return ex.Comparison(head, self.numeric(ast[1]), self.numeric(ast[2]))
        if head == "is_in":
            self._arity(ast, 2)
            return ex.SetMember(self.element(ast[1]), self.set_(ast[2]))
        if head == "is_subset":
            self._arity(ast, 2)
            return ex.SetSubset(self.set_(ast[1]), self.set_(ast[2]))
        if head == "is_empty":
            self._arity(ast, 1)
            return ex.SetIsEmpty(self.set_(ast[1]))
        if head == "not":
            self._arity(ast, 1)
            return ex.Not(self.condition(ast[1]))
        if head in ("and", "or"):
            if len(ast) < 3:
                raise ExpressionParseError(f"({head} ...) needs at least two operands")
            node = ex.And if head == "and" else ex.Or
            return node(tuple(self.condition(a) for a in ast[1:]))
        if isinstance(head, str) and self.ctx.table_kind(head) == "boolean":
            return ex.BooleanTable(head, tuple(self.element(a) for a in ast[1:]))
        raise ExpressionParseError(f"unknown condition operator {head!r}")

    @staticmethod
    def _arity(ast: list, count: int) -> None:
        if len(ast) != count + 1:
            raise ExpressionParseError(
                f"({ast[0]} ...) takes {count} arguments, got {len(ast) - 1}"
            )


def parse_set(text: str, ctx: ParseContext) -> ex.SetExpression:
    return _Parser(ctx).set_(read(text))


def parse_numeric(text: str, ctx: ParseContext) -> ex.NumericExpression:
    return _Parser(ctx).numeric(read(text))


def parse_condition(text: str, ctx: ParseContext) -> ex.Condition:
    return _Parser(ctx).condition(read(text))


def parse_effect(text: str, ctx: ParseContext, kind: str):
    parser = _Parser(ctx)
    ast = read(text)
    if kind == ELEMENT:
        return parser.element(ast)
    if kind == SET:
        return parser.set_(ast)
    return parser.numeric(ast)


def parse_cost(text: str, ctx: ParseContext) -> tuple[str, ex.NumericExpression]:
    """Split a transition cost text into (operator, weight term).

    The text must have the exact shape ``(+ w cost)`` or ``(max w cost)``
    where ``w`` never mentions ``cost``.
    """
    inner = ParseContext(ctx.metadata, ctx.tables, ctx.parameters, allow_cost=True)
    expr = _Parser(inner).numeric(read(text))
    bad = ExpressionParseError(
        "cost term must combine a weight with 'cost', as in (+ w cost) or (max w cost)"
    )
    if isinstance(expr, ex.NumericBinary) and expr.op == "+":
        operator, weight, tail = "+", expr.lhs, expr.rhs
    elif isinstance(expr, ex.NumericMax):
        operator, weight, tail = "max", expr.lhs, expr.rhs
    else:
        raise bad
    if not isinstance(tail, ex.SuccessorCost):
        raise bad
    if any(isinstance(node, ex.SuccessorCost) for node in ex.walk(weight)):
        raise bad
    return operator, weight


# ---------------------------------------------------------------------------
# Unparsing


def unparse(expr) -> str:
    """Render an expression back to grammar text."""
    e = ex
    if isinstance(expr, e.FromElement):
        return unparse(expr.operand)
    if isinstance(expr, (e.ElementConst,)):
        return str(expr.value)
    if isinstance(expr, e.NumericConst):
        value = expr.value
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        return repr(value) if isinstance(value, float) else str(value)
    if isinstance(expr, (e.ElementVar, e.NumericVar, e.SetVar)):
        return expr.name
    if isinstance(expr, (e.ElementTable, e.NumericTable, e.BooleanTable, e.SetTable)):
        if not expr.args:
            return expr.table
        return f"({expr.table} {' '.join(unparse(a) for a in expr.args)})"
    if isinstance(expr, e.ElementBinary):
        return f"({expr.op} {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.NumericBinary):
        return f"({expr.op} {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.NumericMin):
        return f"(min {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.NumericMax):
        return f"(max {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.NumericAbs):
        return f"(abs {unparse(expr.operand)})"
    if isinstance(expr, e.NumericFloor):
        return f"(floor {unparse(expr.operand)})"
    if isinstance(expr, e.NumericCeil):
        return f"(ceil {unparse(expr.operand)})"
    if isinstance(expr, e.Cardinality):
        return f"(card {unparse(expr.operand)})"
    if isinstance(expr, e.SetReduce):
        if expr.prefix:
            target = f"({expr.table} {' '.join(unparse(a) for a in expr.prefix)})"
        else:
            target = expr.table
        return f"({expr.op} {target} {unparse(expr.over)})"
    if isinstance(expr, (e.ElementIf, e.NumericIf)):
        return (
            f"(if {unparse(expr.condition)} {unparse(expr.then)} "
            f"{unparse(expr.otherwise)})"
        )
    if isinstance(expr, e.SetConst):
        from . import bitset

        items = " ".join(str(i) for i in bitset.members(expr.mask))
        return f"(set-of {expr.universe}{' ' + items if items else ''})"
    if isinstance(expr, e.SetAdd):
        return f"(add {unparse(expr.element)} {unparse(expr.operand)})"
    if isinstance(expr, e.SetRemove):
        return f"(remove {unparse(expr.element)} {unparse(expr.operand)})"
    if isinstance(expr, e.SetUnion):
        return f"(union {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.SetIntersection):
        return f"(intersection {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.SetDifference):
        return f"(difference {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.SetComplement):
        return f"(complement {unparse(expr.operand)})"
    if isinstance(expr, e.BoolConst):
        return "true" if expr.value else "false"
    if isinstance(expr, e.Comparison):
        return f"({expr.op} {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.SetMember):
        return f"(is_in {unparse(expr.element)} {unparse(expr.operand)})"
    if isinstance(expr, e.SetSubset):
        return f"(is_subset {unparse(expr.lhs)} {unparse(expr.rhs)})"
    if isinstance(expr, e.SetIsEmpty):
        return f"(is_empty {unparse(expr.operand)})"
    if isinstance(expr, e.Not):
        return f"(not {unparse(expr.operand)})"
    if isinstance(expr, e.And):
        return f"(and {' '.join(unparse(c) for c in expr.operands)})"
    if isinstance(expr, e.Or):
        return f"(or {' '.join(unparse(c) for c in expr.operands)})"
    if isinstance(expr, e.SuccessorCost):
        return "cost"
    raise TypeError(f"cannot unparse {expr!r}")


def unparse_cost(operator: str, weight) -> str:
    head = "+" if operator == "+" else "max"
    return f"({head} {unparse(weight)} cost)"
