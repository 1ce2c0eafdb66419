"""Lowering of expression trees into closures, once per model.

Expression trees (:mod:`dpsearch.expressions`) are the intermediate
representation that the s-expression and YAML layers read and write and
that ``validate`` inspects; this module is the only place that evaluates
them.  A :class:`Compiler` lowers trees over one table registry into
plain callables ``fn(state) -> value``:

* a subtree without state reads is folded into its value, so constant
  table reads, constant arithmetic and constant conditions cost nothing;
* a table read becomes an index into a dense row-major nested list,
  sliced once per distinct pattern of constant arguments (a TSPTW read
  ``c[i][j]`` with a fixed ``j`` indexes one shared column slice);
* a variable read is an ``operator.itemgetter`` per state slot, or an
  inline ``state[k]`` inside the closure that uses it;
* captures are bound as default arguments, which the interpreter reads
  fastest and which keep each closure small.

Lowering keeps every check of the expression semantics: table arity,
index range, missing keys, the value kind each context expects, negative
elements, the 64-bit integer range, NaN, division by zero and the set
universe.  A check moves to compile time only where it provably cannot
fire: a table slice whose every value passes the context check needs no
per-read check.  A node whose check does fire still raises only when it
is evaluated, so an unused faulty expression never breaks a model.  A
read past the end of a short state raises ``IndexError`` from the slot
read; the query entry points turn it into :class:`UnknownSymbolError`.

A model compiles its queries in two groups through :class:`cached`
attributes: :func:`transition_queries` (guards, successors, weights and
base cases, which expanding a state or replaying a path needs) and
:func:`state_queries` (state constraints and dual bounds).  Each group
compiles on the first query that needs it, with a compiler whose caches
are dropped afterwards, and is stored on the model without a lock: two
threads that race on a group both compile it and one result wins, which
is harmless because the closures are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product, repeat
import operator
from operator import itemgetter

from . import bitset
from . import expressions as ex
from .errors import EvaluationError, UnknownSymbolError

_M = ex.INT64_MAX
_INF = math.inf
_MISSING = object()  # dense-table entry for a key without value or default
_DENSE_LIMIT = 1 << 16  # larger tables stay dense only while mostly filled


class Const:
    """A value known at compile time."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Slot:
    """The read of state slot ``index``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class cached:
    """A non-data descriptor for one of the attributes that ``build``
    computes together: the first access to any of them stores them all
    in the instance, where later lookups find them directly."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        values = self.build(instance)
        instance.__dict__.update(values)
        return values[self.name]


def transition_queries(model) -> dict:
    """What expanding a state and replaying a path need: the guard of
    each transition, its successor and weight closures (keyed by the
    transition's id), and each base case's condition and cost."""
    c = Compiler(model.tables)
    variables = model.metadata.variables
    return {
        "_guards": tuple((t, c.conjunction(t.preconditions)) for t in model.transitions),
        "_successors": {id(t): c.successor(t, variables) for t in model.transitions},
        "_weights": {id(t): c.fn(t.weight) for t in model.transitions},
        "_base_checks": tuple(
            (c.conjunction(case.conditions), c.fn(case.cost)) for case in model.base_cases
        ),
    }


def state_queries(model) -> dict:
    """What filtering and ordering successors need: the state constraint
    and dual bound closures."""
    c = Compiler(model.tables)
    return {
        "_constraint_checks": tuple(c.fn(cond) for cond in model.constraints),
        "_bound_checks": tuple(c.fn(bound) for bound in model.dual_bounds),
    }


def _fold(fn, *parts):
    """``fn`` as a constant when every part is one and it evaluates
    cleanly; otherwise ``fn``, so that a fault raises only when evaluated."""
    for part in parts:
        if not isinstance(part, Const):
            return fn
    try:
        return Const(fn(()))
    except Exception:
        return fn


_number = ex._check_number  # the slow half of a numeric result check: NaN, 64-bit range


def _element(value, op: str):
    if value < 0:
        raise EvaluationError(f"negative element value {value} from {op}")
    return ex._check_int(value)


# ---------------------------------------------------------------------------
# Tables


_CONTEXTS = {
    "element": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    "set": lambda v: isinstance(v, int),
    "numeric": lambda v: not isinstance(v, bool) and isinstance(v, (int, float, Fraction)),
    "boolean": lambda v: isinstance(v, bool),
}
# Value types that pass each context check; element values must also be
# nonnegative.  Other types (int subclasses, say) are checked per value.
_CONTEXT_TYPES = {
    "element": {int},
    "set": {int, bool},
    "numeric": {int, float, Fraction},
    "boolean": {bool},
}
_LABELS = {
    "element": "element context",
    "set": "set context",
    "numeric": "numeric context",
    "boolean": "boolean context",
}


class _Layout:
    """A table spelled out: ``array`` nests lists in row-major order (a
    scalar table is its value), and ``flat`` lists every entry, with
    ``_MISSING`` for keys without value or default.  Both are None when
    the table is empty, or too large and sparse to spell out."""

    __slots__ = ("array", "flat", "types")

    def __init__(self, table: ex.Table):
        self.array = self.flat = None
        self.types = set()
        shape, values = table.shape, table.values
        size = math.prod(shape)
        if size == 0 or (size > _DENSE_LIMIT and size > 2 * len(values)):
            return
        default = _MISSING if table.default is None else table.default
        flat = list(map(values.get, product(*map(range, shape)), repeat(default, size)))
        array = flat
        for n in reversed(shape[1:]):
            array = [array[i : i + n] for i in range(0, len(array), n)]
        self.array = array if shape else flat[0]
        self.flat = flat
        self.types = set(map(type, flat))

    def clean(self, context: str) -> bool:
        """Whether every entry passes the check of ``context``."""
        if self.flat is None or not self.types <= _CONTEXT_TYPES[context]:
            return False
        return context != "element" or not self.flat or min(self.flat) >= 0


def _slice(array, pattern):
    """Fix the positions of ``pattern`` that hold an index; keep the
    ``None`` positions as the dimensions of the result."""
    head, rest = pattern[0], pattern[1:]
    if not rest:
        return array if head is None else array[head]
    if head is not None:
        return _slice(array[head], rest)
    if len(rest) == 1 and rest[0] is not None:  # a column
        return [row[rest[0]] for row in array]
    return [_slice(sub, rest) for sub in array]


def _fail(table: ex.Table, pattern, indices):
    """Raise the lookup error of the key that ``indices`` complete."""
    free = iter(indices)
    table.lookup(tuple(next(free) if p is None else p for p in pattern))
    raise EvaluationError(f"bad key {indices} for table {table.name!r}")


def _read1(array, arg, n, table, pattern):
    if isinstance(arg, Slot):

        def read(s, array=array, k=arg.index, n=n, table=table, pattern=pattern):
            i = s[k]
            if 0 <= i < n:
                return array[i]
            _fail(table, pattern, (i,))

    else:

        def read(s, array=array, a=arg, n=n, table=table, pattern=pattern):
            i = a(s)
            if 0 <= i < n:
                return array[i]
            _fail(table, pattern, (i,))

    return read


def _read_n(array, args, bounds, table, pattern):
    def read(s, array=array, args=args, bounds=bounds, table=table, pattern=pattern):
        indices = [a(s) for a in args]
        value = array
        for i, n in zip(indices, bounds):
            if not 0 <= i < n:
                _fail(table, pattern, indices)
            value = value[i]
        return value

    return read


# ---------------------------------------------------------------------------
# The compiler


class Compiler:
    """Lowers expression trees over one table registry into closures.

    ``fn(expr)`` returns the callable of an expression; ``code(expr)``
    returns a :class:`Const`, a :class:`Slot` or a callable, which lets a
    parent specialise on its children.  Dense tables, their slices and
    the closures of table reads are cached, so trees compiled by one
    compiler share them.
    """

    def __init__(self, tables: ex.TableRegistry):
        self.tables = tables
        self._getters: dict[int, itemgetter] = {}
        self._constants: dict[tuple, object] = {}
        self._layouts: dict[str, _Layout] = {}
        self._arrays: dict[tuple, object] = {}
        self._reads: dict[tuple, object] = {}
        self._codes: dict[int, tuple] = {}  # id(tree) -> (tree, code)

    def code(self, expr):
        """The code of ``expr``; a subtree object that several trees share
        compiles once."""
        known = self._codes.get(id(expr))
        if known is None:
            known = self._codes[id(expr)] = (expr, _RULES[type(expr)](self, expr))
        return known[1]

    def fn(self, expr):
        return self.callable(self.code(expr))

    def callable(self, code):
        if isinstance(code, Const):
            key = (type(code.value), code.value)
            constant = self._constants.get(key)
            if constant is None:
                constant = self._constants[key] = _constant(code.value)
            return constant
        if isinstance(code, Slot):
            getter = self._getters.get(code.index)
            if getter is None:
                getter = self._getters[code.index] = itemgetter(code.index)
            return getter
        return code

    def conjunction(self, conditions):
        """The callable of all ``conditions`` in order, as ``And`` would."""
        return self.callable(_junction(self, conditions, False))

    def successor(self, transition, variables):
        """The callable of ``transition``'s effects: the successor state,
        with each value checked against the kind of its variable."""
        effects = dict(transition.effects)
        parts = []
        for index, variable in enumerate(variables):
            if index not in effects:
                parts.append(self.callable(Slot(index)))
                continue
            value = self.fn(effects.pop(index))
            if variable.kind == "integer":
                value = _integer_effect(value, transition.name, variable.name)
            elif variable.kind == "continuous":
                value = _continuous_effect(value, transition.name, variable.name)
            parts.append(value)
        if effects:
            return _no_slot(transition.name, min(effects))
        return _tuple_of(parts)

    # -- tables --------------------------------------------------------

    def _layout(self, table: ex.Table) -> _Layout:
        layout = self._layouts.get(table.name)
        if layout is None:
            layout = self._layouts[table.name] = _Layout(table)
        return layout

    def _array(self, table: ex.Table, context: str, pattern):
        """The slice of ``table`` that ``pattern`` selects, when every
        entry of the table passes the context check; None sends the read
        to the checked lookup."""
        key = (table.name, context, pattern)
        if key not in self._arrays:
            layout = self._layout(table)
            in_range = all(p is None or 0 <= p < n for p, n in zip(pattern, table.shape))
            array = None
            if in_range and layout.clean(context):
                array = _slice(layout.array, pattern) if pattern else layout.array
            self._arrays[key] = array
        return self._arrays[key]

    def table_read(self, name: str, args, context: str):
        """A read of ``name`` at ``args`` whose value must pass the check
        of ``context``."""
        if name not in self.tables:

            def unknown(s, name=name):
                raise UnknownSymbolError(f"unknown table {name!r}")

            return unknown
        table = self.tables.lookup(name)
        codes = [self.code(a) for a in args]
        if len(codes) != table.arity:
            return self._checked_read(table, codes, context)
        pattern = tuple(c.value if isinstance(c, Const) else None for c in codes)
        key = (name, context, tuple(_arg_key(c) for c in codes))
        shared = None not in key[2]
        if shared and key in self._reads:
            return self._reads[key]
        array = self._array(table, context, pattern)
        if array is None:
            read = self._checked_read(table, codes, context)
        else:
            free = [c for c in codes if not isinstance(c, Const)]
            bounds = [n for p, n in zip(pattern, table.shape) if p is None]
            if not free:
                read = Const(array)
            elif len(free) == 1:
                read = _read1(array, free[0] if isinstance(free[0], Slot)
                              else self.callable(free[0]), bounds[0], table, pattern)
            else:
                read = _read_n(array, tuple(self.callable(c) for c in free),
                               tuple(bounds), table, pattern)
        if shared:
            self._reads[key] = read
        return read

    def _checked_read(self, table: ex.Table, codes, context: str):
        """The read that checks everything on every call: arity, range,
        missing keys and the value kind."""
        fns = tuple(self.callable(c) for c in codes)
        ok, label = _CONTEXTS[context], _LABELS[context]

        def read(s, lookup=table.lookup, fns=fns, ok=ok, label=label, name=table.name):
            value = lookup(tuple([f(s) for f in fns]))
            if ok(value):
                return value
            raise EvaluationError(f"table {name!r} produced {value!r} in {label}")

        return _fold(read, *codes)


def _integer_effect(value, transition: str, variable: str):
    def effect(s, value=value, transition=transition, variable=variable):
        v = value(s)
        if v.__class__ is int:
            return v
        v = ex.collapse(v)
        if not isinstance(v, int) or isinstance(v, bool):
            raise EvaluationError(
                f"effect of {transition!r} produced {v!r} for the "
                f"integer variable {variable!r}"
            )
        return v

    return effect


def _continuous_effect(value, transition: str, variable: str):
    def effect(s, value=value, transition=transition, variable=variable):
        v = float(value(s))
        if -_INF < v < _INF:
            return v
        raise EvaluationError(
            f"effect of {transition!r} produced {v!r} for the "
            f"continuous variable {variable!r}"
        )

    return effect


def _no_slot(transition: str, index: int):
    def effect(s):
        raise UnknownSymbolError(f"effect of {transition!r} assigns no variable slot {index}")

    return effect


def _tuple_of(parts):
    """The callable building ``tuple(part(s) for part in parts)``."""
    if len(parts) == 1:
        (a,) = parts
        return lambda s, a=a: (a(s),)
    if len(parts) == 2:
        a, b = parts
        return lambda s, a=a, b=b: (a(s), b(s))
    if len(parts) == 3:
        a, b, c = parts
        return lambda s, a=a, b=b, c=c: (a(s), b(s), c(s))
    if len(parts) == 4:
        a, b, c, d = parts
        return lambda s, a=a, b=b, c=c, d=d: (a(s), b(s), c(s), d(s))
    parts = tuple(parts)

    def build(s, parts=parts):
        values = []
        for part in parts:
            values.append(part(s))
        return tuple(values)

    return build


def _arg_key(code):
    """A cache key for a read argument, or None when it has none."""
    if isinstance(code, Const):
        return (type(code.value), code.value)
    if isinstance(code, Slot):
        return code.index
    return None


def _constant(value):
    def constant(s, value=value):
        return value

    return constant


# ---------------------------------------------------------------------------
# Element expressions


def _element_const(c, e):
    return Const(e.value)


def _slot(c, e):
    return Slot(e.index)


def _element_table(c, e):
    return c.table_read(e.table, e.args, "element")


def _element_binary(c, e):
    lhs, rhs, op = c.code(e.lhs), c.code(e.rhs), e.op
    if isinstance(rhs, Const) and op in ("+", "-") and not isinstance(lhs, Const):
        left, k = c.callable(lhs), rhs.value if op == "+" else -rhs.value

        def shifted(s, left=left, k=k, op=op):
            value = left(s) + k
            if 0 <= value <= _M:
                return value
            return _element(value, op)

        return shifted
    left, right, compute = c.callable(lhs), c.callable(rhs), _ELEMENT_OPS[op]

    def apply(s, left=left, right=right, compute=compute, op=op):
        a = left(s)
        b = right(s)
        if b == 0 and op in _DIVISIONS:
            raise ZeroDivisionError(_DIVISIONS[op])
        value = compute(a, b)
        return value if 0 <= value <= _M else _element(value, op)

    return _fold(apply, lhs, rhs)


_ELEMENT_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.floordiv,
    "%": operator.mod,
}
_DIVISIONS = {"/": "element division by zero", "%": "element modulo by zero"}


def _if(c, e):
    condition = c.code(e.condition)
    if isinstance(condition, Const):
        return c.code(e.then if condition.value else e.otherwise)
    test, then, otherwise = c.callable(condition), c.fn(e.then), c.fn(e.otherwise)

    def choose(s, test=test, then=then, otherwise=otherwise):
        return then(s) if test(s) else otherwise(s)

    return choose


# ---------------------------------------------------------------------------
# Set expressions


def _set_const(c, e):
    return Const(e.mask)


def _set_table(c, e):
    return c.table_read(e.table, e.args, "set")


def _set_add(c, e):
    item, operand, universe = c.code(e.element), c.code(e.operand), e.operand.universe
    element, mask = c.callable(item), c.callable(operand)

    def add(s, element=element, mask=mask, universe=universe):
        j = element(s)
        if j >= universe:
            raise EvaluationError(
                f"cannot add element {j} to a set over {universe} objects"
            )
        return mask(s) | (1 << j)

    return _fold(add, item, operand)


def _set_remove(c, e):
    item, operand = c.code(e.element), c.code(e.operand)
    if isinstance(item, Const) and not isinstance(operand, Const):
        keep = ~(1 << item.value)
        if isinstance(operand, Slot):

            def remove(s, k=operand.index, keep=keep):
                return s[k] & keep

        else:

            def remove(s, mask=operand, keep=keep):
                return mask(s) & keep

        return remove
    element, mask = c.callable(item), c.callable(operand)

    def remove(s, element=element, mask=mask):
        j = element(s)
        return mask(s) & ~(1 << j)

    return _fold(remove, item, operand)


def _set_binary(combine):
    def rule(c, e):
        lhs, rhs = c.code(e.lhs), c.code(e.rhs)
        left, right = c.callable(lhs), c.callable(rhs)

        def apply(s, left=left, right=right, combine=combine):
            return combine(left(s), right(s))

        return _fold(apply, lhs, rhs)

    return rule


def _set_complement(c, e):
    operand = c.code(e.operand)
    mask, full = c.callable(operand), bitset.full(e.operand.universe)

    def complement(s, mask=mask, full=full):
        return full & ~mask(s)

    return _fold(complement, operand)


# ---------------------------------------------------------------------------
# Numeric expressions


def _numeric_const(c, e):
    return Const(e.value)


def _from_element(c, e):
    return c.code(e.operand)


def _numeric_table(c, e):
    return c.table_read(e.table, e.args, "numeric")


def _numeric_binary(c, e):
    lhs, rhs, op = c.code(e.lhs), c.code(e.rhs), e.op
    if op == "/":
        left, right = c.callable(lhs), c.callable(rhs)

        def divide(s, left=left, right=right):
            a = left(s)
            b = right(s)
            if b == 0:
                raise ZeroDivisionError("numeric division by zero")
            if isinstance(a, float) or isinstance(b, float):
                return _number(a / b)
            return Fraction(a) / Fraction(b)

        return _fold(divide, lhs, rhs)
    if isinstance(rhs, Const) and not isinstance(lhs, Const) and op in ("+", "-"):
        k = rhs.value if op == "+" else -rhs.value
        if isinstance(lhs, Slot):

            def shifted(s, i=lhs.index, k=k):
                value = s[i] + k
                if value.__class__ is int and -_M <= value <= _M:
                    return value
                return _number(value)

        else:

            def shifted(s, left=lhs, k=k):
                value = left(s) + k
                if value.__class__ is int and -_M <= value <= _M:
                    return value
                return _number(value)

        return shifted
    left, right = c.callable(lhs), c.callable(rhs)
    if op == "+" and isinstance(lhs, Slot) and not isinstance(rhs, (Const, Slot)):

        def apply(s, i=lhs.index, right=right):
            value = s[i] + right(s)
            if value.__class__ is int and -_M <= value <= _M:
                return value
            return _number(value)

        return apply

    def apply(s, left=left, right=right, compute=_NUMERIC_OPS[op]):
        value = compute(left(s), right(s))
        if value.__class__ is int and -_M <= value <= _M:
            return value
        return _number(value)

    return _fold(apply, lhs, rhs)


_NUMERIC_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _numeric_max(c, e):
    lhs, rhs = c.code(e.lhs), c.code(e.rhs)
    left = c.callable(lhs)
    if isinstance(rhs, Const) and not isinstance(lhs, Const):

        def larger(s, left=left, b=rhs.value):
            a = left(s)
            return b if b > a else a

        return larger
    right = c.callable(rhs)

    def larger(s, left=left, right=right):
        a = left(s)
        b = right(s)
        return b if b > a else a

    return _fold(larger, lhs, rhs)


def _numeric_min(c, e):
    lhs, rhs = c.code(e.lhs), c.code(e.rhs)
    left, right = c.callable(lhs), c.callable(rhs)

    def smaller(s, left=left, right=right):
        a = left(s)
        b = right(s)
        return b if b < a else a

    return _fold(smaller, lhs, rhs)


def _numeric_unary(apply):
    def rule(c, e):
        operand = c.code(e.operand)
        inner = c.callable(operand)

        def unary(s, inner=inner, apply=apply):
            return apply(inner(s))

        return _fold(unary, operand)

    return rule


def _set_reduce(c, e):
    if e.table not in c.tables:
        return c.table_read(e.table, (), "numeric")  # raises when evaluated
    table = c.tables.lookup(e.table)
    prefix = [c.code(a) for a in e.prefix]
    over = c.code(e.over)
    col = None
    if len(prefix) + 1 == table.arity and all(isinstance(p, Const) for p in prefix):
        head = tuple(p.value for p in prefix)
        col = c._array(table, "numeric", head + (None,))
    if col is None:
        return _checked_reduce(c, e, table, prefix, over)
    mask_of, n, op = c.callable(over), len(col), e.op
    if op == "sum" and all(type(v) is int for v in col):

        def reduce(s, mask_of=mask_of, col=col, n=n, table=table, head=head):
            mask = mask_of(s)
            if mask >> n:
                _beyond(table, head, n, mask)
            value = 0
            base = 0
            while mask:
                for j in _BYTE_MEMBERS[mask & 255]:
                    value += col[base + j]
                mask >>= 8
                base += 8
            return value if -_M <= value <= _M else _number(value)

    else:
        fold = _FOLDS[op]

        def reduce(s, mask_of=mask_of, col=col, n=n, table=table, head=head, fold=fold):
            mask = mask_of(s)
            if mask >> n:
                _beyond(table, head, n, mask)
            return fold([col[j] for j in bitset.members(mask)])

    return _fold(reduce, over)


def _beyond(table: ex.Table, head: tuple, n: int, mask: int):
    """Raise the lookup error of the lowest member of ``mask`` at or past ``n``."""
    high = mask >> n << n
    table.lookup(head + ((high & -high).bit_length() - 1,))


def _extreme(pick, op):
    def extreme(items):
        if not items:
            raise EvaluationError(f"{op} reduction over an empty set")
        return pick(items)

    return extreme


_FOLDS = {
    "sum": lambda items: _number(sum(items)),
    "product": lambda items: _number(math.prod(items)),
    "max": _extreme(max, "max"),
    "min": _extreme(min, "min"),
}


def _checked_reduce(c, e, table, prefix, over):
    """The reduction that checks every member read."""
    heads = tuple(c.callable(p) for p in prefix)
    mask_of, fold, name = c.callable(over), _FOLDS[e.op], table.name

    def reduce(s, lookup=table.lookup, heads=heads, mask_of=mask_of, fold=fold, name=name):
        head = tuple([h(s) for h in heads])
        mask = mask_of(s)
        items = [lookup(head + (j,)) for j in bitset.members(mask)]
        for value in items:
            if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
                raise EvaluationError(
                    f"table {name!r} produced {value!r} in numeric reduction"
                )
        return fold(items)

    return _fold(reduce, *prefix, over)


_BYTE_MEMBERS = tuple(tuple(bitset.members(byte)) for byte in range(256))


def _cardinality(c, e):
    operand = c.code(e.operand)
    if isinstance(operand, Slot):

        def size(s, k=operand.index):
            return s[k].bit_count()

        return size
    mask = c.callable(operand)

    def size(s, mask=mask):
        return mask(s).bit_count()

    return _fold(size, operand)


def _successor_cost(c, e):
    def placeholder(s):
        raise EvaluationError("successor-cost placeholder cannot be evaluated")

    return placeholder


# ---------------------------------------------------------------------------
# Conditions


def _bool_const(c, e):
    return Const(e.value)


def _compare_const(op):
    """Comparisons of a computed left side with a constant right side."""
    if op == "<=":
        return lambda left, r: lambda s, left=left, r=r: left(s) <= r
    if op == "<":
        return lambda left, r: lambda s, left=left, r=r: left(s) < r
    if op == ">=":
        return lambda left, r: lambda s, left=left, r=r: left(s) >= r
    if op == ">":
        return lambda left, r: lambda s, left=left, r=r: left(s) > r
    if op == "=":
        return lambda left, r: lambda s, left=left, r=r: left(s) == r
    return lambda left, r: lambda s, left=left, r=r: left(s) != r


_COMPARE_CONST = {op: _compare_const(op) for op in ("<=", "<", ">=", ">", "=", "!=")}
_COMPARE = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "=": operator.eq,
    "!=": operator.ne,
}


def _comparison(c, e):
    lhs, rhs = c.code(e.lhs), c.code(e.rhs)
    if isinstance(rhs, Const) and not isinstance(lhs, Const):
        return _COMPARE_CONST[e.op](c.callable(lhs), rhs.value)
    left, right, compare = c.callable(lhs), c.callable(rhs), _COMPARE[e.op]

    def check(s, left=left, right=right, compare=compare):
        return compare(left(s), right(s))

    return _fold(check, lhs, rhs)


def _bit_test(e):
    """(slot, element, bit) when ``e`` tests whether a constant element
    is in (bit 1) or out of (bit 0) a set variable; otherwise None."""
    bit = 1
    if isinstance(e, ex.Not):
        e, bit = e.operand, 0
    if isinstance(e, ex.SetMember) and isinstance(e.operand, ex.SetVar):
        if isinstance(e.element, ex.ElementConst):
            return e.operand.index, e.element.value, bit
    return None


def _bit(k: int, j: int, bit: int):
    def test(s, k=k, j=j, bit=bit):
        return s[k] >> j & 1 == bit

    return test


def _set_member(c, e):
    found = _bit_test(e)
    if found is not None:
        return _bit(*found)
    operand, item = c.code(e.operand), c.code(e.element)
    mask, element = c.callable(operand), c.callable(item)

    def member(s, mask=mask, element=element):
        m = mask(s)
        return bitset.contains(m, element(s))

    return _fold(member, operand, item)


def _set_subset(c, e):
    lhs, rhs = c.code(e.lhs), c.code(e.rhs)
    left, right = c.callable(lhs), c.callable(rhs)

    def subset(s, left=left, right=right):
        a = left(s)
        return a & right(s) == a

    return _fold(subset, lhs, rhs)


def _set_is_empty(c, e):
    operand = c.code(e.operand)
    if isinstance(operand, Slot):

        def empty(s, k=operand.index):
            return s[k] == 0

        return empty
    mask = c.callable(operand)

    def empty(s, mask=mask):
        return mask(s) == 0

    return _fold(empty, operand)


def _boolean_table(c, e):
    return c.table_read(e.table, e.args, "boolean")


def _not(c, e):
    found = _bit_test(e)
    if found is not None:
        return _bit(*found)
    inner = c.code(e.operand)
    test = c.callable(inner)

    def negate(s, test=test):
        return not test(s)

    return _fold(negate, inner)


def _junction(c, operands, short: bool):
    """And (``short`` False) or Or (``short`` True): operands evaluated
    left to right up to the first one whose value is ``short``."""
    tests, result = [], not short  # the value when no operand is ``short``
    for operand in operands:
        code = c.code(operand)
        if isinstance(code, Const):
            if bool(code.value) == short:
                result = short  # later operands are never evaluated
                break
            continue
        tests.append((operand, c.callable(code)))
    if not tests:
        return Const(result)
    if result == short:
        # the value is fixed; the tests still run for the faults they raise
        tests.append((None, _constant(short)))
    if len(tests) == 1:
        return tests[0][1]
    if len(tests) == 2:
        (first, a), (_, b) = tests
        found = _bit_test(first)
        if found is not None:  # a set-membership guard, tested inline
            k, j, bit = found
            if short:
                return lambda s, k=k, j=j, bit=bit, b=b: s[k] >> j & 1 == bit or b(s)
            return lambda s, k=k, j=j, bit=bit, b=b: s[k] >> j & 1 == bit and b(s)
        if short:
            return lambda s, a=a, b=b: a(s) or b(s)
        return lambda s, a=a, b=b: a(s) and b(s)
    tests = tuple(test for _, test in tests)
    if short:

        def any_(s, tests=tests):
            for test in tests:
                if test(s):
                    return True
            return False

        return any_

    def all_(s, tests=tests):
        for test in tests:
            if not test(s):
                return False
        return True

    return all_


def _and(c, e):
    return _junction(c, e.operands, False)


def _or(c, e):
    return _junction(c, e.operands, True)


_RULES = {
    ex.ElementConst: _element_const,
    ex.ElementVar: _slot,
    ex.ElementTable: _element_table,
    ex.ElementBinary: _element_binary,
    ex.ElementIf: _if,
    ex.SetConst: _set_const,
    ex.SetVar: _slot,
    ex.SetTable: _set_table,
    ex.SetAdd: _set_add,
    ex.SetRemove: _set_remove,
    ex.SetUnion: _set_binary(operator.or_),
    ex.SetIntersection: _set_binary(operator.and_),
    ex.SetDifference: _set_binary(lambda a, b: a & ~b),
    ex.SetComplement: _set_complement,
    ex.NumericConst: _numeric_const,
    ex.NumericVar: _slot,
    ex.FromElement: _from_element,
    ex.NumericTable: _numeric_table,
    ex.NumericBinary: _numeric_binary,
    ex.NumericMin: _numeric_min,
    ex.NumericMax: _numeric_max,
    ex.NumericAbs: _numeric_unary(lambda v: _number(abs(v))),
    ex.NumericFloor: _numeric_unary(lambda v: ex._check_int(math.floor(v))),
    ex.NumericCeil: _numeric_unary(lambda v: ex._check_int(math.ceil(v))),
    ex.SetReduce: _set_reduce,
    ex.Cardinality: _cardinality,
    ex.NumericIf: _if,
    ex.SuccessorCost: _successor_cost,
    ex.BoolConst: _bool_const,
    ex.Comparison: _comparison,
    ex.SetMember: _set_member,
    ex.SetSubset: _set_subset,
    ex.SetIsEmpty: _set_is_empty,
    ex.BooleanTable: _boolean_table,
    ex.Not: _not,
    ex.And: _and,
    ex.Or: _or,
}
