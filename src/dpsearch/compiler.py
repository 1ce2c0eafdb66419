"""Model queries as generated Python source, compiled once per structure.

Expression trees (:mod:`dpsearch.expressions`) are the intermediate
representation that the s-expression and YAML layers read and write and
that ``validate`` inspects; this module is the only place that evaluates
them.  An :class:`Emitter` writes the trees over one table registry as
the body of a Python function: one statement per operation followed by
its check (``v3 = v1 + v2``, then the 64-bit range and NaN test), with
conditions tested inline (``if s0 >> k0 & 1:``).  Every value a document
supplies (constants, table slices, names for messages) is a parameter of
the function, never text in its source.  Every operation is emitted where
the tree evaluates it, and every use of a constant is a parameter of its
own, named by its position, so the text of a block depends only on the
shape of its tree: the members of a family of transitions have one text
whatever their data.  A table read indexes a dense slice behind a range
check; a sum of a clean integer vector over a set adds one precomputed
partial sum per 4 bits of the mask; the floor or ceiling of ``a * p/q``
or of ``a / b`` is integer floor division while the operands are ints
and the result fits in 64 bits, and otherwise the general statements run.

Every check of the expression semantics stays and raises only when the
faulty node is evaluated: table arity, index range, missing keys, the
value kind each context expects (skipped for a slice whose every value
passes it), negative elements, the 64-bit range, NaN, division by zero
and the set universe.  A read past the end of a short state raises
``IndexError``, which the query entry points turn into
:class:`UnknownSymbolError`; they also prefix each message with where it
arose (``"weight of 't': ..."``).

A model's hot path is three fused functions (:class:`Queries`):
``expand`` (base cases, then each transition's guards, effects, the
successor's state constraints and weight), ``feasible`` and ``bound``.
Each transition, constraint, base case and bound is a block; runs of
blocks of one text, or of a repeated group of them (CVRP's
``visit-j``/``visit-via-depot-j`` pairs), fold into a loop over rows of
their constants, so the source keeps its size as the instance grows.
The separate queries that name faults (:class:`Separate`) and
``eval_*`` come from the same emitter.  Code is cached by source text
in a bounded dict, so models of one structure share one code object; a
function is that code with the model's constants as its defaults, and a
subtree nested too deep for one body spills into a function of its own.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import linecache
import math
import threading
from fractions import Fraction
from itertools import product, repeat
from types import FunctionType

from . import bitset
from . import expressions as ex
from .errors import EvaluationError, UnknownSymbolError

_M = ex.INT64_MAX
_MISSING = object()  # dense-table entry for a key without value or default
_DENSE_LIMIT = 1 << 16  # larger tables stay dense only while mostly filled
_CACHE_SIZE = 512  # compiled sources kept; the oldest goes first
_DEPTH = 40  # block nesting past which a subtree spills into its own function
_PERIOD = 4  # the longest group of blocks that folds into one loop


# ---------------------------------------------------------------------------
# Compiled code, by source text

_CODES: dict = {}  # source text, or a fused function's blocks, -> code
_CODES_LOCK = threading.Lock()
_SERIALS = itertools.count()


def _function(name: str, params, body, defaults, key=None) -> FunctionType:
    """``def name(s, *params)`` over the lines ``body()`` returns, with
    ``defaults`` bound to the params.  Code compiles once per ``key``, or
    per source text; ``linecache`` holds its source, for tracebacks."""
    text = lambda: f"def {name}({', '.join(['s', *params])}):\n" + "\n".join(body())  # noqa: E731
    source = None if key else text()
    key = key or source
    code = _CODES.get(key)
    if code is None:
        source = source or text()
        filename = f"<dpsearch queries {next(_SERIALS)}>"
        with _CODES_LOCK:
            if len(_CODES) >= _CACHE_SIZE:
                linecache.cache.pop(_CODES.pop(next(iter(_CODES))).co_filename, None)
            module = compile(source, filename, "exec")
            code = _CODES[key] = next(c for c in module.co_consts if hasattr(c, "co_code"))
            linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return FunctionType(code, _GLOBALS, name, tuple(defaults))


# ---------------------------------------------------------------------------
# Tables


_CONTEXTS = {
    "element": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    "set": lambda v: isinstance(v, int),
    "numeric": lambda v: not isinstance(v, bool) and isinstance(v, (int, float, Fraction)),
    "boolean": lambda v: isinstance(v, bool),
}
# Value types that pass each context check (element values must also be >= 0).
_CONTEXT_TYPES = {"element": {int}, "set": {int, bool}, "numeric": {int, float, Fraction},
                  "boolean": {bool}}


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


def _nibble_sums(column):
    """``sums[k][nibble]``: the sum of ``column[4 * k + j]`` over the bits ``j``
    of ``nibble``; None unless the column holds only ints."""
    if any(type(v) is not int for v in column):
        return None
    sums = []
    for base in range(0, len(column), 4):
        row = [0]
        for value in column[base : base + 4]:
            row += [partial + value for partial in row]
        sums.append(row)
    return tuple(sums)


# ---------------------------------------------------------------------------
# Helpers the generated code calls, mostly to raise


_number = ex._check_number  # the slow half of a numeric result check: NaN, 64-bit range


def _element(value, op: str):
    if value < 0:
        raise EvaluationError(f"negative element value {value} from {op}")
    return ex._check_int(value)


def _fail(read, indices):
    """Raise the lookup error of the key that ``indices`` complete in the
    read ``(table, pattern)``."""
    table, pattern = read
    free = iter(indices)
    table.lookup(tuple(next(free) if p is None else p for p in pattern))
    raise EvaluationError(f"bad key {indices} for table {table.name!r}")


def _read(table: ex.Table, context: str, key: tuple):
    """The read that checks everything: arity, range, missing keys and
    the value kind."""
    value = table.lookup(key)
    if _CONTEXTS[context](value):
        return value
    raise EvaluationError(f"table {table.name!r} produced {value!r} in {context} context")


def _unknown_table(name: str):
    raise UnknownSymbolError(f"unknown table {name!r}")


def _divide(a, b):
    if b == 0:
        raise ZeroDivisionError("numeric division by zero")
    if isinstance(a, float) or isinstance(b, float):
        return _number(a / b)
    return Fraction(a) / Fraction(b)


def _cannot_add(j, universe):
    raise EvaluationError(f"cannot add element {j} to a set over {universe} objects")


def _beyond(read, n: int, mask: int):
    """Raise the lookup error of the lowest member of ``mask`` at or past
    ``n`` in the read ``(table, head)``."""
    table, head = read
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


def _reduce(table: ex.Table, fold, head: tuple, mask: int):
    """The reduction that checks every member read."""
    items = [table.lookup(head + (j,)) for j in bitset.members(mask)]
    for value in items:
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise EvaluationError(f"table {table.name!r} produced {value!r} in numeric reduction")
    return fold(items)


def _integer_effect(v, variable: str):
    v = ex.collapse(v)
    if not isinstance(v, int) or isinstance(v, bool):
        raise EvaluationError(f"integer variable {variable!r} cannot take {v!r}")
    return v


def _continuous_effect(value, variable: str):
    v = float(value)
    if -math.inf < v < math.inf:
        return v
    raise EvaluationError(f"continuous variable {variable!r} cannot take {v!r}")


def _no_slot(index: int):
    raise UnknownSymbolError(f"assigns no variable slot {index}")


def _placeholder():
    raise EvaluationError("successor-cost placeholder cannot be evaluated")


_GLOBALS = {  # all that generated code sees by name
    "__builtins__": builtins,
    "_number": _number,
    "_floor": lambda value: ex._check_int(math.floor(value)),
    "_ceil": lambda value: ex._check_int(math.ceil(value)),
} | {
    fn.__name__: fn for fn in (_element, _fail, _read, _unknown_table, _divide, _cannot_add,
                               _beyond, _reduce, _integer_effect, _continuous_effect, _no_slot,
                               _placeholder)
}
_RANGE = f"-{_M} <= {{0}} <= {_M}"  # the 64-bit range test of a name


# ---------------------------------------------------------------------------
# Blocks and the emitter


class _Const:
    """A value known when the source is written."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Test(str):
    """A condition as an expression to test, not yet bound to a name."""


class _Block:
    """The statements of one block of a generated function.

    Every use of a constant appends its value to ``row`` and is named by
    its position there: ``kN`` for the N-th, or, in a ``fused`` block,
    ``\\x00N\\x00`` until ``_render`` names it.  Every operation is emitted
    where the tree evaluates it, so the block's text depends only on the
    shape of its tree, never on the values in its row.  ``shared`` maps
    the names of function-wide values (``COST``, ``FEASIBLE``) to them.
    ``code`` returns a :class:`_Const`, a :class:`_Test` or the name of a
    value it has emitted statements for; ``value``, a name.  A ``fused``
    block reads state slots once, at the top of the function
    (``s0 = s[0]``), and lists them in ``slots``."""

    def __init__(self, emitter: "Emitter", fused=False):
        self.emitter = emitter
        self.naming = "\x00%d\x00" if fused else "k%d"  # the N-th constant's name
        self.lines: list[str] = []
        self.depth = 0
        self.indent = ""
        self.row: list = []
        self.shared: dict = {}
        self.temps = 0
        self.slots = set() if fused else None
        self.ranges = set()  # (slot, bound) that the function's entry checks

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def open(self) -> None:
        self.depth += 1
        self.indent += "    "

    def close(self) -> None:
        self.depth -= 1
        self.indent = self.indent[4:]

    def const(self, value) -> str:
        self.row.append(value)
        return self.naming % (len(self.row) - 1)

    def share(self, name: str, value) -> str:
        self.shared[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"v{self.temps - 1}"

    def bind(self, text: str) -> str:
        """Emit ``name = text`` and return the name."""
        name = self.temp()
        self.lines.append(f"{self.indent}{name} = {text}")
        return name

    def code(self, expr):
        if self.depth > _DEPTH and expr.__class__ in _NESTING:
            return self.spill(expr)
        return _RULES[expr.__class__](self, expr)

    def value(self, expr) -> str:
        """``code`` as a name; one frame deep, as deep trees recurse here."""
        rule = _RULES[expr.__class__]
        if rule is _var:
            return self.slot(expr.index)
        if rule is _const:
            return self.const(expr.value)
        if self.depth > _DEPTH and expr.__class__ in _NESTING:
            return self.spill(expr)
        code = rule(self, expr)
        return code if code.__class__ is str else self.atom(code)

    def atom(self, code) -> str:
        """The name of a code's value."""
        if code.__class__ is str:
            return code
        if code.__class__ is _Const:
            return self.const(code.value)
        return self.bind(code)

    def test(self, code) -> str:
        """A code as an expression to test or return."""
        return code if code.__class__ is _Test else self.atom(code)

    def slot(self, index: int) -> str:
        if self.slots is not None and index >= 0:
            self.slots.add(index)
            return f"s{index}"
        return self.bind(f"s[{index:d}]")

    def spill(self, expr) -> str:
        """Call a function of its own that evaluates ``expr``."""
        fn = self.emitter.item("spill", lambda b: b.code(expr))
        return self.bind(f"{self.const(fn)}(s)")

    def checked(self, name: str) -> None:
        """The numeric result check of ``name``: NaN, the 64-bit range."""
        self.lines.append(self.indent + _CHECK.format(name))
        self.lines.append(f"{self.indent}    _number({name})")


_CHECK = f"if {{0}}.__class__ is not int or not {_RANGE.format('{0}')}:"


def _render(text: str, indent: str, prefix: str, offset: int) -> str:
    """A block's text indented, with its N-th constant named ``prefix(N + offset)``."""
    parts = (indent + text.replace("\n", "\n" + indent)).split("\x00")
    parts[1::2] = [f"{prefix}{int(n) + offset}" for n in parts[1::2]]
    return "".join(parts)


class Emitter:
    """Writes expression trees over one table registry as generated
    functions.  Dense tables and their slices are cached, so the
    functions of one emitter share them."""

    def __init__(self, tables: ex.TableRegistry, extents=None):
        self.named = {table.name: table for table in tables}
        self.extents = extents or {}  # fused slot name -> the object count of its variable
        self.bounds: dict[int, str] = {}  # the name of each bound on a slot
        self._layouts: dict[str, _Layout] = {}
        self._arrays: dict[tuple, object] = {}

    def item(self, name: str, build) -> FunctionType:
        """The function of one block that returns what ``build(block)`` codes."""
        b = _Block(self)
        b.open()
        result = b.test(build(b))
        b.emit(f"return {result}")
        return _function(name, [*(f"k{n}" for n in range(len(b.row))), *b.shared],
                         lambda: b.lines, b.row + list(b.shared.values()))

    def evaluate(self, expr) -> FunctionType:
        return self.item("evaluate", lambda b: b.code(expr))

    def fused(self, name: str, parts) -> FunctionType:
        """``name`` over ``parts``, blocks and lines in order; runs of
        blocks of one text fold into loops over rows of their constants."""
        blocks = [part for part in parts if part.__class__ is _Block]
        shared, slots, ranges, params, defaults = {}, set(), set(), [], []
        for block in blocks:
            shared.update(block.shared)
            slots.update(block.slots)
            ranges.update(block.ranges)
        texts = [object() if p.__class__ is str else "\n".join(p.lines) for p in parts]
        runs, start = [], 0
        while start < len(parts):
            period, count = (1, 1) if parts[start].__class__ is str else _run(texts, start)
            runs.append((start, period, count, len(params)))
            if parts[start].__class__ is not str and count == 1:
                params += [f"p{len(params) + k}" for k in range(len(parts[start].row))]
                defaults += parts[start].row
            elif count > 1:
                params.append(f"p{len(params)}")
                defaults.append([tuple(sum((p.row for p in parts[first : first + period]), []))
                                 for first in range(start, start + period * count, period)])
            start += period * count

        def body():
            pad = "    "
            lines = [f"{pad}s{k} = s[{k}]" for k in sorted(slots)]
            if ranges:  # a fault here sends the state to the separate queries
                tests = " and ".join(f"0 <= {i} < {n}" for i, n in sorted(ranges))
                lines += [f"{pad}if not ({tests}):", f"{pad}    raise IndexError"]
            for start, period, count, first in runs:
                if parts[start].__class__ is str:
                    lines.append(pad + parts[start])
                elif count == 1:
                    lines.append(_render(texts[start], pad, "p", first))
                else:
                    width = sum(len(block.row) for block in parts[start : start + period])
                    lines.append(f"{pad}for ({''.join(f'k{k}, ' for k in range(width))}) in "
                                 f"p{first}:")
                    offset = 0
                    for k in range(start, start + period):
                        lines.append(_render(texts[k], pad + "    ", "k", offset))
                        offset += len(parts[k].row)
            return lines

        key = (name, tuple(sorted(ranges)), *shared, *(
            part if part.__class__ is str else (count > 1, *texts[start : start + period])
            for start, period, count, _ in runs for part in [parts[start]]))
        return _function(name, params + list(shared), body, defaults + list(shared.values()), key)

    # -- tables --------------------------------------------------------

    def array(self, table: ex.Table, context: str, pattern):
        """The slice that ``pattern`` selects of a table clean in ``context``, or None."""
        key = (table.name, context, pattern)
        if key not in self._arrays:
            layout = self._layouts.get(table.name)
            if layout is None:
                layout = self._layouts[table.name] = _Layout(table)
            in_range = all(p is None or 0 <= p < n for p, n in zip(pattern, table.shape))
            array = None
            if in_range and layout.clean(context):
                array = _slice(layout.array, pattern) if pattern else layout.array
            self._arrays[key] = array
        return self._arrays[key]

    def derived(self, kind: str, table: ex.Table, pattern, make):
        """``make(slice)`` of the clean numeric slice of ``pattern``, or None."""
        key = (table.name, kind, pattern)
        if key not in self._arrays:
            array = self.array(table, "numeric", pattern)
            self._arrays[key] = None if array is None else make(array)
        return self._arrays[key]


def _run(texts, start: int) -> tuple[int, int]:
    """(period, count) of the longest run of a repeated group from ``start``."""
    best = (1, 1)
    for period in range(1, _PERIOD + 1):
        group = texts[start : start + period]
        if len(group) < period:
            break
        count = 1
        while texts[start + count * period : start + (count + 1) * period] == group:
            count += 1
        if count > 1 and period * count > best[0] * best[1]:
            best = (period, count)
    return best


# ---------------------------------------------------------------------------
# Rules: the code of each node type


def _const(b, e):
    return _Const(e.value)


def _var(b, e):
    return b.slot(e.index)


def _table_read(b, name: str, args, context: str):
    """A read of ``name`` at ``args`` in ``context``: an index into a clean
    dense slice behind a range check, or else the checked lookup.  Reads
    are the commonest node, so this runs no comprehension."""
    em = b.emitter
    table = em.named.get(name)
    if table is None:
        return b.bind(f"_unknown_table({b.const(name)})")
    codes, pattern, free = [], [], []
    for arg in args:
        code = _Const(arg.value) if arg.__class__ is ex.ElementConst else b.code(arg)
        codes.append(code)
        if code.__class__ is _Const:
            pattern.append(code.value)
        else:
            pattern.append(None)
            free.append(code)
    pattern = tuple(pattern)
    array = em._arrays.get((name, context, pattern), _MISSING)
    if array is _MISSING:
        array = em.array(table, context, pattern) if len(pattern) == len(table.shape) else None
    if array is not None:
        if not free:
            return _Const(array)
        tests, index, k = [], "", 0
        for p, n in zip(pattern, table.shape):
            if p is None:
                i, k = free[k], k + 1
                index += f"[{i}]"
                extent = em.extents.get(i, n + 1)  # a fused slot's object count
                if extent <= n:  # the function's entry checks that the slot is an object
                    bound = em.bounds.setdefault(extent, f"N{len(em.bounds)}")
                    b.ranges.add((i, b.share(bound, extent)))
                else:
                    tests.append(f"0 <= {i} < {b.const(n)}")
        if tests:
            b.emit(f"if not ({' and '.join(tests)}):")
            b.emit(f"    _fail({b.const((table, pattern))}, ({''.join(i + ', ' for i in free)}))")
        return b.bind(b.const(array) + index)
    if not free:
        try:
            return _Const(_read(table, context, pattern))
        except Exception:  # raises when evaluated
            pass
    atoms = "".join(b.atom(code) + ", " for code in codes)
    return b.bind(f"_read({b.const(table)}, {context!r}, ({atoms}))")


_ELEMENT_OPS = {"+": "+", "-": "-", "*": "*", "/": "//", "%": "%"}
_DIVISIONS = {"/": "element division by zero", "%": "element modulo by zero"}


def _element_binary(b, e):
    a, c = b.value(e.lhs), b.value(e.rhs)
    if e.op in _DIVISIONS:
        b.emit(f"if {c} == 0:")
        b.emit(f"    raise ZeroDivisionError({_DIVISIONS[e.op]!r})")
    v = b.bind(f"{a} {_ELEMENT_OPS[e.op]} {c}")
    b.emit(f"if not 0 <= {v} <= {_M}:")
    b.emit(f"    _element({v}, {e.op!r})")
    return v


def _if(b, e):
    condition = b.code(e.condition)
    if condition.__class__ is _Const:
        return b.code(e.then if condition.value else e.otherwise)
    v = b.temp()
    for line, branch in ((f"if {b.test(condition)}:", e.then), ("else:", e.otherwise)):
        b.emit(line)
        b.open()
        b.emit(f"{v} = {b.value(branch)}")
        b.close()
    return v


def _set_add(b, e):
    j, universe = b.code(e.element), e.operand.universe
    if j.__class__ is _Const and j.value < universe:
        return b.bind(f"{b.value(e.operand)} | {b.const(1 << j.value)}")
    element, u = b.atom(j), b.const(universe)
    b.emit(f"if {element} >= {u}:")
    b.emit(f"    _cannot_add({element}, {u})")
    return b.bind(f"{b.value(e.operand)} | 1 << {element}")


def _set_remove(b, e):
    j = b.code(e.element)
    if j.__class__ is _Const and j.value < e.operand.universe:
        keep = b.const(~(1 << j.value))
    else:
        keep = f"~(1 << {b.atom(j)})"
    return b.bind(f"{b.value(e.operand)} & {keep}")


def _binary(template: str):
    def rule(b, e):
        return b.bind(template.format(b.value(e.lhs), b.value(e.rhs)))

    return rule


def _unary(template: str):
    def rule(b, e):
        return b.bind(template.format(b.value(e.operand)))

    return rule


def _set_complement(b, e):
    full = b.const(bitset.full(e.operand.universe))
    return b.bind(f"{full} & ~{b.value(e.operand)}")


_NUMERIC_OPS = {"+": "+", "-": "-", "*": "*"}


def _arithmetic(b, op: str, a: str, c: str) -> str:
    if op == "/":
        return b.bind(f"_divide({a}, {c})")
    v = b.bind(f"{a} {_NUMERIC_OPS[op]} {c}")
    b.checked(v)
    return v


def _numeric_binary(b, e):
    return _arithmetic(b, e.op, b.value(e.lhs), b.value(e.rhs))


def _split(array):
    """The numerators and denominators of a slice of ints and Fractions."""
    if not {type(v) for v in array} <= {int, Fraction}:
        return None
    return tuple(v.numerator for v in array), tuple(v.denominator for v in array)


def _ratios(b, read):
    """For a numeric read with one free index into a slice of ints and Fractions:
    the index, the slice's length, and its numerators and denominators."""
    em = b.emitter
    if read.__class__ is not ex.NumericTable or read.table not in em.named:
        return None
    table = em.named[read.table]
    if len(read.args) != table.arity:
        return None
    codes = [b.code(a) for a in read.args]
    free = [k for k, c in enumerate(codes) if c.__class__ is not _Const]
    if len(free) != 1:
        return None
    pattern = tuple(c.value if c.__class__ is _Const else None for c in codes)
    split, k = em.derived("ratios", table, pattern, _split), free[0]
    if split is None:
        return None
    return (codes[k], b.const(table.shape[k]), *map(b.const, split))


def _rounding(helper: str, ceil: bool):
    """Floor or ceiling, with the integer fast path of the module docstring.
    The general statements take the left operand the fast path computed,
    so a chain of roundings is emitted once, not twice per link."""
    general = _unary(helper + "({0})")

    def rule(b, e):
        operand = e.operand
        if operand.__class__ is not ex.NumericBinary or operand.op not in ("/", "*"):
            return general(b, e)
        op, a = operand.op, b.value(operand.lhs)
        if op == "/":
            c = b.value(operand.rhs)
            test, fast = f"{a}.__class__ is int and {c}.__class__ is int and {c}", f"{a} // {c}"
        else:
            found = _ratios(b, operand.rhs)
            if found is None:
                return b.bind(f"{helper}({_arithmetic(b, op, a, b.value(operand.rhs))})")
            i, n, p, q = found
            test, fast = f"{a}.__class__ is int and 0 <= {i} < {n}", f"{a} * {p}[{i}] // {q}[{i}]"
        v = b.temp()
        b.emit(f"{v} = None")
        b.emit(f"if {test}:")
        b.emit(f"    {v} = -(-{fast})" if ceil else f"    {v} = {fast}")
        b.emit(f"    if not {_RANGE.format(v)}:")
        b.emit(f"        {v} = None")
        b.emit(f"if {v} is None:")
        b.open()
        c = c if op == "/" else b.value(operand.rhs)  # the checked read
        b.emit(f"{v} = {helper}({_arithmetic(b, op, a, c)})")
        b.close()
        return v

    return rule


def _set_reduce(b, e):
    em = b.emitter
    table = em.named.get(e.table)
    if table is None:
        return _table_read(b, e.table, (), "numeric")  # raises when evaluated
    prefix = [b.code(p) for p in e.prefix]
    sums = None
    if (e.op == "sum" and len(prefix) + 1 == table.arity
            and all(p.__class__ is _Const for p in prefix)):
        head = tuple(p.value for p in prefix)
        sums = em.derived("sums", table, head + (None,), _nibble_sums)
    if sums is None:
        heads = "".join(b.atom(p) + ", " for p in prefix)
        mask = b.value(e.over)
        return b.bind(f"_reduce({b.const(table)}, {b.const(_FOLDS[e.op])}, ({heads}), {mask})")
    rest, v, row = b.bind(b.value(e.over)), b.temp(), b.temp()
    n = b.const(table.shape[-1])
    b.emit(f"if {rest} >> {n}:")
    b.emit(f"    _beyond({b.const((table, head))}, {n}, {rest})")
    b.emit(f"{v} = 0")
    b.emit(f"for {row} in {b.const(sums)}:")
    b.emit(f"    if not {rest}:")
    b.emit("        break")
    b.emit(f"    {v} += {row}[{rest} & 15]")
    b.emit(f"    {rest} >>= 4")
    b.emit(f"if not {_RANGE.format(v)}:")
    b.emit(f"    _number({v})")
    return v


_COMPARISONS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _set_member(b, e):
    mask = b.value(e.operand)
    j = b.code(e.element)
    if j.__class__ is _Const:  # an element constant is never negative
        return _Test(f"{mask} >> {b.atom(j)} & 1")
    j = b.atom(j)
    return _Test(f"{j} >= 0 and {mask} >> {j} & 1")


def _not(b, e):
    code = b.code(e.operand)
    if code.__class__ is _Const:
        return _Const(not code.value)
    return _Test(f"not ({b.test(code)})")


def _junction(b, e):
    """And or Or: operands in order up to the first whose truth is ``short``
    (True for Or), each after the first in a block entered while none was."""
    result, short = None, e.__class__ is ex.Or
    for operand in e.operands:
        if result is not None:
            b.emit(f"if {'not ' if short else ''}{result}:")
            b.open()
        code = b.code(operand)
        constant = code.__class__ is _Const
        fixed = constant and bool(code.value) == short  # the later operands never run
        if result is None and not constant:
            result = b.bind(b.test(code))
        elif result is not None:
            b.emit(f"{result} = {short}" if fixed else "pass" if constant
                   else f"{result} = {b.test(code)}")
            b.close()
        if fixed:
            return _Const(short) if result is None else result
    return _Const(not short) if result is None else result


_RULES = {
    ex.ElementConst: _const,
    ex.ElementVar: _var,
    ex.ElementTable: lambda b, e: _table_read(b, e.table, e.args, "element"),
    ex.ElementBinary: _element_binary,
    ex.ElementIf: _if,
    ex.SetConst: lambda b, e: _Const(e.mask),
    ex.SetVar: _var,
    ex.SetTable: lambda b, e: _table_read(b, e.table, e.args, "set"),
    ex.SetAdd: _set_add,
    ex.SetRemove: _set_remove,
    ex.SetUnion: _binary("{0} | {1}"),
    ex.SetIntersection: _binary("{0} & {1}"),
    ex.SetDifference: _binary("{0} & ~{1}"),
    ex.SetComplement: _set_complement,
    ex.NumericConst: _const,
    ex.NumericVar: _var,
    ex.FromElement: lambda b, e: b.code(e.operand),
    ex.NumericTable: lambda b, e: _table_read(b, e.table, e.args, "numeric"),
    ex.NumericBinary: _numeric_binary,
    ex.NumericMin: _binary("{1} if {1} < {0} else {0}"),
    ex.NumericMax: _binary("{1} if {1} > {0} else {0}"),
    ex.NumericAbs: _unary("_number(abs({0}))"),
    ex.NumericFloor: _rounding("_floor", ceil=False),
    ex.NumericCeil: _rounding("_ceil", ceil=True),
    ex.SetReduce: _set_reduce,
    ex.Cardinality: _unary("{0}.bit_count()"),
    ex.NumericIf: _if,
    ex.SuccessorCost: lambda b, e: b.bind("_placeholder()"),
    ex.BoolConst: _const,
    ex.Comparison: lambda b, e: _Test(" ".join((b.value(e.lhs), _COMPARISONS[e.op],
                                                b.value(e.rhs)))),
    ex.SetMember: _set_member,
    ex.SetSubset: lambda b, e: _Test("{0} & {1} == {0}".format(b.value(e.lhs), b.value(e.rhs))),
    ex.SetIsEmpty: lambda b, e: _Test(f"{b.value(e.operand)} == 0"),
    ex.BooleanTable: lambda b, e: _table_read(b, e.table, e.args, "boolean"),
    ex.Not: _not,
    ex.And: _junction,
    ex.Or: _junction,
}
# The nodes whose statements open a nested block.
_NESTING = {ex.ElementIf, ex.NumericIf, ex.NumericFloor, ex.NumericCeil, ex.And, ex.Or}


# ---------------------------------------------------------------------------
# Model queries


def _guards(b, conditions) -> bool:
    """Open a block per condition, entered while they hold; False past a false constant."""
    for k, condition in enumerate(conditions):
        if b.depth > _DEPTH:  # the rest in a function of their own
            b.emit(f"if {b.spill(ex.And(tuple(conditions[k:])))}:")
            b.open()
            break
        code = b.code(condition)
        if code.__class__ is _Const:
            if not code.value:
                b.emit("pass")
                return False
            continue
        b.emit(f"if {b.test(code)}:")
        b.open()
    return True


def _successor(b, transition, variables) -> str:
    """The name of the successor tuple, each effect checked for its variable."""
    effects = dict(transition.effects)
    extra = set(effects) - set(range(len(variables)))
    if extra:
        b.emit(f"_no_slot({b.const(min(extra))})")
        return "None"
    values = []
    for index, variable in enumerate(variables):
        if index not in effects:
            values.append(b.slot(index))
            continue
        v = b.value(effects[index])
        if variable.kind in ("integer", "continuous"):
            name = b.share(f"V{index}", variable.name)
            if variable.kind == "integer":
                v = b.bind(f"{v} if {v}.__class__ is int else _integer_effect({v}, {name})")
            else:
                v = b.bind(f"_continuous_effect({v}, {name})")
        values.append(v)
    return b.bind(f"({''.join(v + ', ' for v in values)})")


def _as_cost(b, name: str, model, convert: str) -> str:
    """``name`` as a cost, through ``COST_VALUE`` or ``BOUND_VALUE`` if need be."""
    b.share("COST", model._cost_class)
    b.share(convert, model._cost_value if convert == "COST_VALUE" else model._bound_value)
    return b.bind(f"{name} if {name}.__class__ is COST else {convert}({name})")


class Queries:
    """The fused queries of one model: ``expand(state)`` returns what
    ``Model.edges`` does, ``feasible`` what ``check_constraints`` does and
    ``bound`` what ``eval_dual_bound`` does (None without bounds).  Each
    raises its faults unnamed, and the model reruns the state through the
    separate queries to name them."""

    __slots__ = ("expand", "feasible", "bound")

    def __init__(self, model):
        objects, variables = model.metadata.objects, model.metadata.variables
        em = Emitter(model.tables, {f"s{k}": objects[v.object_type]
                                    for k, v in enumerate(variables) if v.kind == "element"})
        block = functools.partial(_Block, em, fused=True)
        parts = []
        for condition in model.constraints:
            b = block()
            if _guards(b, (ex.Not(condition),)):
                b.emit("return False")
            parts.append(b)
        self.feasible = em.fused("feasible", parts + ["return True"])

        parts = ["best = None"]
        for bound in model.dual_bounds:
            b = block()
            v = _as_cost(b, b.value(bound), model, "BOUND_VALUE")
            b.emit(f"if best is None or {v} {'>' if model.costs.minimize else '<'} best:")
            b.emit(f"    best = {v}")
            parts.append(b)
        self.bound = em.fused("bound", parts + ["return best"])

        single = len(model.base_cases) == 1
        parts = [] if single else ["base = []"]
        for case in model.base_cases:
            b = block()
            if _guards(b, case.conditions):
                v = _as_cost(b, b.value(case.cost), model, "COST_VALUE")
                b.emit(f"return {v}" if single else f"base.append({v})")
            b.share("REDUCE", min if model.costs.minimize else max)
            parts.append(b)
        if not single:
            parts += ["if base:", "    return base[0] if len(base) == 1 else REDUCE(base)"]
        parts += ["edges = []", "append = edges.append"]
        for transition in model.transitions:
            b = block()
            if _guards(b, transition.preconditions):
                successor = _successor(b, transition, variables)
                b.emit(f"if {b.share('FEASIBLE', self.feasible)}({successor}):")
                b.open()
                w = _as_cost(b, b.value(transition.weight), model, "COST_VALUE")
                edge = f"({b.const(transition)}, {successor}, {w})"
                b.emit(f"return [{edge}]" if transition.forced else f"append({edge})")
                b.close()
                if transition.forced:
                    b.emit("return []")
            parts.append(b)
        self.expand = em.fused("expand", parts + ["return edges"])


class Separate:
    """The queries of one model one by one, built kind by kind on first
    use, each raising its own faults for the model to name: the edges
    ``(transition, guard, successor, weight)``, also keyed by transition
    id (``edge_of``), each base case's condition and cost, the state
    constraints and the dual bounds."""

    def __init__(self, model):
        # the model's parts, not the model: the model holds this object
        self._emitter, self._variables = Emitter(model.tables), model.metadata.variables
        self._transitions, self._base_cases = model.transitions, model.base_cases
        self._constraints, self._bounds = model.constraints, model.dual_bounds

    @functools.cached_property
    def edges(self):
        em, variables = self._emitter, self._variables
        return tuple(
            (
                t,
                em.item("guard", lambda b: _junction(b, ex.And(t.preconditions))),
                em.item("successor", lambda b: _successor(b, t, variables)),
                em.item("weight", lambda b: b.code(t.weight)),
            )
            for t in self._transitions
        )

    @functools.cached_property
    def edge_of(self):
        return {id(edge[0]): edge for edge in self.edges}

    @functools.cached_property
    def base_cases(self):
        em = self._emitter
        return tuple((em.item("base_case", lambda b: _junction(b, ex.And(case.conditions))),
                      em.item("base_cost", lambda b: b.code(case.cost)))
                     for case in self._base_cases)

    @functools.cached_property
    def constraints(self):
        return tuple(map(self._emitter.evaluate, self._constraints))

    @functools.cached_property
    def bounds(self):
        return tuple(map(self._emitter.evaluate, self._bounds))
