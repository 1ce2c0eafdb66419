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
``IndexError``.  A function given a label (:meth:`Emitter.item`) runs in
one ``try`` whose handler names its faults: it prefixes each message with
the label (``"weight of 't': ..."``) and turns an ``IndexError`` into
:class:`UnknownSymbolError`.

A model's hot path is three fused functions (:class:`Queries`), which
the model serves as its own ``edges``, ``check_constraints`` and
``eval_dual_bound``: ``expand`` (base cases, then each transition's
guards, effects, the successor's state constraints when the model has
any, and weight), ``feasible`` and ``bound``.  Each declared transition
or constraint is a family (``Model.transition_families``), emitted once
from its lifted trees: a parameter leaf, also the element of the
membership guard of a set-bound parameter, is a constant with one value
per member, so one block holds every member's text, and each member's
row of constants is read off its row.  Where a rule decides on such a
constant (a clean, in-range dense slice, a constant condition, the
universe test of ``add`` and ``remove``) the members must agree; where
they do not, each member is emitted alone.  A ground transition is a
family of one member, emitted by the same rules.  Runs of rows of one
text, or of a repeated group of texts (CVRP's
``visit-j``/``visit-via-depot-j`` pairs), fold into a loop over the
rows, so the source keeps its size as the instance grows; source and
defaults are those of the model's ground copy.  On any fault a fused
function reruns the state through the separate queries
(:class:`Separate`), each labelled and returning costs converted as the
fused ones do, which name it; they and the unlabelled ``eval_*`` come
from the same emitter.  Code is cached by source text in a bounded dict,
so models of one structure share one code object; a function is that
code with the model's constants as its defaults, and a subtree nested
too deep for one body spills into a function of its own.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import linecache
import math
import operator
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


def _value(table: ex.Table, context: str, key: tuple):
    """``_read``'s value, or ``_MISSING`` where it raises (when evaluated)."""
    try:
        return _read(table, context, key)
    except Exception:
        return _MISSING


def _pair(table: ex.Table, pattern: tuple) -> tuple:
    return table, pattern


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


# Faults of the arithmetic, of reads past the end of a short state, and
# of evaluation (a table read out of range, a value of the wrong kind, a
# non-integer cost), which a labelled item names by where they arose.
_FAULTS = (ZeroDivisionError, OverflowError, IndexError, EvaluationError)


def _fault(err: Exception, where: str) -> EvaluationError:
    if isinstance(err, IndexError):
        return UnknownSymbolError(f"{where} reads a variable slot the state lacks")
    kind = err.__class__ if isinstance(err, EvaluationError) else EvaluationError
    return kind(f"{where}: {err}")


_GLOBALS = {  # all that generated code sees by name
    "__builtins__": builtins,
    "_number": _number,
    "_floor": lambda value: ex._check_int(math.floor(value)),
    "_ceil": lambda value: ex._check_int(math.ceil(value)),
    "_FAULTS": _FAULTS,
} | {
    fn.__name__: fn for fn in (_element, _fail, _read, _unknown_table, _divide, _cannot_add,
                               _beyond, _reduce, _integer_effect, _continuous_effect, _no_slot,
                               _fault)
}
_RANGE = f"-{_M} <= {{0}} <= {_M}"  # the 64-bit range test of a name


# ---------------------------------------------------------------------------
# Blocks and the emitter


class _Const:
    """A value known when the source is written: one value, or in a
    family's block an ``_Each``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Each:
    """A constant of a family's block that holds one value per member."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values


class _Split(Exception):
    """A rule's decision on a constant differs between a family's members."""


def _per(value, f, *args):
    """``f(*args, value)`` of a constant's value, member by member for an
    ``_Each``."""
    if value.__class__ is _Each:
        return _Each([f(*args, v) for v in value.values])
    return f(*args, value)


def _same(value, f):
    """``f`` of a constant's value, a decision every member must share:
    raises ``_Split`` where the members of an ``_Each`` differ."""
    if value.__class__ is not _Each:
        return f(value)
    decisions = set(map(f, value.values))
    if len(decisions) > 1:
        raise _Split
    return decisions.pop()


def _pattern(values) -> object:
    """Constants as one tuple constant, an ``_Each`` of tuples if any is one."""
    for v in values:
        if v.__class__ is _Each:
            break
    else:
        return tuple(values)
    n = len(v.values)
    return _Each(list(zip(*(v.values if v.__class__ is _Each else repeat(v, n)
                            for v in values))))


_known = functools.partial(operator.is_not, None)
_valued = functools.partial(operator.is_not, _MISSING)


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
    (``s0 = s[0]``), and lists them in ``slots``.

    The block of a family (:func:`_family`) stands for the member
    ``index``, or, with ``index`` None, for every member: then each
    constant that differs between them is an ``_Each``, and ``rows`` holds
    the members' rows.  ``params`` maps each parameter to its value, an
    ``_Each`` in the block for every member.
    """

    params, index, rows = None, 0, None  # a family's block sets them

    def __init__(self, emitter: "Emitter", fused=False):
        self.emitter = emitter
        self.naming = _FUSED_NAMES if fused else _NAMES  # the N-th constant's name
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
        return self.naming[len(self.row) - 1]

    def pick(self, values):
        """The member's value of ``values``, or an ``_Each`` of them all."""
        return _Each(values) if self.index is None else values[self.index]

    def share(self, name: str, value) -> str:
        self.shared[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return _TEMPS[self.temps - 1]

    def bind(self, text: str) -> str:
        """Emit ``name = text`` and return the name."""
        self.temps += 1
        name = _TEMPS[self.temps - 1]
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
        if self.slots is not None:
            self.slots.add(index)
            return f"s{index}"
        return self.bind(f"s[{index:d}]")

    def spill(self, expr) -> str:
        """Call a function of its own that evaluates ``expr``: one per
        member, so every member of a family is built alone."""
        if self.index is None:
            raise _Split
        fn = self.emitter.item("spill", lambda b: b.code(expr), None, self.params, self.index)
        return self.bind(f"{self.const(fn)}(s)")

    def checked(self, name: str) -> None:
        """The numeric result check of ``name``: NaN, the 64-bit range."""
        self.lines.append(self.indent + _CHECK.format(name))
        self.lines.append(f"{self.indent}    _number({name})")


class _Names(dict):
    """Names by number, each formatted on first use: ``_Names("k%d")[3]``
    is ``"k3"``.  Every block names each of its constants and temporaries,
    so a build looks names up rather than formatting them."""

    def __init__(self, pattern: str):
        self.pattern = pattern

    def __missing__(self, n: int) -> str:
        name = self[n] = self.pattern % n
        return name


_NAMES, _FUSED_NAMES, _TEMPS = map(_Names, ("k%d", "\x00%d\x00", "v%d"))
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

    def item(self, name: str, build, label=None, params=None, index=0) -> FunctionType:
        """The function of one block that returns what ``build(block)`` codes.
        With a ``label``, the block runs in one ``try`` whose handler raises
        any fault of ``_FAULTS`` as ``_fault`` names it at ``label``
        (``"weight of 't': ..."``); without, faults pass unnamed.  ``params``
        and ``index`` are a family member's, as in :class:`_Block`."""
        b = _Block(self)
        b.params, b.index = params, index
        b.open()
        if label is not None:
            b.emit("try:")
            b.open()
        result = b.test(build(b))
        b.emit(f"return {result}")
        if label is not None:
            b.close()
            b.emit("except _FAULTS as err:")
            b.emit(f"    raise _fault(err, {b.share('WHERE', label)}) from err")
        return _function(name, [*(f"k{n}" for n in range(len(b.row))), *b.shared],
                         lambda: b.lines, b.row + list(b.shared.values()))

    def evaluate(self, expr) -> FunctionType:
        return self.item("evaluate", lambda b: b.code(expr))

    def fused(self, name: str, parts, fallback) -> FunctionType:
        """``name`` over ``parts``, blocks and lines in order, a block once
        per member row (its ``rows``, or its one ``row``); runs of rows of
        one text fold into loops over them.  The body runs in one ``try``:
        on any exception the state goes to ``fallback``, called after the
        handler so that its error chains to no other."""
        shared, slots, ranges, params, defaults = {"FALLBACK": fallback}, set(), set(), [], []
        texts, items = [], []  # each line, and each block's text and row once per member row
        for p in parts:
            if p.__class__ is str:
                texts.append(object())
                items.append(p)
                continue
            shared.update(p.shared)
            slots.update(p.slots)
            ranges.update(p.ranges)
            rows = p.rows or (p.row,)
            texts += repeat("\n".join(p.lines), len(rows))
            items += rows
        runs, start = [], 0
        while start < len(items):
            period, count = (1, 1) if items[start].__class__ is str else _run(texts, start)
            runs.append((start, period, count, len(params)))
            if items[start].__class__ is not str and count == 1:
                params += [f"p{len(params) + k}" for k in range(len(items[start]))]
                defaults += items[start]
            elif count > 1:
                params.append(f"p{len(params)}")
                defaults.append([tuple(itertools.chain.from_iterable(items[first : first + period]))
                                 for first in range(start, start + period * count, period)])
            start += period * count

        def body():
            pad = "        "
            lines = ["    try:", *(f"{pad}s{k} = s[{k}]" for k in sorted(slots))]
            if ranges:  # a fault here sends the state to the separate queries
                tests = " and ".join(f"0 <= {i} < {n}" for i, n in sorted(ranges))
                lines += [f"{pad}if not ({tests}):", f"{pad}    raise IndexError"]
            for start, period, count, first in runs:
                if items[start].__class__ is str:
                    lines.append(pad + items[start])
                elif count == 1:
                    lines.append(_render(texts[start], pad, "p", first))
                else:
                    width = sum(map(len, items[start : start + period]))
                    lines.append(f"{pad}for ({''.join(f'k{k}, ' for k in range(width))}) in "
                                 f"p{first}:")
                    offset = 0
                    for k in range(start, start + period):
                        lines.append(_render(texts[k], pad + "    ", "k", offset))
                        offset += len(items[k])
            return lines + ["    except Exception:", "        pass", "    return FALLBACK(s)"]

        key = (name, tuple(sorted(ranges)), *shared, *(
            item if item.__class__ is str else (count > 1, *texts[start : start + period])
            for start, period, count, _ in runs for item in [items[start]]))
        return _function(name, params + list(shared), body, defaults + list(shared.values()), key)

    # -- tables --------------------------------------------------------

    def array(self, table: ex.Table, context: str, pattern):
        """The slice that ``pattern`` selects of a table clean in ``context``,
        or None.  A family's pattern selects one slice per member: their
        ``_Each``, or None unless every member has one."""
        key = (table.name, context, pattern)
        if key in self._arrays:
            return self._arrays[key]
        members = _pattern(pattern)
        if members.__class__ is _Each:
            array = _Each([self.array(table, context, p) for p in members.values])
            self._arrays[key] = array if _same(array, _known) else None
        else:
            layout = self._layouts.get(table.name)
            if layout is None:
                layout = self._layouts[table.name] = _Layout(table)
            array = layout.array if layout.clean(context) else None
            for p, n in zip(pattern, table.shape):
                if p is not None and not 0 <= p < n:
                    array = None
            if array is not None:
                array = _slice(array, pattern) if pattern else array
            self._arrays[key] = array
        return self._arrays[key]

    def derived(self, make, table: ex.Table, pattern):
        """``make(slice)`` of the clean numeric slice of ``pattern``, or None."""
        key = (table.name, make, pattern)
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


def _parameter(b, e):
    return _Const(b.params[e.name])


def _table_read(b, name: str, args, context: str):
    """A read of ``name`` at ``args`` in ``context``: an index into a clean
    dense slice behind a range check, or else the checked lookup."""
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
    array = em._arrays.get((name, context, pattern), _MISSING)  # a slice taken before
    if array is _MISSING:
        array = em.array(table, context, pattern) if len(args) == len(table.shape) else None
    if array is not None:
        if not free:
            return _Const(array)
        tests, index = [], ""
        for i, n in zip(codes, table.shape):
            if i.__class__ is not _Const:
                index += f"[{i}]"
                extent = em.extents.get(i, n + 1)  # a fused slot's object count
                if extent <= n:  # the function's entry checks that the slot is an object
                    bound = em.bounds.setdefault(extent, f"N{len(em.bounds)}")
                    b.ranges.add((i, b.share(bound, extent)))
                else:
                    tests.append(f"0 <= {i} < {b.const(n)}")
        if tests:
            b.emit(f"if not ({' and '.join(tests)}):")
            read = _per(_pattern(pattern), _pair, table)
            b.emit(f"    _fail({b.const(read)}, ({''.join(i + ', ' for i in free)}))")
        return b.bind(b.const(array) + index)
    if not free:  # a read that raises, for some members or all, when evaluated
        value = _per(_pattern(pattern), _value, table, context)
        if _same(value, _valued):
            return _Const(value)
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
        return b.code(e.then if _same(condition.value, bool) else e.otherwise)
    v = b.temp()
    for line, branch in ((f"if {b.test(condition)}:", e.then), ("else:", e.otherwise)):
        b.emit(line)
        b.open()
        b.emit(f"{v} = {b.value(branch)}")
        b.close()
    return v


def _set_add(b, e):
    j, universe = b.code(e.element), e.operand.universe
    if j.__class__ is _Const and _same(j.value, universe.__gt__):
        return b.bind(f"{b.value(e.operand)} | {b.const(_per(j.value, (1).__lshift__))}")
    element, u = b.atom(j), b.const(universe)
    b.emit(f"if {element} >= {u}:")
    b.emit(f"    _cannot_add({element}, {u})")
    return b.bind(f"{b.value(e.operand)} | 1 << {element}")


def _set_remove(b, e):
    j = b.code(e.element)
    if j.__class__ is _Const and _same(j.value, e.operand.universe.__gt__):
        keep = b.const(_per(j.value, _without))
    else:
        keep = f"~(1 << {b.atom(j)})"
    return b.bind(f"{b.value(e.operand)} & {keep}")


def _without(j: int) -> int:
    return ~(1 << j)


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
    pattern = _pattern([c.value if c.__class__ is _Const else None for c in codes])
    split, k = _per(pattern, em.derived, _split, table), free[0]
    if not _same(split, _known):
        return None
    p, q = (_per(split, operator.itemgetter(n)) for n in (0, 1))
    return codes[k], b.const(table.shape[k]), b.const(p), b.const(q)


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
        head = _pattern([p.value for p in prefix])
        sums = _per(head, lambda h: em.derived(_nibble_sums, table, h + (None,)))
    if not _same(sums, _known):
        heads = "".join(b.atom(p) + ", " for p in prefix)
        mask = b.value(e.over)
        return b.bind(f"_reduce({b.const(table)}, {b.const(_FOLDS[e.op])}, ({heads}), {mask})")
    rest, v, row = b.bind(b.value(e.over)), b.temp(), b.temp()
    n = b.const(table.shape[-1])
    b.emit(f"if {rest} >> {n}:")
    b.emit(f"    _beyond({b.const(_per(head, _pair, table))}, {n}, {rest})")
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
        return _Const(_per(code.value, operator.not_))
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
        fixed = constant and _same(code.value, bool) == short  # the later operands never run
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
    ex.ElementParameter: _parameter,
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
    ex.NumericParameter: _parameter,
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
            if not _same(code.value, bool):
                b.emit("pass")
                return False
            continue
        b.emit(f"if {b.test(code)}:")
        b.open()
    return True


def _family(block, names, combos, build, *args) -> list:
    """The blocks of a family's members, one per combination in ``combos``
    of the values of the parameters ``names``.  ``build(block, *args)``
    emits one block for them all, in which each parameter is a constant
    with a value per member, and the members' rows are read off its row.
    Where a rule's decision differs between members (``_Split``), each
    member is built alone, with its own values.  An item without
    parameters is a family of one member, built as itself."""
    if len(combos) == 1:  # one member, which nothing can split
        b = block()
        if names:
            b.params = dict(zip(names, combos[0]))
        build(b, *args)
        return [b]
    if len(combos) > 1:
        b = block()
        b.params = {name: _Each(values) for name, values in zip(names, zip(*combos))}
        b.index = None
        try:
            build(b, *args)
        except _Split:
            pass
        else:
            n = len(combos)
            columns = [v.values if v.__class__ is _Each else repeat(v, n) for v in b.row]
            b.rows = list(zip(*columns)) if columns else [()] * n
            return [b]
    blocks = []
    for m, combo in enumerate(combos):
        b = block()
        b.params, b.index = dict(zip(names, combo)), m
        build(b, *args)
        blocks.append(b)
    return blocks


def _successor(b, transition, variables) -> str:
    """The name of the successor tuple, each effect checked for its variable."""
    effects = dict(transition.effects)
    if effects and max(effects) >= len(variables):
        b.emit(f"_no_slot({b.const(min(i for i in effects if i >= len(variables)))})")
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


def _as_cost(b, name: str, costs, bound=False) -> str:
    """``name`` as a cost of the cost structure ``costs``: itself if of its
    ``value_class``, or else through its ``as_bound`` or ``as_cost``."""
    b.share("COST", costs.value_class)
    convert = b.share("BOUND_VALUE" if bound else "COST_VALUE",
                      costs.as_bound if bound else costs.as_cost)
    return b.bind(f"{name} if {name}.__class__ is COST else {convert}({name})")


class Queries:
    """The fused queries of one model, which it serves as its own: ``expand``
    is ``Model.edges``, ``feasible`` is ``check_constraints`` and ``bound``
    is ``eval_dual_bound`` (None without bounds).  Each family of
    transitions or constraints (``Model.transition_families``,
    ``constraint_families``) is emitted once, from its lifted trees, as
    one block with a row per member (:func:`_family`); the source and
    defaults are those of the ground model's blocks, one per member.  On
    any fault each query reruns the state through the same query of
    ``separate``, the model's one :class:`Separate`, which names it."""

    __slots__ = ("expand", "feasible", "bound", "separate")

    def __init__(self, model):
        objects, variables = model.metadata.objects, model.metadata.variables
        em = Emitter(model.tables, {f"s{k}": objects[v.object_type]
                                    for k, v in enumerate(variables) if v.kind == "element"})
        block = functools.partial(_Block, em, True)
        self.separate = separate = vars(model).get("_separate") or Separate(model)

        def refute(b, condition):
            if _guards(b, (ex.Not(condition),)):
                b.emit("return False")

        parts = []
        for condition, names, combos, _ in model.constraint_families:
            parts += _family(block, names, combos, refute, condition)
        self.feasible = em.fused("feasible", parts + ["return True"], separate.feasible)

        parts = ["best = None"]
        for bound in model.dual_bounds:
            b = block()
            v = _as_cost(b, b.value(bound), model.costs, bound=True)
            b.emit(f"if best is None or {v} {'>' if model.costs.minimize else '<'} best:")
            b.emit(f"    best = {v}")
            parts.append(b)
        self.bound = em.fused("bound", parts + ["return best"], separate.bound)

        single = len(model.base_cases) == 1
        parts = [] if single else ["base = []"]
        for case in model.base_cases:
            b = block()
            if _guards(b, case.conditions):
                v = _as_cost(b, b.value(case.cost), model.costs)
                b.emit(f"return {v}" if single else f"base.append({v})")
            b.share("REDUCE", min if model.costs.minimize else max)
            parts.append(b)
        if not single:
            parts += ["if base:", "    return base[0] if len(base) == 1 else REDUCE(base)"]

        def edge(b, transition, members):
            if _guards(b, transition.preconditions):
                successor = _successor(b, transition, variables)
                if model.constraints:  # else no call: every successor passes
                    b.emit(f"if {b.share('FEASIBLE', self.feasible)}({successor}):")
                    b.open()
                w = _as_cost(b, b.value(transition.weight), model.costs)
                edge = f"({b.const(b.pick(members))}, {successor}, {w})"
                b.emit(f"return [{edge}]" if transition.forced else f"append({edge})")
                if model.constraints:
                    b.close()
                if transition.forced:
                    b.emit("return []")

        parts += ["edges = []", "append = edges.append"]
        for transition, names, combos, where in model.transition_families:
            members = model.transitions[where.start : where.stop]
            parts += _family(block, names, combos, edge, transition, members)
        self.expand = em.fused("expand", parts + ["return edges"], separate.expand)


class Separate:
    """The queries of one model one by one, built kind by kind on first
    use: the edges ``(transition, guard, successor, weight)``, also keyed
    by transition id (``edge_of``), each base case's condition and cost,
    the state constraints and the dual bounds.  Each is complete: it
    raises its faults named where they arose (``"precondition of 't'"``,
    ``"effect of 't'"``, ``"weight of 't'"``, ``"base case k"`` for a
    base case's condition and cost, ``"state constraint k"``, ``"dual
    bound k"``), and returns weights, base costs and bounds as costs,
    converted as the fused queries convert them.  ``expand``, ``feasible``
    and ``bound`` answer as the fused queries do, the reference path they
    fall back on."""

    def __init__(self, model):
        # the model's parts, not the model: the model holds this object
        self._emitter, self._variables = Emitter(model.tables), model.metadata.variables
        self._transitions, self._base_cases = model.transitions, model.base_cases
        self._constraints, self._bounds = model.constraints, model.dual_bounds
        self._costs = model.costs

    def _test(self, name: str, conditions, label: str) -> FunctionType:
        return self._emitter.item(name, lambda b: _junction(b, ex.And(conditions)), label)

    def _cost(self, name: str, expr, label: str, bound=False) -> FunctionType:
        return self._emitter.item(
            name, lambda b: _as_cost(b, b.value(expr), self._costs, bound), label)

    def feasible(self, state) -> bool:
        """Whether ``state`` passes every state constraint."""
        return all(check(state) for check in self.constraints)

    def base_cost(self, state):
        """The best base cost over the base cases that hold, or None."""
        values = [cost(state) for holds, cost in self.base_cases if holds(state)]
        return self._costs.reduce(values) if values else None

    def applicable(self, state) -> list:
        """The edges to expand: the first applicable forced one alone,
        otherwise every applicable non-forced one in declaration order."""
        regular = []
        for edge in self.edges:
            if edge[1](state):
                if edge[0].forced:
                    return [edge]
                regular.append(edge)
        return regular

    def expand(self, state):
        """Every guard before any effect, then each successor's state
        constraints and the weight."""
        base = self.base_cost(state)
        if base is not None:
            return base
        edges = []
        for transition, _, successor, weight in self.applicable(state):
            child = successor(state)
            if self.feasible(child):
                edges.append((transition, child, weight(state)))
        return edges

    def bound(self, state):
        """The tightest bound, max when minimizing, or None without bounds."""
        bounds = [bound(state) for bound in self.bounds]
        return (max if self._costs.minimize else min)(bounds, default=None)

    @functools.cached_property
    def edges(self):
        item, variables = self._emitter.item, self._variables
        return tuple(
            (
                t,
                self._test("guard", t.preconditions, f"precondition of {t.name!r}"),
                item("successor", lambda b: _successor(b, t, variables), f"effect of {t.name!r}"),
                self._cost("weight", t.weight, f"weight of {t.name!r}"),
            )
            for t in self._transitions
        )

    @functools.cached_property
    def edge_of(self):
        return {id(edge[0]): edge for edge in self.edges}

    @functools.cached_property
    def base_cases(self):
        return tuple((self._test("base_case", case.conditions, f"base case {k}"),
                      self._cost("base_cost", case.cost, f"base case {k}"))
                     for k, case in enumerate(self._base_cases))

    @functools.cached_property
    def constraints(self):
        item = self._emitter.item
        return tuple(item("constraint", lambda b: b.code(condition), f"state constraint {k}")
                     for k, condition in enumerate(self._constraints))

    @functools.cached_property
    def bounds(self):
        return tuple(self._cost("bound", bound, f"dual bound {k}", bound=True)
                     for k, bound in enumerate(self._bounds))
