"""Domain/problem documents, model instantiation, and solver configs.

A model is described by two YAML 1.2 documents, a domain and a problem,
in the YAML-DyPDL format of didp-rs.  The declaration records below are
the schema: each field is one document key, in the order the keys are
written and checked; a field without a default is a required key, and
its metadata holds the reader that checks and converts the key's value.
Unknown keys are hard errors: a typo in ``dual_bounds`` must not silently
degrade solving.  A table's values are a map from keys (a multi-arity
key as an index list, a YAML complex key) or nested rows in row-major
order, which must give every key a value; ``serialize_model`` writes
rows whenever every key has a value.

``instantiate`` parses each expression text once.  In the texts of a
transition with ``parameters`` or a ``forall`` constraint, a parameter
reads as a parameter leaf, and the lifted transition or ``Forall`` goes
to ``Model``, which grounds it (see ``Transition``): so a malformed text
is rejected whatever the instance, even one that grounds no member.
Models built here are assumed acyclic, which every shipped model class
satisfies.
"""

from __future__ import annotations

import functools
import json
import math
import re
import reprlib
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Collection, Mapping, Optional

import yaml

from . import bitset
from . import expressions as ex
from . import sexpr
from .errors import DocumentError
from .model import (
    BaseCase,
    CONTINUOUS,
    CostStructure,
    ELEMENT,
    Forall,
    GREATER,
    INTEGER,
    LESS,
    MAXIMIZE,
    MINIMIZE,
    Model,
    SET,
    StateMetadata,
    Transition,
    Variable,
)
from .search import SOLVER_NAMES, Solution, SolverParams


# ---------------------------------------------------------------------------
# YAML plumbing.  Documents are read by PyYAML, on libyaml when PyYAML was
# built with it (several times faster than the pure-Python loader, which
# gives the same data); complex (sequence) keys become tuples.  They are
# written by ``_document_text`` below, which walks the maps and lists
# that ``serialize_model`` builds; the docstring of ``serialize_model``
# gives the layout and the scalar rules.

_BaseLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _Loader(_BaseLoader):
    def construct_mapping(self, node, deep=False):
        mapping = {}
        for key_node, value_node in node.value:
            key = self.construct_object(key_node, deep=True)
            if isinstance(key, list):
                key = tuple(key)
            try:
                hash(key)
            except TypeError:
                raise DocumentError(
                    f"map key {reprlib.repr(key)} on line {key_node.start_mark.line + 1} "
                    "must be a scalar or a list of scalars"
                ) from None
            mapping[key] = self.construct_object(value_node, deep=deep)
        return mapping


def _load(text: str) -> dict:
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as err:
        raise DocumentError(f"YAML syntax error: {err}") from err
    except UnicodeEncodeError as err:  # libyaml reads UTF-8: a lone surrogate
        raise DocumentError(f"document text is not valid Unicode: {err}") from err
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise DocumentError("document must be a YAML mapping")
    return data


_SHAPES = {
    dict: "a map",
    list: "a list",
    str: "a name",
    int: "an integer",
    bool: "true or false",
}


def _shaped(value, kind: type, where: str):
    """Return ``value`` if it is a ``kind`` (a bool is no integer), else
    raise a DocumentError naming ``where``."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise DocumentError(f"{where} must be {_SHAPES[kind]}, got {reprlib.repr(value)}")


def _reject_unknown(mapping, known: Collection[str], where: str) -> None:
    for key in _shaped(mapping, dict, where):
        if key not in known:
            raise DocumentError(f"unknown key {key!r} in {where}")


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise DocumentError(f"missing {key} in {where}")
    return mapping[key]


# ---------------------------------------------------------------------------
# Key readers: ``read(value, key, where)`` checks and converts a key's
# value; ``where`` names the map holding the key, formatted only on an error.


def _text(value, *_) -> str:
    """An expression entry as grammar text.  YAML reads an unquoted
    ``true``/``false`` as a bool, which the grammar spells in lower case."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _name(value, *_) -> str:
    return str(value)


def _as_is(value, *_):
    return value


def _name_or_null(value, key, where) -> Optional[str]:
    return None if value is None else _shaped(value, str, f"{key} in {where}")


def _shape(kind: type):
    def read(value, key, where):
        return value if type(value) is kind else _shaped(value, kind, f"{key} in {where}")
    return read


def _one_of(label: str, *choices):
    def read(value, *_):
        if value not in choices:
            raise DocumentError(f"bad {label} {value!r}")
        return value
    return read


def _list(entry):
    """A list, each entry read by ``entry(value, where)``."""
    shape = _shape(list)
    return lambda value, key, where: [entry(item, where) for item in shape(value, key, where)]


def _map(entry):
    """A map with its keys as text, each value read by ``entry(value, key)``."""
    shape = _shape(dict)
    return lambda value, key, where: {
        str(k): entry(v, k) for k, v in shape(value, key, where).items()
    }


def _records(cls, label: str):
    """A list of ``cls`` maps, each named ``label`` in messages."""
    return _list(lambda raw, where: _record(cls, raw, label))


def _parameter(raw, where: str) -> ParameterDecl:
    # A missing key is reported in the transition or constraint that holds it.
    return _record(ParameterDecl, raw, f"parameter in {where}", where)


def _parameters(value, key, where) -> list:
    """A parameter list; a single map is a one-parameter list."""
    return _list(_parameter)([value] if type(value) is dict else value, key, where)


def _constraint(raw, where: str) -> ConstraintDecl:
    if isinstance(raw, (str, bool)):  # a bare condition
        return ConstraintDecl(condition=_text(raw))
    return _record(ConstraintDecl, raw, "constraint")


def _key(read, *, names=False, **default):
    """A record field that is one document key, read by ``read``; required
    without a default.  ``names`` adds the value to the next keys' ``where``."""
    return field(metadata={"key": (read, not default, names)}, **default)


@functools.cache
def _schema(cls) -> dict:
    return {f.name: f.metadata["key"] for f in fields(cls)}


def _record(cls, raw, where: str, missing_in: Optional[str] = None):
    """The map ``raw`` read as a ``cls``: unknown keys are rejected, then each
    key is read in field order; a missing one is reported in ``missing_in or where``."""
    schema = _schema(cls)
    _reject_unknown(raw, schema, where)
    values = {}
    for key, (read, required, names) in schema.items():
        if key in raw:
            value = values[key] = read(raw[key], key, where)
            if names:
                where = f"{where} {value!r}"
        elif required:
            raise DocumentError(f"missing {key} in {missing_in or where}")
    return cls(**values)


# ---------------------------------------------------------------------------
# Documents


@dataclass
class ParameterDecl:
    name: str = _key(_name)
    object: str = _key(_name)


@dataclass
class VariableDecl:
    name: str = _key(_name)
    type: str = _key(_one_of("state variable type", ELEMENT, SET, INTEGER, CONTINUOUS))
    object: Optional[str] = _key(_name_or_null, default=None)
    preference: Optional[str] = _key(_one_of("preference", None, LESS, GREATER), default=None)


@dataclass
class TableDecl:
    name: str = _key(_name)
    type: str = _key(_one_of("table type", *ex.TABLE_KINDS))
    args: list[str] = _key(_list(_name), default_factory=list)
    default: object = _key(_as_is, default=None)
    object: Optional[str] = _key(_name_or_null, default=None)  # value object type for set tables


@dataclass
class TransitionDecl:
    name: str = _key(_name, names=True)
    parameters: list[ParameterDecl] = _key(_parameters, default_factory=list)
    preconditions: list[str] = _key(_list(_text), default_factory=list)
    effect: dict[str, str] = _key(_map(_text), default_factory=dict)
    cost: str = _key(_text, default="(+ 0 cost)")
    forced: bool = _key(_shape(bool), default=False)


@dataclass
class ConstraintDecl:
    condition: str = _key(_text)
    forall: Optional[ParameterDecl] = _key(
        lambda value, key, where: None if value is None else _parameter(value, where),
        default=None,
    )


@dataclass
class BaseCaseDecl:
    conditions: list[str] = _key(_list(_text))
    cost: str = _key(_text, default="0")


@dataclass(kw_only=True)
class DomainDocument:
    cost_type: str = _key(_one_of("cost_type", INTEGER, CONTINUOUS))
    reduce: str = _key(_one_of("reduce", MINIMIZE, MAXIMIZE))
    objects: list[str] = _key(
        _list(lambda value, _: _shaped(value, str, "object type")), default_factory=list
    )
    state_variables: list[VariableDecl] = _key(_records(VariableDecl, "state variable"))
    tables: list[TableDecl] = _key(_records(TableDecl, "table"), default_factory=list)
    transitions: list[TransitionDecl] = _key(_records(TransitionDecl, "transition"))
    constraints: list[ConstraintDecl] = _key(_list(_constraint), default_factory=list)
    base_cases: list[BaseCaseDecl] = _key(_records(BaseCaseDecl, "base case"))
    dual_bounds: list[str] = _key(_list(_text), default_factory=list)


@dataclass
class ProblemDocument:
    object_numbers: dict[str, int] = _key(
        _map(lambda value, name: _shaped(value, int, f"object count of {name!r}"))
    )
    target: dict[str, object] = _key(_shape(dict))
    table_values: dict[str, object] = _key(_shape(dict), default_factory=dict)


def parse_domain(text: str) -> DomainDocument:
    return _record(DomainDocument, _load(text), "domain document")


def parse_problem(text: str) -> ProblemDocument:
    return _record(ProblemDocument, _load(text), "problem document")


# ---------------------------------------------------------------------------
# Instantiation


def _numeric_value(raw, kind: str, where: str):
    if isinstance(raw, bool):
        raise DocumentError(f"boolean value in {where}")
    if isinstance(raw, str):
        try:
            raw = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"bad numeric value {raw!r} in {where}") from None
    if kind in (INTEGER, ELEMENT):
        if isinstance(raw, Fraction) and raw.denominator == 1:
            raw = int(raw)
        if not isinstance(raw, int):
            raise DocumentError(f"non-integer value {raw!r} in {where}")
        return raw
    if isinstance(raw, Fraction):
        return raw
    if not isinstance(raw, (int, float)):
        raise DocumentError(f"bad numeric value {raw!r} in {where}")
    if raw != raw:
        raise DocumentError(f"NaN value in {where}")
    return raw


def _set_value(value, universe: int, where: str) -> int:
    """An index list as a bitmask, its members checked against ``universe``."""
    if not isinstance(value, (list, tuple)):
        raise DocumentError(f"set value in {where} must be an index list")
    members = [_shaped(v, int, f"set member in {where}") for v in value]
    try:
        return bitset.from_items(members, universe)
    except ValueError as err:
        raise DocumentError(f"{err} in {where}") from None


def _read_rows(rows, shape: tuple, convert, where: str, values: dict, prefix=()) -> None:
    """Nested ``rows`` in row-major order into ``values`` by key.  A
    module-level function, so a loaded table is in no reference cycle."""
    here = f"row {list(prefix)} of {where}" if prefix else where
    count, inner = shape[len(prefix)], len(prefix) + 1 < len(shape)
    if not isinstance(rows, list) or len(rows) != count:
        raise DocumentError(f"{here} must list {count} {'rows' if inner else 'values'}")
    for index, row in enumerate(rows):
        if inner:
            _read_rows(row, shape, convert, where, values, (*prefix, index))
        else:
            values[(*prefix, index)] = convert(row, here)


def _table_from_decl(decl: TableDecl, objects: dict[str, int], raw_values) -> ex.Table:
    where = f"table {decl.name!r}"
    for arg in decl.args:
        if arg not in objects:
            raise DocumentError(f"unknown object type {arg!r} in {where}")
    shape = tuple(objects[a] for a in decl.args)
    value_universe = None
    if decl.type == "set":
        if decl.object is None:
            raise DocumentError(f"{where} needs an 'object' for its set values")
        if decl.object not in objects:
            raise DocumentError(f"unknown object type {decl.object!r} in {where}")
        value_universe = objects[decl.object]

    def convert(value, here=where):
        if decl.type == "boolean":
            if not isinstance(value, bool):
                raise DocumentError(f"non-boolean value {value!r} in {here}")
            return value
        if decl.type == "set":
            return _set_value(value, value_universe, here)
        return _numeric_value(value, decl.type, here)

    values: dict[tuple, object] = {}
    if raw_values is None:
        raw_values = {}
    if decl.args and isinstance(raw_values, list):
        _read_rows(raw_values, shape, convert, where, values)
    elif decl.args:
        if not isinstance(raw_values, dict):
            raise DocumentError(f"values of {where} must be a map or a list of rows")
        for key, value in raw_values.items():
            if not isinstance(key, tuple):
                key = (key,)
            key = tuple(_shaped(k, int, f"key of {where}") for k in key)
            if len(key) != len(shape):
                raise DocumentError(f"key {key} has wrong arity for {where}")
            for position, (index, bound) in enumerate(zip(key, shape)):
                if not 0 <= index < bound:
                    raise DocumentError(
                        f"index {index} out of range at position {position} in {where}"
                    )
            values[key] = convert(value)
    else:
        if isinstance(raw_values, dict) and raw_values:
            raise DocumentError(f"scalar {where} takes a single value")
        if not isinstance(raw_values, dict):
            values[()] = convert(raw_values)

    default = convert(decl.default) if decl.default is not None else None
    if default is None:
        total = math.prod(shape) if shape else 1
        if len(values) != total:
            raise DocumentError(
                f"{where} has {len(values)} of {total} values and no default"
            )
    return ex.Table(
        name=decl.name,
        kind=decl.type,
        shape=shape,
        values=values,
        default=default,
        value_universe=value_universe,
    )


def _target_state(
    metadata: StateMetadata, raw: dict[str, object]
) -> tuple:
    values = []
    seen = set()
    for var in metadata.variables:
        if var.name not in raw:
            raise DocumentError(f"target misses variable {var.name!r}")
        seen.add(var.name)
        value = raw[var.name]
        if var.kind == SET:
            universe = metadata.objects[var.object_type]
            values.append(_set_value(value, universe, f"target {var.name!r}"))
        elif var.kind == CONTINUOUS:
            values.append(float(_numeric_value(value, CONTINUOUS, "target")))
        else:
            values.append(_numeric_value(value, INTEGER, "target"))
    for name in raw:
        if name not in seen:
            raise DocumentError(f"target sets unknown variable {name!r}")
    return tuple(values)


def instantiate(domain: DomainDocument, problem: ProblemDocument) -> Model:
    """Ground a domain against a problem into a solvable model."""
    objects = {}
    for name in domain.objects:
        if name not in problem.object_numbers:
            raise DocumentError(f"object_numbers misses object type {name!r}")
        objects[name] = problem.object_numbers[name]
    for name in problem.object_numbers:
        if name not in domain.objects:
            raise DocumentError(f"object_numbers names unknown object type {name!r}")

    variables = [
        Variable(v.name, v.type, v.object, v.preference) for v in domain.state_variables
    ]
    metadata = StateMetadata(objects, variables)

    registry = ex.TableRegistry()
    declared = set()
    for decl in domain.tables:
        declared.add(decl.name)
        registry.add(_table_from_decl(decl, objects, problem.table_values.get(decl.name)))
    for name in problem.table_values:
        if name not in declared:
            raise DocumentError(f"table_values names unknown table {name!r}")

    target = _target_state(metadata, problem.target)

    def context(parameters=()):
        return sexpr.ParseContext(metadata, registry, {p.name: None for p in parameters})

    transitions = []
    operators = set()
    for decl in domain.transitions:
        ctx = context(decl.parameters)
        preconditions = tuple(sexpr.parse_condition(text, ctx) for text in decl.preconditions)
        effects = []
        for var_name, text in decl.effect.items():
            index = metadata.index(var_name)
            kind = metadata.variables[index].kind
            effects.append((index, sexpr.parse_effect(text, ctx, kind)))
        operator, weight = sexpr.parse_cost(decl.cost, ctx)
        operators.add(operator)
        parameters = tuple((p.name, p.object) for p in decl.parameters)
        transitions.append(
            Transition(decl.name, preconditions, tuple(effects), weight, decl.forced, parameters)
        )
    if len(operators) > 1:
        raise DocumentError("transitions mix + and max cost operators")
    operator = operators.pop() if operators else "+"

    constraints = []
    for decl in domain.constraints:
        forall = decl.forall
        condition = sexpr.parse_condition(decl.condition, context([forall] if forall else []))
        constraints.append(Forall((forall.name, forall.object), condition) if forall else condition)

    base_cases = [
        BaseCase(
            conditions=tuple(
                sexpr.parse_condition(text, context()) for text in decl.conditions
            ),
            cost=sexpr.parse_numeric(decl.cost, context()),
        )
        for decl in domain.base_cases
    ]

    dual_bounds = [sexpr.parse_numeric(text, context()) for text in domain.dual_bounds]

    costs = CostStructure(
        operator=operator,
        direction=domain.reduce,
        cost_type=domain.cost_type,
    )
    return Model(
        metadata=metadata,
        tables=registry,
        target=target,
        transitions=transitions,
        base_cases=base_cases,
        constraints=constraints,
        dual_bounds=dual_bounds,
        costs=costs,
    )


def load_model(domain_text: str, problem_text: str) -> Model:
    return instantiate(parse_domain(domain_text), parse_problem(problem_text))


# ---------------------------------------------------------------------------
# Serialization: model -> documents -> YAML text


def _value_out(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _table_value_out(table: ex.Table, value):
    """A set value as its member list, which ``load_model`` reads back."""
    return list(bitset.members(value)) if table.kind == "set" else _value_out(value)


def _rows(table: ex.Table, prefix=()):
    """A dense table's values under ``prefix`` as nested rows in row-major
    order; the innermost rows are tuples, which ``_flow`` writes as flow
    lists.  A key of the shape without a value raises ``KeyError``."""
    keys = [(*prefix, i) for i in range(table.shape[len(prefix)])]
    if len(prefix) + 1 < table.arity:
        return [_rows(table, key) for key in keys]
    return tuple(_table_value_out(table, table.values[key]) for key in keys)


# A plain scalar must match this conservative pattern (no indicator
# character, no ": " or " #", no leading or trailing space, nothing a
# flow list splits on) and the loader's resolver must read it as a
# string; every other string is double-quoted.
_PLAIN = re.compile(r"[-+]?[\w(./~$](?:[\w ()./+*<>=!~$^-]*[\w()./+*<>=!~$^-])?", re.ASCII)
_RESOLVER = yaml.resolver.Resolver()
_NON_ASCII = re.compile(r"[^\x20-\x7e]")  # what JSON escaping leaves unescaped
_SIMPLE_KEY_LIMIT = 1024  # YAML reads a longer implicit key as no key at all


def _escape(match: re.Match) -> str:
    code = ord(match[0])
    if 0xD800 <= code <= 0xDFFF:
        raise DocumentError(f"model text is not valid Unicode: lone surrogate \\u{code:04x}")
    return f"\\u{code:04x}" if code <= 0xFFFF else f"\\U{code:08x}"


def _flow(value) -> str:
    """A scalar, a list or tuple of them, or an empty map as one line of YAML."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        if _PLAIN.fullmatch(value) and _RESOLVER.resolve(
            yaml.ScalarNode, value, (True, False)
        ) == "tag:yaml.org,2002:str":
            return value
        return _NON_ASCII.sub(_escape, json.dumps(value, ensure_ascii=False))
    if kind is tuple or kind is list:
        return f"[{', '.join(map(_flow, value))}]"
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        if math.isinf(value):
            return ".inf" if value > 0 else "-.inf"
        text = repr(value)  # a model holds no NaN: tables and states reject it
        return text.replace("e", ".0e") if "e" in text and "." not in text else text
    if kind is dict and not value:
        return "{}"
    raise TypeError(f"no YAML form for {reprlib.repr(value)}")


def _write_block(value, indent: str, lines: list) -> None:
    """Append a non-empty map, or a non-empty list as a sequence, with its
    keys or dashes at ``indent``."""
    if type(value) is not dict:
        for item in value:
            _write_entry(item, indent, "- ", lines)
        return
    for key, item in value.items():
        key_text = _flow(key)
        if type(key) is tuple or len(key_text) > _SIMPLE_KEY_LIMIT:
            lines.append(f"{indent}? {key_text}")
            _write_entry(item, indent, ": ", lines)
        elif item and (type(item) is dict or type(item) is list):
            lines.append(f"{indent}{key_text}:")
            _write_block(item, indent + "  " if type(item) is dict else indent, lines)
        else:
            lines.append(f"{indent}{key_text}: {_flow(item)}")


def _write_entry(value, indent: str, lead: str, lines: list) -> None:
    """Append ``value`` after ``lead`` (a dash, or the colon of an explicit
    key) at ``indent``; a block continues two columns in."""
    if value and (type(value) is dict or type(value) is list):
        start = len(lines)
        _write_block(value, indent + "  ", lines)
        lines[start] = indent + lead + lines[start][len(indent) + 2:]
    else:
        lines.append(f"{indent}{lead}{_flow(value)}")


def _document_text(document: dict) -> str:
    lines: list[str] = []
    _write_block(document, "", lines)
    return "\n".join(lines) + "\n"


def serialize_model(model: Model) -> tuple[str, str]:
    """Render a model as (domain text, problem text).

    Transitions and constraints are written as the model declares them:
    a lifted transition as one entry with ``parameters``, a ``Forall`` as
    one constraint with ``forall``, and a ground one as itself, so the
    read-back model grounds to the same transitions and constraints and
    writes the same text.

    The text has PyYAML's block layout: maps indented two spaces, a list
    under a map key not indented, the innermost table rows (a set value
    inside one too) as flow lists ``[0, 2, 5]``, a 3-d table's rows as
    ``- - [..]``, a multi-arity key as ``? [0, 2]`` then ``: 4``, and no
    line folded.  An int is written by ``str``, a bool as ``true`` or
    ``false``, a float by ``repr`` with ``.0`` put before an exponent
    that has no dot (``1.0e-05``, which YAML 1.1 reads as a float) or as
    ``.inf``/``-.inf``.  A string is plain when it matches a conservative
    pattern and the loader's resolver reads it back as a string (``1/3``,
    ``(is_in 1 U)``); any other (``"1"``, ``"true"``, ``"a: b"``) is
    double-quoted with JSON's escapes, every character outside printable
    ASCII written as a ``\\u`` or ``\\U`` escape, so the text is ASCII.
    A key whose text is longer than the 1024 characters YAML allows an
    implicit key takes the explicit ``? key`` form.  A string holding a
    lone surrogate raises ``DocumentError``.
    """
    meta = model.metadata
    domain: dict = {
        "cost_type": model.costs.cost_type,
        "reduce": model.costs.direction,
        "objects": list(meta.objects),
        "state_variables": [],
        "tables": [],
        "transitions": [],
        "constraints": [],
        "base_cases": [],
        "dual_bounds": [sexpr.unparse(b) for b in model.dual_bounds],
    }
    for var in meta.variables:
        entry = {"name": var.name, "type": var.kind}
        if var.object_type is not None:
            entry["object"] = var.object_type
        if var.preference is not None:
            entry["preference"] = var.preference
        domain["state_variables"].append(entry)

    problem: dict = {
        "object_numbers": dict(meta.objects),
        "target": {},
        "table_values": {},
    }
    object_of_count = {}
    for name, count in meta.objects.items():
        object_of_count.setdefault(count, name)
    for var, value in zip(meta.variables, model.target):
        if var.kind == SET:
            problem["target"][var.name] = list(bitset.members(value))
        else:
            problem["target"][var.name] = _value_out(value)

    for table in model.tables:
        entry = {"name": table.name, "type": table.kind, "args": []}
        for count in table.shape:
            if count not in object_of_count:
                raise DocumentError(
                    f"table {table.name!r} indexes {count} objects, but no object "
                    "type has that count"
                )
            entry["args"].append(object_of_count[count])
        if table.default is not None:
            entry["default"] = _table_value_out(table, table.default)
        if table.kind == "set":
            if table.value_universe not in object_of_count:
                raise DocumentError(
                    f"set table {table.name!r} values range over {table.value_universe} "
                    "objects, but no object type has that count"
                )
            entry["object"] = object_of_count[table.value_universe]
        domain["tables"].append(entry)
        rows = None
        if table.shape and len(table.values) == math.prod(table.shape):
            try:
                rows = _rows(table)
            except KeyError:  # then a key lies outside the shape
                pass
        if rows is not None:
            problem["table_values"][table.name] = rows
        elif table.shape:  # a key without a value, or one outside the shape: the keyed map
            problem["table_values"][table.name] = {
                key[0] if len(key) == 1 else key: _table_value_out(table, value)
                for key, value in sorted(table.values.items())
            }
        elif () in table.values:  # a scalar with only a default reads back from the default
            problem["table_values"][table.name] = _table_value_out(table, table.values[()])

    for t in model.declared_transitions:
        entry: dict = {"name": t.name}
        if t.parameters:
            entry["parameters"] = [{"name": n, "object": b} for n, b in t.parameters]
        if t.preconditions:
            entry["preconditions"] = [sexpr.unparse(c) for c in t.preconditions]
        entry["effect"] = {
            meta.variables[i].name: sexpr.unparse(expr) for i, expr in t.effects
        }
        entry["cost"] = sexpr.unparse_cost(model.costs.operator, t.weight)
        if t.forced:
            entry["forced"] = True
        domain["transitions"].append(entry)

    domain["constraints"] = [
        {"condition": sexpr.unparse(c.condition),
         "forall": {"name": c.parameter[0], "object": c.parameter[1]}}
        if type(c) is Forall else {"condition": sexpr.unparse(c)}
        for c in model.declared_constraints
    ]
    domain["base_cases"] = [
        {
            "conditions": [sexpr.unparse(c) for c in case.conditions],
            "cost": sexpr.unparse(case.cost),
        }
        for case in model.base_cases
    ]
    if not domain["constraints"]:
        del domain["constraints"]
    if not domain["dual_bounds"]:
        del domain["dual_bounds"]
    if not domain["tables"]:
        del domain["tables"]
        del problem["table_values"]

    return _document_text(domain), _document_text(problem)


# ---------------------------------------------------------------------------
# Solver configuration and solution text


@dataclass
class SolverConfig:
    solver: str
    params: SolverParams


_PARAM_KEYS = tuple(f.name for f in fields(SolverParams))


def parse_solver_config(text: str) -> SolverConfig:
    data = _load(text)
    _reject_unknown(data, ("solver", *_PARAM_KEYS), "solver config")
    solver = _require(data, "solver", "solver config")
    if solver not in SOLVER_NAMES:
        raise DocumentError(f"unknown solver {solver!r}")
    kwargs = {}
    for key in _PARAM_KEYS:
        if key in data and data[key] is not None:
            kwargs[key] = data[key]
    try:
        params = SolverParams(**kwargs)
    except (TypeError, ValueError) as err:
        raise DocumentError(f"bad solver config: {err}") from err
    return SolverConfig(solver=solver, params=params)


def _format_number(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def write_solution(solution: Solution) -> str:
    """Line-oriented solution record, deterministic for fixture testing.

    Wall-clock figures are deliberately left out so identical runs give
    byte-identical files.
    """
    lines = [
        f"status: {solution.status.value}",
        f"cost: {_format_number(solution.cost)}",
        f"bound: {_format_number(solution.bound)}",
        f"transitions: {len(solution.transitions or [])}",
    ]
    lines.extend(solution.transitions or [])
    lines.append(f"expanded: {solution.expanded}")
    lines.append(f"generated: {solution.generated}")
    return "\n".join(lines) + "\n"
