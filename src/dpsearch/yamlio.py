"""Domain/problem documents, model instantiation, and solver configs.

A model is described by two YAML 1.2 documents.  The domain file keys:
``cost_type`` (integer|continuous), ``reduce`` (min|max), ``objects``
(list of object-type names), ``state_variables`` (name/type/object/
preference), ``tables`` (name/type/args plus optional ``default`` and,
for set-valued tables, ``object``), ``transitions`` (name/parameters/
preconditions/effect/cost/forced), ``constraints`` (condition with an
optional single-parameter ``forall``), ``base_cases`` (conditions/cost),
and ``dual_bounds``.  The problem file keys: ``object_numbers``,
``target``, and ``table_values``; multi-arity table keys are written as
index lists (YAML complex keys).  Unknown keys are hard errors: a typo
in ``dual_bounds`` must not silently degrade solving.

A transition parameter bound to a set variable ranges over that
variable's value in the target state and adds the membership
precondition; a ``forall`` constraint bound to a set variable grounds to
the guarded disjunction (not member) or (condition).  Models built here
are assumed acyclic, which every shipped model class satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import yaml

from . import bitset
from . import expressions as ex
from . import sexpr
from .errors import DocumentError, UnknownSymbolError
from .model import (
    BaseCase,
    CONTINUOUS,
    CostStructure,
    ELEMENT,
    INTEGER,
    MAXIMIZE,
    MINIMIZE,
    Model,
    SET,
    StateMetadata,
    Transition,
    Variable,
)
from .search import SOLVER_NAMES, Solution, SolverParams

Number = Union[int, float]


# ---------------------------------------------------------------------------
# YAML plumbing: complex (sequence) keys become tuples


class _Loader(yaml.SafeLoader):
    def construct_mapping(self, node, deep=False):
        mapping = {}
        for key_node, value_node in node.value:
            key = self.construct_object(key_node, deep=True)
            if isinstance(key, list):
                key = tuple(key)
            mapping[key] = self.construct_object(value_node, deep=deep)
        return mapping


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(
    tuple,
    lambda dumper, data: dumper.represent_sequence(
        "tag:yaml.org,2002:seq", list(data), flow_style=True
    ),
)


def _load(text: str) -> dict:
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as err:
        raise DocumentError(f"YAML syntax error: {err}") from err
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise DocumentError("document must be a YAML mapping")
    return data


def _reject_unknown(mapping: Mapping, known: Sequence[str], where: str) -> None:
    for key in mapping:
        if key not in known:
            raise DocumentError(f"unknown key {key!r} in {where}")


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise DocumentError(f"missing {key} in {where}")
    return mapping[key]


# ---------------------------------------------------------------------------
# Documents


@dataclass
class VariableDecl:
    name: str
    type: str
    object: Optional[str] = None
    preference: Optional[str] = None


@dataclass
class TableDecl:
    name: str
    type: str
    args: list[str] = field(default_factory=list)
    default: object = None
    object: Optional[str] = None  # value object type for set tables


@dataclass
class ParameterDecl:
    name: str
    object: str


@dataclass
class TransitionDecl:
    name: str
    parameters: list[ParameterDecl] = field(default_factory=list)
    preconditions: list[str] = field(default_factory=list)
    effect: dict[str, str] = field(default_factory=dict)
    cost: str = "(+ 0 cost)"
    forced: bool = False


@dataclass
class ConstraintDecl:
    condition: str
    forall: Optional[ParameterDecl] = None


@dataclass
class BaseCaseDecl:
    conditions: list[str]
    cost: str = "0"


@dataclass
class DomainDocument:
    cost_type: str
    reduce: str
    objects: list[str] = field(default_factory=list)
    state_variables: list[VariableDecl] = field(default_factory=list)
    tables: list[TableDecl] = field(default_factory=list)
    transitions: list[TransitionDecl] = field(default_factory=list)
    constraints: list[ConstraintDecl] = field(default_factory=list)
    base_cases: list[BaseCaseDecl] = field(default_factory=list)
    dual_bounds: list[str] = field(default_factory=list)


@dataclass
class ProblemDocument:
    object_numbers: dict[str, int]
    target: dict[str, object]
    table_values: dict[str, object] = field(default_factory=dict)


def _parse_parameter(raw, where: str) -> ParameterDecl:
    if not isinstance(raw, dict):
        raise DocumentError(f"parameter in {where} must be a map")
    _reject_unknown(raw, ("name", "object"), where)
    return ParameterDecl(
        name=str(_require(raw, "name", where)),
        object=str(_require(raw, "object", where)),
    )


def parse_domain(text: str) -> DomainDocument:
    data = _load(text)
    where = "domain document"
    _reject_unknown(
        data,
        (
            "cost_type",
            "reduce",
            "objects",
            "state_variables",
            "tables",
            "transitions",
            "constraints",
            "base_cases",
            "dual_bounds",
        ),
        where,
    )
    cost_type = _require(data, "cost_type", where)
    if cost_type not in (INTEGER, CONTINUOUS):
        raise DocumentError(f"bad cost_type {cost_type!r}")
    reduce_ = _require(data, "reduce", where)
    if reduce_ not in (MINIMIZE, MAXIMIZE):
        raise DocumentError(f"bad reduce {reduce_!r}")

    objects = data.get("objects", [])
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise DocumentError("objects must be a list of names")

    variables = []
    for raw in _require(data, "state_variables", where):
        _reject_unknown(raw, ("name", "type", "object", "preference"), "state variable")
        kind = _require(raw, "type", "state variable")
        if kind not in (ELEMENT, SET, INTEGER, CONTINUOUS):
            raise DocumentError(f"bad state variable type {kind!r}")
        preference = raw.get("preference")
        if preference not in (None, "less", "greater"):
            raise DocumentError(f"bad preference {preference!r}")
        variables.append(
            VariableDecl(
                name=str(_require(raw, "name", "state variable")),
                type=kind,
                object=raw.get("object"),
                preference=preference,
            )
        )

    tables = []
    for raw in data.get("tables", []):
        _reject_unknown(raw, ("name", "type", "args", "default", "object"), "table")
        kind = _require(raw, "type", "table")
        if kind not in ex.TABLE_KINDS:
            raise DocumentError(f"bad table type {kind!r}")
        args = raw.get("args", [])
        if not isinstance(args, list):
            raise DocumentError("table args must be a list of object types")
        tables.append(
            TableDecl(
                name=str(_require(raw, "name", "table")),
                type=kind,
                args=[str(a) for a in args],
                default=raw.get("default"),
                object=raw.get("object"),
            )
        )

    transitions = []
    for raw in _require(data, "transitions", where):
        _reject_unknown(
            raw,
            ("name", "parameters", "preconditions", "effect", "cost", "forced"),
            "transition",
        )
        params_raw = raw.get("parameters", [])
        if isinstance(params_raw, dict):
            params_raw = [params_raw]
        name = str(_require(raw, "name", "transition"))
        transitions.append(
            TransitionDecl(
                name=name,
                parameters=[
                    _parse_parameter(p, f"transition {name!r}") for p in params_raw
                ],
                preconditions=[str(p) for p in raw.get("preconditions", [])],
                effect={str(k): str(v) for k, v in raw.get("effect", {}).items()},
                cost=str(raw.get("cost", "(+ 0 cost)")),
                forced=bool(raw.get("forced", False)),
            )
        )

    constraints = []
    for raw in data.get("constraints", []):
        if isinstance(raw, str):
            constraints.append(ConstraintDecl(condition=raw))
            continue
        _reject_unknown(raw, ("condition", "forall"), "constraint")
        forall = raw.get("forall")
        constraints.append(
            ConstraintDecl(
                condition=str(_require(raw, "condition", "constraint")),
                forall=_parse_parameter(forall, "constraint") if forall else None,
            )
        )

    base_cases = []
    for raw in _require(data, "base_cases", where):
        _reject_unknown(raw, ("conditions", "cost"), "base case")
        base_cases.append(
            BaseCaseDecl(
                conditions=[str(c) for c in _require(raw, "conditions", "base case")],
                cost=str(raw.get("cost", "0")),
            )
        )

    bounds = [str(b) for b in data.get("dual_bounds", [])]

    return DomainDocument(
        cost_type=cost_type,
        reduce=reduce_,
        objects=list(objects),
        state_variables=variables,
        tables=tables,
        transitions=transitions,
        constraints=constraints,
        base_cases=base_cases,
        dual_bounds=bounds,
    )


def parse_problem(text: str) -> ProblemDocument:
    data = _load(text)
    where = "problem document"
    _reject_unknown(data, ("object_numbers", "target", "table_values"), where)
    numbers = _require(data, "object_numbers", where)
    if not isinstance(numbers, dict):
        raise DocumentError("object_numbers must be a map")
    target = _require(data, "target", where)
    if not isinstance(target, dict):
        raise DocumentError("target must be a map")
    values = data.get("table_values", {})
    if not isinstance(values, dict):
        raise DocumentError("table_values must be a map")
    return ProblemDocument(
        object_numbers={str(k): int(v) for k, v in numbers.items()},
        target=dict(target),
        table_values=dict(values),
    )


# ---------------------------------------------------------------------------
# Instantiation


def _numeric_value(raw, kind: str, where: str):
    if isinstance(raw, bool):
        raise DocumentError(f"boolean value in {where}")
    if isinstance(raw, str):
        try:
            raw = Fraction(raw)
        except ValueError:
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
    return raw


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

    def convert(value):
        if decl.type == "boolean":
            if not isinstance(value, bool):
                raise DocumentError(f"non-boolean value {value!r} in {where}")
            return value
        if decl.type == "set":
            if not isinstance(value, (list, tuple)):
                raise DocumentError(f"set value in {where} must be an index list")
            return bitset.from_items([int(v) for v in value], value_universe)
        return _numeric_value(value, decl.type, where)

    values: dict[tuple, object] = {}
    if raw_values is None:
        raw_values = {}
    if decl.args:
        if not isinstance(raw_values, dict):
            raise DocumentError(f"values of {where} must be a map")
        for key, value in raw_values.items():
            if not isinstance(key, tuple):
                key = (key,)
            key = tuple(int(k) for k in key)
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
            if not isinstance(value, (list, tuple)):
                raise DocumentError(f"target {var.name!r} must be an index list")
            values.append(
                bitset.from_items(
                    [int(v) for v in value], metadata.objects[var.object_type]
                )
            )
        elif var.kind == CONTINUOUS:
            values.append(float(_numeric_value(value, CONTINUOUS, "target")))
        else:
            values.append(_numeric_value(value, INTEGER, "target"))
    for name in raw:
        if name not in seen:
            raise DocumentError(f"target sets unknown variable {name!r}")
    return tuple(values)


def _parameter_ranges(
    decl: ParameterDecl,
    metadata: StateMetadata,
    target: tuple,
) -> list[int]:
    """Objects of the bound type, or the members of a set variable's
    target value when the binding names one."""
    if decl.object in metadata.objects:
        return list(range(metadata.objects[decl.object]))
    try:
        index = metadata.index(decl.object)
    except UnknownSymbolError:
        raise DocumentError(
            f"parameter {decl.name!r} binds unknown object {decl.object!r}"
        ) from None
    if metadata.variables[index].kind != SET:
        raise DocumentError(
            f"parameter {decl.name!r} must bind an object type or set variable"
        )
    return list(bitset.members(target[index]))


def _is_set_binding(decl: ParameterDecl, metadata: StateMetadata) -> bool:
    return decl.object not in metadata.objects


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

    def context(params=None):
        return sexpr.ParseContext(metadata, registry, params or {})

    transitions = []
    operators = set()
    for decl in domain.transitions:
        ranges = [
            _parameter_ranges(p, metadata, target) for p in decl.parameters
        ]
        for combo in _product(ranges):
            params = {p.name: v for p, v in zip(decl.parameters, combo)}
            ctx = context(params)
            preconditions = []
            for p, v in zip(decl.parameters, combo):
                if _is_set_binding(p, metadata):
                    preconditions.append(
                        ex.SetMember(ex.ElementConst(v), metadata.set_(p.object))
                    )
            preconditions.extend(
                sexpr.parse_condition(text, ctx) for text in decl.preconditions
            )
            effects = []
            for var_name, text in decl.effect.items():
                index = metadata.index(var_name)
                kind = metadata.variables[index].kind
                effects.append((index, sexpr.parse_effect(text, ctx, kind)))
            operator, weight = sexpr.parse_cost(decl.cost, ctx)
            operators.add(operator)
            name = decl.name
            if combo:
                name = f"{decl.name}-{'-'.join(str(v) for v in combo)}"
            transitions.append(
                Transition(
                    name=name,
                    preconditions=tuple(preconditions),
                    effects=tuple(effects),
                    weight=weight,
                    forced=decl.forced,
                )
            )
    if len(operators) > 1:
        raise DocumentError("transitions mix + and max cost operators")
    operator = operators.pop() if operators else "+"

    constraints = []
    for decl in domain.constraints:
        if decl.forall is None:
            constraints.append(sexpr.parse_condition(decl.condition, context()))
            continue
        for value in _parameter_ranges(decl.forall, metadata, target):
            ctx = context({decl.forall.name: value})
            condition = sexpr.parse_condition(decl.condition, ctx)
            if _is_set_binding(decl.forall, metadata):
                guard = ex.Not(
                    ex.SetMember(ex.ElementConst(value), metadata.set_(decl.forall.object))
                )
                condition = ex.Or((guard, condition))
            constraints.append(condition)

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
        acyclic=True,
    )


def _product(ranges: list[list[int]]):
    if not ranges:
        yield ()
        return
    head, *tail = ranges
    for value in head:
        for rest in _product(tail):
            yield (value, *rest)


def load_model(domain_text: str, problem_text: str) -> Model:
    return instantiate(parse_domain(domain_text), parse_problem(problem_text))


# ---------------------------------------------------------------------------
# Serialization: model -> documents -> YAML text


def _value_out(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def serialize_model(model: Model) -> tuple[str, str]:
    """Render a model as (domain text, problem text).

    Transitions are emitted ground (no parameters), so re-instantiating
    the parsed documents reproduces the model operation for operation.
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
            entry["default"] = _value_out(table.default)
        if table.kind == "set":
            if table.value_universe not in object_of_count:
                raise DocumentError(
                    f"set table {table.name!r} values range over {table.value_universe} "
                    "objects, but no object type has that count"
                )
            entry["object"] = object_of_count[table.value_universe]
        domain["tables"].append(entry)
        out = {}
        for key, value in sorted(table.values.items()):
            if table.kind == "set":
                rendered = list(bitset.members(value))
            else:
                rendered = _value_out(value)
            out[key[0] if len(key) == 1 else key] = rendered
        if not table.shape:
            problem["table_values"][table.name] = (
                out.get((), _value_out(table.default))
            )
        else:
            problem["table_values"][table.name] = out

    for t in model.transitions:
        entry: dict = {"name": t.name}
        if t.preconditions:
            entry["preconditions"] = [sexpr.unparse(c) for c in t.preconditions]
        entry["effect"] = {
            meta.variables[i].name: sexpr.unparse(expr) for i, expr in t.effects
        }
        entry["cost"] = sexpr.unparse_cost(model.costs.operator, t.weight)
        if t.forced:
            entry["forced"] = True
        domain["transitions"].append(entry)

    domain["constraints"] = [{"condition": sexpr.unparse(c)} for c in model.constraints]
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

    domain_text = yaml.dump(domain, Dumper=_Dumper, sort_keys=False, width=100)
    problem_text = yaml.dump(problem, Dumper=_Dumper, sort_keys=False, width=100)
    return domain_text, problem_text


# ---------------------------------------------------------------------------
# Solver configuration and solution text


@dataclass
class SolverConfig:
    solver: str
    params: SolverParams


_CONFIG_KEYS = (
    "solver",
    "time_limit",
    "initial_bound",
    "beam_initial_width",
    "beam_growth",
    "acps_initial_budget",
    "acps_budget_step",
    "apps_initial_budget",
    "apps_budget_step",
    "apps_max_budget",
    "dbdfs_k",
)


def parse_solver_config(text: str) -> SolverConfig:
    data = _load(text)
    _reject_unknown(data, _CONFIG_KEYS, "solver config")
    solver = _require(data, "solver", "solver config")
    if solver not in SOLVER_NAMES:
        raise DocumentError(f"unknown solver {solver!r}")
    kwargs = {}
    for key in _CONFIG_KEYS[1:]:
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
