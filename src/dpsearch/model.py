"""State-transition models: variables, transitions, base cases, costs.

A model fixes state metadata, a target state, guarded transitions with
per-variable effects and a weight term, base cases that stop recursion,
state constraints every visited state must satisfy, optional dual bound
expressions, and a cost structure (binary operator, identity, direction).

States are plain tuples holding one value per declared variable in
declaration order: element and integer values as ``int``, continuous
values as ``float``, sets as bitmasks.  Everything here is immutable
after construction and safe to share across threads.

A model answers the solvers' queries (state constraints, applicable
transitions, successors, weights, base costs, dual bounds) with functions
that :mod:`dpsearch.compiler` generates from its expression trees as
Python source.  An arithmetic fault in a query (division by zero, 64-bit
overflow) surfaces as :class:`EvaluationError` naming the constraint,
transition, base case or dual bound where it arose.

The solvers call three fused functions, compiled on the first query,
with no method of the model around them: ``Model.edges`` runs the base
cases, then every transition's guards, effects, successor constraints
and weight, and ``check_constraints`` and ``eval_dual_bound`` run all
constraints or bounds at once.  On any fault a fused function reruns the
state through the separate queries (``compiler.Separate``), which raise
the named error in their own order; every query is pure, so the rerun
sees the same values.  They come complete from the compiler, loops
included: each names its own faults and returns costs as
``CostStructure.as_cost``/``as_bound`` convert them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import gt, lt
from typing import Callable, Optional, Sequence, Union

from . import bitset, compiler
from . import expressions as ex
from .errors import EvaluationError, ModelError, UnknownSymbolError

Number = Union[int, float]
State = tuple

ELEMENT = "element"
SET = "set"
INTEGER = "integer"
CONTINUOUS = "continuous"

LESS = "less"
GREATER = "greater"

MINIMIZE = "min"
MAXIMIZE = "max"


@dataclass(frozen=True)
class Variable:
    """One declared state variable."""

    name: str
    kind: str
    object_type: Optional[str] = None
    preference: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (ELEMENT, SET, INTEGER, CONTINUOUS):
            raise ModelError(f"unknown variable kind {self.kind!r}")
        if self.kind in (ELEMENT, SET) and self.object_type is None:
            raise ModelError(f"{self.kind} variable {self.name!r} needs an object type")
        if self.preference not in (None, LESS, GREATER):
            raise ModelError(f"unknown preference {self.preference!r}")
        if self.preference is not None and self.kind == SET:
            raise ModelError("set variables cannot carry a resource preference")

    @property
    def is_resource(self) -> bool:
        return self.preference is not None


class StateMetadata:
    """Ordered variable declarations plus object types with their counts."""

    def __init__(self, objects: dict[str, int], variables: Sequence[Variable]):
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ModelError("variable names must be unique")
        for v in variables:
            if v.object_type is not None and v.object_type not in objects:
                raise ModelError(
                    f"variable {v.name!r} references undeclared object type {v.object_type!r}"
                )
        for name, count in objects.items():
            if count < 0:
                raise ModelError(f"object type {name!r} has negative count")
        self.objects = dict(objects)
        self.variables = tuple(variables)
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        self.resource_indices = tuple(
            i for i, v in enumerate(self.variables) if v.is_resource
        )
        self.non_resource_indices = tuple(
            i for i, v in enumerate(self.variables) if not v.is_resource
        )

    def __eq__(self, other):
        if not isinstance(other, StateMetadata):
            return NotImplemented
        return self.objects == other.objects and self.variables == other.variables

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown variable {name!r}") from None

    def universe(self, name: str) -> int:
        var = self.variables[self.index(name)]
        return self.objects[var.object_type]

    def element(self, name: str) -> ex.ElementVar:
        i = self.index(name)
        if self.variables[i].kind != ELEMENT:
            raise ModelError(f"{name!r} is not an element variable")
        return ex.ElementVar(i, name)

    def set_(self, name: str) -> ex.SetVar:
        i = self.index(name)
        if self.variables[i].kind != SET:
            raise ModelError(f"{name!r} is not a set variable")
        return ex.SetVar(i, name, self.universe(name))

    def numeric(self, name: str) -> ex.NumericExpression:
        i = self.index(name)
        kind = self.variables[i].kind
        if kind in (INTEGER, CONTINUOUS):
            return ex.NumericVar(i, name)
        if kind == ELEMENT:
            return ex.FromElement(ex.ElementVar(i, name))
        raise ModelError(f"{name!r} is not usable in numeric context")

    def check_state(self, state: State) -> None:
        """Raise unless the tuple is a well-typed state."""
        if len(state) != len(self.variables):
            raise ModelError(
                f"state has {len(state)} values for {len(self.variables)} variables"
            )
        for var, value in zip(self.variables, state):
            if var.kind == ELEMENT:
                if not isinstance(value, int) or value < 0:
                    raise ModelError(f"bad element value {value!r} for {var.name!r}")
            elif var.kind == SET:
                universe = self.objects[var.object_type]
                if not isinstance(value, int) or value >> universe:
                    raise ModelError(f"bad set value {value!r} for {var.name!r}")
            elif var.kind == INTEGER:
                if not isinstance(value, int):
                    raise ModelError(f"bad integer value {value!r} for {var.name!r}")
            else:
                if not isinstance(value, (int, float)) or (
                    isinstance(value, float) and not math.isfinite(value)
                ):
                    raise ModelError(f"bad continuous value {value!r} for {var.name!r}")


# ---------------------------------------------------------------------------
# Cost structure


@dataclass(frozen=True)
class CostStructure:
    """Binary operator, optimization direction, and cost type.

    The identity is 0 for both operators; for ``max`` that assumes
    nonnegative costs, which every ``max`` model here has, so that
    ``combine(value, identity) == value`` holds throughout.
    """

    operator: str = "+"
    direction: str = MINIMIZE
    cost_type: str = INTEGER

    identity = 0  # unannotated: a constant, not a dataclass field

    def __post_init__(self):
        if self.operator not in ("+", "max"):
            raise ModelError(f"unsupported cost operator {self.operator!r}")
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ModelError(f"unknown direction {self.direction!r}")
        if self.cost_type not in (INTEGER, CONTINUOUS):
            raise ModelError(f"unknown cost type {self.cost_type!r}")

    @functools.cached_property
    def minimize(self) -> bool:
        return self.direction == MINIMIZE

    @functools.cached_property
    def worst(self) -> float:
        return math.inf if self.minimize else -math.inf

    @functools.cached_property
    def better(self) -> Callable[[Number, Number], bool]:
        """``better(a, b)``: whether ``a`` is strictly better than ``b`` in
        the optimization direction; a builtin comparison."""
        return lt if self.minimize else gt

    @functools.cached_property
    def add(self) -> Callable[[Number, Number], Number]:
        """``add(w, x)``: ``w (op) x`` with saturation at the infinite
        sentinels, as ``combine`` defines it.  The builtin ``max`` for the
        ``max`` operator; for ``+``, a module-level function, so that a
        cost structure with its adder cached still pickles."""
        if self.operator == "max":
            return max
        return _integer_sum if self.cost_type == INTEGER else _sum

    @functools.cached_property
    def value_class(self) -> type:
        """The class of the costs that ``as_cost`` and ``as_bound`` return
        unchanged, so a caller converts only values of another class."""
        return int if self.cost_type == INTEGER else float

    @functools.cached_property
    def as_cost(self) -> Callable[[object], Number]:
        """``as_cost(value)``: a weight or base cost as a cost of
        ``cost_type``; a non-integer value of an integer model raises
        ``EvaluationError``.  A module-level function, as for ``add``."""
        return _integer_cost if self.cost_type == INTEGER else _continuous_cost

    @functools.cached_property
    def as_bound(self) -> Callable[[object], Number]:
        """``as_cost`` for a dual bound, which may also be infinite."""
        return _integer_bound if self.cost_type == INTEGER else _continuous_bound

    def reduce(self, values) -> Number:
        return min(values) if self.minimize else max(values)


def combine(costs: CostStructure, w: Number, x: Number) -> Number:
    """``w (op) x`` with saturation at the infinite sentinels."""
    return costs.add(w, x)


def _integer_sum(w: Number, x: Number) -> Number:
    """``_sum``, returning at once a sum that is an integer within 64 bits."""
    value = w + x
    if value.__class__ is int and -ex.INT64_MAX <= value <= ex.INT64_MAX:
        return value
    return _sum(w, x)


def _sum(w: Number, x: Number) -> Number:
    """``w + x``: an infinite operand wins, the first one first, and an
    integer sum beyond 64 bits raises ``OverflowError``."""
    if isinstance(w, float) and math.isinf(w):
        return w
    if isinstance(x, float) and math.isinf(x):
        return x
    value = w + x
    if isinstance(value, int) and abs(value) > ex.INT64_MAX:
        raise OverflowError(f"cost {value} exceeds 64-bit range")
    return value


def _integer_cost(value) -> Number:
    value = ex.collapse(value)
    if isinstance(value, Fraction) or isinstance(value, float):
        raise EvaluationError(f"integer cost expression produced non-integer {value!r}")
    return value


def _continuous_cost(value) -> Number:
    return float(ex.collapse(value))


def _integer_bound(value) -> Number:
    return value if isinstance(value, float) and math.isinf(value) else _integer_cost(value)


def _continuous_bound(value) -> Number:
    return value if isinstance(value, float) and math.isinf(value) else _continuous_cost(value)


# ---------------------------------------------------------------------------
# Transitions and base cases


Effect = tuple[int, object]  # (variable index, expression)


@dataclass(frozen=True)
class Transition:
    """A guarded state update with a weight term.

    Effects are simultaneous: every effect expression is evaluated on the
    pre-state.  The weight is the ``w`` of a cost expression ``w (op) x``
    and must not reference the successor cost.

    A lifted transition has ``parameters``, (name, binding) pairs, and
    parameter leaves in its expressions.  A parameter bound to an object
    type takes every object; one bound to a set variable takes the members
    of the variable's target value and adds the membership guard.  The
    model grounds it into one member ``<name>-<v1>-<v2>...`` per value
    combination, in product order, its guards before its preconditions.
    """

    name: str
    preconditions: tuple[ex.Condition, ...]
    effects: tuple[Effect, ...]
    weight: ex.NumericExpression
    forced: bool = False
    parameters: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        indices = [i for i, _ in self.effects]
        if len(set(indices)) != len(indices):
            raise ModelError(f"transition {self.name!r} assigns a variable twice")
        object.__setattr__(
            self, "effects", tuple(sorted(self.effects, key=lambda pair: pair[0]))
        )


@dataclass(frozen=True)
class Forall:
    """A lifted state constraint: ``condition`` for every value of
    ``parameter``, bound as a transition's parameter is; over a set
    variable's members each value grounds to (not member) or (condition)."""

    parameter: tuple[str, str]
    condition: ex.Condition


@dataclass(frozen=True)
class BaseCase:
    conditions: tuple[ex.Condition, ...]
    cost: ex.NumericExpression


def _constants(names, combo) -> dict:
    """Each parameter leaf of ``names`` with its constant for ``ex.bind``."""
    constants = {}
    for name, v in zip(names, combo):
        constants[ex.ElementParameter(name)] = ex.ElementConst(v)
        constants[ex.NumericParameter(name)] = ex.NumericConst(v)
    return constants


def _foreign(transition: Transition) -> ModelError:
    return ModelError(f"transition {transition.name!r} is not one of the model's")


# ---------------------------------------------------------------------------
# The model


def _members(families) -> tuple:
    """Each family ``(lifted, names, combos)`` with ``members`` appended: the
    range of positions its members take, one per combination, in the
    ground items that the families ground into in order."""
    first, out = 0, []
    for family in families:
        out.append((*family, range(first, first + len(family[2]))))
        first += len(family[2])
    return tuple(out)


class Model:
    """A complete decision model; immutable after construction.  It
    grounds the lifted transitions and ``Forall`` constraints it is given
    (see ``Transition``) into ``transitions`` and ``constraints``, which
    equality compares, and keeps them as given in ``declared_transitions``
    and ``declared_constraints`` for the writer.  ``transition_families``
    and ``constraint_families`` hold each declared one as ``_family`` lifts
    it, in declaration order, with ``members``, the range of its members'
    positions in ``transitions`` or ``constraints``, so that the compiler
    and ``validate`` go through each family's trees once."""

    def __init__(
        self,
        metadata: StateMetadata,
        tables: ex.TableRegistry,
        target: State,
        transitions: Sequence[Transition],
        base_cases: Sequence[BaseCase],
        constraints: Sequence[Union[ex.Condition, Forall]] = (),
        dual_bounds: Sequence[ex.NumericExpression] = (),
        costs: CostStructure = CostStructure(),
    ):
        metadata.check_state(target)
        self.metadata = metadata
        self.tables = tables
        self.target = tuple(target)
        self.declared_transitions = tuple(transitions)
        self.declared_constraints = tuple(constraints)
        self.transition_families = _members(self._family(t.name, t, t.parameters)
                                            for t in self.declared_transitions)
        self.constraint_families = _members(
            self._family(None, c.condition, (c.parameter,)) if type(c) is Forall
            else self._family(None, c, ()) for c in self.declared_constraints)
        self.transitions = tuple(
            Transition(
                f"{t.name}-{'-'.join(map(str, combo))}",
                tuple(ex.bind(c, constants) for c in t.preconditions),
                tuple((i, ex.bind(e, constants)) for i, e in t.effects),
                ex.bind(t.weight, constants),
                t.forced,
            ) if t.parameters else t
            for t, names, combos, _ in self.transition_families
            for combo in combos for constants in [_constants(names, combo)]
        )
        self.constraints = tuple(ex.bind(c, _constants(names, combo)) if names else c
                                 for c, names, combos, _ in self.constraint_families
                                 for combo in combos)
        self.base_cases = tuple(base_cases)
        self.dual_bounds = tuple(dual_bounds)
        # only transitions apply the operator, and with identity 0 and
        # nonnegative costs ``+`` and ``max`` agree: one operator without them
        self.costs = costs if self.transitions else replace(costs, operator="+")
        names = set()
        for transition in self.transitions:
            if transition.name in names:
                raise ModelError(f"transition name {transition.name!r} is used twice")
            names.add(transition.name)

    def _family(self, owner, item, parameters):
        """``item`` as ``(lifted, names, combos)``: for a transition
        (``owner`` is its name), itself with the membership guards of its
        set-bound parameters before its preconditions; for a ``Forall``'s
        condition, (not guard) or (condition).  ``names`` are the
        parameters' names and ``combos`` every combination of their values
        in product order, one per member; no parameters, one empty one."""
        if not parameters:
            return item, (), [()]
        meta, ranges, guards = self.metadata, [], []
        names = tuple(name for name, _ in parameters)
        for k, (name, binding) in enumerate(parameters):
            if name in names[:k]:
                raise ModelError(f"transition {owner!r} has two parameters named {name!r}")
            if binding in meta.objects:
                ranges.append(range(meta.objects[binding]))
                continue
            try:
                s = meta.set_(binding)
            except (ModelError, UnknownSymbolError):
                raise ModelError(f"parameter {name!r} binds {binding!r}, which is neither "
                                 "an object type nor a set variable") from None
            guards.append(ex.SetMember(ex.ElementParameter(name), s))
            ranges.append(bitset.members(self.target[s.index]))
        if guards and owner is not None:
            item = replace(item, preconditions=(*guards, *item.preconditions))
        elif guards:
            item = ex.Or((ex.Not(guards[0]), item))
        return item, names, list(itertools.product(*ranges))

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.metadata == other.metadata
            and self.tables == other.tables
            and self.target == other.target
            and self.transitions == other.transitions
            and self.base_cases == other.base_cases
            and self.constraints == other.constraints
            and self.dual_bounds == other.dual_bounds
            and self.costs == other.costs
        )

    # -- compiled queries ----------------------------------------------
    #
    # ``edges``, ``check_constraints`` and ``eval_dual_bound`` are the fused
    # functions themselves, compiled on the first query asked, so a model
    # only written and read back compiles nothing.  They fall back on the
    # model's one ``compiler.Separate``, which the per-query methods ask too
    # and which compiles each kind of query on first use.  ``edges(state)``
    # is the base cost of ``state``, or else the edges ``(transition,
    # successor, weight)`` of the ``applicable_transitions`` whose successor
    # passes the state constraints; ``eval_dual_bound`` is the tightest bound
    # (max when minimizing), or None without bounds.  On a fault the separate
    # queries name it in their own order (every guard before any effect), or
    # return the edges when it lay in work they skip: the effects of regular
    # transitions a later forced one overrides.

    _queries = functools.cached_property(compiler.Queries)
    _separate = functools.cached_property(lambda self: (
        self._queries.separate if "_queries" in vars(self) else compiler.Separate(self)))
    edges = functools.cached_property(lambda self: self._queries.expand)
    check_constraints = functools.cached_property(lambda self: self._queries.feasible)
    eval_dual_bound = functools.cached_property(lambda self: self._queries.bound)

    def __getstate__(self):
        """Pickle the declarations only; the compiled queries, cached under
        the names of the class's properties, rebuild on first use."""
        return {k: v for k, v in self.__dict__.items() if k not in vars(Model)}

    # -- state queries ------------------------------------------------

    def _constraints_by_query(self, state: State) -> bool:
        """``check_constraints`` through the separate queries, faults named."""
        return self._separate.feasible(state)

    def base_cost(self, state: State) -> Optional[Number]:
        """Best base cost over satisfied base cases, or None if none holds.
        A fault in a base case's condition or cost is named ``base case k``."""
        return self._separate.base_cost(state)

    def applicable_transitions(self, state: State) -> list[Transition]:
        """Transitions to expand: the first applicable forced one alone,
        otherwise every applicable non-forced one in declaration order."""
        return [edge[0] for edge in self._separate.applicable(state)]

    def all_applicable_transitions(self, state: State) -> list[Transition]:
        """Every applicable transition, ignoring forced flags."""
        return [transition for transition, guard, _, _ in self._separate.edges if guard(state)]

    def _edge(self, transition: Transition) -> tuple:
        edge = self._separate.edge_of.get(id(transition))
        if edge is None:
            raise _foreign(transition)
        return edge

    def successor(self, transition: Transition, state: State) -> State:
        """The state after ``transition``; every effect is evaluated on
        ``state`` and checked against the kind of its variable."""
        return self._edge(transition)[2](state)

    def weight(self, transition: Transition, state: State) -> Number:
        """The weight of ``transition`` at ``state``, as a cost of the
        model's cost type."""
        return self._edge(transition)[3](state)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning" | "info"
    message: str


def _families(model: Model):
    """Per family: its lifted trees, each as (what, root), and the owners
    of its members, so that ``f"{what} {owner}"`` is a member's label."""
    for t, _, _, members in model.transition_families:
        trees = [("precondition of", pre) for pre in t.preconditions]
        trees += [("effect of", expr) for _, expr in t.effects]
        yield [*trees, ("weight of", t.weight)], (repr(model.transitions[m].name) for m in members)
    for i, case in enumerate(model.base_cases):
        yield [("base case", root) for root in (*case.conditions, case.cost)], [i]
    for condition, _, _, members in model.constraint_families:
        yield [("state constraint", condition)], members
    for i, bound in enumerate(model.dual_bounds):
        yield [("dual bound", bound)], [i]


def _faults(model: Model, n_vars: int, trees) -> list[tuple[str, str]]:
    """The errors in a family's trees, in walk order, each as (what, fault)
    to be completed by the member where it lies."""
    faults = []
    for what, root in trees:
        for node in ex.walk(root):
            if isinstance(node, (ex.ElementVar, ex.SetVar, ex.NumericVar)):
                if node.index >= n_vars:
                    faults.append((what, f"undeclared variable {node.name!r}"))
            table_name = getattr(node, "table", None)
            if table_name is not None:
                if table_name not in model.tables:
                    faults.append((what, f"unknown table {table_name!r}"))
                    continue
                table = model.tables.lookup(table_name)
                arity = len(node.args) if hasattr(node, "args") else len(node.prefix) + 1
                if arity != table.arity:
                    faults.append((what, f"table {table_name!r} takes {table.arity} "
                                         f"indices, got {arity}"))
    return faults


def validate(model: Model, solver: Optional[str] = None) -> list[Diagnostic]:
    """Collect diagnostics without raising; an empty list means clean.

    Errors name an undeclared variable, an unknown table or a table read
    with the wrong number of indices, each in the expression where it
    lies, labelled as a fault there is at run time (``weight of 't'``,
    ``base case k``, ``dual bound k``, ...).  Each family's lifted trees
    are walked once, and their errors reported for each member in turn.
    """
    diags: list[Diagnostic] = []
    n_vars = len(model.metadata.variables)
    for trees, owners in _families(model):  # each family's trees walked once
        faults = _faults(model, n_vars, trees)
        for owner in owners if faults else ():
            diags += [Diagnostic("error", f"{fault} in {what} {owner}") for what, fault in faults]

    first_regular = next(
        (i for i, t in enumerate(model.transitions) if not t.forced), None
    )
    if first_regular is not None:
        for t in model.transitions[first_regular:]:
            if t.forced:
                diags.append(
                    Diagnostic(
                        "info",
                        f"forced transition {t.name!r} is declared after non-forced ones",
                    )
                )

    if solver == "caasdy" and not model.costs.minimize:
        diags.append(
            Diagnostic(
                "warning",
                "maximization model: the first solution found by caasdy "
                "is not guaranteed to be optimal",
            )
        )
    return diags
