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

The solvers read three fused functions, compiled on the first query:
``Model.edges`` runs the base cases, then every transition's guards,
effects, successor constraints and weight, and ``check_constraints`` and
``eval_dual_bound`` run all constraints or bounds at once.  On any fault
a query reruns the state through the separate queries, which raise the
named error in their own order; every query is pure, so the rerun sees
the same values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
                if not isinstance(value, int) or value & ~bitset.full(universe):
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


# ---------------------------------------------------------------------------
# Transitions and base cases


Effect = tuple[int, object]  # (variable index, expression)


@dataclass(frozen=True)
class Transition:
    """A guarded state update with a weight term.

    Effects are simultaneous: every effect expression is evaluated on the
    pre-state.  The weight is the ``w`` of a cost expression ``w (op) x``
    and must not reference the successor cost.
    """

    name: str
    preconditions: tuple[ex.Condition, ...]
    effects: tuple[Effect, ...]
    weight: ex.NumericExpression
    forced: bool = False

    def __post_init__(self):
        indices = [i for i, _ in self.effects]
        if len(set(indices)) != len(indices):
            raise ModelError(f"transition {self.name!r} assigns a variable twice")
        object.__setattr__(
            self, "effects", tuple(sorted(self.effects, key=lambda pair: pair[0]))
        )


@dataclass(frozen=True)
class BaseCase:
    conditions: tuple[ex.Condition, ...]
    cost: ex.NumericExpression


# Faults of the arithmetic, of reads past the end of a short state, and
# of evaluation (a table read out of range, a value of the wrong kind, a
# non-integer cost), which the queries report naming where they arose.
_FAULTS = (ZeroDivisionError, OverflowError, IndexError, EvaluationError)


def _fault(err: Exception, where: str) -> EvaluationError:
    if isinstance(err, IndexError):
        return UnknownSymbolError(f"{where} reads a variable slot the state lacks")
    kind = err.__class__ if isinstance(err, EvaluationError) else EvaluationError
    return kind(f"{where}: {err}")


def _foreign(transition: Transition) -> ModelError:
    return ModelError(f"transition {transition.name!r} is not one of the model's")


# ---------------------------------------------------------------------------
# The model


class Model:
    """A complete decision model; immutable after construction."""

    def __init__(
        self,
        metadata: StateMetadata,
        tables: ex.TableRegistry,
        target: State,
        transitions: Sequence[Transition],
        base_cases: Sequence[BaseCase],
        constraints: Sequence[ex.Condition] = (),
        dual_bounds: Sequence[ex.NumericExpression] = (),
        costs: CostStructure = CostStructure(),
    ):
        metadata.check_state(target)
        self.metadata = metadata
        self.tables = tables
        self.target = tuple(target)
        self.transitions = tuple(transitions)
        self.base_cases = tuple(base_cases)
        self.constraints = tuple(constraints)
        self.dual_bounds = tuple(dual_bounds)
        self.costs = costs
        # the class of the values the cost conversion returns unchanged,
        # and the conversions of any other value: module functions, which
        # the compiled queries hold without holding the model
        integer = costs.cost_type == INTEGER
        self._cost_class = int if integer else float
        self._cost_value = _integer_cost if integer else _continuous_cost
        self._bound_value = _integer_bound if integer else _continuous_bound

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
    # The fused queries compile on the first query asked, so a model only
    # written and read back compiles nothing; the separate ones, which
    # name faults, compile on first use.  Later reads find them in the
    # instance dict.

    _queries = functools.cached_property(compiler.Queries)
    _separate = functools.cached_property(compiler.Separate)

    def __getstate__(self):
        """Pickle the declarations only; the compiled queries rebuild on
        first use."""
        return {k: v for k, v in self.__dict__.items() if k not in ("_queries", "_separate")}

    # -- state queries ------------------------------------------------

    def check_constraints(self, state: State) -> bool:
        try:
            return self._queries.feasible(state)
        except Exception:  # rerun outside the handler: the named error chains to no other
            pass
        return self._constraints_by_query(state)

    def _constraints_by_query(self, state: State) -> bool:
        """``check_constraints`` through the separate queries, each
        constraint named in its own fault: the path it falls back on."""
        checks = self._separate.constraints
        check = None
        try:
            for check in checks:
                if not check(state):
                    return False
        except _FAULTS as err:
            raise _fault(err, f"state constraint {checks.index(check)}") from err
        return True

    def base_cost(self, state: State) -> Optional[Number]:
        """Best base cost over satisfied base cases, or None if none holds."""
        cases = self._separate.base_cases
        case = None
        values = []
        try:
            for case in cases:
                if case[0](state):
                    value = case[1](state)
                    values.append(
                        value if value.__class__ is self._cost_class else self._cost_value(value)
                    )
        except _FAULTS as err:
            raise _fault(err, f"base case {cases.index(case)}") from err
        if not values:
            return None
        return values[0] if len(values) == 1 else self.costs.reduce(values)

    def applicable_transitions(self, state: State) -> list[Transition]:
        """Transitions to expand: the first applicable forced one alone,
        otherwise every applicable non-forced one in declaration order."""
        regular = []
        transition = None
        try:
            for transition, guard, _, _ in self._separate.edges:
                if guard(state):
                    if transition.forced:
                        return [transition]
                    regular.append(transition)
        except _FAULTS as err:
            raise _fault(err, f"precondition of {transition.name!r}") from err
        return regular

    def all_applicable_transitions(self, state: State) -> list[Transition]:
        """Every applicable transition, ignoring forced flags."""
        applicable = []
        transition = None
        try:
            for transition, guard, _, _ in self._separate.edges:
                if guard(state):
                    applicable.append(transition)
        except _FAULTS as err:
            raise _fault(err, f"precondition of {transition.name!r}") from err
        return applicable

    def _edge(self, transition: Transition) -> tuple:
        edge = self._separate.edge_of.get(id(transition))
        if edge is None:
            raise _foreign(transition)
        return edge

    def successor(self, transition: Transition, state: State) -> State:
        """The state after ``transition``; every effect is evaluated on
        ``state`` and checked against the kind of its variable."""
        effects = self._edge(transition)[2]
        try:
            return effects(state)
        except _FAULTS as err:
            raise _fault(err, f"effect of {transition.name!r}") from err

    def weight(self, transition: Transition, state: State) -> Number:
        weight = self._edge(transition)[3]
        try:
            value = weight(state)
            return value if value.__class__ is self._cost_class else self._cost_value(value)
        except _FAULTS as err:
            raise _fault(err, f"weight of {transition.name!r}") from err

    def edges(self, state: State) -> Union[Number, list]:
        """The base cost of ``state``, or else the edges ``(transition,
        successor, weight)`` of the transitions ``applicable_transitions``
        returns whose successor passes the state constraints, from the
        fused ``expand``.

        On any exception the state runs again through the separate queries
        (``_edges_by_query``), which name the fault in their own order
        (every guard before any effect), or return the edges when the
        fault lay in work they skip: the effects of regular transitions
        that a later forced one overrides.
        """
        try:
            return self._queries.expand(state)
        except Exception:  # rerun outside the handler: the named error chains to no other
            pass
        return self._edges_by_query(state)

    def _edges_by_query(self, state: State) -> Union[Number, list]:
        """``edges`` through the separate queries, each with its own fault
        naming: the reference path that ``edges`` falls back on."""
        base = self.base_cost(state)
        if base is not None:
            return base
        edges = []
        for transition in self.applicable_transitions(state):
            successor = self.successor(transition, state)
            if self._constraints_by_query(successor):
                edges.append((transition, successor, self.weight(transition, state)))
        return edges

    def eval_dual_bound(self, state: State) -> Optional[Number]:
        """Tightest declared bound: max for minimization, min for maximization.

        Absent when the model declares no dual bounds; solvers then guide
        by the path weight alone and do not prune.
        """
        try:
            return self._queries.bound(state)
        except Exception:  # rerun outside the handler: the named error chains to no other
            pass
        bounds = self._separate.bounds
        minimize, cost_class = self.costs.minimize, self._cost_class
        best = bound = None
        try:
            for bound in bounds:
                value = bound(state)
                if value.__class__ is not cost_class:
                    value = self._bound_value(value)
                if best is None or (value > best if minimize else value < best):
                    best = value
        except _FAULTS as err:
            raise _fault(err, f"dual bound {bounds.index(bound)}") from err
        return best


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
# Validation


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error" | "warning" | "info"
    message: str


def _iter_expressions(model: Model):
    for t in model.transitions:
        for pre in t.preconditions:
            yield f"precondition of {t.name!r}", pre
        for _, expr in t.effects:
            yield f"effect of {t.name!r}", expr
        yield f"weight of {t.name!r}", t.weight
    for i, case in enumerate(model.base_cases):
        for cond in case.conditions:
            yield f"base case {i}", cond
        yield f"base cost {i}", case.cost
    for i, cond in enumerate(model.constraints):
        yield f"state constraint {i}", cond
    for i, bound in enumerate(model.dual_bounds):
        yield f"dual bound {i}", bound


def validate(model: Model, solver: Optional[str] = None) -> list[Diagnostic]:
    """Collect diagnostics without raising; an empty list means clean."""
    diags: list[Diagnostic] = []
    n_vars = len(model.metadata.variables)

    for where, root in _iter_expressions(model):
        for node in ex.walk(root):
            if isinstance(node, (ex.ElementVar, ex.SetVar, ex.NumericVar)):
                if node.index >= n_vars:
                    diags.append(
                        Diagnostic("error", f"undeclared variable {node.name!r} in {where}")
                    )
            table_name = getattr(node, "table", None)
            if table_name is not None:
                if table_name not in model.tables:
                    diags.append(
                        Diagnostic("error", f"unknown table {table_name!r} in {where}")
                    )
                    continue
                table = model.tables.lookup(table_name)
                arity = len(node.args) if hasattr(node, "args") else len(node.prefix) + 1
                if arity != table.arity:
                    diags.append(
                        Diagnostic(
                            "error",
                            f"table {table_name!r} takes {table.arity} indices, "
                            f"got {arity} in {where}",
                        )
                    )

    for t in model.transitions:
        if any(isinstance(node, ex.SuccessorCost) for node in ex.walk(t.weight)):
            diags.append(
                Diagnostic(
                    "error",
                    f"cost term of {t.name!r} must have the shape weight-then-cost; "
                    "the weight cannot reference the successor cost",
                )
            )

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
