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
transitions, successors, weights, base costs, dual bounds) with closures
that :mod:`dpsearch.compiler` builds from its expression trees on first
use.  An arithmetic fault in a query (division by zero, 64-bit overflow)
surfaces as :class:`EvaluationError` naming the constraint, transition,
base case or dual bound where it arose.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

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


class Dominance(enum.Enum):
    EQUAL = "equal"
    FIRST = "first-dominates-second"
    SECOND = "second-dominates-first"
    INCOMPARABLE = "incomparable"


def dominance_compare(meta: StateMetadata, a: State, b: State) -> Dominance:
    """Resource-preference preorder between two states.

    States differing on any non-resource variable are incomparable; among
    states agreeing there, one dominates when every resource variable is
    weakly preferred and at least one is strictly preferred.

    Declaring a preference is a modeling contract: the preferred state
    must lead to an equally good solution using no more transitions.
    The transition-count half cannot be checked structurally, so it is
    the modeler's obligation (typically every solution from both states
    has the same length, as when each transition consumes one element of
    a shrinking set).
    """
    for i in meta.non_resource_indices:
        if a[i] != b[i]:
            return Dominance.INCOMPARABLE
    a_wins = b_wins = False
    for i in meta.resource_indices:
        if a[i] == b[i]:
            continue
        prefers_a = (a[i] < b[i]) == (meta.variables[i].preference == LESS)
        if prefers_a:
            a_wins = True
        else:
            b_wins = True
    if a_wins and b_wins:
        return Dominance.INCOMPARABLE
    if a_wins:
        return Dominance.FIRST
    if b_wins:
        return Dominance.SECOND
    return Dominance.EQUAL


# ---------------------------------------------------------------------------
# Cost structure


@dataclass(frozen=True)
class CostStructure:
    """Binary operator, identity, optimization direction, and cost type.

    The identity of ``+`` is 0; the identity of ``max`` is the declared
    minimum of the cost domain (0 for the nonnegative models here), so
    that ``combine(value, identity) == value`` holds throughout.
    """

    operator: str = "+"
    direction: str = MINIMIZE
    cost_type: str = INTEGER
    max_identity: Number = 0

    def __post_init__(self):
        if self.operator not in ("+", "max"):
            raise ModelError(f"unsupported cost operator {self.operator!r}")
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ModelError(f"unknown direction {self.direction!r}")
        if self.cost_type not in (INTEGER, CONTINUOUS):
            raise ModelError(f"unknown cost type {self.cost_type!r}")

    @property
    def identity(self) -> Number:
        return 0 if self.operator == "+" else self.max_identity

    @property
    def minimize(self) -> bool:
        return self.direction == MINIMIZE

    @property
    def worst(self) -> float:
        return math.inf if self.minimize else -math.inf

    def better(self, a: Number, b: Number) -> bool:
        """Strictly better in the optimization direction."""
        return a < b if self.minimize else a > b

    def reduce(self, values) -> Number:
        return min(values) if self.minimize else max(values)


def combine(costs: CostStructure, w: Number, x: Number) -> Number:
    """``w (op) x`` with saturation at the infinite sentinels."""
    if costs.operator == "max":
        return max(w, x)
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

    def is_applicable(self, state: State, tables: ex.TableRegistry) -> bool:
        """Whether every precondition holds.  The preconditions compile on
        each call; a model's own queries compile them once."""
        guard = compiler.Compiler(tables).conjunction(self.preconditions)
        try:
            return guard(state)
        except _FAULTS as err:
            raise _fault(err, f"precondition of {self.name!r}") from err


@dataclass(frozen=True)
class BaseCase:
    conditions: tuple[ex.Condition, ...]
    cost: ex.NumericExpression


# Faults of the arithmetic and of reads past the end of a short state,
# which the queries report as evaluation errors naming where they arose.
_FAULTS = (ZeroDivisionError, OverflowError, IndexError)


def _fault(err: Exception, where: str) -> EvaluationError:
    if isinstance(err, IndexError):
        return UnknownSymbolError(f"{where} reads a variable slot the state lacks")
    return EvaluationError(f"{where}: {err}")


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
        acyclic: bool = True,
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
        self.acyclic = acyclic
        # the class of the values the cost conversion returns unchanged
        self._cost_class = int if costs.cost_type == INTEGER else float

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
            and self.acyclic == other.acyclic
        )

    # -- compiled queries ----------------------------------------------
    #
    # The closures of the queries (compiler.py) are compiled in two
    # groups, each on the first query that needs it, and cached on the
    # model: a model only written and read back compiles nothing, and one
    # only replayed never compiles its constraints and bounds.

    _guards = compiler.cached(compiler.transition_queries)
    _successors = compiler.cached(compiler.transition_queries)
    _weights = compiler.cached(compiler.transition_queries)
    _base_checks = compiler.cached(compiler.transition_queries)
    _constraint_checks = compiler.cached(compiler.state_queries)
    _bound_checks = compiler.cached(compiler.state_queries)

    def __getstate__(self):
        """Pickle the declarations only; closures cannot be pickled, and
        the compiled queries rebuild on first use."""
        compiled = [k for k, v in vars(Model).items() if isinstance(v, compiler.cached)]
        return {k: v for k, v in self.__dict__.items() if k not in compiled}

    # -- state queries ------------------------------------------------

    def check_constraints(self, state: State) -> bool:
        checks = self._constraint_checks
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
        cases = self._base_checks
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

    def is_base(self, state: State) -> bool:
        cases = self._base_checks
        case = None
        try:
            for case in cases:
                if case[0](state):
                    return True
        except _FAULTS as err:
            raise _fault(err, f"base case {cases.index(case)}") from err
        return False

    def applicable_transitions(self, state: State) -> list[Transition]:
        """Transitions to expand: the first applicable forced one alone,
        otherwise every applicable non-forced one in declaration order."""
        regular = []
        transition = None
        try:
            for transition, guard in self._guards:
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
            for transition, guard in self._guards:
                if guard(state):
                    applicable.append(transition)
        except _FAULTS as err:
            raise _fault(err, f"precondition of {transition.name!r}") from err
        return applicable

    def successor(self, transition: Transition, state: State) -> State:
        """The state after ``transition``; every effect is evaluated on
        ``state`` and checked against the kind of its variable."""
        effects = self._successors.get(id(transition))
        if effects is None:  # a transition from elsewhere: compiled, not cached
            effects = compiler.Compiler(self.tables).successor(
                transition, self.metadata.variables
            )
        try:
            return effects(state)
        except _FAULTS as err:
            raise _fault(err, f"effect of {transition.name!r}") from err

    def weight(self, transition: Transition, state: State) -> Number:
        weight = self._weights.get(id(transition))
        if weight is None:  # a transition from elsewhere: compiled, not cached
            weight = compiler.Compiler(self.tables).fn(transition.weight)
        try:
            value = weight(state)
        except _FAULTS as err:
            raise _fault(err, f"weight of {transition.name!r}") from err
        return value if value.__class__ is self._cost_class else self._cost_value(value)

    def eval_dual_bound(self, state: State) -> Optional[Number]:
        """Tightest declared bound: max for minimization, min for maximization.

        Absent when the model declares no dual bounds; solvers then guide
        by the path weight alone and do not prune.
        """
        bounds = self._bound_checks
        if not bounds:
            return None
        bound = None
        values = []
        try:
            for bound in bounds:
                value = bound(state)
                values.append(
                    value if value.__class__ is self._cost_class else self._bound_value(value)
                )
        except _FAULTS as err:
            raise _fault(err, f"dual bound {bounds.index(bound)}") from err
        if len(values) == 1:
            return values[0]
        return max(values) if self.costs.minimize else min(values)

    def _cost_value(self, value) -> Number:
        value = ex.collapse(value)
        if self.costs.cost_type == INTEGER:
            if isinstance(value, Fraction) or isinstance(value, float):
                raise EvaluationError(
                    f"integer cost expression produced non-integer {value!r}"
                )
            return value
        return float(value)

    def _bound_value(self, value) -> Number:
        if isinstance(value, float) and math.isinf(value):
            return value
        return self._cost_value(value)


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
    if solver in ("cabs",) and not model.acyclic:
        diags.append(
            Diagnostic(
                "warning",
                "beam search requires an acyclic model; the model does not declare acyclicity",
            )
        )
    return diags
