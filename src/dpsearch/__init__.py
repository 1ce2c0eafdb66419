"""Declarative dynamic-programming models solved with anytime heuristic search.

Models are finite acyclic state-transition systems: typed state
variables, a target state, guarded transitions with weight terms, base
cases, state constraints, and optional dual-bound expressions.  Seven
exact anytime solvers share one search core; a memoized value-function
oracle provides ground truth for testing; YAML documents and a CLI wrap
the whole thing.
"""

from . import bitset
from .errors import (
    DepthLimitError,
    DocumentError,
    DpsearchError,
    EvaluationError,
    ExpressionParseError,
    ModelError,
    UnknownSymbolError,
)
from .expressions import (
    Table,
    TableRegistry,
    eval_condition,
    eval_element,
    eval_numeric,
    eval_set,
)
from .metrics import optimality_gap, primal_gap, primal_integral
from .model import (
    BaseCase,
    CostStructure,
    Diagnostic,
    Forall,
    Model,
    StateMetadata,
    Transition,
    Variable,
    combine,
    validate,
)
from .oracle import OracleResult, bellman_oracle
from .search import (
    SOLVER_NAMES,
    Solution,
    SolverParams,
    Status,
    acps,
    apps,
    beam_search,
    caasdy,
    cabs,
    cbfs,
    dbdfs,
    dfbnb,
    generic_search,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BaseCase",
    "CostStructure",
    "DepthLimitError",
    "Diagnostic",
    "Forall",
    "DocumentError",
    "DpsearchError",
    "EvaluationError",
    "ExpressionParseError",
    "Model",
    "ModelError",
    "OracleResult",
    "SOLVER_NAMES",
    "Solution",
    "SolverParams",
    "StateMetadata",
    "Status",
    "Table",
    "TableRegistry",
    "Transition",
    "UnknownSymbolError",
    "Variable",
    "acps",
    "apps",
    "beam_search",
    "bellman_oracle",
    "bitset",
    "caasdy",
    "cabs",
    "cbfs",
    "combine",
    "dbdfs",
    "dfbnb",
    "eval_condition",
    "eval_element",
    "eval_numeric",
    "eval_set",
    "generic_search",
    "optimality_gap",
    "primal_gap",
    "primal_integral",
    "solve",
    "validate",
]
