"""Anytime exact solvers over state-transition models."""

from .solution import Solution, SolverParams, Status
from .engine import (
    acps,
    apps,
    caasdy,
    cbfs,
    dbdfs,
    dfbnb,
    generic_search,
    solve,
)
from .beam import beam_search, cabs
from .open_lists import (
    BestFirstList,
    CyclicLayerList,
    DepthStackList,
    DiscrepancyList,
    LayerBudgetList,
    PackList,
)

SOLVERS = {
    solver.__name__: solver for solver in (caasdy, dfbnb, cbfs, acps, apps, dbdfs, cabs)
}
SOLVER_NAMES = tuple(SOLVERS)  # the names accepted in solver configs

__all__ = [
    "Solution",
    "SolverParams",
    "Status",
    "generic_search",
    "solve",
    "caasdy",
    "dfbnb",
    "cbfs",
    "acps",
    "apps",
    "dbdfs",
    "beam_search",
    "cabs",
    "BestFirstList",
    "DepthStackList",
    "CyclicLayerList",
    "LayerBudgetList",
    "PackList",
    "DiscrepancyList",
    "SOLVER_NAMES",
    "SOLVERS",
]
