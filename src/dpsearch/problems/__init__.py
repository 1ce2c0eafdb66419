"""Instance parsing and model construction for the benchmark classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .binpacking import BinPackingInstance, build_binpacking, parse_binpacking
from .cvrp import CvrpInstance, build_cvrp, parse_cvrp
from .graphclear import GraphClearInstance, build_graphclear, parse_graphclear
from .mdkp import MdkpInstance, build_mdkp, parse_mdkp
from .mosp import MospInstance, build_mosp, parse_mosp
from .mpdtsp import MpdtspInstance, build_mpdtsp, parse_mpdtsp
from .optw import OptwInstance, build_optw, parse_optw
from .salbp1 import Salbp1Instance, build_salbp1, parse_salbp1
from .talent import TalentInstance, build_talent, merge_identical_scenes, parse_talent
from .tardiness import WtInstance, build_wt, parse_wt
from .tsptw import TsptwInstance, build_tsptw, parse_tsptw
from . import random_instances as rnd


@dataclass(frozen=True)
class ProblemClass:
    name: str
    parse: Callable[[str], object]
    build: Callable[[object], object]
    random: Callable[[object], object]


CLASSES = {
    "tsptw": ProblemClass("tsptw", parse_tsptw, build_tsptw, rnd.random_tsptw),
    "cvrp": ProblemClass("cvrp", parse_cvrp, build_cvrp, rnd.random_cvrp),
    "mpdtsp": ProblemClass("mpdtsp", parse_mpdtsp, build_mpdtsp, rnd.random_mpdtsp),
    "optw": ProblemClass("optw", parse_optw, build_optw, rnd.random_optw),
    "mdkp": ProblemClass("mdkp", parse_mdkp, build_mdkp, rnd.random_mdkp),
    "binpacking": ProblemClass(
        "binpacking", parse_binpacking, build_binpacking, rnd.random_binpacking
    ),
    "salbp1": ProblemClass("salbp1", parse_salbp1, build_salbp1, rnd.random_salbp1),
    "wt": ProblemClass("wt", parse_wt, build_wt, rnd.random_wt),
    "talent": ProblemClass("talent", parse_talent, build_talent, rnd.random_talent),
    "mosp": ProblemClass("mosp", parse_mosp, build_mosp, rnd.random_mosp),
    "graphclear": ProblemClass(
        "graphclear", parse_graphclear, build_graphclear, rnd.random_graphclear
    ),
}

__all__ = [
    "CLASSES",
    "ProblemClass",
    "TsptwInstance",
    "CvrpInstance",
    "MpdtspInstance",
    "OptwInstance",
    "MdkpInstance",
    "BinPackingInstance",
    "Salbp1Instance",
    "WtInstance",
    "TalentInstance",
    "MospInstance",
    "GraphClearInstance",
    "build_tsptw",
    "build_cvrp",
    "build_mpdtsp",
    "build_optw",
    "build_mdkp",
    "build_binpacking",
    "build_salbp1",
    "build_wt",
    "build_talent",
    "build_mosp",
    "build_graphclear",
    "merge_identical_scenes",
    "parse_tsptw",
    "parse_cvrp",
    "parse_mpdtsp",
    "parse_optw",
    "parse_mdkp",
    "parse_binpacking",
    "parse_salbp1",
    "parse_wt",
    "parse_talent",
    "parse_mosp",
    "parse_graphclear",
]
