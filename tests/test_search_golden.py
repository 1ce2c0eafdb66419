"""Every solver's outcome and search counts against a recorded golden file.

``fixtures/search_golden.json`` holds, for seeded tiny instances of every
problem class and every solver, the status, cost, transitions and the
expanded and generated counts.  Search is deterministic, so a change to
the engine or the beam that alters which nodes are expanded or generated
shows up here, for every solver, as a count mismatch.

Regenerate it (only when the search changes its counts on purpose) with::

    PYTHONPATH=src python tests/test_search_golden.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from random import Random

import pytest

import dpsearch as dp
from dpsearch.problems import CLASSES

GOLDEN = Path(__file__).parent / "fixtures" / "search_golden.json"
INSTANCES = 3  # per problem class


def build(name: str, index: int):
    cls = CLASSES[name]
    return cls.build(cls.random(Random(f"search-golden/{name}/{index}")))


def observe(model, solver: str) -> dict:
    solution = dp.solve(model, solver)
    return {
        "status": solution.status.value,
        "cost": solution.cost,
        "expanded": solution.expanded,
        "generated": solution.generated,
        "transitions": solution.transitions,
    }


def record() -> dict:
    golden = {}
    for name in sorted(CLASSES):
        for index in range(INSTANCES):
            model = build(name, index)
            golden[f"{name}/{index}"] = {
                solver: observe(model, solver) for solver in dp.SOLVER_NAMES
            }
    return golden


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(INSTANCES))
@pytest.mark.parametrize("name", sorted(CLASSES))
def test_search_matches_golden(name, index):
    recorded = _golden()[f"{name}/{index}"]
    model = build(name, index)
    assert sorted(recorded) == sorted(dp.SOLVER_NAMES)
    for solver in dp.SOLVER_NAMES:
        # compared as JSON text, so that an int where a float was recorded fails
        seen = json.dumps(observe(model, solver), sort_keys=True)
        assert seen == json.dumps(recorded[solver], sort_keys=True), solver


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
