"""Differential check of model evaluation against a recorded golden file.

``fixtures/eval_golden.json`` holds, for seeded tiny instances of every
problem class, the states met on a few seeded random walks from the
target, and at each state what the model's queries returned: the state
constraint verdict, the applicable transition names (forced and all),
every successor and weight, the dual bound, and the base cost.  The file
was recorded with the per-node tree-walking evaluator that preceded the
compiled one, so the test pins the compiled path to the old results.

Regenerate it (only when the model builders change on purpose) with::

    PYTHONPATH=src python tests/test_eval_golden.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from random import Random

import pytest

from dpsearch.problems import CLASSES

GOLDEN = Path(__file__).parent / "fixtures" / "eval_golden.json"
INSTANCES = 3  # per problem class
WALKS = 3  # per instance
MAX_DEPTH = 25


def build(name: str, index: int):
    cls = CLASSES[name]
    return cls.build(cls.random(Random(f"golden/{name}/{index}")))


def _query(fn, *args):
    """The query's result, or the name of the exception it raised."""
    try:
        return {"value": fn(*args)}
    except Exception as err:  # recorded, and compared by type name
        return {"error": type(err).__name__}


def _listed(result: dict) -> dict:
    value = result.get("value")
    if isinstance(value, tuple):
        return {"value": list(value)}
    if isinstance(value, list):
        return {"value": [t.name for t in value]}
    return result


def _is(result: dict, test) -> dict:
    """``test`` of a query's value, or the query's error."""
    return {"value": test(result["value"])} if "value" in result else result


def observe(model, state) -> dict:
    """Every query result at ``state``, in JSON-ready form."""
    base_cost = _query(model.base_cost, state)
    seen = {
        "constraints": _query(model.check_constraints, state),
        "applicable": _listed(_query(model.applicable_transitions, state)),
        "dual_bound": _query(model.eval_dual_bound, state),
        "base_cost": base_cost,
        "is_base": _is(base_cost, lambda cost: cost is not None),
    }
    every = _query(model.all_applicable_transitions, state)
    edges = {}
    for transition in model.transitions:
        applicable = _is(every, lambda options: any(t is transition for t in options))
        entry = {"applicable": applicable}
        if applicable.get("value"):
            entry["successor"] = _listed(_query(model.successor, transition, state))
            entry["weight"] = _query(model.weight, transition, state)
        edges[transition.name] = entry
    seen["transitions"] = edges
    return seen


def walk_states(model, rng: Random) -> list[tuple]:
    """States of one random walk from the target over applicable transitions."""
    state = model.target
    states = [state]
    for _ in range(MAX_DEPTH):
        try:
            options = model.all_applicable_transitions(state)
            if not options or model.base_cost(state) is not None:
                break
            state = model.successor(rng.choice(options), state)
        except Exception:
            break
        states.append(state)
    return states


def record() -> dict:
    golden = {}
    for name in sorted(CLASSES):
        for index in range(INSTANCES):
            model = build(name, index)
            rng = Random(f"golden-walk/{name}/{index}")
            states = []
            for _ in range(WALKS):
                for state in walk_states(model, rng):
                    if state not in states:
                        states.append(state)
            golden[f"{name}/{index}"] = [
                {"state": list(state), "seen": observe(model, state)} for state in states
            ]
    return golden


def _canonical(seen: dict) -> str:
    return json.dumps(seen, sort_keys=True)


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(INSTANCES))
@pytest.mark.parametrize("name", sorted(CLASSES))
def test_queries_match_golden(name, index):
    records = _golden()[f"{name}/{index}"]
    model = build(name, index)
    assert records, "every instance records at least its target"
    for record in records:
        state = tuple(record["state"])
        # compared as JSON text, so that an int where a float was recorded fails
        assert _canonical(observe(model, state)) == _canonical(record["seen"]), state


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
