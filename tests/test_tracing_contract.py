"""The names the benchmark's tracer patches still exist and still run.

``perfbench/tracing.py`` swaps module attributes and class methods of
dpsearch for timed wrappers.  A rename in ``src/`` would make it fail
only when the benchmark runs with tracing, so this test runs the tracer
on a tiny model and checks that every layer reports a span.
"""

import sys
from pathlib import Path

from dpsearch import yamlio
from dpsearch.problems import CvrpInstance, build_cvrp
from dpsearch.search import beam, engine, nodes

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import Tracer  # noqa: E402

SPANS = (
    "nodes.registry.blocked",
    "nodes.registry.insert",
    "nodes.tracker",
    "nodes.make_node",
    "open_lists.pop",
    "beam",
    "model.check_constraints",
    "yamlio.parse_domain",
)


def test_every_traced_layer_records_spans():
    travel = ((0, 2, 3, 4), (2, 0, 1, 3), (3, 1, 0, 2), (4, 3, 2, 0))
    source = build_cvrp(CvrpInstance(travel, (0, 1, 2, 1), 3, 2))
    tracer = Tracer()
    with tracer.installed():
        model = yamlio.load_model(*yamlio.serialize_model(source))
        tracer.wrap_model(model)
        best_first = engine.caasdy(model)
        by_beam = beam.cabs(model)
    assert best_first.cost == by_beam.cost is not None
    calls, _ = tracer.summary()
    assert not [name for name in SPANS if not calls[name]]
    # the outcome counters applied bool/len to what the calls returned
    counted = ("nodes.registry.blocked", "nodes.registry.insert", "model.check_constraints")
    assert set(counted) <= tracer.outcomes.keys()
    assert engine.StateRegistry is nodes.StateRegistry  # restored on exit
