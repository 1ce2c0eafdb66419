"""Spans around the calls into each dpsearch layer, recorded from outside.

``Tracer.installed()`` swaps the names that dpsearch modules look up at
call time (module attributes such as ``yamlio.parse_domain`` or
``engine.StateRegistry``) for wrappers that record a span per call, and
restores them on exit.  ``Tracer.wrap_model`` does the same for the
query methods of one loaded ``Model``.  Nothing in ``src/`` changes.

A span is (name, start, end, parent).  Spans stay in memory, in flat
arrays, until ``write`` saves them; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import yaml

from dpsearch import model as dp_model
from dpsearch import sexpr, yamlio
from dpsearch.search import beam, engine, nodes, open_lists

MODEL_QUERIES = (
    "check_constraints",
    "eval_dual_bound",
    "applicable_transitions",
    "successor",
    "weight",
    "base_cost",
)

OPEN_LISTS = (
    "BestFirstList",
    "DepthStackList",
    "CyclicLayerList",
    "LayerBudgetList",
    "PackList",
    "DiscrepancyList",
)

YAMLIO_CALLS = ("serialize_model", "load_model", "parse_domain", "parse_problem", "instantiate")

SEXPR_PARSERS = ("parse_condition", "parse_effect", "parse_cost", "parse_numeric")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.outcomes: Counter = Counter()
        self.final_width = 0  # widest beam pass seen

    def wrap(self, name: str, fn, outcome=None):
        """``fn`` recording one span per call; ``outcome(result)`` returns
        a number added to the counter ``name`` in ``self.outcomes``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        outcomes = self.outcomes

        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if outcome is not None:
                outcomes[name] += outcome(result)
            return result

        return traced

    def _traced_class(self, cls, spans: dict[str, str], outcomes=None):
        """Subclass of ``cls`` whose methods named in ``spans`` record a
        span under the name they map to."""
        outcomes = outcomes or {}
        members = {
            method: self.wrap(name, getattr(cls, method), outcomes.get(method))
            for method, name in spans.items()
        }
        return type(cls.__name__, (cls,), members)

    def wrap_model(self, model) -> None:
        """Trace the query methods the solvers call on ``model``."""
        for query in MODEL_QUERIES:
            outcome = bool if query == "check_constraints" else None
            setattr(model, query, self.wrap(f"model.{query}", getattr(model, query), outcome))

    def _beam_search(self, fn):
        traced = self.wrap("beam", fn)

        def beam_search(model, width, *args, **kwargs):
            self.final_width = max(self.final_width, width)
            return traced(model, width, *args, **kwargs)

        return beam_search

    @contextlib.contextmanager
    def installed(self):
        registry = self._traced_class(
            nodes.StateRegistry,
            {"blocked": "nodes.registry.blocked", "insert": "nodes.registry.insert"},
            {"blocked": bool, "insert": len},
        )
        tracker = self._traced_class(
            nodes.BoundTracker, {"push": "nodes.tracker", "probe": "nodes.tracker"}
        )
        open_list_spans = {"push": "open_lists.push", "pop": "open_lists.pop"}
        make_node = self.wrap("nodes.make_node", nodes.make_node)
        patches = [
            (engine, "solve", self.wrap("solve", engine.solve)),
            (engine, "generic_search", self.wrap("engine", engine.generic_search)),
            (engine, "StateRegistry", registry),
            (engine, "BoundTracker", tracker),
            (engine, "make_node", make_node),
            (beam, "beam_search", self._beam_search(beam.beam_search)),
            (beam, "StateRegistry", registry),
            (beam, "make_node", make_node),
            *(
                (yamlio, name, self.wrap(f"yamlio.{name}", getattr(yamlio, name)))
                for name in YAMLIO_CALLS
            ),
            (yaml, "load", self.wrap("yamlio.yaml_load", yaml.load)),
            (yaml, "dump", self.wrap("yamlio.yaml_dump", yaml.dump)),
            (dp_model, "validate", self.wrap("model.validate", dp_model.validate)),
        ]
        patches += [
            (engine, name, self._traced_class(getattr(open_lists, name), open_list_spans))
            for name in OPEN_LISTS
        ]
        patches += [
            (sexpr, name, self.wrap("sexpr.parse", getattr(sexpr, name)))
            for name in SEXPR_PARSERS
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, value in patches:
                setattr(module, name, value)
            yield self
        finally:
            for module, name, value in saved:
                setattr(module, name, value)

    def summary(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self seconds per span name."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        children = [0.0] * len(starts)
        for index, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += ends[index] - starts[index]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for index, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += ends[index] - starts[index] - children[index]
        return calls, self_s

    def write(self, stem: Path) -> None:
        """Save the spans: ``stem.bin`` holds the columns one after another
        in native byte order, and ``stem.json`` lists the columns with
        their array typecodes, the span count and the span names that the
        ``name`` column indexes.  A parent of -1 marks a root span."""
        columns = {
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
        }
        with open(stem.with_suffix(".bin"), "wb") as out:
            for column in columns.values():
                column.tofile(out)
        layout = {
            "count": len(self.span_name),
            "byteorder": sys.byteorder,
            "columns": [[name, column.typecode] for name, column in columns.items()],
            "names": self.names,
        }
        stem.with_suffix(".json").write_text(json.dumps(layout))
