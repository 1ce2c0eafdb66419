"""dpsearch benchmark: seeded instances through the CLI's solve path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed draws a workload's instances (``instances.py``).  Each instance
is built with the public builders, written as YAML with
``yamlio.serialize_model`` (the ``dpsearch convert`` path), read back
with ``yamlio.load_model`` and ``validate``, and solved with ``solve``:
the calls ``dpsearch solve`` makes, in this one process and thread.  One
pass does that for every instance of the workload, one operation after
another (a closed loop with a single client); passes repeat while the
next one should end within ``--seconds``.  Each end-to-end time sums,
over the instances, the instance's median over passes.

Times are wall-clock seconds scaled to a reference machine speed: a
fixed pure-Python calibration (``calibrate``) runs between timed steps
once ``BATCH_S`` of steps have run since the last one, and each step's
time is multiplied by ``CALIBRATION_S`` over the mean of the
calibrations around it.  Shared machines change speed by up to 2x
within seconds; the scaled times follow the program instead.

Every operation is checked: the loaded model equals the model written,
each solve comes back proved with the optimum that ``reference.py``
computes without dpsearch, and replaying the returned transitions
through the model reproduces the reported cost.  Every pass must also
repeat the first pass's costs and expanded and generated counts.

With ``--trace 1`` each pass runs once untraced and once traced
(``tracing.py``), and the per-layer metrics come from the traced passes.
The last line printed is the JSON result; the lines before it give
every metric with its unit, the error rate, and how the expanded and
generated totals compare with those pinned in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
if not (SOURCES / "dpsearch" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dpsearch sources under {SOURCES}")
sys.path.insert(0, str(SOURCES))

from dpsearch import metrics  # noqa: E402
from dpsearch import model as dp_model  # noqa: E402
from dpsearch import yamlio  # noqa: E402
from dpsearch.model import combine  # noqa: E402
from dpsearch.problems import CLASSES  # noqa: E402
from dpsearch.search import Status, engine  # noqa: E402

import instances as gen  # noqa: E402
import reference  # noqa: E402
from tracing import MODEL_QUERIES, Tracer  # noqa: E402

HORIZON_S = 60.0  # primal-integral horizon; every solve here proves well before it
SPANS_DIR = ROOT / ".perfbench"

CALIBRATION = gen.tsptw(Random("calibration"), 10, 130)
# The reference speed is the one at which ``calibrate()`` takes this
# long: about its duration on the 2-core x86-64 machine (Python 3.11.7)
# the baseline was taken on.  Reported times are seconds at that speed.
CALIBRATION_S = 0.01
BATCH_S = 0.05  # at least this much timed work between calibrations


def calibrate() -> float:
    """Seconds for a fixed pure-Python search, with the garbage collector
    off so that the program's heap does not slow it down."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference.tsptw(CALIBRATION)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Times steps in seconds at the reference speed, into ``seconds``.

    Steps are scaled in batches: before a step, once the steps since the
    last calibration add up to ``BATCH_S``, a calibration runs and those
    steps are multiplied by ``CALIBRATION_S`` over the mean of the
    calibrations before and after them.
    """

    def __init__(self, seconds: dict):
        self._seconds = seconds
        self._before = calibrate()
        self._pending: list[tuple[object, float]] = []
        self._pending_s = 0.0

    def time(self, key, step, *args):
        """``step(*args)``, its duration recorded under ``key``."""
        if self._pending_s >= BATCH_S:
            self.flush()
        start = time.perf_counter()
        result = step(*args)
        elapsed = time.perf_counter() - start
        self.add(key, elapsed)
        self._pending_s += elapsed
        return result

    def add(self, key, raw: float) -> None:
        """Record wall-clock ``raw`` under ``key``, scaled with the batch."""
        self._pending.append((key, raw))

    def flush(self) -> None:
        after = calibrate()
        scale = CALIBRATION_S / ((self._before + after) / 2)
        for key, raw in self._pending:
            self._seconds[key] = raw * scale
        self._before = after
        self._pending.clear()
        self._pending_s = 0.0


@dataclass(frozen=True)
class Workload:
    solver: str
    draw: Callable[[Random], list[tuple[str, object, bool]]]
    """Draws (class name, instance record, solve it?) triples."""


# Why each workload is here: NOTES.md, and the "why" in BENCHMARK.json.
# Sizes give passes of a few seconds, and enough instances per pass that
# totals vary little from seed to seed.
WORKLOADS = {
    # expression evaluation dominates the solve
    "tsptw-caasdy": Workload(
        "caasdy",
        lambda rng: [("tsptw", gen.tsptw(rng, 14, 120), True) for _ in range(36)],
    ),
    # maximisation with cheap expressions: the search core dominates
    "mdkp-caasdy": Workload(
        "caasdy",
        lambda rng: [("mdkp", gen.mdkp(rng, 13, 2), True) for _ in range(120)],
    ),
    # the only path through search/beam.py
    "cvrp-cabs": Workload(
        "cabs",
        lambda rng: [("cvrp", gen.cvrp(rng, 8, 2), True) for _ in range(30)],
    ),
    # large models: the YAML layer dominates; the narrow-window TSPTWs are solved
    "yaml-roundtrip": Workload(
        "caasdy",
        lambda rng: [
            draw
            for _ in range(3)
            for draw in (
                ("tsptw", gen.tsptw(rng, 40, 40), True),
                ("cvrp", gen.cvrp(rng, 30, 3), False),
                ("talent", gen.talent(rng, 20, 10), False),
                ("mdkp", gen.mdkp(rng, 100, 2), False),
            )
        ],
    ),
}

TIMED = ("setup_s", "solve_s", "primal_integral", "serialize_s")


@dataclass
class Item:
    name: str
    model: object
    expected: Optional[int]  # None: written and read back, not solved


@dataclass
class Pass:
    seconds: dict = field(default_factory=dict)  # (item, metric) -> scaled seconds
    yaml_bytes: int = 0
    failed: int = 0
    outcomes: dict = field(default_factory=dict)  # item -> (cost, expanded, generated)


class CheckFailed(Exception):
    pass


def prepare(name: str, seed: int) -> list[Item]:
    items = []
    draws = WORKLOADS[name].draw(Random(f"{name}/{seed}"))
    for index, (cls, instance, solved) in enumerate(draws):
        expected = reference.OPTIMUM[cls](instance) if solved else None
        items.append(Item(f"{cls}-{index}", CLASSES[cls].build(instance), expected))
    return items


def replay_cost(model, transitions: list[str]):
    """Cost of applying ``transitions`` from the target, by the model."""
    by_name = {t.name: t for t in model.transitions}
    state, cost = model.target, model.costs.identity
    for name in transitions:
        transition = by_name[name]
        if transition not in model.applicable_transitions(state):
            raise CheckFailed(f"transition {name} is not applicable on replay")
        cost = combine(model.costs, cost, model.weight(transition, state))
        state = model.successor(transition, state)
    base = model.base_cost(state)
    if base is None:
        raise CheckFailed("replayed path does not end in a base state")
    return combine(model.costs, cost, base)


def load(domain: str, problem: str, solver: str):
    """What ``dpsearch solve`` does before it searches."""
    model = yamlio.load_model(domain, problem)
    return model, dp_model.validate(model, solver=solver)


def run_item(item: Item, solver: str, result: Pass, clock: Clock,
             tracer: Optional[Tracer]) -> None:
    """One operation and its checks."""
    domain, problem = clock.time(
        (item.name, "serialize_s"), yamlio.serialize_model, item.model
    )
    model, diagnostics = clock.time(
        (item.name, "setup_s"), load, domain, problem, solver
    )
    result.yaml_bytes += len(domain.encode()) + len(problem.encode())
    errors = [d.message for d in diagnostics if d.level == "error"]
    if errors:
        raise CheckFailed(f"validate: {errors}")
    if model != item.model:
        raise CheckFailed("loaded model differs from the model written")
    if item.expected is None:
        return

    if tracer is not None:
        tracer.wrap_model(model)
    solution = clock.time((item.name, "solve_s"), engine.solve, model, solver)
    if solution.status != Status.OPTIMAL:
        raise CheckFailed(f"status {solution.status.value}, expected optimal")
    if solution.cost != item.expected:
        raise CheckFailed(f"cost {solution.cost}, expected {item.expected}")
    replayed = replay_cost(item.model, solution.transitions)
    if replayed != solution.cost:
        raise CheckFailed(f"replayed cost {replayed} != reported {solution.cost}")
    events = [(min(t, HORIZON_S), cost) for t, cost in solution.primal_events]
    integral = metrics.primal_integral(events, item.expected, HORIZON_S)
    clock.add((item.name, "primal_integral"), integral)
    result.outcomes[item.name] = (solution.cost, solution.expanded, solution.generated)


def run_pass(solver: str, items: list[Item], tracer: Optional[Tracer]) -> Pass:
    gc.collect()
    result = Pass()
    clock = Clock(result.seconds)
    for item in items:
        try:
            run_item(item, solver, result, clock, tracer)
        except Exception as err:  # report and go on: the result counts it
            result.failed += 1
            if isinstance(err, CheckFailed):
                print(f"check failed on {item.name}: {err}", file=sys.stderr)
            else:
                print(f"error on {item.name}:", file=sys.stderr)
                traceback.print_exc()
    clock.flush()
    return result


def counts(result: Pass) -> tuple[int, int]:
    """Total expanded and generated states of a pass."""
    done = result.outcomes.values()
    return sum(o[1] for o in done), sum(o[2] for o in done)


def workload_total(passes, metric: str) -> float:
    """Sum over instances of the instance's median over ``passes``."""
    keys = {key for p in passes for key in p.seconds if key[1] == metric}
    return sum(
        statistics.median(p.seconds[key] for p in passes if key in p.seconds)
        for key in keys
    )


def end_to_end(passes: list[Pass]) -> dict[str, tuple]:
    out = {name: (workload_total(passes, name), "s") for name in TIMED}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["peak_rss_mb"] = (peak, "MB")
    return out


def per_layer(untraced: list[Pass], traced: list[tuple[Pass, dict]]) -> dict[str, tuple]:
    layers = [layer for _, layer in traced]
    last = layers[-1]
    calls, outcomes = last["calls"], last["outcomes"]

    def self_s(span: str) -> float:
        return statistics.median(layer["self_s"].get(span, 0.0) for layer in layers)

    def ratio(span: str) -> float:
        return outcomes[span] / calls[span] if calls[span] else 0.0

    expanded, generated = counts(untraced[0])
    solve_s = workload_total(untraced, "solve_s")
    out: dict[str, tuple] = {}
    for query in MODEL_QUERIES:
        out[f"model.{query}.calls"] = (calls[f"model.{query}"], "count")
        out[f"model.{query}.self_s"] = (self_s(f"model.{query}"), "s")
    out["model.check_constraints.pass_ratio"] = (ratio("model.check_constraints"), "ratio")
    out["nodes.registry.blocked.calls"] = (calls["nodes.registry.blocked"], "count")
    out["nodes.registry.blocked.self_s"] = (self_s("nodes.registry.blocked"), "s")
    out["nodes.registry.blocked.hit_ratio"] = (ratio("nodes.registry.blocked"), "ratio")
    out["nodes.registry.insert.calls"] = (calls["nodes.registry.insert"], "count")
    out["nodes.registry.insert.self_s"] = (self_s("nodes.registry.insert"), "s")
    out["nodes.registry.insert.evicted"] = (outcomes["nodes.registry.insert"], "count")
    out["nodes.make_node.calls"] = (calls["nodes.make_node"], "count")
    out["nodes.make_node.self_s"] = (self_s("nodes.make_node"), "s")
    out["nodes.tracker.self_s"] = (self_s("nodes.tracker"), "s")
    out["open_lists.push.self_s"] = (self_s("open_lists.push"), "s")
    out["open_lists.pop.calls"] = (calls["open_lists.pop"], "count")
    out["open_lists.pop.self_s"] = (self_s("open_lists.pop"), "s")
    out["engine.self_s"] = (self_s("engine"), "s")
    out["search.expanded"] = (expanded, "count")
    out["search.generated"] = (generated, "count")
    out["search.generated_per_s"] = (generated / solve_s if solve_s else 0.0, "1/s")
    out["beam.self_s"] = (self_s("beam"), "s")
    out["beam.passes"] = (calls["beam"], "count")
    out["beam.final_width"] = (last["final_width"], "count")
    for span in ("yaml_load", "parse_domain", "parse_problem", "instantiate",
                 "serialize_model", "yaml_dump"):
        out[f"yamlio.{span}.self_s"] = (self_s(f"yamlio.{span}"), "s")
    out["sexpr.parse.calls"] = (calls["sexpr.parse"], "count")
    out["sexpr.parse.self_s"] = (self_s("sexpr.parse"), "s")
    out["model.validate.self_s"] = (self_s("model.validate"), "s")
    out["yamlio.bytes"] = (untraced[0].yaml_bytes, "bytes")
    traced_solve_s = workload_total([p for p, _ in traced], "solve_s")
    out["trace.overhead_ratio"] = (traced_solve_s / solve_s if solve_s else 0.0, "ratio")
    return out


def pinned_counts(workload: str, seed: int) -> Optional[dict]:
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    pinned = json.loads(path.read_text())["pinned_counts"]
    return pinned.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    solver = WORKLOADS[args.workload].solver
    items = prepare(args.workload, args.seed)
    # The benchmark's own objects stay out of the collector's way, so
    # that collections during a step cost what dpsearch's objects cost.
    gc.freeze()
    untraced: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    start = last = time.perf_counter()
    while True:
        untraced.append(run_pass(solver, items, None))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                result = run_pass(solver, items, tracer)
            calls, self_s = tracer.summary()
            traced.append((result, {
                "calls": calls,
                "self_s": self_s,
                "outcomes": tracer.outcomes,
                "final_width": tracer.final_width,
            }))
        # start another pass only if it should end within --seconds
        now = time.perf_counter()
        if now - start + (now - last) > args.seconds:
            break
        last = now

    passes = untraced + [p for p, _ in traced]
    attempted = len(items) * len(passes)
    failed = sum(p.failed for p in passes)
    first = untraced[0].outcomes
    for p in passes[1:]:
        # a solve that differs from the first pass's is nondeterministic search
        failed += sum(1 for name, o in p.outcomes.items() if first.get(name, o) != o)
    expanded, generated = counts(untraced[0])

    print(f"perfbench {args.workload} seed={args.seed} solver={solver} "
          f"instances={len(items)} passes={len(untraced)} traced_passes={len(traced)}")
    if args.trace:
        measured = per_layer(untraced, traced)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}")
    else:
        measured = end_to_end(untraced)
    for name, (value, unit) in measured.items():
        print(f"  {name:40s} {value!r} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted!r} ratio "
          f"({failed} of {attempted} operations failed)")
    pinned = pinned_counts(args.workload, args.seed)
    if pinned is None:
        verdict = "no counts pinned for this seed"
    elif pinned == {"expanded": expanded, "generated": generated}:
        verdict = "equal to the pinned counts"
    else:
        verdict = f"MISMATCH with the pinned counts {pinned}"
        print(f"determinism: {verdict}", file=sys.stderr)
    print(f"  determinism: expanded={expanded} generated={generated}, {verdict}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
