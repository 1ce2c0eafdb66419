"""Command-line entry points.

``dpsearch solve`` reads domain/problem/config files, runs the chosen
solver, writes the solution record, and prints a run report.  Exit
status: 0 when optimality or infeasibility was proved, 2 on a feasible
solution without proof, 3 when nothing was found, 1 on usage or parse
errors.  ``dpsearch convert`` turns a raw instance text into domain and
problem files.  ``dpsearch gap`` and ``dpsearch primal-integral``
compute the two run metrics; the latter reads ``time,cost`` CSV lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import metrics, yamlio
from .errors import DpsearchError
from .model import validate
from .problems import CLASSES
from .problems.mdkp import parse_mdkp
from .search import Status, solve

CONFIG_ENV = "DPSEARCH_CONFIG"

EXIT_PROVED = 0
EXIT_USAGE = 1
EXIT_FEASIBLE = 2
EXIT_NOTHING = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise DpsearchError(f"cannot read {path}: {err}") from err


def run_solve(args) -> int:
    domain_text = _read(args.domain)
    problem_text = _read(args.problem)
    config_path = args.config or os.environ.get(CONFIG_ENV)
    if config_path:
        config = yamlio.parse_solver_config(_read(config_path))
    else:
        config = yamlio.SolverConfig("cabs", yamlio.SolverParams())
    if args.time_limit is not None:
        config.params = replace(config.params, time_limit=args.time_limit)

    model = yamlio.load_model(domain_text, problem_text)
    diagnostics = validate(model, solver=config.solver)
    errors = [d for d in diagnostics if d.level == "error"]
    for diag in diagnostics:
        if diag.level == "error" or not args.quiet:
            print(f"{diag.level}: {diag.message}", file=sys.stderr)
    if errors:
        return EXIT_USAGE

    solution = solve(model, config.solver, config.params)
    record = yamlio.write_solution(solution)
    if args.output:
        Path(args.output).write_text(record)
    else:
        sys.stdout.write(record)

    params_echo = {
        key: (None if isinstance(value, float) and math.isinf(value) else value)
        for key, value in vars(config.params).items()
    }
    report = {
        "instance": args.problem,
        "solver": config.solver,
        "params": params_echo,
        "status": solution.status.value,
        "cost": solution.cost,
        "bound": solution.bound,
        "optimality_gap": solution.gap(),
        "expanded": solution.expanded,
        "generated": solution.generated,
        "elapsed": solution.elapsed,
    }
    if args.reference is not None:
        horizon = config.params.time_limit or max(solution.elapsed, 1e-9)
        events = [(min(t, horizon), c) for t, c in solution.primal_events]
        report["primal_integral"] = metrics.primal_integral(
            events, args.reference, horizon
        )
    if not args.quiet:
        print(json.dumps(report))

    if solution.status in (Status.OPTIMAL, Status.INFEASIBLE):
        return EXIT_PROVED
    if solution.status == Status.FEASIBLE:
        return EXIT_FEASIBLE
    return EXIT_NOTHING


def run_convert(args) -> int:
    if args.problem_class not in CLASSES:
        print(f"error: unknown problem class {args.problem_class!r}", file=sys.stderr)
        return EXIT_USAGE
    text = _read(args.input)
    if args.problem_class == "mdkp":
        instance = parse_mdkp(text, allow_fractional=args.continuous)
    else:
        instance = CLASSES[args.problem_class].parse(text)
    model = CLASSES[args.problem_class].build(instance)
    domain_text, problem_text = yamlio.serialize_model(model)
    Path(args.domain_out).write_text(domain_text)
    Path(args.problem_out).write_text(problem_text)
    return EXIT_PROVED


def run_gap(args) -> int:
    def value(token: str):
        return None if token == "absent" else float(token)

    print(metrics.optimality_gap(value(args.primal), value(args.dual)))
    return EXIT_PROVED


def run_primal_integral(args) -> int:
    events = []
    for line in _read(args.events).splitlines():
        line = line.strip()
        if not line:
            continue
        time_text, cost_text = line.split(",")
        events.append((float(time_text), float(cost_text)))
    print(metrics.primal_integral(events, args.reference, args.horizon))
    return EXIT_PROVED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsearch", description="solve declarative dynamic-programming models"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("solve", help="solve a domain/problem pair")
    cmd.add_argument("--domain", required=True)
    cmd.add_argument("--problem", required=True)
    cmd.add_argument("--config", help=f"solver config (default: ${CONFIG_ENV})")
    cmd.add_argument("--output", help="solution file path (default: stdout)")
    cmd.add_argument("--time-limit", type=float, default=None)
    cmd.add_argument("--reference", type=float, default=None,
                     help="reference cost for the primal integral")
    cmd.add_argument("--quiet", action="store_true")
    cmd.set_defaults(handler=run_solve)

    cmd = commands.add_parser("convert", help="convert a raw instance to model files")
    cmd.add_argument("problem_class", metavar="CLASS")
    cmd.add_argument("--input", required=True)
    cmd.add_argument("--domain-out", required=True)
    cmd.add_argument("--problem-out", required=True)
    cmd.add_argument("--continuous", action="store_true",
                     help="allow fractional data (continuous cost type)")
    cmd.set_defaults(handler=run_convert)

    cmd = commands.add_parser("gap", help="optimality gap of a primal/dual pair")
    cmd.add_argument("primal", help="primal bound or 'absent'")
    cmd.add_argument("dual", help="dual bound or 'absent'")
    cmd.set_defaults(handler=run_gap)

    cmd = commands.add_parser("primal-integral", help="integrate a primal event log")
    cmd.add_argument("--events", required=True, help="CSV lines 'time,cost'")
    cmd.add_argument("--reference", type=float, required=True)
    cmd.add_argument("--horizon", type=float, required=True)
    cmd.set_defaults(handler=run_primal_integral)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DpsearchError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
