"""Command line front end.

Exit codes: 0 success (valid / feasible), 1 semantic failure (invalid
instance, infeasible problem, hard-constraint violations), 2 usage or
syntax errors, and an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import __version__
from .control import (PATTERN_CUT_MAX_PERIODS, STRATEGIES, ControlError,
                      StrategyConfig, run_strategy, solution_from_payload)
from .evaluation import (check_hard, format_solution, objective,
                         parse_solution, penalties)
from .formulations import build_monolithic, build_surface, build_surface2
from .instance import (CttError, CttSemanticError, CttSyntaxError,
                       instance_stats, parse_ctt)
from .milp import MilpError, export_mps, format_values, parse_mps
from .solver import SolveConfig, SolverError, branch_and_bound


_BUILDERS = {"monolithic": build_monolithic, "surface": build_surface,
            "surface2": build_surface2}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CttSyntaxError(0, f"cannot read {path}: {exc}")


def _parse_weights(text: str | None):
    if text is None:
        return None
    fields = text.split(",")
    if len(fields) != 4:
        raise argparse.ArgumentTypeError(
            "weights must be four comma-separated integers")
    return tuple(int(f) for f in fields)


def _check_output(path: str | None) -> None:
    """Raise OSError unless a file can be written at ``path``, before a
    search spends its budget; the file is neither created nor truncated."""
    if path is None:
        return
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if not os.access(target, os.W_OK):
        raise OSError(f"cannot write {path}: {target} is missing or read-only")


def _load_instance(args):
    return parse_ctt(_read(args.instance), weights=args.weights)


def cmd_validate(args) -> int:
    instance = _load_instance(args)
    print(f"{instance.name}: valid ({len(instance.courses)} courses,"
          f" {len(instance.rooms)} rooms, {instance.periods} periods)")
    return 0


def cmd_stats(args) -> int:
    instance = _load_instance(args)
    stats = instance_stats(instance)
    print(f"instance: {instance.name}")
    for field in ("courses", "rooms", "periods", "events", "curricula"):
        print(f"{field}: {getattr(stats, field)}")
    print(f"frequency: {stats.frequency:.4f}")
    print(f"utilisation: {stats.utilisation:.4f}")
    print(f"conflict edges: {stats.conflict_edges}")
    print(f"conflict density: {stats.conflict_density:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    instance = _load_instance(args)
    solution = parse_solution(_read(args.solution), instance)
    violations = check_hard(instance, solution)
    if violations:
        for v in violations:
            print(f"violation [{v.kind}] {v.detail}", file=sys.stderr)
        return 1
    p = penalties(instance, solution)
    for field in ("capacity", "spread", "compactness", "stability"):
        print(f"{field}: {getattr(p, field)}")
    print(f"objective: {objective(instance.weights, p)}")
    return 0


def cmd_build(args) -> int:
    instance = _load_instance(args)
    model = _BUILDERS[args.formulation](instance)
    text = export_mps(model)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(model.variables)} variables,"
              f" {len(model.constraints)} constraints)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    instance = _load_instance(args)
    _check_output(args.output)
    # each of the strategy's options is a StrategyConfig field
    report = run_strategy(instance, StrategyConfig(
        **{field.name: getattr(args, field.name)
           for field in dataclasses.fields(StrategyConfig)}))
    if args.json:
        print(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    if report.solution is not None and args.output:
        solution = solution_from_payload(report.solution)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(format_solution(instance, solution))
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if report.status == "infeasible" else 0


def cmd_solve_mps(args) -> int:
    model = parse_mps(_read(args.model)).freeze()
    _check_output(args.output)
    config = SolveConfig(time_limit=args.time_limit,
                         node_limit=args.node_limit)
    result = branch_and_bound(model, config)
    print(f"status: {result.status}")
    print(f"lower bound: {result.lower_bound}")
    if result.incumbent is None:
        return 1 if result.status == "infeasible" else 0
    print(f"objective: {result.incumbent.objective_value}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(format_values(model, result.incumbent.values))
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cttsolve",
        description="Curriculum-based course timetabling solver")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_arg(p):
        p.add_argument("instance", help="instance file (.ctt)")
        p.add_argument("--weights", type=_parse_weights, default=None,
                       metavar="C,S,P,R",
                       help="soft-penalty weights: capacity, spread,"
                            " compactness, stability (default 1,5,2,1)")

    p = sub.add_parser("validate", help="parse and validate an instance")
    add_instance_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="print instance statistics")
    add_instance_arg(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("evaluate", help="score a timetable against an instance")
    add_instance_arg(p)
    p.add_argument("solution", help="solution file (courseId roomId day period)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("build", help="export a model as MPS")
    add_instance_arg(p)
    p.add_argument("--formulation", default="monolithic",
                   choices=tuple(_BUILDERS))
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="run a solve strategy")
    add_instance_arg(p)
    p.add_argument("--strategy", default="contract", choices=STRATEGIES)
    p.add_argument("--surface-model", default="surface",
                   choices=("surface", "surface2"),
                   help="surface2 is an error with --strategy exact")
    p.add_argument("--per-dive-time", type=float, default=math.inf,
                   help="seconds for each dive; an error with"
                        " --strategy exact")
    p.add_argument("--total-time", type=float, default=math.inf,
                   help="seconds for the whole run: every search stops at"
                        " it and no dive starts after it; the room search,"
                        " then contract's surface search, each take at most"
                        " half, anytime's surface and the exact search run"
                        " to it")
    p.add_argument("--surface-nodes", type=int, default=math.inf,
                   help="node limit of the surface search, or with"
                        " --strategy exact of the exact search")
    p.add_argument("--dive-nodes", type=int, default=math.inf,
                   help="node limit of each dive; an error with"
                        " --strategy exact")
    p.add_argument("--pattern-cuts", action="store_true",
                   help="add pattern-enumeration cuts to the searched model:"
                        " the surface, or the monolithic model with"
                        f" --strategy exact (days of at most"
                        f" {PATTERN_CUT_MAX_PERIODS} periods)")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None,
                   help="write the best timetable to this file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-mps", help="solve an MPS model exactly")
    p.add_argument("model", help="model file (.mps)")
    p.add_argument("--time-limit", type=float, default=math.inf)
    p.add_argument("--node-limit", type=int, default=math.inf)
    p.add_argument("-o", "--output", default=None,
                   help="write nonzero variable values to this file")
    p.set_defaults(func=cmd_solve_mps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CttSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CttSemanticError, ControlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CttError, MilpError, SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
