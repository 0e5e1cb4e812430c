#!/usr/bin/env python3
"""Sweep held-out instances under the benchmark's budgets and compare every
bound with a pinned table.

The instances come from the benchmark generator (`bench/generate.py`,
loaded by file path) on streams the benchmark never draws from: 48 `small`
instances, each run by the exact, contract and anytime jobs of the
corpus-small workload, and 24 `mid` instances, each run by search-mid's
contract job and by the same budgets under anytime.  The budgets are read
from `bench/run.py`'s `WORKLOADS`, with `total_time=1e6`.

The script prints one row per instance, then per preset and strategy the
sums of the lower and upper bounds, the number of calls without an upper
bound and the number of `optimal` calls, then how many calls take their
final upper bound from each ledger source (`greedy`, `surface+match`,
`dive:<kind>` or `exact`), per preset and strategy the time from each
call's start to its first upper bound, summed over the calls, and the
instances whose calls start without a `greedy` bound (the greedy period
assignment dead-ends there, so the first bound waits for a search).  It
compares every call with
`scripts/held_out_bounds.json` and prints how many calls are better and
worse than the table, naming each worse one.  A moved bound fails nothing;
`--pin` rewrites the table, so its diff shows what a search change moved.

It exits non-zero when a lower bound is more than FEAS_TOL above another
call's upper bound on the same instance, or when a reported timetable fails
the hard constraints or does not evaluate to its upper bound.

Usage, from the repository root:
    PYTHONPATH=src python3 scripts/held_out.py [--pin]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from cttsolve.control import (StrategyConfig, run_strategy,
                              solution_from_payload)
from cttsolve.evaluation import check_hard, evaluate
from cttsolve.instance import parse_ctt, serialize_ctt
from cttsolve.milp import FEAS_TOL

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "held_out_bounds.json"
COUNTS = {"small": 48, "mid": 24}
TOTAL_TIME = 1e6  # far above any call: the ledger then stamps seconds


class Call(NamedTuple):
    instance: str
    strategy: str
    lower: float | None
    upper: float | None
    status: str
    source: str | None = None  # of the final upper bound
    # seconds from the call's start to its first upper bound
    first_upper: float | None = None
    first_source: str | None = None  # of the first upper bound


def load(path: Path):
    """The module at `path`.  It is registered before it runs, because
    `dataclass` looks its module up in `sys.modules`."""
    name = f"held_out_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def jobs(workloads) -> dict[str, tuple[dict, ...]]:
    """The StrategyConfig arguments run on each preset's instances."""
    small = workloads["corpus-small"]
    mid = workloads["search-mid"]
    contract, = mid.jobs
    return {small.preset: small.jobs,
            mid.preset: (contract, dict(contract, strategy="anytime"))}


def instances(generate, preset: str):
    base = random.Random(f"{preset}:fresh-held-out")
    for i in range(COUNTS[preset]):
        yield parse_ctt(serialize_ctt(generate.generate(
            generate.PRESETS[preset], base, f"{preset}-{i}")))


def timetable_fault(instance, report) -> str | None:
    """Why the report's timetable does not back its upper bound, if so."""
    solution = solution_from_payload(report.solution)
    if solution is None:
        return (None if report.upper_bound is None
                else "an upper bound without a timetable")
    violations = check_hard(instance, solution)
    if violations:
        return f"an infeasible timetable: {violations[0]}"
    value = evaluate(instance, solution)
    if value != report.upper_bound:
        return (f"a timetable of value {value} for upper bound"
                f" {report.upper_bound}")
    return None


def _key(call: Call) -> str:
    return f"{call.instance} {call.strategy}"


def crossed(calls: list[Call]) -> list[str]:
    """Instances on which a lower bound exceeds another call's upper bound
    by more than FEAS_TOL."""
    faults = []
    for name in dict.fromkeys(c.instance for c in calls):
        own = [c for c in calls if c.instance == name]
        high = max(own, key=lambda c: -math.inf if c.lower is None
                   else c.lower)
        low = min(own, key=lambda c: math.inf if c.upper is None
                  else c.upper)
        if (high.lower is not None and low.upper is not None
                and high.lower > low.upper + FEAS_TOL):
            faults.append(f"{name}: {high.strategy} lower bound"
                          f" {high.lower:g} above {low.strategy} upper bound"
                          f" {low.upper:g}")
    return faults


def compare(calls: list[Call], table: dict) -> tuple[list[str], int,
                                                      list[str]]:
    """The failures (crossed bounds), the number of calls better than the
    table, and a line for each worse one.  A call is better when a bound is
    tighter than its pinned one, and worse when a bound is looser or it has
    no pinned entry."""
    better, worse = 0, []
    for call in calls:
        pinned = table.get(call.instance, {}).get(call.strategy)
        if pinned is None:
            worse.append(f"{_key(call)}: not in the table")
            continue
        lower, pinned_lower = (-math.inf if v is None else v
                               for v in (call.lower, pinned[0]))
        upper, pinned_upper = (math.inf if v is None else v
                               for v in (call.upper, pinned[1]))
        better += lower > pinned_lower or upper < pinned_upper
        if lower < pinned_lower or upper > pinned_upper:
            worse.append(f"{_key(call)}: lower {_bound(pinned[0])} ->"
                         f" {_bound(call.lower)}, upper {_bound(pinned[1])}"
                         f" -> {_bound(call.upper)}")
    return crossed(calls), better, worse


def pin(calls: list[Call]) -> None:
    table: dict[str, dict[str, list]] = {}
    for call in calls:
        table.setdefault(call.instance, {})[call.strategy] = [call.lower,
                                                              call.upper]
    lines = [f" {json.dumps(name)}: {json.dumps(bounds)}"
             for name, bounds in table.items()]
    TABLE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def summary(calls: list[Call], preset: str, strategy: str) -> str:
    own = [c for c in calls if c.instance.startswith(f"{preset}-")
           and c.strategy == strategy]
    lower = sum(c.lower for c in own if c.lower is not None)
    upper = sum(c.upper for c in own if c.upper is not None)
    missing = sum(c.upper is None for c in own)
    optimal = sum(c.status == "optimal" for c in own)
    return (f"{preset} {strategy}: {lower:g}/{upper:g}"
            f" ({missing} without an upper bound, {optimal} optimal)")


def sources(calls: list[Call]) -> str:
    counts = Counter(c.source or "none" for c in calls)
    return "final upper bounds from: " + ", ".join(
        f"{source} {n}" for source, n in sorted(counts.items()))


def first_upper(calls: list[Call], budgets: dict) -> str:
    """Per preset and strategy, the summed time from each call's start to
    its first upper bound; a call without one adds nothing."""
    parts = []
    for preset, specs in budgets.items():
        for spec in specs:
            seconds = sum(c.first_upper or 0.0 for c in calls
                          if c.instance.startswith(f"{preset}-")
                          and c.strategy == spec["strategy"])
            parts.append(f"{preset} {spec['strategy']}"
                         f" {1e3 * seconds:.1f} ms")
    return "time to the first upper bound, summed: " + ", ".join(parts)


def dead_ends(calls: list[Call]) -> str:
    """The instances with a call whose first upper bound is not `greedy`,
    and how many such calls there are."""
    ends = [c for c in calls if c.first_source != "greedy"]
    names = ", ".join(dict.fromkeys(c.instance for c in ends)) or "none"
    return (f"greedy dead ends: {names}"
            f" ({len(ends)} of {len(calls)} calls)")


def _bound(value: float | None) -> str:
    return "--" if value is None else f"{value:g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true",
                        help=f"rewrite {TABLE.name} from this run")
    args = parser.parse_args()

    generate = load(ROOT / "bench" / "generate.py")
    budgets = jobs(load(ROOT / "bench" / "run.py").WORKLOADS)
    calls: list[Call] = []
    failures: list[str] = []
    started = time.perf_counter()
    for preset, specs in budgets.items():
        for instance in instances(generate, preset):
            row = []
            for spec in specs:
                report = run_strategy(instance, StrategyConfig(
                    **spec, total_time=TOTAL_TIME))
                uppers = [e for e in report.history if e.kind == "upper"]
                call = Call(instance.name, report.strategy,
                            report.lower_bound, report.upper_bound,
                            report.status,
                            uppers[-1].source if uppers else None,
                            uppers[0].at - report.started if uppers else None,
                            uppers[0].source if uppers else None)
                calls.append(call)
                row.append(f"{call.strategy} {_bound(call.lower)}/"
                           f"{_bound(call.upper)}")
                fault = timetable_fault(instance, report)
                if fault is not None:
                    failures.append(f"{_key(call)}: {fault}")
            print(f"{instance.name:>8}  " + "  ".join(row))
    elapsed = time.perf_counter() - started

    if args.pin:
        pin(calls)
    table = json.loads(TABLE.read_text())
    crossings, better, worse = compare(calls, table)
    failures += crossings
    print()
    for preset, specs in budgets.items():
        for spec in specs:
            print(summary(calls, preset, spec["strategy"]))
    print(sources(calls))
    print(first_upper(calls, budgets))
    print(dead_ends(calls))
    print(f"{len(calls)} calls in {elapsed:.1f} s;"
          f" against {TABLE.name}: {better} better, {len(worse)} worse")
    for line in worse:
        print(f"worse: {line}")
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
