#!/usr/bin/env python3
"""Compare the contract and anytime strategies on one instance file.

Runs each requested strategy under the same time budget, prints its bound
trajectory (the ledger history), and finishes with a side-by-side summary
of lower bound, upper bound, and gap.

Usage:
    python3 scripts/run_strategies.py instance.ctt \
        [--strategies contract anytime] [--total-time 60] \
        [--surface-time 30] [--per-dive-time 10] \
        [--surface-model surface2]
"""

from __future__ import annotations

import argparse
import sys

from cttsolve.control import StrategyConfig, run_strategy
from cttsolve.instance import parse_ctt


def fmt(value) -> str:
    return "--" if value is None else f"{value:g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("instance", help="path to a .ctt instance file")
    parser.add_argument("--strategies", nargs="+",
                        default=["contract", "anytime"],
                        choices=["exact", "contract", "anytime"])
    parser.add_argument("--total-time", type=float, default=60.0,
                        help="overall budget per strategy in seconds")
    parser.add_argument("--surface-time", type=float, default=None,
                        help="budget for the bounding phase (default: half "
                             "of the total budget)")
    parser.add_argument("--per-dive-time", type=float, default=10.0,
                        help="budget for each restricted solve in seconds")
    parser.add_argument("--surface-model", default="surface",
                        choices=["surface", "surface2"])
    args = parser.parse_args()

    with open(args.instance, encoding="utf-8") as handle:
        instance = parse_ctt(handle.read())

    surface_time = (args.surface_time if args.surface_time is not None
                    else args.total_time / 2.0)
    reports = {}
    for strategy in args.strategies:
        config = StrategyConfig(
            strategy=strategy,
            surface_model=args.surface_model,
            surface_time=None if strategy == "exact" else surface_time,
            per_dive_time=None if strategy == "exact" else args.per_dive_time,
            total_time=args.total_time,
        )
        print(f"=== {strategy} ===")
        result = run_strategy(instance, config)
        reports[strategy] = result
        base = result.history[0].at if result.history else 0.0
        for event in result.history:
            print(f"  t={event.at - base:>8.2f}  {event.kind:>5} -> "
                  f"{event.value:g}  ({event.source})")
        if result.dives:
            solved = sum(1 for d in result.dives if d.status == "optimal")
            print(f"  dives: {len(result.dives)} run, {solved} solved to "
                  f"optimality")
        print(f"  status: {result.status}")
        print()

    width = max(len(s) for s in reports)
    print(f"{'strategy':<{width}}  {'LB':>10}  {'UB':>10}  {'gap%':>6}  "
          f"status")
    for strategy, result in reports.items():
        print(f"{strategy:<{width}}  {fmt(result.lower_bound):>10}  "
              f"{fmt(result.upper_bound):>10}  {fmt(result.gap):>6}  "
              f"{result.status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
