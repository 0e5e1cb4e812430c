#!/usr/bin/env python3
"""Sweep a corpus of random tiny instances and cross-check the solvers.

For each generated instance the script runs exhaustive enumeration, the
built-in branch-and-bound (via the exact strategy), the contract and
anytime strategies, and contract over the room-aggregated surface2, then
prints one table row per instance (C, A and S2 are their bounds).  Any
disagreement between the exact routes, or a contract, anytime or surface2
bound that fails to bracket the optimum, is reported and makes the script
exit non-zero.  A last line counts the feasible instances whose contract
and anytime lower bounds both reach the optimum; it fails nothing.

The instances come from `random_tiny_instance` in the test suite's
`tests/conftest.py`, loaded by file path, so the script and the tests
sweep the same generator.

Usage, from the repository root:
    PYTHONPATH=src python3 scripts/run_tiny_corpus.py [--count 25] [--seed 0]
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import sys
import time
from pathlib import Path

from cttsolve.control import StrategyConfig, run_strategy
from cttsolve.solver import brute_force_instance

CONFTEST = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"


def load_generator():
    """`random_tiny_instance` from the test suite's `tests/conftest.py`."""
    spec = importlib.util.spec_from_file_location("tiny_conftest", CONFTEST)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_tiny_instance


def _bound(value: float | None) -> str:
    return "--" if value is None else f"{value:g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=25,
                        help="number of instances to generate (default 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    args = parser.parse_args()

    random_tiny_instance = load_generator()
    rng = random.Random(args.seed)
    header = (f"{'#':>3}  {'crs':>3} {'rms':>3} {'slots':>5}  "
              f"{'brute':>7}  {'exact':>7}  {'C LB':>7}  {'C UB':>7}  "
              f"{'A LB':>7}  {'A UB':>7}  {'S2 LB':>7}  {'S2 UB':>7}  "
              f"{'secs':>6}  verdict")
    print(header)
    print("-" * len(header))

    failures = feasible = tight = 0
    for i in range(args.count):
        instance = random_tiny_instance(rng)
        started = time.perf_counter()

        brute = brute_force_instance(instance)
        exact = run_strategy(instance, StrategyConfig(strategy="exact"))
        pipelines = [run_strategy(instance, StrategyConfig(**spec))
                     for spec in ({"strategy": "contract"},
                                  {"strategy": "anytime"},
                                  {"strategy": "contract",
                                   "surface_model": "surface2"})]
        elapsed = time.perf_counter() - started

        if brute.status == "infeasible":
            ok = all(r.status == "infeasible" for r in [exact, *pipelines])
            brute_txt = exact_txt = "--"
        else:
            optimum = brute.lower_bound
            ok = (exact.status == "optimal"
                  and exact.upper_bound == optimum
                  and all(r.lower_bound is not None
                          and r.lower_bound <= optimum + 1e-9
                          and (r.upper_bound is None
                               or r.upper_bound >= optimum - 1e-9)
                          for r in pipelines))
            brute_txt = f"{optimum:g}"
            exact_txt = f"{exact.upper_bound:g}"
            feasible += 1
            tight += all(r.lower_bound is not None
                         and abs(r.lower_bound - optimum) <= 1e-9
                         for r in pipelines[:2])
        bounds = "".join(f"{_bound(r.lower_bound):>7}  "
                         f"{_bound(r.upper_bound):>7}  " for r in pipelines)

        verdict = "ok" if ok else "MISMATCH"
        failures += 0 if ok else 1
        print(f"{i:>3}  {len(instance.courses):>3} {len(instance.rooms):>3} "
              f"{instance.periods:>5}  {brute_txt:>7}  {exact_txt:>7}  "
              f"{bounds}{elapsed:>6.2f}  {verdict}")

    print(f"\n{args.count - failures}/{args.count} instances agree")
    print(f"{tight}/{feasible} feasible instances: contract and anytime"
          f" lower bounds equal the optimum")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
