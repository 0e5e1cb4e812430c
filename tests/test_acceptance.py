"""Acceptance gate: one criterion per test, each printing a PASS/FAIL line.

Criteria 1 and 7 reference the 14 published competition instances; when the
files are not present (point CTT_INSTANCE_DIR at a directory of compXX.ctt
files to enable them), those criteria degrade to synthetic and round-trip
checks, and the printed line says so.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import os
import random
import time
from pathlib import Path


from conftest import (TIGHT_CTT, encode_solution, make_instance,
                      random_tiny_instance)
from cttsolve.cli import main as cli_main
from cttsolve.control import StrategyConfig, run_strategy
from cttsolve.evaluation import (PenaltyVector, Solution, check_hard,
                                 count_isolated, evaluate, gap, objective)
from cttsolve.formulations import (DAY_FIXED, PERIOD_FIXED, PeriodAssignment,
                                   add_clique_cuts, add_implied_bound_cuts,
                                   add_pattern_cuts, all_patterns, build_dive,
                                   build_monolithic, build_surface,
                                   greedy_clique_cover)
from cttsolve.instance import (WeightVector, build_conflict_graph,
                               instance_stats, parse_ctt, serialize_ctt)
from cttsolve.solver import branch_and_bound, brute_force_instance

# published statistics of the 14 competition instances:
# rooms, periods, courses, events, frequency %, utilisation %,
# curricula, conflict edges, conflict density %
INSTANCE_TABLE = {
    "comp01": (6, 30, 30, 160, 88.89, 45.98, 14, 53, 12.18),
    "comp02": (16, 25, 82, 283, 70.75, 46.28, 70, 401, 12.07),
    "comp03": (16, 25, 72, 251, 62.75, 38.30, 68, 342, 13.38),
    "comp04": (18, 25, 79, 286, 63.56, 33.22, 57, 212, 6.88),
    "comp05": (9, 36, 54, 152, 46.91, 43.50, 139, 917, 64.08),
    "comp06": (18, 25, 108, 361, 80.22, 45.28, 70, 437, 7.56),
    "comp07": (20, 25, 131, 434, 86.80, 41.71, 77, 508, 5.97),
    "comp08": (18, 25, 86, 324, 72.00, 37.39, 61, 214, 5.85),
    "comp09": (18, 25, 76, 279, 62.00, 32.67, 75, 251, 8.81),
    "comp10": (18, 25, 115, 370, 82.22, 36.38, 67, 481, 7.34),
    "comp11": (5, 45, 30, 162, 72.00, 56.23, 13, 75, 17.24),
    "comp12": (11, 36, 88, 218, 55.05, 35.06, 150, 1181, 30.85),
    "comp13": (19, 25, 82, 308, 64.84, 38.14, 66, 216, 6.50),
    "comp14": (17, 25, 85, 275, 64.71, 34.78, 60, 368, 10.31),
}


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _instance_dir() -> Path | None:
    for candidate in (os.environ.get("CTT_INSTANCE_DIR"), "instances"):
        if candidate and Path(candidate).is_dir():
            return Path(candidate)
    return None


def test_criterion_1_instance_fidelity():
    directory = _instance_dir()
    found = []
    if directory is not None:
        found = sorted(p for p in directory.glob("comp*.ctt")
                       if p.stem in INSTANCE_TABLE)
    if found:
        mismatches = []
        for path in found:
            instance = parse_ctt(path.read_text())
            stats = instance_stats(instance)
            rooms, periods, courses, events, freq, util, curricula, edges, \
                density = INSTANCE_TABLE[path.stem]
            got = (stats.rooms, stats.periods, stats.courses, stats.events,
                   round(stats.frequency * 100, 2),
                   round(stats.utilisation * 100, 2),
                   stats.curricula, stats.conflict_edges,
                   round(stats.conflict_density * 100, 2))
            want = (rooms, periods, courses, events, freq, util, curricula,
                    edges, density)
            if got != want:
                mismatches.append(f"{path.stem}: {got} != {want}")
        _verdict(1, "instance fidelity", not mismatches,
                 f"{len(found)} competition instances checked"
                 + ("" if not mismatches else "; " + "; ".join(mismatches)))
        return

    # degraded mode: competition files unavailable in this environment
    rng = random.Random(101)
    ok = True
    for _ in range(30):
        instance = random_tiny_instance(rng)
        weights = dataclasses.astuple(instance.weights)
        ok &= parse_ctt(serialize_ctt(instance), weights=weights) == instance
    synthetic = parse_ctt(TIGHT_CTT)
    stats = instance_stats(synthetic)
    ok &= stats.events == 6 and stats.frequency == 1.0
    ok &= stats.conflict_edges == 3  # one 3-course curriculum
    _verdict(1, "instance fidelity", ok,
             "DEGRADED: competition instance files unavailable; verified"
             " 30 serialisation round-trips and synthetic statistics"
             " instead (set CTT_INSTANCE_DIR to enable the full check)")


def test_criterion_2_objective_and_gap_arithmetic():
    ok = objective(WeightVector(1, 5, 0, 1), PenaltyVector(4, 0, 350, 1)) == 5
    ok &= gap(9, 5) == 44.4
    ok &= gap(36, 35) == 2.8
    _verdict(2, "objective and gap arithmetic", ok,
             "objective((1,5,0,1),(4,0,350,1))=5, gap(9,5)=44.4,"
             " gap(36,35)=2.8")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(103)
    start = time.monotonic()
    mismatches = 0
    for i in range(50):
        instance = random_tiny_instance(rng)
        exact = brute_force_instance(instance)
        result = branch_and_bound(build_monolithic(instance))
        if result.status != exact.status:
            mismatches += 1
        elif exact.status == "optimal" and abs(
                result.incumbent.objective_value - exact.lower_bound) > 1e-6:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(3, "oracle equivalence", mismatches == 0 and elapsed <= 60,
             f"50 tiny instances, 0 mismatches expected, got {mismatches};"
             f" {elapsed:.1f}s of 60s budget")


def _small_corpus(rng, count):
    """Instances small enough to enumerate every feasible period assignment."""
    out = []
    while len(out) < count:
        days = rng.randint(1, 2)
        ppd = 2
        periods = days * ppd
        n = rng.randint(1, 2)
        courses = [(f"c{i}", f"t{rng.randint(1, 2)}",
                    rng.randint(1, 2), 1, rng.randint(5, 30))
                   for i in range(n)]
        curricula = [("q0", [c[0] for c in courses])] if n > 1 else []
        instance = make_instance(
            courses, [("r0", rng.choice([10, 25]))], curricula, days, ppd)
        try:
            instance.validate()
        except Exception:
            continue
        out.append(instance)
    return out


def _enumerate_surface_feasible(instance):
    per_course = []
    for c in instance.courses:
        allowed = [p for p in range(instance.periods)
                   if (c.id, p) not in instance.unavailability]
        per_course.append([frozenset(sel) for sel in
                           itertools.combinations(allowed, c.events)])
    ids = [c.id for c in instance.courses]
    for combo in itertools.product(*per_course):
        basis = PeriodAssignment(dict(zip(ids, combo)))
        try:
            basis.validate(instance)
        except Exception:
            continue
        yield basis


def test_criterion_4_relaxation_restriction_ordering():
    rng = random.Random(107)
    violations = 0
    bases = 0
    for instance in _small_corpus(rng, 14):
        surface = branch_and_bound(build_surface(instance))
        mono_model = build_monolithic(instance).freeze()
        mono = branch_and_bound(mono_model)
        if mono.status != "optimal":
            continue
        if surface.incumbent.objective_value \
                > mono.incumbent.objective_value + 1e-9:
            violations += 1
        for basis in _enumerate_surface_feasible(instance):
            day_r = branch_and_bound(build_dive(
                mono_model, DAY_FIXED, basis))
            per_r = branch_and_bound(build_dive(
                mono_model, PERIOD_FIXED, basis))
            bases += 1
            if not (mono.incumbent.objective_value
                    <= day_r.incumbent.objective_value + 1e-9
                    <= per_r.incumbent.objective_value + 2e-9):
                violations += 1
    _verdict(4, "relaxation/restriction ordering", violations == 0,
             f"surface <= monolithic <= day-fixed <= period-fixed over"
             f" {bases} enumerated surface-feasible bases,"
             f" {violations} violations")


def test_criterion_5_dive_feasibility_guarantee():
    rng = random.Random(109)
    sampled = 0
    infeasible = 0
    while sampled < 200:
        instance = random_tiny_instance(rng)
        mono = build_monolithic(instance).freeze()
        for _ in range(10):
            if sampled >= 200:
                break
            periods = {}
            for c in instance.courses:
                allowed = [p for p in range(instance.periods)
                           if (c.id, p) not in instance.unavailability]
                periods[c.id] = frozenset(rng.sample(allowed, c.events))
            basis = PeriodAssignment(periods)
            try:
                basis.validate(instance)
            except Exception:
                continue
            result = branch_and_bound(
                build_dive(mono, PERIOD_FIXED, basis))
            sampled += 1
            if result.status != "optimal" or result.incumbent is None:
                infeasible += 1
    _verdict(5, "dive feasibility guarantee", infeasible == 0,
             f"200 surface-feasible period assignments, {infeasible}"
             " infeasible period-fixed dives")


def _all_feasible_solutions(instance):
    room_ids = [r.id for r in instance.rooms]
    per_course = []
    for c in instance.courses:
        allowed = [p for p in range(instance.periods)
                   if (c.id, p) not in instance.unavailability]
        options = [tuple(zip(sel, rooms))
                   for sel in itertools.combinations(allowed, c.events)
                   for rooms in itertools.product(room_ids, repeat=c.events)]
        per_course.append(options)
    ids = [c.id for c in instance.courses]
    for combo in itertools.product(*per_course):
        solution = Solution(dict(zip(ids, combo)))
        if not check_hard(instance, solution):
            yield solution


def test_criterion_6_cut_validity():
    rng = random.Random(113)
    excluded = 0
    checked = 0
    for instance in _small_corpus(rng, 10):
        graph = build_conflict_graph(instance)
        model = build_monolithic(instance)
        add_clique_cuts(model, greedy_clique_cover(graph), graph)
        add_implied_bound_cuts(model)
        add_pattern_cuts(model)
        for solution in _all_feasible_solutions(instance):
            values = encode_solution(instance, model, solution)
            checked += 1
            if model.first_violation(values) is not None:
                excluded += 1
    arithmetic_ok = True
    for n in range(1, 9):
        for pattern, penalty in all_patterns(n):
            m = sum(1 for a in pattern if a == 1)
            for occ in itertools.product((0, 1), repeat=n):
                lhs = penalty * (
                    sum(a * o for a, o in zip(pattern, occ)) - m + 1)
                if lhs > count_isolated([bool(o) for o in occ]):
                    arithmetic_ok = False
    _verdict(6, "cut validity", excluded == 0 and arithmetic_ok,
             f"{checked} feasible solutions exhaustively checked against"
             f" clique/implied-bound/pattern cuts, {excluded} excluded;"
             " pattern-cut arithmetic verified over all day patterns"
             " up to length 8")


def test_criterion_7_end_to_end_sanity():
    directory = _instance_dir()
    comp01 = directory / "comp01.ctt" if directory else None
    if comp01 is not None and comp01.exists():
        instance = parse_ctt(comp01.read_text())
        # contract's surface stops half-way; both dive kinds run in the
        # other half
        config = StrategyConfig(strategy="contract", total_time=1200.0)
        detail = "comp01 with 600 s surface, dives to 1200 s"
    else:
        instance = parse_ctt(TIGHT_CTT)
        config = StrategyConfig(strategy="contract", total_time=10.0)
        detail = ("DEGRADED: comp01.ctt unavailable; contract strategy run"
                  " on a synthetic instance with scaled budgets instead"
                  " (set CTT_INSTANCE_DIR to enable the full check)")
    result = run_strategy(instance, config)
    ok = result.status in ("optimal", "feasible")
    ok &= result.lower_bound is not None and result.lower_bound >= 0
    if ok:
        from cttsolve.control import solution_from_payload
        solution = solution_from_payload(result.solution)
        ok &= check_hard(instance, solution) == []
        ok &= evaluate(instance, solution) == result.upper_bound
    lowers = [e.value for e in result.history if e.kind == "lower"]
    uppers = [e.value for e in result.history if e.kind == "upper"]
    ok &= lowers == sorted(lowers) and uppers == sorted(uppers, reverse=True)
    _verdict(7, "end-to-end sanity", ok, detail)


def test_criterion_8_determinism(tmp_path):
    path = tmp_path / "tight.ctt"
    path.write_text(TIGHT_CTT)

    def run(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(argv)
        return code, buffer.getvalue()

    solve_argv = ["solve", str(path), "--strategy", "contract",
                  "--surface-nodes", "500", "--dive-nodes", "100", "--json"]
    code_a, out_a = run(solve_argv)
    code_b, out_b = run(solve_argv)
    build_argv = ["build", str(path), "--formulation", "monolithic"]
    _, mps_a = run(build_argv)
    _, mps_b = run(build_argv)
    instance = parse_ctt(TIGHT_CTT)
    config = StrategyConfig(surface_nodes=500, dive_nodes=100)
    nodes_a = run_strategy(instance, config)
    nodes_b = run_strategy(instance, config)
    ok = (code_a == code_b == 0 and out_a == out_b and mps_a == mps_b
          and nodes_a.surface_nodes == nodes_b.surface_nodes
          and [d.nodes for d in nodes_a.dives]
          == [d.nodes for d in nodes_b.dives])
    _verdict(8, "determinism", ok,
             "node-limited solve reports, MPS exports, and node counts"
             " byte-identical across repeated runs")
