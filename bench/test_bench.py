"""Tests of the benchmark's own parts.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

import checks
import generate
import run
from cttsolve import control, formulations, instance, milp, solver
from cttsolve.evaluation import Solution, check_hard, evaluate
from cttsolve.instance import parse_ctt, serialize_ctt
from spans import Tracer

TINY = """\
Name: tiny
Courses: 3
Rooms: 2
Days: 2
Periods_per_day: 2
Curricula: 1
Constraints: 1

COURSES:
a t1 2 2 30
b t2 1 1 10
c t1 1 1 20

ROOMS:
r1 30
r2 20

CURRICULA:
q1 2 a b

UNAVAILABILITY_CONSTRAINTS:
b 0 0

END.
"""

FEASIBLE = {"a": ((0, "r1"), (2, "r1")), "b": ((1, "r2"),),
            "c": ((3, "r2"),)}


@pytest.fixture(scope="module")
def oracle():
    return checks.load_oracle_objective(run.ROOT)


@pytest.mark.parametrize("preset", sorted(generate.PRESETS))
def test_same_seed_gives_identical_ctt(preset):
    first = generate.corpus_texts(preset, 5, 2)
    assert first == generate.corpus_texts(preset, 5, 2)
    assert first != generate.corpus_texts(preset, 6, 2)
    for text in first:
        assert serialize_ctt(parse_ctt(text)) == text


def test_relabelling_keeps_the_optimum():
    tiny = parse_ctt(TINY)
    optimum = solver.brute_force_instance(tiny).lower_bound
    rng = random.Random(4)
    for _ in range(4):
        copy = generate.relabel(tiny, rng, "copy")
        copy.validate()
        assert copy != tiny
        assert solver.brute_force_instance(copy).lower_bound == optimum


def test_checker_accepts_a_feasible_timetable(oracle):
    tiny = parse_ctt(TINY)
    solution = Solution(FEASIBLE)
    assert checks.hard_violations(tiny, solution) == []
    report = SimpleNamespace(lower_bound=0.0,
                             upper_bound=float(oracle(tiny, solution)))
    assert checks.check_report(tiny, report, solution, oracle) == []


@pytest.mark.parametrize("change, kind", [
    ({"b": ((0, "r2"),)}, "unavailable"),
    ({"c": ((2, "r1"),)}, "room"),
    ({"c": ((0, "r2"),)}, "teacher"),
    ({"b": ((2, "r2"),)}, "curriculum"),
    ({"a": ((0, "r1"),)}, "events"),
])
def test_checker_rejects_planted_breach(change, kind):
    tiny = parse_ctt(TINY)
    violations = checks.hard_violations(tiny, Solution({**FEASIBLE,
                                                        **change}))
    assert any(kind in v for v in violations), violations


def test_checker_agrees_with_package_on_random_timetables():
    tiny = parse_ctt(TINY)
    rng = random.Random(0)
    rooms = [r.id for r in tiny.rooms]
    for _ in range(300):
        solution = Solution({
            c.id: tuple((rng.randrange(tiny.periods), rng.choice(rooms))
                        for _ in range(c.events)) for c in tiny.courses})
        assert bool(checks.hard_violations(tiny, solution)) == bool(
            check_hard(tiny, solution))


def test_checker_rejects_wrong_upper_bound(oracle):
    tiny = parse_ctt(TINY)
    solution = Solution(FEASIBLE)
    right = evaluate(tiny, solution)
    wrong = SimpleNamespace(lower_bound=0.0, upper_bound=right + 1.0)
    assert checks.check_report(tiny, wrong, solution, oracle)
    crossed = SimpleNamespace(lower_bound=right + 1.0,
                              upper_bound=float(right))
    assert checks.check_report(tiny, crossed, solution, oracle)
    assert checks.check_bracket(right, SimpleNamespace(
        lower_bound=0.0, upper_bound=right - 1.0))


def test_trace_wrappers_restore_every_attribute():
    targets = run.trace_targets()
    before = [getattr(module, attr) for module, attr, _, _ in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            assert all(getattr(module, attr) is not original
                       for (module, attr, _, _), original
                       in zip(targets, before))
            raise RuntimeError("leave the block early")
    assert [getattr(module, attr) for module, attr, _, _ in targets] == before
    modules = {module for module, _, _, _ in targets}
    assert modules == {control, formulations, instance, milp, solver}


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    with tracer.span("control.run_strategy"):
        with tracer.span("solver.bnb"):
            with tracer.span("solver.lp"):
                pass
        with tracer.span("formulations.build_surface"):
            pass
    root = tracer.spans[0].seconds
    assert sum(tracer.self_times()) == pytest.approx(root, abs=1e-12)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_a_traced_pass_repeats_the_untraced_one(oracle):
    workload = run.Workload("small", 1, (
        dict(strategy="exact", surface_nodes=40),
        dict(strategy="contract", surface_nodes=30, dive_nodes=10)),
        mps_round_trip=True)
    instances = generate.load(generate.corpus_texts("small", 1, 1))
    plain = run.run_pass(workload, instances, oracle)
    tracer = Tracer()
    with tracer.patched(run.trace_targets()):
        traced = run.run_pass(workload, instances, oracle, tracer)
    assert [j.failures for j in plain + traced] == [[]] * 6
    assert [j.fingerprint for j in plain] == [j.fingerprint for j in traced]
    layer = run.per_layer(tracer, traced)
    assert layer["solver.bnb_calls"] >= 2
    assert layer["solver.lp_solves"] >= layer["solver.nodes"]
    assert layer["milp.mps_bytes"] > 0
    modules = sum(layer[f"{m}.self_s"] for m in run.MODULES)
    assert modules == pytest.approx(layer["trace.solve_s"])
