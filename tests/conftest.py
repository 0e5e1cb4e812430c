"""Shared fixtures: hand-built instances, a seeded tiny-instance generator,
the encoder that turns a timetable into a point of a full model, and the
command that makes ``cttsolve solve-mps`` an external solver."""

from __future__ import annotations

import importlib.util
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import cttsolve
from cttsolve.evaluation import Solution
from cttsolve.formulations import PeriodAssignment
from cttsolve.instance import (Course, Curriculum, Instance, Room,
                               WeightVector, parse_ctt)
from cttsolve.milp import MilpModel

TOY_CTT = """\
Name: toy
Courses: 3
Rooms: 2
Days: 2
Periods_per_day: 3
Curricula: 1
Constraints: 1

COURSES:
c1 t1 3 2 30
c2 t2 2 1 25
c3 t1 2 2 12

ROOMS:
rA 32
rB 20

CURRICULA:
q1 2 c1 c2

UNAVAILABILITY_CONSTRAINTS:
c1 0 0

END.
"""

TIGHT_CTT = """\
Name: tight
Courses: 3
Rooms: 1
Days: 2
Periods_per_day: 3
Curricula: 1
Constraints: 0

COURSES:
c1 t1 2 2 12
c2 t2 2 2 8
c3 t3 2 1 15

ROOMS:
rA 10

CURRICULA:
q1 3 c1 c2 c3

UNAVAILABILITY_CONSTRAINTS:

END.
"""


def make_instance(courses, rooms, curricula, days=2, periods_per_day=3,
                  unavailability=(), weights=(1, 5, 2, 1), name="synthetic"):
    return Instance(
        name=name,
        courses=tuple(Course(*c) for c in courses),
        rooms=tuple(Room(*r) for r in rooms),
        curricula=tuple(Curriculum(cid, frozenset(members))
                        for cid, members in curricula),
        days=days,
        periods_per_day=periods_per_day,
        unavailability=frozenset(unavailability),
        weights=WeightVector(*weights),
    )


@pytest.fixture
def self_adapter(monkeypatch):
    """``external_solve`` command running ``cttsolve solve-mps`` under the
    search's time limit.  The child runs in the work directory and inherits
    this environment, so a relative PYTHONPATH entry (such as ``src``) would
    not resolve there: the directory holding the imported package goes
    first, absolutely."""
    package_root = str(Path(cttsolve.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-m", "cttsolve.cli", "solve-mps", "{mps}",
            "--time-limit", "{time_limit}", "-o", "{solution}"]


def load_generate():
    """bench/generate.py as a module, for the comp preset; registered
    before it runs, because ``dataclass`` looks its module up."""
    path = Path(__file__).resolve().parent.parent / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("tests_generate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def comp_instance():
    """build-comp's instance: 30 courses, 6 rooms; its full formulation has
    7080 columns, its surface 1500."""
    generate = load_generate()
    instance, = generate.load(generate.corpus_texts("comp", 1, 1))
    return instance


@pytest.fixture
def toy_instance():
    return parse_ctt(TOY_CTT)


@pytest.fixture
def tight_instance():
    return parse_ctt(TIGHT_CTT)


@pytest.fixture
def contended_instance():
    """Two courses of 3 events compete for the one room that seats them:
    the room optimum puts one course's 3 events and 1 of the other's in
    the big room and 2 in the small one (capacity 30, stability 1), and
    the room search needs 7 nodes to prove it."""
    return make_instance(
        courses=[("a", "t1", 3, 1, 25), ("b", "t2", 3, 1, 25)],
        rooms=[("big", 30), ("small", 10)], curricula=[],
        days=1, periods_per_day=4, name="contended")


@pytest.fixture
def lectures_instance():
    """Three courses with distinct teachers; two overlapping curricula."""
    return make_instance(
        courses=[("Juggling", "tJ", 1, 1, 10),
                 ("Math101", "tM", 2, 1, 20),
                 ("Algo101", "tA", 2, 1, 20)],
        rooms=[("r1", 25), ("r2", 15)],
        curricula=[("cur1", ["Math101", "Algo101"]),
                   ("cur2", ["Juggling", "Algo101"])],
        days=2, periods_per_day=4,
    )


def random_tiny_instance(rng: random.Random) -> Instance:
    """Random instance small enough for brute-force enumeration:
    at most 3 courses, 2 rooms, 2 days of at most 4 periods."""
    days = rng.randint(1, 2)
    ppd = rng.randint(2, 4)
    periods = days * ppd
    n_courses = rng.randint(1, 3)
    n_rooms = rng.randint(1, 2)
    courses = []
    for i in range(n_courses):
        events = rng.randint(1, min(2, periods))
        min_days = rng.randint(1, min(days, events))
        teacher = f"t{rng.randint(1, 2)}"
        students = rng.randint(5, 40)
        courses.append((f"c{i}", teacher, events, min_days, students))
    rooms = [(f"r{i}", rng.choice([10, 20, 35])) for i in range(n_rooms)]
    ids = [c[0] for c in courses]
    curricula = []
    if n_courses >= 2 and rng.random() < 0.8:
        size = rng.randint(2, n_courses)
        curricula.append(("q0", rng.sample(ids, size)))
    unavailability = set()
    for cid, _, events, _, _ in courses:
        banned = rng.sample(range(periods),
                            rng.randint(0, max(0, periods - events - 1)))
        for p in banned[:2]:
            unavailability.add((cid, p))
    instance = make_instance(courses, rooms, curricula, days, ppd,
                             unavailability, name=f"rnd{rng.random():.6f}")
    instance.validate()
    return instance


def encode_solution(instance: Instance, model: MilpModel,
                    solution: Solution) -> np.ndarray:
    """Point realising a full solution in a full-formulation model
    (auxiliaries at their forced minima)."""
    # a surface has no room variables and so no room groups
    room_to_key = {room: key for key, rooms
                   in model.metadata.get("room_groups", {}).items()
                   for room in rooms}

    values: dict[tuple, float] = {}  # by tag; unlisted variables stay 0
    days_used: dict[str, set[int]] = {c.id: set() for c in instance.courses}
    rooms_used: dict[str, set[str]] = {c.id: set() for c in instance.courses}
    curriculum_periods: dict[str, set[int]] = {
        u.id: set() for u in instance.curricula}

    for cid, period, room in solution.events():
        key = room_to_key.get(room)
        values[("times", period, cid)] = 1.0
        values[("taught", period, key, cid)] = 1.0
        days_used[cid].add(period // instance.periods_per_day)
        rooms_used[cid].add(key)
        for u in instance.curricula:
            if cid in u.courses:
                curriculum_periods[u.id].add(period)

    for c in instance.courses:
        for d in days_used[c.id]:
            values[("sched", d, c.id)] = 1.0
        values[("mdv", c.id)] = float(
            max(0, c.min_days - len(days_used[c.id])))
        for key in rooms_used[c.id]:
            values[("uses", key, c.id)] = 1.0

    for u in instance.curricula:
        for d in range(instance.days):
            day = list(instance.day_periods(d))
            occ = [p in curriculum_periods[u.id] for p in day]
            for j, busy in enumerate(occ):
                if not busy:
                    continue
                left = j > 0 and occ[j - 1]
                right = j < len(occ) - 1 and occ[j + 1]
                if not left and not right:
                    values[("single", u.id, d, j)] = 1.0
    return np.array([values.get(v.tag, 0.0) for v in model.variables])


def project_solution(solution: Solution) -> PeriodAssignment:
    """Periods used by each course of a timetable."""
    return PeriodAssignment({
        cid: frozenset(p for p, _ in pairs)
        for cid, pairs in solution.assignments.items()})
