"""Seeded synthetic instances for the benchmark, feasible by construction.

Each instance is generated around a planted timetable: events are placed
first, and teachers, curricula and unavailability are then chosen so that
the planted placement breaks no hard constraint.  Student counts are drawn
relative to the capacity of the room each course was planted in, so the
capacity penalty stays in the realistic regime (a too-crowded generator
makes the surface bound 0 while the full model's bound is large).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cttsolve import instance as ctt
from cttsolve.instance import (Course, Curriculum, Instance, Room,
                               WeightVector, serialize_ctt)


@dataclass(frozen=True)
class Preset:
    courses: int
    rooms: int
    days: int
    periods_per_day: int
    curricula: int
    events: tuple[int, int]  # inclusive range of events per course
    curriculum_size: tuple[int, int]


PRESETS = {
    "mid": Preset(courses=10, rooms=3, days=4, periods_per_day=4,
                  curricula=4, events=(2, 4), curriculum_size=(3, 5)),
    "small": Preset(courses=6, rooms=2, days=5, periods_per_day=4,
                    curricula=3, events=(2, 3), curriculum_size=(3, 4)),
    "comp": Preset(courses=30, rooms=6, days=5, periods_per_day=6,
                   curricula=14, events=(3, 7), curriculum_size=(2, 5)),
}

CAPACITIES = (20, 30, 40, 60, 80, 120)
TEACHERS_PER_COURSE = 0.8


def generate(preset: Preset, rng: random.Random, name: str) -> Instance:
    periods = preset.days * preset.periods_per_day
    rooms = tuple(Room(f"r{i}", rng.choice(CAPACITIES))
                  for i in range(preset.rooms))
    free = [(p, r.id) for p in range(periods) for r in rooms]
    rng.shuffle(free)
    planted: dict[str, list[tuple[int, str]]] = {}
    for i in range(preset.courses):
        cid = f"c{i:02d}"
        want = rng.randint(*preset.events)
        used: list[tuple[int, str]] = []
        for slot in list(free):
            if len(used) == want:
                break
            if all(slot[0] != p for p, _ in used):
                used.append(slot)
                free.remove(slot)
        planted[cid] = used
    periods_of = {cid: {p for p, _ in used} for cid, used in planted.items()}

    teachers: dict[str, set[int]] = {}
    n_teachers = max(1, round(TEACHERS_PER_COURSE * preset.courses))
    teacher_of = {}
    for cid in planted:
        fits = [t for t, busy in sorted(teachers.items())
                if not busy & periods_of[cid]]
        if fits and (len(teachers) >= n_teachers or rng.random() < 0.3):
            t = rng.choice(fits)
        else:
            t = f"t{len(teachers):02d}"
            teachers[t] = set()
        teachers[t] |= periods_of[cid]
        teacher_of[cid] = t

    curricula = []
    ids = sorted(planted)
    for j in range(preset.curricula):
        size = rng.randint(*preset.curriculum_size)
        members = [rng.choice(ids)]
        busy = set(periods_of[members[0]])
        for cid in rng.sample(ids, len(ids)):
            if len(members) == size:
                break
            if cid not in members and not busy & periods_of[cid]:
                members.append(cid)
                busy |= periods_of[cid]
        if len(members) >= 2:
            curricula.append(Curriculum(f"q{j:02d}", frozenset(members)))

    courses = []
    caps = {r.id: r.capacity for r in rooms}
    unavailability = set()
    for cid, used in planted.items():
        room_cap = min(caps[r] for _, r in used)
        students = max(5, round(room_cap * rng.uniform(0.7, 1.2)))
        events = len(used)
        min_days = min(events, preset.days)
        if rng.random() < 0.3:
            min_days = rng.randint(1, min_days)
        courses.append(Course(cid, teacher_of[cid], events, min_days,
                              students))
        open_periods = [p for p in range(periods) if p not in periods_of[cid]]
        for p in rng.sample(open_periods, min(len(open_periods),
                                              rng.randint(0, 3))):
            unavailability.add((cid, p))

    return Instance(name=name, courses=tuple(courses), rooms=rooms,
                    curricula=tuple(curricula), days=preset.days,
                    periods_per_day=preset.periods_per_day,
                    unavailability=frozenset(unavailability),
                    weights=WeightVector(1, 5, 2, 1))


def relabel(instance: Instance, rng: random.Random, name: str) -> Instance:
    """A copy with every course, teacher, room and curriculum renamed.

    The new names keep the sorted order of the old ones, so every model
    built from the copy lists its variables and rows in the same order as
    the original's and the solver takes the same path.  A relabelling that
    also reorders (permuting days, say) keeps the optimum but changes the
    branch-and-bound and simplex paths; between seeds that moved solve time
    by more than a fifth, which would drown any change worth measuring."""

    def renamer(prefix: str, ids) -> dict[str, str]:
        ids = sorted(ids)
        tokens = sorted(rng.sample(range(10 ** 4), len(ids)))
        return {old: f"{prefix}{t:04d}" for old, t in zip(ids, tokens)}

    cmap = renamer("c", (c.id for c in instance.courses))
    tmap = renamer("t", instance.teachers)
    rmap = renamer("r", (r.id for r in instance.rooms))
    umap = renamer("q", (u.id for u in instance.curricula))
    return Instance(
        name=name,
        courses=tuple(Course(cmap[c.id], tmap[c.teacher], c.events,
                             c.min_days, c.students)
                      for c in instance.courses),
        rooms=tuple(Room(rmap[r.id], r.capacity) for r in instance.rooms),
        curricula=tuple(Curriculum(umap[u.id],
                                   frozenset(cmap[c] for c in u.courses))
                        for u in instance.curricula),
        days=instance.days, periods_per_day=instance.periods_per_day,
        unavailability=frozenset((cmap[c], p)
                                 for c, p in instance.unavailability),
        weights=instance.weights)


def corpus_texts(preset_name: str, seed: int, count: int) -> list[str]:
    """`.ctt` texts of `count` instances; the same seed gives the same text.

    The instances come from a fixed stream per preset, like a fixed corpus
    of competition files; the seed picks a relabelling of each (see
    `relabel`), so inputs differ between seeds while the work does not."""
    base = random.Random(f"{preset_name}:base")
    rng = random.Random(f"{preset_name}:{seed}")
    preset = PRESETS[preset_name]
    return [serialize_ctt(relabel(generate(preset, base, "base"), rng,
                                  f"{preset_name}-{seed}-{i}"))
            for i in range(count)]


def load(texts: list[str]) -> list[Instance]:
    """Parse and validate generated texts (parse_ctt validates).  The call
    goes through the module attribute so that a traced run can time it."""
    return [ctt.parse_ctt(text) for text in texts]
