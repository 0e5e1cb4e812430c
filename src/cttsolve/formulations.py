"""Model builders: the full timetabling formulation, the period-only
surface relaxations, the period-free room relaxation, dive restrictions,
cuts, and decoders; and two constructions that need no LP, a greedy
period assignment and the room matching that makes any period assignment
a timetable.

Builders are pure; callers may freeze produced models before sharing them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .evaluation import (Solution, check_hard, count_isolated,
                         periods_in)
from .instance import Instance
from .milp import FEAS_TOL, MilpModel

PERIOD_FIXED = "period-fixed"
DAY_FIXED = "day-fixed"
DIVE_KINDS = (PERIOD_FIXED, DAY_FIXED)


class FormulationError(Exception):
    pass


@dataclass(frozen=True)
class PeriodAssignment:
    """Periods used by each course (one period per event)."""

    periods: dict[str, frozenset[int]]

    def validate(self, instance: Instance) -> None:
        """Raise FormulationError unless these periods, with the rooms
        placed by match_rooms, make a timetable meeting every hard
        constraint.  A period with more events than rooms shows up as a
        room clash."""
        violations = check_hard(instance, match_rooms(instance, self))
        if violations:
            raise FormulationError(violations[0].detail)


# -- constructions: timetables without an LP ----------------------------------

def match_rooms(instance: Instance, basis: PeriodAssignment) -> Solution:
    """The basis as a timetable.  In each period the courses, by students
    (most first, ties by id), take the rooms by capacity (largest first,
    ties by id), starting over when a period holds more events than there
    are rooms.  The capacity penalty max(0, students - capacity) is convex
    in students - capacity, so this sorted matching gives the least
    capacity term of any room assignment for these periods."""
    rooms = sorted(instance.rooms, key=lambda r: (-r.capacity, r.id))
    if not rooms and any(basis.periods.values()):
        raise FormulationError("events placed but there are no rooms")
    courses = instance.course_by_id

    def size(cid: str) -> tuple[int, str]:  # an undeclared course seats 0
        return -(courses[cid].students if cid in courses else 0), cid

    by_period: dict[int, list[str]] = {}
    for cid in sorted(basis.periods, key=size):
        for p in basis.periods[cid]:
            by_period.setdefault(p, []).append(cid)
    pairs: dict[str, list] = {cid: [] for cid in basis.periods}
    for p, cids in by_period.items():
        for k, cid in enumerate(cids):
            pairs[cid].append((p, rooms[k % len(rooms)].id))
    return Solution({cid: tuple(sorted(v)) for cid, v in pairs.items()})


def greedy_periods(instance: Instance, neighbours: dict[str, frozenset[str]]
                   ) -> PeriodAssignment | None:
    """A bounded colouring of the conflict graph, built greedily, or None
    at a dead end; ``neighbours`` is the graph as ``build_conflict_graph``
    gives it.  The courses go by (clash degree + 1) * events, most first,
    ties by id.  Each event takes an allowed period, on a day the
    course does not use yet if it can, then the one with the fewest
    events, then the lowest.  A period is allowed when it is not forbidden
    to the course, not used by it or by a course it clashes with, and
    holds fewer events than there are rooms.

    Sets of periods are bitmasks, bit p for period p, built in each call:
    a course's blocked periods are its forbidden mask ORed with its
    neighbours' masks, and ``level[k]`` holds the periods with k events,
    so ``level[-1]`` holds the full ones."""
    periods, ppd = instance.periods, instance.periods_per_day
    every, first_day = (1 << periods) - 1, (1 << ppd) - 1
    used = {c.id: 0 for c in instance.courses}
    forbidden = dict(used)
    for cid, p in instance.unavailability:
        forbidden[cid] |= 1 << p
    level = [every] + [0] * len(instance.rooms)
    for c in sorted(instance.courses, key=lambda c: (
            -(len(neighbours[c.id]) + 1) * c.events, c.id)):
        blocked = forbidden[c.id]
        for n in neighbours[c.id]:
            blocked |= used[n]
        own = days = 0  # days: the periods of the days the course uses
        for _ in range(c.events):
            free = every & ~(blocked | own | level[-1])
            if not free:
                return None
            candidates = free & ~days or free
            for k, at_load in enumerate(level):
                pick = candidates & at_load
                if pick:
                    break
            bit = pick & -pick
            p = bit.bit_length() - 1
            level[k] ^= bit
            level[k + 1] |= bit
            own |= bit
            days |= first_day << (p - p % ppd)
        used[c.id] = own
    return PeriodAssignment({cid: frozenset(periods_in(mask))
                             for cid, mask in used.items()})


# -- variables by tag ---------------------------------------------------------
#
# Every model but the room relaxation has one binary occupancy variable
# ("times", p, c) per (period, course), and every row that asks whether a
# course meets at a period reads that one variable with coefficient 1.  The
# full formulations tag their room variables ("taught", p, key, c) and
# ("uses", key, c) by room-group key, and record each key's member rooms, in
# model order, as metadata["room_groups"].  Variables are found through
# MilpModel.by_tag; names are only ever built, never parsed.

def _add_var(model: MilpModel, tag: tuple, kind: str = "binary",
             lower: float = 0.0, upper: float = math.inf) -> int:
    """New variable named after its tag, e.g. ``taught[3,r1,c7]``."""
    name = f"{tag[0]}[{','.join(str(t) for t in tag[1:])}]"
    return model.add_variable(name, kind, lower, upper, tag=tag)


# -- builders: one writer per family of period-level rows, shared by the
# surface and the full formulations -------------------------------------------

def _add_times(model: MilpModel, instance: Instance) -> None:
    """Occupancy variables ("times", p, c) and each course's event count."""
    for p in range(instance.periods):
        for c in instance.courses:
            _add_var(model, ("times", p, c.id))
    for c in instance.courses:
        model.add_constraint(
            f"event_count[{c.id}]",
            [(1.0, model.by_tag(("times", p, c.id)))
             for p in range(instance.periods)],
            "=", float(c.events), origin="event-count")


def _add_teacher_clash(model: MilpModel, instance: Instance, p: int) -> None:
    for t in sorted(instance.teachers):
        model.add_constraint(
            f"teacher_clash[{p},{t}]",
            [(1.0, model.by_tag(("times", p, c.id)))
             for c in instance.courses if c.teacher == t],
            "<=", 1.0, origin="teacher-clash")


def _add_curriculum_clash(model: MilpModel, instance: Instance,
                          p: int) -> None:
    for u in instance.curricula:
        model.add_constraint(
            f"curriculum_clash[{p},{u.id}]",
            [(1.0, model.by_tag(("times", p, cid)))
             for cid in sorted(u.courses)],
            "<=", 1.0, origin="curriculum-clash")


def _add_day_spread_machinery(model: MilpModel, instance: Instance) -> list:
    """Forbidden-period rows, day indicators, min-days shortfalls and
    isolated-lecture indicators.  Returns the spread and compactness
    objective terms."""
    var = model.by_tag
    for cid, p in sorted(instance.unavailability):
        model.add_constraint(f"forbidden[{cid},{p}]",
                             [(1.0, var(("times", p, cid)))], "=", 0.0,
                             origin="forbidden-period")
    for d in range(instance.days):
        for c in instance.courses:
            _add_var(model, ("sched", d, c.id))
    w = instance.weights
    obj = [(w.spread,
            _add_var(model, ("mdv", c.id), "integer", 0, instance.days))
           for c in instance.courses]
    for u in instance.curricula:
        for d in range(instance.days):
            for s in range(instance.periods_per_day):
                obj.append((w.compactness,
                            _add_var(model, ("single", u.id, d, s))))

    # no times[p,c] <= sched[d,c] rows: with nothing costing sched, none binds
    for c in instance.courses:
        for d in range(instance.days):
            model.add_constraint(
                f"day_lb[{c.id},{d}]",
                [(1.0, var(("times", p, c.id)))
                 for p in instance.day_periods(d)]
                + [(-1.0, var(("sched", d, c.id)))],
                ">=", 0.0, origin="day-aggregation")
        model.add_constraint(
            f"min_days[{c.id}]",
            [(1.0, var(("sched", d, c.id))) for d in range(instance.days)]
            + [(1.0, var(("mdv", c.id)))],
            ">=", float(c.min_days), origin="min-days")

    n = instance.periods_per_day
    for u in instance.curricula:
        for d in range(instance.days):
            day = list(instance.day_periods(d))

            def occ(j):
                return [(1.0, var(("times", day[j], cid)))
                        for cid in sorted(u.courses)]

            for j in range(n):
                terms = occ(j)
                if n > 1:
                    if j > 0:
                        terms += [(-coef, ref) for coef, ref in occ(j - 1)]
                    if j < n - 1:
                        terms += [(-coef, ref) for coef, ref in occ(j + 1)]
                terms.append((-1.0, var(("single", u.id, d, j))))
                model.add_constraint(
                    f"pattern[{u.id},{d},{j}]", terms, "<=", 0.0,
                    origin="pattern")
    return obj


def _build_full(instance: Instance, name: str, groups: list) -> MilpModel:
    """Full formulation over room groups, each a list of rooms.  A group
    holds one event per member in each period, each event seeing the
    largest member's capacity."""
    room_keys = ["+".join(sorted(r.id for r in g)) for g in groups]
    members = {k: tuple(r.id for r in g) for k, g in zip(room_keys, groups)}
    capacity = {k: max(r.capacity for r in g)
                for k, g in zip(room_keys, groups)}
    model = MilpModel(name)
    model.metadata.update(formulation=name, instance=instance,
                          room_groups=members)
    w = instance.weights
    var = model.by_tag

    # occupancy first: branching ties then go to the period decision
    _add_times(model, instance)
    obj = []
    for p in range(instance.periods):
        for key in room_keys:
            for c in instance.courses:
                idx = _add_var(model, ("taught", p, key, c.id))
                overflow = c.students - capacity[key]
                if w.capacity and overflow > 0:
                    obj.append((float(w.capacity * overflow), idx))

    for p in range(instance.periods):
        for key in room_keys:
            model.add_constraint(
                f"room_clash[{p},{key}]",
                [(1.0, var(("taught", p, key, c.id)))
                 for c in instance.courses],
                "<=", float(len(members[key])), origin="room-clash")
    # Each model keeps its own order of clash rows, and the searches depend
    # on it.  Six shared orders were measured on the bench instances (clash
    # rows before or after the capacity rows, teacher or curriculum rows
    # first, or a change to this model only): every one lost search-mid
    # mid-1-1's upper bound (4 -> 11 to 15), one also mid-1-2's (2 -> 5),
    # and one corpus-small small-1-2's exact optimum at 300 nodes.  Dropping
    # the rows that cannot bind later moved mid-1-1's to 17 (ROADMAP).
    for p in range(instance.periods):
        _add_teacher_clash(model, instance, p)
        _add_curriculum_clash(model, instance, p)
    obj += _add_day_spread_machinery(model, instance)

    # no uses[r,c] <= sum_p taught[p,r,c] rows: uses costs stability >= 0
    for key in room_keys:
        for c in instance.courses:
            obj.append((w.stability, _add_var(model, ("uses", key, c.id))))
    for p in range(instance.periods):
        for key in room_keys:
            for c in instance.courses:
                model.add_constraint(
                    f"room_used_ub[{p},{key},{c.id}]",
                    [(1.0, var(("taught", p, key, c.id))),
                     (-1.0, var(("uses", key, c.id)))],
                    "<=", 0.0, origin="room-aggregation")
    # the rooms' sum defines the occupancy variable, whose 0-1 bound keeps a
    # course from meeting twice in one period; placed last, these rows left
    # exact searches on fresh small instances fewer nodes than placed first
    for p in range(instance.periods):
        for c in instance.courses:
            model.add_constraint(
                f"occupancy[{p},{c.id}]",
                [(1.0, var(("taught", p, key, c.id))) for key in room_keys]
                + [(-1.0, var(("times", p, c.id)))],
                "=", 0.0, origin="occupancy")

    model.set_objective(
        obj, constant=-float(w.stability) * len(instance.courses))
    return model


def build_monolithic(instance: Instance) -> MilpModel:
    return _build_full(instance, "monolithic", [[r] for r in instance.rooms])


def build_surface2(instance: Instance) -> MilpModel:
    """Full formulation over two room groups: the rooms of capacity at most
    the lower median, then the rest."""
    caps = sorted(r.capacity for r in instance.rooms)
    median = caps[(len(caps) - 1) // 2] if caps else 0
    groups = ([r for r in instance.rooms if r.capacity <= median],
              [r for r in instance.rooms if r.capacity > median])
    return _build_full(instance, "surface2", [g for g in groups if g])


def build_surface(instance: Instance) -> MilpModel:
    """Period-assignment relaxation: bounded colouring with only the
    spread and compactness terms kept in the objective."""
    model = MilpModel("surface")
    model.metadata.update(formulation="surface", instance=instance)
    _add_times(model, instance)
    # this model's own order of clash rows; see _build_full
    for p in range(instance.periods):
        _add_curriculum_clash(model, instance, p)
        _add_teacher_clash(model, instance, p)
        model.add_constraint(
            f"room_bound[{p}]",
            [(1.0, model.by_tag(("times", p, c.id)))
             for c in instance.courses],
            "<=", float(len(instance.rooms)), origin="room-bound")
    model.set_objective(_add_day_spread_machinery(model, instance))
    return model


def build_room_relaxation(instance: Instance) -> MilpModel:
    """Period-free room relaxation: how many events ("x", c, r) each course
    holds in each room, with each room holding at most one event per
    period and ("y", c, r) marking the rooms a course uses.  Only the
    capacity and stability terms are kept in the objective; they are the
    terms the surface drops, so the two lower bounds add up."""
    model = MilpModel("rooms")
    model.metadata.update(formulation="rooms", instance=instance)
    w = instance.weights
    var = model.by_tag
    obj = []
    for c in instance.courses:
        for r in instance.rooms:
            x = _add_var(model, ("x", c.id, r.id), "integer", 0, c.events)
            overflow = c.students - r.capacity
            if w.capacity and overflow > 0:
                obj.append((float(w.capacity * overflow), x))
            obj.append((w.stability, _add_var(model, ("y", c.id, r.id))))
    for c in instance.courses:
        model.add_constraint(
            f"event_count[{c.id}]",
            [(1.0, var(("x", c.id, r.id))) for r in instance.rooms],
            "=", float(c.events), origin="event-count")
        for r in instance.rooms:
            model.add_constraint(
                f"room_used[{c.id},{r.id}]",
                [(1.0, var(("x", c.id, r.id))),
                 (-float(c.events), var(("y", c.id, r.id)))],
                "<=", 0.0, origin="room-aggregation")
    for r in instance.rooms:
        model.add_constraint(
            f"room_periods[{r.id}]",
            [(1.0, var(("x", c.id, r.id))) for c in instance.courses],
            "<=", float(instance.periods), origin="room-bound")
    model.set_objective(
        obj, constant=-float(w.stability) * len(instance.courses))
    return model


# -- restrictions (dives) -----------------------------------------------------

def build_dive(monolithic: MilpModel, kind: str,
               basis: PeriodAssignment) -> MilpModel:
    """The monolithic model restricted around the basis, a surface
    solution's period assignment: a period-fixed dive fixes every occupancy
    variable to it, a day-fixed dive only each course's events per day.
    The implied-bound rows follow the fixing rows, so the result is the
    whole model a dive searches."""
    if kind not in DIVE_KINDS:
        raise FormulationError(f"unknown dive kind {kind!r}")
    instance: Instance = monolithic.metadata["instance"]
    basis.validate(instance)
    # the name is the MPS NAME too
    model = monolithic.copy(name=f"{monolithic.name}+{kind}")
    model.metadata["dive"] = kind  # bench/run.py tags dive spans by it
    var = model.by_tag
    for c in instance.courses:
        used = basis.periods.get(c.id, frozenset())
        if kind == PERIOD_FIXED:
            for p in range(instance.periods):
                model.add_constraint(f"period_fix[{p},{c.id}]",
                                     [(1.0, var(("times", p, c.id)))],
                                     "=", p in used, origin="period-fix")
        else:
            for d in range(instance.days):
                day = instance.day_periods(d)
                model.add_constraint(
                    f"day_fix[{c.id},{d}]",
                    [(1.0, var(("times", p, c.id))) for p in day],
                    "=", sum(1 for p in used if p in day), origin="day-fix")
    add_implied_bound_cuts(model)
    return model


# -- decoding ----------------------------------------------------------------

def _tags_set(model: MilpModel, values, kind: str):
    """Tags of the model's ``kind`` variables set to 1 at the point."""
    if len(values) != len(model.variables):
        raise FormulationError(
            f"solution has {len(values)} values for"
            f" {len(model.variables)} variables")
    for v, x in zip(model.variables, values.tolist()):
        if v.tag[:1] != (kind,):
            continue
        if abs(x - round(x)) > FEAS_TOL:
            raise FormulationError(f"non-integral value {x} for {v.name}")
        if round(x):
            yield v.tag


def decode_monolithic(model: MilpModel, values) -> Solution:
    """Timetable of a point of the monolithic model or one of its dives."""
    instance: Instance = model.metadata["instance"]
    assignments: dict[str, list[tuple[int, str]]] = {
        c.id: [] for c in instance.courses}
    for _, p, room, cid in _tags_set(model, values, "taught"):
        assignments[cid].append((p, room))
    return Solution({cid: tuple(sorted(v)) for cid, v in assignments.items()})


def decode_surface(model: MilpModel, values) -> PeriodAssignment:
    """Periods used by each course at a point of any model (surface,
    surface2, monolithic or a dive)."""
    instance: Instance = model.metadata["instance"]
    periods: dict[str, set[int]] = {c.id: set() for c in instance.courses}
    for _, p, cid in _tags_set(model, values, "times"):
        periods[cid].add(p)
    return PeriodAssignment({cid: frozenset(v) for cid, v in periods.items()})


# -- cuts ---------------------------------------------------------------------

def add_clique_cuts(model: MilpModel, cliques,
                    neighbours: dict[str, frozenset[str]]) -> int:
    """One at-most-one row per (clique, period).  Returns the number of rows
    added; a clique already added raises MilpError, and a set that is not
    a clique of the conflict graph FormulationError."""
    instance: Instance = model.metadata["instance"]
    added = 0
    for clique in cliques:
        members = sorted(clique)
        for a, b in itertools.combinations(members, 2):
            if b not in neighbours.get(a, ()):
                raise FormulationError(
                    f"{{{a}, {b}}} is not an edge; not a clique")
        for p in range(instance.periods):
            model.add_constraint(
                f"clique[{p},{'+'.join(members)}]",
                [(1.0, model.by_tag(("times", p, cid))) for cid in members],
                "<=", 1.0, origin="clique-cut")
            added += 1
    return added


def greedy_clique_cover(neighbours: dict[str, frozenset[str]]
                        ) -> list[frozenset[str]]:
    """Maximal cliques of the conflict graph ``neighbours``, grown greedily.
    From each course not yet covered, by decreasing degree then id, its
    neighbours are tried in the same order, and one joins when the clique
    so far lies inside its own neighbours.  A course without neighbours
    gives no clique."""
    def by_degree(v: str) -> tuple[int, str]:
        return -len(neighbours[v]), v

    covered: set[str] = set()
    cliques: list[frozenset[str]] = []
    for v in sorted(neighbours, key=by_degree):
        if v in covered:
            continue
        clique = {v}
        for u in sorted(neighbours[v], key=by_degree):
            if clique <= neighbours[u]:
                clique.add(u)
        covered |= clique
        if len(clique) >= 2:
            cliques.append(frozenset(clique))
    return cliques


def add_implied_bound_cuts(model: MilpModel) -> int:
    """Static at-least-one rows on day indicators and, when present, on
    room-usage indicators."""
    instance: Instance = model.metadata["instance"]
    groups = model.metadata.get("room_groups")
    added = 0
    for c in instance.courses:
        if c.events < 1:
            continue
        model.add_constraint(
            f"implied_days[{c.id}]",
            [(1.0, model.by_tag(("sched", d, c.id)))
             for d in range(instance.days)],
            ">=", 1.0, origin="implied-bound-cut")
        added += 1
        if groups is not None:
            model.add_constraint(
                f"implied_rooms[{c.id}]",
                [(1.0, model.by_tag(("uses", key, c.id)))
                 for key in sorted(groups)],
                ">=", 1.0, origin="implied-bound-cut")
            added += 1
    return added


def add_pattern_cuts(model: MilpModel) -> int:
    """Pattern-enumeration rows over every day pattern: when a curriculum's
    daily occupancy matches a +1/-1 pattern exactly, its isolated-lecture
    indicators must absorb that pattern's penalty.  Returns the number of
    rows added."""
    instance: Instance = model.metadata["instance"]
    n = instance.periods_per_day
    added = 0
    for pattern, penalty in all_patterns(n):
        if penalty == 0:
            continue
        m = sum(1 for a in pattern if a == 1)
        label = "".join("1" if a == 1 else "0" for a in pattern)
        for u in instance.curricula:
            for d in range(instance.days):
                day = list(instance.day_periods(d))
                terms = [(float(penalty * a),
                          model.by_tag(("times", day[j], cid)))
                         for j, a in enumerate(pattern)
                         for cid in sorted(u.courses)]
                for s in range(n):
                    terms.append((-1.0, model.by_tag(("single", u.id, d, s))))
                model.add_constraint(f"pattern_cut[{u.id},{d},{label}]",
                                     terms, "<=", float(penalty * (m - 1)),
                                     origin="pattern-cut")
                added += 1
    return added


def all_patterns(periods_per_day: int):
    """Every +1/-1 day pattern with its isolated-lecture penalty."""
    out = []
    for bits in itertools.product((1, -1), repeat=periods_per_day):
        out.append((bits, count_isolated([a == 1 for a in bits])))
    return out
