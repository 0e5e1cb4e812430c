"""Model builders: the full timetabling formulation, the period-only
surface relaxations, the period-free room relaxation, dive restrictions,
cuts, and decoders.

Builders are pure; callers may freeze produced models before sharing them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .evaluation import Solution, check_hard, count_isolated
from .instance import ConflictGraph, Instance
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
        """Raise FormulationError unless some room assignment makes these
        periods a timetable meeting every hard constraint.  Each period's
        courses, in id order, take the rooms in turn, so a period with more
        events than rooms shows up as a room clash."""
        rooms = [r.id for r in instance.rooms]
        if not rooms and any(self.periods.values()):
            raise FormulationError("events placed but there are no rooms")
        taken: dict[int, int] = {}  # rooms handed out so far, by period
        assignments = {}
        for cid, used in sorted(self.periods.items()):
            pairs = []
            for p in sorted(used):
                k = taken.get(p, 0)
                taken[p] = k + 1
                pairs.append((p, rooms[k % len(rooms)]))
            assignments[cid] = tuple(pairs)
        violations = check_hard(instance, Solution(assignments))
        if violations:
            raise FormulationError(violations[0].detail)


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

def add_clique_cuts(model: MilpModel, cliques, graph: ConflictGraph) -> int:
    """One at-most-one row per (clique, period).  Returns the number of rows
    added; a clique already added raises MilpError."""
    instance: Instance = model.metadata["instance"]
    added = 0
    for clique in cliques:
        members = sorted(clique)
        for a, b in itertools.combinations(members, 2):
            if not graph.are_adjacent(a, b):
                raise FormulationError(
                    f"{{{a}, {b}}} is not an edge; not a clique")
        for p in range(instance.periods):
            model.add_constraint(
                f"clique[{p},{'+'.join(members)}]",
                [(1.0, model.by_tag(("times", p, cid))) for cid in members],
                "<=", 1.0, origin="clique-cut")
            added += 1
    return added


def greedy_clique_cover(graph: ConflictGraph) -> list[frozenset[str]]:
    """Maximal cliques covering all vertices, grown greedily from vertices in
    decreasing degree order."""
    degree = {v: len(graph.neighbours(v)) for v in graph.vertices}
    order = sorted(graph.vertices, key=lambda v: (-degree[v], v))
    covered: set[str] = set()
    cliques: list[frozenset[str]] = []
    for v in order:
        if v in covered:
            continue
        clique = {v}
        candidates = sorted(graph.neighbours(v),
                            key=lambda u: (-degree[u], u))
        for u in candidates:
            if all(graph.are_adjacent(u, m) for m in clique):
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
