"""Model builders: the full timetabling formulation, the period-only
surface relaxations, dive restrictions, cuts, and decoders.

Builders are pure; callers may freeze produced models before sharing them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .evaluation import Solution, count_isolated
from .instance import ConflictGraph, Instance, MultiRoom, build_multirooms
from .milp import FEAS_TOL, MilpModel, MilpSolution

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
        for c in instance.courses:
            used = self.periods.get(c.id, frozenset())
            if len(used) != c.events:
                raise FormulationError(
                    f"course {c.id} uses {len(used)} periods, needs {c.events}")
            for p in used:
                if not 0 <= p < instance.periods:
                    raise FormulationError(f"period {p} out of range")
                if (c.id, p) in instance.unavailability:
                    raise FormulationError(
                        f"course {c.id} placed at forbidden period {p}")
        for p in range(instance.periods):
            present = [c.id for c in instance.courses
                       if p in self.periods.get(c.id, frozenset())]
            if len(present) > len(instance.rooms):
                raise FormulationError(
                    f"period {p} hosts {len(present)} events for"
                    f" {len(instance.rooms)} rooms")
            teachers = [instance.course_by_id[c].teacher for c in present]
            if len(set(teachers)) != len(teachers):
                raise FormulationError(f"teacher clash at period {p}")
            present_set = set(present)
            for u in instance.curricula:
                if len(present_set & u.courses) > 1:
                    raise FormulationError(
                        f"curriculum {u.id} clash at period {p}")


@dataclass(frozen=True)
class Neighborhood:
    """A dive of one kind around a surface solution's period assignment."""

    kind: str
    basis: PeriodAssignment
    source_objective: float
    discovery_index: int = 0

    def __post_init__(self):
        if self.kind not in DIVE_KINDS:
            raise FormulationError(f"unknown dive kind {self.kind!r}")


# -- variables by tag ---------------------------------------------------------
#
# Every builder records in its model's metadata the tag kind of its
# period-assignment variables ("occupancy": times, taught or m_taught), the
# ordered keys of its (multi-)rooms ("room_keys"), and, when it has them, the
# tag kind of its room-usage indicators ("uses").  Variables are then found
# through MilpModel.by_tag; names are only ever built, never parsed.

def _add_var(model: MilpModel, tag: tuple, kind: str = "binary",
             lower: float = 0.0, upper: float = math.inf) -> int:
    """New variable named after its tag, e.g. ``taught[3,r1,c7]``."""
    name = f"{tag[0]}[{','.join(str(t) for t in tag[1:])}]"
    return model.add_variable(name, kind, lower, upper, tag=tag)


def occupancy_terms(model: MilpModel, period: int, course_id: str) -> list:
    """Terms summing to 1 iff the course meets at the period."""
    kind = model.metadata["occupancy"]
    if kind == "times":
        return [(1.0, model.by_tag(("times", period, course_id)))]
    return [(1.0, model.by_tag((kind, period, key, course_id)))
            for key in model.metadata["room_keys"]]


# -- builders ---------------------------------------------------------------

def _add_day_spread_machinery(model: MilpModel, instance: Instance) -> None:
    """Day indicators, min-days shortfalls, and isolated-lecture indicators."""
    var = model.by_tag
    for d in range(instance.days):
        for c in instance.courses:
            _add_var(model, ("sched", d, c.id))
    for c in instance.courses:
        _add_var(model, ("mdv", c.id), "integer", 0, instance.days)
    for u in instance.curricula:
        for d in range(instance.days):
            for s in range(instance.periods_per_day):
                _add_var(model, ("single", u.id, d, s))

    for c in instance.courses:
        for d in range(instance.days):
            sched = var(("sched", d, c.id))
            for p in instance.day_periods(d):
                model.add_constraint(
                    f"day_ub[{c.id},{d},{p}]",
                    occupancy_terms(model, p, c.id) + [(-1.0, sched)],
                    "<=", 0.0, origin="day-aggregation")
            lower = []
            for p in instance.day_periods(d):
                lower += occupancy_terms(model, p, c.id)
            model.add_constraint(
                f"day_lb[{c.id},{d}]", lower + [(-1.0, sched)],
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
                terms = []
                for cid in sorted(u.courses):
                    terms += occupancy_terms(model, day[j], cid)
                return terms

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


def _build_full(instance: Instance, rooms: list[MultiRoom],
                aggregated: bool) -> MilpModel:
    """Full formulation over (multi-)rooms; the plain model is the identity
    aggregation with unit multiplicities."""
    name = "surface2" if aggregated else "monolithic"
    taught = "m_taught" if aggregated else "taught"
    uses = "m_uses" if aggregated else "uses"
    room_keys = tuple(r.id for r in rooms)
    model = MilpModel(name)
    model.metadata.update(formulation=name, instance=instance,
                          occupancy=taught, room_keys=room_keys, uses=uses)
    if aggregated:
        model.metadata["multirooms"] = tuple(rooms)
    w = instance.weights
    var = model.by_tag
    by_key = {r.id: r for r in rooms}

    obj = []
    for p in range(instance.periods):
        for key in room_keys:
            for c in instance.courses:
                idx = _add_var(model, (taught, p, key, c.id))
                overflow = c.students - by_key[key].capacity
                if w.capacity and overflow > 0:
                    obj.append((float(w.capacity * overflow), idx))

    for c in instance.courses:
        terms = []
        for p in range(instance.periods):
            terms += occupancy_terms(model, p, c.id)
        model.add_constraint(f"event_count[{c.id}]", terms, "=",
                             float(c.events), origin="event-count")
    for p in range(instance.periods):
        for key in room_keys:
            model.add_constraint(
                f"room_clash[{p},{key}]",
                [(1.0, var((taught, p, key, c.id)))
                 for c in instance.courses],
                "<=", float(by_key[key].multiplicity), origin="room-clash")
    for p in range(instance.periods):
        for c in instance.courses:
            model.add_constraint(f"course_clash[{p},{c.id}]",
                                 occupancy_terms(model, p, c.id), "<=", 1.0,
                                 origin="course-clash")
        for t in sorted(instance.teachers):
            terms = []
            for c in instance.courses:
                if c.teacher == t:
                    terms += occupancy_terms(model, p, c.id)
            model.add_constraint(f"teacher_clash[{p},{t}]", terms, "<=", 1.0,
                                 origin="teacher-clash")
        for u in instance.curricula:
            terms = []
            for cid in sorted(u.courses):
                terms += occupancy_terms(model, p, cid)
            model.add_constraint(f"curriculum_clash[{p},{u.id}]", terms,
                                 "<=", 1.0, origin="curriculum-clash")
    for cid, p in sorted(instance.unavailability):
        model.add_constraint(f"forbidden[{cid},{p}]",
                             occupancy_terms(model, p, cid), "=", 0.0,
                             origin="forbidden-period")

    _add_day_spread_machinery(model, instance)

    for key in room_keys:
        for c in instance.courses:
            _add_var(model, (uses, key, c.id))
    for p in range(instance.periods):
        for key in room_keys:
            for c in instance.courses:
                model.add_constraint(
                    f"room_used_ub[{p},{key},{c.id}]",
                    [(1.0, var((taught, p, key, c.id))),
                     (-1.0, var((uses, key, c.id)))],
                    "<=", 0.0, origin="room-aggregation")
    for key in room_keys:
        for c in instance.courses:
            model.add_constraint(
                f"room_used_lb[{key},{c.id}]",
                [(1.0, var((taught, p, key, c.id)))
                 for p in range(instance.periods)]
                + [(-1.0, var((uses, key, c.id)))],
                ">=", 0.0, origin="room-aggregation")

    for c in instance.courses:
        obj.append((float(w.spread), var(("mdv", c.id))))
    for u in instance.curricula:
        for d in range(instance.days):
            for s in range(instance.periods_per_day):
                obj.append((float(w.compactness), var(("single", u.id, d, s))))
    for key in room_keys:
        for c in instance.courses:
            obj.append((float(w.stability), var((uses, key, c.id))))
    model.set_objective(
        obj, constant=-float(w.stability) * len(instance.courses))
    return model


def build_monolithic(instance: Instance) -> MilpModel:
    # identity multirooms come in instance.rooms order
    return _build_full(instance, list(build_multirooms(instance, "identity")),
                       aggregated=False)


def build_surface2(instance: Instance,
                   multirooms: tuple[MultiRoom, ...] | None = None
                   ) -> MilpModel:
    """Full formulation over multirooms, by default the median split."""
    if multirooms is None:
        multirooms = build_multirooms(instance, "median-split")
    members = sorted(m for r in multirooms for m in r.members)
    if members != sorted(r.id for r in instance.rooms):
        raise FormulationError("multirooms must partition the room set")
    return _build_full(instance, list(multirooms), aggregated=True)


def build_surface(instance: Instance) -> MilpModel:
    """Period-assignment relaxation: bounded colouring with only the
    spread and compactness terms kept in the objective."""
    model = MilpModel("surface")
    model.metadata.update(formulation="surface", instance=instance,
                          occupancy="times", room_keys=())
    w = instance.weights
    var = model.by_tag

    for p in range(instance.periods):
        for c in instance.courses:
            _add_var(model, ("times", p, c.id))

    for c in instance.courses:
        model.add_constraint(
            f"event_count[{c.id}]",
            [(1.0, var(("times", p, c.id))) for p in range(instance.periods)],
            "=", float(c.events), origin="event-count")
    for p in range(instance.periods):
        for u in instance.curricula:
            model.add_constraint(
                f"curriculum_clash[{p},{u.id}]",
                [(1.0, var(("times", p, cid))) for cid in sorted(u.courses)],
                "<=", 1.0, origin="curriculum-clash")
        for t in sorted(instance.teachers):
            model.add_constraint(
                f"teacher_clash[{p},{t}]",
                [(1.0, var(("times", p, c.id)))
                 for c in instance.courses if c.teacher == t],
                "<=", 1.0, origin="teacher-clash")
        model.add_constraint(
            f"room_bound[{p}]",
            [(1.0, var(("times", p, c.id))) for c in instance.courses],
            "<=", float(len(instance.rooms)), origin="room-bound")
    for cid, p in sorted(instance.unavailability):
        model.add_constraint(f"forbidden[{cid},{p}]",
                             [(1.0, var(("times", p, cid)))], "=", 0.0,
                             origin="forbidden-period")

    _add_day_spread_machinery(model, instance)

    obj = []
    for c in instance.courses:
        obj.append((float(w.spread), var(("mdv", c.id))))
    for u in instance.curricula:
        for d in range(instance.days):
            for s in range(instance.periods_per_day):
                obj.append((float(w.compactness), var(("single", u.id, d, s))))
    model.set_objective(obj)
    return model


# -- restrictions (dives) -----------------------------------------------------

def restrict_period_fixed(monolithic: MilpModel,
                          basis: PeriodAssignment) -> MilpModel:
    instance: Instance = monolithic.metadata["instance"]
    basis.validate(instance)
    model = monolithic.copy(name=f"{monolithic.name}+{PERIOD_FIXED}")
    model.metadata["dive"] = PERIOD_FIXED
    for c in instance.courses:
        used = basis.periods.get(c.id, frozenset())
        for p in range(instance.periods):
            model.add_constraint(
                f"period_fix[{p},{c.id}]", occupancy_terms(model, p, c.id),
                "=", 1.0 if p in used else 0.0, origin="period-fix")
    return model


def restrict_day_fixed(monolithic: MilpModel,
                       basis: PeriodAssignment) -> MilpModel:
    """Fix each course's number of events on each day to its count in the
    period assignment, leaving periods within the day free."""
    instance: Instance = monolithic.metadata["instance"]
    basis.validate(instance)
    # the name is the MPS NAME too
    model = monolithic.copy(name=f"{monolithic.name}+day-plain")
    model.metadata["dive"] = DAY_FIXED
    for c in instance.courses:
        per_day = [0] * instance.days
        for p in basis.periods.get(c.id, ()):
            per_day[instance.day_of(p)] += 1
        for d in range(instance.days):
            terms = []
            for p in instance.day_periods(d):
                terms += occupancy_terms(model, p, c.id)
            model.add_constraint(f"day_fix[{c.id},{d}]", terms, "=",
                                 float(per_day[d]), origin="day-fix")
    return model


def build_dive(monolithic: MilpModel, neighborhood: Neighborhood) -> MilpModel:
    if neighborhood.kind == PERIOD_FIXED:
        return restrict_period_fixed(monolithic, neighborhood.basis)
    return restrict_day_fixed(monolithic, neighborhood.basis)


# -- decoding ----------------------------------------------------------------

def _integral(value: float, context: str) -> int:
    if abs(value - round(value)) > FEAS_TOL:
        raise FormulationError(f"non-integral value {value} for {context}")
    return int(round(value))


def _checked_values(model: MilpModel, milp_solution: MilpSolution):
    if milp_solution.status not in ("optimal", "feasible"):
        raise FormulationError(
            f"cannot decode solution with status {milp_solution.status}")
    values = milp_solution.values
    if len(values) != len(model.variables):
        raise FormulationError(
            f"solution has {len(values)} values for"
            f" {len(model.variables)} variables")
    return values.tolist()


def decode_monolithic(model: MilpModel,
                      milp_solution: MilpSolution) -> Solution:
    """Timetable of a solution of the monolithic model or one of its dives."""
    values = _checked_values(model, milp_solution)
    instance: Instance = model.metadata["instance"]
    assignments: dict[str, list[tuple[int, str]]] = {
        c.id: [] for c in instance.courses}
    for v, x in zip(model.variables, values):
        if v.tag[:1] == ("taught",) and _integral(x, v.name):
            _, p, room, cid = v.tag
            assignments[cid].append((p, room))
    return Solution({cid: tuple(sorted(v)) for cid, v in assignments.items()})


def decode_surface(model: MilpModel,
                   milp_solution: MilpSolution) -> PeriodAssignment:
    """Periods used by each course in a solution of any model that records
    its period-assignment variables (surface, surface2 or monolithic)."""
    values = _checked_values(model, milp_solution)
    instance: Instance = model.metadata["instance"]
    kind = (model.metadata["occupancy"],)
    periods: dict[str, set[int]] = {c.id: set() for c in instance.courses}
    for v, x in zip(model.variables, values):
        if v.tag[:1] == kind and _integral(x, v.name):
            periods[v.tag[-1]].add(v.tag[1])
    return PeriodAssignment({cid: frozenset(v) for cid, v in periods.items()})


def project_solution(instance: Instance, solution: Solution) -> PeriodAssignment:
    return PeriodAssignment({
        cid: frozenset(p for p, _ in pairs)
        for cid, pairs in solution.assignments.items()})


def encode_solution(instance: Instance, model: MilpModel,
                    solution: Solution) -> np.ndarray:
    """Point realising a full solution in a full-formulation model
    (auxiliaries at their forced minima)."""
    kind = model.metadata["occupancy"]
    uses = model.metadata.get("uses")
    room_to_key = {r.id: r.id for r in instance.rooms}
    for mr in model.metadata.get("multirooms", ()):
        room_to_key.update((member, mr.id) for member in mr.members)

    values: dict[tuple, float] = {}  # by tag; unlisted variables stay 0
    days_used: dict[str, set[int]] = {c.id: set() for c in instance.courses}
    rooms_used: dict[str, set[str]] = {c.id: set() for c in instance.courses}
    curriculum_periods: dict[str, set[int]] = {
        u.id: set() for u in instance.curricula}

    for cid, period, room in solution.events():
        key = room_to_key[room]
        if kind == "times":
            values[("times", period, cid)] = 1.0
        else:
            values[(kind, period, key, cid)] = 1.0
        days_used[cid].add(instance.day_of(period))
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
            values[(uses, key, c.id)] = 1.0

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
            terms = []
            for cid in members:
                terms += occupancy_terms(model, p, cid)
            model.add_constraint(f"clique[{p},{'+'.join(members)}]", terms,
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
    uses = model.metadata.get("uses")
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
        if uses is not None:
            model.add_constraint(
                f"implied_rooms[{c.id}]",
                [(1.0, model.by_tag((uses, key, c.id)))
                 for key in sorted(model.metadata["room_keys"])],
                ">=", 1.0, origin="implied-bound-cut")
            added += 1
    return added


def add_pattern_cuts(model: MilpModel, patterns) -> int:
    """Pattern-enumeration rows: when a curriculum's daily occupancy matches
    a +1/-1 pattern exactly, its isolated-lecture indicators must absorb
    that pattern's penalty."""
    instance: Instance = model.metadata["instance"]
    n = instance.periods_per_day
    added = 0
    for pattern, penalty in patterns:
        if len(pattern) != n:
            raise FormulationError(
                f"pattern length {len(pattern)} != periods per day {n}")
        if any(a not in (-1, 1) for a in pattern):
            raise FormulationError("pattern entries must be -1 or +1")
        expected = count_isolated([a == 1 for a in pattern])
        if penalty != expected:
            raise FormulationError(
                f"pattern {pattern} has penalty {expected}, got {penalty}")
        if penalty == 0:
            continue
        m = sum(1 for a in pattern if a == 1)
        label = "".join("1" if a == 1 else "0" for a in pattern)
        for u in instance.curricula:
            for d in range(instance.days):
                day = list(instance.day_periods(d))
                terms = []
                for j, a in enumerate(pattern):
                    for cid in sorted(u.courses):
                        terms += [(float(penalty * a), ref) for _, ref in
                                  occupancy_terms(model, day[j], cid)]
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
