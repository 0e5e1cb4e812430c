"""Independent oracles written against the raw definitions.

These deliberately avoid the package's own algorithms: the LP oracle is a
naive dense two-phase tableau simplex, and the penalty oracles restate the
definitions with different mechanics (regex scans, set arithmetic).
The references at the end are the list-and-set versions of
``greedy_periods`` and ``check_hard`` that the bitmask versions replaced,
kept as they were so the tests can compare old and new.
"""

from __future__ import annotations

import math
import re

from cttsolve.evaluation import Violation
from cttsolve.formulations import PeriodAssignment
from cttsolve.instance import build_conflict_graph

EPS = 1e-9


def oracle_isolated(occupancy) -> int:
    """Isolated-position count via a regex over the occupancy string."""
    text = "".join("1" if b else "0" for b in occupancy)
    return len(re.findall(r"(?<!1)1(?!1)", text))


def oracle_capacity(instance, solution) -> int:
    caps = {r.id: r.capacity for r in instance.rooms}
    students = {c.id: c.students for c in instance.courses}
    total = 0
    for cid, pairs in solution.assignments.items():
        for _period, room in pairs:
            short = students[cid] - caps[room]
            if short > 0:
                total += short
    return total


def oracle_min_days(instance, solution) -> int:
    total = 0
    for c in instance.courses:
        days = set()
        for p, _room in solution.assignments.get(c.id, ()):
            days.add(p // instance.periods_per_day)
        shortfall = c.min_days - len(days)
        total += shortfall if shortfall > 0 else 0
    return total


def oracle_compactness(instance, solution) -> int:
    total = 0
    for u in instance.curricula:
        periods = set()
        for cid in u.courses:
            periods |= {p for p, _ in solution.assignments.get(cid, ())}
        for d in range(instance.days):
            day = range(d * instance.periods_per_day,
                        (d + 1) * instance.periods_per_day)
            total += oracle_isolated([p in periods for p in day])
    return total


def oracle_stability(instance, solution) -> int:
    total = 0
    for c in instance.courses:
        rooms = {room for _, room in solution.assignments.get(c.id, ())}
        if len(rooms) > 1:
            total += len(rooms) - 1
    return total


def oracle_clash(instance, a: str, b: str) -> bool:
    """Two distinct courses clash iff they share a teacher or a
    curriculum."""
    courses = instance.course_by_id
    return a != b and (
        courses[a].teacher == courses[b].teacher
        or any(a in u.courses and b in u.courses for u in instance.curricula))


def oracle_neighbours(instance) -> dict[str, frozenset[str]]:
    """Each course's neighbours, pair by pair, keyed in course order."""
    ids = [c.id for c in instance.courses]
    return {a: frozenset(b for b in ids if oracle_clash(instance, a, b))
            for a in ids}


def oracle_objective(instance, solution) -> int:
    w = instance.weights
    return (w.capacity * oracle_capacity(instance, solution)
            + w.spread * oracle_min_days(instance, solution)
            + w.compactness * oracle_compactness(instance, solution)
            + w.stability * oracle_stability(instance, solution))


# -- naive LP: two-phase dense tableau simplex with Bland's rule -------------

def oracle_lp(c, rows, senses, rhs, lo, hi):
    """Minimise c.x subject to rows[i].x (senses[i]) rhs[i], lo <= x <= hi.

    All bounds must be finite.  Returns (status, value).
    """
    n = len(c)
    if any(not (math.isfinite(lo[j]) and math.isfinite(hi[j]))
           for j in range(n)):
        raise ValueError("oracle requires finite bounds")

    # shift x = lo + y, y >= 0; upper bounds become rows y_j <= hi_j - lo_j
    shift = sum(c[j] * lo[j] for j in range(n))
    arows, asenses, arhs = [], [], []
    for row, sense, b in zip(rows, senses, rhs):
        arows.append(list(row))
        asenses.append(sense)
        arhs.append(b - sum(row[j] * lo[j] for j in range(n)))
    for j in range(n):
        row = [0.0] * n
        row[j] = 1.0
        arows.append(row)
        asenses.append("<=")
        arhs.append(hi[j] - lo[j])

    # normalise to non-negative rhs, add slack/surplus and artificials
    m = len(arows)
    for i in range(m):
        if arhs[i] < 0:
            arows[i] = [-a for a in arows[i]]
            arhs[i] = -arhs[i]
            asenses[i] = {"<=": ">=", ">=": "<=", "=": "="}[asenses[i]]

    slack_cols, artificial_cols = [], []
    total = n
    col_of_slack, col_of_art = {}, {}
    for i in range(m):
        if asenses[i] == "<=":
            col_of_slack[i] = total
            slack_cols.append(i)
            total += 1
        elif asenses[i] == ">=":
            col_of_slack[i] = total
            slack_cols.append(i)
            total += 1
            col_of_art[i] = total
            artificial_cols.append(i)
            total += 1
        else:
            col_of_art[i] = total
            artificial_cols.append(i)
            total += 1

    tableau = []
    basis = []
    for i in range(m):
        row = list(arows[i]) + [0.0] * (total - n) + [arhs[i]]
        if asenses[i] == "<=":
            row[col_of_slack[i]] = 1.0
            basis.append(col_of_slack[i])
        elif asenses[i] == ">=":
            row[col_of_slack[i]] = -1.0
            row[col_of_art[i]] = 1.0
            basis.append(col_of_art[i])
        else:
            row[col_of_art[i]] = 1.0
            basis.append(col_of_art[i])
        tableau.append(row)

    art_set = set(col_of_art.values())

    def pivot(objective, banned=frozenset()):
        while True:
            reduced = objective[:-1]
            # Bland's rule: lowest-index entering column
            enter = next((j for j, v in enumerate(reduced)
                          if v < -EPS and j not in banned), None)
            if enter is None:
                return True
            best_i, best_ratio = None, math.inf
            for i in range(m):
                a = tableau[i][enter]
                if a > EPS:
                    ratio = tableau[i][-1] / a
                    if (ratio < best_ratio - EPS
                            or (abs(ratio - best_ratio) <= EPS
                                and (best_i is None
                                     or basis[i] < basis[best_i]))):
                        best_i, best_ratio = i, ratio
            if best_i is None:
                return False  # unbounded
            piv = tableau[best_i][enter]
            tableau[best_i] = [v / piv for v in tableau[best_i]]
            for i in range(m):
                if i != best_i and abs(tableau[i][enter]) > EPS:
                    factor = tableau[i][enter]
                    tableau[i] = [v - factor * w
                                  for v, w in zip(tableau[i], tableau[best_i])]
            factor = objective[enter]
            for j in range(total + 1):
                objective[j] -= factor * tableau[best_i][j]
            basis[best_i] = enter

    # phase 1: minimise sum of artificials
    phase1 = [0.0] * (total + 1)
    for col in art_set:
        phase1[col] = 1.0
    for i in range(m):
        if basis[i] in art_set:
            for j in range(total + 1):
                phase1[j] -= tableau[i][j]
    pivot(phase1)
    if -phase1[-1] > 1e-7:
        return "infeasible", math.inf

    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] in art_set:
            enter = next((j for j in range(n + len(slack_cols))
                          if j not in art_set
                          and abs(tableau[i][j]) > EPS), None)
            if enter is not None:
                piv = tableau[i][enter]
                tableau[i] = [v / piv for v in tableau[i]]
                for k in range(m):
                    if k != i and abs(tableau[k][enter]) > EPS:
                        factor = tableau[k][enter]
                        tableau[k] = [v - factor * w for v, w
                                      in zip(tableau[k], tableau[i])]
                basis[i] = enter

    # phase 2
    phase2 = list(c) + [0.0] * (total - n) + [0.0]
    for col in art_set:
        phase2[col] = 0.0
    for i in range(m):
        if abs(phase2[basis[i]]) > EPS:
            factor = phase2[basis[i]]
            for j in range(total + 1):
                phase2[j] -= factor * tableau[i][j]
    bounded = pivot(phase2, banned=art_set)
    if not bounded:
        return "unbounded", -math.inf
    return "optimal", -phase2[-1] + shift


def oracle_lp_model(model):
    """Run the naive simplex on a MilpModel's LP relaxation."""
    n = len(model.variables)
    c = [0.0] * n
    for coef, idx in model.objective_terms:
        c[idx] += coef
    rows, senses, rhs = [], [], []
    for con in model.constraints:
        row = [0.0] * n
        for coef, idx in con.terms:
            row[idx] += coef
        rows.append(row)
        senses.append(con.sense)
        rhs.append(con.rhs)
    lo = [v.lower for v in model.variables]
    hi = [v.upper for v in model.variables]
    status, value = oracle_lp(c, rows, senses, rhs, lo, hi)
    if status == "optimal":
        value += model.objective_constant
    return status, value


# -- references: the set-based versions the bitmask code replaced ------------

def reference_greedy_periods(instance: Instance) -> PeriodAssignment | None:
    """A bounded colouring of the conflict graph, built greedily, or None
    at a dead end.  The courses go by (clash degree + 1) * events, most
    first, ties by id.  Each event takes an allowed period, on a day the
    course does not use yet if it can, then the one with the fewest
    events, then the lowest.  A period is allowed when it is not forbidden
    to the course, not used by it or by a course it clashes with, and
    holds fewer events than there are rooms."""
    neighbours = build_conflict_graph(instance)
    load = [0] * instance.periods
    used: dict[str, set[int]] = {c.id: set() for c in instance.courses}
    ppd = instance.periods_per_day
    for c in sorted(instance.courses, key=lambda c: (
            -(len(neighbours[c.id]) + 1) * c.events, c.id)):
        blocked = {p for cid, p in instance.unavailability
                   if cid == c.id}.union(*(used[n] for n in neighbours[c.id]))
        own = used[c.id]
        for _ in range(c.events):
            days = {p // ppd for p in own}
            free = [p for p in range(instance.periods)
                    if p not in blocked and p not in own
                    and load[p] < len(instance.rooms)]
            if not free:
                return None
            p = min(free, key=lambda p: (p // ppd in days, load[p], p))
            own.add(p)
            load[p] += 1
    return PeriodAssignment({cid: frozenset(v) for cid, v in used.items()})


def reference_check_hard(instance: Instance,
                          solution: Solution) -> list[Violation]:
    """Return the list of hard-constraint violations (empty means feasible)."""
    violations: list[Violation] = []
    rooms = instance.room_by_id
    courses = instance.course_by_id

    for cid, pairs in solution.assignments.items():
        if cid not in courses:
            violations.append(Violation("unknown-reference",
                                        f"course {cid!r} not declared"))
    for cid, period, room in solution.events():
        if room not in rooms:
            violations.append(Violation("unknown-reference",
                                        f"room {room!r} not declared"))
        if not 0 <= period < instance.periods:
            violations.append(Violation("unknown-reference",
                                        f"period {period} out of range"))
    if violations:
        return violations

    for c in instance.courses:
        pairs = solution.assignments.get(c.id, ())
        if len(pairs) != c.events:
            violations.append(Violation(
                "event-count",
                f"course {c.id} has {len(pairs)} events, needs {c.events}"))
        periods = [p for p, _ in pairs]
        if len(set(periods)) != len(periods):
            violations.append(Violation(
                "course-clash", f"course {c.id} meets twice in one period"))

    by_slot: dict[tuple[int, str], list[str]] = {}
    by_period: dict[int, list[str]] = {}
    for cid, period, room in solution.events():
        by_slot.setdefault((period, room), []).append(cid)
        by_period.setdefault(period, []).append(cid)

    for (period, room), cids in sorted(by_slot.items()):
        if len(cids) > 1:
            violations.append(Violation(
                "room-clash",
                f"room {room} hosts {len(cids)} events at period {period}"))

    for period, cids in sorted(by_period.items()):
        by_teacher: dict[str, int] = {}
        for cid in cids:
            t = instance.course_by_id[cid].teacher
            by_teacher[t] = by_teacher.get(t, 0) + 1
        for t, n in sorted(by_teacher.items()):
            if n > 1:
                violations.append(Violation(
                    "teacher-clash",
                    f"teacher {t} teaches {n} events at period {period}"))
        present = set(cids)
        for u in instance.curricula:
            hits = len(present & u.courses)
            # course-clash above covers repeated periods within one course
            if hits > 1:
                violations.append(Violation(
                    "curriculum-clash",
                    f"curriculum {u.id} has {hits} events at period {period}"))

    for cid, period, _room in solution.events():
        if (cid, period) in instance.unavailability:
            violations.append(Violation(
                "forbidden-period",
                f"course {cid} placed at forbidden period {period}"))
    return violations
