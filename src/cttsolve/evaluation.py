"""Solutions, hard feasibility, the four soft penalties, and the gap.

All functions here are pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .instance import CttSemanticError, Instance, WeightVector


@dataclass(frozen=True, eq=False)
class Solution:
    """One (period, room) pair per event, grouped by course.

    Per course, the number of pairs equals the course's event count and all
    periods are distinct.
    """

    assignments: dict[str, tuple[tuple[int, str], ...]]

    def events(self):
        for cid, pairs in self.assignments.items():
            for period, room in pairs:
                yield cid, period, room

    def canonical(self) -> "Solution":
        return Solution({
            cid: tuple(sorted(pairs))
            for cid, pairs in sorted(self.assignments.items())
        })

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return self.canonical().assignments == other.canonical().assignments


@dataclass(frozen=True)
class PenaltyVector:
    capacity: int
    spread: int
    compactness: int
    stability: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.capacity, self.spread, self.compactness, self.stability)


@dataclass(frozen=True)
class Violation:
    kind: str  # event-count | room-clash | course-clash | teacher-clash
    #            | curriculum-clash | forbidden-period | unknown-reference
    detail: str


def check_hard(instance: Instance, solution: Solution) -> list[Violation]:
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


def penalty_capacity(instance: Instance, solution: Solution) -> int:
    """Students left without a seat, summed over events."""
    total = 0
    for cid, _period, room in solution.events():
        students = instance.course_by_id[cid].students
        total += max(0, students - instance.room_by_id[room].capacity)
    return total


def penalty_min_days(instance: Instance, solution: Solution) -> int:
    """Shortfall against each course's prescribed distinct days."""
    total = 0
    for c in instance.courses:
        pairs = solution.assignments.get(c.id, ())
        days_used = {instance.day_of(p) for p, _ in pairs}
        total += max(0, c.min_days - len(days_used))
    return total


def penalty_compactness(instance: Instance, solution: Solution) -> int:
    """Isolated lectures in daily curriculum timetables.

    A curriculum's lecture is isolated when no period adjacent to it within
    the same day carries another lecture of the same curriculum; each
    occupied period is scored once per curriculum.
    """
    total = 0
    occupied_by_course: dict[str, set[int]] = {
        cid: {p for p, _ in pairs}
        for cid, pairs in solution.assignments.items()
    }
    for u in instance.curricula:
        periods = set()
        for cid in u.courses:
            periods |= occupied_by_course.get(cid, set())
        for d in range(instance.days):
            day = list(instance.day_periods(d))
            occ = [p in periods for p in day]
            total += count_isolated(occ)
    return total


def count_isolated(occupancy: list[bool]) -> int:
    """Occupied positions with no occupied neighbour, by direct scan."""
    n = len(occupancy)
    count = 0
    for i, busy in enumerate(occupancy):
        if not busy:
            continue
        left = i > 0 and occupancy[i - 1]
        right = i < n - 1 and occupancy[i + 1]
        if not left and not right:
            count += 1
    return count


def penalty_stability(instance: Instance, solution: Solution) -> int:
    """Distinct rooms per course beyond the first."""
    total = 0
    for c in instance.courses:
        pairs = solution.assignments.get(c.id, ())
        rooms = {room for _, room in pairs}
        if rooms:
            total += len(rooms) - 1
    return total


def penalties(instance: Instance, solution: Solution) -> PenaltyVector:
    return PenaltyVector(
        capacity=penalty_capacity(instance, solution),
        spread=penalty_min_days(instance, solution),
        compactness=penalty_compactness(instance, solution),
        stability=penalty_stability(instance, solution),
    )


def objective(weights: WeightVector, p: PenaltyVector) -> int:
    return (weights.capacity * p.capacity
            + weights.spread * p.spread
            + weights.compactness * p.compactness
            + weights.stability * p.stability)


def evaluate(instance: Instance, solution: Solution) -> int:
    return objective(instance.weights, penalties(instance, solution))


def gap(upper_bound: float, lower_bound: float) -> float:
    """Relative gap 100 * (1 - LB/UB), rounded half-up to one decimal."""
    if upper_bound == 0:
        return 0.0
    if upper_bound < 0 or lower_bound < 0 or lower_bound > upper_bound:
        raise ValueError(f"invalid bounds ({upper_bound}, {lower_bound})")
    raw = Decimal(100) * (Decimal(1) - Decimal(lower_bound) / Decimal(upper_bound))
    return float(raw.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def parse_solution(text: str, instance: Instance) -> Solution:
    """Read ``courseId roomId day periodOfDay`` lines (order irrelevant)."""
    assignments: dict[str, list[tuple[int, str]]] = {}
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise CttSemanticError(f"solution line {idx}: expected 4 fields")
        cid, room = fields[0], fields[1]
        try:
            day, pod = int(fields[2]), int(fields[3])
        except ValueError:
            raise CttSemanticError(f"solution line {idx}: bad day/period")
        if not (0 <= day < instance.days
                and 0 <= pod < instance.periods_per_day):
            raise CttSemanticError(
                f"solution line {idx}: day or period out of range: {line!r}")
        period = day * instance.periods_per_day + pod
        assignments.setdefault(cid, []).append((period, room))
    return Solution({cid: tuple(sorted(v)) for cid, v in assignments.items()})


def format_solution(instance: Instance, solution: Solution) -> str:
    lines = []
    for cid, period, room in sorted(solution.events()):
        day, pod = divmod(period, instance.periods_per_day)
        lines.append(f"{cid} {room} {day} {pod}")
    return "\n".join(lines) + "\n" if lines else ""
