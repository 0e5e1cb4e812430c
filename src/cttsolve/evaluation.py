"""Solutions, hard feasibility, the four soft penalties, and the gap.

All functions here are pure over immutable inputs.  `check_hard` and
`penalties` read a timetable's periods as bitmasks (Python ints, bit p for
period p) that each call builds for itself; nothing is cached on the
instance, and the violations and penalties are those of the set-based
versions they replaced.
"""

from __future__ import annotations

from collections import Counter
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


def periods_in(mask: int):
    """The periods of a bitmask (bit p for period p), lowest first."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def check_hard(instance: Instance, solution: Solution) -> list[Violation]:
    """Return the list of hard-constraint violations (empty means feasible).

    Clashes are found over period bitmasks (bit p for period p) built in
    this call, per course, room, teacher and curriculum; only a period
    that clashes is then counted for its message."""
    violations: list[Violation] = []
    rooms = instance.room_by_id
    courses = instance.course_by_id

    for cid in solution.assignments:
        if cid not in courses:
            violations.append(Violation("unknown-reference",
                                        f"course {cid!r} not declared"))
    for pairs in solution.assignments.values():
        for period, room in pairs:
            if room not in rooms:
                violations.append(Violation("unknown-reference",
                                            f"room {room!r} not declared"))
            if not 0 <= period < instance.periods:
                violations.append(Violation(
                    "unknown-reference", f"period {period} out of range"))
    if violations:
        return violations

    masks: dict[str, int] = {}
    by_room: dict[str, int] = {}
    by_teacher: dict[str, int] = {}
    clash = 0  # the periods of a teacher or curriculum clash
    for c in instance.courses:
        pairs = solution.assignments.get(c.id, ())
        if len(pairs) != c.events:
            violations.append(Violation(
                "event-count",
                f"course {c.id} has {len(pairs)} events, needs {c.events}"))
        mask = repeat = 0
        for period, room in pairs:
            bit = 1 << period
            repeat |= mask & bit
            mask |= bit
            by_room[room] = by_room.get(room, 0) | bit
        if repeat:
            violations.append(Violation(
                "course-clash", f"course {c.id} meets twice in one period"))
        masks[c.id] = mask
        seen = by_teacher.get(c.teacher, 0)
        clash |= seen & mask | repeat
        by_teacher[c.teacher] = seen | mask
    for u in instance.curricula:
        once = 0
        for cid in u.courses:
            clash |= once & masks[cid]
            once |= masks[cid]

    # a room hosts two events at a period when its mask has fewer periods
    # than it has events
    events = sum(len(pairs) for pairs in solution.assignments.values())
    if sum(mask.bit_count() for mask in by_room.values()) < events:
        by_slot = Counter((period, room)
                          for _, period, room in solution.events())
        for (period, room), n in sorted(by_slot.items()):
            if n > 1:
                violations.append(Violation(
                    "room-clash",
                    f"room {room} hosts {n} events at period {period}"))

    for period in periods_in(clash):
        teachers = Counter(courses[cid].teacher
                           for cid, p, _ in solution.events() if p == period)
        for t, n in sorted(teachers.items()):
            if n > 1:
                violations.append(Violation(
                    "teacher-clash",
                    f"teacher {t} teaches {n} events at period {period}"))
        for u in instance.curricula:
            hits = sum(masks[cid] >> period & 1 for cid in u.courses)
            # course-clash above covers repeated periods within one course
            if hits > 1:
                violations.append(Violation(
                    "curriculum-clash",
                    f"curriculum {u.id} has {hits} events at period {period}"))

    if any(masks[cid] >> p & 1 for cid, p in instance.unavailability):
        for cid, period, _room in solution.events():
            if (cid, period) in instance.unavailability:
                violations.append(Violation(
                    "forbidden-period",
                    f"course {cid} placed at forbidden period {period}"))
    return violations


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


def penalties(instance: Instance, solution: Solution) -> PenaltyVector:
    """The four soft penalties.

    - capacity: students left without a seat, summed over events;
    - spread: each course's shortfall against its prescribed distinct days;
    - compactness: isolated lectures in daily curriculum timetables.  A
      curriculum's lecture is isolated when no period adjacent to it within
      the same day carries another lecture of the same curriculum; each
      occupied period is scored once per curriculum;
    - stability: distinct rooms per course beyond the first.

    Compactness reads each curriculum's periods as a bitmask built in this
    call: the isolated ones are ``occ & ~left & ~right``, where ``left`` and
    ``right`` are ``occ`` shifted by one period with the shifts that cross a
    day boundary masked off.  Spread counts the days a course's periods
    touch.  A period outside ``0..periods-1`` counts as a day for spread
    and is ignored by compactness."""
    courses, rooms = instance.course_by_id, instance.room_by_id
    periods, ppd = instance.periods, instance.periods_per_day
    capacity = spread = stability = 0
    masks: dict[str, int] = {}
    for cid, pairs in solution.assignments.items():
        students = courses[cid].students
        mask = 0
        for period, room in pairs:
            short = students - rooms[room].capacity
            if short > 0:
                capacity += short
            if 0 <= period < periods:
                mask |= 1 << period
        masks[cid] = mask
    for c in instance.courses:
        pairs = solution.assignments.get(c.id, ())
        days = len({period // ppd for period, _ in pairs})
        if days < c.min_days:
            spread += c.min_days - days
        used = len({room for _, room in pairs})
        if used > 1:
            stability += used - 1
    first = sum(1 << start for start in range(0, periods, ppd))
    last = first << (ppd - 1)
    compactness = 0
    for u in instance.curricula:
        occ = 0
        for cid in u.courses:
            occ |= masks.get(cid, 0)
        left, right = occ << 1 & ~first, occ >> 1 & ~last
        compactness += (occ & ~left & ~right).bit_count()
    return PenaltyVector(capacity, spread, compactness, stability)


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
