"""Curriculum-based course timetabling instances (ITC-2007 Track 3 format).

Instances are immutable after construction and safe to share between
concurrent solver workers.  Periods are numbered globally from 0 to
``days * periods_per_day - 1``; period ``p`` falls on day
``p // periods_per_day``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

DEFAULT_WEIGHTS = (1, 5, 2, 1)


class CttError(Exception):
    """Base class for instance loading problems."""


class CttSyntaxError(CttError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class CttSemanticError(CttError):
    """Well-formed text violating an instance invariant."""


@dataclass(frozen=True)
class WeightVector:
    capacity: int
    spread: int
    compactness: int
    stability: int

    def __post_init__(self):
        if min(self.capacity, self.spread, self.compactness, self.stability) < 0:
            raise CttSemanticError("weights must be non-negative")


@dataclass(frozen=True)
class Course:
    id: str
    teacher: str
    events: int
    min_days: int
    students: int


@dataclass(frozen=True)
class Room:
    id: str
    capacity: int


@dataclass(frozen=True)
class Curriculum:
    id: str
    courses: frozenset[str]


@dataclass(frozen=True)
class Instance:
    name: str
    courses: tuple[Course, ...]
    rooms: tuple[Room, ...]
    curricula: tuple[Curriculum, ...]
    days: int
    periods_per_day: int
    unavailability: frozenset[tuple[str, int]]
    weights: WeightVector = field(
        default_factory=lambda: WeightVector(*DEFAULT_WEIGHTS)
    )

    @property
    def periods(self) -> int:
        return self.days * self.periods_per_day

    @cached_property
    def course_by_id(self) -> dict[str, Course]:
        return {c.id: c for c in self.courses}

    @cached_property
    def room_by_id(self) -> dict[str, Room]:
        return {r.id: r for r in self.rooms}

    @cached_property
    def teachers(self) -> frozenset[str]:
        return frozenset(c.teacher for c in self.courses)

    def day_of(self, period: int) -> int:
        return period // self.periods_per_day

    def day_periods(self, day: int) -> range:
        start = day * self.periods_per_day
        return range(start, start + self.periods_per_day)

    def forbidden_periods(self, course_id: str) -> frozenset[int]:
        return frozenset(p for c, p in self.unavailability if c == course_id)

    def validate(self) -> None:
        """Raise CttSemanticError on the first violated invariant."""
        for kind, ids in (
            ("course", [c.id for c in self.courses]),
            ("room", [r.id for r in self.rooms]),
            ("curriculum", [u.id for u in self.curricula]),
        ):
            if len(ids) != len(set(ids)):
                dup = next(i for i in ids if ids.count(i) > 1)
                raise CttSemanticError(f"duplicate {kind} id {dup!r}")
        if self.days < 1 or self.periods_per_day < 1:
            raise CttSemanticError("days and periods per day must be positive")
        for r in self.rooms:
            if r.capacity < 0:
                raise CttSemanticError(f"room {r.id!r} has negative capacity")
        known = set(self.course_by_id)
        for u in self.curricula:
            if not u.courses:
                raise CttSemanticError(f"curriculum {u.id!r} is empty")
            for cid in u.courses:
                if cid not in known:
                    raise CttSemanticError(
                        f"curriculum {u.id!r} references unknown course {cid!r}"
                    )
        for cid, p in self.unavailability:
            if cid not in known:
                raise CttSemanticError(
                    f"unavailability references unknown course {cid!r}"
                )
            if not 0 <= p < self.periods:
                raise CttSemanticError(
                    f"unavailability period {p} out of range for course {cid!r}"
                )
        for c in self.courses:
            if c.events < 1:
                raise CttSemanticError(f"course {c.id!r} has no events")
            if not 1 <= c.min_days <= self.days:
                raise CttSemanticError(
                    f"course {c.id!r} min days {c.min_days} out of range"
                )
            if c.students < 0:
                raise CttSemanticError(f"course {c.id!r} has negative students")
            available = self.periods - len(self.forbidden_periods(c.id))
            if c.events > self.periods or c.events > available:
                raise CttSemanticError(
                    f"course {c.id!r} has more events than available periods"
                )


def parse_ctt(text: str, weights: tuple[int, int, int, int] | None = None) -> Instance:
    """Parse an ITC-2007 Track 3 ``.ctt`` file into a validated Instance.

    Weights default to (1, 5, 2, 1) unless overridden by the caller.
    """
    lines = text.splitlines()
    header: dict[str, str] = {}
    courses: list[Course] = []
    rooms: list[Room] = []
    curricula: list[Curriculum] = []
    unavailability: set[tuple[str, int]] = set()
    section = None
    seen_end = False

    expected_header = {
        "Name", "Courses", "Rooms", "Days", "Periods_per_day",
        "Curricula", "Constraints",
    }
    int_headers = {"Courses", "Rooms", "Days", "Periods_per_day",
                   "Curricula", "Constraints"}

    def header_int(key: str, line_no: int) -> int:
        if key not in header:
            raise CttSyntaxError(line_no, f"missing header {key}:")
        return int(header[key])

    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if seen_end:
            raise CttSyntaxError(idx, "content after END.")
        if line == "END.":
            seen_end = True
            continue
        if line.endswith(":") and line[:-1] in (
            "COURSES", "ROOMS", "CURRICULA", "UNAVAILABILITY_CONSTRAINTS"
        ):
            section = line[:-1]
            continue
        if section is None:
            if ":" not in line:
                raise CttSyntaxError(idx, f"expected 'Key: value', got {line!r}")
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key not in expected_header:
                raise CttSyntaxError(idx, f"unknown header key {key!r}")
            if key in header:
                raise CttSyntaxError(idx, f"repeated header key {key!r}")
            if key in int_headers:
                try:
                    int(value)
                except ValueError:
                    raise CttSyntaxError(idx, f"header {key}: not an integer")
            header[key] = value
            continue
        fields = line.split()
        try:
            if section == "COURSES":
                if len(fields) != 5:
                    raise ValueError
                courses.append(Course(fields[0], fields[1], int(fields[2]),
                                      int(fields[3]), int(fields[4])))
            elif section == "ROOMS":
                if len(fields) != 2:
                    raise ValueError
                rooms.append(Room(fields[0], int(fields[1])))
            elif section == "CURRICULA":
                if len(fields) < 3:
                    raise ValueError
                count = int(fields[1])
                members = fields[2:]
                if len(members) != count:
                    raise CttSyntaxError(
                        idx, f"curriculum {fields[0]!r} declares {count} courses"
                        f" but lists {len(members)}")
                if len(set(members)) != count:
                    raise CttSemanticError(
                        f"line {idx}: curriculum {fields[0]!r} lists a course"
                        f" twice: {line!r}")
                curricula.append(Curriculum(fields[0], frozenset(members)))
            elif section == "UNAVAILABILITY_CONSTRAINTS":
                if len(fields) != 3:
                    raise ValueError
                day, period = int(fields[1]), int(fields[2])
                ppd = header_int("Periods_per_day", idx)
                if not (0 <= day < header_int("Days", idx)
                        and 0 <= period < ppd):
                    raise CttSemanticError(
                        f"line {idx}: day or period out of range: {line!r}")
                if (fields[0], day * ppd + period) in unavailability:
                    raise CttSemanticError(
                        f"line {idx}: repeated unavailability: {line!r}")
                unavailability.add((fields[0], day * ppd + period))
        except CttSyntaxError:
            raise
        except ValueError:
            raise CttSyntaxError(idx, f"malformed {section} line: {line!r}")

    if not seen_end:
        raise CttSyntaxError(len(lines) or 1, "missing END. terminator")
    for key in expected_header - {"Constraints"}:
        if key not in header:
            raise CttSyntaxError(len(lines), f"missing header {key}:")

    declared = {
        "Courses": len(courses),
        "Rooms": len(rooms),
        "Curricula": len(curricula),
    }
    for key, actual in declared.items():
        if int(header[key]) != actual:
            raise CttSemanticError(
                f"header declares {header[key]} {key.lower()}, found {actual}")
    if "Constraints" in header and int(header["Constraints"]) != len(unavailability):
        raise CttSemanticError(
            f"header declares {header['Constraints']} constraints,"
            f" found {len(unavailability)}")

    w = WeightVector(*(weights if weights is not None else DEFAULT_WEIGHTS))
    instance = Instance(
        name=header["Name"],
        courses=tuple(courses),
        rooms=tuple(rooms),
        curricula=tuple(curricula),
        days=int(header["Days"]),
        periods_per_day=int(header["Periods_per_day"]),
        unavailability=frozenset(unavailability),
        weights=w,
    )
    instance.validate()
    return instance


def serialize_ctt(instance: Instance) -> str:
    """Canonical text form; parse_ctt(serialize_ctt(i)) == i."""
    out = [
        f"Name: {instance.name}",
        f"Courses: {len(instance.courses)}",
        f"Rooms: {len(instance.rooms)}",
        f"Days: {instance.days}",
        f"Periods_per_day: {instance.periods_per_day}",
        f"Curricula: {len(instance.curricula)}",
        f"Constraints: {len(instance.unavailability)}",
        "",
        "COURSES:",
    ]
    for c in instance.courses:
        out.append(f"{c.id} {c.teacher} {c.events} {c.min_days} {c.students}")
    out.append("")
    out.append("ROOMS:")
    for r in instance.rooms:
        out.append(f"{r.id} {r.capacity}")
    out.append("")
    out.append("CURRICULA:")
    for u in instance.curricula:
        members = " ".join(sorted(u.courses))
        out.append(f"{u.id} {len(u.courses)} {members}")
    out.append("")
    out.append("UNAVAILABILITY_CONSTRAINTS:")
    ppd = instance.periods_per_day
    for cid, p in sorted(instance.unavailability):
        out.append(f"{cid} {p // ppd} {p % ppd}")
    out.append("")
    out.append("END.")
    return "\n".join(out) + "\n"


def build_conflict_graph(instance: Instance) -> dict[str, frozenset[str]]:
    """Each course's neighbours in the conflict graph, keyed in course
    order: two courses clash iff they share a teacher or a curriculum."""
    by_teacher: dict[str, set[str]] = {}
    for c in instance.courses:
        by_teacher.setdefault(c.teacher, set()).add(c.id)
    neighbours: dict[str, set[str]] = {c.id: set() for c in instance.courses}
    groups = [*by_teacher.values(), *(u.courses for u in instance.curricula)]
    for group in groups:
        for cid in group:
            neighbours[cid] |= group
    return {cid: frozenset(n - {cid}) for cid, n in neighbours.items()}


@dataclass(frozen=True)
class InstanceStats:
    courses: int
    rooms: int
    periods: int
    events: int
    curricula: int
    frequency: float
    utilisation: float
    conflict_edges: int
    conflict_density: float


def instance_stats(instance: Instance) -> InstanceStats:
    """Occupancy statistics: frequency is the share of period-room slots in
    use, utilisation the share of period-seat slots in use."""
    events = sum(c.events for c in instance.courses)
    slots = instance.periods * len(instance.rooms)
    seats = instance.periods * sum(r.capacity for r in instance.rooms)
    demand = sum(c.events * c.students for c in instance.courses)
    edges = sum(map(len, build_conflict_graph(instance).values())) // 2
    n = len(instance.courses)
    return InstanceStats(
        courses=len(instance.courses),
        rooms=len(instance.rooms),
        periods=instance.periods,
        events=events,
        curricula=len(instance.curricula),
        frequency=events / slots if slots else 0.0,
        utilisation=demand / seats if seats else 0.0,
        conflict_edges=edges,
        conflict_density=edges / (n * (n - 1) / 2) if n > 1 else 0.0,
    )
