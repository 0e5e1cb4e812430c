"""Correctness checks on strategy reports, independent of the package.

The hard-constraint check is written here from the problem definition and
does not call `cttsolve.evaluation`; objectives are recomputed with the
test suite's own oracle (`tests/oracles.py`).  Every check returns a list
of failure messages, empty when the check passes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOL = 1e-6


def load_oracle_objective(root: Path):
    """`oracle_objective` from the repository's `tests/oracles.py`."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_objective


def hard_violations(instance, solution) -> list[str]:
    """Breaches of the hard constraints: event counts, one event per course
    and period, room and teacher and curriculum clashes, unavailability."""
    out = []
    rooms = {r.id for r in instance.rooms}
    events = {c.id: c.events for c in instance.courses}
    teacher = {c.id: c.teacher for c in instance.courses}
    extra = set(solution.assignments) - set(events)
    if extra:
        out.append(f"undeclared courses {sorted(extra)}")
    taken: dict[tuple[int, str], str] = {}
    busy: dict[tuple[int, str], str] = {}
    for cid, count in events.items():
        pairs = list(solution.assignments.get(cid, ()))
        if len(pairs) != count:
            out.append(f"{cid} has {len(pairs)} events, needs {count}")
        periods = [p for p, _ in pairs]
        if len(set(periods)) != len(periods):
            out.append(f"{cid} meets twice in one period")
        for p, room in pairs:
            if room not in rooms or not 0 <= p < instance.periods:
                out.append(f"{cid} placed at unknown slot ({p}, {room})")
            if (cid, p) in instance.unavailability:
                out.append(f"{cid} placed at unavailable period {p}")
            if (p, room) in taken:
                out.append(f"{cid} and {taken[p, room]} share room {room}"
                           f" at period {p}")
            taken[p, room] = cid
            key = (p, teacher[cid])
            if key in busy and busy[key] != cid:
                out.append(f"{cid} and {busy[key]} share teacher"
                           f" {teacher[cid]} at period {p}")
            busy[key] = cid
    for u in instance.curricula:
        seen: dict[int, str] = {}
        for cid in sorted(u.courses):
            for p, _ in solution.assignments.get(cid, ()):
                if p in seen and seen[p] != cid:
                    out.append(f"{cid} and {seen[p]} of curriculum {u.id}"
                               f" meet at period {p}")
                seen[p] = cid
    return out


def check_report(instance, report, solution, oracle_objective) -> list[str]:
    """A reported timetable must be feasible and score its upper bound, and
    the lower bound must not exceed the upper bound."""
    out = []
    lower, upper = report.lower_bound, report.upper_bound
    if (upper is None) != (solution is None):
        out.append("upper bound and timetable must be reported together")
    if solution is not None:
        out += hard_violations(instance, solution)
        score = oracle_objective(instance, solution)
        if upper is not None and abs(score - upper) > TOL:
            out.append(f"timetable scores {score}, reported upper bound"
                       f" {upper}")
    if lower is not None and upper is not None and lower > upper + TOL:
        out.append(f"lower bound {lower} exceeds upper bound {upper}")
    return out


def check_bracket(optimum: float, report) -> list[str]:
    """A proven optimum must lie inside another strategy's bound pair."""
    out = []
    if report.lower_bound is not None and report.lower_bound > optimum + TOL:
        out.append(f"lower bound {report.lower_bound} above optimum {optimum}")
    if report.upper_bound is not None and report.upper_bound < optimum - TOL:
        out.append(f"upper bound {report.upper_bound} below optimum {optimum}")
    return out


def check_mps(first: str, second: str) -> list[str]:
    if first == second:
        return []
    return ["MPS re-export differs from the first export"]
