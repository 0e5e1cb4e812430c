"""Run strategies: a surface solve harvests period assignments and valid
lower bounds, a room relaxation adds a bound on the room terms, then
restricted dives turn those assignments into full timetables and upper
bounds.

Before any search, every strategy records the timetable of a greedy
period assignment (ledger event `greedy`), so a run has an upper bound
within milliseconds.  Each surface incumbent's own timetable, its periods
with the rooms matched by size, is recorded as `surface+match` before any
dive from it.  The contract strategy runs the surface to its budget first
and dives afterwards; the anytime strategy dives as soon as the surface
finds each improving assignment.  The exact strategy searches the
monolithic model alone.  All bound movements go through a monotonic
ledger, which takes a timetable only after it passes the hard
constraints.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass

from .evaluation import Solution, check_hard, evaluate, gap, penalties
from .formulations import (DIVE_KINDS, PeriodAssignment, add_clique_cuts,
                           add_implied_bound_cuts, add_pattern_cuts,
                           build_dive, build_monolithic,
                           build_room_relaxation, build_surface,
                           build_surface2, decode_monolithic, decode_surface,
                           greedy_clique_cover, greedy_periods, match_rooms)
from .instance import Instance, build_conflict_graph
from .milp import FEAS_TOL
from .solver import SolveConfig, SolveResult, branch_and_bound

STRATEGIES = ("exact", "contract", "anytime")
# pattern cuts enumerate all 2**periods_per_day day patterns
PATTERN_CUT_MAX_PERIODS = 6
# given a total time, the room search and contract's surface search stop
# at this share of it, so the rest is left to dive
CONTRACT_SURFACE_SHARE = 0.5


class ControlError(Exception):
    pass


@dataclass
class StrategyConfig:
    strategy: str = "contract"
    surface_model: str = "surface"  # "surface" | "surface2"
    # budgets, math.inf for none; node budgets keep runs deterministic,
    # total_time does not (it is split by CONTRACT_SURFACE_SHARE)
    total_time: float = math.inf
    surface_nodes: float = math.inf  # a node count
    dive_nodes: float = math.inf  # a node count
    pattern_cuts: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ControlError(f"unknown strategy {self.strategy!r}")
        if self.surface_model not in ("surface", "surface2"):
            raise ControlError(f"unknown surface model {self.surface_model!r}")
        if not self.total_time > 0:
            raise ControlError("total_time must be positive")
        for name in ("surface_nodes", "dive_nodes"):
            if not getattr(self, name) >= 0:
                raise ControlError(f"{name} must not be negative")
        if self.strategy == "exact":  # options only surfaces and dives read
            for name in ("surface_model", "dive_nodes"):
                if getattr(self, name) != getattr(StrategyConfig, name):
                    raise ControlError(f"the exact strategy has no {name}")


@dataclass(frozen=True)
class LedgerEvent:
    # under a time budget the time.monotonic() reading, from which
    # RunReport.to_text and bench/run.py subtract the run's start; without
    # one a step count
    at: float
    kind: str  # "lower" | "upper"
    value: float
    source: str


class BoundsLedger:
    """Monotonic bound tracker: the lower bound never decreases, the upper
    bound never increases; non-improving reports are ignored.  A lower bound
    above the upper bound by more than FEAS_TOL means one of them is
    invalid: it raises ControlError, whichever bound moved."""

    def __init__(self, clock=None):
        # the clock reading at the start; None under the step counter
        self.started = None if clock is None else clock()
        if clock is None:  # an event's position in the history
            clock = lambda: float(len(self.history) + 1)
        self._clock = clock
        self.lower = -math.inf
        self.upper = math.inf
        self.best_solution: Solution | None = None
        self.history: list[LedgerEvent] = []

    def record_lower(self, value: float, source: str) -> bool:
        if value <= self.lower:
            return False
        self._check(value, self.upper)
        self.lower = value
        self.history.append(LedgerEvent(self._clock(), "lower", value, source))
        return True

    def record_upper(self, value: float, source: str,
                     solution: Solution | None = None) -> bool:
        if value >= self.upper:
            return False
        self._check(self.lower, value)
        self.upper = value
        if solution is not None:
            self.best_solution = solution
        self.history.append(LedgerEvent(self._clock(), "upper", value, source))
        return True

    @staticmethod
    def _check(lower: float, upper: float) -> None:
        if lower > upper + FEAS_TOL:
            raise ControlError(
                f"lower bound {lower:g} exceeds upper bound {upper:g}")

    def gap(self) -> float | None:
        if not math.isfinite(self.upper) or not math.isfinite(self.lower):
            return None
        return gap(self.upper, min(max(self.lower, 0.0), self.upper))


@dataclass
class DiveRecord:
    kind: str
    source_objective: float
    discovery_index: int
    status: str
    objective: float | None
    nodes: int


@dataclass
class RunReport:
    instance: str
    strategy: str
    status: str  # "optimal" | "feasible" | "infeasible" | "bounds-only"
    lower_bound: float | None
    upper_bound: float | None
    gap: float | None
    penalties: tuple[int, int, int, int] | None
    solution: dict[str, list[list]] | None
    # of the surface search, or of the exact search under the exact strategy
    surface_status: str
    surface_nodes: int
    dives: list[DiveRecord]
    history: list[LedgerEvent]
    # the clock reading when a timed run started; None for an untimed run,
    # whose events are stamped with step counts
    started: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"instance: {self.instance}",
                 f"strategy: {self.strategy}",
                 f"status: {self.status}",
                 f"lower bound: {self.lower_bound}",
                 f"upper bound: {self.upper_bound}",
                 f"gap: {'n/a' if self.gap is None else f'{self.gap}%'}"]
        if self.penalties is not None:
            cap, spread, comp, stab = self.penalties
            lines.append(f"penalties: capacity={cap} spread={spread}"
                         f" compactness={comp} stability={stab}")
        lines.append(f"{'exact' if self.strategy == 'exact' else 'surface'}:"
                     f" {self.surface_status} ({self.surface_nodes} nodes)")
        for d in self.dives:
            obj = "-" if d.objective is None else d.objective
            lines.append(f"dive {d.kind} from {d.source_objective}"
                         f" (#{d.discovery_index}): {d.status}, obj={obj},"
                         f" {d.nodes} nodes")
        for e in self.history:
            at = (f"{e.at:g}" if self.started is None
                  else f"{e.at - self.started:.2f}s")
            lines.append(f"  [{at}] {e.kind} -> {e.value:g} ({e.source})")
        return "\n".join(lines) + "\n"


def _solution_payload(solution: Solution | None) -> dict | None:
    if solution is None:
        return None
    return {cid: [[p, room] for p, room in pairs]
            for cid, pairs in solution.canonical().assignments.items()}


def solution_from_payload(payload: dict | None) -> Solution | None:
    if payload is None:
        return None
    return Solution({cid: tuple((int(p), room) for p, room in pairs)
                     for cid, pairs in payload.items()})


def _add_cuts(model, neighbours: dict[str, frozenset[str]],
              config: StrategyConfig) -> None:
    """Clique-cover rows of the conflict graph `neighbours`, then
    implied-bound rows, then pattern rows if the run asks for them."""
    add_clique_cuts(model, greedy_clique_cover(neighbours), neighbours)
    add_implied_bound_cuts(model)
    if config.pattern_cuts:
        add_pattern_cuts(model)


def _search(model, limit_nodes, deadline, **extra) -> SolveResult:
    """Every search of a run, to its node limit or its ``time.monotonic()``
    deadline, through the global ``branch_and_bound`` that ``bench/run.py``
    wraps."""
    return branch_and_bound(model, SolveConfig(
        time_limit=max(0.01, deadline - time.monotonic()),
        node_limit=limit_nodes, **extra))


def _record(instance: Instance, ledger: BoundsLedger, source: str,
            solution: Solution) -> float:
    """Re-check a timetable against the hard constraints, evaluate it and
    offer it to the ledger as an upper bound from `source`.  Returns its
    value."""
    violations = check_hard(instance, solution)
    if violations:
        raise ControlError(f"{source} produced an infeasible timetable:"
                           f" {violations[0]}")
    value = evaluate(instance, solution)
    ledger.record_upper(value, source, solution)
    return value


def _recorder(instance: Instance, model, ledger: BoundsLedger, source: str,
              objectives: list[float]):
    """``on_incumbent`` hook of a full-formulation search: record each
    incumbent's timetable, and its value in ``objectives``."""
    def record(values, _objective) -> None:
        objectives.append(_record(instance, ledger, source,
                                  decode_monolithic(model, values)))
    return record


def _run_dive(instance: Instance, monolithic, kind: str,
              basis: PeriodAssignment, objective: float, index: int,
              ledger: BoundsLedger, config: StrategyConfig,
              deadline) -> DiveRecord:
    """Dive of one kind from the surface's `index`-th incumbent, of value
    `objective`; `monolithic` returns the frozen model the dive restricts."""
    model = build_dive(monolithic(), kind, basis).freeze()
    objectives: list[float] = []
    # a dive is a heuristic: it plunges to its first incumbent
    result = _search(
        model, config.dive_nodes, deadline, cutoff=ledger.upper, plunge=True,
        on_incumbent=_recorder(instance, model, ledger, f"dive:{kind}",
                               objectives))
    return DiveRecord(kind, objective, index, result.status,
                      objectives[-1] if objectives else None,
                      result.nodes_explored)


def run_strategy(instance: Instance,
                 config: StrategyConfig | None = None) -> RunReport:
    config = config or StrategyConfig()
    ledger = BoundsLedger(
        clock=time.monotonic if math.isfinite(config.total_time) else None)
    start = time.monotonic()
    halfway = start + CONTRACT_SURFACE_SHARE * config.total_time
    deadline = start + config.total_time
    if (config.pattern_cuts
            and instance.periods_per_day > PATTERN_CUT_MAX_PERIODS):
        raise ControlError(f"pattern cuts need days of at most"
                           f" {PATTERN_CUT_MAX_PERIODS} periods")

    # the one conflict graph of the run, for the greedy and the cuts
    neighbours = build_conflict_graph(instance)
    # a first upper bound with no LP; no dive starts from it
    greedy = greedy_periods(instance, neighbours)
    if greedy is not None:
        _record(instance, ledger, "greedy", match_rooms(instance, greedy))

    # built at the first dive: a surface that yields no source needs none
    monolithic = functools.cache(
        lambda: build_monolithic(instance).freeze())
    sources: list[tuple[PeriodAssignment, float]] = []
    dives: list[DiveRecord] = []

    def dive(kind: str, index: int) -> None:
        if time.monotonic() < deadline:
            dives.append(_run_dive(instance, monolithic, kind,
                                   *sources[index], index, ledger, config,
                                   deadline))

    def harvest(values, objective: float) -> None:
        basis = decode_surface(model, values)
        sources.append((basis, objective))
        _record(instance, ledger, "surface+match",
                match_rooms(instance, basis))
        if config.strategy == "anytime":
            for kind in DIVE_KINDS:
                dive(kind, len(sources) - 1)

    if config.strategy == "exact":
        model, source = build_monolithic(instance), "exact"
        on_incumbent = _recorder(instance, model, ledger, source, [])
    else:
        model = (build_surface(instance) if config.surface_model == "surface"
                 else build_surface2(instance))
        source, on_incumbent = "surface", harvest
    _add_cuts(model, neighbours, config)
    model.freeze()
    # a model without rooms holds the period terms alone, and the room
    # relaxation's the room terms alone, so their lower bounds add up;
    # surface2 and the exact model have rooms and hold both.  The room
    # search needs nothing from the surface, so it runs first, to the
    # half-way point
    rooms_lower = -math.inf
    if "room_groups" not in model.metadata:
        rooms_lower = _search(build_room_relaxation(instance).freeze(),
                              config.surface_nodes, halfway).lower_bound
    # contract's surface search stops half-way too, so the second half is
    # left to dive; anytime's surface, the exact search and every dive run
    # to the deadline
    result = _search(model, config.surface_nodes,
                     halfway if config.strategy == "contract" else deadline,
                     on_incumbent=on_incumbent)
    # the surface relaxes the full problem and the exact model is the whole
    # problem, so either bound is a global one
    if math.isfinite(result.lower_bound):
        ledger.record_lower(result.lower_bound, source)
        if math.isfinite(rooms_lower):
            ledger.record_lower(result.lower_bound + rooms_lower,
                                "surface+rooms")

    # each incumbent beats the one before, so the newest source is the best
    if config.strategy == "contract":
        for kind in DIVE_KINDS:
            for index in reversed(range(len(sources))):
                dive(kind, index)

    return _report(instance, config, ledger, result, dives)


def _final_status(ledger: BoundsLedger, result: SolveResult) -> str:
    """Status of a run from its ledger and its surface (or exact) solve; the
    surface relaxes the full problem, so its infeasibility is final.  Every
    recorded lower bound is valid, whether or not its search stopped at a
    limit, so bounds that meet prove the upper bound optimal."""
    if result.status == "infeasible":
        return "infeasible"
    if not math.isfinite(ledger.upper):
        return "bounds-only"
    if ledger.upper <= ledger.lower + FEAS_TOL:
        return "optimal"
    return "feasible"


def _report(instance: Instance, config: StrategyConfig, ledger: BoundsLedger,
            result: SolveResult, dives: list[DiveRecord]) -> RunReport:
    best = ledger.best_solution
    return RunReport(
        instance=instance.name,
        strategy=config.strategy,
        status=_final_status(ledger, result),
        lower_bound=ledger.lower if math.isfinite(ledger.lower) else None,
        upper_bound=ledger.upper if math.isfinite(ledger.upper) else None,
        gap=ledger.gap(),
        penalties=(penalties(instance, best).as_tuple()
                   if best is not None else None),
        solution=_solution_payload(best),
        surface_status=result.status,
        surface_nodes=result.nodes_explored,
        dives=dives,
        history=list(ledger.history),
        started=ledger.started,
    )
