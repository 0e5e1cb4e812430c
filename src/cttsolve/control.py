"""Run strategies: a surface solve harvests period assignments and valid
lower bounds, then restricted dives turn those assignments into full
timetables and upper bounds.

The contract strategy runs the surface to its budget first and dives
afterwards; the anytime strategy dives as soon as the surface finds each
improving assignment.  All bound movements go through a monotonic ledger.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass

from .evaluation import Solution, check_hard, evaluate, gap, penalties
from .formulations import (DIVE_KINDS, Neighborhood, PeriodAssignment,
                           add_clique_cuts, add_implied_bound_cuts,
                           add_pattern_cuts, all_patterns, build_dive,
                           build_monolithic, build_surface, build_surface2,
                           decode_monolithic, decode_surface,
                           greedy_clique_cover)
from .instance import Instance, build_conflict_graph
from .milp import FEAS_TOL, MilpSolution
from .solver import SolveConfig, SolveResult, branch_and_bound

STRATEGIES = ("exact", "contract", "anytime")


class ControlError(Exception):
    pass


@dataclass
class StrategyConfig:
    strategy: str = "contract"
    surface_model: str = "surface"  # "surface" | "surface2"
    dive_kinds: tuple[str, ...] = DIVE_KINDS
    # budgets; node budgets keep runs deterministic, time budgets do not
    surface_time: float | None = None
    per_dive_time: float | None = None
    total_time: float | None = None
    surface_nodes: int | None = None
    dive_nodes: int | None = None
    pattern_cuts: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ControlError(f"unknown strategy {self.strategy!r}")
        if self.surface_model not in ("surface", "surface2"):
            raise ControlError(f"unknown surface model {self.surface_model!r}")
        if not self.dive_kinds and self.strategy != "exact":
            raise ControlError("dive sequence must be non-empty")
        for kind in self.dive_kinds:
            if kind not in DIVE_KINDS:
                raise ControlError(f"unknown dive kind {kind!r}")
        for name in ("surface_time", "per_dive_time", "total_time"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ControlError(f"{name} must be positive")
        for name in ("surface_nodes", "dive_nodes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ControlError(f"{name} must not be negative")
        if (self.total_time is not None and self.surface_time is not None
                and self.total_time < self.surface_time):
            raise ControlError("total time must cover the surface time")

    def timed(self) -> bool:
        return any(t is not None for t in
                   (self.surface_time, self.per_dive_time, self.total_time))


@dataclass(frozen=True)
class LedgerEvent:
    at: float  # logical step count, or seconds when a time budget is set
    kind: str  # "lower" | "upper"
    value: float
    source: str


class BoundsLedger:
    """Monotonic bound tracker: the lower bound never decreases, the upper
    bound never increases; non-improving reports are ignored.  A lower bound
    above the upper bound by more than FEAS_TOL means one of them is
    invalid: it raises ControlError, whichever bound moved."""

    def __init__(self, clock=None):
        if clock is None:
            counter = itertools.count(1)
            clock = lambda: float(next(counter))
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
        return gap(self.upper, max(self.lower, 0.0))


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
    surface_status: str
    surface_nodes: int
    dives: list[DiveRecord]
    history: list[LedgerEvent]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        raw = json.loads(text)
        raw["dives"] = [DiveRecord(**d) for d in raw["dives"]]
        raw["history"] = [LedgerEvent(**e) for e in raw["history"]]
        if raw["penalties"] is not None:
            raw["penalties"] = tuple(raw["penalties"])
        return cls(**raw)

    def to_text(self) -> str:
        lines = [f"instance: {self.instance}",
                 f"strategy: {self.strategy}",
                 f"status: {self.status}",
                 f"lower bound: {self.lower_bound}",
                 f"upper bound: {self.upper_bound}",
                 f"gap: {self.gap if self.gap is not None else 'n/a'}%"]
        if self.penalties is not None:
            cap, spread, comp, stab = self.penalties
            lines.append(f"penalties: capacity={cap} spread={spread}"
                         f" compactness={comp} stability={stab}")
        lines.append(f"surface: {self.surface_status}"
                     f" ({self.surface_nodes} nodes)")
        for d in self.dives:
            obj = "-" if d.objective is None else d.objective
            lines.append(f"dive {d.kind} from {d.source_objective}"
                         f" (#{d.discovery_index}): {d.status}, obj={obj},"
                         f" {d.nodes} nodes")
        for e in self.history:
            lines.append(f"  [{e.at:g}] {e.kind} -> {e.value:g} ({e.source})")
        return "\n".join(lines) + "\n"


def _solution_payload(instance: Instance,
                      solution: Solution | None) -> dict | None:
    if solution is None:
        return None
    return {cid: [[p, room] for p, room in pairs]
            for cid, pairs in solution.canonical().assignments.items()}


def solution_from_payload(payload: dict | None) -> Solution | None:
    if payload is None:
        return None
    return Solution({cid: tuple((int(p), room) for p, room in pairs)
                     for cid, pairs in payload.items()})


def order_dives(neighborhoods: list[Neighborhood],
                kind_order: tuple[str, ...]) -> list[Neighborhood]:
    """Dive kinds in configured order; within a kind, better (lower) surface
    objectives first, then later discoveries first."""
    rank = {kind: i for i, kind in enumerate(kind_order)}
    return sorted(neighborhoods,
                  key=lambda n: (rank[n.kind], n.source_objective,
                                 -n.discovery_index))


def _prepare_surface(instance: Instance, config: StrategyConfig):
    if config.surface_model == "surface":
        model = build_surface(instance)
    else:
        model = build_surface2(instance)
    _add_static_cuts(instance, model)
    if config.pattern_cuts and instance.periods_per_day <= 6:
        add_pattern_cuts(model, all_patterns(instance.periods_per_day))
    return model.freeze()


def _add_static_cuts(instance: Instance, model) -> None:
    """Clique-cover rows, then implied-bound rows."""
    graph = build_conflict_graph(instance)
    add_clique_cuts(model, greedy_clique_cover(graph), graph)
    add_implied_bound_cuts(model)


def _budget(limit_time, limit_nodes, deadline, **extra) -> SolveConfig:
    if deadline is not None:
        remaining = max(0.01, deadline - time.monotonic())
        limit_time = remaining if limit_time is None else min(limit_time,
                                                              remaining)
    return SolveConfig(time_limit=limit_time, node_limit=limit_nodes, **extra)


def _expired(deadline) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _solve_and_record(instance: Instance, model, solve_config: SolveConfig,
                      ledger: BoundsLedger, source: str,
                      global_bound: bool = False) -> tuple[SolveResult,
                                                          float | None]:
    """Solve a full-formulation model, re-check its timetable against the
    hard constraints, and record its objective as an upper bound.  With
    `global_bound` the model is the whole problem, so its lower bound is
    recorded first."""
    result = branch_and_bound(model, solve_config)
    if global_bound and math.isfinite(result.lower_bound):
        ledger.record_lower(result.lower_bound, source)
    objective = None
    if result.incumbent is not None:
        solution = decode_monolithic(model, result.incumbent)
        violations = check_hard(instance, solution)
        if violations:
            raise ControlError(f"{source} produced an infeasible timetable:"
                               f" {violations[0]}")
        objective = evaluate(instance, solution)
        ledger.record_upper(objective, source, solution)
    return result, objective


def _run_dive(instance: Instance, monolithic, neighborhood: Neighborhood,
              ledger: BoundsLedger, config: StrategyConfig,
              deadline) -> DiveRecord:
    """`monolithic` returns the frozen monolithic model the dive restricts."""
    model = build_dive(monolithic(), neighborhood)
    add_implied_bound_cuts(model)
    model.freeze()
    cutoff = ledger.upper if math.isfinite(ledger.upper) else None
    solve_config = _budget(config.per_dive_time, config.dive_nodes, deadline,
                           cutoff=cutoff)
    result, objective = _solve_and_record(instance, model, solve_config,
                                          ledger, f"dive:{neighborhood.kind}")
    return DiveRecord(neighborhood.kind, neighborhood.source_objective,
                      neighborhood.discovery_index, result.status,
                      objective, result.nodes_explored)


def run_strategy(instance: Instance,
                 config: StrategyConfig | None = None) -> RunReport:
    config = config or StrategyConfig()
    clock = time.monotonic if config.timed() else None
    ledger = BoundsLedger(clock=clock)
    deadline = (time.monotonic() + config.total_time
                if config.total_time is not None else None)

    if config.strategy == "exact":
        return _run_exact(instance, config, ledger, deadline)

    # built at the first dive: a surface that yields no source needs none
    monolithic = functools.cache(
        lambda: build_monolithic(instance).freeze())
    surface = _prepare_surface(instance, config)
    sources: list[tuple[PeriodAssignment, float]] = []
    dives: list[DiveRecord] = []

    def harvest(values, objective: float) -> None:
        basis = decode_surface(surface,
                               MilpSolution(values, objective, "feasible"))
        sources.append((basis, objective))
        if config.strategy == "anytime":
            for kind in config.dive_kinds:
                if _expired(deadline):
                    break
                neighborhood = Neighborhood(kind, basis, objective,
                                            len(sources) - 1)
                dives.append(_run_dive(instance, monolithic, neighborhood,
                                       ledger, config, deadline))

    surface_config = _budget(config.surface_time, config.surface_nodes,
                             deadline, on_incumbent=harvest)
    surface_result = branch_and_bound(surface, surface_config)
    if math.isfinite(surface_result.lower_bound):
        ledger.record_lower(surface_result.lower_bound, "surface")

    if config.strategy == "contract":
        neighborhoods = [
            Neighborhood(kind, basis, objective, i)
            for i, (basis, objective) in enumerate(sources)
            for kind in config.dive_kinds]
        for neighborhood in order_dives(neighborhoods, config.dive_kinds):
            if _expired(deadline):
                break
            dives.append(_run_dive(instance, monolithic, neighborhood,
                                   ledger, config, deadline))

    status = _final_status(ledger, surface_result)
    return _report(instance, config, ledger, status, surface_result, dives)


def _final_status(ledger: BoundsLedger, result: SolveResult) -> str:
    """Status of a run from its ledger and its surface (or exact) solve; the
    surface relaxes the full problem, so its infeasibility is final."""
    if result.status == "infeasible":
        return "infeasible"
    if not math.isfinite(ledger.upper):
        return "bounds-only"
    if result.status == "optimal" and ledger.upper <= ledger.lower + FEAS_TOL:
        return "optimal"
    return "feasible"


def _run_exact(instance: Instance, config: StrategyConfig,
               ledger: BoundsLedger, deadline) -> RunReport:
    model = build_monolithic(instance)
    _add_static_cuts(instance, model)
    model.freeze()
    solve_config = _budget(config.total_time, config.surface_nodes, deadline)
    result, _ = _solve_and_record(instance, model, solve_config, ledger,
                                  "exact", global_bound=True)
    return _report(instance, config, ledger, _final_status(ledger, result),
                   result, [])


def _report(instance: Instance, config: StrategyConfig, ledger: BoundsLedger,
            status: str, surface_result: SolveResult,
            dives: list[DiveRecord]) -> RunReport:
    best = ledger.best_solution
    return RunReport(
        instance=instance.name,
        strategy=config.strategy,
        status=status,
        lower_bound=ledger.lower if math.isfinite(ledger.lower) else None,
        upper_bound=ledger.upper if math.isfinite(ledger.upper) else None,
        gap=ledger.gap(),
        penalties=(penalties(instance, best).as_tuple()
                   if best is not None else None),
        solution=_solution_payload(instance, best),
        surface_status=surface_result.status,
        surface_nodes=surface_result.nodes_explored,
        dives=dives,
        history=list(ledger.history),
    )
