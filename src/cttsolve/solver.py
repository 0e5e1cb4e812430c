"""Exact desk-scale searches, each a ``SolveConfig`` in and a ``SolveResult``
out (LP-based branch and bound, a file-based external adapter), and oracles.

Each solve is single-threaded; distinct models may be solved concurrently.
An ``_Arrays`` holds the HiGHS instance its node LPs run on, so one must
not be shared between threads.  A search's first LP is solved cold, by
HiGHS's dual simplex as ``scipy.optimize.linprog`` solves it, or, for a
model of more than ``IPM_MIN_COLUMNS`` columns other than a period-fixed
dive, by HiGHS's interior-point solver with crossover; every later LP
starts from the basis the LP before it left, by dual simplex.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Callable

import numpy as np

from . import evaluation
from .formulations import PERIOD_FIXED
from .instance import Instance
from .milp import (FEAS_TOL, MilpModel, MilpSolution, import_solution,
                   mps_chunks)


def _load_highs_core():
    """scipy's bundled HiGHS bindings, loaded from scipy's directory.

    ``import scipy.optimize._highspy._core`` would first run
    ``scipy.optimize``'s ``__init__``, which loads ``scipy.sparse``,
    ``scipy.linalg`` and ``scipy.fft`` and would more than triple this
    package's import time.  The module keeps its own name in
    ``sys.modules``, so it and ``scipy.optimize``, imported in either
    order, share one copy: pybind11 registers each HiGHS type once per
    process.  The bindings are private; tests/test_solver.py cross-checks
    them against the public ``scipy.optimize.linprog``.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    where = Path(scipy_spec.submodule_search_locations[0],
                 "optimize", "_highspy")
    spec = importlib.machinery.FileFinder(
        str(where), (importlib.machinery.ExtensionFileLoader,
                     importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no HiGHS bindings {where / '_core'}.*",
                          name=name, path=str(where))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_core = _load_highs_core()
HighsLp = _core.HighsLp
HighsModelStatus = _core.HighsModelStatus
HighsOptions = _core.HighsOptions
HighsStatus = _core.HighsStatus
MatrixFormat = _core.MatrixFormat
_Highs = _core._Highs
simplex_constants = _core.simplex_constants

# linprog's result check: a point may leave its bounds or rows by at most
# 10 * sqrt(tol), with linprog's default tol of 1e-9
RESIDUAL_TOL = 10 * math.sqrt(1e-9)

# the options scipy.optimize.linprog(method="highs") passes to HiGHS
_HIGHS_OPTIONS = HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.simplex_strategy = (
    simplex_constants.SimplexStrategy.kSimplexStrategyDual)

# a model of more than this many columns solves its first, cold LP by
# HiGHS's interior-point solver (IPX) with crossover, and every later LP by
# dual simplex from crossover's basis.  IPX's lead grows with size: the comp
# preset's full formulation (7080 columns) solves cold in 0.77 s against
# 1.36 s by dual simplex (2-CPU VM, scipy 1.17.1).  At or below 3000 columns dual simplex was the
# faster on all but one model measured, among them every small and mid
# model (at most 784 columns) and the comp surface (1500); the grid is in
# BENCH_33.json.  A period-fixed dive's root goes to dual simplex at any
# size: its fixing rows leave an easy LP, which on comp solved cold in
# 0.065 s by dual simplex against 0.075 s by IPM (the day-fixed root: 0.97
# against 0.58 s)
IPM_MIN_COLUMNS = 3000

_LP_STATUS = {
    HighsModelStatus.kOptimal: "optimal",
    HighsModelStatus.kInfeasible: "infeasible",
    HighsModelStatus.kUnbounded: "unbounded",
}


class SolverError(Exception):
    pass


class SearchSpaceError(SolverError):
    """Brute-force guard tripped."""


class ExternalSolverError(SolverError):
    pass


@dataclass
class SolveConfig:
    """Limits, cutoff and incumbent hook of one search, by any engine.
    Each limit is a number, and ``math.inf`` means none."""

    time_limit: float = math.inf  # seconds
    cutoff: float = math.inf  # prune nodes whose bound reaches this value
    node_limit: float = math.inf  # a node count
    on_incumbent: Callable | None = None  # (point, objective) -> None
    plunge: bool = False  # depth-first until the first incumbent

    def __post_init__(self):
        if not self.time_limit > 0:
            raise SolverError("time limit must be positive")
        if not self.node_limit >= 0:
            raise SolverError("node limit must not be negative")


@dataclass
class SolveResult:
    # optimal | feasible | infeasible | cutoff | unbounded | limit-reached
    status: str
    incumbent: MilpSolution | None
    lower_bound: float
    nodes_explored: int


class _Arrays:
    """Column bounds of one model, with its LP passed once to the HiGHS
    instance its node LPs run on; a node LP differs from the model's only
    in its column bounds.

    The LP's rows are gathered from the model's CSR buffers with numpy,
    in ``scipy.optimize.linprog``'s order and signs: the inequality rows
    in model order, each >= row negated into a <= row, then the = rows.
    HiGHS then solves the very LP linprog would, so both end at the same
    vertex; other rows would change the vertices found, and with them the
    search."""

    def __init__(self, model: MilpModel):
        n = len(model.variables)
        cost = np.zeros(n)
        for coef, idx in model.objective_terms:
            cost[idx] += coef
        self.constant = model.objective_constant
        self.lo = np.array([v.lower for v in model.variables])
        self.hi = np.array([v.upper for v in model.variables])
        # every node LP changes the bounds of all columns
        self.cols = np.arange(n, dtype=np.int32)
        self.int_idx = np.array(
            [i for i, v in enumerate(model.variables) if v.is_integer()],
            dtype=int)

        obj_vars_integer = all(
            model.variables[idx].is_integer()
            for coef, idx in model.objective_terms if coef != 0.0)
        obj_coefs_integral = all(
            float(coef).is_integer() for coef, idx in model.objective_terms
        ) and float(self.constant).is_integer()
        self.integral_objective = obj_vars_integer and obj_coefs_integral

        # sense codes: 0 for <=, 1 for >=, 2 for =
        senses = np.array(model._senses, dtype=np.uint8)
        lengths = np.diff(np.array(model._starts))
        # the LP's rows are the model's with the = rows moved last, so one
        # stable sort of the entries by "on an = row" gathers them
        order = np.argsort(senses == 2, kind="stable")
        gather = np.argsort(np.repeat(senses == 2, lengths), kind="stable")
        start = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lengths[order], out=start[1:])
        index = np.array(model._cols)[gather]
        value = np.array(model._coefs)
        np.negative(value, out=value, where=np.repeat(senses == 1, lengths))
        value = value[gather]
        rhs = np.array(model._rhs)
        np.negative(rhs, out=rhs, where=senses == 1)
        self.row_upper = rhs[order]
        self.row_lower = np.where(senses == 2, rhs, -np.inf)[order]

        lp = HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = len(order)
        # HiGHS lays the rows out column-wise and drops explicit zeros
        lp.a_matrix_.format_ = MatrixFormat.kRowwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.col_cost_ = cost
        lp.col_lower_ = self.lo
        lp.col_upper_ = self.hi
        lp.row_lower_ = self.row_lower
        lp.row_upper_ = self.row_upper
        self.highs = _Highs()
        self.highs.passOptions(_HIGHS_OPTIONS)
        self.cold_ipm = (n > IPM_MIN_COLUMNS
                         and model.metadata.get("dive") != PERIOD_FIXED)
        if self.cold_ipm:
            self.highs.setOptionValue("solver", "ipm")
        # a rejected model would leave HiGHS to solve an empty one
        if self.highs.passModel(lp) == HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP")


def linprog(arrays: _Arrays, lo, hi):
    """Solve the LP of ``arrays`` under column bounds ``lo``..``hi``.
    Every call changes only the column bounds of the instance's LP, so each
    starts from the basis the call before it left, and the first from
    scratch.  The LP, options and result check are those of
    ``scipy.optimize.linprog`` with ``method="highs"``, so for a model of at
    most ``IPM_MIN_COLUMNS`` columns, and for a period-fixed dive, a
    search's first LP matches it bit for bit; a later LP may end at another
    optimal vertex, with the same value up to rounding.  Any other larger
    model's first LP goes to IPM with crossover,
    which ends at an optimal vertex of its own; when IPM ends in a status
    other than optimal, infeasible or unbounded, or crossover leaves no
    basis, dual simplex solves that LP again from scratch.

    Returns (status, value incl. constant, point array or None), with
    status optimal, infeasible or unbounded; any other HiGHS status, and an
    optimal point outside its bounds or rows, raises SolverError.
    ``bench/run.py`` traces node LPs by this function's name, so callers
    reach it through the module global.
    """
    if len(lo) == 0:
        # HiGHS calls a model without columns "Empty"; its rows are 0
        feasible = ((arrays.row_lower <= FEAS_TOL).all()
                    and (arrays.row_upper >= -FEAS_TOL).all())
        if feasible:
            return "optimal", arrays.constant, np.zeros(0)
        return "infeasible", math.inf, None
    highs = arrays.highs
    # rejected bounds (a NaN) would leave HiGHS to solve the previous LP
    if (highs.changeColsBounds(len(lo), arrays.cols, lo, hi)
            == HighsStatus.kError):
        raise SolverError("HiGHS rejected the LP")
    highs.run()
    if arrays.cold_ipm:
        arrays.cold_ipm = False
        highs.setOptionValue("solver", _HIGHS_OPTIONS.solver)
        # IPX may end in another status or, after crossover, without a
        # basis to warm-start from: then dual simplex solves the LP again
        status = _LP_STATUS.get(highs.getModelStatus())
        if status is None or (status == "optimal"
                              and not highs.getBasis().valid):
            highs.clearSolver()
            highs.run()
    model_status = highs.getModelStatus()
    status = _LP_STATUS.get(model_status)
    if status is None:
        raise SolverError("HiGHS ended the LP with status "
                          + highs.modelStatusToString(model_status))
    if status != "optimal":
        return status, math.inf if status == "infeasible" else -math.inf, None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    value = highs.getInfo().objective_function_value
    tol = RESIDUAL_TOL
    feasible = (not math.isnan(value)
                and (x >= lo - tol).all() and (x <= hi + tol).all()
                and (row >= arrays.row_lower - tol).all()
                and (row <= arrays.row_upper + tol).all())
    if not feasible:
        raise SolverError("HiGHS returned an optimal LP point outside its "
                          f"bounds or rows by more than {tol:.2e}")
    return status, value + arrays.constant, x


def _round_bound(value: float, integral: bool) -> float:
    if integral and math.isfinite(value):
        return math.ceil(value - FEAS_TOL)
    return value


def branch_and_bound(model: MilpModel,
                     config: SolveConfig | None = None) -> SolveResult:
    """Best-bound branch and bound over the model's integer variables.

    Branches on the most fractional integer variable (ties to the lowest
    index).  Among open nodes of equal bound the newest goes first, and of
    two siblings the down child (``x <= floor``) is the newer, so each
    plateau of tied bounds is searched depth-first, down child first.
    With ``config.plunge`` the search first plunges: until it has an
    incumbent it takes the newest open node whatever its bound, which is
    the down child of the node it just branched on; from its first
    incumbent on it takes the nodes in the best-bound order above.
    Nodes are pruned once their bound reaches the lesser of the cutoff and
    the incumbent.  Stops only at the node limit, the time limit
    or an exhausted tree; a stop with the open bound at the incumbent is
    ``optimal``.  Deterministic when no time limit binds.
    Status ``cutoff`` means the tree was exhausted without an incumbent
    after pruning against the cutoff: nothing better than the cutoff
    exists, though the model may be feasible.
    """
    config = config or SolveConfig()
    start = time.monotonic()
    arrays = _Arrays(model)
    integral = arrays.integral_objective

    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    pruned_min = math.inf
    explored = 0
    # (bound, -seq, lo, hi): a stack while plunging, else a heap
    nodes = [(-math.inf, 0, arrays.lo.copy(), arrays.hi.copy())]
    seq = itertools.count(1)
    plunging = config.plunge
    stop_status = None

    def cut_line() -> float:
        return min(config.cutoff, inc_obj)

    while nodes:
        if (explored >= config.node_limit
                or time.monotonic() - start > config.time_limit):
            stop_status = "limit-reached"
            break

        bound, _, lo, hi = nodes.pop() if plunging else heappop(nodes)
        if bound >= cut_line() - FEAS_TOL:
            pruned_min = min(pruned_min, bound)
            continue

        explored += 1
        status, value, x = linprog(arrays, lo, hi)
        if status == "infeasible":
            continue
        if status == "unbounded":
            return SolveResult("unbounded", None, -math.inf, explored)
        node_bound = _round_bound(value, integral)
        if node_bound >= cut_line() - FEAS_TOL:
            pruned_min = min(pruned_min, node_bound)
            continue

        branch_var = _most_fractional(arrays, x)
        if branch_var is None:
            x[arrays.int_idx] = np.round(x[arrays.int_idx])
            exact = model.objective_value(x)
            if exact < cut_line() - FEAS_TOL:
                incumbent = x
                inc_obj = exact
                if plunging:
                    heapify(nodes)
                    plunging = False
                if config.on_incumbent is not None:
                    config.on_incumbent(x.copy(), exact)
            else:
                pruned_min = min(pruned_min, exact)
            continue

        xv = x[branch_var]
        down_hi = hi.copy()
        down_hi[branch_var] = math.floor(xv)
        up_lo = lo.copy()
        up_lo[branch_var] = math.ceil(xv)
        # the newest node goes first (among tied bounds once the search
        # stops plunging), so the down child, pushed last, is next
        push = list.append if plunging else heappush
        push(nodes, (node_bound, -next(seq), up_lo, hi))
        push(nodes, (node_bound, -next(seq), lo, down_hi))

    # a plunge's stack is not kept in bound order, so scan every open node
    lb = min([node[0] for node in nodes] + [pruned_min, inc_obj])
    if incumbent is None:
        if stop_status is None:
            # tree exhausted; every prune was against the cutoff, if any
            stop_status = "cutoff" if pruned_min < math.inf else "infeasible"
        return SolveResult(stop_status, None, lb, explored)
    # an open bound that has reached the incumbent proves it, stop or not
    if lb >= inc_obj - FEAS_TOL:
        status = "optimal"
    else:
        status = stop_status or "feasible"
    return SolveResult(status, MilpSolution(incumbent, inc_obj), lb, explored)


def _most_fractional(arrays: _Arrays, x) -> int | None:
    """Index of the integer variable farthest from integral, ties to the
    lowest index; None when all are integral within FEAS_TOL."""
    if not len(arrays.int_idx):
        return None
    values = x[arrays.int_idx]
    frac = np.abs(values - np.round(values))
    best = int(np.argmax(frac))
    return int(arrays.int_idx[best]) if frac[best] > FEAS_TOL else None


# -- brute force oracles ----------------------------------------------------

BRUTE_FORCE_GUARD = 10 ** 7


def brute_force_model(model: MilpModel,
                      guard: int = BRUTE_FORCE_GUARD) -> SolveResult:
    """Exhaustive enumeration over integer variable assignments."""
    ranges = []
    for v in model.variables:
        if not v.is_integer():
            if v.lower == v.upper:
                ranges.append([v.lower])
                continue
            raise SolverError(
                f"brute force requires integer or fixed variables ({v.name})")
        if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
            raise SolverError(f"variable {v.name} is unbounded")
        ranges.append(list(range(int(math.ceil(v.lower)),
                                 int(math.floor(v.upper)) + 1)))
    space = math.prod(len(r) for r in ranges)
    if space > guard:
        raise SearchSpaceError(f"search space {space} exceeds guard {guard}")

    best, best_obj = None, math.inf
    for combo in itertools.product(*ranges):
        values = np.array(combo, dtype=float)
        if model.first_violation(values) is not None:
            continue
        obj = model.objective_value(values)
        if obj < best_obj:
            best, best_obj = values, obj
    if best is None:
        return SolveResult("infeasible", None, math.inf, space)
    return SolveResult("optimal", MilpSolution(best, best_obj),
                       best_obj, space)


def brute_force_instance(instance: Instance,
                         guard: int = BRUTE_FORCE_GUARD) -> SolveResult:
    """Exhaustive enumeration over event -> (period, room) assignments."""
    room_ids = [r.id for r in instance.rooms]
    per_course: list[tuple[str, list[tuple[tuple[int, str], ...]]]] = []
    space = 1
    for c in instance.courses:
        allowed = [p for p in range(instance.periods)
                   if (c.id, p) not in instance.unavailability]
        options = []
        for periods in itertools.combinations(allowed, c.events):
            for rooms in itertools.product(room_ids, repeat=c.events):
                options.append(tuple(zip(periods, rooms)))
        if not options:
            return SolveResult("infeasible", None, math.inf, 0)
        space *= len(options)
        if space > guard:
            raise SearchSpaceError(f"search space exceeds guard {guard}")
        per_course.append((c.id, options))

    best_obj = math.inf
    stack_ids = [cid for cid, _ in per_course]
    for combo in itertools.product(*(opts for _, opts in per_course)):
        solution = evaluation.Solution(dict(zip(stack_ids, combo)))
        if not evaluation.check_hard(instance, solution):
            best_obj = min(best_obj, evaluation.evaluate(instance, solution))
    status = "infeasible" if best_obj == math.inf else "optimal"
    return SolveResult(status, None, best_obj, space)


# -- external adapter --------------------------------------------------------

def external_solve(model: MilpModel, command: list[str], workdir: str | Path,
                   config: SolveConfig | None = None) -> SolveResult:
    """Write ``<workdir>/<model name>.mps``, run the command and read its
    answer as ``cttsolve solve-mps`` gives it: the point in ``.sol`` next
    to the model and the ``status:`` and ``lower bound:`` lines on standard
    output (no bound line means ``-inf``).  The command can name ``{mps}``,
    ``{solution}`` and ``{time_limit}`` (``config.time_limit``, ``inf``
    for none); it is killed 60 s after a finite limit.  Exit code 1 is taken
    only as ``status: infeasible`` without a point.  A node limit raises
    ExternalSolverError; a cutoff or plunge only steers a search.

    The ``.sol`` file is deleted first, so an earlier call's point is never
    read as this one's.  Without a point, only ``infeasible``, ``cutoff``,
    ``unbounded`` or ``limit-reached`` comes back.  A point is re-checked
    against the model and the bound against the point, never trusted; the
    checked point goes once to ``on_incumbent`` and is ``optimal`` when the
    bound meets it.
    """
    config = config or SolveConfig()
    if config.node_limit < math.inf:
        raise ExternalSolverError("an external solver takes no node limit")
    if Path(model.name).name != model.name:  # the files stay in workdir
        raise ExternalSolverError(f"model name {model.name!r} has a path")
    workdir = Path(workdir).resolve()  # the command runs inside it
    workdir.mkdir(parents=True, exist_ok=True)
    mps, sol = (workdir / f"{model.name}.{ext}" for ext in ("mps", "sol"))
    sol.unlink(missing_ok=True)
    with mps.open("w", encoding="utf-8") as handle:
        handle.writelines(mps_chunks(model))

    limit = config.time_limit
    timeout = limit + 60 if limit < math.inf else None
    command = [arg.format(mps=mps, solution=sol, time_limit=limit)
               for arg in command]
    try:
        proc = subprocess.run(command, cwd=workdir, capture_output=True,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise ExternalSolverError(f"external process failed: {exc}")
    answer = {key.strip(): value.strip() for key, _, value in
              (line.partition(":") for line in proc.stdout.splitlines())}
    status, point = answer.get("status"), sol.exists()
    accepted = (0, 1) if (status, point) == ("infeasible", False) else (0,)
    if proc.returncode not in accepted:
        raise ExternalSolverError(
            f"external process exited with {proc.returncode} "
            f"(command {command}, workdir {workdir}): {proc.stderr}")
    text = answer.get("lower bound", "-inf")
    try:
        lower = float(text)
    except ValueError:
        lower = math.nan
    if math.isnan(lower):
        raise ExternalSolverError(f"malformed lower bound {text!r}")
    if not point:
        if status in ("infeasible", "cutoff", "unbounded", "limit-reached"):
            return SolveResult(status, None, lower, 0)
        raise ExternalSolverError(f"missing solution file {sol}")

    imported = import_solution(model, sol.read_text())
    violated = model.first_violation(imported.values)
    if violated is not None:
        raise ExternalSolverError(
            f"external solution is inconsistent (violates {violated})")
    if lower > imported.objective_value + FEAS_TOL:
        raise ExternalSolverError(
            f"external lower bound {lower:g} is not at most the"
            f" returned point's objective {imported.objective_value:g}")
    if config.on_incumbent is not None:
        config.on_incumbent(imported.values.copy(), imported.objective_value)
    status = ("optimal" if lower >= imported.objective_value - FEAS_TOL
              else "feasible")
    return SolveResult(status, imported, lower, 0)
