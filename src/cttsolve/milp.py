"""Abstract mixed-integer linear models with MPS interchange.

A model is mutable while it is being built (single writer) and immutable
once frozen; frozen models are safe to share across concurrent solves.
Coefficients are 64-bit floats with a 1e-6 feasibility and integrality
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-6

VarKind = str  # "binary" | "integer" | "continuous"
Sense = str  # "<=" | ">=" | "="


class MilpError(Exception):
    pass


@dataclass(frozen=True)
class Variable:
    name: str
    kind: VarKind
    lower: float
    upper: float
    tag: tuple = ()

    def is_integer(self) -> bool:
        return self.kind in ("binary", "integer")


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    terms: tuple[tuple[float, int], ...]  # (coefficient, variable index)
    sense: Sense
    rhs: float
    origin: str = ""


@dataclass(frozen=True, eq=False)
class MilpSolution:
    values: np.ndarray  # one entry per model variable, in model order
    objective_value: float


class MilpModel:
    def __init__(self, name: str):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[LinearConstraint] = []
        self.objective_terms: tuple[tuple[float, int], ...] = ()
        self.objective_constant: float = 0.0
        self.metadata: dict = {}
        self._var_index: dict[str, int] = {}
        self._tag_index: dict[tuple, int] = {}
        self._con_index: dict[str, int] = {}
        self._frozen = False

    # -- building ---------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise MilpError(f"model {self.name!r} is frozen")

    def add_variable(self, name: str, kind: VarKind = "continuous",
                     lower: float = 0.0, upper: float = math.inf,
                     tag: tuple = ()) -> int:
        self._check_mutable()
        if name in self._var_index:
            raise MilpError(f"duplicate variable name {name!r}")
        if tag and tag in self._tag_index:
            raise MilpError(f"duplicate variable tag {tag!r}")
        if kind not in ("binary", "integer", "continuous"):
            raise MilpError(f"unknown variable kind {kind!r}")
        if kind == "binary":
            if upper == math.inf:
                upper = 1.0
            if lower < 0 or upper > 1:
                raise MilpError(f"binary variable {name!r} must lie in [0, 1]")
        if not lower <= upper or lower == math.inf or upper == -math.inf:
            raise MilpError(f"variable {name!r} has an empty domain")
        idx = len(self.variables)
        self.variables.append(Variable(name, kind, lower, upper, tag))
        self._var_index[name] = idx
        if tag:
            self._tag_index[tag] = idx
        return idx

    def var(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise MilpError(f"unknown variable {name!r}")

    def by_tag(self, tag: tuple) -> int:
        """Index of the variable carrying the (non-empty) tag."""
        try:
            return self._tag_index[tag]
        except KeyError:
            raise MilpError(f"unknown variable tag {tag!r}")

    def has_variable(self, name: str) -> bool:
        return name in self._var_index

    def _resolve_terms(self, terms, row: str) -> tuple[tuple[float, int], ...]:
        """Terms merged by variable; a non-finite coefficient names ``row``."""
        merged: dict[int, float] = {}
        for coef, ref in terms:
            idx = ref if isinstance(ref, int) else self.var(ref)
            if not 0 <= idx < len(self.variables):
                raise MilpError(f"variable index {idx} out of range")
            coef = float(coef)
            if not math.isfinite(coef):
                raise MilpError(f"{row}: coefficient {coef} is not finite")
            merged[idx] = merged.get(idx, 0.0) + coef
        return tuple((coef, idx) for idx, coef in merged.items())

    def add_constraint(self, name: str, terms, sense: Sense, rhs: float,
                       origin: str = "") -> int:
        self._check_mutable()
        if name in self._con_index:
            raise MilpError(f"duplicate constraint name {name!r}")
        if sense not in ("<=", ">=", "="):
            raise MilpError(f"unknown constraint sense {sense!r}")
        terms, rhs = self._resolve_terms(terms, f"row {name!r}"), float(rhs)
        if not math.isfinite(rhs):
            raise MilpError(
                f"row {name!r}: right-hand side {rhs} is not finite")
        idx = len(self.constraints)
        self.constraints.append(LinearConstraint(name, terms, sense, rhs,
                                                 origin))
        self._con_index[name] = idx
        return idx

    def set_objective(self, terms, constant: float = 0.0) -> None:
        self._check_mutable()
        terms = self._resolve_terms(terms, "objective")
        constant = float(constant)
        if not math.isfinite(constant):
            raise MilpError(f"objective: constant {constant} is not finite")
        self.objective_terms, self.objective_constant = terms, constant

    def freeze(self) -> "MilpModel":
        self._frozen = True
        return self

    def copy(self, name: str | None = None) -> "MilpModel":
        """Mutable copy (restriction builders extend copies of frozen models)."""
        out = MilpModel(name or self.name)
        out.variables = list(self.variables)
        out.constraints = list(self.constraints)
        out.objective_terms = self.objective_terms
        out.objective_constant = self.objective_constant
        out.metadata = dict(self.metadata)
        out._var_index = dict(self._var_index)
        out._tag_index = dict(self._tag_index)
        out._con_index = dict(self._con_index)
        return out

    # -- evaluation -------------------------------------------------------

    def _point(self, values) -> list[float]:
        """A point's entries as floats, after checking there is one per
        variable."""
        if len(values) != len(self.variables):
            raise MilpError(f"point has {len(values)} entries for"
                            f" {len(self.variables)} variables")
        return np.asarray(values, dtype=float).tolist()

    def objective_value(self, values) -> float:
        values = self._point(values)
        total = self.objective_constant
        for coef, idx in self.objective_terms:
            total += coef * values[idx]
        return total

    def first_violation(self, values) -> str | None:
        """Name of the first bound, integrality or constraint violated by
        more than FEAS_TOL, or None."""
        values = self._point(values)
        for v, x in zip(self.variables, values):
            if (not math.isfinite(x)
                    or x < v.lower - FEAS_TOL or x > v.upper + FEAS_TOL):
                return f"bound:{v.name}"
            if v.is_integer() and abs(x - round(x)) > FEAS_TOL:
                return f"integrality:{v.name}"
        for con in self.constraints:
            lhs = sum(coef * values[idx] for coef, idx in con.terms)
            if con.sense == "<=" and lhs > con.rhs + FEAS_TOL:
                return con.name
            if con.sense == ">=" and lhs < con.rhs - FEAS_TOL:
                return con.name
            if con.sense == "=" and abs(lhs - con.rhs) > FEAS_TOL:
                return con.name
        return None


# -- MPS interchange -------------------------------------------------------

_OBJ_ROW = "COST"
_SENSE_TO_ROW = {"<=": "L", ">=": "G", "=": "E"}
_ROW_TO_SENSE = {v: k for k, v in _SENSE_TO_ROW.items()}


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def export_mps(model: MilpModel) -> str:
    """Deterministic fixed-section MPS text, insertion order throughout."""
    lines = [f"NAME          {model.name}"]
    lines.append("ROWS")
    lines.append(f" N  {_OBJ_ROW}")
    for con in model.constraints:
        lines.append(f" {_SENSE_TO_ROW[con.sense]}  {con.name}")

    obj_coef = {idx: coef for coef, idx in model.objective_terms}
    by_var: dict[int, list[tuple[str, float]]] = {
        i: [] for i in range(len(model.variables))
    }
    for con in model.constraints:
        for coef, idx in con.terms:
            by_var[idx].append((con.name, coef))

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for i, v in enumerate(model.variables):
        if v.is_integer() != in_int:
            state = "INTORG" if v.is_integer() else "INTEND"
            lines.append(f"    MARKER{marker}    'MARKER'    '{state}'")
            marker += 1
            in_int = v.is_integer()
        entries = [(_OBJ_ROW, obj_coef.get(i, 0.0))] + by_var[i]
        for row, coef in entries:
            lines.append(f"    {v.name}  {row}  {_num(coef)}")
    if in_int:
        lines.append(f"    MARKER{marker}    'MARKER'    'INTEND'")

    lines.append("RHS")
    if model.objective_constant != 0.0:
        lines.append(f"    RHS  {_OBJ_ROW}  {_num(-model.objective_constant)}")
    for con in model.constraints:
        if con.rhs != 0.0:
            lines.append(f"    RHS  {con.name}  {_num(con.rhs)}")

    lines.append("BOUNDS")
    for v in model.variables:
        if v.lower == -math.inf and v.upper == math.inf:
            lines.append(f" FR BND  {v.name}")
            continue
        if v.lower == -math.inf:
            lines.append(f" MI BND  {v.name}")
        elif v.lower != 0.0 or v.is_integer():
            lines.append(f" LO BND  {v.name}  {_num(v.lower)}")
        if v.upper != math.inf:
            lines.append(f" UP BND  {v.name}  {_num(v.upper)}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


_SECTIONS = ("ROWS", "COLUMNS", "RHS", "BOUNDS")


def _pairs(fields: list[str], raw: str):
    """The (row, value) pairs after a COLUMNS or RHS line's first field."""
    pairs = fields[1:]
    if not pairs or len(pairs) % 2:
        raise MilpError(f"MPS line without whole row/value pairs: {raw!r}")
    return zip(pairs[0::2], pairs[1::2])


def _number(field: str, raw: str) -> float:
    """The value in an MPS line's field, an infinity too (the model takes
    one only as a bound); a non-number or NaN raises MilpError."""
    try:
        value = float(field)
    except ValueError:
        raise MilpError(f"MPS value {field!r} is not a number: {raw!r}")
    if math.isnan(value):
        raise MilpError(f"MPS value {field!r} is not finite: {raw!r}")
    return value


def parse_mps(text: str) -> MilpModel:
    """Inverse of export_mps for the subset it emits (tags are not carried).

    The first N row is the objective, whatever its name; later N rows are
    free rows and are dropped.  Any other section (OBJSENSE, RANGES, ...),
    an unknown row type, an entry on an undeclared row or column, a line
    short of a name or value, a non-numeric or NaN value, an infinite
    coefficient or right-hand side and a text that ends before ENDATA (a
    truncated or empty file) raise MilpError, never change the model.
    """
    model = MilpModel("mps")
    section = None
    objective = None
    row_sense: dict[str, str] = {}  # every declared row, N rows too
    row_order: list[str] = []
    col_entries: dict[str, list[tuple[str, float]]] = {}
    col_order: list[str] = []
    col_kind: dict[str, str] = {}
    rhs: dict[str, float] = {}
    bounds: dict[str, list[float]] = {}
    in_int = False

    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        fields = raw.split()
        head = fields[0]
        if raw[0] not in " \t":  # section headers start at column one
            if head == "ENDATA":
                break
            if head == "NAME":
                model.name = fields[1] if len(fields) > 1 else "mps"
            elif head in _SECTIONS:
                section = head
            else:
                raise MilpError(f"unsupported MPS section {head!r}")
            continue
        if section == "ROWS":
            if len(fields) < 2:
                raise MilpError(f"MPS row without a name: {raw!r}")
            sense, name = fields[0], fields[1]
            if sense != "N" and sense not in _ROW_TO_SENSE:
                raise MilpError(f"unknown MPS row type {sense!r} of {name!r}")
            row_sense[name] = sense
            if sense != "N":
                row_order.append(name)
            elif objective is None:
                objective = name
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1] == "'MARKER'":
                in_int = fields[2] == "'INTORG'"
                continue
            name = fields[0]
            if name not in col_entries:
                col_entries[name] = []
                col_order.append(name)
                col_kind[name] = "integer" if in_int else "continuous"
            for row, coef in _pairs(fields, raw):
                col_entries[name].append((row, _number(coef, raw)))
        elif section == "RHS":
            for row, value in _pairs(fields, raw):
                if row not in row_sense:
                    raise MilpError(f"MPS entry on undeclared row {row!r}")
                rhs[row] = _number(value, raw)
        elif section == "BOUNDS":
            btype = fields[0]
            if len(fields) < (4 if btype in ("LO", "UP", "FX") else 3):
                raise MilpError(f"MPS {btype} bound without a column "
                                f"or value: {raw!r}")
            name = fields[2]
            if name not in col_entries:
                raise MilpError(f"MPS bound on undeclared column {name!r}")
            lohi = bounds.setdefault(name, [0.0, math.inf])
            if btype == "LO":
                lohi[0] = _number(fields[3], raw)
            elif btype == "UP":
                lohi[1] = _number(fields[3], raw)
            elif btype == "MI":
                lohi[0] = -math.inf
            elif btype == "FR":
                lohi[0], lohi[1] = -math.inf, math.inf
            elif btype == "FX":
                lohi[0] = lohi[1] = _number(fields[3], raw)
            elif btype == "BV":
                lohi[0], lohi[1] = 0.0, 1.0
            else:
                raise MilpError(f"unsupported bound type {btype!r}")
        else:
            raise MilpError(f"MPS data line outside a section: {raw!r}")
    else:
        raise MilpError("MPS text ends without ENDATA")

    for name in col_order:
        lo, hi = bounds.get(name, [0.0, math.inf])
        kind = col_kind[name]
        if kind == "integer" and lo == 0.0 and hi == 1.0:
            kind = "binary"
        model.add_variable(name, kind, lo, hi)

    obj_terms: list[tuple[float, str]] = []
    row_terms: dict[str, list[tuple[float, str]]] = {r: [] for r in row_order}
    for name in col_order:
        for row, coef in col_entries[name]:
            terms = row_terms.get(row)
            if terms is not None:
                terms.append((coef, name))
            elif row not in row_sense:
                raise MilpError(f"MPS entry on undeclared row {row!r}")
            elif row == objective and coef != 0.0:
                obj_terms.append((coef, name))
    for row in row_order:
        model.add_constraint(row, row_terms[row], _ROW_TO_SENSE[row_sense[row]],
                             rhs.get(row, 0.0))
    model.set_objective(obj_terms, constant=-rhs.get(objective, 0.0))
    return model


def import_solution(model: MilpModel, text: str) -> MilpSolution:
    """Read whitespace-separated ``name value`` lines into a point of the
    model; unlisted variables default to zero.  The point is not checked
    (see ``MilpModel.first_violation``)."""
    values = np.zeros(len(model.variables))
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MilpError(f"solution line {idx}: expected 'name value'")
        name, value = fields
        if not model.has_variable(name):
            raise MilpError(f"solution line {idx}: unknown variable {name!r}")
        try:
            values[model.var(name)] = float(value)
        except ValueError:
            raise MilpError(f"solution line {idx}: bad value {value!r}")
    return MilpSolution(values, model.objective_value(values))


def format_values(model: MilpModel, values) -> str:
    """``name value`` lines for the nonzero entries of a point."""
    lines = [f"{v.name} {_num(float(x))}"
             for v, x in zip(model.variables, values) if x != 0]
    return "\n".join(lines) + "\n" if lines else ""
