"""Abstract mixed-integer linear models with MPS interchange.

A model is mutable while it is being built (single writer) and immutable
once frozen; frozen models are safe to share across concurrent solves.
Coefficients are 64-bit floats with a 1e-6 feasibility and integrality
tolerance.  A model keeps its rows in compressed sparse row (CSR) buffers:
12 bytes per nonzero (a 32-bit column index and a 64-bit coefficient) and
8 bytes per row start; ``MilpModel.constraints`` builds a
``LinearConstraint`` only for a row that is read.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-6

VarKind = str  # "binary" | "integer" | "continuous"
Sense = str  # "<=" | ">=" | "="

# a row's sense is stored as its index here, one byte a row
_SENSES = ("<=", ">=", "=")
_SENSE_CODE = {sense: code for code, sense in enumerate(_SENSES)}


class MilpError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Variable:
    name: str
    kind: VarKind
    lower: float
    upper: float
    tag: tuple = ()

    def is_integer(self) -> bool:
        return self.kind in ("binary", "integer")


@dataclass(frozen=True, slots=True)
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


class _Rows(Sequence):
    """Read-only view of a model's rows, in model order; each row read is
    built as a ``LinearConstraint``.  Equal to a list, or another view,
    that holds the same rows."""

    __slots__ = ("_model",)

    def __init__(self, model: "MilpModel"):
        self._model = model

    def __len__(self) -> int:
        return len(self._model._names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        m = self._model
        if i < 0:
            i += len(m._names)
        if not 0 <= i < len(m._names):
            raise IndexError("row index out of range")
        s, e = m._starts[i], m._starts[i + 1]
        return LinearConstraint(m._names[i],
                                tuple(zip(m._coefs[s:e], m._cols[s:e])),
                                _SENSES[m._senses[i]], m._rhs[i],
                                m._origins[i])

    def __eq__(self, other):
        if isinstance(other, (_Rows, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{len(self)} rows of model {self._model.name!r}>"


class MilpModel:
    def __init__(self, name: str):
        self.name = name
        self.variables: list[Variable] = []
        self.objective_terms: tuple[tuple[float, int], ...] = ()
        self.objective_constant: float = 0.0
        self.metadata: dict = {}
        self._var_index: dict[str, int] = {}
        self._tag_index: dict[tuple, int] = {}
        self._con_names: set[str] = set()
        # row i's terms are (_coefs[k], _cols[k]) for k in
        # range(_starts[i], _starts[i + 1]), in the order first named
        self._starts = array("q", [0])
        self._cols = array("i")
        self._coefs = array("d")
        self._names: list[str] = []
        self._senses = bytearray()  # indices into _SENSES
        self._rhs = array("d")
        self._origins: list[str] = []
        self._frozen = False

    @property
    def constraints(self) -> _Rows:
        return _Rows(self)

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

    def _merge(self, terms, row: str) -> dict[int, float]:
        """Coefficients by variable index, in the order first named; a
        non-finite coefficient names ``row``."""
        merged: dict[int, float] = {}
        for coef, ref in terms:
            idx = ref if isinstance(ref, int) else self.var(ref)
            if not 0 <= idx < len(self.variables):
                raise MilpError(f"variable index {idx} out of range")
            coef = float(coef)
            if not math.isfinite(coef):
                raise MilpError(f"{row}: coefficient {coef} is not finite")
            merged[idx] = merged.get(idx, 0.0) + coef
        return merged

    def add_constraint(self, name: str, terms, sense: Sense, rhs: float,
                       origin: str = "") -> int:
        self._check_mutable()
        if name in self._con_names:
            raise MilpError(f"duplicate constraint name {name!r}")
        if sense not in _SENSE_CODE:
            raise MilpError(f"unknown constraint sense {sense!r}")
        merged, rhs = self._merge(terms, f"row {name!r}"), float(rhs)
        if not math.isfinite(rhs):
            raise MilpError(
                f"row {name!r}: right-hand side {rhs} is not finite")
        idx = len(self._names)
        self._cols.extend(merged)
        self._coefs.extend(merged.values())
        self._starts.append(len(self._cols))
        self._names.append(name)
        self._senses.append(_SENSE_CODE[sense])
        self._rhs.append(rhs)
        self._origins.append(origin)
        self._con_names.add(name)
        return idx

    def set_objective(self, terms, constant: float = 0.0) -> None:
        self._check_mutable()
        merged = self._merge(terms, "objective")
        constant = float(constant)
        if not math.isfinite(constant):
            raise MilpError(f"objective: constant {constant} is not finite")
        self.objective_terms = tuple((coef, idx)
                                     for idx, coef in merged.items())
        self.objective_constant = constant

    def freeze(self) -> "MilpModel":
        self._frozen = True
        return self

    def copy(self, name: str | None = None) -> "MilpModel":
        """Mutable copy (restriction builders extend copies of frozen models)."""
        out = MilpModel(name or self.name)
        out.variables = list(self.variables)
        out.objective_terms = self.objective_terms
        out.objective_constant = self.objective_constant
        out.metadata = dict(self.metadata)
        out._var_index = dict(self._var_index)
        out._tag_index = dict(self._tag_index)
        out._con_names = set(self._con_names)
        for buffer in ("_starts", "_cols", "_coefs", "_names", "_senses",
                       "_rhs", "_origins"):
            setattr(out, buffer, getattr(self, buffer)[:])
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
# export writes the MPS text _CHUNK_LINES lines a chunk (about 140 kB on
# build-comp's full formulation) and parse reads it _BLOCK_CHARS characters
# a block, so neither builds a list of one string per line
_CHUNK_LINES = 4096
_BLOCK_CHARS = 1 << 16
_ROW_TYPES = "LGE"  # the MPS row type of each sense code
_ROW_TO_SENSE = {row: _SENSES[code] for code, row in enumerate(_ROW_TYPES)}


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _by_column(model: MilpModel):
    """The model's nonzeros in compressed sparse column form: column
    starts, and each entry's row and coefficient, a column's rows in
    ascending order."""
    cols = np.array(model._cols)
    rows = np.repeat(np.arange(len(model._names)),
                     np.diff(np.array(model._starts)))
    order = np.argsort(cols, kind="stable")
    starts = np.zeros(len(model.variables) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=len(model.variables)),
              out=starts[1:])
    return starts.tolist(), rows[order], np.array(model._coefs)[order]


def _mps_lines(model: MilpModel):
    """Each line of the model's MPS text, insertion order throughout."""
    names = model._names
    yield f"NAME          {model.name}\n"
    yield "ROWS\n"
    yield f" N  {_OBJ_ROW}\n"
    for code, name in zip(model._senses, names):
        yield f" {_ROW_TYPES[code]}  {name}\n"

    starts, rows, coefs = _by_column(model)
    # each distinct coefficient is formatted once; a model has few
    values, which = np.unique(coefs, return_inverse=True)
    texts = [_num(v) for v in values.tolist()]
    obj_coef = {idx: coef for coef, idx in model.objective_terms}
    yield "COLUMNS\n"
    in_int = False
    marker = 0
    for i, v in enumerate(model.variables):
        if v.is_integer() != in_int:
            state = "INTORG" if v.is_integer() else "INTEND"
            yield f"    MARKER{marker}    'MARKER'    '{state}'\n"
            marker += 1
            in_int = v.is_integer()
        head = f"    {v.name}  "
        yield f"{head}{_OBJ_ROW}  {_num(obj_coef.get(i, 0.0))}\n"
        s, e = starts[i], starts[i + 1]
        for r, k in zip(rows[s:e].tolist(), which[s:e].tolist()):
            yield f"{head}{names[r]}  {texts[k]}\n"
    if in_int:
        yield f"    MARKER{marker}    'MARKER'    'INTEND'\n"

    yield "RHS\n"
    if model.objective_constant != 0.0:
        yield f"    RHS  {_OBJ_ROW}  {_num(-model.objective_constant)}\n"
    for name, rhs in zip(names, model._rhs):
        if rhs != 0.0:
            yield f"    RHS  {name}  {_num(rhs)}\n"

    yield "BOUNDS\n"
    for v in model.variables:
        if v.lower == -math.inf and v.upper == math.inf:
            yield f" FR BND  {v.name}\n"
            continue
        if v.lower == -math.inf:
            yield f" MI BND  {v.name}\n"
        elif v.lower != 0.0 or v.is_integer():
            yield f" LO BND  {v.name}  {_num(v.lower)}\n"
        if v.upper != math.inf:
            yield f" UP BND  {v.name}  {_num(v.upper)}\n"
    yield "ENDATA\n"


def mps_chunks(model: MilpModel):
    """The text of ``export_mps`` in chunks of ``_CHUNK_LINES`` lines, so
    that ``writelines`` puts it in a file without ever holding it whole."""
    batch = []
    for line in _mps_lines(model):
        batch.append(line)
        if len(batch) == _CHUNK_LINES:
            yield "".join(batch)
            batch = []
    yield "".join(batch)


def export_mps(model: MilpModel) -> str:
    """Deterministic fixed-section MPS text, insertion order throughout."""
    return "".join(mps_chunks(model))


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


def _lines(text: str):
    """The lines of ``text`` as ``str.splitlines`` gives them, split a
    block of about ``_BLOCK_CHARS`` characters at a time, so that no list of
    every line is built."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _BLOCK_CHARS)
        if stop < 0:
            stop = len(text)
        yield from text[start:stop].splitlines()
        start = stop + 1


def parse_mps(text: str) -> MilpModel:
    """Inverse of export_mps for the subset it emits (tags are not carried).

    The first N row is the objective, whatever its name; later N rows are
    free rows and are dropped.  Any other section (OBJSENSE, RANGES, ...),
    an unknown row type, a row declared twice, an entry on an undeclared
    row or column, a line short of a name or value, a non-numeric or NaN
    value, an infinite coefficient or right-hand side and a text that ends
    before ENDATA (a truncated or empty file) raise MilpError, never change
    the model.
    """
    model = MilpModel("mps")
    section = None
    row_ids: dict[str, int] = {}  # every row named, declared or not
    row_types: list[str | None] = []  # by row id; None if undeclared
    row_order: list[int] = []  # the declared rows other than N rows
    objective = -1  # the id of the first N row
    col_ids: dict[str, int] = {}
    col_kind: list[str] = []
    # the COLUMNS entries in the order read, one (row, column, value) each
    entry_row, entry_col, entry_value = array("i"), array("i"), array("d")
    rhs: dict[int, float] = {}
    bounds: dict[str, list[float]] = {}
    in_int = False

    for raw in _lines(text):
        fields = raw.split()
        if not fields or raw[0] == "*":
            continue
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
            rid = row_ids.setdefault(name, len(row_types))
            if rid == len(row_types):
                row_types.append(None)
            elif row_types[rid] is not None:
                raise MilpError(f"MPS row {name!r} declared twice")
            row_types[rid] = sense
            if sense != "N":
                row_order.append(rid)
            elif objective < 0:
                objective = rid
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1] == "'MARKER'":
                in_int = fields[2] == "'INTORG'"
                continue
            col = col_ids.get(head)
            if col is None:
                col = col_ids[head] = len(col_kind)
                col_kind.append("integer" if in_int else "continuous")
            for row, coef in _pairs(fields, raw):
                rid = row_ids.get(row)
                if rid is None:
                    rid = row_ids[row] = len(row_types)
                    row_types.append(None)
                entry_row.append(rid)
                entry_col.append(col)
                entry_value.append(_number(coef, raw))
        elif section == "RHS":
            for row, value in _pairs(fields, raw):
                rid = row_ids.get(row)
                if rid is None or row_types[rid] is None:
                    raise MilpError(f"MPS entry on undeclared row {row!r}")
                rhs[rid] = _number(value, raw)
        elif section == "BOUNDS":
            btype = fields[0]
            if len(fields) < (4 if btype in ("LO", "UP", "FX") else 3):
                raise MilpError(f"MPS {btype} bound without a column "
                                f"or value: {raw!r}")
            name = fields[2]
            if name not in col_ids:
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

    for name, kind in zip(col_ids, col_kind):
        lo, hi = bounds.get(name, [0.0, math.inf])
        if kind == "integer" and lo == 0.0 and hi == 1.0:
            kind = "binary"
        model.add_variable(name, kind, lo, hi)

    # the entries column by column, each column's in the order read, as
    # they were written; then each row's terms follow its columns
    rows, cols = np.array(entry_row), np.array(entry_col)
    values = np.array(entry_value)
    by_col = np.argsort(cols, kind="stable")
    row_names = list(row_ids)
    undeclared = np.array([t is None for t in row_types], dtype=bool)
    if undeclared[rows].any():
        first = by_col[undeclared[rows[by_col]]][0]
        raise MilpError(
            f"MPS entry on undeclared row {row_names[rows[first]]!r}")
    on_objective = by_col[(rows[by_col] == objective)
                          & (values[by_col] != 0.0)]
    obj_terms = zip(values[on_objective].tolist(),
                    cols[on_objective].tolist())
    by_row = np.lexsort((cols, rows))
    rows, cols, values = rows[by_row], cols[by_row], values[by_row]
    row_starts = np.searchsorted(rows, np.arange(len(row_ids) + 1)).tolist()
    for rid in row_order:
        s, e = row_starts[rid], row_starts[rid + 1]
        model.add_constraint(row_names[rid],
                             zip(values[s:e].tolist(), cols[s:e].tolist()),
                             _ROW_TO_SENSE[row_types[rid]], rhs.get(rid, 0.0))
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
