import math
import random
import re

import numpy as np
import pytest

from cttsolve.formulations import build_monolithic
from cttsolve.milp import (LinearConstraint, MilpError, MilpModel, export_mps,
                           format_values, import_solution, parse_mps)
from cttsolve.solver import _Arrays, linprog
from oracles import oracle_lp_model


def simple_model():
    model = MilpModel("simple")
    model.add_variable("x", "binary")
    model.add_variable("y", "binary")
    model.add_constraint("cover", [(1.0, "x"), (1.0, "y")], ">=", 1.0,
                         origin="test")
    model.set_objective([(1.0, "x"), (2.0, "y")])
    return model


def random_model(rng, n_vars=6, n_cons=5):
    model = MilpModel(f"rand{rng.randint(0, 10 ** 6)}")
    for i in range(n_vars):
        kind = rng.choice(["binary", "integer", "continuous"])
        upper = 1.0 if kind == "binary" else float(rng.randint(1, 5))
        model.add_variable(f"v{i}", kind, 0.0, upper)
    for j in range(n_cons):
        terms = [(float(rng.randint(-3, 3)), f"v{i}")
                 for i in rng.sample(range(n_vars), rng.randint(1, n_vars))]
        sense = rng.choice(["<=", ">=", "="])
        rhs = float(rng.randint(0, 6))
        model.add_constraint(f"con{j}", terms, sense, rhs)
    model.set_objective([(float(rng.randint(-4, 4)), f"v{i}")
                         for i in range(n_vars)],
                        constant=float(rng.randint(-3, 3)))
    return model


class TestBuilding:
    def test_add_and_count(self):
        model = simple_model()
        assert len(model.variables) == 2
        assert len(model.constraints) == 1

    def test_duplicate_variable_rejected(self):
        model = simple_model()
        with pytest.raises(MilpError):
            model.add_variable("x", "binary")

    def test_duplicate_constraint_rejected(self):
        model = simple_model()
        with pytest.raises(MilpError):
            model.add_constraint("cover", [(1.0, "x")], "<=", 1.0)

    def test_lookup_by_tag(self):
        model = simple_model()
        idx = model.add_variable("t[1,a]", "binary", tag=("t", 1, "a"))
        assert model.by_tag(("t", 1, "a")) == idx
        assert model.copy().by_tag(("t", 1, "a")) == idx
        with pytest.raises(MilpError):
            model.by_tag(("t", 2, "a"))
        with pytest.raises(MilpError):
            model.add_variable("other", "binary", tag=("t", 1, "a"))

    def test_unknown_variable_reference(self):
        model = simple_model()
        with pytest.raises(MilpError):
            model.add_constraint("bad", [(1.0, "z")], "<=", 1.0)

    def test_term_merging(self):
        model = MilpModel("m")
        model.add_variable("x", "continuous", 0, 10)
        model.add_constraint("c", [(1.0, "x"), (2.0, "x")], "<=", 6.0)
        assert model.constraints[0].terms == ((3.0, 0),)

    def test_binary_bounds(self):
        model = MilpModel("m")
        with pytest.raises(MilpError):
            model.add_variable("x", "binary", 0, 2)

    @pytest.mark.parametrize("lower, upper",
                             [(math.nan, 1.0), (0.0, math.nan)],
                             ids=["lower-nan", "upper-nan"])
    def test_nan_bound_rejected(self, lower, upper):
        with pytest.raises(MilpError, match="'x' has an empty domain"):
            MilpModel("m").add_variable("x", "continuous", lower, upper)

    @pytest.mark.parametrize("build, message", [
        (lambda m: m.add_constraint("c", [(1.0, "x")], "<=", math.nan),
         "row 'c': right-hand side nan is not finite"),
        (lambda m: m.add_constraint("c", [(math.nan, "x")], "<=", 1.0),
         "row 'c': coefficient nan is not finite"),
        (lambda m: m.set_objective([(math.nan, "x")]),
         "objective: coefficient nan is not finite"),
        (lambda m: m.set_objective([(1.0, "x")], constant=-math.inf),
         "objective: constant -inf is not finite"),
    ], ids=["rhs", "row-coefficient", "objective-coefficient",
            "objective-constant"])
    def test_non_finite_number_rejected(self, build, message):
        # each used to reach HiGHS, which named no row or took it silently
        model = MilpModel("m")
        model.add_variable("x", "continuous", 0.0, 1.0)
        model.set_objective([(2.0, "x")], constant=1.0)
        with pytest.raises(MilpError, match=re.escape(message)):
            build(model)
        assert model.constraints == []
        assert model.objective_terms == ((2.0, 0),)
        assert model.objective_constant == 1.0

    def test_frozen_model_rejects_changes(self):
        model = simple_model().freeze()
        with pytest.raises(MilpError):
            model.add_variable("z", "binary")
        copy = model.copy()
        copy.add_variable("z", "binary")  # copies are mutable again
        assert not model.has_variable("z")

    def test_first_violation(self):
        model = simple_model()
        assert model.first_violation(np.array([0.0, 0.0])) == "cover"
        assert model.first_violation(np.array([1.0, 0.0])) is None
        assert model.first_violation(np.array([0.5, 1.0])).startswith(
            "integrality:")
        assert model.first_violation(np.array([2.0, 0.0])).startswith(
            "bound:")

    def test_point_length_checked(self):
        model = simple_model()
        with pytest.raises(MilpError):
            model.first_violation(np.array([1.0]))
        with pytest.raises(MilpError):
            model.objective_value(np.array([1.0, 0.0, 0.0]))

    def test_origin_tags(self):
        assert {c.origin for c in simple_model().constraints} == {"test"}


# a model's row store, in the order MilpModel keeps it
ROW_BUFFERS = ("_starts", "_cols", "_coefs", "_names", "_senses", "_rhs",
               "_origins")


def row_buffers(model):
    return [getattr(model, name)[:] for name in ROW_BUFFERS]


class TestRowStore:
    """Rows live in CSR buffers; ``constraints`` is a read-only view that
    builds each row it reads."""

    ROWS = [LinearConstraint("a", ((1.0, 0), (2.0, 1)), "<=", 3.0, "o"),
            LinearConstraint("b", ((-1.0, 2),), ">=", -2.0),
            LinearConstraint("c", ((1.0, 2), (1.0, 0), (4.0, 1)), "=", 1.0)]

    @staticmethod
    def rows_model():
        model = MilpModel("rows")
        for name in "xyz":
            model.add_variable(name, "integer", 0, 3)
        model.add_constraint("a", [(1.0, "x"), (2.0, "y")], "<=", 3,
                             origin="o")
        model.add_constraint("b", [(-1.0, "z")], ">=", -2)
        model.add_constraint("c", [(1.0, "z"), (1.0, "x"), (4.0, "y")], "=",
                             1)
        return model

    def test_view(self):
        rows = self.rows_model().constraints
        expected = self.ROWS
        assert len(rows) == 3
        assert rows[-1] == expected[2] and rows[-3] == expected[0]
        assert rows[1:] == expected[1:] and rows[::-2] == expected[::-2]
        assert list(rows) == [row for row in rows] == expected
        assert rows == expected and expected == rows
        assert rows == self.rows_model().constraints
        assert rows != expected[:2] and rows != tuple(expected)
        for index in (3, -4):
            with pytest.raises(IndexError):
                rows[index]
        with pytest.raises(TypeError):
            rows[0] = expected[0]

    def test_row_types(self):
        # the view gives back Python floats and ints, as the rows were
        # written
        row = self.rows_model().constraints[0]
        assert [type(x) for term in row.terms for x in term] == [
            float, int, float, int]
        assert type(row.rhs) is float

    def test_copy_is_independent(self):
        source = self.rows_model().freeze()
        before = row_buffers(source)
        dive = source.copy(name="dive")
        dive.add_constraint("fix", [(1.0, "x")], "=", 1)
        assert len(source.constraints) == 3 and len(dive.constraints) == 4
        assert row_buffers(source) == before
        assert list(source.constraints) == self.ROWS
        assert dive.constraints[:3] == self.ROWS
        with pytest.raises(MilpError, match="frozen"):
            source.add_constraint("fix", [(1.0, "x")], "=", 1)

    @pytest.mark.parametrize("name, terms, sense, rhs, message", [
        ("a", [(1.0, "x")], "<=", 1.0, "duplicate constraint name"),
        ("d", [(1.0, "x")], "<>", 1.0, "unknown constraint sense"),
        ("d", [(1.0, "x"), (math.inf, "y")], "<=", 1.0, "not finite"),
        ("d", [(1.0, "x"), (1.0, 3)], "<=", 1.0, "out of range"),
        ("d", [(1.0, "x")], "<=", math.inf, "not finite"),
    ], ids=["duplicate-name", "unknown-sense", "non-finite-coefficient",
            "index-out-of-range", "non-finite-rhs"])
    def test_rejected_row_leaves_no_trace(self, name, terms, sense, rhs,
                                          message):
        model = self.rows_model()
        before = row_buffers(model)
        with pytest.raises(MilpError, match=message):
            model.add_constraint(name, terms, sense, rhs)
        assert len(model.constraints) == 3 and len(model._cols) == 6
        assert row_buffers(model) == before
        # nor is the name taken
        assert model.add_constraint("d", [(1.0, "x")], "<=", 1.0) == 3

    def test_comp_rows_take_at_most_16_bytes_a_nonzero(self, comp_instance):
        model = build_monolithic(comp_instance)
        nonzeros = sum(len(row.terms) for row in model.constraints)
        assert nonzeros == len(model._cols) > 30000
        csr = (model._starts, model._cols, model._coefs)
        assert sum(b.itemsize * len(b) for b in csr) <= 16 * nonzeros


class TestMps:
    def test_single_variable_model(self):
        model = MilpModel("one")
        model.add_variable("x", "continuous", 0, 5)
        model.set_objective([(1.0, "x")])
        text = export_mps(model)
        assert "COLUMNS" in text
        assert "x  COST  1" in text

    def test_binary_markers(self):
        text = export_mps(simple_model())
        assert "'INTORG'" in text
        assert "'INTEND'" in text
        assert " UP BND  x  1" in text

    def test_deterministic_export(self):
        assert export_mps(simple_model()) == export_mps(simple_model())

    def test_round_trip_preserves_structure(self):
        model = simple_model()
        back = parse_mps(export_mps(model))
        assert [v.name for v in back.variables] == ["x", "y"]
        assert back.variables[0].kind == "binary"
        assert back.constraints[0].sense == ">="
        assert back.constraints[0].rhs == 1.0

    def test_round_trip_lp_optimum(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(30):
            model = random_model(rng)
            arrays1 = _Arrays(model)
            arrays2 = _Arrays(parse_mps(export_mps(model)))
            status1, value1, _ = linprog(arrays1, arrays1.lo, arrays1.hi)
            status2, value2, _ = linprog(arrays2, arrays2.lo, arrays2.hi)
            assert status1 == status2
            if status1 == "optimal":
                assert value1 == pytest.approx(value2, abs=1e-6)
                checked += 1
        assert checked >= 5

    def test_objective_constant_survives(self):
        model = MilpModel("const")
        model.add_variable("x", "continuous", 0, 1)
        model.set_objective([(1.0, "x")], constant=-3.0)
        back = parse_mps(export_mps(model))
        assert back.objective_constant == -3.0

    def test_objective_row_of_any_name(self):
        text = export_mps(simple_model()).replace("COST", "OBJ")
        back = parse_mps(text)
        assert back.objective_terms == simple_model().objective_terms
        assert export_mps(back) == export_mps(simple_model())

    def test_first_n_row_is_the_objective(self):
        text = export_mps(simple_model())
        text = text.replace(" N  COST\n", " N  COST\n N  SPARE\n")
        text = text.replace("    x  COST  1\n", "    x  COST  1  SPARE  7\n")
        back = parse_mps(text)
        assert back.objective_terms == simple_model().objective_terms
        assert [c.name for c in back.constraints] == ["cover"]

    def test_round_trip_is_byte_identical(self):
        rng = random.Random(11)
        for _ in range(10):
            text = export_mps(random_model(rng))
            assert export_mps(parse_mps(text)) == text

    @pytest.mark.parametrize("section", ["OBJSENSE\n    MAX",
                                         "RANGES\n    RNG  cover  2"],
                             ids=["objsense-max", "ranges"])
    def test_unsupported_section_rejected(self, section):
        text = export_mps(simple_model()).replace(
            "BOUNDS\n", f"{section}\nBOUNDS\n")
        with pytest.raises(MilpError, match="unsupported MPS section"):
            parse_mps(text)

    @pytest.mark.parametrize("again", [" G  cover\n", " N  cover\n"],
                             ids=["same-type", "free-row"])
    def test_row_declared_twice_rejected(self, again):
        text = export_mps(simple_model()).replace(" G  cover\n",
                                                  " G  cover\n" + again)
        with pytest.raises(MilpError, match="row 'cover' declared twice"):
            parse_mps(text)

    def test_long_text_parsed_in_blocks(self):
        # the lines are split a block at a time; a long model, with a CR
        # before each LF, reads back as written
        model = MilpModel("long")
        for i in range(3000):
            model.add_variable(f"x{i}", "integer", 0, i % 7 + 1)
            model.add_constraint(f"c{i}", [(1.0, i), (-2.0, i // 2)], "<=",
                                 i % 5)
        model.set_objective([(1.0, i) for i in range(3000)])
        text = export_mps(model)
        assert len(text) > 3 * (1 << 16)
        assert export_mps(parse_mps(text)) == text
        assert export_mps(parse_mps(text.replace("\n", "\r\n"))) == text

    def test_unknown_row_type_rejected(self):
        text = export_mps(simple_model()).replace(" G  cover", " X  cover")
        with pytest.raises(MilpError, match="row type"):
            parse_mps(text)

    @pytest.mark.parametrize("old, new", [
        ("    y  cover  1\n", "    y  cover  1  other  1\n"),
        ("    RHS  cover  1\n", "    RHS  other  1\n"),
    ], ids=["columns", "rhs"])
    def test_entry_on_undeclared_row_rejected(self, old, new):
        text = export_mps(simple_model())
        assert old in text
        with pytest.raises(MilpError, match="undeclared row 'other'"):
            parse_mps(text.replace(old, new))

    def test_bound_on_undeclared_column_rejected(self):
        text = export_mps(simple_model()).replace(" UP BND  y  1",
                                                  " UP BND  z  1")
        with pytest.raises(MilpError, match="undeclared column 'z'"):
            parse_mps(text)

    @pytest.mark.parametrize("old, new", [
        (" G  cover\n", " G\n"),
        ("    y  cover  1\n", "    y  cover\n"),
        ("    RHS  cover  1\n", "    RHS  cover\n"),
        (" LO BND  x  0\n", " LO BND  x\n"),
        (" UP BND  x  1\n", " UP BND  x\n"),
        (" UP BND  y  1\n", " FX BND  y\n"),
        (" UP BND  y  1\n", " UP BND\n"),
        ("    y  cover  1\n", None),
        ("NAME", None),
    ], ids=["rows-no-name", "columns-no-value", "rhs-no-value",
            "lo-no-value", "up-no-value", "fx-no-value", "bound-no-column",
            "truncated-in-columns", "empty"])
    def test_short_line_rejected(self, old, new):
        # new None cuts the text just before old
        text = export_mps(simple_model())
        assert old in text
        short = (text.replace(old, new) if new is not None
                 else text[:text.index(old)])
        with pytest.raises(MilpError, match="MPS .*without"):
            parse_mps(short)

    @pytest.mark.parametrize("old, new", [
        ("    y  cover  1\n", "    y  cover  nan\n"),
        ("    y  cover  1\n", "    y  cover  -inf\n"),
        ("    RHS  cover  1\n", "    RHS  cover  nan\n"),
        ("    RHS  cover  1\n", "    RHS  cover  inf\n"),
        (" LO BND  x  0\n", " LO BND  x  nan\n"),
        (" UP BND  x  1\n", " UP BND  x  nan\n"),
    ], ids=["coef-nan", "coef-inf", "rhs-nan", "rhs-inf", "lo-nan",
            "up-nan"])
    def test_non_finite_value_rejected(self, old, new):
        text = export_mps(simple_model())
        assert old in text
        with pytest.raises(MilpError, match="not finite"):
            parse_mps(text.replace(old, new))

    @pytest.mark.parametrize("old, new", [
        ("    y  cover  1\n", "    y  cover  abc\n"),
        ("    RHS  cover  1\n", "    RHS  cover  abc\n"),
        (" UP BND  x  1\n", " UP BND  x  abc\n"),
    ], ids=["coef", "rhs", "bound"])
    def test_non_numeric_value_names_its_line(self, old, new):
        text = export_mps(simple_model())
        assert old in text
        with pytest.raises(MilpError, match="'abc' is not a number: "
                           + re.escape(repr(new.rstrip("\n")))):
            parse_mps(text.replace(old, new))

    @pytest.mark.parametrize("bounds", [
        " LO BND  x  inf\n", " FX BND  x  inf\n", " FX BND  x  -inf\n",
        " MI BND  x\n UP BND  x  -inf\n"],
        ids=["lo-inf", "fx-inf", "fx-minus-inf", "mi-up-minus-inf"])
    def test_empty_infinite_domain_rejected(self, bounds):
        # each leaves x no finite value, which export_mps cannot write
        model = MilpModel("m")
        model.add_variable("x", "continuous", 0.0, 5.0)
        model.add_constraint("c", [(1.0, "x")], "<=", 3.0)
        model.set_objective([(1.0, "x")])
        text = export_mps(model)
        assert " UP BND  x  5\n" in text
        with pytest.raises(MilpError, match="'x' has an empty domain"):
            parse_mps(text.replace(" UP BND  x  5\n", bounds))

    def test_infinite_bound_accepted(self):
        text = export_mps(simple_model()).replace(" UP BND  x  1\n", "")
        text = text.replace(" LO BND  x  0\n", " LO BND  x  -inf\n")
        x = parse_mps(text).variables[0]
        assert (x.lower, x.upper) == (-math.inf, math.inf)

    def test_lp_against_naive_simplex(self):
        rng = random.Random(5)
        for _ in range(25):
            model = random_model(rng)
            status, value = oracle_lp_model(model)
            arrays = _Arrays(model)
            lp_status, lp_value, _ = linprog(arrays, arrays.lo, arrays.hi)
            assert lp_status == status
            if status == "optimal":
                assert lp_value == pytest.approx(value, abs=1e-6)


class TestImportSolution:
    def test_infeasible_point(self):
        model = simple_model()
        result = import_solution(model, "x 0\ny 0\n")
        assert model.first_violation(result.values) == "cover"

    def test_feasible_point(self):
        model = simple_model()
        result = import_solution(model, "x 1\ny 0\n")
        assert model.first_violation(result.values) is None
        assert result.objective_value == 1.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    def test_non_finite_value_infeasible(self, kind, value):
        model = MilpModel("m")
        model.add_variable("x", kind, -math.inf, math.inf)
        result = import_solution(model, f"x {value}\n")
        assert model.first_violation(result.values) == "bound:x"

    def test_unknown_variable(self):
        with pytest.raises(MilpError):
            import_solution(simple_model(), "z 1\n")

    def test_malformed_value_names_line(self):
        with pytest.raises(MilpError, match="line 2: bad value 'abc'"):
            import_solution(simple_model(), "x 1\ny abc\n")

    def test_missing_names_default_zero(self):
        model = simple_model()
        result = import_solution(model, "y 1\n")
        assert result.values[model.var("x")] == 0.0
        assert model.first_violation(result.values) is None

    def test_format_round_trip(self):
        model = simple_model()
        values = np.array([1.0, 0.0])
        again = import_solution(model, format_values(model, values))
        assert np.array_equal(again.values, values)
