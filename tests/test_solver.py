import math
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from conftest import random_tiny_instance
from cttsolve import solver
from cttsolve.formulations import (DIVE_KINDS, build_dive, build_monolithic,
                                   build_room_relaxation, build_surface,
                                   build_surface2, decode_surface)
from cttsolve.milp import MilpModel
from cttsolve.solver import (ExternalSolverError, SearchSpaceError,
                             SolveConfig, SolverError, _Arrays,
                             _most_fractional, branch_and_bound,
                             brute_force_instance, brute_force_model,
                             external_solve)


def knapsack_model():
    """max 5a+4b+3c, weight 2a+3b+4c <= 5 -> min form with optimum -9."""
    model = MilpModel("knapsack")
    for name in "abc":
        model.add_variable(name, "binary")
    model.add_constraint("weight", [(2.0, "a"), (3.0, "b"), (4.0, "c")],
                         "<=", 5.0)
    model.set_objective([(-5.0, "a"), (-4.0, "b"), (-3.0, "c")])
    return model


class TestLp:
    def test_simple_bound(self):
        model = MilpModel("m")
        model.add_variable("x", "continuous", 0, 1)
        model.add_constraint("c", [(1.0, "x")], ">=", 0.5)
        model.set_objective([(1.0, "x")])
        arrays = _Arrays(model)
        status, value, x = solver.linprog(arrays, arrays.lo, arrays.hi)
        assert status == "optimal"
        assert value == pytest.approx(0.5)
        assert x == pytest.approx([0.5])

    def test_infeasible(self):
        model = MilpModel("m")
        model.add_variable("x", "continuous", 0, 1)
        model.add_constraint("hi", [(1.0, "x")], ">=", 1.0)
        model.add_constraint("lo", [(1.0, "x")], "<=", 0.0)
        arrays = _Arrays(model)
        assert solver.linprog(arrays, arrays.lo, arrays.hi)[0] == "infeasible"

    def test_unbounded(self):
        model = MilpModel("m")
        model.add_variable("x", "continuous", 0, math.inf)
        model.set_objective([(-1.0, "x")])
        arrays = _Arrays(model)
        assert solver.linprog(arrays, arrays.lo, arrays.hi)[0] == "unbounded"

    def test_relaxation_bounds_milp(self):
        model = knapsack_model()
        arrays = _Arrays(model)
        _, value, _ = solver.linprog(arrays, arrays.lo, arrays.hi)
        milp = branch_and_bound(model)
        assert value <= milp.incumbent.objective_value + 1e-9

    @pytest.mark.parametrize("sense, rhs, status", [
        ("<=", 0.0, "optimal"), ("=", 0.0, "optimal"), (">=", -1.0, "optimal"),
        ("<=", -1.0, "infeasible"), ("=", 1.0, "infeasible"),
        (">=", 1.0, "infeasible")])
    def test_model_without_columns(self, sense, rhs, status):
        # every row reads 0, which HiGHS would call an "Empty" model
        model = MilpModel("m")
        model.add_constraint("c", [], sense, rhs)
        model.set_objective([], constant=3.0)
        arrays = _Arrays(model)
        result = solver.linprog(arrays, arrays.lo, arrays.hi)
        assert result[0] == status
        assert result[1] == (3.0 if status == "optimal" else math.inf)

    def test_crossed_column_bounds_are_infeasible(self):
        arrays = _Arrays(knapsack_model())
        lo, hi = arrays.lo.copy(), arrays.hi.copy()
        lo[1], hi[1] = 1.0, 0.0
        assert solver.linprog(arrays, lo, hi)[0] == "infeasible"

    @pytest.mark.parametrize("status", ["kSolveError",
                                        "kUnboundedOrInfeasible"])
    def test_other_highs_status_raises(self, monkeypatch, status):
        class FakeHighs(solver._Highs):
            fake = True

            def getModelStatus(self):
                if self.fake:
                    return getattr(solver.HighsModelStatus, status)
                return super().getModelStatus()

        monkeypatch.setattr(solver, "_Highs", FakeHighs)
        arrays = _Arrays(knapsack_model())
        with pytest.raises(SolverError, match="status"):
            solver.linprog(arrays, arrays.lo, arrays.hi)
        # also on a later LP, after an optimal one on the same instance
        arrays = _Arrays(knapsack_model())
        FakeHighs.fake = False
        assert solver.linprog(arrays, arrays.lo, arrays.hi)[0] == "optimal"
        FakeHighs.fake = True
        with pytest.raises(SolverError, match="status"):
            solver.linprog(arrays, arrays.lo, arrays.hi)

    def test_rejected_model_raises(self):
        # the MILP layer takes any finite coefficient; HiGHS refuses one
        # this large
        model = MilpModel("m")
        model.add_variable("x", "continuous", 0.0, 1.0)
        model.add_constraint("c", [(1e16, "x")], "<=", 1.0)
        with pytest.raises(SolverError, match="rejected"):
            _Arrays(model)

    def test_rejected_bounds_on_a_later_lp_raise(self):
        arrays = _Arrays(knapsack_model())
        lo = arrays.lo.copy()
        lo[0] = math.nan
        with pytest.raises(SolverError, match="rejected"):
            solver.linprog(arrays, lo, arrays.hi)
        assert solver.linprog(arrays, arrays.lo, arrays.hi)[0] == "optimal"
        with pytest.raises(SolverError, match="rejected"):
            solver.linprog(arrays, lo, arrays.hi)

    def test_optimal_point_violating_a_row_raises(self, monkeypatch):
        # x >= 0.5 is held as -x <= -0.5; the faked point x = 0.4 breaks it
        class FakeHighs(solver._Highs):
            def getSolution(self):
                return SimpleNamespace(col_value=[0.4], row_value=[-0.4])

        model = MilpModel("m")
        model.add_variable("x", "continuous", 0, 1)
        model.add_constraint("c", [(1.0, "x")], ">=", 0.5)
        model.set_objective([(1.0, "x")])
        arrays = _Arrays(model)
        assert solver.linprog(arrays, arrays.lo, arrays.hi)[0] == "optimal"
        monkeypatch.setattr(solver, "_Highs", FakeHighs)
        arrays = _Arrays(model)
        with pytest.raises(SolverError, match="outside"):
            solver.linprog(arrays, arrays.lo, arrays.hi)


def cross_check_models(instance):
    rng = random.Random(29)
    yield build_monolithic(instance)
    yield build_surface2(instance)
    for _ in range(3):
        yield build_monolithic(random_tiny_instance(rng))


def linprog_arrays(model):
    """The model's objective and constraint rows as scipy.optimize.linprog
    takes them, assembled here rather than by the solver, so that an error
    in the solver's assembly shows as a disagreement."""
    n = len(model.variables)
    c = np.zeros(n)
    for coef, idx in model.objective_terms:
        c[idx] += coef
    ub, eq = ([], [], [], []), ([], [], [], [])
    for con in model.constraints:
        data, rows, cols, rhs = eq if con.sense == "=" else ub
        sign = -1.0 if con.sense == ">=" else 1.0
        for coef, idx in con.terms:
            data.append(sign * coef)
            rows.append(len(rhs))
            cols.append(idx)
        rhs.append(sign * con.rhs)

    def matrix(data, rows, cols, rhs):
        return (sparse.coo_array((data, (rows, cols)), shape=(len(rhs), n)),
                np.array(rhs, dtype=float))

    A_ub, b_ub = matrix(*ub)
    A_eq, b_eq = matrix(*eq)
    return dict(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)


class TestPublicLinprogCrossCheck:
    """Every node LP of a search must agree with scipy.optimize.linprog;
    this guards the private HiGHS bindings the solver uses.  A search's
    first LP is solved cold, as linprog solves each LP, so it must match
    bit for bit.  Later LPs start from the basis the one before left and
    may end at another optimal vertex, so they must match in status and in
    value to 1e-9 relative."""

    def test_node_lps_match_linprog(self, monkeypatch, toy_instance):
        nodes = []
        real = solver.linprog

        def record(arrays, lo, hi):
            status, value, x = real(arrays, lo, hi)
            # the search rounds an integral point in place
            point = None if x is None else x.copy()
            # ``model`` is the one the loop below is searching
            nodes.append((model, arrays, lo.copy(), hi.copy(), status, value,
                          point))
            return status, value, x

        monkeypatch.setattr(solver, "linprog", record)
        searched = 0
        for model in cross_check_models(toy_instance):
            branch_and_bound(model, SolveConfig(node_limit=200))
            searched += 1
        monkeypatch.undo()
        assert searched == 5 and len(nodes) > searched

        statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
        roots = 0
        previous = None
        for model, arrays, lo, hi, status, value, x in nodes:
            root = arrays is not previous
            if root:
                lp = linprog_arrays(model)
            previous = arrays
            roots += root
            res = scipy.optimize.linprog(
                **lp, bounds=np.column_stack([lo, hi]), method="highs")
            assert status == statuses[res.status]
            if status != "optimal":
                continue
            expected = res.fun + model.objective_constant
            if root:
                assert value == expected
                assert np.array_equal(x, res.x)
            else:
                assert abs(value - expected) <= 1e-9 * max(1.0, abs(value))
        assert roots == searched


class TestAssembly:
    """``_Arrays`` hands HiGHS the rows row-wise; the column-wise matrix
    HiGHS keeps must be the one ``scipy.sparse.csc_array`` gives the rows
    linprog takes, less explicit zeros, which HiGHS drops from both, or the
    LPs, and with them every search, would change."""

    @staticmethod
    def assert_csc_layout(model):
        rows = linprog_arrays(model)
        expected = sparse.csc_array(sparse.vstack((rows["A_ub"],
                                                   rows["A_eq"])))
        expected.eliminate_zeros()
        matrix = _Arrays(model).highs.getLp().a_matrix_
        assert matrix.format_ == solver.MatrixFormat.kColwise
        assert np.array_equal(matrix.start_, expected.indptr)
        assert np.array_equal(matrix.index_, expected.indices)
        # bytes, so a -0.0 for a 0.0 shows too
        assert (np.array(matrix.value_, dtype=float).tobytes()
                == expected.data.tobytes())
        return matrix

    def test_tiny_corpus_models(self):
        rng = random.Random(23)
        dives = 0
        for _ in range(6):
            instance = random_tiny_instance(rng)
            surface = build_surface(instance)
            mono = build_monolithic(instance).freeze()
            for model in (surface, mono, build_surface2(instance),
                          build_room_relaxation(instance)):
                self.assert_csc_layout(model)
            result = branch_and_bound(surface.freeze())
            if result.incumbent is None:
                continue
            basis = decode_surface(surface, result.incumbent.values)
            for kind in DIVE_KINDS:
                self.assert_csc_layout(build_dive(mono, kind, basis))
                dives += 1
        assert dives > 0

    def test_explicit_zeros_dropped(self):
        model = MilpModel("zeros")
        for name in "xyz":
            model.add_variable(name, "integer", 0, 3)
        model.add_constraint("le", [(0.0, "x"), (1.0, "y")], "<=", 2)
        model.add_constraint("eq", [(0.0, "y"), (1.0, "z")], "=", 1)
        model.add_constraint("ge", [(2.0, "z"), (0.0, "x")], ">=", 1)
        assert sum(len(con.terms) for con in model.constraints) == 6
        matrix = self.assert_csc_layout(model)
        assert len(matrix.value_) == 3 and 0.0 not in matrix.value_


class TestBranchAndBound:
    def test_cover(self):
        model = MilpModel("cover")
        model.add_variable("x", "binary")
        model.add_variable("y", "binary")
        model.add_constraint("c", [(1.0, "x"), (1.0, "y")], ">=", 1.0)
        model.set_objective([(1.0, "x"), (1.0, "y")])
        result = branch_and_bound(model)
        assert result.status == "optimal"
        assert result.incumbent.objective_value == pytest.approx(1.0)

    def test_knapsack(self):
        result = branch_and_bound(knapsack_model())
        assert result.status == "optimal"
        assert result.incumbent.objective_value == pytest.approx(-9.0)

    def test_matches_model_brute_force(self):
        rng = random.Random(17)
        for _ in range(20):
            model = MilpModel("rnd")
            n = rng.randint(2, 5)
            for i in range(n):
                model.add_variable(f"v{i}", "binary")
            for j in range(rng.randint(1, 4)):
                terms = [(float(rng.randint(-2, 2)), f"v{i}")
                         for i in range(n)]
                model.add_constraint(f"c{j}", terms,
                                     rng.choice(["<=", ">="]),
                                     float(rng.randint(-1, 3)))
            model.set_objective([(float(rng.randint(-3, 3)), f"v{i}")
                                 for i in range(n)])
            exact = brute_force_model(model)
            # a plunge changes the node order only, so a finished search
            # ends where the best-bound search does
            for config in (SolveConfig(), SolveConfig(plunge=True)):
                bb = branch_and_bound(model, config)
                assert bb.status == exact.status
                if exact.status == "optimal":
                    assert bb.incumbent.objective_value == pytest.approx(
                        exact.incumbent.objective_value)
                    assert bb.lower_bound == pytest.approx(
                        exact.incumbent.objective_value)

    def test_plunge_finds_an_incumbent_sooner(self):
        # the plunge reaches its first incumbent at node 3, best-bound
        # order at node 5
        model = build_monolithic(
            random_tiny_instance(random.Random(48))).freeze()
        optimum = branch_and_bound(model).incumbent.objective_value
        plunged = branch_and_bound(model,
                                   SolveConfig(node_limit=3, plunge=True))
        best = branch_and_bound(model, SolveConfig(node_limit=3))
        assert plunged.incumbent is not None
        assert plunged.incumbent.objective_value >= optimum
        assert best.status == "limit-reached" and best.incumbent is None

    def test_plunge_stopped_by_a_limit_bounds_the_optimum(self):
        # a stack is not ordered by bound, so the final lower bound must
        # be the least over every open node, not the last one pushed
        for seed in range(12):
            model = build_monolithic(
                random_tiny_instance(random.Random(seed))).freeze()
            full = branch_and_bound(model)
            if full.incumbent is None:
                continue
            optimum = full.incumbent.objective_value
            for nodes in range(1, full.nodes_explored + 1):
                limited = branch_and_bound(
                    model, SolveConfig(node_limit=nodes, plunge=True))
                assert limited.lower_bound <= optimum + 1e-9

    def test_infeasible_integer_model(self):
        model = MilpModel("bad")
        model.add_variable("x", "binary")
        model.add_constraint("c", [(2.0, "x")], "=", 1.0)
        assert branch_and_bound(model).status == "infeasible"

    def test_cutoff_prunes_at_optimum(self):
        model = knapsack_model()
        result = branch_and_bound(model, SolveConfig(cutoff=-9.0))
        assert result.status == "cutoff"
        assert result.incumbent is None
        assert result.lower_bound >= -9.0 - 1e-6

    def test_cutoff_is_not_infeasible(self):
        model = MilpModel("one")
        model.add_variable("x", "binary")
        model.add_constraint("c", [(1.0, "x")], ">=", 1.0)
        model.set_objective([(1.0, "x")])
        result = branch_and_bound(model, SolveConfig(cutoff=1.0))
        assert result.status == "cutoff"
        assert result.incumbent is None
        assert result.lower_bound == pytest.approx(1.0)

    def test_cutoff_allows_strictly_better(self):
        result = branch_and_bound(knapsack_model(), SolveConfig(cutoff=-8.0))
        assert result.incumbent.objective_value == pytest.approx(-9.0)

    def test_node_limit(self):
        result = branch_and_bound(knapsack_model(), SolveConfig(node_limit=0))
        assert result.status == "limit-reached"
        assert result.lower_bound == -math.inf

    def test_lower_bound_valid_under_limits(self):
        model = knapsack_model()
        exact = branch_and_bound(model).incumbent.objective_value
        for nodes in (1, 2, 3):
            limited = branch_and_bound(model, SolveConfig(node_limit=nodes))
            assert limited.lower_bound <= exact + 1e-9

    def test_determinism(self):
        model = knapsack_model()
        a = branch_and_bound(model, SolveConfig(node_limit=100))
        b = branch_and_bound(model, SolveConfig(node_limit=100))
        assert a.nodes_explored == b.nodes_explored
        assert np.array_equal(a.incumbent.values, b.incumbent.values)

    def test_searches_repeat_exactly(self):
        # each search starts cold, whatever searches ran before it; the node
        # limit stops the search one node short of its unlimited run
        rng = random.Random(9)
        model = build_monolithic(random_tiny_instance(rng))
        other = build_monolithic(random_tiny_instance(rng))
        full = branch_and_bound(model)
        config = SolveConfig(node_limit=full.nodes_explored - 1)
        first = branch_and_bound(model, config)
        branch_and_bound(other, config)
        second = branch_and_bound(model, config)
        assert first.status == second.status == "limit-reached"
        assert first.nodes_explored == second.nodes_explored \
            == full.nodes_explored - 1
        assert first.lower_bound == second.lower_bound
        assert np.array_equal(first.incumbent.values,
                              second.incumbent.values)

    def test_incumbent_is_a_vector(self):
        model = knapsack_model()
        incumbent = branch_and_bound(model).incumbent
        assert isinstance(incumbent.values, np.ndarray)
        assert incumbent.values.shape == (len(model.variables),)
        assert (model.objective_value(incumbent.values)
                == incumbent.objective_value)

    def test_incumbent_sequence_strictly_decreasing(self):
        seen = []
        config = SolveConfig(on_incumbent=lambda values, obj: seen.append(obj))
        branch_and_bound(knapsack_model(), config)
        assert seen == sorted(seen, reverse=True)
        assert len(seen) == len(set(seen))

    def test_integral_bound_rounding(self):
        # LP bound 1.5 rounds up to 2 for an all-integer objective
        model = MilpModel("round")
        model.add_variable("x", "integer", 0, 3)
        model.add_variable("y", "integer", 0, 3)
        model.add_constraint("c", [(2.0, "x"), (2.0, "y")], ">=", 3.0)
        model.set_objective([(1.0, "x"), (1.0, "y")])
        result = branch_and_bound(model)
        assert result.status == "optimal"
        assert result.incumbent.objective_value == pytest.approx(2.0)
        assert result.lower_bound == pytest.approx(2.0)

    def test_stop_at_proven_optimum_is_optimal(self):
        # the root bound 1.5 rounds up to 2, so once the first incumbent
        # (objective 2, at node 6) is found, nothing open is better, even
        # when the node limit stops the search there
        model = MilpModel("cover3")
        for name in "abc":
            model.add_variable(name, "binary")
        model.add_constraint("c", [(1.0, n) for n in "abc"], ">=", 1.5)
        model.set_objective([(1.0, n) for n in "abc"])
        for config in (SolveConfig(), SolveConfig(node_limit=6)):
            result = branch_and_bound(model, config)
            assert result.status == "optimal"
            assert result.lower_bound == result.incumbent.objective_value == 2

    @pytest.mark.parametrize("seed, nodes", [(44, 5), (129, 9)])
    def test_tied_nodes_go_depth_first_down_child_first(self, seed, nodes):
        # a surface's bounds are integral, so nearly every open node ties
        # with its siblings; taking the newest tied node, down child first,
        # plunges to an optimal leaf instead of sweeping each level (seed
        # 44 takes 10 nodes oldest node first)
        model = build_surface(
            random_tiny_instance(random.Random(seed))).freeze()
        result = branch_and_bound(model)
        assert result.status == "optimal"
        assert result.nodes_explored == nodes

    def test_branching_variable(self):
        model = MilpModel("frac")
        model.add_variable("y")  # continuous: never branched on
        for name in "abc":
            model.add_variable(name, "binary")
        arrays = _Arrays(model)
        # y, b and c are equally fractional; b is the lower integer index
        assert _most_fractional(arrays, np.array([0.5, 1.0, 0.5, 0.5])) == 2
        assert _most_fractional(arrays, np.array([0.5, 0.0, 1.0, 1e-9])) \
            is None

    def test_config_validation(self):
        for limit in (0, -1.0, math.nan):
            with pytest.raises(SolverError, match="time limit"):
                SolveConfig(time_limit=limit)

    def test_negative_node_limit_rejected(self):
        assert branch_and_bound(knapsack_model(),
                                SolveConfig(node_limit=0)).nodes_explored == 0
        with pytest.raises(SolverError, match="node limit"):
            SolveConfig(node_limit=-1)


class TestBruteForce:
    def test_model_with_fixed_variables(self):
        model = MilpModel("fixed")
        model.add_variable("x", "continuous", 2.0, 2.0)
        model.add_constraint("c", [(1.0, "x")], "<=", 3.0)
        model.set_objective([(1.0, "x")])
        result = brute_force_model(model)
        assert result.status == "optimal"
        assert result.incumbent.objective_value == pytest.approx(2.0)

    def test_guard(self):
        model = MilpModel("big")
        for i in range(10):
            model.add_variable(f"v{i}", "integer", 0, 9)
        model.set_objective([(1.0, "v0")])
        with pytest.raises(SearchSpaceError):
            brute_force_model(model, guard=1000)

    def test_instance_infeasible_when_too_many_events(self, tight_instance):
        from conftest import make_instance
        instance = make_instance(
            [("c1", "t1", 3, 1, 5)], [("r1", 9)], [("q1", ["c1"])],
            days=1, periods_per_day=3,
            unavailability=[("c1", 0)])
        # validate() would reject this; bypass it to exercise the verdict
        result = brute_force_instance(instance)
        assert result.status == "infeasible"

    def test_instance_form_matches_model_form(self):
        rng = random.Random(23)
        for _ in range(5):
            instance = random_tiny_instance(rng)
            by_instance = brute_force_instance(instance)
            model = build_monolithic(instance)
            bb = branch_and_bound(model)
            assert bb.status == by_instance.status == "optimal"
            assert bb.incumbent.objective_value == pytest.approx(
                by_instance.lower_bound)


class TestExternalAdapter:
    def test_self_adapter_round_trip(self, tmp_path, self_adapter):
        # solve-mps prints its proof, so the point comes back optimal
        result = external_solve(knapsack_model(), self_adapter, tmp_path)
        assert result.status == "optimal"
        assert result.lower_bound == -9.0
        assert result.incumbent.objective_value == pytest.approx(-9.0)
        assert (tmp_path / "knapsack.sol").exists()

    def test_self_adapter_infeasible(self, tmp_path, self_adapter):
        # solve-mps exits 1 on a proven infeasible model and writes no point
        model = MilpModel("m")
        model.add_variable("x", "binary")
        model.add_constraint("c", [(1.0, "x")], ">=", 2.0)
        model.set_objective([(1.0, "x")])
        result = external_solve(model, self_adapter, tmp_path)
        assert (result.status, result.incumbent) == ("infeasible", None)
        assert result.lower_bound == math.inf

    def test_violating_point_rejected(self, tmp_path):
        model = MilpModel("m")
        model.add_variable("x", "binary")
        model.add_constraint("c", [(1.0, "x")], ">=", 1.0)
        model.set_objective([(1.0, "x")])
        with pytest.raises(ExternalSolverError, match="violates c"):
            external_solve(model, write_files("x 0"), tmp_path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    def test_non_finite_point_rejected(self, tmp_path, kind, value):
        model = MilpModel("m")
        model.add_variable("x", kind, 0.0, math.inf)
        model.set_objective([(1.0, "x")])
        with pytest.raises(ExternalSolverError, match="bound:x"):
            external_solve(model, write_files(f"x {value}"), tmp_path)

    def test_missing_solution_file(self, tmp_path):
        with pytest.raises(ExternalSolverError, match="missing solution"):
            external_solve(knapsack_model(), [sys.executable, "-c", "pass"],
                           tmp_path)

    @pytest.mark.parametrize("status", ["optimal", "feasible"])
    def test_status_with_a_point_without_one_raises(self, tmp_path, status):
        with pytest.raises(ExternalSolverError, match="missing solution"):
            external_solve(knapsack_model(),
                           write_files(None, f"status: {status}"), tmp_path)

    @pytest.mark.parametrize("status, lower, code", [
        ("infeasible", math.inf, 0), ("infeasible", math.inf, 1),
        ("cutoff", -7.0, 0), ("unbounded", -math.inf, 0),
        ("limit-reached", -12.5, 0)])
    def test_status_without_a_point_returned(self, tmp_path, status, lower,
                                             code):
        # exit code 1 is solve-mps's answer for a proven infeasible model
        calls = []
        result = external_solve(
            knapsack_model(),
            write_files(None, f"status: {status}", f"lower bound: {lower}",
                        code=code),
            tmp_path, SolveConfig(on_incumbent=lambda *c: calls.append(c)))
        assert (result.status, result.incumbent) == (status, None)
        assert result.lower_bound == lower and calls == []

    @pytest.mark.parametrize("solution, status, code", [
        (None, "cutoff", 1), (None, "limit-reached", 1), (None, "optimal", 1),
        (None, "", 1), ("a 1", "infeasible", 1), (None, "infeasible", 2)])
    def test_other_nonzero_exit_raises(self, tmp_path, solution, status,
                                       code):
        # only an infeasible answer without a point may exit with 1
        command = write_files(solution, f"status: {status}", code=code)
        with pytest.raises(ExternalSolverError, match=f"exited with {code}"):
            external_solve(knapsack_model(), command, tmp_path)

    @pytest.mark.parametrize("name", ["../up", "sub/m", "/abs"])
    def test_model_name_with_a_path_rejected(self, tmp_path, name):
        (tmp_path / "w").mkdir()
        (tmp_path / "up.sol").write_text("a 1\n")
        model = knapsack_model()
        model.name = name
        with pytest.raises(ExternalSolverError, match="has a path"):
            external_solve(model, write_files("a 1"), tmp_path / "w")
        assert (tmp_path / "up.sol").exists()
        assert list((tmp_path / "w").iterdir()) == []

    def test_earlier_calls_files_are_not_read(self, tmp_path):
        external_solve(knapsack_model(),
                       write_files("a 1\nb 1", "lower bound: -10"), tmp_path)
        # a call whose command prints no bound has none
        result = external_solve(knapsack_model(), write_files("a 1"),
                                tmp_path)
        assert result.lower_bound == -math.inf
        assert result.incumbent.objective_value == pytest.approx(-5.0)
        # and one that writes no point fails, whatever an earlier call wrote
        with pytest.raises(ExternalSolverError, match="missing solution"):
            external_solve(knapsack_model(), [sys.executable, "-c", "pass"],
                           tmp_path)

    @pytest.mark.parametrize("lower, ok", [("-9", True), ("-8.9999995", True),
                                           ("-8.999998", False), ("-8", False),
                                           ("inf", False), ("nan", False)])
    def test_bound_above_point_rejected(self, tmp_path, lower, ok):
        command = write_files("a 1\nb 1", f"lower bound: {lower}")
        if ok:
            assert external_solve(knapsack_model(), command,
                                  tmp_path).lower_bound == float(lower)
        else:  # a NaN bound is no number, above the point or not
            message = "malformed lower" if lower == "nan" else "is not at most"
            with pytest.raises(ExternalSolverError, match=message):
                external_solve(knapsack_model(), command, tmp_path)

    @pytest.mark.parametrize("solution", ["a 1", None])
    @pytest.mark.parametrize("text", ["nan", "x", "", "-10 1"])
    def test_malformed_lower_bound(self, tmp_path, solution, text):
        # with a point or without one
        command = write_files(solution, "status: limit-reached",
                              f"lower bound: {text}")
        with pytest.raises(ExternalSolverError, match="malformed lower"):
            external_solve(knapsack_model(), command, tmp_path)

    def test_node_limit_rejected(self, tmp_path):
        with pytest.raises(ExternalSolverError, match="no node limit"):
            external_solve(knapsack_model(), write_files("a 1"), tmp_path,
                           SolveConfig(node_limit=5))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("limit, text, timeout", [(2.5, "2.5", 62.5),
                                                      (math.inf, "inf", None)])
    def test_time_limit(self, tmp_path, monkeypatch, limit, text, timeout):
        run = subprocess.run
        timeouts = []

        def recording_run(command, **kwargs):
            timeouts.append(kwargs["timeout"])
            return run(command, **kwargs)
        monkeypatch.setattr(subprocess, "run", recording_run)
        # the command runs in the work directory and writes its
        # {time_limit} argument to limit.txt there
        code = ("import sys; open(sys.argv[1], 'w').write('a 1');"
                " open('limit.txt', 'w').write(sys.argv[2])")
        external_solve(knapsack_model(),
                       [sys.executable, "-c", code, "{solution}",
                        "{time_limit}"],
                       tmp_path, SolveConfig(time_limit=limit))
        assert (tmp_path / "limit.txt").read_text() == text
        assert timeouts == [timeout]

    def test_on_incumbent_called_once_with_the_point(self, tmp_path):
        calls = []
        result = external_solve(
            knapsack_model(), write_files("a 1\nb 1"), tmp_path,
            SolveConfig(on_incumbent=lambda *call: calls.append(call)))
        assert len(calls) == 1
        values, objective = calls[0]
        assert values.tolist() == [1.0, 1.0, 0.0]
        assert objective == pytest.approx(-9.0)
        # a copy: the hook cannot change the returned point
        assert values is not result.incumbent.values

    @pytest.mark.parametrize("lower, status", [("-9", "optimal"),
                                               ("-9.0000001", "optimal"),
                                               ("-9.5", "feasible")])
    def test_status_from_the_bound(self, tmp_path, lower, status):
        result = external_solve(
            knapsack_model(),
            write_files("a 1\nb 1", f"lower bound: {lower}"), tmp_path)
        assert result.status == status

    def test_point_above_the_cutoff_returned(self, tmp_path):
        calls = []
        config = SolveConfig(cutoff=-20.0, plunge=True,
                             on_incumbent=lambda *call: calls.append(call))
        result = external_solve(knapsack_model(), write_files("a 1"),
                                tmp_path, config)
        assert result.status == "feasible"
        assert result.incumbent.objective_value == pytest.approx(-5.0)
        assert len(calls) == 1

    def test_relative_workdir(self, tmp_path, monkeypatch, self_adapter):
        # solve-mps also takes the "inf" of a search without a time limit
        monkeypatch.chdir(tmp_path)
        result = external_solve(knapsack_model(), self_adapter, "w")
        assert result.incumbent.objective_value == pytest.approx(-9.0)
        assert (tmp_path / "w" / "knapsack.sol").exists()


def write_files(solution: str | None, *lines: str, code: int = 0) -> list[str]:
    """Command writing the given solution text (none for None), printing
    the given standard output lines and exiting with ``code``."""
    script = ("import sys; print('\\n'.join(sys.argv[4:]));"
              " sys.argv[2] and open(sys.argv[1], 'w').write(sys.argv[2]);"
              " sys.exit(int(sys.argv[3]))")
    return [sys.executable, "-c", script, "{solution}",
            "" if solution is None else solution + "\n", str(code), *lines]
