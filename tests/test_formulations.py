import itertools
import random

import numpy as np
import pytest

from conftest import make_instance, random_tiny_instance
from cttsolve.evaluation import Solution, check_hard, count_isolated, evaluate
from cttsolve.formulations import (DIVE_KINDS, PERIOD_FIXED, FormulationError,
                                   Neighborhood, PeriodAssignment,
                                   add_clique_cuts,
                                   add_implied_bound_cuts, add_pattern_cuts,
                                   all_patterns, build_dive, build_monolithic,
                                   build_surface, build_surface2,
                                   decode_monolithic, decode_surface,
                                   encode_solution, greedy_clique_cover,
                                   project_solution,
                                   restrict_day_fixed, restrict_period_fixed)
from cttsolve.instance import build_conflict_graph, build_multirooms
from cttsolve.milp import MilpError, MilpSolution
from cttsolve.solver import branch_and_bound, brute_force_instance
from test_evaluation import random_solution

HARD_ORIGINS = {"event-count", "room-clash", "course-clash", "teacher-clash",
                "curriculum-clash", "day-aggregation", "min-days", "pattern",
                "room-aggregation"}


# a valid period assignment of the toy instance: events per day (2, 1),
# (1, 1) and (1, 1)
TOY_BASIS = PeriodAssignment({
    "c1": frozenset({1, 2, 3}),
    "c2": frozenset({0, 4}),
    "c3": frozenset({0, 5}),
})


def feasible_solutions(instance, rng, want=3, tries=400):
    found = []
    for _ in range(tries):
        candidate = random_solution(instance, rng)
        if not check_hard(instance, candidate):
            found.append(candidate)
            if len(found) >= want:
                break
    return found


class TestMonolithic:
    def test_variable_counts(self, toy_instance):
        model = build_monolithic(toy_instance)
        tags = [v.tag[0] for v in model.variables]
        assert tags.count("taught") == 6 * 2 * 3
        assert tags.count("sched") == 2 * 3
        assert tags.count("mdv") == 3
        assert tags.count("single") == 1 * 2 * 3
        assert tags.count("uses") == 2 * 3

    def test_origin_coverage(self, toy_instance):
        model = build_monolithic(toy_instance)
        assert model.origins() == HARD_ORIGINS | {"forbidden-period"}

    def test_encode_satisfies_and_matches_objective(self):
        rng = random.Random(31)
        checked = 0
        while checked < 12:
            instance = random_tiny_instance(rng)
            model = build_monolithic(instance)
            for solution in feasible_solutions(instance, rng):
                values = encode_solution(instance, model, solution)
                assert model.first_violation(values) is None
                assert model.objective_value(values) == evaluate(
                    instance, solution)
                checked += 1

    def test_optimum_matches_brute_force(self, tight_instance):
        exact = brute_force_instance(tight_instance)
        result = branch_and_bound(build_monolithic(tight_instance))
        assert result.status == "optimal"
        assert result.incumbent.objective_value == pytest.approx(
            exact.lower_bound)

    def test_decode_round_trip(self):
        rng = random.Random(37)
        instance = random_tiny_instance(rng)
        model = build_monolithic(instance)
        for solution in feasible_solutions(instance, rng):
            values = encode_solution(instance, model, solution)
            milp_solution = MilpSolution(values, 0.0, "feasible")
            assert decode_monolithic(model, milp_solution) == solution

    def test_decoders_reject_wrong_length(self, toy_instance):
        for model, decode in ((build_monolithic(toy_instance),
                               decode_monolithic),
                              (build_surface(toy_instance), decode_surface)):
            short = np.zeros(len(model.variables) - 1)
            with pytest.raises(FormulationError):
                decode(model, MilpSolution(short, 0.0, "feasible"))

    def test_decode_rejects_infeasible_status(self, toy_instance):
        with pytest.raises(FormulationError):
            decode_monolithic(build_monolithic(toy_instance),
                              MilpSolution({}, 0.0, "infeasible"))


class TestSurface:
    def test_variable_counts(self, toy_instance):
        model = build_surface(toy_instance)
        tags = [v.tag[0] for v in model.variables]
        assert tags.count("times") == 6 * 3
        assert "uses" not in tags

    def test_origin_coverage(self, toy_instance):
        model = build_surface(toy_instance)
        assert model.origins() == {
            "event-count", "curriculum-clash", "teacher-clash", "room-bound",
            "forbidden-period", "day-aggregation", "min-days", "pattern"}

    def test_objective_omits_capacity_and_stability(self, toy_instance):
        model = build_surface(toy_instance)
        kinds = {model.variables[idx].tag[0]
                 for coef, idx in model.objective_terms}
        assert kinds <= {"mdv", "single"}
        assert model.objective_constant == 0.0

    def test_projection_of_feasible_solution_is_surface_feasible(self):
        rng = random.Random(41)
        checked = 0
        while checked < 10:
            instance = random_tiny_instance(rng)
            model = build_surface(instance)
            for solution in feasible_solutions(instance, rng):
                basis = project_solution(instance, solution)
                basis.validate(instance)
                values = encode_solution(instance, model, solution)
                assert model.first_violation(values) is None
                checked += 1

    def test_surface_lower_bounds_monolithic(self):
        rng = random.Random(43)
        for _ in range(8):
            instance = random_tiny_instance(rng)
            surface = branch_and_bound(build_surface(instance))
            full = branch_and_bound(build_monolithic(instance))
            assert surface.status == full.status
            if full.status == "optimal":
                assert surface.incumbent.objective_value \
                    <= full.incumbent.objective_value + 1e-9

    def test_forbidden_period_constraint(self, toy_instance):
        model = build_surface(toy_instance)
        assert model.has_constraint("forbidden[c1,0]")


class TestSurface2:
    def test_identity_matches_monolithic_optimum(self):
        rng = random.Random(47)
        for _ in range(6):
            instance = random_tiny_instance(rng)
            identity = build_surface2(
                instance, build_multirooms(instance, "identity"))
            mono = build_monolithic(instance)
            a = branch_and_bound(identity)
            b = branch_and_bound(mono)
            assert a.status == b.status
            if b.status == "optimal":
                assert a.incumbent.objective_value == pytest.approx(
                    b.incumbent.objective_value)

    def test_variable_count_median_split(self, toy_instance):
        multirooms = build_multirooms(toy_instance, "median-split")
        model = build_surface2(toy_instance, multirooms)
        tags = [v.tag[0] for v in model.variables]
        assert tags.count("m_taught") == 6 * len(multirooms) * 3

    def test_requires_partition(self, toy_instance):
        from cttsolve.instance import MultiRoom
        bad = (MultiRoom(1, 32, frozenset({"rA"})),)
        with pytest.raises(FormulationError):
            build_surface2(toy_instance, bad)

    def test_aggregation_never_exceeds_monolithic_optimum(self):
        rng = random.Random(53)
        for _ in range(6):
            instance = random_tiny_instance(rng)
            agg = build_surface2(instance)
            a = branch_and_bound(agg)
            b = branch_and_bound(build_monolithic(instance))
            if b.status == "optimal":
                assert a.status == "optimal"
                assert a.incumbent.objective_value \
                    <= b.incumbent.objective_value + 1e-9


class TestRestrictions:
    def test_period_fixed_constraints(self, toy_instance):
        model = build_monolithic(toy_instance).freeze()
        basis = PeriodAssignment({
            "c1": frozenset({1, 2, 3}),
            "c2": frozenset({4, 5}),
            "c3": frozenset({4, 5}),
        })
        dive = restrict_period_fixed(model, basis)
        fixed = [c for c in dive.constraints if c.origin == "period-fix"]
        assert len(fixed) == 6 * 3
        assert dive.has_constraint("period_fix[1,c1]")
        one = next(c for c in dive.constraints
                   if c.name == "period_fix[1,c1]")
        assert one.sense == "=" and one.rhs == 1.0
        zero = next(c for c in dive.constraints
                    if c.name == "period_fix[0,c1]")
        assert zero.rhs == 0.0

    def test_invalid_basis_rejected(self, toy_instance):
        model = build_monolithic(toy_instance).freeze()
        with pytest.raises(FormulationError):
            restrict_period_fixed(
                model, PeriodAssignment({"c1": frozenset({1})}))

    def test_monotone_restriction_chain(self):
        rng = random.Random(59)
        checked = 0
        while checked < 6:
            instance = random_tiny_instance(rng)
            mono = build_monolithic(instance).freeze()
            full = branch_and_bound(mono)
            if full.status != "optimal":
                continue
            for solution in feasible_solutions(instance, rng, want=2):
                basis = project_solution(instance, solution)
                period_dive = branch_and_bound(
                    restrict_period_fixed(mono, basis))
                day_dive = branch_and_bound(
                    restrict_day_fixed(mono, basis))
                assert period_dive.status == "optimal"
                assert day_dive.status == "optimal"
                assert full.incumbent.objective_value \
                    <= day_dive.incumbent.objective_value + 1e-9
                assert day_dive.incumbent.objective_value \
                    <= period_dive.incumbent.objective_value + 1e-9
                checked += 1

    def test_day_counts_validated(self, toy_instance):
        mono = build_monolithic(toy_instance).freeze()
        with pytest.raises(FormulationError):
            restrict_day_fixed(
                mono, PeriodAssignment({"c1": frozenset({1})}))
        clash = PeriodAssignment({"c1": frozenset({1, 2, 3}),
                                  "c2": frozenset({3, 4}),
                                  "c3": frozenset({4, 5})})
        with pytest.raises(FormulationError):  # curriculum q1 at period 3
            restrict_day_fixed(mono, clash)

    def test_day_fix_counts_events_per_day(self, toy_instance):
        mono = build_monolithic(toy_instance).freeze()
        basis = PeriodAssignment({
            "c1": frozenset({1, 2, 3}),
            "c2": frozenset({4, 5}),
            "c3": frozenset({0, 4}),
        })
        dive = restrict_day_fixed(mono, basis)
        rhs = {c.name: c.rhs for c in dive.constraints
               if c.origin == "day-fix"}
        assert rhs == {"day_fix[c1,0]": 2.0, "day_fix[c1,1]": 1.0,
                       "day_fix[c2,0]": 0.0, "day_fix[c2,1]": 2.0,
                       "day_fix[c3,0]": 1.0, "day_fix[c3,1]": 1.0}

    def test_neighborhood_rejects_unknown_kind(self):
        for kind in ("week-fixed", "day-decomp"):
            with pytest.raises(FormulationError):
                Neighborhood(kind, TOY_BASIS, 0.0)
        for kind in DIVE_KINDS:
            assert Neighborhood(kind, TOY_BASIS, 0.0).kind == kind

    def test_build_dive_dispatch(self, toy_instance):
        mono = build_monolithic(toy_instance).freeze()
        basis = PeriodAssignment({
            "c1": frozenset({1, 2, 3}),
            "c2": frozenset({4, 5}),
            "c3": frozenset({4, 5}),
        })
        dive = build_dive(mono, Neighborhood(PERIOD_FIXED, basis, 0.0))
        assert dive.metadata["dive"] == PERIOD_FIXED


class TestDecoders:
    def test_decode_surface(self, toy_instance):
        model = build_surface(toy_instance)
        solution = Solution({
            "c1": ((1, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((4, "rB"), (5, "rB")),
        })
        values = encode_solution(toy_instance, model, solution)
        basis = decode_surface(model, MilpSolution(values, 0.0, "feasible"))
        assert basis == project_solution(toy_instance, solution)

    def test_decode_surface_rejects_fractional(self, toy_instance):
        model = build_surface(toy_instance)
        values = np.zeros(len(model.variables))
        values[model.by_tag(("times", 1, "c1"))] = 0.5
        with pytest.raises(FormulationError):
            decode_surface(model, MilpSolution(values, 0.0, "feasible"))


class TestCliqueCuts:
    def triangle_instance(self):
        return make_instance(
            [("a", "t1", 1, 1, 5), ("b", "t2", 1, 1, 5),
             ("c", "t3", 1, 1, 5), ("d", "t4", 1, 1, 5)],
            [("r1", 9), ("r2", 9)],
            [("q1", ["a", "b", "c", "d"])],
            days=1, periods_per_day=2)

    def test_cut_count(self):
        instance = self.triangle_instance()
        graph = build_conflict_graph(instance)
        model = build_surface(instance)
        added = add_clique_cuts(model, [{"a", "b", "c"}], graph)
        assert added == 2  # one per period

    def test_non_clique_rejected(self, toy_instance):
        graph = build_conflict_graph(toy_instance)
        model = build_surface(toy_instance)
        with pytest.raises(FormulationError):
            add_clique_cuts(model, [{"c2", "c3"}], graph)  # not adjacent

    def test_repeated_clique_rejected(self):
        instance = self.triangle_instance()
        graph = build_conflict_graph(instance)
        model = build_surface(instance)
        assert add_clique_cuts(model, [{"a", "b"}], graph) == 2
        with pytest.raises(MilpError, match="duplicate constraint"):
            add_clique_cuts(model, [{"a", "b"}], graph)

    def test_cuts_do_not_exclude_feasible_points(self):
        rng = random.Random(61)
        checked = 0
        while checked < 8:
            instance = random_tiny_instance(rng)
            graph = build_conflict_graph(instance)
            model = build_monolithic(instance)
            add_clique_cuts(model, greedy_clique_cover(graph), graph)
            for solution in feasible_solutions(instance, rng):
                values = encode_solution(instance, model, solution)
                assert model.first_violation(values) is None
                checked += 1

    def test_greedy_cover_produces_cliques(self):
        instance = self.triangle_instance()
        graph = build_conflict_graph(instance)
        for clique in greedy_clique_cover(graph):
            for a, b in itertools.combinations(sorted(clique), 2):
                assert graph.are_adjacent(a, b)


class TestImpliedBoundCuts:
    def test_monolithic_gets_both_families(self, toy_instance):
        model = build_monolithic(toy_instance)
        added = add_implied_bound_cuts(model)
        assert added == 2 * 3
        assert model.has_constraint("implied_days[c1]")
        assert model.has_constraint("implied_rooms[c1]")

    def test_surface_gets_day_family_only(self, toy_instance):
        model = build_surface(toy_instance)
        add_implied_bound_cuts(model)
        assert model.has_constraint("implied_days[c1]")
        assert not model.has_constraint("implied_rooms[c1]")

    def test_validity_on_feasible_points(self):
        rng = random.Random(67)
        instance = random_tiny_instance(rng)
        model = build_monolithic(instance)
        add_implied_bound_cuts(model)
        for solution in feasible_solutions(instance, rng):
            values = encode_solution(instance, model, solution)
            assert model.first_violation(values) is None


class TestPatternCuts:
    def test_length_validation(self, toy_instance):
        model = build_monolithic(toy_instance)
        with pytest.raises(FormulationError):
            add_pattern_cuts(model, [((1, -1), 1)])

    def test_entry_validation(self, toy_instance):
        model = build_monolithic(toy_instance)
        with pytest.raises(FormulationError):
            add_pattern_cuts(model, [((1, 0, -1), 1)])

    def test_penalty_validation(self, toy_instance):
        model = build_monolithic(toy_instance)
        with pytest.raises(FormulationError):
            add_pattern_cuts(model, [((1, -1, -1), 7)])

    def test_cut_added_per_curriculum_day(self, toy_instance):
        model = build_monolithic(toy_instance)
        added = add_pattern_cuts(model, [((1, -1, -1), 1)])
        assert added == 1 * 2  # one curriculum, two days

    def test_arithmetic_never_exceeds_true_count(self):
        # for every pattern and every 0/1 occupancy, the cut LHS stays
        # below the true isolated count; equality holds at the exact match
        for n in range(1, 9):
            for pattern, penalty in all_patterns(n):
                m = sum(1 for a in pattern if a == 1)
                for occ in itertools.product((0, 1), repeat=n):
                    lhs = penalty * (
                        sum(a * o for a, o in zip(pattern, occ)) - m + 1)
                    assert lhs <= count_isolated([bool(o) for o in occ])
                matched = [a == 1 for a in pattern]
                lhs_match = penalty * (m - m + 1)
                assert lhs_match == penalty == count_isolated(matched) \
                    or penalty == 0

    def test_alternating_pattern_tightness(self):
        # (+1,-1,+1,-1) with penalty 2: the bound binds only at the match
        pattern = (1, -1, 1, -1)
        for occ in itertools.product((0, 1), repeat=4):
            lhs = 2 * (sum(a * o for a, o in zip(pattern, occ)) - 2 + 1)
            if occ == (1, 0, 1, 0):
                assert lhs == 2 == count_isolated([bool(o) for o in occ])
            else:
                assert lhs < 2

    def test_model_validity_on_feasible_points(self):
        rng = random.Random(71)
        checked = 0
        while checked < 6:
            instance = random_tiny_instance(rng)
            model = build_monolithic(instance)
            add_pattern_cuts(model, all_patterns(instance.periods_per_day))
            for solution in feasible_solutions(instance, rng):
                values = encode_solution(instance, model, solution)
                assert model.first_violation(values) is None
                checked += 1
