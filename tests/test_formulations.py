import itertools
import random
from collections import Counter

import numpy as np
import pytest

from conftest import (encode_solution, make_instance, project_solution,
                      random_tiny_instance)
from cttsolve.evaluation import (Solution, check_hard, count_isolated,
                                 evaluate, penalties)
from cttsolve.formulations import (DAY_FIXED, DIVE_KINDS, PERIOD_FIXED,
                                   FormulationError, PeriodAssignment,
                                   add_clique_cuts, add_implied_bound_cuts,
                                   add_pattern_cuts, all_patterns, build_dive,
                                   build_monolithic, build_room_relaxation,
                                   build_surface, build_surface2,
                                   decode_monolithic, decode_surface,
                                   greedy_clique_cover, greedy_periods,
                                   match_rooms)
from cttsolve.instance import build_conflict_graph
from cttsolve.milp import MilpError
from cttsolve.solver import (SearchSpaceError, _Arrays, branch_and_bound,
                             brute_force_instance, brute_force_model,
                             linprog)
from test_evaluation import random_solution

HARD_ORIGINS = {"event-count", "room-clash", "occupancy", "teacher-clash",
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


class TestPeriodAssignment:
    def test_more_events_than_rooms_is_a_room_clash(self):
        instance = make_instance([("a", "t1", 1, 1, 5), ("b", "t2", 1, 1, 5)],
                                 [("r1", 9)], [])
        basis = PeriodAssignment({"a": frozenset({0}), "b": frozenset({0})})
        with pytest.raises(FormulationError, match="room r1 hosts 2 events"):
            basis.validate(instance)
        PeriodAssignment({"a": frozenset({0}),
                          "b": frozenset({1})}).validate(instance)

    def test_no_rooms(self):
        instance = make_instance([("a", "t1", 1, 1, 5)], [], [])
        with pytest.raises(FormulationError, match="no rooms"):
            PeriodAssignment({"a": frozenset({0})}).validate(instance)

    def test_unknown_course_rejected(self, toy_instance):
        basis = PeriodAssignment({**TOY_BASIS.periods, "zz": frozenset({0})})
        with pytest.raises(FormulationError, match="'zz' not declared"):
            basis.validate(toy_instance)

    def test_forbidden_period_rejected(self, toy_instance):
        basis = PeriodAssignment({"c1": frozenset({0, 2, 3}),
                                  "c2": frozenset({1, 4}),
                                  "c3": frozenset({1, 5})})
        with pytest.raises(FormulationError, match="forbidden period 0"):
            basis.validate(toy_instance)


def random_periods(instance, rng):
    """Random periods for each course's events, at most as many events in
    a period as there are rooms, or None when a draw overfills one."""
    periods = {c.id: frozenset(rng.sample(range(instance.periods), c.events))
               for c in instance.courses}
    load = Counter(p for used in periods.values() for p in used)
    if max(load.values()) > len(instance.rooms):
        return None
    return PeriodAssignment(periods)


class TestMatchRooms:
    def test_least_capacity_penalty_on_tiny_corpus(self):
        checked = 0
        for seed in range(40):
            instance = random_tiny_instance(random.Random(seed))
            rng = random.Random(seed)
            for _ in range(5):
                basis = random_periods(instance, rng)
                if basis is None:
                    continue
                least = 0
                for p in range(instance.periods):
                    students = [instance.course_by_id[cid].students
                                for cid, used in basis.periods.items()
                                if p in used]
                    least += min(
                        sum(max(0, s - r.capacity)
                            for s, r in zip(students, rooms))
                        for rooms in itertools.permutations(
                            instance.rooms, len(students)))
                solution = match_rooms(instance, basis)
                assert penalties(instance, solution).capacity == least
                assert project_solution(solution) == basis
                checked += 1
        assert checked >= 100

    def test_largest_course_takes_largest_room(self):
        instance = make_instance(
            [("a", "t1", 1, 1, 5), ("b", "t2", 1, 1, 30),
             ("c", "t3", 1, 1, 30)],
            [("r1", 10), ("r2", 40), ("r3", 20), ("r0", 20)], [])
        basis = PeriodAssignment({cid: frozenset({0}) for cid in "abc"})
        assert match_rooms(instance, basis).assignments == {
            "b": ((0, "r2"),), "c": ((0, "r0"),), "a": ((0, "r3"),)}


class TestGreedyPeriods:
    def test_valid_or_none_on_tiny_corpus(self):
        found = 0
        for seed in range(40):
            instance = random_tiny_instance(random.Random(seed))
            basis = greedy_periods(instance,
                                   build_conflict_graph(instance))
            if basis is None:
                continue
            basis.validate(instance)
            found += 1
        assert found >= 30

    def test_none_at_a_dead_end(self):
        # three courses of one curriculum need three periods; there are two
        instance = make_instance(
            [("a", "t1", 1, 1, 5), ("b", "t2", 1, 1, 5),
             ("c", "t3", 1, 1, 5)],
            [("r1", 9)], [("q1", ["a", "b", "c"])],
            days=1, periods_per_day=2)
        neighbours = build_conflict_graph(instance)
        assert greedy_periods(instance, neighbours) is None

    def test_spreads_over_days_within_the_room_bound(self):
        # a takes one period on each day; b, with one room, the two left
        instance = make_instance(
            [("a", "t1", 2, 2, 5), ("b", "t2", 2, 2, 5)], [("r1", 9)], [],
            days=2, periods_per_day=2)
        neighbours = build_conflict_graph(instance)
        assert greedy_periods(instance, neighbours) == PeriodAssignment({
            "a": frozenset({0, 2}), "b": frozenset({1, 3})})


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
        assert {c.origin for c in model.constraints} \
            == HARD_ORIGINS | {"forbidden-period"}

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
            assert decode_monolithic(model, values) == solution

    def test_decoders_reject_wrong_length(self, toy_instance):
        for model, decode in ((build_monolithic(toy_instance),
                               decode_monolithic),
                              (build_surface(toy_instance), decode_surface)):
            short = np.zeros(len(model.variables) - 1)
            with pytest.raises(FormulationError):
                decode(model, short)


class TestOccupancy:
    """The full formulations reach rooms only through three row kinds;
    every other row sees one occupancy term per (period, course)."""

    ROOM_ORIGINS = {"occupancy", "room-clash", "room-aggregation"}

    def full_models(self, instance):
        graph = build_conflict_graph(instance)
        models = []
        for model in (build_monolithic(instance), build_surface2(instance)):
            add_clique_cuts(model, greedy_clique_cover(graph), graph)
            add_implied_bound_cuts(model)
            add_pattern_cuts(model)
            models.append(model)
        mono = build_monolithic(instance).freeze()
        models += [build_dive(mono, kind, TOY_BASIS)
                   for kind in DIVE_KINDS]
        return models

    def test_room_variables_only_in_room_rows(self, toy_instance):
        for model in self.full_models(toy_instance):
            seen = set()
            for row in model.constraints:
                tags = [model.variables[i].tag for _, i in row.terms]
                if any(t[0] == "taught" for t in tags):
                    assert row.origin in self.ROOM_ORIGINS, row.name
                else:
                    assert row.origin not in self.ROOM_ORIGINS, row.name
                if row.origin == "occupancy":
                    (_, p, cid), = [t for t in tags if t[0] == "times"]
                    assert sorted(t[2] for t in tags if t[0] == "taught") \
                        == sorted(model.metadata["room_groups"])
                    seen.add((p, cid))
            assert seen == {(p, c.id) for p in range(toy_instance.periods)
                            for c in toy_instance.courses}

    def test_occupancy_variables_come_first(self, toy_instance):
        for model in self.full_models(toy_instance):
            n = toy_instance.periods * len(toy_instance.courses)
            assert [v.tag[0] for v in model.variables[:n]] == ["times"] * n
            assert all(v.kind == "binary" for v in model.variables[:n])
            assert all(v.tag[0] != "times" for v in model.variables[n:])


class TestSurface:
    def test_variable_counts(self, toy_instance):
        model = build_surface(toy_instance)
        tags = [v.tag[0] for v in model.variables]
        assert tags.count("times") == 6 * 3
        assert "uses" not in tags

    def test_origin_coverage(self, toy_instance):
        model = build_surface(toy_instance)
        assert {c.origin for c in model.constraints} == {
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
                basis = project_solution(solution)
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
        assert "forbidden[c1,0]" in {c.name for c in model.constraints}


def capacity_costs(model):
    """Capacity cost of each (room key, course) pair, read off the
    objective at period 0; a pair within capacity costs nothing."""
    costs = {}
    for coef, idx in model.objective_terms:
        tag = model.variables[idx].tag
        if tag[0] == "taught" and tag[1] == 0:
            costs[tag[2:]] = coef
    return costs


class TestSurface2:
    def test_variable_count_median_split(self, toy_instance):
        model = build_surface2(toy_instance)
        tags = [v.tag[0] for v in model.variables]
        # rooms of 32 and 20 seats: the lower median, 20, parts them
        assert len(model.metadata["room_groups"]) == 2
        assert tags.count("taught") == 6 * 2 * 3

    def test_one_room_per_group_is_the_monolithic_model(self):
        # the smaller room listed first: the lower-median split gives each
        # room a group of its own, in the monolithic model's room order
        instance = make_instance(
            [("c1", "t1", 2, 1, 25), ("c2", "t2", 2, 2, 15)],
            [("rS", 20), ("rL", 30)], [("q1", ["c1", "c2"])])
        models = [build_monolithic(instance), build_surface2(instance)]
        for model in models:
            add_implied_bound_cuts(model)
        mono, agg = models
        assert agg.variables == mono.variables
        assert agg.constraints == mono.constraints
        assert (agg.objective_terms, agg.objective_constant) \
            == (mono.objective_terms, mono.objective_constant)
        assert agg.metadata["room_groups"] == {"rS": ("rS",), "rL": ("rL",)}

    def test_even_room_count_splits_at_lower_median(self):
        instance = make_instance(
            [("c1", "t1", 1, 1, 50)],
            [("r1", 10), ("r2", 20), ("r3", 30), ("r4", 40)],
            [("q1", ["c1"])])
        model = build_surface2(instance)
        # lower median (20) splits: {10, 20} below, {30, 40} above
        assert model.metadata["room_groups"] == {
            "r1+r2": ("r1", "r2"), "r3+r4": ("r3", "r4")}
        assert {c.name: c.rhs for c in model.constraints
                if c.name.startswith("room_clash[0,")} == {
            "room_clash[0,r1+r2]": 2, "room_clash[0,r3+r4]": 2}
        # 50 students overflow a group of 20 seats by 30, one of 40 by 10
        assert capacity_costs(model) == {("r1+r2", "c1"): 30,
                                         ("r3+r4", "c1"): 10}

    def test_groups_partition_rooms(self):
        for seed in range(40):
            instance = random_tiny_instance(random.Random(seed))
            model = build_surface2(instance)
            groups = model.metadata["room_groups"]
            members = [m for rooms in groups.values() for m in rooms]
            assert sorted(members) == sorted(r.id for r in instance.rooms)
            # each group sees its largest member's capacity
            w = instance.weights.capacity
            expected = {}
            for key, rooms in groups.items():
                seats = max(instance.room_by_id[m].capacity for m in rooms)
                for c in instance.courses:
                    if w and c.students > seats:
                        expected[key, c.id] = w * (c.students - seats)
            assert capacity_costs(model) == expected

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


def room_point(model, solution):
    """Point of the room relaxation holding a timetable's events by room."""
    held = Counter((cid, room) for cid, _, room in solution.events())
    return np.array([held[v.tag[1:]] if v.tag[0] == "x"
                     else float(held[v.tag[1:]] > 0)
                     for v in model.variables])


class TestRoomRelaxation:
    def test_variables_and_origins(self, toy_instance):
        model = build_room_relaxation(toy_instance)
        assert [v.tag[0] for v in model.variables] == ["x", "y"] * 6
        assert model.variables[0].upper == 3  # c1's events
        assert {c.origin for c in model.constraints} == {
            "event-count", "room-aggregation", "room-bound"}

    def test_objective_omits_spread_and_compactness(self, toy_instance):
        model = build_room_relaxation(toy_instance)
        kinds = {model.variables[idx].tag[0]
                 for coef, idx in model.objective_terms}
        assert kinds == {"x", "y"}
        assert model.objective_constant == -3.0  # stability 1, 3 courses

    @pytest.mark.parametrize("fixture, optimum", [
        ("toy_instance", 0), ("contended_instance", 31)])
    def test_optimum_matches_brute_force(self, fixture, optimum, request):
        model = build_room_relaxation(request.getfixturevalue(fixture))
        search = branch_and_bound(model)
        brute = brute_force_model(model)
        assert search.status == brute.status == "optimal"
        assert search.lower_bound == brute.lower_bound == optimum
        assert search.incumbent.objective_value == optimum

    def test_timetable_is_a_point_of_its_room_terms(self):
        rng = random.Random(59)
        checked = 0
        while checked < 10:
            instance = random_tiny_instance(rng)
            model = build_room_relaxation(instance)
            w = instance.weights
            for solution in feasible_solutions(instance, rng):
                values = room_point(model, solution)
                assert model.first_violation(values) is None
                cap, _, _, stab = penalties(instance, solution).as_tuple()
                assert model.objective_value(values) == (
                    w.capacity * cap + w.stability * stab)
                checked += 1


class TestRestrictions:
    def test_period_fixed_constraints(self, toy_instance):
        model = build_monolithic(toy_instance).freeze()
        basis = PeriodAssignment({
            "c1": frozenset({1, 2, 3}),
            "c2": frozenset({4, 5}),
            "c3": frozenset({4, 5}),
        })
        dive = build_dive(model, PERIOD_FIXED, basis)
        fixed = [c for c in dive.constraints if c.origin == "period-fix"]
        assert len(fixed) == 6 * 3
        one = next(c for c in dive.constraints
                   if c.name == "period_fix[1,c1]")
        assert one.sense == "=" and one.rhs == 1.0
        zero = next(c for c in dive.constraints
                    if c.name == "period_fix[0,c1]")
        assert zero.rhs == 0.0

    def test_invalid_basis_rejected(self, toy_instance):
        model = build_monolithic(toy_instance).freeze()
        with pytest.raises(FormulationError):
            build_dive(model, PERIOD_FIXED,
                       PeriodAssignment({"c1": frozenset({1})}))

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
                basis = project_solution(solution)
                period_dive = branch_and_bound(
                    build_dive(mono, PERIOD_FIXED, basis))
                day_dive = branch_and_bound(
                    build_dive(mono, DAY_FIXED, basis))
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
            build_dive(mono, DAY_FIXED,
                       PeriodAssignment({"c1": frozenset({1})}))
        clash = PeriodAssignment({"c1": frozenset({1, 2, 3}),
                                  "c2": frozenset({3, 4}),
                                  "c3": frozenset({4, 5})})
        with pytest.raises(FormulationError):  # curriculum q1 at period 3
            build_dive(mono, DAY_FIXED, clash)

    def test_day_fix_counts_events_per_day(self, toy_instance):
        mono = build_monolithic(toy_instance).freeze()
        basis = PeriodAssignment({
            "c1": frozenset({1, 2, 3}),
            "c2": frozenset({4, 5}),
            "c3": frozenset({0, 4}),
        })
        dive = build_dive(mono, DAY_FIXED, basis)
        rhs = {c.name: c.rhs for c in dive.constraints
               if c.origin == "day-fix"}
        assert rhs == {"day_fix[c1,0]": 2.0, "day_fix[c1,1]": 1.0,
                       "day_fix[c2,0]": 0.0, "day_fix[c2,1]": 2.0,
                       "day_fix[c3,0]": 1.0, "day_fix[c3,1]": 1.0}

    def test_dive_ends_with_implied_rows(self, toy_instance):
        """A dive comes whole: the implied-bound rows of the monolithic
        model follow its fixing rows, as every strategy searches it."""
        mono = build_monolithic(toy_instance).freeze()
        implied = [f"implied_{family}[{c.id}]" for c in toy_instance.courses
                   for family in ("days", "rooms")]
        for kind in DIVE_KINDS:
            rows = build_dive(mono, kind, TOY_BASIS).constraints
            assert [r.name for r in rows[-len(implied):]] == implied
            assert rows[-len(implied) - 1].origin in ("period-fix", "day-fix")

    def test_neighborhood_rejects_unknown_kind(self, toy_instance):
        mono = build_monolithic(toy_instance).freeze()
        for kind in ("week-fixed", "day-decomp"):
            with pytest.raises(FormulationError, match="unknown dive kind"):
                build_dive(mono, kind, TOY_BASIS)
        for kind in DIVE_KINDS:
            assert build_dive(mono, kind, TOY_BASIS).metadata["dive"] == kind

    def test_build_dive_dispatch(self, toy_instance):
        mono = build_monolithic(toy_instance).freeze()
        basis = PeriodAssignment({
            "c1": frozenset({1, 2, 3}),
            "c2": frozenset({4, 5}),
            "c3": frozenset({4, 5}),
        })
        dive = build_dive(mono, PERIOD_FIXED, basis)
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
        basis = decode_surface(model, values)
        assert basis == project_solution(solution)

    @pytest.mark.parametrize("build, decode, tag", [
        (build_surface, decode_surface, ("times", 1, "c1")),
        (build_monolithic, decode_monolithic, ("taught", 1, "rA", "c1")),
    ], ids=["surface", "monolithic"])
    def test_decode_rejects_fractional(self, toy_instance, build, decode,
                                       tag):
        model = build(toy_instance)
        values = np.zeros(len(model.variables))
        values[model.by_tag(tag)] = 0.5
        with pytest.raises(FormulationError, match="non-integral"):
            decode(model, values)


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
        with pytest.raises(FormulationError,
                           match=r"^\{c2, c3\} is not an edge; not a clique$"):
            add_clique_cuts(model, [{"c2", "c3"}], graph)  # not adjacent
        with pytest.raises(FormulationError,
                           match=r"^\{c1, ghost\} is not an edge"):
            add_clique_cuts(model, [{"c1", "ghost"}], graph)  # unknown

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
        neighbours = build_conflict_graph(instance)
        for clique in greedy_clique_cover(neighbours):
            for a, b in itertools.combinations(sorted(clique), 2):
                assert b in neighbours[a]


class TestImpliedBoundCuts:
    def test_monolithic_gets_both_families(self, toy_instance):
        model = build_monolithic(toy_instance)
        added = add_implied_bound_cuts(model)
        assert added == 2 * 3
        names = {c.name for c in model.constraints}
        assert {"implied_days[c1]", "implied_rooms[c1]"} <= names

    def test_surface_gets_day_family_only(self, toy_instance):
        model = build_surface(toy_instance)
        add_implied_bound_cuts(model)
        names = {c.name for c in model.constraints}
        assert "implied_days[c1]" in names
        assert "implied_rooms[c1]" not in names

    def test_validity_on_feasible_points(self):
        rng = random.Random(67)
        instance = random_tiny_instance(rng)
        model = build_monolithic(instance)
        add_implied_bound_cuts(model)
        for solution in feasible_solutions(instance, rng):
            values = encode_solution(instance, model, solution)
            assert model.first_violation(values) is None


class TestPatternCuts:
    def test_cut_added_per_curriculum_day(self, toy_instance):
        model = build_monolithic(toy_instance)
        added = add_pattern_cuts(model)
        # 100, 010, 001 and 101 carry a penalty; one curriculum, two days
        assert added == 4 * 1 * 2
        labels = {c.name.split(",")[-1] for c in model.constraints
                  if c.origin == "pattern-cut"}
        assert labels == {"100]", "010]", "001]", "101]"}

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
            add_pattern_cuts(model)
            for solution in feasible_solutions(instance, rng):
                values = encode_solution(instance, model, solution)
                assert model.first_violation(values) is None
                checked += 1


def with_dropped_rows(model):
    """A copy of a model with the rows the builders leave out written back:
    day_ub (times[p,c] <= sched[d,c] for each period p of day d) and, in the
    full formulations, room_used_lb (sum over p of taught[p,r,c] >=
    uses[r,c])."""
    instance = model.metadata["instance"]
    model = model.copy()
    var = model.by_tag
    for c in instance.courses:
        for d in range(instance.days):
            for p in instance.day_periods(d):
                model.add_constraint(
                    f"day_ub[{c.id},{d},{p}]",
                    [(1.0, var(("times", p, c.id))),
                     (-1.0, var(("sched", d, c.id)))], "<=", 0.0)
    if "room_groups" in model.metadata:
        for key in model.metadata["room_groups"]:
            for c in instance.courses:
                model.add_constraint(
                    f"room_used_lb[{key},{c.id}]",
                    [(1.0, var(("taught", p, key, c.id)))
                     for p in range(instance.periods)]
                    + [(-1.0, var(("uses", key, c.id)))], ">=", 0.0)
    return model


def root_lp(model):
    arrays = _Arrays(model)
    return linprog(arrays, arrays.lo, arrays.hi)[:2]


class TestDroppedRowsCannotBind:
    """sched[d,c] has no objective term and is only capped at the day's
    events or rewarded, and uses[r,c] costs stability >= 0 and is only held
    up, so writing day_ub and room_used_lb back changes no LP or IP
    optimum.  An objective term on sched, or a row capping uses, fails
    here."""

    BRUTE_FORCE_GUARD = 2 ** 14

    @pytest.mark.parametrize("build", [build_monolithic, build_surface,
                                       build_surface2])
    @pytest.mark.parametrize("source", ["toy", *range(20)])
    def test_same_optima(self, build, source, toy_instance):
        instance = (toy_instance if source == "toy"
                    else random_tiny_instance(random.Random(source)))
        model = build(instance)
        add_implied_bound_cuts(model)
        full = with_dropped_rows(model)
        assert len(full.constraints) > len(model.constraints)
        (status, value), (full_status, full_value) = (root_lp(model),
                                                      root_lp(full))
        assert status == full_status
        if status == "optimal":
            assert value == pytest.approx(full_value, rel=0, abs=1e-9)
        search, full_search = branch_and_bound(model), branch_and_bound(full)
        assert search.status == full_search.status
        assert search.lower_bound == full_search.lower_bound
        try:
            exact = brute_force_model(model, self.BRUTE_FORCE_GUARD)
        except SearchSpaceError:
            return
        full_exact = brute_force_model(full, self.BRUTE_FORCE_GUARD)
        assert exact.status == full_exact.status
        assert exact.lower_bound == full_exact.lower_bound
        assert exact.lower_bound == search.lower_bound
