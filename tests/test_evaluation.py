import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_instance, random_tiny_instance
from cttsolve.evaluation import (PenaltyVector, Solution, check_hard,
                                 count_isolated, evaluate, format_solution,
                                 gap, objective, parse_solution, penalties)
from cttsolve.instance import CttSemanticError, WeightVector
from oracles import (oracle_capacity, oracle_compactness, oracle_isolated,
                     oracle_min_days, oracle_objective, oracle_stability)


def random_solution(instance, rng):
    """Random event placement honouring per-course distinct periods only."""
    assignments = {}
    for c in instance.courses:
        periods = rng.sample(range(instance.periods), c.events)
        rooms = [rng.choice(instance.rooms).id for _ in periods]
        assignments[c.id] = tuple(zip(periods, rooms))
    return Solution(assignments)


class TestCheckHard:
    def test_feasible_solution(self, toy_instance):
        solution = Solution({
            "c1": ((1, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((4, "rB"), (5, "rB")),
        })
        assert check_hard(toy_instance, solution) == []

    def test_room_clash(self, toy_instance):
        solution = Solution({
            "c1": ((1, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((4, "rA"), (0, "rB")),
        })
        kinds = {v.kind for v in check_hard(toy_instance, solution)}
        assert "room-clash" in kinds

    def test_curriculum_clash(self, lectures_instance):
        solution = Solution({
            "Juggling": ((0, "r1"),),
            "Math101": ((1, "r1"), (2, "r1")),
            "Algo101": ((1, "r2"), (3, "r2")),
        })
        kinds = {v.kind for v in check_hard(lectures_instance, solution)}
        assert kinds == {"curriculum-clash"}

    def test_teacher_clash(self, toy_instance):
        solution = Solution({
            "c1": ((1, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((1, "rB"), (5, "rB")),  # c1 and c3 share teacher t1
        })
        kinds = {v.kind for v in check_hard(toy_instance, solution)}
        assert "teacher-clash" in kinds

    def test_forbidden_period(self, toy_instance):
        solution = Solution({
            "c1": ((0, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((4, "rB"), (5, "rB")),
        })
        kinds = {v.kind for v in check_hard(toy_instance, solution)}
        assert "forbidden-period" in kinds

    def test_event_count(self, toy_instance):
        solution = Solution({
            "c1": ((1, "rA"), (2, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((4, "rB"), (5, "rB")),
        })
        kinds = {v.kind for v in check_hard(toy_instance, solution)}
        assert "event-count" in kinds

    def test_unknown_references(self, toy_instance):
        solution = Solution({"ghost": ((0, "rX"),)})
        kinds = {v.kind for v in check_hard(toy_instance, solution)}
        assert kinds == {"unknown-reference"}


class TestPenalties:
    def test_capacity_overflow(self):
        instance = make_instance(
            [("c1", "t1", 1, 1, 50)], [("r1", 40)], [("q1", ["c1"])])
        solution = Solution({"c1": ((0, "r1"),)})
        assert penalties(instance, solution).capacity == 10

    def test_min_days_shortfall_and_clamp(self):
        instance = make_instance(
            [("c1", "t1", 4, 3, 5)], [("r1", 40)], [("q1", ["c1"])],
            days=4, periods_per_day=2)
        two_days = Solution({"c1": ((0, "r1"), (1, "r1"), (2, "r1"),
                                    (3, "r1"))})
        assert penalties(instance, two_days).spread == 1
        four_days = Solution({"c1": ((0, "r1"), (2, "r1"), (4, "r1"),
                                     (6, "r1"))})
        assert penalties(instance, four_days).spread == 0

    @pytest.mark.parametrize("pattern,expected", [
        ((1, 0, 0, 0), 1),
        ((1, 1, 0, 0), 0),
        ((1, 0, 1, 0), 2),
        ((1, 1, 1, 1), 0),
        ((0, 0, 0, 0), 0),
        ((1, 0, 0, 1), 2),
    ])
    def test_isolated_patterns(self, pattern, expected):
        assert count_isolated([bool(b) for b in pattern]) == expected

    def test_isolated_matches_oracle_all_patterns(self):
        for k in range(1, 11):
            for bits in itertools.product([False, True], repeat=k):
                assert count_isolated(list(bits)) == oracle_isolated(bits)

    def test_compactness_counts_each_curriculum(self, lectures_instance):
        # Algo101 at period 1 is adjacent to Math101 (cur1) but isolated
        # within cur2, so it scores once for cur2.
        solution = Solution({
            "Juggling": ((4, "r1"),),
            "Math101": ((0, "r1"), (2, "r1")),
            "Algo101": ((1, "r2"), (6, "r2")),
        })
        assert penalties(lectures_instance, solution).compactness == 4

    def test_stability(self):
        instance = make_instance(
            [("c1", "t1", 3, 1, 5)],
            [("rA", 9), ("rB", 9), ("rC", 9)], [("q1", ["c1"])],
            days=2, periods_per_day=3)
        solution = Solution({"c1": ((0, "rA"), (1, "rB"), (2, "rC"))})
        assert penalties(instance, solution).stability == 2
        one_room = Solution({"c1": ((0, "rA"), (1, "rA"), (2, "rA"))})
        assert penalties(instance, one_room).stability == 0

    def test_random_solutions_match_oracles(self):
        rng = random.Random(11)
        for _ in range(60):
            instance = random_tiny_instance(rng)
            solution = random_solution(instance, rng)
            p = penalties(instance, solution)
            assert p.capacity == oracle_capacity(instance, solution)
            assert p.spread == oracle_min_days(instance, solution)
            assert p.compactness == oracle_compactness(instance, solution)
            assert p.stability == oracle_stability(instance, solution)
            assert evaluate(instance, solution) == oracle_objective(
                instance, solution)


class TestObjective:
    def test_weighted_dot_product(self):
        assert objective(WeightVector(1, 5, 0, 1),
                         PenaltyVector(4, 0, 350, 1)) == 5

    def test_zero_weights(self):
        assert objective(WeightVector(0, 0, 0, 0),
                         PenaltyVector(2294, 30, 350, 93)) == 0

    @given(st.tuples(*[st.integers(0, 9)] * 4), st.tuples(
        *[st.integers(0, 50)] * 4), st.tuples(*[st.integers(0, 50)] * 4))
    def test_linearity(self, w, p1, p2):
        weights = WeightVector(*w)
        a, b = PenaltyVector(*p1), PenaltyVector(*p2)
        total = PenaltyVector(*(x + y for x, y in zip(p1, p2)))
        assert objective(weights, total) == objective(weights, a) \
            + objective(weights, b)

    def test_room_swap_neutrality(self, toy_instance):
        base = Solution({
            "c1": ((1, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((4, "rB"), (5, "rB")),
        })
        swapped = Solution({
            "c1": ((1, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rB"), (5, "rA")),
            "c3": ((4, "rA"), (5, "rB")),
        })
        pb, ps = penalties(toy_instance, base), penalties(toy_instance, swapped)
        assert check_hard(toy_instance, swapped) == []
        assert ps.spread == pb.spread
        assert ps.compactness == pb.compactness


class TestGap:
    @pytest.mark.parametrize("ub,lb,expected", [
        (9, 5, 44.4),
        (36, 35, 2.8),
        (7, 7, 0.0),
        (0, 0, 0.0),
        (100, 0, 100.0),
    ])
    def test_values(self, ub, lb, expected):
        assert gap(ub, lb) == expected

    def test_half_up_rounding(self):
        # 44.45 exactly: half-up gives 44.5 where banker's would give 44.4
        assert gap(10000, 5555) == 44.5
        assert gap(10000, 5545) == 44.6

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            gap(5, 9)
        with pytest.raises(ValueError):
            gap(5, -1)


class TestSolutionIo:
    def test_format_parse_round_trip(self, toy_instance):
        solution = Solution({
            "c1": ((1, "rA"), (2, "rA"), (3, "rA")),
            "c2": ((4, "rA"), (5, "rA")),
            "c3": ((4, "rB"), (5, "rB")),
        })
        text = format_solution(toy_instance, solution)
        assert parse_solution(text, toy_instance) == solution

    @pytest.mark.parametrize("entry", ["c1 rA 0 3", "c1 rA -1 4"])
    def test_day_or_period_out_of_range(self, toy_instance, entry):
        # both would index a period inside the toy's 2 x 3 grid
        with pytest.raises(CttSemanticError, match=f"line 2: .*{entry}"):
            parse_solution(f"c2 rA 0 1\n{entry}\n", toy_instance)

    def test_line_format(self, toy_instance):
        solution = Solution({"c1": ((4, "rA"),)})
        assert format_solution(toy_instance, solution) == "c1 rA 1 1\n"
