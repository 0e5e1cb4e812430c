import dataclasses
import random

import pytest

from conftest import TOY_CTT, make_instance, random_tiny_instance
from cttsolve.instance import (CttSemanticError, CttSyntaxError,
                               build_conflict_graph, instance_stats,
                               parse_ctt, serialize_ctt)

MINIMAL_CTT = """\
Name: minimal
Courses: 1
Rooms: 1
Days: 1
Periods_per_day: 1
Curricula: 1
Constraints: 0

COURSES:
c1 t1 1 1 10

ROOMS:
r1 20

CURRICULA:
q1 1 c1

UNAVAILABILITY_CONSTRAINTS:

END.
"""


class TestParsing:
    def test_toy_fields(self, toy_instance):
        assert toy_instance.name == "toy"
        assert len(toy_instance.courses) == 3
        assert len(toy_instance.rooms) == 2
        assert toy_instance.periods == 6
        assert toy_instance.course_by_id["c1"].events == 3
        assert toy_instance.course_by_id["c1"].min_days == 2
        assert toy_instance.room_by_id["rB"].capacity == 20
        assert ("c1", 0) in toy_instance.unavailability

    def test_minimal_instance_valid(self):
        instance = parse_ctt(MINIMAL_CTT)
        assert instance.periods == 1
        assert instance.courses[0].events == 1

    def test_default_weights(self, toy_instance):
        assert dataclasses.astuple(toy_instance.weights) == (1, 5, 2, 1)

    def test_weight_override(self):
        instance = parse_ctt(MINIMAL_CTT, weights=(1, 5, 2, 0))
        assert instance.weights.stability == 0

    def test_unavailability_references_unknown_course(self):
        text = MINIMAL_CTT.replace("UNAVAILABILITY_CONSTRAINTS:\n",
                                   "UNAVAILABILITY_CONSTRAINTS:\nghost 0 0\n")
        text = text.replace("Constraints: 0", "Constraints: 1")
        with pytest.raises(CttSemanticError):
            parse_ctt(text)

    @pytest.mark.parametrize("entry", ["c1 0 3", "c1 -1 4"])
    def test_unavailability_day_or_period_out_of_range(self, entry):
        # both would index a period inside the toy's 2 x 3 grid
        with pytest.raises(CttSemanticError, match=f"line 22: .*{entry}"):
            parse_ctt(TOY_CTT.replace("c1 0 0", entry))

    def test_curriculum_lists_course_twice(self):
        with pytest.raises(CttSemanticError,
                           match="line 19: .*twice: 'q1 2 c1 c1'"):
            parse_ctt(TOY_CTT.replace("q1 2 c1 c2", "q1 2 c1 c1"))

    def test_repeated_unavailability(self):
        # the header counts both lines, so only the repeat itself is wrong
        text = TOY_CTT.replace("c1 0 0\n", "c1 0 0\nc1 0 0\n")
        text = text.replace("Constraints: 1", "Constraints: 2")
        with pytest.raises(CttSemanticError,
                           match="line 23: repeated unavailability: 'c1 0 0'"):
            parse_ctt(text)

    def test_negative_room_capacity(self):
        with pytest.raises(CttSemanticError,
                           match="room 'r1' has negative capacity"):
            parse_ctt(MINIMAL_CTT.replace("r1 20", "r1 -5"))

    def test_truncated_file_is_syntax_error(self):
        with pytest.raises(CttSyntaxError) as err:
            parse_ctt(TOY_CTT.replace("END.\n", ""))
        assert err.value.line_no > 0

    def test_malformed_course_line(self):
        with pytest.raises(CttSyntaxError):
            parse_ctt(MINIMAL_CTT.replace("c1 t1 1 1 10", "c1 t1 1"))

    def test_header_count_mismatch(self):
        with pytest.raises(CttSemanticError):
            parse_ctt(MINIMAL_CTT.replace("Courses: 1", "Courses: 2"))

    def test_unknown_header_key(self):
        with pytest.raises(CttSyntaxError):
            parse_ctt("Bogus: 1\n" + MINIMAL_CTT)

    def test_repeated_header_key(self):
        # the later value used to win: 3 days where the file said 1 first
        with pytest.raises(CttSyntaxError,
                           match="line 5: repeated header key 'Days'"):
            parse_ctt(MINIMAL_CTT.replace("Days: 1\n", "Days: 1\nDays: 3\n"))

    def test_period_indexing(self, toy_instance):
        assert toy_instance.day_of(0) == 0
        assert toy_instance.day_of(3) == 1
        assert list(toy_instance.day_periods(1)) == [3, 4, 5]


class TestRoundTrip:
    def test_toy_round_trip(self, toy_instance):
        assert parse_ctt(serialize_ctt(toy_instance)) == toy_instance

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(25):
            instance = random_tiny_instance(rng)
            weights = dataclasses.astuple(instance.weights)
            assert parse_ctt(serialize_ctt(instance),
                             weights=weights) == instance


class TestConflictGraph:
    def test_teacher_and_curriculum_edges(self, toy_instance):
        graph = build_conflict_graph(toy_instance)
        assert graph.are_adjacent("c1", "c3")  # same teacher
        assert graph.are_adjacent("c1", "c2")  # same curriculum
        assert not graph.are_adjacent("c2", "c3")

    def test_overlapping_curricula(self, lectures_instance):
        graph = build_conflict_graph(lectures_instance)
        assert len(graph.edges) == 2
        assert graph.are_adjacent("Math101", "Algo101")
        assert graph.are_adjacent("Juggling", "Algo101")
        assert not graph.are_adjacent("Juggling", "Math101")

    def test_single_course_no_edges(self):
        instance = parse_ctt(MINIMAL_CTT)
        assert len(build_conflict_graph(instance).edges) == 0

    def test_symmetric_irreflexive(self, toy_instance):
        graph = build_conflict_graph(toy_instance)
        for a, b in graph.edges:
            assert a < b
            assert graph.are_adjacent(b, a)

    def test_removing_curriculum_never_adds_edges(self, toy_instance):
        full = build_conflict_graph(toy_instance)
        reduced_instance = make_instance(
            [(c.id, c.teacher, c.events, c.min_days, c.students)
             for c in toy_instance.courses],
            [(r.id, r.capacity) for r in toy_instance.rooms],
            [], days=toy_instance.days,
            periods_per_day=toy_instance.periods_per_day)
        reduced = build_conflict_graph(reduced_instance)
        assert reduced.edges <= full.edges


class TestStats:
    def test_toy_stats(self, toy_instance):
        stats = instance_stats(toy_instance)
        assert stats.events == 7
        assert stats.frequency == pytest.approx(7 / 12)
        seats = 6 * (32 + 20)
        demand = 3 * 30 + 2 * 25 + 2 * 12
        assert stats.utilisation == pytest.approx(demand / seats)
        assert stats.conflict_edges == 2

    def test_density_matches_edge_count(self, toy_instance):
        stats = instance_stats(toy_instance)
        assert stats.conflict_density == pytest.approx(2 / 3)
