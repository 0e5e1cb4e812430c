import dataclasses
import random

import pytest

from conftest import (TOY_CTT, load_generate, make_instance,
                      random_tiny_instance)
from cttsolve.instance import (CttSemanticError, CttSyntaxError,
                               build_conflict_graph, instance_stats,
                               parse_ctt, serialize_ctt)
from oracles import oracle_neighbours

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

    @pytest.mark.parametrize("forbidden, ok", [
        (["c1 0 0", "c1 0 1", "c1 0 2"], True),
        (["c1 0 0", "c1 0 1", "c1 0 2", "c1 1 0"], False),
    ], ids=["events-fill-the-rest", "one-too-few"])
    def test_events_need_available_periods(self, forbidden, ok):
        # c1 has 3 events in the toy's 6 periods; c2's entry counts for c2
        lines = forbidden + ["c2 1 1"]
        text = TOY_CTT.replace("c1 0 0\n", "".join(f"{e}\n" for e in lines))
        text = text.replace("Constraints: 1", f"Constraints: {len(lines)}")
        if ok:
            assert parse_ctt(text).course_by_id["c1"].events == 3
        else:
            with pytest.raises(CttSemanticError, match="course 'c1' has more"
                               " events than available periods"):
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
        neighbours = build_conflict_graph(toy_instance)
        assert "c3" in neighbours["c1"]  # same teacher
        assert "c2" in neighbours["c1"]  # same curriculum
        assert "c3" not in neighbours["c2"]

    def test_overlapping_curricula(self, lectures_instance):
        assert build_conflict_graph(lectures_instance) == {
            "Juggling": {"Algo101"}, "Math101": {"Algo101"},
            "Algo101": {"Juggling", "Math101"}}

    def test_single_course_no_edges(self):
        instance = parse_ctt(MINIMAL_CTT)
        assert build_conflict_graph(instance) == {"c1": frozenset()}

    def test_symmetric_irreflexive(self, toy_instance, lectures_instance):
        for instance in (toy_instance, lectures_instance):
            neighbours = build_conflict_graph(instance)
            for a, others in neighbours.items():
                assert a not in others
                for b in others:
                    assert a in neighbours[b]

    def test_keys_follow_course_order(self, lectures_instance):
        instance = dataclasses.replace(
            lectures_instance, courses=lectures_instance.courses[::-1])
        assert list(build_conflict_graph(instance)) == [
            "Algo101", "Math101", "Juggling"]

    def test_matches_pairwise_oracle_on_tiny_instances(self):
        edges = 0
        for seed in range(300):
            instance = random_tiny_instance(random.Random(seed))
            neighbours = build_conflict_graph(instance)
            assert neighbours == oracle_neighbours(instance), seed
            assert list(neighbours) == [c.id for c in instance.courses]
            edges += sum(map(len, neighbours.values()))
        assert edges > 0

    def test_matches_pairwise_oracle_on_generated_streams(self):
        generate = load_generate()
        for preset, count in (("small", 4), ("mid", 4), ("comp", 1)):
            for instance in generate.load(
                    generate.corpus_texts(preset, 1, count)):
                neighbours = build_conflict_graph(instance)
                assert neighbours == oracle_neighbours(instance), \
                    instance.name
                assert list(neighbours) == [c.id for c in instance.courses]

    def test_removing_curriculum_never_adds_edges(self, toy_instance):
        full = build_conflict_graph(toy_instance)
        reduced_instance = make_instance(
            [(c.id, c.teacher, c.events, c.min_days, c.students)
             for c in toy_instance.courses],
            [(r.id, r.capacity) for r in toy_instance.rooms],
            [], days=toy_instance.days,
            periods_per_day=toy_instance.periods_per_day)
        reduced = build_conflict_graph(reduced_instance)
        assert all(reduced[c] <= full[c] for c in full)


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
