"""The bitmask versions of greedy_periods, check_hard and penalties against
the set-based references they replaced (``tests/oracles.py``) and the
penalty oracles, on seeded tiny instances and on the benchmark generator's
small, mid and comp streams."""

import random
from collections import Counter

import pytest

from conftest import load_generate, random_tiny_instance
from cttsolve.evaluation import Solution, check_hard, penalties
from cttsolve.formulations import greedy_periods, match_rooms
from cttsolve.instance import build_conflict_graph
from oracles import (oracle_capacity, oracle_compactness, oracle_min_days,
                     oracle_stability, reference_check_hard,
                     reference_greedy_periods)

TINY_SEEDS = range(400)
# bench/generate.py's presets with the instances each stream draws
STREAMS = {"small": 4, "mid": 4, "comp": 1}
STREAM_SEEDS = range(1, 6)


@pytest.fixture(scope="module")
def generated():
    """The small, mid and comp streams of bench/generate.py at seeds 1-5."""
    generate = load_generate()
    return [instance for preset, count in STREAMS.items()
            for seed in STREAM_SEEDS
            for instance in generate.load(
                generate.corpus_texts(preset, seed, count))]


def tiny_instances():
    return [random_tiny_instance(random.Random(seed)) for seed in TINY_SEEDS]


def timetable(instance, rng):
    """The greedy timetable if there is one, else events at random."""
    basis = greedy_periods(instance, build_conflict_graph(instance))
    if basis is not None:
        return match_rooms(instance, basis)
    return Solution({
        c.id: tuple((p, rng.choice(instance.rooms).id)
                    for p in rng.sample(range(instance.periods), c.events))
        for c in instance.courses})


def corrupt(instance, solution, rng, kinds):
    """The solution with one to three faults of the given kinds."""
    events = {cid: list(pairs) for cid, pairs in solution.assignments.items()}
    for kind in rng.choices(kinds, k=rng.randint(1, 3)):
        placed = [(cid, k) for cid, pairs in events.items()
                  for k in range(len(pairs))]
        if not placed:
            break
        cid, k = rng.choice(placed)
        period, room = events[cid][k]
        if kind == "room-clash":  # onto another event's slot
            other, j = rng.choice(placed)
            events[cid][k] = events[other][j]
        elif kind == "twice" and len(events[cid]) > 1:
            events[cid][k] = (events[cid][k - 1][0], room)
        elif kind == "move":  # teacher and curriculum clashes
            events[cid][k] = (rng.randrange(instance.periods), room)
        elif kind == "forbidden" and instance.unavailability:
            cid, period = rng.choice(sorted(instance.unavailability))
            if events.get(cid):
                events[cid][0] = (period, events[cid][0][1])
        elif kind == "count":
            if rng.random() < 0.5:
                events[cid].pop(k)
            else:
                events[cid].append((rng.randrange(instance.periods), room))
        elif kind == "drop-course":
            events[cid] = []
        elif kind == "unknown-room":
            events[cid][k] = (period, "nowhere")
        elif kind == "unknown-course":
            events["ghost"] = [(period, room)]
        elif kind == "unknown-period":
            events[cid][k] = (rng.choice([-1, instance.periods,
                                          instance.periods + 3]), room)
    return Solution({cid: tuple(pairs) for cid, pairs in events.items()})


CLASHES = ("room-clash", "twice", "move", "forbidden", "count",
           "drop-course")
UNKNOWN = ("unknown-room", "unknown-course", "unknown-period")


class TestGreedyPeriods:
    def test_matches_reference_on_tiny_instances(self):
        outcomes = Counter()
        for instance in tiny_instances():
            basis = greedy_periods(instance, build_conflict_graph(instance))
            assert basis == reference_greedy_periods(instance), instance.name
            outcomes[basis is None] += 1
        assert outcomes[False] >= 300 and outcomes[True] >= 1

    def test_matches_reference_on_generated_streams(self, generated):
        for instance in generated:
            basis = greedy_periods(instance, build_conflict_graph(instance))
            assert basis is not None
            assert basis == reference_greedy_periods(instance), instance.name
            assert list(basis.periods) == [c.id for c in instance.courses]


class TestCheckHard:
    @pytest.mark.parametrize("kinds", [CLASHES, CLASHES + UNKNOWN],
                             ids=["clashes", "with-unknowns"])
    def test_matches_reference_on_corrupted_timetables(self, kinds,
                                                      generated):
        rng = random.Random(len(kinds))
        seen = Counter()
        for instance in tiny_instances()[:150] + generated:
            solution = timetable(instance, rng)
            assert check_hard(instance, solution) == reference_check_hard(
                instance, solution)
            for _ in range(4):
                bad = corrupt(instance, solution, rng, kinds)
                violations = check_hard(instance, bad)
                assert violations == reference_check_hard(instance, bad)
                seen.update(v.kind for v in violations)
        expected = {"room-clash", "course-clash", "teacher-clash",
                    "curriculum-clash", "forbidden-period", "event-count"}
        if kinds != CLASHES:
            expected.add("unknown-reference")
        assert expected <= set(seen)


class TestPenalties:
    def test_matches_oracles_with_periods_out_of_range(self, generated):
        rng = random.Random(5)
        for instance in tiny_instances()[:150] + generated:
            solution = timetable(instance, rng)
            for shift in (0, -1, 1, -instance.periods, instance.periods, 7):
                moved = Solution({
                    cid: tuple((p + shift if k == 0 else p, room)
                               for k, (p, room) in enumerate(pairs))
                    for cid, pairs in solution.assignments.items()})
                p = penalties(instance, moved)
                assert p.capacity == oracle_capacity(instance, moved)
                assert p.spread == oracle_min_days(instance, moved)
                assert p.compactness == oracle_compactness(instance, moved)
                assert p.stability == oracle_stability(instance, moved)
