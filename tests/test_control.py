import dataclasses
import json
import math
import random
from types import SimpleNamespace

import pytest

from conftest import make_instance, random_tiny_instance
from cttsolve import control
from cttsolve.control import (STRATEGIES, BoundsLedger, ControlError,
                              RunReport, StrategyConfig, run_strategy,
                              solution_from_payload)
from cttsolve.evaluation import Solution, check_hard, evaluate
from cttsolve.formulations import DIVE_KINDS
from cttsolve.solver import brute_force_instance, external_solve


class TestLedger:
    def test_monotone_lower(self):
        ledger = BoundsLedger()
        assert ledger.record_lower(1.0, "surface")
        assert not ledger.record_lower(0.5, "surface")
        assert ledger.record_lower(2.0, "surface")
        assert ledger.lower == 2.0
        assert [e.value for e in ledger.history] == [1.0, 2.0]

    def test_monotone_upper(self):
        ledger = BoundsLedger()
        assert ledger.record_upper(10.0, "dive")
        assert not ledger.record_upper(10.0, "dive")
        assert ledger.record_upper(7.0, "dive")
        assert ledger.upper == 7.0

    def test_logical_clock(self):
        ledger = BoundsLedger()
        ledger.record_lower(1.0, "surface")
        ledger.record_upper(9.0, "dive")
        assert [e.at for e in ledger.history] == [1.0, 2.0]

    def test_gap(self):
        ledger = BoundsLedger()
        assert ledger.gap() is None
        ledger.record_lower(5.0, "surface")
        ledger.record_upper(9.0, "dive")
        assert ledger.gap() == 44.4

    def test_lower_above_upper_rejected(self):
        ledger = BoundsLedger()
        ledger.record_upper(5.0, "dive")
        assert ledger.record_lower(5.0 + 1e-7, "surface")  # within tolerance
        with pytest.raises(ControlError):
            ledger.record_lower(6.0, "surface")

    def test_gap_with_lower_just_above_upper(self):
        ledger = BoundsLedger()
        ledger.record_upper(3, "dive")
        assert ledger.record_lower(3.0000005, "exact")  # within tolerance
        assert ledger.gap() == 0.0

    def test_upper_below_lower_rejected(self):
        ledger = BoundsLedger()
        ledger.record_lower(5.0, "surface")
        assert ledger.record_upper(5.0 - 1e-7, "dive")  # within tolerance
        with pytest.raises(ControlError):
            ledger.record_upper(4.0, "dive")

    def test_best_solution_tracked(self):
        ledger = BoundsLedger()
        solution = Solution({"c1": ((0, "r1"),)})
        ledger.record_upper(3.0, "dive", solution)
        ledger.record_upper(5.0, "dive", Solution({}))  # ignored, worse
        assert ledger.best_solution == solution


def check_dive_order(instance) -> int:
    """Check the order in which contract and anytime dive on `instance`, and
    return how many surface incumbents they dived from.  Each incumbent beats
    the one before, so the newest source is the best: contract dives kind by
    kind, newest source first; anytime dives from each source as it arrives,
    one dive of each kind in DIVE_KINDS order."""
    contract = run_strategy(instance).dives
    anytime = run_strategy(instance, StrategyConfig(strategy="anytime")).dives
    objective = {d.discovery_index: d.source_objective for d in contract}
    n = len(objective)
    assert sorted(objective) == list(range(n))
    assert [(d.kind, d.discovery_index) for d in contract] == [
        (kind, i) for kind in DIVE_KINDS for i in reversed(range(n))]
    assert [(d.kind, d.discovery_index) for d in anytime] == [
        (kind, i) for i in range(n) for kind in DIVE_KINDS]
    for d in contract + anytime:
        assert d.source_objective == objective[d.discovery_index]
    assert all(objective[i] > objective[i + 1] for i in range(n - 1))
    return n


class TestDiveOrder:
    def test_tight_instance(self, tight_instance):
        assert check_dive_order(tight_instance) >= 1

    def test_random_tiny_instances(self):
        # about one tiny instance in 60 gives the surface two incumbents
        rng = random.Random(97)
        checked = 0
        while checked < 3:
            if check_dive_order(random_tiny_instance(rng)) >= 2:
                checked += 1


class TestConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ControlError):
            StrategyConfig(strategy="magic")

    @pytest.mark.parametrize("budget", [
        {"per_dive_time": 0}, {"total_time": -5},
        {"per_dive_time": float("nan")}, {"surface_nodes": -1},
        {"dive_nodes": -1}])
    def test_budgets_checked_up_front(self, budget):
        with pytest.raises(ControlError, match=next(iter(budget))):
            StrategyConfig(**budget)

    @pytest.mark.parametrize("option", [
        {"per_dive_time": 0.5}, {"dive_nodes": 10},
        {"surface_model": "surface2"}])
    def test_exact_rejects_options_it_ignores(self, option):
        with pytest.raises(ControlError, match="exact strategy has no"):
            StrategyConfig(strategy="exact", **option)


class TestStrategies:
    def test_contract_brackets_optimum(self):
        rng = random.Random(73)
        checked = 0
        while checked < 6:
            instance = random_tiny_instance(rng)
            exact = brute_force_instance(instance)
            result = run_strategy(instance)
            if exact.status == "infeasible":
                assert result.status == "infeasible"
                continue
            optimum = exact.lower_bound
            assert result.lower_bound is not None
            assert result.lower_bound <= optimum + 1e-9
            if result.upper_bound is not None:
                assert result.upper_bound >= optimum - 1e-9
            checked += 1

    @pytest.mark.parametrize("strategy", ["contract", "anytime"])
    def test_surface2_brackets_optimum(self, strategy):
        rng = random.Random(89)
        checked = 0
        while checked < 5:
            instance = random_tiny_instance(rng)
            exact = brute_force_instance(instance)
            config = StrategyConfig(strategy=strategy,
                                    surface_model="surface2")
            result = run_strategy(instance, config)
            if exact.status == "infeasible":
                assert result.status == "infeasible"
                continue
            optimum = exact.lower_bound
            assert result.lower_bound <= optimum + 1e-9
            assert result.upper_bound is not None
            assert result.upper_bound >= optimum - 1e-9
            solution = solution_from_payload(result.solution)
            assert check_hard(instance, solution) == []
            assert evaluate(instance, solution) == result.upper_bound
            checked += 1

    def test_best_solution_feasible_and_consistent(self, tight_instance):
        result = run_strategy(tight_instance)
        assert result.upper_bound is not None
        solution = solution_from_payload(result.solution)
        assert check_hard(tight_instance, solution) == []
        assert evaluate(tight_instance, solution) == result.upper_bound

    def test_anytime_one_dive_per_incumbent(self, tight_instance):
        config = StrategyConfig(strategy="anytime")
        result = run_strategy(tight_instance, config)
        indices = [d.discovery_index for d in result.dives]
        # one episode per incumbent, with one dive of each kind
        assert indices == sorted(indices)
        for i in set(indices):
            assert [d.kind for d in result.dives
                    if d.discovery_index == i] == list(DIVE_KINDS)

    def test_strategies_agree_with_full_budgets(self):
        rng = random.Random(79)
        agreements = 0
        while agreements < 4:
            instance = random_tiny_instance(rng)
            a = run_strategy(instance)
            b = run_strategy(instance, StrategyConfig(strategy="anytime"))
            assert a.lower_bound == b.lower_bound
            if a.upper_bound is None and b.upper_bound is None:
                continue
            assert a.upper_bound == b.upper_bound
            agreements += 1

    def test_surface_infeasibility_is_final(self):
        instance = make_instance(
            [("c1", "t1", 2, 1, 5), ("c2", "t2", 2, 1, 5)],
            [("r1", 9)], [("q1", ["c1", "c2"])],
            days=1, periods_per_day=2)
        result = run_strategy(instance)
        assert result.status == "infeasible"
        assert result.upper_bound is None

    def test_exact_strategy_matches_brute_force(self, tight_instance):
        exact = brute_force_instance(tight_instance)
        result = run_strategy(tight_instance, StrategyConfig(strategy="exact"))
        assert result.status == "optimal"
        assert result.upper_bound == exact.lower_bound

    def test_exact_records_each_incumbent_when_found(self):
        # one teacher for all six events, so each period holds one; the
        # search finds a timetable of penalty 2 before the optimum 0
        instance = make_instance(
            [("c0", "t1", 1, 1, 10), ("c1", "t1", 3, 1, 10),
             ("c2", "t1", 2, 1, 30)],
            [("r1", 40), ("r2", 25)],
            [("q1", ["c0", "c2"]), ("q2", ["c2", "c1", "c0"])])
        result = run_strategy(instance, StrategyConfig(strategy="exact"))
        uppers = [e.value for e in result.history if e.kind == "upper"]
        assert [e.kind for e in result.history] == (
            ["upper"] * len(uppers) + ["lower"])
        assert len(uppers) >= 2
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert result.status == "optimal" and result.upper_bound == 0

    @pytest.mark.parametrize("strategy", ["exact", "contract", "anytime"])
    def test_pattern_cuts_need_short_days(self, monkeypatch, strategy):
        instance = make_instance([("c1", "t1", 1, 1, 5)], [("r1", 9)], [],
                                 days=1, periods_per_day=7)

        def no_search(model, config):
            raise AssertionError("searched before rejecting the cuts")

        monkeypatch.setattr(control, "branch_and_bound", no_search)
        config = StrategyConfig(strategy=strategy, pattern_cuts=True)
        with pytest.raises(ControlError, match="at most 6 periods"):
            run_strategy(instance, config)

    def test_exact_adds_pattern_cuts(self, tight_instance, monkeypatch):
        calls = []
        real = control.add_pattern_cuts

        def counting(model):
            calls.append(model.name)
            return real(model)

        monkeypatch.setattr(control, "add_pattern_cuts", counting)
        optimum = brute_force_instance(tight_instance).lower_bound
        result = run_strategy(tight_instance, StrategyConfig(
            strategy="exact", pattern_cuts=True))
        assert len(calls) == 1
        assert result.lower_bound <= optimum <= result.upper_bound

    def test_monolithic_built_at_first_dive(self, tight_instance,
                                            monkeypatch):
        built = []
        real = control.build_monolithic

        def counting(instance):
            built.append(instance.name)
            return real(instance)

        monkeypatch.setattr(control, "build_monolithic", counting)
        result = run_strategy(tight_instance, StrategyConfig(surface_nodes=0))
        assert result.dives == []
        assert built == []
        result = run_strategy(tight_instance)
        assert len(result.dives) > 1
        assert built == ["tight"]  # once, shared by every dive

    @pytest.mark.parametrize("strategy", ["contract", "anytime"])
    def test_no_dive_after_deadline(self, tight_instance, monkeypatch,
                                    strategy):
        # a fake clock passes the deadline as the surface search starts
        clock = SimpleNamespace(now=0.0)
        clock.monotonic = lambda: clock.now
        monkeypatch.setattr(control, "time", clock)
        real = control.branch_and_bound

        def late_surface(model, config):
            if config.on_incumbent is not None:
                clock.now = 1000.0
            return real(model, config)

        monkeypatch.setattr(control, "branch_and_bound", late_surface)
        config = StrategyConfig(strategy=strategy, total_time=100.0)
        result = run_strategy(tight_instance, config)
        assert result.surface_nodes > 0
        assert result.dives == []
        assert result.upper_bound is None

    @pytest.mark.parametrize("strategy, expected", [
        ("contract", 50.0), ("anytime", 100.0), ("exact", 100.0)])
    def test_contract_leaves_half_the_total_time_to_dive(
            self, tight_instance, monkeypatch, strategy, expected):
        # a frozen clock keeps the whole total time remaining; the room
        # search runs first under half of it, then the surface search
        monkeypatch.setattr(control, "time",
                            SimpleNamespace(monotonic=lambda: 0.0))
        limits = []
        real = control.branch_and_bound

        def recording(model, config):
            limits.append((model.name, config.time_limit))
            return real(model, config)

        monkeypatch.setattr(control, "branch_and_bound", recording)
        result = run_strategy(tight_instance, StrategyConfig(
            strategy=strategy, total_time=100.0))
        if strategy == "exact":
            assert limits == [("monolithic", expected)]
            return
        assert result.dives
        assert [(n, t) for n, t in limits if n in ("surface", "rooms")] == [
            ("rooms", 50.0), ("surface", expected)]
        assert {t for n, t in limits if n.startswith("monolithic+")} == {100.0}

    @pytest.mark.parametrize("strategy", ["contract", "anytime", "exact"])
    def test_only_dives_plunge(self, tight_instance, monkeypatch, strategy):
        searches = []
        real = control.branch_and_bound

        def recording(model, config):
            searches.append((model.metadata.get("dive"), config.plunge))
            return real(model, config)

        monkeypatch.setattr(control, "branch_and_bound", recording)
        run_strategy(tight_instance, StrategyConfig(strategy=strategy))
        assert all(plunge == (dive is not None) for dive, plunge in searches)
        kinds = {dive for dive, _ in searches}
        if strategy == "exact":
            assert kinds == {None}
        else:
            assert kinds == {None, *DIVE_KINDS}

    def test_history_monotone(self, tight_instance):
        result = run_strategy(tight_instance)
        lowers = [e.value for e in result.history if e.kind == "lower"]
        uppers = [e.value for e in result.history if e.kind == "upper"]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)

    def test_lower_bound_from_surface_is_valid(self):
        rng = random.Random(83)
        for _ in range(5):
            instance = random_tiny_instance(rng)
            exact = brute_force_instance(instance)
            if exact.status != "optimal":
                continue
            result = run_strategy(instance)
            assert result.lower_bound <= exact.lower_bound + 1e-9

    def test_determinism_without_time_limits(self, tight_instance):
        config = StrategyConfig(surface_nodes=200, dive_nodes=50)
        a = run_strategy(tight_instance, config)
        b = run_strategy(tight_instance, config)
        assert a.to_json() == b.to_json()


def lower_events(result) -> list[tuple[float, str]]:
    return [(e.value, e.source) for e in result.history if e.kind == "lower"]


class TestExternalEngine:
    def test_every_strategy_runs_on_the_external_adapter(
            self, tmp_path, monkeypatch, self_adapter):
        """Every search goes through the module global ``branch_and_bound``,
        so swapping it for the external adapter running ``cttsolve
        solve-mps`` puts each search in a child process.  That command
        prints its status and lower bound, so the children's proofs reach
        the ledger, and a search without a point ends as its child did."""
        limits = []

        def engine(model, config):
            limits.append(config.time_limit)
            return external_solve(model, self_adapter, tmp_path, config)
        monkeypatch.setattr(control, "branch_and_bound", engine)
        rng = random.Random(7)
        wanted = {"optimal": 3, "infeasible": 1}
        while any(wanted.values()):
            instance = random_tiny_instance(rng)
            exact = brute_force_instance(instance)
            if not wanted[exact.status]:
                continue
            wanted[exact.status] -= 1
            optimum = exact.lower_bound
            for strategy in STRATEGIES:
                # a total time gives every child a timeout
                result = run_strategy(instance, StrategyConfig(
                    strategy=strategy, total_time=600.0))
                if exact.status == "infeasible":
                    assert result.status == "infeasible"
                elif strategy == "exact":
                    assert result.status == "optimal"
                    assert result.lower_bound == pytest.approx(optimum)
                    assert result.upper_bound == optimum
                else:
                    assert (result.lower_bound <= optimum + 1e-6
                            and result.upper_bound >= optimum)
        # every search ran in a child, under a finite time limit
        assert len(limits) >= 12 and all(0 < t <= 600 for t in limits)


class TestRoomBound:
    def test_room_bound_adds_to_surface_bound(self, contended_instance):
        result = run_strategy(contended_instance)
        assert lower_events(result) == [(0, "surface"),
                                        (31, "surface+rooms")]
        assert result.status == "optimal" and result.upper_bound == 31

    def test_adds_the_room_lower_bound_not_its_incumbent(
            self, contended_instance):
        # at 6 nodes the room search holds an incumbent of 45 above its
        # bound of 31; adding the incumbent would cross the dives' 31
        result = run_strategy(contended_instance,
                              StrategyConfig(surface_nodes=6))
        assert lower_events(result) == [(0, "surface"),
                                        (31, "surface+rooms")]

    def test_untimed_room_search_within_surface_nodes(
            self, contended_instance, monkeypatch):
        searches = []
        real = control.branch_and_bound

        def recording(model, config):
            result = real(model, config)
            searches.append((model.name, config.node_limit,
                             config.time_limit, result.nodes_explored))
            return result

        monkeypatch.setattr(control, "branch_and_bound", recording)
        # the room search needs 7 nodes to prove its optimum of 31
        result = run_strategy(contended_instance,
                              StrategyConfig(surface_nodes=3))
        assert [s for s in searches if s[0] == "rooms"] == [
            ("rooms", 3, math.inf, 3)]
        assert lower_events(result)[-1] == (30, "surface+rooms")

    @pytest.mark.parametrize("strategy", ["contract", "anytime"])
    def test_room_search_runs_before_the_surface_reaches_the_deadline(
            self, contended_instance, monkeypatch, strategy):
        # a fake clock reaches the deadline as the surface search starts
        clock = SimpleNamespace(now=0.0)
        clock.monotonic = lambda: clock.now
        monkeypatch.setattr(control, "time", clock)
        limits = []
        real = control.branch_and_bound

        def recording(model, config):
            limits.append((model.name, config.time_limit))
            if model.name == "surface":
                clock.now = 100.0
            return real(model, config)

        monkeypatch.setattr(control, "branch_and_bound", recording)
        result = run_strategy(contended_instance, StrategyConfig(
            strategy=strategy, total_time=100.0))
        surface = 50.0 if strategy == "contract" else 100.0
        # a dive would start past the deadline, so none runs
        assert limits == [("rooms", 50.0), ("surface", surface)]
        assert result.dives == []
        assert lower_events(result) == [(0, "surface"),
                                        (31, "surface+rooms")]

    @pytest.mark.parametrize("config, source", [
        ({"surface_model": "surface2"}, "surface"),
        ({"surface_model": "surface2", "strategy": "anytime"}, "surface"),
        ({"strategy": "exact"}, "exact")])
    def test_models_with_room_terms_record_no_room_bound(
            self, contended_instance, config, source):
        result = run_strategy(contended_instance, StrategyConfig(**config))
        assert {s for _, s in lower_events(result)} == {source}
        assert result.lower_bound == 31  # their own bound has the room terms

    def test_lower_bounds_never_exceed_brute_force(self):
        raised = 0
        for seed in range(40):
            instance = random_tiny_instance(random.Random(seed))
            exact = brute_force_instance(instance)
            for strategy in ("contract", "anytime"):
                result = run_strategy(instance,
                                      StrategyConfig(strategy=strategy))
                if exact.status == "infeasible":
                    assert result.status == "infeasible"
                    continue
                assert result.lower_bound <= exact.lower_bound + 1e-9
                raised += any(source == "surface+rooms"
                              for _, source in lower_events(result))
        assert raised > 0

    def test_limit_stopped_surface_reports_optimal(self):
        # the surface stops at its node limit, and the dives reach the
        # surface bound plus the room bound, 0 + 62
        instance = make_instance(
            [("c0", "t1", 2, 1, 6), ("c1", "t1", 2, 2, 33),
             ("c2", "t2", 3, 1, 32)],
            [("r0", 20)], [("q0", ["c0", "c2"])],
            days=2, periods_per_day=4)
        result = run_strategy(instance, StrategyConfig(surface_nodes=10))
        assert result.surface_status == "limit-reached"
        assert result.surface_nodes == 10
        assert result.lower_bound == result.upper_bound == 62
        assert result.status == "optimal"


class TestReports:
    def test_json_round_trip(self, tight_instance):
        result = run_strategy(tight_instance)
        raw = json.loads(result.to_json())
        assert raw.keys() == {f.name for f in dataclasses.fields(RunReport)}
        for name in ("instance", "strategy", "status", "lower_bound",
                     "upper_bound", "gap", "surface_status", "surface_nodes",
                     "started"):
            assert raw[name] == getattr(result, name)
        assert raw["penalties"] == list(result.penalties)
        assert raw["dives"] == [dataclasses.asdict(d) for d in result.dives]
        assert raw["history"] == [dataclasses.asdict(e)
                                  for e in result.history]
        assert raw["solution"] == result.solution

    def test_report_formats(self, tight_instance):
        result = run_strategy(tight_instance)
        assert "instance: tight" in result.to_text()
        assert f"gap: {result.gap}%" in result.to_text().splitlines()
        assert '"strategy"' in result.to_json()

    def test_gap_in_report(self):
        ledger = BoundsLedger()
        ledger.record_lower(5.0, "surface")
        ledger.record_upper(9.0, "dive")
        assert ledger.gap() == 44.4

    def test_bounds_only_report(self):
        instance = make_instance(
            [("c1", "t1", 2, 2, 5)], [("r1", 9)], [("q1", ["c1"])],
            days=2, periods_per_day=2)
        config = StrategyConfig(surface_nodes=0, dive_nodes=0)
        result = run_strategy(instance, config)
        assert result.upper_bound is None
        assert result.gap is None
        assert "gap: n/a" in result.to_text().splitlines()
