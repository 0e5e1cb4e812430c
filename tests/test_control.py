import random
from types import SimpleNamespace

import pytest

from conftest import make_instance, random_tiny_instance
from cttsolve import control
from cttsolve.control import (BoundsLedger, ControlError, RunReport,
                              StrategyConfig, order_dives, run_strategy,
                              solution_from_payload)
from cttsolve.evaluation import Solution, check_hard, evaluate
from cttsolve.formulations import (DAY_FIXED, DIVE_KINDS, PERIOD_FIXED,
                                   Neighborhood, PeriodAssignment)
from cttsolve.solver import brute_force_instance


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


class TestOrderDives:
    def neighborhood(self, kind, cost, idx):
        return Neighborhood(kind, PeriodAssignment({}), cost, idx)

    def test_cost_ascending_within_kind(self):
        a = self.neighborhood(PERIOD_FIXED, 40.0, 0)
        b = self.neighborhood(PERIOD_FIXED, 20.0, 1)
        assert order_dives([a, b], (PERIOD_FIXED,)) == [b, a]

    def test_kind_rank_first(self):
        a = self.neighborhood(DAY_FIXED, 1.0, 0)
        b = self.neighborhood(PERIOD_FIXED, 99.0, 1)
        assert order_dives([a, b], (PERIOD_FIXED, DAY_FIXED)) == [b, a]

    def test_later_discovery_first_on_ties(self):
        a = self.neighborhood(PERIOD_FIXED, 10.0, 0)
        b = self.neighborhood(PERIOD_FIXED, 10.0, 1)
        assert order_dives([a, b], (PERIOD_FIXED,)) == [b, a]

    def test_singleton(self):
        a = self.neighborhood(PERIOD_FIXED, 1.0, 0)
        assert order_dives([a], (PERIOD_FIXED,)) == [a]


class TestConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ControlError):
            StrategyConfig(strategy="magic")

    def test_empty_dive_sequence(self):
        with pytest.raises(ControlError):
            StrategyConfig(dive_kinds=())

    @pytest.mark.parametrize("budget", [
        {"surface_time": 0}, {"per_dive_time": 0}, {"total_time": -5},
        {"per_dive_time": float("nan")}, {"surface_nodes": -1},
        {"dive_nodes": -1}])
    def test_budgets_checked_up_front(self, budget):
        with pytest.raises(ControlError, match=next(iter(budget))):
            StrategyConfig(**budget)

    def test_total_time_covers_surface(self):
        with pytest.raises(ControlError):
            StrategyConfig(surface_time=10.0, total_time=5.0)


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
                                    surface_model="surface2",
                                    dive_kinds=DIVE_KINDS)
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
        config = StrategyConfig(strategy="anytime",
                                dive_kinds=(PERIOD_FIXED,))
        result = run_strategy(tight_instance, config)
        indices = [d.discovery_index for d in result.dives]
        assert indices == sorted(set(indices))  # one episode per incumbent

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


class TestReports:
    def test_json_round_trip(self, tight_instance):
        result = run_strategy(tight_instance)
        again = RunReport.from_json(result.to_json())
        assert again.to_json() == result.to_json()

    def test_report_formats(self, tight_instance):
        result = run_strategy(tight_instance)
        assert "instance: tight" in result.to_text()
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
        assert "n/a" in result.to_text()
