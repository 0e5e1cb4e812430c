import json
import re

import pytest

from conftest import TIGHT_CTT, TOY_CTT
from cttsolve import cli
from cttsolve.cli import main
from cttsolve.formulations import DIVE_KINDS
from cttsolve.milp import parse_mps

FEASIBLE_TOY_SOLUTION = """\
c1 rA 0 1
c1 rA 0 2
c1 rA 1 0
c2 rA 1 1
c2 rA 1 2
c3 rB 1 1
c3 rB 1 2
"""


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.ctt"
    path.write_text(TOY_CTT)
    return str(path)


@pytest.fixture
def tight_path(tmp_path):
    path = tmp_path / "tight.ctt"
    path.write_text(TIGHT_CTT)
    return str(path)


class TestValidate:
    def test_valid_instance(self, toy_path, capsys):
        assert main(["validate", toy_path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.ctt"
        path.write_text(TOY_CTT.replace("END.\n", ""))
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_repeated_header_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "twice.ctt"
        path.write_text(TOY_CTT.replace("Days: 2\n", "Days: 1\nDays: 2\n"))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "line 5: repeated header key 'Days'" in captured.err
        assert captured.out == ""

    def test_semantic_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ctt"
        path.write_text(TOY_CTT.replace("Courses: 3", "Courses: 4"))
        assert main(["validate", str(path)]) == 1

    def test_day_or_period_out_of_range_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ctt"
        path.write_text(TOY_CTT.replace("c1 0 0", "c1 0 3"))
        assert main(["validate", str(path)]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_negative_room_capacity_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ctt"
        path.write_text(TOY_CTT.replace("rA 32", "rA -5"))
        assert main(["validate", str(path)]) == 1
        assert "negative capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, message", [
        ([("q1 2 c1 c2", "q1 2 c1 c1")], "lists a course twice"),
        ([("Constraints: 1", "Constraints: 2"),
          ("c1 0 0\n", "c1 0 0\nc1 0 0\n")], "repeated unavailability"),
    ], ids=["curriculum", "unavailability"])
    def test_duplicate_entry_exit_1(self, tmp_path, capsys, edits, message):
        text = TOY_CTT
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "dup.ctt"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["validate", "/nonexistent.ctt"]) == 2

    def test_usage_error_exit_2(self):
        assert main(["frobnicate"]) == 2


class TestStats:
    def test_fields(self, toy_path, capsys):
        assert main(["stats", toy_path]) == 0
        out = capsys.readouterr().out
        assert "events: 7" in out
        assert "conflict edges: 2" in out
        assert "frequency:" in out
        assert "utilisation:" in out


class TestEvaluate:
    def test_feasible_solution(self, toy_path, tmp_path, capsys):
        sol = tmp_path / "toy.sol"
        sol.write_text(FEASIBLE_TOY_SOLUTION)
        assert main(["evaluate", toy_path, str(sol)]) == 0
        out = capsys.readouterr().out
        assert "objective:" in out
        assert "capacity:" in out

    def test_infeasible_solution_exit_1(self, toy_path, tmp_path, capsys):
        sol = tmp_path / "bad.sol"
        sol.write_text("c1 rA 0 0\n")  # forbidden period and missing events
        assert main(["evaluate", toy_path, str(sol)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_day_or_period_out_of_range_exit_1(self, toy_path, tmp_path,
                                               capsys):
        sol = tmp_path / "bad.sol"
        sol.write_text(FEASIBLE_TOY_SOLUTION + "c1 rA 0 3\n")
        assert main(["evaluate", toy_path, str(sol)]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_weight_override_changes_objective(self, toy_path, tmp_path,
                                               capsys):
        sol = tmp_path / "toy.sol"
        sol.write_text(FEASIBLE_TOY_SOLUTION)
        main(["evaluate", toy_path, str(sol)])
        base = capsys.readouterr().out
        main(["evaluate", toy_path, str(sol), "--weights", "0,0,0,0"])
        zeroed = capsys.readouterr().out
        assert "objective: 0" in zeroed
        assert base != zeroed


class TestBuildAndSolveMps:
    def test_build_then_solve(self, tight_path, tmp_path, capsys):
        mps = tmp_path / "tight.mps"
        assert main(["build", tight_path, "--formulation", "monolithic",
                     "-o", str(mps)]) == 0
        assert mps.exists()
        capsys.readouterr()
        assert main(["solve-mps", str(mps)]) == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out
        assert "objective: 14" in out

    def test_truncated_export_exit_2(self, tight_path, tmp_path, capsys):
        mps = tmp_path / "tight.mps"
        assert main(["build", tight_path, "--formulation", "monolithic",
                     "-o", str(mps)]) == 0
        text = mps.read_text()
        columns = text.index("COLUMNS\n")
        # cut at a line end halfway through the COLUMNS section
        cut = text.index("\n", (columns + text.index("RHS\n")) // 2) + 1
        mps.write_text(text[:cut])
        capsys.readouterr()
        assert main(["solve-mps", str(mps)]) == 2
        assert "without ENDATA" in capsys.readouterr().err

    def test_unsupported_mps_exit_2(self, tmp_path, capsys):
        mps = tmp_path / "ranged.mps"
        mps.write_text("NAME r\nROWS\n N  OBJ\n L  c\nCOLUMNS\n"
                       "    x  OBJ  1  c  1\nRHS\n    RHS  c  4\n"
                       "RANGES\n    RNG  c  2\nENDATA\n")
        assert main(["solve-mps", str(mps)]) == 2
        assert "unsupported MPS section 'RANGES'" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        (" L  c\n", " L\n"),
        ("  c  1\n", "  c\n"),
        ("  c  4\n", "  c\n"),
        (" UP BND  x  3\n", " UP BND  x\n"),
        (" UP BND  x  3\n", " FX BND  x\n"),
    ], ids=["rows", "columns", "rhs", "up", "fx"])
    def test_short_mps_line_exit_2(self, tmp_path, capsys, old, new):
        text = ("NAME s\nROWS\n N  OBJ\n L  c\nCOLUMNS\n    x  OBJ  1  c  1\n"
                "RHS\n    RHS  c  4\nBOUNDS\n UP BND  x  3\nENDATA\n")
        mps = tmp_path / "short.mps"
        mps.write_text(text)
        assert main(["solve-mps", str(mps)]) == 0
        capsys.readouterr()
        assert old in text
        mps.write_text(text.replace(old, new))
        assert main(["solve-mps", str(mps)]) == 2
        assert "MPS" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, args", [
        ("  c  1\n", "  c  nan\n", []),
        ("  c  4\n", "  c  inf\n", []),
        (" UP BND  x  3\n", " UP BND  x  3\n", ["--node-limit", "-1"]),
        (" UP BND  x  3\n", " UP BND  x  3\n", ["--time-limit", "nan"]),
    ], ids=["coef-nan", "rhs-inf", "negative-node-limit", "nan-time-limit"])
    def test_bad_number_exit_2(self, tmp_path, capsys, old, new, args):
        text = ("NAME s\nROWS\n N  OBJ\n L  c\nCOLUMNS\n    x  OBJ  1  c  1\n"
                "RHS\n    RHS  c  4\nBOUNDS\n UP BND  x  3\nENDATA\n")
        assert old in text
        mps = tmp_path / "bad.mps"
        mps.write_text(text.replace(old, new))
        assert main(["solve-mps", str(mps)] + args) == 2
        assert "error:" in capsys.readouterr().err

    def test_build_to_stdout(self, toy_path, capsys):
        assert main(["build", toy_path, "--formulation", "surface"]) == 0
        assert "ENDATA" in capsys.readouterr().out


class TestOutputFile:
    @pytest.mark.parametrize("command", ["build", "solve", "solve-mps"])
    def test_missing_directory_exit_2(self, tight_path, tmp_path, capsys,
                                      command):
        target = tmp_path / "missing" / "out"
        if command == "solve-mps":
            mps = tmp_path / "tight.mps"
            assert main(["build", tight_path, "-o", str(mps)]) == 0
            argv = [command, str(mps)]
        else:
            argv = [command, tight_path]
        capsys.readouterr()
        # an OSError escaping main would end the command in a traceback
        assert main(argv + ["-o", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.parent.exists()

    @pytest.mark.parametrize("target", ["missing/out", "."],
                             ids=["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["solve", "solve-mps"])
    def test_unwritable_output_fails_before_search(
            self, tight_path, tmp_path, capsys, monkeypatch, command, target):
        argv = [command, tight_path]
        if command == "solve-mps":
            mps = tmp_path / "tight.mps"
            assert main(["build", tight_path, "-o", str(mps)]) == 0
            argv = [command, str(mps)]

        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(cli, "run_strategy", no_search)
        monkeypatch.setattr(cli, "branch_and_bound", no_search)
        capsys.readouterr()
        assert main(argv + ["-o", str(tmp_path / target)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")


class TestSolve:
    def test_exact_strategy(self, tight_path, tmp_path, capsys):
        out_file = tmp_path / "tight.sol"
        assert main(["solve", tight_path, "--strategy", "exact",
                     "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out
        # the report names the search it ran: the exact strategy has no surface
        assert re.search(r"^exact: optimal \(\d+ nodes\)$", out, re.MULTILINE)
        assert "surface:" not in out
        assert out_file.exists()
        capsys.readouterr()
        assert main(["evaluate", tight_path, str(out_file)]) == 0
        assert "objective: 14" in capsys.readouterr().out

    def test_exact_strategy_rejects_per_dive_time(self, tight_path, capsys):
        assert main(["solve", tight_path, "--strategy", "exact",
                     "--per-dive-time", "0.5"]) == 1
        captured = capsys.readouterr()
        assert "exact strategy has no per_dive_time" in captured.err
        assert captured.out == ""

    def test_surface_time_is_no_option(self, tight_path, capsys):
        # contract and anytime take their surface's time from --total-time
        assert main(["solve", tight_path, "--surface-time", "1"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --surface-time" in captured.err
        assert captured.out == ""

    def test_contract_json_report(self, tight_path, capsys):
        assert main(["solve", tight_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "contract"
        assert payload["instance"] == "tight"

    def test_timed_report_stamps_seconds_since_start(self, tight_path,
                                                     capsys):
        assert main(["solve", tight_path, "--total-time", "10"]) == 0
        stamps = re.findall(r"^  \[(.*)\] (?:lower|upper) -> ",
                            capsys.readouterr().out, re.MULTILINE)
        assert stamps
        for stamp in stamps:
            assert stamp.endswith("s")
            assert 0.0 <= float(stamp[:-1]) <= 10.0
        # an untimed run stamps its events with step counts
        assert main(["solve", tight_path]) == 0
        stamps = re.findall(r"^  \[(.*)\] (?:lower|upper) -> ",
                            capsys.readouterr().out, re.MULTILINE)
        assert stamps == [str(i) for i in range(1, len(stamps) + 1)]

    def test_explicit_inf_is_no_budget(self, tight_path, capsys):
        argv = ["solve", tight_path, "--json"]
        assert main(argv) == 0
        unbudgeted = capsys.readouterr().out
        assert main(argv + ["--total-time", "inf",
                            "--per-dive-time", "inf"]) == 0
        assert capsys.readouterr().out == unbudgeted

    def test_deterministic_output(self, tight_path, capsys):
        argv = ["solve", tight_path, "--strategy", "contract",
                "--surface-nodes", "200", "--dive-nodes", "50", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_surface_and_dive_flags(self, tight_path, tmp_path, capsys):
        assert main(["solve", tight_path, "--surface-model", "surface2",
                     "--pattern-cuts", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["upper_bound"] == 14  # the brute-force optimum
        assert {d["kind"] for d in payload["dives"]} == set(DIVE_KINDS)
        mps = tmp_path / "surface2.mps"
        assert main(["build", tight_path, "--formulation", "surface2",
                     "-o", str(mps)]) == 0
        model = parse_mps(mps.read_text())
        assert len(model.variables) > 0
        assert f"{len(model.variables)} variables" in capsys.readouterr().err

    def test_json_report_with_output_file(self, tight_path, tmp_path,
                                          capsys):
        out_file = tmp_path / "tight.sol"
        assert main(["solve", tight_path, "--json",
                     "-o", str(out_file)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["upper_bound"] == 14
        assert captured.err == f"wrote {out_file}\n"
        assert out_file.exists()

    def test_pattern_cuts_on_long_days_exit_1(self, tmp_path, capsys):
        path = tmp_path / "long.ctt"
        path.write_text(TOY_CTT.replace("Periods_per_day: 3",
                                        "Periods_per_day: 7"))
        assert main(["solve", str(path), "--pattern-cuts"]) == 1
        captured = capsys.readouterr()
        assert "at most 6 periods" in captured.err
        assert captured.out == ""

    def test_infeasible_exit_1(self, tmp_path):
        text = """\
Name: stuck
Courses: 2
Rooms: 1
Days: 1
Periods_per_day: 2
Curricula: 1
Constraints: 0

COURSES:
c1 t1 2 1 5
c2 t2 2 1 5

ROOMS:
r1 9

CURRICULA:
q1 2 c1 c2

UNAVAILABILITY_CONSTRAINTS:

END.
"""
        path = tmp_path / "stuck.ctt"
        path.write_text(text)
        assert main(["solve", str(path), "--strategy", "contract"]) == 1

    @pytest.mark.parametrize("budget", [["--total-time", "-5"],
                                        ["--per-dive-time", "0"],
                                        ["--dive-nodes", "-1"]])
    def test_bad_budget_exit_1(self, tight_path, capsys, budget):
        assert main(["solve", tight_path] + budget) == 1
        assert "must" in capsys.readouterr().err
