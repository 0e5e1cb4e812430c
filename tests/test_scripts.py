import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import cttsolve
from conftest import TOY_CTT
from cttsolve.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    """A script of `scripts/` as a module; its `main` does not run."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


held_out = load_script("held_out")


def child_env() -> dict:
    """Environment with an absolute PYTHONPATH, so a child finds the
    package from any cwd."""
    package_root = str(Path(cttsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_tiny_corpus_script_agrees(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_tiny_corpus.py"),
         "--count", "3", "--seed", "0"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "3/3 instances agree" in proc.stdout
    assert "S2 LB" in proc.stdout  # surface2 is swept too
    # one of the three is infeasible; the room bound closes the other two
    assert ("2/2 feasible instances: contract and anytime lower bounds"
            " equal the optimum") in proc.stdout.splitlines()



def test_strategies_script_summarises_both_strategies(tmp_path, capsys):
    """The README's strategy loop: one `cttsolve solve` per strategy under
    the same budgets, each report giving its bounds, gap and trajectory."""
    path = tmp_path / "toy.ctt"
    path.write_text(TOY_CTT)
    for strategy in ("contract", "anytime"):
        assert main(["solve", str(path), "--strategy", strategy,
                     "--total-time", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"strategy: {strategy}" in lines
        for field in ("lower bound:", "upper bound:", "gap:"):
            assert any(line.startswith(field) for line in lines)
        trajectory = [line.split()[1:3] for line in lines
                      if line.startswith("  [")]
        assert ["lower", "->"] in trajectory
        assert ["upper", "->"] in trajectory


class TestHeldOutVerdict:
    """The held-out sweep's comparison on made-up calls: crossed bounds
    fail the sweep, a moved bound is only counted."""

    Call = held_out.Call
    CALLS = [Call("small-0", "exact", 5.0, 5.0, "optimal"),
             Call("small-0", "contract", 4.0, 6.0, "feasible"),
             Call("mid-0", "anytime", 2.0, None, "bounds-only")]
    TABLE = {"small-0": {"exact": [5, 5], "contract": [4, 6]},
             "mid-0": {"anytime": [2, None]}}

    def test_matching_table(self):
        assert held_out.compare(self.CALLS, self.TABLE) == ([], 0, [])

    def test_lower_bound_above_exact_optimum_fails(self):
        calls = [*self.CALLS[:1], self.Call("small-0", "contract", 6.0,
                                            6.0, "feasible")]
        failures, better, _ = held_out.compare(calls, self.TABLE)
        assert failures == ["small-0: contract lower bound 6 above exact"
                            " upper bound 5"]
        assert better == 1

    def test_worse_upper_bound_is_named_and_passes(self):
        calls = [*self.CALLS[:1], self.Call("small-0", "contract", 4.0,
                                            7.0, "feasible")]
        failures, better, worse = held_out.compare(calls, self.TABLE)
        assert (failures, better) == ([], 0)
        assert worse == ["small-0 contract: lower 4 -> 4, upper 6 -> 7"]
