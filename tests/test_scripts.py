import os
import subprocess
import sys
from pathlib import Path

import cttsolve
from conftest import TOY_CTT
from cttsolve.cli import main

ROOT = Path(__file__).resolve().parent.parent


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
