import os
import subprocess
import sys
from pathlib import Path

import cttsolve
from conftest import TOY_CTT

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


def test_strategies_script_summarises_both_strategies(tmp_path):
    path = tmp_path / "toy.ctt"
    path.write_text(TOY_CTT)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_strategies.py"),
         str(path), "--total-time", "2", "--per-dive-time", "1"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.split("strategy")[-1].splitlines()[1:]
    assert [line.split()[0] for line in summary] == ["contract", "anytime"]
