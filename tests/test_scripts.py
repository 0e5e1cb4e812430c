import os
import subprocess
import sys
from pathlib import Path

import cttsolve

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_corpus_script_agrees(tmp_path):
    # An absolute PYTHONPATH, so the child finds the package from any cwd.
    package_root = str(Path(cttsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_tiny_corpus.py"),
         "--count", "3", "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "3/3 instances agree" in proc.stdout
