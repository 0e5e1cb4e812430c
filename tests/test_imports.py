"""What importing cttsolve loads, checked in fresh interpreters, how
missing HiGHS bindings are reported, and the ``pyproject.toml`` settings
that the installed command and the test runs rely on.

The solver loads scipy's bundled HiGHS bindings on their own, without
``scipy.optimize`` and what that pulls in (``scipy.sparse``,
``scipy.linalg``); these tests hold that in place and check that the
bindings are still shared with ``scipy.optimize`` in either import order.
"""

import importlib.util
import os
import subprocess
import sys
import tomllib
from pathlib import Path
from types import SimpleNamespace

import pytest

import cttsolve
from conftest import TOY_CTT
from cttsolve import solver

FOOTPRINT = """
import sys
heavy = ("scipy.optimize", "scipy.sparse", "scipy.linalg")
import cttsolve, cttsolve.control, cttsolve.cli
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, f"importing cttsolve loaded {loaded}"
from cttsolve.control import StrategyConfig, run_strategy
from cttsolve.instance import parse_ctt
report = run_strategy(parse_ctt(sys.stdin.read()),
                      StrategyConfig(surface_nodes=20, dive_nodes=10))
assert report.lower_bound is not None and report.upper_bound is not None
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, f"a solve loaded {loaded}"
"""

IMPORT_ORDER = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.optimize
    from cttsolve import solver
else:
    from cttsolve import solver
    import scipy.optimize
core = sys.modules["scipy.optimize._highspy._core"]
assert solver._core is core and solver._Highs is core._Highs
# the module scipy.optimize's own HiGHS calls go through
assert sys.modules["scipy.optimize._highspy._highs_wrapper"]._h is core

import numpy as np
res = scipy.optimize.linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.5],
                             bounds=[(0, 1)] * 2, method="highs")
assert res.status == 0 and res.fun == -2.5, res
res = scipy.optimize.milp(
    [-1.0, -2.0], integrality=[1, 1], bounds=scipy.optimize.Bounds(0, 1),
    constraints=scipy.optimize.LinearConstraint([[1.0, 1.0]], -np.inf, 1.5))
assert res.status == 0 and res.fun == -2.0, res

from cttsolve.milp import MilpModel
model = MilpModel("order")
for name in "ab":
    model.add_variable(name, "binary")
model.add_constraint("pick", [(1.0, "a"), (1.0, "b")], "<=", 1.5)
model.set_objective([(-1.0, "a"), (-2.0, "b")])
result = solver.branch_and_bound(model)
assert result.status == "optimal" and result.lower_bound == -2.0, result
"""


def run_fresh(script, *args, stdin=None, flags=()):
    """Run ``script`` in a fresh interpreter that imports the cttsolve
    these tests import, from whatever directory they run in."""
    package_root = str(Path(cttsolve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", script, *args],
                          input=stdin, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_and_solve_load_no_heavy_scipy():
    run_fresh(FOOTPRINT, stdin=TOY_CTT)


@pytest.mark.parametrize("order", ["scipy-first", "cttsolve-first"])
def test_bindings_shared_with_scipy_optimize(order):
    run_fresh(IMPORT_ORDER, order, flags=("-W", "error"))


def test_missing_bindings_name_their_path(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: (
        SimpleNamespace(submodule_search_locations=[str(tmp_path)])))
    with pytest.raises(ImportError) as info:
        solver._load_highs_core()
    assert str(tmp_path / "optimize" / "_highspy" / "_core") in str(info.value)


def test_console_script_target_is_callable():
    # pip writes the `cttsolve` command from this table, so a stale target
    # breaks only the installed command, which no other test runs
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"cttsolve": "cttsolve.cli:entry"}
    module, _, name = scripts["cttsolve"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_pyproject_fails_a_leaked_file(tmp_path):
    # pyproject.toml's `filterwarnings = ["error", ...]` is what fails a
    # test that leaves a file open, in a plain run without `-X dev` or
    # `-W`; with the filters emptied the same test passes
    (tmp_path / "test_leak.py").write_text(
        "def test_leaves_a_file_open():\n    open(__file__)\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
    codes = []
    for override in ((), ("-o", "filterwarnings=")):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-c", str(pyproject), *override, str(tmp_path / "test_leak.py")],
            env=env, capture_output=True, text=True, timeout=120)
        codes.append(proc.returncode)
    assert codes == [1, 0], proc.stdout
