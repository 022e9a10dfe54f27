"""Every exported name resolves, so a stale ``__all__`` entry fails here
and not in a user's ``from sdelab import *``; and importing the package
leaves out the modules it does not need."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdelab

MODULES = sorted(f"sdelab.{m.name}" for m in pkgutil.iter_modules(sdelab.__path__))


def test_the_package_modules_are_found():
    assert {"sdelab.sde", "sdelab.kolmogorov", "sdelab.experiments"} <= set(MODULES)


@pytest.mark.parametrize("name", ["sdelab", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def _run_fresh(script: str) -> str:
    """``script``'s standard output from a fresh interpreter that imports
    this ``sdelab``."""
    src = str(Path(sdelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_importing_the_package_leaves_scipy_stats_out():
    # importing scipy.stats adds about half a second to every process start
    assert _run_fresh("import sys, sdelab; print('scipy.stats' in sys.modules)") == "False"


def test_importing_the_package_leaves_unused_stdlib_modules_out():
    # concurrent.futures alone, with the logging it pulls in, is 0.6 MB of
    # a fresh process's RSS; each is imported where it is first needed
    script = ("import sys, sdelab; print([m for m in ('concurrent.futures', 'difflib',"
              " 'configparser') if m in sys.modules])")
    assert _run_fresh(script) == "[]"


LAPACK_BOUNDARY = """\
import sys
import sdelab
from sdelab import kolmogorov
from sdelab.experiments import execute
from sdelab.sde import SdeModel
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
execute("eyring-kramers", parameters={"n_paths": 8, "eps": 0.5})
print("scipy.linalg" in sys.modules)
grid = kolmogorov.Grid1D(-3.0, 3.0, 30)
model = SdeModel.scalar(lambda x: -x, 1.0)
kolmogorov.solve_fokker_planck(model, kolmogorov.delta_field(grid, 0.5), 0.1, 0.01)
print("scipy.linalg" in sys.modules)
"""


def test_lapack_loads_at_the_first_grid_solve():
    # scipy.linalg costs about 0.3 s and 20 MB of RSS at start-up; a run
    # that steps only paths never needs it
    assert _run_fresh(LAPACK_BOUNDARY).splitlines() == ["[]", "False", "True"]
