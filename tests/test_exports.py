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


def test_importing_the_package_leaves_scipy_stats_out():
    # importing scipy.stats adds about half a second to every process start
    src = str(Path(sdelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sdelab; print('scipy.stats' in sys.modules)"],
        env=env, timeout=120, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
