"""Every exported name resolves, so a stale ``__all__`` entry fails here
and not in a user's ``from sdelab import *``."""

import importlib
import pkgutil

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
