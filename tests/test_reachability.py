"""Every public name of the library is reached by a registry run.

The sweep runs each registry experiment once, at a reduced scale, under
``sys.setprofile`` and records every code object that runs.  A function
is reached when its code runs.  A class is reached when one of its
methods runs, or when an ``__init__`` or ``__new__`` runs with the class
as its ``self``, ``cls`` or ``_cls``: that covers the methods that
dataclasses, ``NamedTuple`` and ``Enum`` generate or share.  A name in a
checked module's ``__all__``, or a public function, method or property in
the ``vars`` of an exported class, that no run reaches fails the test,
unless ``ALLOWED`` names it with the reason it stays.  An ``ALLOWED`` entry that
a run does reach, or that is no longer exported, fails too, so the list
cannot go stale.
"""

import importlib
import sys
import warnings

import pytest

from sdelab import sde
from sdelab.experiments import ExperimentConfig, list_experiments, run

# small enough that the whole sweep, profiled, takes about a second
SCALES = {
    "exit-ball-2d": {"n_paths": 64},
    "sample-paths": {"n_paths": 8, "n_steps": 16},
    "arcsine-law": {"n_paths": 64, "n_steps": 16},
    "ito-isometry": {"n_paths": 16, "n_steps": 16},
    "shell-hitting-3d": {"n_paths": 64},
    "feynman-kac-interval": {"n_paths": 64, "h": 0.01},
    "eyring-kramers": {"n_paths": 16, "eps": 0.5},
    "arrhenius-well": {"n_paths": 16, "eps": [0.5, 0.45, 0.4]},  # the fit needs three
    "fp-stationarity": {"n_cells": 64},
    "hm-ou-kernel": {"n_cells": 32, "n_pairs": 8},
    "birkhoff-jentzsch": {"n_cells": 16, "n_probe": 8},
    "certificate-soundness": {"n_cells": 32},
    "ou-minimum-action": {"n_steps": 64},
    "quasipotential-double-well": {"n_steps": 32},
}

MODULES = ("sde", "kolmogorov", "firstexit", "ergodicity", "largedev", "expr",
           "experiments")

ALLOWED = {
    "experiments.load_config": "reached through `sdelab run --config`",
    "experiments.parse_config": "reached through `sdelab run --config`",
    "experiments.Experiment": "built at import, when `_register` fills the registry",
    "sde.BlowUpError": "raised when a path blows up",
    "expr.ExpressionError": "raised on a bad expression",
    "experiments.ConfigError": "raised on a bad configuration",
    "kolmogorov.free_bm_density": "reference that tests compare the solvers against",
    "kolmogorov.reflected_bm_density": "reference that tests compare the solvers against",
    "kolmogorov.killed_bm_density": "reference that tests compare the solvers against",
    "kolmogorov.delta_field": "reference that tests compare the solvers against",
    "firstexit.gbm_exit": "reference that tests compare mc_exit against",
    "firstexit.GbmExit": "reference that tests compare mc_exit against",
    "kolmogorov.DensityField.mass": "reached through `delta_field`, a test reference",
    "kolmogorov.DensityField.normalized": "reached through `delta_field`, a test reference",
    "experiments.ModelSpec.from_mapping": "reads a config's `[model]` section",
}


def _code(member):
    """The code object of a function, method, property or cached property."""
    for attr in ("__func__", "fget", "func"):
        member = getattr(member, attr, member)
    return getattr(member, "__code__", None)


def _is_reached(obj, codes: set, classes: set) -> bool:
    if isinstance(obj, type):
        return obj in classes or any(_code(m) in codes for m in vars(obj).values())
    return _code(obj) in codes


def public_names():
    """``(module.name, object)`` for each function or class in a checked
    ``__all__``, and ``(module.Class.name, member)`` for each public function,
    method or property in the ``vars`` of an exported class."""
    for module_name in MODULES:
        module = importlib.import_module(f"sdelab.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                yield f"{module_name}.{name}", obj
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and _code(member) is not None:
                        yield f"{module_name}.{name}.{attr}", member


def unreached(codes: set, classes: set) -> set[str]:
    """The names of :func:`public_names` that the recorded code objects and
    classes do not reach."""
    return {name for name, obj in public_names()
            if not _is_reached(obj, codes, classes)}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The code objects that run, and the classes that are built, in one
    reduced-scale run of every registry experiment."""
    codes, classes = set(), set()

    def profile(frame, event, arg):
        if event != "call":
            return
        codes.add(frame.f_code)
        if frame.f_code.co_name in ("__init__", "__new__"):
            for key in ("self", "cls", "_cls"):
                owner = frame.f_locals.get(key)
                if owner is not None:
                    classes.add(owner if isinstance(owner, type) else type(owner))

    out = tmp_path_factory.mktemp("sweep")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # censoring at these scales is expected
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for exp in list_experiments():
                run(ExperimentConfig(exp.name, parameters=SCALES[exp.name]), out=out)
        finally:
            sys.setprofile(previous)
    return codes, classes


def test_every_experiment_has_a_sweep_scale():
    assert set(SCALES) == {exp.name for exp in list_experiments()}


def test_every_public_name_is_reached_by_a_registry_run(sweep):
    assert unreached(*sweep) - set(ALLOWED) == set()


def test_every_allowed_name_is_exported_and_unreached(sweep):
    exported = {name for name, _ in public_names()}
    assert set(ALLOWED) - exported == set()
    assert set(ALLOWED) - unreached(*sweep) == set()


def test_the_sweep_reports_a_name_no_run_reaches(sweep, monkeypatch):
    def never_called():
        pass

    monkeypatch.setattr(sde, "never_called", never_called, raising=False)
    monkeypatch.setattr(sde, "__all__", [*sde.__all__, "never_called"])
    assert "sde.never_called" in unreached(*sweep)


def test_the_sweep_reports_a_method_no_run_reaches(sweep, monkeypatch):
    def never_called(self):
        pass

    monkeypatch.setattr(sde.TimeGrid, "never_called", never_called, raising=False)
    assert "sde.TimeGrid.never_called" in unreached(*sweep)
