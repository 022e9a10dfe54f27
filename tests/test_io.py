"""The on-disk format: golden text for each writer, and one module owning it.

A run directory (``result.json``, the CSV tables and ``manifest.json``)
is the package's one on-disk artifact: ``experiments`` writes it, through
``sdelab._io``, and an ``ast`` guard keeps every other module from
importing ``_io``.  No random numbers are involved in the golden text,
so any byte that changes here changes the SHA-256 of a run artifact.
The same kind of guard keeps the thread pool in ``firstexit``, home of
the only Monte Carlo exit routine, the tridiagonal factorisation in
``kolmogorov``, home of the only implicit time stepper, the pieces of the
Euler-Maruyama update in ``sde``, home of the only Euler-Maruyama loop,
the pieces of the exit rule in ``firstexit.mc_exit``, the action's
residuals in ``largedev.fw_rate`` and ``action_gradient``, and the
Kolmogorov operator's coefficients in ``kolmogorov._generator``, with no
clip in ``kolmogorov``.  Another keeps ``assert`` out of the package,
since ``python -O`` skips it.
"""

import ast
import math
from pathlib import Path

import numpy as np

import sdelab
from sdelab._io import write_csv, write_json
from sdelab.experiments import RunManifest


def csv_text(*lines: str) -> str:
    return "".join(line + "\r\n" for line in lines)


def text(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


class TestGoldenCsv:
    def test_write_csv_renders_floats_by_repr_and_the_rest_as_given(self, tmp_path):
        target = tmp_path / "mixed.csv"
        write_csv(target, ("float", "np_float64", "int", "np_int64", "blank"),
                  [(0.1, np.float64(1.0) / 3.0, 7, np.int64(-2), ""),
                   (1e-300, np.float64(2.5e20), 0, np.int64(10**12), ""),
                   (-0.0, np.float64(1.0), -3, np.int64(0), "")])
        assert text(target) == csv_text(
            "float,np_float64,int,np_int64,blank",
            "0.1,0.3333333333333333,7,-2,",
            "1e-300,2.5e+20,0,1000000000000,",
            "-0.0,1.0,-3,0,")


class TestGoldenJson:
    def test_write_json_writes_non_finite_floats_as_null(self, tmp_path):
        target = tmp_path / "stats.json"
        write_json(target, {"mean": np.float64(0.5), "std_error": math.nan,
                            "bound": -math.inf, "n": np.int64(2),
                            "rates": np.array([1.0 / 3.0, math.inf]), "valid": True})
        assert text(target) == (
            '{\n'
            '  "bound": null,\n'
            '  "mean": 0.5,\n'
            '  "n": 2,\n'
            '  "rates": [\n'
            '    0.3333333333333333,\n'
            '    null\n'
            '  ],\n'
            '  "std_error": null,\n'
            '  "valid": true\n'
            '}\n')

    def test_run_manifest(self, tmp_path):
        target = tmp_path / "manifest.json"
        RunManifest("sample-paths", "ab" * 32, "0.1.0",
                    "2026-01-01T00:00:00+00:00", 5, 2,
                    {"result.json": "cd" * 32, "moments.csv": "ef" * 32},
                    ("flag one",), {"python": "3.11.7", "numpy": "2.4.6"},
                    ).save(target)
        assert text(target) == (
            '{\n'
            '  "artifact_version": "0.1.0",\n'
            f'  "config_hash": "{"ab" * 32}",\n'
            '  "created_utc": "2026-01-01T00:00:00+00:00",\n'
            '  "environment": {\n'
            '    "numpy": "2.4.6",\n'
            '    "python": "3.11.7"\n'
            '  },\n'
            '  "experiment": "sample-paths",\n'
            '  "flags": [\n'
            '    "flag one"\n'
            '  ],\n'
            '  "outputs": {\n'
            f'    "moments.csv": "{"ef" * 32}",\n'
            f'    "result.json": "{"cd" * 32}"\n'
            '  },\n'
            '  "seed": 5,\n'
            '  "threads": 2\n'
            '}\n')
        assert RunManifest.load(target).outputs["moments.csv"] == "ef" * 32


def _format_uses(tree: ast.AST) -> list[str]:
    """Every ``csv`` import and file-level ``json.dump``/``json.load`` in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name == "csv"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "csv":
                found.append("from csv import ...")
            elif node.module == "json":
                found += [f"from json import {a.name}" for a in node.names
                          if a.name in ("dump", "load")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("dump", "load")
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"json.{node.attr}")
    return found


def _package_uses(finder) -> dict[str, list[str]]:
    package = Path(sdelab.__file__).parent
    return {path.name: finder(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))}


def test_only_the_io_module_knows_the_file_format():
    uses = _package_uses(_format_uses)
    assert uses.pop("_io.py"), "the guard no longer sees the format module's own uses"
    assert {name: found for name, found in uses.items() if found} == {}


def _io_imports(tree: ast.AST) -> list[str]:
    """Every import of ``sdelab._io`` in a module, relative or absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "sdelab._io"]
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            if package in ("._io", "sdelab._io"):
                found.append(package)
            elif package in (".", "sdelab"):
                found += [f"{package}{a.name}" for a in node.names if a.name == "_io"]
    return found


def test_only_experiments_writes_files():
    # the run directory is the one on-disk artifact; a library object with
    # its own save or load would import the format module to get one
    assert _io_imports(ast.parse("from . import _io\nimport sdelab._io\n")) == \
        ["._io", "sdelab._io"], "the guard no longer sees an import"
    uses = _package_uses(_io_imports)
    assert uses.pop("experiments.py") == ["._io"], \
        "the guard no longer sees experiments' own import"
    assert {name: found for name, found in uses.items() if found} == {}


def _worker_uses(tree: ast.AST) -> list[str]:
    """Every import of a thread or process pool module in a module."""
    pools = ("concurrent", "threading", "multiprocessing")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in pools]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] in pools):
            found.append(node.module)
    return found


def test_only_firstexit_starts_workers():
    # threads shard the one noise plan of ``mc_exit``; a second pool
    # elsewhere would be a second way to lay out the same work
    uses = _package_uses(_worker_uses)
    assert uses.pop("firstexit.py") == ["concurrent.futures"], \
        "the guard no longer sees firstexit's own pool"
    assert {name: found for name, found in uses.items() if found} == {}


def _banded_solver_uses(tree: ast.AST) -> list[str]:
    """Every import of scipy's LAPACK wrappers or of ``solve_banded`` in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("scipy.linalg.lapack")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.linalg.lapack"):
                found.append(node.module)
            elif node.module.startswith("scipy"):
                found += [f"{node.module}.{a.name}" for a in node.names
                          if a.name in ("lapack", "solve_banded")]
        elif isinstance(node, ast.Attribute) and node.attr in ("lapack", "solve_banded"):
            found.append(node.attr)
    return found


def test_only_kolmogorov_factorises_banded_systems():
    # one factorisation serves every implicit step and the action
    # minimiser's preconditioner; a second solver would be a second
    # stepper with its own bits
    uses = _package_uses(_banded_solver_uses)
    assert uses.pop("kolmogorov.py") == ["scipy.linalg.lapack"], \
        "the guard no longer sees kolmogorov's own import"
    assert {name: found for name, found in uses.items() if found} == {}


def _em_piece_uses(tree: ast.AST) -> list[str]:
    """Every import or attribute use of the Euler-Maruyama loop or its noise term."""
    names = ("_em_path", "_disperse")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
    return found


def test_only_sde_applies_the_euler_maruyama_update():
    # ``sde._em_path`` is the one loop over Euler-Maruyama steps; a module
    # that imports its noise term ``g dW`` steps on its own
    uses = _package_uses(_em_piece_uses)
    assert uses.pop("firstexit.py") == ["_em_path"], \
        "the guard no longer sees firstexit's own import"
    assert {name: found for name, found in uses.items()
            if set(found) - {"_em_path"}} == {}


def _bit_generator_uses(tree: ast.AST) -> list[str]:
    """Every name, attribute or import of numpy's Philox, seeding or bit generators."""
    names = ("Philox", "SeedSequence", "bit_generator")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.split(".")[-1] in names]
    return found


def test_only_sde_builds_bit_generators():
    # ``sde`` turns a stream into a Philox key and a noise address into its
    # counter; a second module doing either would be a second address format
    uses = _package_uses(_bit_generator_uses)
    assert set(uses.pop("sde.py")) == {"Philox", "SeedSequence", "bit_generator"}, \
        "the guard no longer sees sde's own uses"
    assert {name: found for name, found in uses.items() if found} == {}


def _differentiation_uses(tree: ast.AST) -> list[str]:
    """Every attribute use, name or import of ``derivative`` or ``_central_differences``."""
    names = ("derivative", "_central_differences")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in names]
    return found


def test_only_largedev_differentiates_potentials():
    # ``largedev._drift`` is the one rule from a potential to its drift -U';
    # a second module differentiating would be a second rule with its own bits
    uses = _package_uses(_differentiation_uses)
    uses.pop("expr.py")  # defines ``derivative``
    assert set(uses.pop("largedev.py")) == {"derivative", "_central_differences"}, \
        "the guard no longer sees largedev's own uses"
    assert {name: found for name, found in uses.items() if found} == {}


_EXIT_RULE = ("exit_fraction", "_KILL_CAP", "_normal_variance")


def _owner_uses(pieces: tuple[str, ...]):
    """A finder of every read or import of one of ``pieces``, as
    ``owner.piece``, where ``owner`` is the top-level function or class
    that holds it."""
    def finder(tree: ast.AST) -> list[str]:
        found = []
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                found += [f"{owner}.{name}" for name in names if name in pieces]
        return found
    return finder


def test_only_mc_exit_detects_exits():
    # ``mc_exit`` holds the one exit rule: the crossing inside a step and the
    # bridge kill, with its cap and its variance along the normal; a second
    # exit loop or a second kill rule would read these pieces elsewhere
    uses = _package_uses(_owner_uses(_EXIT_RULE))
    assert set(uses.pop("firstexit.py")) == {f"mc_exit.{name}" for name in _EXIT_RULE}, \
        "the guard no longer sees mc_exit's own uses"
    assert {name: found for name, found in uses.items() if found} == {}


def test_only_fw_rate_and_action_gradient_take_residuals():
    # ``largedev._residuals`` gives the action's integrand r = dphi/h - f and
    # D^{-1} r; ``fw_rate`` sums it and ``action_gradient`` differentiates it.
    # Any other caller would be a second action rule with its own bits
    uses = _package_uses(_owner_uses(("_residuals",)))
    assert set(uses.pop("largedev.py")) == {"fw_rate._residuals",
                                            "action_gradient._residuals"}, \
        "the guard no longer sees largedev's own uses"
    assert {name: found for name, found in uses.items() if found} == {}


def test_only_generator_assembles_a_kolmogorov_operator():
    # ``kolmogorov._generator`` assembles L* once and takes L as its
    # transpose; a second stencil would read the coefficients elsewhere,
    # and a clip would hide a step that lost positivity instead of raising
    clips = _owner_uses(("clip",))
    assert clips(ast.parse("def f(x):\n    return np.clip(x, 0, None)\n")) == \
        ["f.clip"], "the guard no longer sees a clip"
    uses = _package_uses(_owner_uses(("_scalar_coefficients",)))
    assert uses.pop("kolmogorov.py") == ["_generator._scalar_coefficients"], \
        "the guard no longer sees the assembly's own call"
    assert {name: found for name, found in uses.items() if found} == {}
    assert _package_uses(clips)["kolmogorov.py"] == []


def _verdict_writes(tree: ast.AST) -> list[str]:
    """The top-level function or class of every dict key, subscript store or
    keyword argument that sets ``within_tolerance``."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Dict):
                keys = node.keys
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                keys = [node.slice]
            elif isinstance(node, ast.keyword):
                keys = [ast.Constant(node.arg)]
            else:
                continue
            found += [owner for key in keys
                      if isinstance(key, ast.Constant) and key.value == "within_tolerance"]
    return found


def test_only_experiment_outcome_sets_within_tolerance():
    # ``ExperimentOutcome`` sets the verdict to whether every gate passed,
    # by ``Gate.passed``; a runner writing the key would be a second rule
    sample = ("def r(s):\n    s['within_tolerance'] = True\n"
              "    return {'within_tolerance': 1}, dict(within_tolerance=1)\n")
    assert _verdict_writes(ast.parse(sample)) == ["r"] * 3, \
        "the guard no longer sees a write"
    uses = _package_uses(_verdict_writes)
    assert uses.pop("experiments.py") == ["ExperimentOutcome"], \
        "the guard no longer sees the derivation"
    assert {name: found for name, found in uses.items() if found} == {}


def _assert_lines(tree: ast.AST) -> list[int]:
    """The line of every ``assert`` statement in a module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_asserts():
    # ``python -O`` strips ``assert``, and a soundness check must still run
    # there: the package raises instead
    assert _assert_lines(ast.parse("x = 1\nassert x\n")) == [2], \
        "the guard no longer sees an assert"
    uses = _package_uses(_assert_lines)
    assert len(uses) > 1
    assert {name: found for name, found in uses.items() if found} == {}
