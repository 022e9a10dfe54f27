"""The on-disk format: golden text for every writer, and one module owning it.

The expected strings were recorded from the writers before they were
routed through ``sdelab._io``, except two lines that were deliberately
changed: the kernel sidecar now carries ``row_leakage``, and
``ExitStatistics.to_json`` no longer writes a ``laplace`` map.  No random
numbers are involved, so any byte that changes here changes the SHA-256
of a run artifact.  The same kind of ``ast`` guard keeps the thread pool
in ``firstexit``, home of the only Monte Carlo exit routine, the
tridiagonal factorisation in ``kolmogorov``, home of the only implicit
time stepper, and the pieces of the Euler-Maruyama update in ``sde``,
home of the only Euler-Maruyama loop.
"""

import ast
from pathlib import Path

import numpy as np

import sdelab
from sdelab._io import write_csv
from sdelab.ergodicity import DiscreteKernel, LyapunovReport
from sdelab.experiments import RunManifest
from sdelab.firstexit import ExitStatistics
from sdelab.kolmogorov import DensityField, Grid1D
from sdelab.largedev import ActionPath
from sdelab.sde import TimeGrid


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

    def test_density_field(self, tmp_path):
        target = tmp_path / "density.csv"
        DensityField(Grid1D(0.0, 1.0, 3),
                     np.array([0.0, 0.25, 1.0 / 3.0, 2.0])).save(target)
        assert text(target) == csv_text(
            "x,value",
            "0.0,0.0",
            "0.3333333333333333,0.25",
            "0.6666666666666666,0.3333333333333333",
            "1.0,2.0")

    def test_action_paths(self, tmp_path):
        one = tmp_path / "path1.csv"
        ActionPath(TimeGrid(0.0, 1.0, 4),
                   np.array([0.0, 0.1, 0.2, 0.1 + 0.2, 1.0 / 3.0])).save_csv(one)
        assert text(one) == csv_text(
            "t,x",
            "0.0,0.0",
            "0.25,0.1",
            "0.5,0.2",
            "0.75,0.30000000000000004",
            "1.0,0.3333333333333333")
        two = tmp_path / "path2.csv"
        ActionPath.line([0.0, 1.0], [1.0, -2.0], TimeGrid(0.0, 1.5, 3)).save_csv(two)
        assert text(two) == csv_text(
            "t,x0,x1",
            "0.0,0.0,1.0",
            "0.5,0.3333333333333333,0.0",
            "1.0,0.6666666666666666,-1.0",
            "1.5,1.0,-2.0")

    def test_discrete_kernel_and_sidecar(self, tmp_path):
        target = tmp_path / "kernel.csv"
        DiscreteKernel(np.array([[0.5, 0.5, 0.0], [0.1, 0.8, 0.1],
                                 [0.0, 0.25, 0.75]]),
                       Grid1D(0.0, 1.0, 2), t_step=0.25).save(target)
        assert text(target) == csv_text(
            "0.5,0.5,0.0",
            "0.1,0.8,0.1",
            "0.0,0.25,0.75")
        assert text(tmp_path / "kernel.csv.json") == (
            '{\n'
            '  "grid": {\n'
            '    "n_cells": 2,\n'
            '    "x_max": 1.0,\n'
            '    "x_min": 0.0\n'
            '  },\n'
            '  "row_leakage": null,\n'
            '  "substochastic": false,\n'
            '  "t_step": 0.25\n'
            '}\n')

    def test_exit_samples(self, tmp_path):
        target = tmp_path / "samples.csv"
        ExitStatistics.from_samples(
            np.array([0.5, 1.25, 1.0 / 3.0]), np.array([0, 2, 3]), 5, 2.0,
            np.array([0.0, 1.0, 0.75])).save_samples(target)
        assert text(target) == csv_text(
            "path_id,exit_time,boundary_parameter",
            "0,0.5,0.0",
            "2,1.25,1.0",
            "3,0.3333333333333333,0.75")
        bare = tmp_path / "bare.csv"
        ExitStatistics.from_samples(np.array([0.5]), np.array([4]), 2,
                                    2.0).save_samples(bare)
        assert text(bare) == csv_text(
            "path_id,exit_time,boundary_parameter",
            "4,0.5,")


class TestGoldenJson:
    def test_exit_statistics(self, tmp_path):
        target = tmp_path / "stats.json"
        ExitStatistics.from_samples(
            np.array([0.5, 1.25, 1.0 / 3.0]), np.array([0, 2, 3]), 5, 2.0,
            np.array([0.0, 1.0, 0.75])).to_json(target)
        assert text(target) == (
            '{\n'
            '  "fraction_censored": 0.4,\n'
            '  "mean_time": 0.6944444444444445,\n'
            '  "n_exited": 3,\n'
            '  "n_paths": 5,\n'
            '  "t_max": 2.0,\n'
            '  "time_std_error": 0.281913654585895,\n'
            '  "valid": true\n'
            '}\n')

    def test_undefined_exit_statistics_are_null(self, tmp_path):
        target = tmp_path / "bare.json"
        ExitStatistics.from_samples(np.array([0.5]), np.array([4]), 2,
                                    2.0).to_json(target)
        assert text(target) == (
            '{\n'
            '  "fraction_censored": 0.5,\n'
            '  "mean_time": 0.5,\n'
            '  "n_exited": 1,\n'
            '  "n_paths": 2,\n'
            '  "t_max": 2.0,\n'
            '  "time_std_error": null,\n'
            '  "valid": true\n'
            '}\n')

    def test_lyapunov_report(self, tmp_path):
        target = tmp_path / "lyapunov.json"
        LyapunovReport(
            np.array([1.0, 0.0, 1.0]), np.array([-1.0, 1.0, -1.0]),
            {"feasible": True, "c": 0.5, "d": np.float64(1.25)},
            {"feasible": False, "d": None, "level": None},
            {"feasible": True, "c": 0.1, "d": 2.0, "level": 3.0},
            {"feasible": True, "c": 0.2, "d": 1.5,
             "small_set": np.array([-1.0, 1.0])},
        ).to_json(target)
        assert text(target) == (
            '{\n'
            '  "assumed": [\n'
            '    "sublevel sets compact/petite",\n'
            '    "continuity and irreducibility of the dynamics"\n'
            '  ],\n'
            '  "bounded_growth": {\n'
            '    "c": 0.5,\n'
            '    "d": 1.25,\n'
            '    "feasible": true\n'
            '  },\n'
            '  "exponential": {\n'
            '    "c": 0.2,\n'
            '    "d": 1.5,\n'
            '    "feasible": true,\n'
            '    "small_set": [\n'
            '      -1.0,\n'
            '      1.0\n'
            '    ]\n'
            '  },\n'
            '  "harris_recurrence": {\n'
            '    "c": 0.1,\n'
            '    "d": 2.0,\n'
            '    "feasible": true,\n'
            '    "level": 3.0\n'
            '  },\n'
            '  "non_evanescence": {\n'
            '    "d": null,\n'
            '    "feasible": false,\n'
            '    "level": null\n'
            '  }\n'
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
