"""Tests for the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdelab
from sdelab import cli
from sdelab.cli import main


@pytest.fixture
def quick_config(tmp_path):
    path = tmp_path / "paths.ini"
    path.write_text(
        "[experiment]\n"
        "name = sample-paths\n"
        "seed = 5\n"
        "\n"
        "[parameters]\n"
        "n_paths = 16\n"
        "t_end = 0.5\n"
        "n_steps = 20\n",
        encoding="utf-8")
    return path


class TestList:
    def test_lists_every_experiment_with_a_summary(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 10
        assert any(line.startswith("exit-ball-2d") for line in lines)
        assert all("  " in line for line in lines)


class TestRun:
    def test_successful_run_writes_artifacts(self, quick_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(quick_config),
                     "--out", str(out)]) == 0
        run_dir = out / "sample-paths"
        assert (run_dir / "result.json").is_file()
        assert (run_dir / "manifest.json").is_file()
        assert str(run_dir) in capsys.readouterr().out

    def test_seed_flag_overrides_the_config(self, quick_config, tmp_path):
        assert main(["run", "--config", str(quick_config),
                     "--out", str(tmp_path / "a"), "--seed", "9"]) == 0
        manifest = json.loads(
            (tmp_path / "a" / "sample-paths" / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_threads_flag_is_recorded_without_changing_data(
            self, quick_config, tmp_path):
        assert main(["run", "--config", str(quick_config),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(quick_config),
                     "--out", str(tmp_path / "b"), "--threads", "3"]) == 0
        read = lambda d: (tmp_path / d / "sample-paths" / "result.json").read_bytes()
        assert read("a") == read("b")

    def test_output_root_defaults_to_the_environment(
            self, quick_config, tmp_path, monkeypatch):
        monkeypatch.setenv("SDELAB_OUT", str(tmp_path / "envroot"))
        assert main(["run", "--config", str(quick_config)]) == 0
        assert (tmp_path / "envroot" / "sample-paths" / "result.json").is_file()

    def test_schema_error_exits_two_and_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nname = exit-ball-2d\n"
                          "[parameters]\nn_pathz = 4\n", encoding="utf-8")
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "did you mean 'n_paths'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_value_exits_two_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nname = sample-paths\n"
                          "[model]\npreset = bm\ndim = abc\n", encoding="utf-8")
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "results")]) == 2
        assert f"{config}: parameter 'dim'" in capsys.readouterr().err

    def test_out_of_range_model_value_exits_two_naming_the_file(self, tmp_path,
                                                                 capsys):
        config = tmp_path / "bad.ini"
        for model, message in (("preset = bm\ndim = 0", "parameter 'dim' must be >= 1, got 0"),
                               ("preset = ou\nrate = -1",
                                "parameter 'rate' must be > 0, got -1.0")):
            config.write_text("[experiment]\nname = sample-paths\n"
                              f"[model]\n{model}\n", encoding="utf-8")
            assert main(["run", "--config", str(config),
                         "--out", str(tmp_path / "results")]) == 2
            assert f"{config}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key, value", [
        ("sample-paths", "x0", "nan"), ("exit-ball-2d", "t_max", "inf")])
    def test_non_finite_parameter_exits_two_naming_the_file(
            self, tmp_path, capsys, experiment, key, value):
        config = tmp_path / "bad.ini"
        config.write_text(f"[experiment]\nname = {experiment}\n"
                          f"[parameters]\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert (f"{config}: parameter {key!r}: expected a finite number"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_integer_too_large_for_a_float_exits_two_naming_the_file(
            self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"experiment": {"name": "sample-paths"}, '
                          '"parameters": {"x0": 1' + "0" * 400 + '}}',
                          encoding="utf-8")
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert (f"{config}: parameter 'x0': int too large to convert to float"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_ito_levels_off_the_fine_grid_exit_two_naming_the_file(
            self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nname = ito-isometry\n"
                          "[parameters]\nn_steps = 100\n", encoding="utf-8")
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert (f"{config}: parameter 'n_steps' (100) must be a multiple of "
                "2**doublings = 2**3" in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_seed_exits_two_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment]\nname = arcsine-law\nseed = -2\n",
                          encoding="utf-8")
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert (f"{config}: seed must be a non-negative integer, got -2"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_parse_error_exits_two_with_position(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment\nname = arcsine-law\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert "bad.ini:1" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.ini")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_two_naming_the_file(self, tmp_path,
                                                               capsys):
        config = tmp_path / "bad.ini"
        config.write_bytes(b"[experiment]\nname = arcsine-law\xff\n")
        assert main(["run", "--config", str(config)]) == 2
        assert f"{config}: cannot read config" in capsys.readouterr().err

    def test_flagged_run_exits_three(self, tmp_path, capsys):
        config = tmp_path / "stall.ini"
        config.write_text("[experiment]\nname = ou-minimum-action\n"
                          "[parameters]\nn_steps = 50\nmax_iter = 1\n",
                          encoding="utf-8")
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 3
        assert "missed its gate: converged = False (needs == True)" in \
            capsys.readouterr().err

    def test_status_rule_holds_under_optimisation(self, tmp_path):
        # ``python -O`` strips asserts; the status must not rest on one
        config = tmp_path / "stall.ini"
        config.write_text("[experiment]\nname = ou-minimum-action\n"
                          "[parameters]\nn_steps = 50\nmax_iter = 1\n",
                          encoding="utf-8")
        src = str(Path(sdelab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "sdelab.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        payload = json.loads(
            (tmp_path / "o" / "ou-minimum-action" / "result.json").read_text())
        assert [g["name"] for g in payload["gates"] if not g["passed"]] == \
            ["converged", "abs_error"]
        assert payload["flags"][0] == "converged = False (needs == True)"
        assert [line for line in done.stderr.splitlines() if "missed its gate:" in line] \
            == [f"  missed its gate: {flag}" for flag in payload["flags"]]


class TestUsage:
    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_run_requires_a_config(self):
        with pytest.raises(SystemExit) as info:
            main(["run"])
        assert info.value.code == 2

    def test_an_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["plot-data", "x"])
        assert info.value.code == 2

    def test_readme_and_docstring_name_the_accepted_subcommands(self):
        action = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        named = re.compile(r"^\s*sdelab (\S+)", re.MULTILINE)
        assert set(named.findall(block)) == set(action.choices)
        assert set(named.findall(cli.__doc__)) == set(action.choices)
