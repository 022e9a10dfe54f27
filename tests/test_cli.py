"""Tests for the command-line interface."""

import json

import pytest

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
        for model, message in (("preset = bm\ndim = 0", "model dim must be at least 1"),
                               ("preset = ou\nrate = -1", "model rate must be positive")):
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

    def test_parse_error_exits_two_with_position(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[experiment\nname = arcsine-law\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert "bad.ini:1" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.ini")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_flagged_run_exits_three(self, tmp_path, capsys):
        config = tmp_path / "stall.ini"
        config.write_text("[experiment]\nname = ou-minimum-action\n"
                          "[parameters]\nn_steps = 50\nmax_iter = 1\n",
                          encoding="utf-8")
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 3
        assert "flagged" in capsys.readouterr().err


class TestPlotData:
    def test_emits_csvs_for_a_finished_run(self, quick_config, tmp_path, capsys):
        out = tmp_path / "results"
        main(["run", "--config", str(quick_config), "--out", str(out)])
        capsys.readouterr()
        assert main(["plot-data", str(out / "sample-paths")]) == 0
        printed = capsys.readouterr().out
        assert "summary_points.csv" in printed
        assert (out / "sample-paths" / "plots" / "moments.csv").is_file()

    def test_missing_run_directory_exits_one(self, tmp_path, capsys):
        assert main(["plot-data", str(tmp_path / "never")]) == 1
        assert "manifest" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_run_requires_a_config(self):
        with pytest.raises(SystemExit) as info:
            main(["run"])
        assert info.value.code == 2
