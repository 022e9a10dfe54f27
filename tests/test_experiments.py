"""Tests for the experiment registry, configuration files, and run artifacts."""

import json
import hashlib
import os
import platform
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import scipy

import sdelab
from sdelab.experiments import (
    ConfigError,
    DEFAULT_OUT_ENV,
    ExperimentConfig,
    ModelSpec,
    ParameterSpec,
    RunManifest,
    emit_plot_data,
    execute,
    get_experiment,
    list_experiments,
    load_config,
    parse_config,
    run,
)
from sdelab.expr import Expression


class TestParameterSpec:
    def spec(self, **kw):
        defaults = dict(name="n", kind="int", default=10, help="")
        defaults.update(kw)
        return ParameterSpec(**defaults)

    def test_int_from_string(self):
        assert self.spec().convert(" 25 ") == 25

    def test_int_rejects_fractional_values(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            self.spec().convert(2.5)

    def test_float_from_string(self):
        assert self.spec(kind="float").convert("0.125") == 0.125

    def test_floats_from_comma_separated_text(self):
        got = self.spec(kind="floats").convert("0.5, 0.25,0.125")
        assert got == (0.5, 0.25, 0.125)

    def test_floats_from_a_list(self):
        assert self.spec(kind="floats").convert([1, 2]) == (1.0, 2.0)

    def test_floats_rejects_empty_text(self):
        with pytest.raises(ConfigError, match="comma-separated"):
            self.spec(kind="floats").convert(" ")

    @pytest.mark.parametrize("kind, raw", [
        ("float", "nan"), ("float", "inf"), ("float", float("-inf")),
        ("floats", "0.5, inf"), ("floats", [0.5, float("nan")]),
    ])
    def test_non_finite_numbers_are_rejected(self, kind, raw):
        with pytest.raises(ConfigError, match="expected a finite number"):
            self.spec(kind=kind).convert(raw, source="exp.ini")

    def test_minimum_bound_is_enforced(self):
        spec = self.spec(minimum=2)
        with pytest.raises(ConfigError, match=">= 2"):
            spec.convert(1)

    def test_exclusive_bound_rejects_the_boundary(self):
        spec = self.spec(kind="float", minimum=0, exclusive=True)
        with pytest.raises(ConfigError, match="> 0"):
            spec.convert("0")

    def test_potential_parses_to_an_expression(self):
        got = self.spec(kind="potential").convert("x^2/2")
        assert isinstance(got, Expression)
        assert got(2.0) == 2.0

    def test_potential_parse_failure_becomes_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown name"):
            self.spec(kind="potential").convert("y^2")


class TestModelSpec:
    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown model preset"):
            ModelSpec.from_mapping({"preset": "levy"})

    def test_missing_preset_is_rejected(self):
        with pytest.raises(ConfigError, match="needs a 'preset'"):
            ModelSpec.from_mapping({"rate": 1})

    def test_keys_are_checked_against_the_preset(self):
        with pytest.raises(ConfigError, match="allowed: rate, sigma"):
            ModelSpec.from_mapping({"preset": "ou", "growth": 0.1})

    def test_gradient_requires_a_potential(self):
        with pytest.raises(ConfigError, match="needs a potential"):
            ModelSpec.from_mapping({"preset": "gradient"})

    def test_bad_potential_carries_the_position(self):
        with pytest.raises(ConfigError) as info:
            ModelSpec.from_mapping({"preset": "gradient", "potential": "x +"})
        assert info.value.column == 4

    def test_brownian_build(self):
        model = ModelSpec.from_mapping({"preset": "bm", "dim": "3"}).build()
        assert model.dim_state == 3
        assert np.all(model.drift(np.zeros(3)) == 0.0)

    def test_ou_build_uses_rate_and_sigma(self):
        model = ModelSpec.from_mapping(
            {"preset": "ou", "rate": "2", "sigma": "3"}).build()
        assert model.drift(np.array([1.0]))[0] == -2.0
        assert model.diffusion_matrix(np.array([1.0]))[0, 0] == 9.0

    def test_gbm_build_scales_noise_with_state(self):
        model = ModelSpec.from_mapping(
            {"preset": "gbm", "growth": 0.07, "sigma": 0.5}).build()
        assert model.drift(np.array([2.0]))[0] == pytest.approx(0.14)
        assert model.diffusion_matrix(np.array([2.0]))[0, 0] == pytest.approx(1.0)

    def test_gradient_build_has_unit_temperature_noise(self):
        spec = ModelSpec.from_mapping(
            {"preset": "gradient", "potential": "x^4/4 - x^2/2"})
        model = spec.build()
        assert model.is_gradient
        assert model.drift(np.array([2.0]))[0] == pytest.approx(-6.0)
        assert model.diffusion_matrix(np.array([2.0]))[0, 0] == pytest.approx(2.0)

    def test_gradient_build_differences_a_variable_exponent(self):
        model = ModelSpec.from_mapping(
            {"preset": "gradient", "potential": "x^2/2 + 2^x/1000"}).build()
        xs = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(
            model.drift(xs), -(xs + np.log(2.0) * 2.0**xs / 1000.0),
            rtol=0, atol=1e-9)

    def test_describe_round_trips_the_potential_source(self):
        spec = ModelSpec.from_mapping(
            {"preset": "gradient", "potential": "x^2/2"})
        assert spec.describe() == {"preset": "gradient", "potential": "x^2/2"}

    def test_validation_rejects_bad_coefficients(self):
        with pytest.raises(ConfigError, match="rate"):
            ModelSpec("ou", rate=0.0)
        with pytest.raises(ConfigError, match="sigma"):
            ModelSpec("gbm", sigma=-1.0)
        with pytest.raises(ConfigError, match="dim"):
            ModelSpec("bm", dim=0)


class TestRegistry:
    def test_at_least_ten_experiments(self):
        assert len(list_experiments()) >= 10

    def test_names_are_unique_and_described(self):
        experiments = list_experiments()
        names = [e.name for e in experiments]
        assert len(set(names)) == len(names)
        assert all(e.summary for e in experiments)

    def test_expected_capabilities_are_registered(self):
        names = {e.name for e in list_experiments()}
        assert {"exit-ball-2d", "shell-hitting-3d", "feynman-kac-interval",
                "arcsine-law", "ito-isometry", "fp-stationarity",
                "hm-ou-kernel", "birkhoff-jentzsch", "ou-minimum-action",
                "quasipotential-double-well", "arrhenius-well",
                "eyring-kramers", "certificate-soundness"} <= names

    def test_unknown_experiment_suggests_a_neighbour(self):
        with pytest.raises(ConfigError, match="did you mean 'arcsine-law'"):
            get_experiment("arcsine-laws")

    def test_unknown_parameter_suggests_a_neighbour(self):
        with pytest.raises(ConfigError, match="did you mean 'n_paths'"):
            execute("exit-ball-2d", parameters={"n_pathz": 10})

    def test_model_section_rejected_where_unsupported(self):
        with pytest.raises(ConfigError, match="does not take a model"):
            execute("arcsine-law", model={"preset": "ou"},
                    parameters={"n_paths": 4, "n_steps": 4})

    def test_model_preset_must_be_allowed(self):
        with pytest.raises(ConfigError, match="supports model presets"):
            execute("fp-stationarity", model={"preset": "ou"})

    def test_threads_must_be_positive(self):
        with pytest.raises(ConfigError, match="threads"):
            execute("exit-ball-2d", threads=0)


class TestConfigParsing:
    INI = """
[experiment]
name = sample-paths
seed = 7
out = /tmp/some-root

[parameters]
n_paths = 12
t_end = 1.5

[model]
preset = gbm
growth = 0.07
"""

    JSON = """{
  "experiment": {"name": "sample-paths", "seed": 7, "out": "/tmp/some-root"},
  "parameters": {"n_paths": 12, "t_end": 1.5},
  "model": {"preset": "gbm", "growth": 0.07}
}"""

    def test_sectioned_text_parses(self):
        config = parse_config(self.INI)
        assert config.experiment == "sample-paths"
        assert config.seed == 7
        assert str(config.out_root) == "/tmp/some-root"
        assert config.parameters["n_paths"] == 12
        assert config.model.preset == "gbm"
        assert config.model.growth == 0.07

    def test_json_is_an_equivalent_syntax(self):
        assert parse_config(self.JSON).config_hash == \
            parse_config(self.INI).config_hash

    def test_spelling_out_a_default_does_not_change_the_hash(self):
        base = parse_config("[experiment]\nname = arcsine-law\n")
        explicit = parse_config(
            "[experiment]\nname = arcsine-law\n[parameters]\nn_paths = 10000\n")
        assert base.config_hash == explicit.config_hash

    def test_changing_a_parameter_changes_the_hash(self):
        base = parse_config("[experiment]\nname = arcsine-law\n")
        other = parse_config(
            "[experiment]\nname = arcsine-law\n[parameters]\nn_paths = 9\n")
        assert base.config_hash != other.config_hash

    def test_unknown_section_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[experiment]\nname = arcsine-law\n[plotting]\na=1\n")

    def test_unknown_experiment_key_is_rejected(self):
        with pytest.raises(ConfigError, match="allowed: name, seed, out"):
            parse_config("[experiment]\nname = arcsine-law\nseeed = 3\n")

    def test_missing_name_is_rejected(self):
        with pytest.raises(ConfigError, match="missing experiment name"):
            parse_config("[parameters]\nn_paths = 5\n")

    def test_non_integer_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            parse_config("[experiment]\nname = arcsine-law\nseed = soon\n")

    def test_ini_parse_error_carries_the_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[experiment]\nname arcsine-law\n", source="bad.ini")
        assert info.value.line == 2
        assert str(info.value).startswith("bad.ini:2:")

    def test_json_parse_error_carries_line_and_column(self):
        with pytest.raises(ConfigError) as info:
            parse_config('{"experiment": {,}}', source="bad.json")
        assert info.value.line == 1
        assert info.value.column == 17

    def test_json_sections_must_be_objects(self):
        with pytest.raises(ConfigError, match="must be an object"):
            parse_config('{"experiment": [1, 2]}')

    def test_load_config_reports_missing_files(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/path.ini")

    def test_load_config_reads_a_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(self.INI, encoding="utf-8")
        assert load_config(path).experiment == "sample-paths"


QUICK = dict(n_paths=16, t_end=0.5, n_steps=20)


class TestRunArtifacts:
    def config(self, **params):
        merged = dict(QUICK)
        merged.update(params)
        return ExperimentConfig("sample-paths", seed=5, parameters=merged)

    def test_run_writes_the_expected_files(self, tmp_path):
        result = run(self.config(), out=tmp_path)
        assert result.status == 0
        assert result.run_dir == tmp_path / "sample-paths"
        for name in ("result.json", "manifest.json", "moments.csv", "paths.csv"):
            assert (result.run_dir / name).is_file()

    def test_undefined_results_are_strict_json_nulls(self, tmp_path):
        config = ExperimentConfig("exit-ball-2d",
                                  parameters={"n_paths": 16, "t_max": 0.01})
        with pytest.warns(UserWarning, match="censored"):
            result = run(config, out=tmp_path)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        data = json.loads((result.run_dir / "result.json").read_text(),
                          parse_constant=reject)
        assert data["summary"]["mean_exit_time"] is None
        assert data["summary"]["fraction_censored"] == 1.0
        assert (tmp_path / "exit-ball-2d" / "plots" / "summary_points.csv") in \
            emit_plot_data(result.run_dir)

    def test_rerun_is_byte_identical(self, tmp_path):
        first = run(self.config(), out=tmp_path / "a")
        second = run(self.config(), out=tmp_path / "b")
        for name in first.manifest.outputs:
            assert (first.run_dir / name).read_bytes() == \
                (second.run_dir / name).read_bytes(), name
        assert first.manifest.outputs == second.manifest.outputs
        assert first.manifest.config_hash == second.manifest.config_hash

    def test_manifest_checksums_match_the_files(self, tmp_path):
        result = run(self.config(), out=tmp_path)
        for name, digest in result.manifest.outputs.items():
            data = (result.run_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_manifest_records_version_seed_and_timestamp(self, tmp_path):
        result = run(self.config(), out=tmp_path, threads=2)
        manifest = RunManifest.load(result.run_dir / "manifest.json")
        assert manifest.artifact_version == sdelab.__version__
        assert manifest.seed == 5
        assert manifest.threads == 2
        assert manifest.experiment == "sample-paths"
        datetime.fromisoformat(manifest.created_utc)  # must parse

    def test_manifest_records_the_environment(self, tmp_path):
        result = run(self.config(), out=tmp_path)
        path = result.run_dir / "manifest.json"
        environment = RunManifest.load(path).environment
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "platform": platform.platform()}
        data = json.loads(path.read_text())
        del data["environment"]
        path.write_text(json.dumps(data))
        older = RunManifest.load(path)
        assert older.environment == {}
        assert older.outputs == result.manifest.outputs

    def test_seed_override_changes_the_data(self, tmp_path):
        base = run(self.config(), out=tmp_path / "a")
        other = run(self.config(), seed=6, out=tmp_path / "b")
        assert base.manifest.outputs["result.json"] != \
            other.manifest.outputs["result.json"]
        assert other.manifest.seed == 6

    def test_flagged_outcome_returns_status_three(self, tmp_path):
        config = ExperimentConfig(
            "ou-minimum-action", seed=1,
            parameters={"n_steps": 50, "max_iter": 1})
        result = run(config, out=tmp_path)
        assert result.status == 3
        assert result.manifest.flags
        payload = json.loads((result.run_dir / "result.json").read_text())
        assert payload["flags"]

    def test_output_root_falls_back_to_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DEFAULT_OUT_ENV, str(tmp_path / "from-env"))
        result = run(self.config())
        assert result.run_dir == tmp_path / "from-env" / "sample-paths"

    def test_result_json_has_stable_key_order(self, tmp_path):
        result = run(self.config(), out=tmp_path)
        text = (result.run_dir / "result.json").read_text()
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_csv_files_have_headers_and_plain_decimal_points(self, tmp_path):
        result = run(self.config(), out=tmp_path)
        lines = (result.run_dir / "moments.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0].startswith("t,mean,std")
        assert "," in lines[1]
        assert ";" not in lines[1]


class TestThreadInvariance:
    def test_thread_count_does_not_change_results(self):
        for name, parameters in (
                ("exit-ball-2d", {"n_paths": 40, "h": 5e-3, "t_max": 5.0}),
                ("eyring-kramers", {"n_paths": 40, "eps": 0.5})):
            one = execute(name, parameters=parameters, seed=3, threads=1)
            four = execute(name, parameters=parameters, seed=3, threads=4)
            assert one.summary == four.summary

    SCRIPT = (
        "import sys\n"
        "from sdelab.experiments import ExperimentConfig, run\n"
        "config = ExperimentConfig('hm-ou-kernel', parameters={'n_cells': 120})\n"
        "print(run(config, out=sys.argv[1]).manifest.outputs)\n")

    def test_blas_thread_count_does_not_change_kernel_results(self, tmp_path):
        # a transition kernel is a product of dense matrices; at 121 nodes
        # OpenBLAS splits such a product over two threads, where at 61 or
        # 81 nodes it keeps it on one
        src = str(Path(sdelab.__file__).resolve().parents[1])
        outputs = []
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(tmp_path / n)],
                env=env, timeout=300, capture_output=True, text=True, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        results = [(tmp_path / n / "hm-ou-kernel" / "result.json").read_bytes()
                   for n in ("1", "2")]
        assert results[0] == results[1]

    def test_fewer_paths_than_threads_still_runs(self):
        out = execute("exit-ball-2d",
                      parameters={"n_paths": 5, "h": 5e-3, "t_max": 5.0},
                      seed=3, threads=8)
        assert out.summary["n_paths"] == 5


class TestPlotData:
    def test_tables_and_summary_points_are_emitted(self, tmp_path):
        config = ExperimentConfig(
            "exit-ball-2d", seed=2,
            parameters={"n_paths": 64, "h": 5e-3, "t_max": 10.0})
        result = run(config, out=tmp_path)
        written = emit_plot_data(result.run_dir)
        names = {p.name for p in written}
        assert "exit_time_histogram.csv" in names
        assert "summary_points.csv" in names

        rows = (result.run_dir / "plots" / "summary_points.csv").read_text(
            encoding="utf-8").splitlines()
        assert rows[0] == "quantity,value,std_error,target"
        mean_row = next(r for r in rows if r.startswith("mean_exit_time,"))
        fields = mean_row.split(",")
        assert float(fields[2]) > 0.0          # paired standard error
        assert float(fields[3]) == 0.5         # paired reference value

    def test_missing_run_directory_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            emit_plot_data(tmp_path / "never-ran")


class TestExecuteOutcomes:
    def test_certificates_are_sound_on_a_small_grid(self):
        out = execute("certificate-soundness", parameters={"n_cells": 60})
        assert out.summary["sound"] is True
        assert out.flags == ()

    def test_sample_paths_tracks_the_exact_ou_moments(self):
        out = execute("sample-paths", parameters={"n_paths": 2000}, seed=8)
        s = out.summary
        se = s["terminal_std"] / np.sqrt(2000)
        assert abs(s["terminal_mean"] - s["terminal_mean_target"]) < 4 * se + 0.01

    def test_gradient_model_override_reaches_the_runner(self):
        out = execute("sample-paths", parameters=dict(QUICK),
                      model={"preset": "bm", "dim": 1}, seed=4)
        assert out.summary["model"] == {"preset": "bm", "dim": 1}
        assert out.summary["terminal_std_target"] == pytest.approx(
            np.sqrt(0.5))
