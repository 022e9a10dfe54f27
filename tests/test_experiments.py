"""Tests for the experiment registry, configuration files, and run artifacts."""

import json
import hashlib
import os
import platform
import re
import subprocess
import sys
import warnings
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import stats

import sdelab
from sdelab.cli import main as cli_main
from sdelab.experiments import (
    ConfigError,
    DEFAULT_OUT_ENV,
    ExperimentConfig,
    ExperimentOutcome,
    Gate,
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
from sdelab.firstexit import arcsine_cdf, arcsine_occupation
from sdelab.sde import GaussianStream, TimeGrid


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
        assert model.drift(np.array([2.0]))[0] == pytest.approx(-6.0)
        assert model.diffusion_matrix(np.array([2.0]))[0, 0] == pytest.approx(2.0)

    def test_gradient_build_drift_is_one_compiled_expression(self):
        # an Euler-Maruyama step then makes one drift call, with no wrappers
        model = ModelSpec.from_mapping(
            {"preset": "gradient", "potential": "x^4/4 - x^2/2"}).build()
        assert isinstance(model.drift, Expression)
        assert model.drift.source == "x-x^3"  # the negation folded into the difference

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
        with pytest.raises(ConfigError, match="'rate': expected a finite number"):
            ModelSpec("ou", rate=float("nan"))
        with pytest.raises(ConfigError, match="'sigma': expected a finite number"):
            ModelSpec("gbm", sigma=float("inf"))
        with pytest.raises(ConfigError, match="'dim': expected an integer"):
            ModelSpec("bm", dim=2.5)
        with pytest.raises(ConfigError, match="'potential'") as info:
            ModelSpec("gradient", potential="x^2/2 +")
        assert info.value.column == 8
        # a coefficient its preset does not read may only keep its default
        with pytest.raises(ConfigError,
                           match="^unknown model key 'dim' for preset 'ou'; "
                                 "allowed: rate, sigma$"):
            ModelSpec("ou", dim=0)
        assert ModelSpec("ou", dim=1) == ModelSpec("ou")

    def test_python_spec_hashes_like_its_config_file_spelling(self):
        text = ("[experiment]\nname = sample-paths\n"
                "[model]\npreset = ou\nrate = 2\n")
        built = ExperimentConfig("sample-paths", model=ModelSpec("ou", rate=2))
        assert built.config_hash == parse_config(text).config_hash


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
        with pytest.raises(ConfigError, match="threads"):
            execute("exit-ball-2d", threads=1.5)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError,
                           match="^seed must be a non-negative integer, got -2$"):
            execute("exit-ball-2d", seed=-2)
        with pytest.raises(ConfigError,
                           match="^seed must be a non-negative integer, got 1.5$"):
            ExperimentConfig("arcsine-law", seed=1.5)


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


class TestGate:
    @pytest.mark.parametrize("value, op, bound, passed", [
        (0.02, "<", 0.03, True), (0.03, "<", 0.03, False), (0.03, "<=", 0.03, True),
        (0, "==", 0, True), (1, "==", 0, False), (0.5, ">=", 0.5, True),
        (0.0, ">", 0.0, False), (None, "<=", 3.0, False),
        (float("nan"), "<=", 3.0, False)])
    def test_a_gate_passes_by_its_comparison(self, value, op, bound, passed):
        assert Gate("g", value, op, bound).passed is passed

    def test_the_summary_reads_whether_every_gate_passed(self):
        gates = (Gate("a", 1.0, "<", 2.0), Gate("b", 3.0, "<", 2.0))
        assert ExperimentOutcome({}, gates=gates[:1]).summary == \
            {"within_tolerance": True}
        assert ExperimentOutcome({}, gates=gates).summary == \
            {"within_tolerance": False}
        assert ExperimentOutcome({}).summary == {}


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

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        result = run(self.config(), out=tmp_path)
        path = result.run_dir / "manifest.json"
        environment = RunManifest.load(path).environment
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "platform": platform.platform(), "OPENBLAS_NUM_THREADS": "2",
            "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "1"}
        data = json.loads(path.read_text())
        del data["environment"]
        path.write_text(json.dumps(data))
        older = RunManifest.load(path)
        assert older.environment == {}
        assert older.outputs == result.manifest.outputs

    def test_run_builds_its_config_once(self, tmp_path, monkeypatch):
        path = tmp_path / "quick.ini"
        path.write_text("[experiment]\nname = sample-paths\n[parameters]\n" + "".join(
            f"{key} = {value}\n" for key, value in QUICK.items()))
        built = []
        post_init = ExperimentConfig.__post_init__

        def counting(config):
            built.append(config.seed)
            post_init(config)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counting)
        run(path, out=tmp_path / "a")
        assert built == [None]  # read from the file
        built.clear()
        run(path, seed=3, out=tmp_path / "b")
        assert built == [None, 3]  # read from the file, then reseeded

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

    def test_the_benchmark_failure_line_names_the_missed_gates(self, tmp_path, monkeypatch):
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        if Path(sdelab.__file__).resolve().parent != perfbench.parent / "src" / "sdelab":
            pytest.skip("sdelab is not imported from this checkout's src/, so the worker exits")
        monkeypatch.syspath_prepend(str(perfbench))
        import worker
        from workloads import Operation

        op = Operation("ou-minimum-action", {"n_steps": 50, "max_iter": 1})
        record = worker.run_operation(
            op, ExperimentConfig(op.experiment, parameters=op.parameters), 1, tmp_path)
        assert record["problems"][0].startswith(
            "status 3 (flags: ['converged = False (needs == True)', 'abs_error = ")

    def test_missed_gate_without_a_flag_returns_status_three(self, tmp_path, capsys):
        # 100 paths put the KS statistic near 0.08, over the 0.03 gate
        config = tmp_path / "few.ini"
        config.write_text("[experiment]\nname = arcsine-law\n\n"
                          "[parameters]\nn_paths = 100\nn_steps = 100\n",
                          encoding="utf-8")
        result = run(load_config(config), out=tmp_path / "run")
        assert result.outcome.summary["within_tolerance"] is False
        assert result.outcome.flags == (
            f"ks_statistic = {result.outcome.summary['ks_statistic']} (needs < 0.03)",)
        assert result.status == 3
        gates = json.loads((result.run_dir / "result.json").read_text())["gates"]
        assert gates == [{"name": "ks_statistic",
                          "value": result.outcome.summary["ks_statistic"],
                          "op": "<", "bound": 0.03, "passed": False}]
        assert cli_main(["run", "--config", str(config),
                         "--out", str(tmp_path / "cli")]) == 3
        err = capsys.readouterr().err
        assert "missed its gate: ks_statistic = " in err
        assert "(needs < 0.03)" in err

    @pytest.mark.parametrize("name, parameters, seed, missed", [
        # 20 paths put an RMS ratio 0.54 off sqrt(2), over the 0.15 rate bound
        ("ito-isometry", {"n_paths": 20}, 2, "max_ratio_deviation"),
        # a horizon of 2 censors about 0.5% of the paths, with the mean
        # still inside its 0.03 tolerance
        ("exit-ball-2d", {"t_max": 2.0}, None, "fraction_censored"),
    ])
    def test_a_missed_acceptance_bound_returns_status_three(
            self, tmp_path, name, parameters, seed, missed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the censoring warning
            result = run(ExperimentConfig(name, seed, parameters=parameters),
                         out=tmp_path)
        assert result.status == 3
        missed_gates = [g for g in result.outcome.gates if not g.passed]
        assert result.outcome.flags == tuple(
            f"{g.name} = {g.value} (needs {g.op} {g.bound})" for g in missed_gates)
        assert result.outcome.summary["within_tolerance"] is False
        assert [g.name for g in missed_gates] == [missed]

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
    def test_shell_hitting_is_gated_against_its_start_radius(self):
        # from radius 4 Brownian motion in 3D hits the unit ball with
        # probability 1/4, not the 1/2 of the default start
        out = execute("shell-hitting-3d", parameters={"r_start": 4.0})
        s = out.summary
        assert s["hit_probability_target"] == 0.25
        assert s["abs_error"] == abs(s["hit_probability"] - 0.25)
        assert s["within_tolerance"] is True

    def test_certificates_are_sound_on_a_small_grid(self):
        out = execute("certificate-soundness", parameters={"n_cells": 60})
        assert out.summary["within_tolerance"] is True
        assert {g.name: g.passed for g in out.gates} == {
            "drift_violations": True, "minorisation_violations": True,
            "cone_violations": True}
        assert out.flags == ()

    @pytest.mark.parametrize("n_cells", [16, 40])
    def test_a_coarse_grid_is_flagged_not_raised(self, tmp_path, n_cells):
        # the unit OU on [-5, 5] has cell Peclet number 5 dx at the walls,
        # 3.1 at 16 cells and 1.25 at 40; the fitted kernel stays positive
        # there, but its drift certificate misses the closed form by over 5%
        config = tmp_path / "coarse.ini"
        config.write_text("[experiment]\nname = hm-ou-kernel\n\n"
                          f"[parameters]\nn_cells = {n_cells}\n", encoding="utf-8")
        result = run(load_config(config), out=tmp_path / "run")
        assert result.outcome.summary["within_tolerance"] is False
        assert result.outcome.summary["gamma_rel_error"] > 0.05
        assert result.status == 3
        assert cli_main(["run", "--config", str(config),
                         "--out", str(tmp_path / "cli")]) == 3

    def test_a_grid_fine_enough_for_the_drift_passes(self):
        out = execute("hm-ou-kernel", parameters={"n_cells": 48})
        assert out.summary["within_tolerance"] is True
        assert out.flags == ()

    def test_fitted_flux_holds_a_quartic_gibbs_density_on_a_coarse_grid(self):
        # the central flux drifted 1.5e-3 here, over the 1e-4 gate
        out = execute("fp-stationarity", parameters={"n_cells": 120},
                      model={"preset": "gradient", "potential": "x^4/4 - x^2/2"})
        assert out.summary["stationary_l1_drift"] < 1e-12
        assert out.summary["within_tolerance"] is True

    def test_sample_paths_tracks_the_exact_ou_moments(self):
        out = execute("sample-paths", parameters={"n_paths": 2000}, seed=8)
        s = out.summary
        se = s["terminal_std"] / np.sqrt(2000)
        assert abs(s["terminal_mean"] - s["terminal_mean_target"]) < 4 * se + 0.01

    @pytest.mark.parametrize("seed, n_paths", [(1, 100), (2, 1000), (3, 37)])
    def test_arcsine_ks_statistic_is_scipys(self, seed, n_paths):
        params = {"n_paths": n_paths, "n_steps": 200}
        out = execute("arcsine-law", parameters=params, seed=seed)
        fractions = arcsine_occupation(n_paths, TimeGrid(0.0, 1.0, 200),
                                       GaussianStream(seed))
        assert out.summary["ks_statistic"] == \
            stats.kstest(fractions, arcsine_cdf).statistic

    def test_feynman_kac_without_right_exits_is_flagged_not_raised(self):
        # at seed 1 both paths leave through -a: the one-sided Laplace
        # estimates have zero standard error and no conditional mean exists
        out = execute("feynman-kac-interval", parameters={"n_paths": 2}, seed=1)
        s = out.summary
        assert s["within_tolerance"] is False
        assert s["max_abs_z_laplace"] is None
        assert s["conditional_mean_time"] is None
        assert s["conditional_mean_z"] is None
        missed = [(g.name, g.value) for g in out.gates if not g.passed]
        assert missed == [("max_abs_z_laplace", None), ("right_exits", 0),
                          ("|conditional_mean_z|", None)]

    def test_feynman_kac_with_one_right_exit_has_no_conditional_z(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Degrees of freedom <= 0"
            out = execute("feynman-kac-interval", parameters={"n_paths": 2}, seed=2)
        s = out.summary
        assert s["within_tolerance"] is False
        assert s["conditional_mean_time"] > 0
        assert s["conditional_mean_time_std_error"] is None
        assert s["conditional_mean_z"] is None
        assert s["max_abs_z_laplace"] > 0
        # two paths also put the Laplace z-scores past their gate
        assert out.flags == (f"max_abs_z_laplace = {s['max_abs_z_laplace']} (needs <= 3.0)",
                             "right_exits = 1 (needs >= 2)",
                             "|conditional_mean_z| = None (needs <= 3.0)")

    @pytest.mark.parametrize("n_steps, doublings", [(100, 3), (8, 5), (2048, 12)])
    def test_ito_isometry_levels_must_divide_the_fine_grid(self, n_steps, doublings):
        with pytest.raises(ConfigError, match=re.escape(
                f"parameter 'n_steps' ({n_steps}) must be a multiple of "
                f"2**doublings = 2**{doublings}")):
            execute("ito-isometry",
                    parameters={"n_steps": n_steps, "doublings": doublings})

    def test_gradient_model_override_reaches_the_runner(self):
        out = execute("sample-paths", parameters=dict(QUICK),
                      model={"preset": "bm", "dim": 1}, seed=4)
        assert out.summary["model"] == {"preset": "bm", "dim": 1}
        assert out.summary["terminal_std_target"] == pytest.approx(
            np.sqrt(0.5))
