"""Configuration-driven experiments with reproducible file outputs.

Every capability of the library is packaged here as a named experiment: a
seeded, schema-checked recipe that produces a JSON summary, tidy CSV
tables, and a manifest with checksums.  Re-running the same configuration
with the same seed and package version writes byte-identical data files,
so runs can be diffed, cached, and cited.

Configurations are flat ``key = value`` files with sections (JSON is
accepted as an alternative)::

    [experiment]
    name = arrhenius-well
    seed = 7

    [parameters]
    n_paths = 400

Unknown sections, keys, and parameters are rejected against the
per-experiment schema; model presets (``bm``, ``ou``, ``gbm``,
``gradient`` with a potential expression) are validated the same way.
:func:`run` drives an experiment from a config file, :func:`execute`
runs one in-process, and :func:`emit_plot_data` reshapes a finished run
directory into plot-ready CSVs.
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import json
import math
import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
import scipy
from scipy import stats as sp_stats

from . import __version__
from ._io import jsonable, read_json, sha256, write_csv, write_json
from .expr import Expression, ExpressionError, parse_expression
from .firstexit import (
    Domain,
    arcsine_cdf,
    arcsine_occupation,
    ball_exit_expectation,
    fk_conditional_mean,
    fk_laplace_interval,
    fk_laplace_one_sided,
    interval_exit_reference,
    mc_exit,
    mc_radial_hitting,
    shell_hitting_probability,
)
from .ergodicity import (
    discretize_kernel,
    drift_violations,
    fit_cone_bounds,
    hilbert_metric,
    hm_constants,
    power_iteration_jentzsch,
    projective_diameter,
    rho_beta_distance,
    verify_geometric_drift,
    verify_hm_contraction,
    verify_minorisation,
)
from .kolmogorov import DensityField, Grid1D, solve_fokker_planck, stationary_density_gradient
from .largedev import _derivative, arrhenius_check, eyring_kramers_time, minimize_action, ou_exit_rate, quasipotential
from .sde import GaussianStream, SdeModel, TimeGrid, euler_maruyama_ensemble, sample_wiener

__all__ = [
    "ConfigError",
    "ParameterSpec",
    "ModelSpec",
    "ExperimentConfig",
    "Experiment",
    "ExperimentOutcome",
    "RunManifest",
    "RunResult",
    "DEFAULT_OUT_ENV",
    "list_experiments",
    "get_experiment",
    "execute",
    "load_config",
    "parse_config",
    "run",
    "emit_plot_data",
]

DEFAULT_OUT_ENV = "SDELAB_OUT"


class ConfigError(ValueError):
    """Rejected configuration: syntax, schema, or value problems.

    Parse-level failures carry the offending ``line`` and ``column``;
    schema failures carry just the source file.
    """

    def __init__(self, message: str, *, source: str | None = None,
                 line: int | None = None, column: int | None = None) -> None:
        self.message = message
        self.source = source
        self.line = line
        self.column = column
        prefix = ""
        if source is not None:
            prefix = source
            if line is not None:
                prefix += f":{line}"
                if column is not None:
                    prefix += f":{column}"
            prefix += ": "
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# Schema: parameters and model presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterSpec:
    """One schema entry: name, type, default, and an optional lower bound."""

    name: str
    kind: str  # "int" | "float" | "floats" | "potential" | "str"
    default: object
    help: str
    minimum: float | None = None
    exclusive: bool = False

    def convert(self, raw: object, *, source: str | None = None) -> object:
        try:
            value = self._convert(raw)
            if self.kind in ("float", "floats") and not np.all(np.isfinite(value)):
                raise ValueError(f"expected a finite number, got {value!r}")
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(
                f"parameter {self.name!r}: {err}", source=source) from None
        self._check_bound(value, source)
        return value

    def _convert(self, raw: object) -> object:
        if self.kind == "int":
            if isinstance(raw, bool):
                raise ValueError("expected an integer")
            if isinstance(raw, int):
                return raw
            if isinstance(raw, float):
                if not raw.is_integer():
                    raise ValueError(f"expected an integer, got {raw!r}")
                return int(raw)
            return int(str(raw).strip())
        if self.kind == "float":
            if isinstance(raw, bool):
                raise ValueError("expected a number")
            return float(raw if isinstance(raw, (int, float)) else str(raw).strip())
        if self.kind == "floats":
            if isinstance(raw, (list, tuple)):
                items = list(raw)
            else:
                items = [tok for tok in str(raw).split(",") if tok.strip()]
            if not items:
                raise ValueError("expected a comma-separated list of numbers")
            return tuple(float(item) for item in items)
        if self.kind == "potential":
            if isinstance(raw, Expression):
                return raw
            try:
                return parse_expression(str(raw))
            except ExpressionError as err:
                raise ValueError(str(err)) from None
        return str(raw)

    def _check_bound(self, value: object, source: str | None) -> None:
        if self.minimum is None:
            return
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            ok = item > self.minimum if self.exclusive else item >= self.minimum
            if not ok:
                op = ">" if self.exclusive else ">="
                raise ConfigError(
                    f"parameter {self.name!r} must be {op} {self.minimum}, "
                    f"got {item}", source=source)


_PRESET_FIELDS = {
    "bm": ("dim",),
    "ou": ("rate", "sigma"),
    "gbm": ("growth", "sigma"),
    "gradient": ("potential",),
}


@dataclass(frozen=True)
class ModelSpec:
    """A named model preset with its coefficients.

    ``bm`` is standard Brownian motion in ``dim`` dimensions; ``ou`` is
    ``dX = -rate X dt + sigma dW``; ``gbm`` is ``dX = growth X dt +
    sigma X dW``; ``gradient`` is ``dX = -U'(X) dt + sqrt(2) dW`` for a
    potential given as an expression in ``x`` (the sqrt(2) normalisation
    makes ``exp(-U)/Z`` the stationary density).
    """

    preset: str
    dim: int = 1
    rate: float = 1.0
    sigma: float = 1.0
    growth: float = 0.05
    potential: Expression | None = None

    def __post_init__(self) -> None:
        if self.preset not in _PRESET_FIELDS:
            raise ConfigError(
                f"unknown model preset {self.preset!r}; choose from "
                f"{sorted(_PRESET_FIELDS)}")
        if self.preset == "gradient" and self.potential is None:
            raise ConfigError("model preset 'gradient' needs a potential")
        if self.dim < 1:
            raise ConfigError("model dim must be at least 1")
        if self.preset == "ou" and self.rate <= 0:
            raise ConfigError("model rate must be positive")
        if self.preset in ("ou", "gbm") and self.sigma <= 0:
            raise ConfigError("model sigma must be positive")

    @classmethod
    def from_mapping(cls, data: Mapping[str, object],
                     source: str | None = None) -> "ModelSpec":
        entries = dict(data)
        preset = str(entries.pop("preset", "")).strip()
        if not preset:
            raise ConfigError("model section needs a 'preset' key",
                              source=source)
        if preset not in _PRESET_FIELDS:
            raise ConfigError(
                f"unknown model preset {preset!r}; choose from "
                f"{sorted(_PRESET_FIELDS)}", source=source)
        allowed = _PRESET_FIELDS[preset]
        kwargs: dict[str, object] = {"preset": preset}
        for key, raw in entries.items():
            if key not in allowed:
                raise ConfigError(
                    f"unknown model key {key!r} for preset {preset!r}; "
                    f"allowed: {', '.join(allowed)}", source=source)
            if key == "potential":
                try:
                    kwargs[key] = (raw if isinstance(raw, Expression)
                                   else parse_expression(str(raw)))
                except ExpressionError as err:
                    raise ConfigError(f"model potential: {err.message}",
                                      source=source, line=err.line,
                                      column=err.column) from None
            else:
                kind = "int" if key == "dim" else "float"
                kwargs[key] = ParameterSpec(key, kind, None, "").convert(
                    raw, source=source)
        try:
            return cls(**kwargs)
        except ConfigError as err:
            raise ConfigError(err.message, source=source) from None

    def describe(self) -> dict[str, object]:
        out: dict[str, object] = {"preset": self.preset}
        for key in _PRESET_FIELDS[self.preset]:
            value = getattr(self, key)
            out[key] = value.source if isinstance(value, Expression) else value
        return out

    def build(self) -> SdeModel:
        if self.preset == "bm":
            return SdeModel.brownian(self.dim)
        if self.preset == "ou":
            rate, sigma = self.rate, self.sigma
            return SdeModel.scalar(lambda x: -rate * x, sigma)
        if self.preset == "gbm":
            growth, sigma = self.growth, self.sigma
            return SdeModel.scalar(lambda x: growth * x, lambda x: sigma * x)
        return SdeModel.gradient(self.potential, _derivative(self.potential))


# ---------------------------------------------------------------------------
# Experiments and their outcomes
# ---------------------------------------------------------------------------

@dataclass
class ExperimentOutcome:
    """In-memory result of one experiment: summary, tables, and flags.

    ``tables`` maps a name to a ``(header, rows)`` pair destined for a
    CSV file of the same name; ``flags`` lists non-convergence or
    infeasibility conditions, which turn into a nonzero exit status.
    """

    experiment: str
    summary: dict[str, object]
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)
    flags: tuple[str, ...] = ()


@dataclass
class _Run:
    """Everything a runner needs: validated inputs plus noise and threads."""

    params: dict[str, object]
    model_spec: ModelSpec | None
    stream: GaussianStream
    threads: int

    def model(self) -> SdeModel:
        return self.model_spec.build()


@dataclass(frozen=True)
class Experiment:
    """Registry entry: schema, default model, and the runner callable."""

    name: str
    summary: str
    parameters: tuple[ParameterSpec, ...]
    runner: Callable[[_Run], ExperimentOutcome]
    model: ModelSpec | None = None
    model_presets: tuple[str, ...] = ()
    default_seed: int = 1

    def parameter(self, name: str) -> ParameterSpec:
        for spec in self.parameters:
            if spec.name == name:
                return spec
        raise KeyError(name)


_REGISTRY: dict[str, Experiment] = {}


def list_experiments() -> tuple[Experiment, ...]:
    """All registered experiments, in registration order."""
    return tuple(_REGISTRY.values())


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        hint = difflib.get_close_matches(name, _REGISTRY, n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(
            f"unknown experiment {name!r}{extra} (run 'sdelab list' for "
            "the registry)") from None


def _validate_parameters(experiment: Experiment,
                         given: Mapping[str, object] | None,
                         source: str | None = None) -> dict[str, object]:
    params = {spec.name: spec.convert(spec.default) for spec in experiment.parameters}
    for key, raw in (given or {}).items():
        try:
            spec = experiment.parameter(key)
        except KeyError:
            hint = difflib.get_close_matches(
                key, [s.name for s in experiment.parameters], n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(
                f"unknown parameter {key!r} for experiment "
                f"{experiment.name!r}{extra}", source=source) from None
        params[spec.name] = spec.convert(raw, source=source)
    return params


def _resolve_model(experiment: Experiment,
                   model: "ModelSpec | Mapping[str, object] | None",
                   source: str | None = None) -> ModelSpec | None:
    if model is None:
        return experiment.model
    if experiment.model is None:
        raise ConfigError(
            f"experiment {experiment.name!r} does not take a model section",
            source=source)
    spec = model if isinstance(model, ModelSpec) else ModelSpec.from_mapping(
        model, source=source)
    if spec.preset not in experiment.model_presets:
        raise ConfigError(
            f"experiment {experiment.name!r} supports model presets "
            f"{', '.join(experiment.model_presets)}; got {spec.preset!r}",
            source=source)
    return spec


def execute(name: str, *, parameters: Mapping[str, object] | None = None,
            model: "ModelSpec | Mapping[str, object] | None" = None,
            seed: int | None = None, threads: int = 1) -> ExperimentOutcome:
    """Run a named experiment in-process and return its outcome.

    ``parameters`` and ``model`` override the registry defaults after
    schema validation; ``seed`` defaults to the experiment's registered
    seed, so calling with no overrides reproduces the canonical run.
    """
    experiment = get_experiment(name)
    params = _validate_parameters(experiment, parameters)
    spec = _resolve_model(experiment, model)
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    stream = GaussianStream(experiment.default_seed if seed is None else seed)
    return experiment.runner(_Run(params, spec, stream, threads))


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration: experiment, seed, output root, overrides."""

    experiment: str
    seed: int | None = None
    out_root: Path | None = None
    parameters: Mapping[str, object] = field(default_factory=dict)
    model: ModelSpec | None = None

    def canonical(self) -> dict[str, object]:
        """Fully-resolved, JSON-able view of the run semantics.

        Registry defaults are folded in, so two configs that resolve to
        the same run hash identically regardless of which keys they
        spelled out.
        """
        experiment = get_experiment(self.experiment)
        params = _validate_parameters(experiment, self.parameters)
        spec = _resolve_model(experiment, self.model)
        seed = experiment.default_seed if self.seed is None else self.seed
        return {
            "experiment": self.experiment,
            "seed": seed,
            "parameters": {k: jsonable(v) for k, v in sorted(params.items())},
            "model": None if spec is None else spec.describe(),
        }

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse configuration text (sectioned key=value, or JSON)."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(err.msg, source=source, line=err.lineno,
                              column=err.colno) from None
        sections = dict(data)
        for name, body in sections.items():
            if not isinstance(body, dict):
                raise ConfigError(f"section {name!r} must be an object",
                                  source=source)
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=source)
        except configparser.Error as err:
            line = getattr(err, "lineno", None)
            message = str(err).splitlines()[0]
            if getattr(err, "errors", None):
                line, text = err.errors[0]
                message = f"could not parse line {text}"
            raise ConfigError(message, source=source, line=line,
                              column=1 if line is not None else None) from None
        sections = {name: dict(parser[name]) for name in parser.sections()}

    unknown = set(sections) - {"experiment", "parameters", "model"}
    if unknown:
        raise ConfigError(
            f"unknown section(s) {sorted(unknown)}; expected [experiment], "
            "[parameters], [model]", source=source)
    head = dict(sections.get("experiment", {}))
    name = str(head.pop("name", "")).strip()
    if not name:
        raise ConfigError("missing experiment name ([experiment] name = ...)",
                          source=source)
    seed: int | None = None
    if "seed" in head:
        raw = head.pop("seed")
        try:
            seed = int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"seed must be an integer, got {raw!r}",
                              source=source) from None
    out_root = Path(str(head.pop("out"))).expanduser() if "out" in head else None
    if head:
        raise ConfigError(
            f"unknown key(s) {sorted(head)} in [experiment]; allowed: "
            "name, seed, out", source=source)

    experiment = get_experiment(name)
    params = _validate_parameters(experiment, sections.get("parameters"),
                                  source=source)
    model = None
    if "model" in sections:
        model = _resolve_model(experiment,
                               ModelSpec.from_mapping(sections["model"],
                                                      source=source),
                               source=source)
    return ExperimentConfig(name, seed, out_root, params, model)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    return parse_config(text, source=str(path))


# ---------------------------------------------------------------------------
# Running to files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every run's data files.

    ``outputs`` maps each data file to its SHA-256, so byte-identical
    reproduction is checkable without re-reading this module's code.
    The timestamp lives only here — data files stay deterministic.
    ``environment`` names the Python, numpy and scipy versions, numpy's
    BLAS and the platform, since the bytes depend on numpy's samplers and
    kernels and, for transition kernels, on BLAS matrix products;
    manifests written without it load with an empty mapping.
    """

    experiment: str
    config_hash: str
    artifact_version: str
    created_utc: str
    seed: int
    threads: int
    outputs: Mapping[str, str]
    flags: tuple[str, ...]
    environment: Mapping[str, str] = field(default_factory=dict)

    def save(self, path) -> None:
        write_json(path, {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "artifact_version": self.artifact_version,
            "created_utc": self.created_utc,
            "seed": self.seed,
            "threads": self.threads,
            "outputs": dict(sorted(self.outputs.items())),
            "flags": list(self.flags),
            "environment": dict(sorted(self.environment.items())),
        })

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = read_json(path)
        return cls(data["experiment"], data["config_hash"],
                   data["artifact_version"], data["created_utc"],
                   data["seed"], data["threads"], data["outputs"],
                   tuple(data["flags"]), data.get("environment", {}))


@dataclass
class RunResult:
    """What :func:`run` hands back: status code, directory, and records."""

    status: int
    run_dir: Path
    manifest: RunManifest
    outcome: ExperimentOutcome


def _environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "platform": platform.platform()}


def run(config, *, seed: int | None = None, out=None,
        threads: int | None = None) -> RunResult:
    """Run a configured experiment and write its artifacts.

    ``config`` is a path to a config file or an
    :class:`ExperimentConfig`.  ``seed``, ``out``, and ``threads``
    override the config; the output root falls back to the
    ``SDELAB_OUT`` environment variable and then ``./runs``.  Returns a
    :class:`RunResult` whose status is 0 on success and 3 when the
    experiment reported non-convergence flags.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    experiment = get_experiment(config.experiment)
    use_seed = seed if seed is not None else config.seed
    if use_seed is None:
        use_seed = experiment.default_seed
    use_threads = threads if threads is not None else 1
    root = Path(out) if out is not None else config.out_root
    if root is None:
        root = Path(os.environ.get(DEFAULT_OUT_ENV, "runs"))
    resolved = ExperimentConfig(config.experiment, use_seed, None,
                                config.parameters, config.model)

    outcome = execute(config.experiment, parameters=config.parameters,
                      model=config.model, seed=use_seed, threads=use_threads)

    run_dir = root / config.experiment
    run_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}
    write_json(run_dir / "result.json", {
        "experiment": outcome.experiment,
        "seed": use_seed,
        "summary": outcome.summary,
        "flags": list(outcome.flags),
    })
    outputs["result.json"] = sha256(run_dir / "result.json")
    for name, (header, rows) in outcome.tables.items():
        filename = f"{name}.csv"
        write_csv(run_dir / filename, header, rows)
        outputs[filename] = sha256(run_dir / filename)

    manifest = RunManifest(
        experiment=config.experiment,
        config_hash=resolved.config_hash,
        artifact_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        seed=use_seed,
        threads=use_threads,
        outputs=outputs,
        flags=outcome.flags,
        environment=_environment(),
    )
    manifest.save(run_dir / "manifest.json")
    return RunResult(3 if outcome.flags else 0, run_dir, manifest, outcome)


def emit_plot_data(run_dir) -> list[Path]:
    """Reshape a finished run directory into plot-ready CSVs.

    Copies every tidy data table into ``plots/`` and derives
    ``summary_points.csv`` pairing each numeric summary quantity with its
    standard error (``<name>_std_error``) and reference value
    (``<name>_target``) where present.  Raises ``FileNotFoundError`` for
    directories that do not contain a run.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no run manifest found in {run_dir}")
    manifest = RunManifest.load(manifest_path)

    plots = run_dir / "plots"
    plots.mkdir(exist_ok=True)
    written: list[Path] = []
    for name in sorted(manifest.outputs):
        if name.endswith(".csv"):
            target = plots / name
            target.write_bytes((run_dir / name).read_bytes())
            written.append(target)

    summary = read_json(run_dir / "result.json")["summary"]
    rows = []
    for key in sorted(summary):
        value = summary[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key.endswith("_std_error") or key.endswith("_target"):
            continue
        rows.append((key, float(value),
                     *("" if summary.get(k) is None else float(summary[k])
                       for k in (f"{key}_std_error", f"{key}_target"))))
    target = plots / "summary_points.csv"
    write_csv(target, ("quantity", "value", "std_error", "target"), rows)
    written.append(target)
    return written


# ---------------------------------------------------------------------------
# Shared numerical helpers
# ---------------------------------------------------------------------------

def _histogram_rows(values: np.ndarray, n_bins: int = 40):
    counts, edges = np.histogram(values, bins=n_bins)
    return list(zip(edges[:-1], edges[1:], counts))


# ---------------------------------------------------------------------------
# The experiments
# ---------------------------------------------------------------------------

def _run_exit_ball(run: _Run) -> ExperimentOutcome:
    p = run.params
    model = SdeModel.brownian(2)
    stats = mc_exit(model, [0.0, 0.0], Domain.ball(1.0, dim=2), h=p["h"],
                    n_paths=p["n_paths"], stream=run.stream, t_max=p["t_max"],
                    threads=run.threads)
    target = ball_exit_expectation(1.0, [0.0, 0.0], 2)
    mean = stats.mean_time
    summary = {
        "n_paths": p["n_paths"],
        "h": p["h"],
        "mean_exit_time": mean,
        "mean_exit_time_std_error": stats.time_std_error,
        "mean_exit_time_target": target,
        "abs_error": abs(mean - target),
        "tolerance": 0.03,
        "within_tolerance": bool(abs(mean - target) <= 0.03),
        "fraction_censored": stats.fraction_censored,
    }
    tables = {"exit_time_histogram": (("t_lo", "t_hi", "count"),
                                      _histogram_rows(stats.exit_times))}
    return ExperimentOutcome("exit-ball-2d", summary, tables)


def _run_shell_hitting(run: _Run) -> ExperimentOutcome:
    p = run.params
    estimate, std_error = mc_radial_hitting(
        p["r_start"], p["r_inner"], p["r_outer"], 3, p["n_paths"],
        run.stream, kappa=p["kappa"])
    closed = shell_hitting_probability(p["r_inner"], p["r_outer"],
                                       p["r_start"], 3)
    summary = {
        "n_paths": p["n_paths"],
        "hit_probability": estimate,
        "hit_probability_std_error": std_error,
        "hit_probability_target": 0.5,
        "finite_shell_probability": closed,
        "abs_error": abs(estimate - 0.5),
        "tolerance": 0.03,
        "within_tolerance": bool(abs(estimate - 0.5) <= 0.03),
    }
    return ExperimentOutcome("shell-hitting-3d", summary)


def _run_feynman_kac(run: _Run) -> ExperimentOutcome:
    p = run.params
    a, lambdas = p["a"], p["lambdas"]
    stats = mc_exit(SdeModel.brownian(1), [0.0], Domain.interval(-a, a),
                    h=p["h"], n_paths=p["n_paths"], stream=run.stream,
                    t_max=p["t_max"], threads=run.threads)
    n = p["n_paths"]
    right = stats.boundary_params == 1.0

    rows = []
    z_scores = []
    for lam in lambdas:
        estimate, std_error = stats.laplace(lam)
        closed = fk_laplace_interval(lam, a, 0.0)
        z = (estimate - closed) / std_error
        rows.append((lam, estimate, std_error, float(closed), float(z)))
        z_scores.append(abs(z))

        one_est, one_se = stats.laplace(lam, right)
        one_closed = fk_laplace_one_sided(lam, a, 0.0)
        z_scores.append(abs(one_est - one_closed) / one_se)

    right_times = stats.exit_times[right]
    cond_mean = float(right_times.mean())
    cond_se = float(right_times.std(ddof=1) / math.sqrt(right_times.size))
    cond_closed = fk_conditional_mean(a, 0.0)
    cond_z = (cond_mean - cond_closed) / cond_se

    summary = {
        "n_paths": n,
        "max_abs_z_laplace": float(max(z_scores)),
        "conditional_mean_time": cond_mean,
        "conditional_mean_time_std_error": cond_se,
        "conditional_mean_time_target": float(cond_closed),
        "conditional_mean_z": float(cond_z),
        "z_threshold": 3.0,
        "within_tolerance": bool(max(max(z_scores), abs(cond_z)) <= 3.0),
        "fraction_censored": stats.fraction_censored,
    }
    tables = {"laplace": (("lam", "estimate", "std_error", "closed_form",
                           "z_score"), rows)}
    return ExperimentOutcome("feynman-kac-interval", summary, tables)


def _run_arcsine(run: _Run) -> ExperimentOutcome:
    p = run.params
    grid = TimeGrid(0.0, 1.0, p["n_steps"])
    fractions = arcsine_occupation(p["n_paths"], grid, run.stream)
    ks = float(sp_stats.kstest(fractions, arcsine_cdf).statistic)
    us = np.linspace(0.0, 1.0, 101)
    empirical = np.searchsorted(np.sort(fractions), us, side="right") / fractions.size
    table_rows = [(u, e, arcsine_cdf(u)) for u, e in zip(us, empirical)]
    summary = {
        "n_paths": p["n_paths"],
        "n_steps": p["n_steps"],
        "ks_statistic": ks,
        "threshold": 0.03,
        "within_tolerance": bool(ks < 0.03),
    }
    tables = {"occupation_cdf": (("u", "empirical_cdf", "arcsine_cdf"),
                                 table_rows)}
    return ExperimentOutcome("arcsine-law", summary, tables)


def _run_ito_isometry(run: _Run) -> ExperimentOutcome:
    p = run.params
    n_fine, doublings = p["n_steps"], p["doublings"]
    n_paths, T = p["n_paths"], p["t_end"]
    h_fine = T / n_fine
    w = sample_wiener(TimeGrid(0.0, T, n_fine), run.stream, dim=n_paths).values
    exact = 0.5 * w[-1] ** 2 - 0.5 * T

    rows = []
    rms = []
    for level in range(doublings, -1, -1):
        stride = 2 ** level
        coarse = w[::stride]
        ito = np.sum(coarse[:-1] * np.diff(coarse, axis=0), axis=0)
        err = float(np.sqrt(np.mean((ito - exact) ** 2)))
        rms.append(err)
        rows.append((n_fine // stride, err))
    ratios = [rms[i] / rms[i + 1] for i in range(len(rms) - 1)]

    # discrete isometry: E[(sum W dW)^2] = E[sum W^2 h], checked pairwise on
    # the fine sum, which is the last level's
    paired = ito**2 - np.sum(w[:-1] ** 2 * h_fine, axis=0)
    iso_diff = float(paired.mean())
    iso_se = float(paired.std(ddof=1) / math.sqrt(n_paths))

    summary = {
        "n_paths": n_paths,
        "rms_ratios": [float(r) for r in ratios],
        "ratio_target": math.sqrt(2.0),
        "max_ratio_deviation": float(max(abs(r - math.sqrt(2.0)) for r in ratios)),
        "isometry_difference": iso_diff,
        "isometry_difference_std_error": iso_se,
        "isometry_z": iso_diff / iso_se,
        "z_threshold": 5.0,
        "within_tolerance": bool(abs(iso_diff) <= 5.0 * iso_se),
    }
    tables = {"convergence": (("n_steps", "rms_error"), rows)}
    return ExperimentOutcome("ito-isometry", summary, tables)


def _run_fp_stationarity(run: _Run) -> ExperimentOutcome:
    p = run.params
    spec = run.model_spec
    grid = Grid1D(p["x_min"], p["x_max"], p["n_cells"])
    model = run.model()
    pi = stationary_density_gradient(spec.potential, grid)

    evolved = solve_fokker_planck(model, pi, p["t_stationary"], p["dt"])
    drift_l1 = evolved.l1_distance(pi)

    width = p["x_max"] - p["x_min"]
    uniform = DensityField(grid, np.full(grid.n_nodes, 1.0 / width))
    # the scheme conserves its own discrete mass functional, which differs
    # from the trapezoid integral for a density that is nonzero at the
    # walls; compare shapes as probability densities
    relaxed = solve_fokker_planck(model, uniform, p["t_uniform"], p["dt"]).normalized()
    relax_l1 = relaxed.l1_distance(pi)

    summary = {
        "potential": spec.potential.source,
        "n_cells": p["n_cells"],
        "stationary_l1_drift": float(drift_l1),
        "stationary_drift_threshold": 1e-4,
        "uniform_relaxation_l1": float(relax_l1),
        "relaxation_threshold": 1e-3,
        "within_tolerance": bool(drift_l1 < 1e-4 and relax_l1 < 1e-3),
    }
    rows = list(zip(grid.nodes, pi.values, relaxed.values))
    tables = {"densities": (("x", "stationary", "relaxed_from_uniform"), rows)}
    return ExperimentOutcome("fp-stationarity", summary, tables)


def _run_hm_kernel(run: _Run) -> ExperimentOutcome:
    p = run.params
    grid = Grid1D(p["x_min"], p["x_max"], p["n_cells"])
    ou = SdeModel.scalar(lambda x: -x, 1.0)
    kernel = discretize_kernel(ou, grid, p["t_step"])
    v = kernel.grid.nodes**2

    cert = verify_geometric_drift(kernel, v)
    gamma_target = math.exp(-2.0 * p["t_step"])
    d_target = (1.0 - gamma_target) / 2.0
    level = p["level"]
    minor = verify_minorisation(kernel, level, v)
    low = cert.gamma + 2.0 * cert.d / level
    beta, alpha_bar = hm_constants(cert.gamma, cert.d, minor.alpha, level,
                                   minor.alpha / 2.0, (low + 1.0) / 2.0)
    contraction = verify_hm_contraction(kernel, v, beta, alpha_bar,
                                        n_pairs=p["n_pairs"],
                                        stream=run.stream.child(1))

    pi = power_iteration_jentzsch(kernel, tol=1e-9).pi0
    mu = np.zeros(v.size)
    mu[int(np.argmin(np.abs(kernel.grid.nodes - 3.0)))] = 1.0
    rows = []
    for n in range(21):
        rows.append((n, rho_beta_distance(mu, pi, v, beta)))
        mu = kernel.apply_adjoint(mu)

    flags = []
    if not cert.feasible:
        flags.append("drift certificate infeasible")
    if not contraction.satisfied:
        flags.append("contraction ratio exceeded the certified bound")
    summary = {
        "gamma": cert.gamma,
        "gamma_target": gamma_target,
        "gamma_rel_error": abs(cert.gamma - gamma_target) / gamma_target,
        "d": cert.d,
        "d_target": d_target,
        "d_rel_error": abs(cert.d - d_target) / d_target,
        "alpha": minor.alpha,
        "beta": beta,
        "alpha_bar": alpha_bar,
        "max_ratio": contraction.max_ratio,
        "max_point_ratio": contraction.max_point_ratio,
        "n_pairs": p["n_pairs"],
        "within_tolerance": bool(
            abs(cert.gamma - gamma_target) / gamma_target <= 0.05
            and abs(cert.d - d_target) / d_target <= 0.05
            and minor.alpha > 0.0 and contraction.satisfied),
    }
    tables = {"contraction_decay": (("n", "rho_beta_distance"), rows)}
    return ExperimentOutcome("hm-ou-kernel", summary, tables,
                             flags=tuple(flags))


def _run_birkhoff(run: _Run) -> ExperimentOutcome:
    p = run.params
    two = np.array([[2.0, 1.0], [1.0, 2.0]])
    delta = projective_diameter(two, n_probe=p["n_probe"],
                                stream=run.stream.child(1))
    ratio_bound = math.tanh(delta / 4.0)

    gen = run.stream.child(2).generator()
    worst = 0.0
    for _ in range(p["n_probe"]):
        f, g = np.exp(gen.uniform(-2.0, 2.0, size=(2, 2)))
        before = hilbert_metric(f, g)
        if before < 1e-12:
            continue
        worst = max(worst, hilbert_metric(two @ f, two @ g) / before)

    bm = SdeModel.scalar(lambda x: 0.0 * x, 1.0)
    killed = discretize_kernel(bm, Grid1D(-1.0, 1.0, p["n_cells"]),
                               p["t_step"], bc="dirichlet_zero")
    perron = power_iteration_jentzsch(killed, tol=p["tol"])
    bounds = fit_cone_bounds(killed)
    rate_bound = 1.0 - 1.0 / bounds.L**2

    summary = {
        "projective_diameter": float(delta),
        "projective_diameter_target": math.log(4.0),
        "contraction_ratio_bound": float(ratio_bound),
        "max_sampled_ratio": float(worst),
        "lambda0": perron.lambda0,
        "residual_right": perron.residual_right,
        "residual_left": perron.residual_left,
        "observed_rate": perron.observed_rate,
        "rate_bound": float(rate_bound),
        "within_tolerance": bool(
            abs(delta - math.log(4.0)) <= 1e-9
            and worst <= ratio_bound + 1e-9
            and perron.lambda0 < 1.0
            and max(perron.residual_right, perron.residual_left) < 1e-8
            and perron.observed_rate <= rate_bound + 1e-9),
    }
    rows = list(zip(killed.grid.nodes, perron.h0, perron.pi0))
    tables = {"perron_vectors": (("x", "h0", "pi0"), rows)}
    return ExperimentOutcome("birkhoff-jentzsch", summary, tables)


def _run_minimum_action(run: _Run) -> ExperimentOutcome:
    p = run.params
    ou = SdeModel.scalar(lambda x: -x, 1.0)
    path = minimize_action(ou, 0.0, p["level"], p["t_end"], p["n_steps"],
                           tol=p["tol"], max_iter=p["max_iter"])
    closed = ou_exit_rate(0.0, p["level"], p["t_end"])

    free = SdeModel.scalar(lambda x: 0.0 * x, 1.0)
    free_path = minimize_action(free, 0.0, 1.0, 4.0, 100)

    flags = []
    if not path.converged:
        flags.append("action minimization did not converge")
    if not free_path.converged:
        flags.append("free-particle minimization did not converge")
    summary = {
        "action": path.action,
        "action_target": closed,
        "abs_error": abs(path.action - closed),
        "action_tolerance": 1e-3,
        "free_action": free_path.action,
        "free_action_target": 0.125,
        "free_abs_error": abs(free_path.action - 0.125),
        "free_tolerance": 1e-4,
        "iterations": len(path.history) - 1,
        "within_tolerance": bool(abs(path.action - closed) <= 1e-3
                                 and abs(free_path.action - 0.125) <= 1e-4),
    }
    profile = p["level"] * np.sinh(path.grid.nodes) / math.sinh(p["t_end"])
    rows = list(zip(path.grid.nodes, path.values[:, 0], profile))
    tables = {"optimal_path": (("t", "x", "closed_form"), rows)}
    return ExperimentOutcome("ou-minimum-action", summary, tables,
                             flags=tuple(flags))


def _run_quasipotential(run: _Run) -> ExperimentOutcome:
    p = run.params
    U = p["potential"]
    dU = _derivative(U)
    model = SdeModel.scalar(lambda x: -dU(x), 1.0)
    result = quasipotential(model, p["x_star"], p["y"], p["horizons"],
                            n_steps=p["n_steps"], tol=p["tol"],
                            max_iter=p["max_iter"])
    target = 2.0 * (U(p["y"]) - U(p["x_star"]))
    flags = () if result.converged else (
        "action minimization did not converge at every horizon",)
    summary = {
        "potential": U.source,
        "value": result.value,
        "value_target": target,
        "rel_error": abs(result.value - target) / abs(target),
        "tolerance": 0.02,
        "minimizing_t": result.minimizing_t,
        "within_tolerance": bool(
            abs(result.value - target) <= 0.02 * abs(target)),
    }
    rows = list(zip(result.t_values, result.action_values))
    tables = {"envelope": (("t_horizon", "action"), rows)}
    return ExperimentOutcome("quasipotential-double-well", summary, tables,
                             flags=flags)


def _run_arrhenius(run: _Run) -> ExperimentOutcome:
    p = run.params
    U = p["potential"]
    fit = arrhenius_check(U, p["eps"], Domain.interval(p["a"], p["b"]),
                          n_paths=p["n_paths"], h=p["h"], stream=run.stream,
                          t_max=p["t_max"])
    smallest = float(fit.eps_log_mean_tau[-1])
    summary = {
        "potential": U.source,
        "v_bar": fit.v_bar,
        "intercept": fit.intercept,
        "slope": fit.slope,
        "value_at_smallest_eps": smallest,
        "value_at_smallest_eps_target": fit.v_bar,
        "value_at_smallest_eps_exact": float(fit.exact[-1]),
        "discretisation_bias_z": float((smallest - fit.exact[-1]) / fit.stderr[-1]),
        "rel_error_at_smallest_eps": abs(smallest - fit.v_bar) / fit.v_bar,
        "tolerance": 0.15,
        "monotone": bool(fit.monotone),
        "within_tolerance": bool(
            fit.monotone
            and abs(smallest - fit.v_bar) <= 0.15 * fit.v_bar),
    }
    rows = list(zip(fit.eps, fit.eps_log_mean_tau, fit.stderr, fit.exact))
    tables = {"fit": (("eps", "eps_log_mean_tau", "stderr", "exact"), rows)}
    return ExperimentOutcome("arrhenius-well", summary, tables)


def _run_eyring_kramers(run: _Run) -> ExperimentOutcome:
    p = run.params
    U, eps = p["potential"], p["eps"]
    formula = eyring_kramers_time(U, p["x_star"], p["saddle"], eps)
    dU = _derivative(U)
    model = SdeModel.scalar(lambda x: -dU(x), math.sqrt(eps))
    stats = mc_exit(model, p["x_star"],
                    Domain.interval(p["floor"], p["crossing"]),
                    h=p["h"], n_paths=p["n_paths"], stream=run.stream,
                    t_max=p["t_max"], threads=run.threads)
    exact, _ = interval_exit_reference(model, p["x_star"], p["floor"],
                                       p["crossing"])
    ratio = stats.mean_time / formula
    summary = {
        "potential": U.source,
        "eps": eps,
        "formula_time": float(formula),
        "mc_mean_time": stats.mean_time,
        "mc_mean_time_std_error": stats.time_std_error,
        "mc_mean_time_target": float(formula),
        "exact_mean_time": exact,
        "discretisation_bias_z": (stats.mean_time - exact) / stats.time_std_error,
        "ratio": float(ratio),
        "ratio_window": [0.5, 2.0],
        "within_tolerance": bool(0.5 <= ratio <= 2.0),
        "fraction_censored": stats.fraction_censored,
    }
    tables = {"transition_time_histogram": (("t_lo", "t_hi", "count"),
                                            _histogram_rows(stats.exit_times))}
    return ExperimentOutcome("eyring-kramers", summary, tables)


def _run_certificates(run: _Run) -> ExperimentOutcome:
    p = run.params
    ou = SdeModel.scalar(lambda x: -x, 1.0)
    kernel = discretize_kernel(ou, Grid1D(-5.0, 5.0, p["n_cells"]),
                               p["t_step"])
    v = kernel.grid.nodes**2
    cert = verify_geometric_drift(kernel, v)
    drift_bad = drift_violations(kernel, v, cert.gamma, cert.d)
    minor = verify_minorisation(kernel, p["level"], v)
    minor_bad = minor.violations(kernel)

    bm = SdeModel.scalar(lambda x: 0.0 * x, 1.0)
    killed = discretize_kernel(bm, Grid1D(-1.0, 1.0, 80), 0.1,
                               bc="dirichlet_zero")
    bounds = fit_cone_bounds(killed)
    cone_bad = bounds.violations(killed)

    sound = drift_bad == 0 and minor_bad == 0 and cone_bad == 0
    flags = () if sound else ("certificate recheck found violations",)
    summary = {
        "drift_violations": int(drift_bad),
        "minorisation_violations": int(minor_bad),
        "cone_violations": int(cone_bad),
        "gamma": cert.gamma,
        "d": cert.d,
        "alpha": minor.alpha,
        "cone_ratio": bounds.L,
        "sound": bool(sound),
        "within_tolerance": bool(sound),
    }
    return ExperimentOutcome("certificate-soundness", summary, flags=flags)


def _run_sample_paths(run: _Run) -> ExperimentOutcome:
    p = run.params
    spec = run.model_spec
    model = run.model()
    grid = TimeGrid(0.0, p["t_end"], p["n_steps"])
    x0 = np.full(model.dim_state, p["x0"])
    ensemble = euler_maruyama_ensemble(model, x0, grid, p["n_paths"],
                                       run.stream)
    first = ensemble[:, :, 0]
    mean = first.mean(axis=0)
    std = first.std(axis=0, ddof=1)

    t = grid.nodes
    if spec.preset == "ou":
        exact_mean = p["x0"] * np.exp(-spec.rate * t)
        exact_var = spec.sigma**2 * (1.0 - np.exp(-2.0 * spec.rate * t)) / (2.0 * spec.rate)
    elif spec.preset == "gbm":
        exact_mean = p["x0"] * np.exp(spec.growth * t)
        exact_var = (p["x0"] ** 2 * np.exp(2.0 * spec.growth * t)
                     * (np.exp(spec.sigma**2 * t) - 1.0))
    elif spec.preset == "bm":
        exact_mean = np.full_like(t, p["x0"])
        exact_var = t.copy()
    else:
        exact_mean = exact_var = None

    header = ["t", "mean", "std"]
    if exact_mean is not None:
        header += ["exact_mean", "exact_std"]
        rows = list(zip(t, mean, std, exact_mean, np.sqrt(exact_var)))
    else:
        rows = list(zip(t, mean, std))

    keep = min(8, p["n_paths"])
    path_rows = [(t[j], i, first[i, j])
                 for i in range(keep) for j in range(grid.n_nodes)]
    summary = {
        "model": spec.describe(),
        "n_paths": p["n_paths"],
        "terminal_mean": float(mean[-1]),
        "terminal_std": float(std[-1]),
    }
    if exact_mean is not None:
        summary["terminal_mean_target"] = float(exact_mean[-1])
        summary["terminal_std_target"] = float(math.sqrt(exact_var[-1]))
    tables = {
        "moments": (tuple(header), rows),
        "paths": (("t", "path_id", "x"), path_rows),
    }
    return ExperimentOutcome("sample-paths", summary, tables)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _p(name, kind, default, help, **kw):
    return ParameterSpec(name, kind, default, help, **kw)


def _register(experiment: Experiment) -> None:
    _REGISTRY[experiment.name] = experiment


_register(Experiment(
    "exit-ball-2d",
    "Mean exit time of planar Brownian motion from the unit disc (target 1/2).",
    (
        _p("n_paths", "int", 10_000, "Monte Carlo sample size", minimum=2),
        _p("h", "float", 4e-3, "Euler-Maruyama step", minimum=0, exclusive=True),
        _p("t_max", "float", 30.0, "censoring horizon", minimum=0, exclusive=True),
    ),
    _run_exit_ball,
))

_register(Experiment(
    "shell-hitting-3d",
    "Probability that 3D Brownian motion hits the unit sphere before a far shell.",
    (
        _p("n_paths", "int", 10_000, "Monte Carlo sample size", minimum=2),
        _p("r_inner", "float", 1.0, "inner sphere radius", minimum=0, exclusive=True),
        _p("r_start", "float", 2.0, "starting radius", minimum=0, exclusive=True),
        _p("r_outer", "float", 64.0, "outer shell radius", minimum=0, exclusive=True),
        _p("kappa", "float", 0.2, "step scale relative to sphere distance",
           minimum=0, exclusive=True),
    ),
    _run_shell_hitting,
))

_register(Experiment(
    "feynman-kac-interval",
    "Laplace transforms of the interval exit time against cosh/sinh closed forms.",
    (
        _p("n_paths", "int", 10_000, "Monte Carlo sample size", minimum=2),
        _p("h", "float", 1e-3, "Euler-Maruyama step", minimum=0, exclusive=True),
        _p("a", "float", 1.0, "interval half-width", minimum=0, exclusive=True),
        _p("lambdas", "floats", (0.5, 1.0, 2.0), "Laplace parameters"),
        _p("t_max", "float", 40.0, "censoring horizon", minimum=0, exclusive=True),
    ),
    _run_feynman_kac,
))

_register(Experiment(
    "arcsine-law",
    "Occupation-fraction distribution of Brownian motion against the arcsine law.",
    (
        _p("n_paths", "int", 10_000, "Monte Carlo sample size", minimum=2),
        _p("n_steps", "int", 1000, "time steps per path", minimum=2),
    ),
    _run_arcsine,
))

_register(Experiment(
    "ito-isometry",
    "RMS convergence of the left-endpoint integral of W dW and the Ito isometry.",
    (
        _p("n_paths", "int", 4096, "Monte Carlo sample size", minimum=2),
        _p("n_steps", "int", 2048, "finest grid size", minimum=8),
        _p("doublings", "int", 3, "number of grid doublings", minimum=1),
        _p("t_end", "float", 1.0, "time horizon", minimum=0, exclusive=True),
    ),
    _run_ito_isometry,
))

_register(Experiment(
    "fp-stationarity",
    "Fokker-Planck preservation of exp(-U)/Z and relaxation from a uniform start.",
    (
        _p("x_min", "float", -6.0, "left edge of the grid"),
        _p("x_max", "float", 6.0, "right edge of the grid"),
        _p("n_cells", "int", 600, "grid cells", minimum=16),
        _p("dt", "float", 0.01, "time step", minimum=0, exclusive=True),
        _p("t_stationary", "float", 10.0, "horizon for the drift check",
           minimum=0, exclusive=True),
        _p("t_uniform", "float", 20.0, "horizon for the relaxation check",
           minimum=0, exclusive=True),
    ),
    _run_fp_stationarity,
    model=ModelSpec("gradient", potential=parse_expression("x^2/2")),
    model_presets=("gradient",),
))

_register(Experiment(
    "hm-ou-kernel",
    "Drift/minorisation certificates and weighted contraction for the OU kernel.",
    (
        _p("x_min", "float", -5.0, "left edge of the grid"),
        _p("x_max", "float", 5.0, "right edge of the grid"),
        _p("n_cells", "int", 200, "grid cells", minimum=16),
        _p("t_step", "float", 1.0, "kernel time step", minimum=0, exclusive=True),
        _p("level", "float", 2.0, "sublevel threshold for the small set",
           minimum=0, exclusive=True),
        _p("n_pairs", "int", 1000, "random measure pairs to test", minimum=1),
    ),
    _run_hm_kernel,
))

_register(Experiment(
    "birkhoff-jentzsch",
    "Projective diameter, Birkhoff contraction, and the killed-kernel Perron data.",
    (
        _p("n_probe", "int", 1000, "sampled function pairs", minimum=1),
        _p("n_cells", "int", 80, "grid cells for the killed kernel", minimum=8),
        _p("t_step", "float", 0.1, "kernel time step", minimum=0, exclusive=True),
        _p("tol", "float", 1e-10, "power-iteration residual tolerance",
           minimum=0, exclusive=True),
    ),
    _run_birkhoff,
))

_register(Experiment(
    "ou-minimum-action",
    "Minimum action for an OU level crossing against the closed form.",
    (
        _p("level", "float", 1.0, "level to reach", minimum=0, exclusive=True),
        _p("t_end", "float", 1.0, "travel time", minimum=0, exclusive=True),
        _p("n_steps", "int", 2000, "path discretization", minimum=8),
        _p("tol", "float", 1e-8, "gradient tolerance", minimum=0, exclusive=True),
        _p("max_iter", "int", 500, "iteration budget", minimum=1),
    ),
    _run_minimum_action,
))

_register(Experiment(
    "quasipotential-double-well",
    "Quasipotential from a double-well minimum to the saddle (target 1/2).",
    (
        _p("potential", "potential", "x^4/4 - x^2/2", "potential U(x)"),
        _p("x_star", "float", -1.0, "attractor (equilibrium of -U')"),
        _p("y", "float", 0.0, "target point"),
        _p("horizons", "floats", (1.0, 2.0, 3.0, 5.0), "travel times"),
        _p("n_steps", "int", 400, "path discretization", minimum=8),
        _p("tol", "float", 1e-8, "gradient tolerance", minimum=0, exclusive=True),
        _p("max_iter", "int", 500, "iteration budget", minimum=1),
    ),
    _run_quasipotential,
))

_register(Experiment(
    "arrhenius-well",
    "Small-noise exit-time scaling fitted against the doubled potential barrier.",
    (
        _p("potential", "potential", "x^2/2", "potential U(x)"),
        _p("a", "float", -1.0, "left boundary"),
        _p("b", "float", 1.0, "right boundary"),
        _p("eps", "floats", (0.25, 0.167, 0.125), "noise levels"),
        _p("n_paths", "int", 1000, "paths per noise level", minimum=2),
        _p("h", "float", 5e-3, "Euler-Maruyama step", minimum=0, exclusive=True),
        _p("t_max", "float", 5e4, "censoring horizon", minimum=0, exclusive=True),
    ),
    _run_arrhenius,
))

_register(Experiment(
    "eyring-kramers",
    "Mean transition time through a saddle against the prefactor formula.",
    (
        _p("potential", "potential", "x^4/4 - x^2/2", "potential U(x)"),
        _p("x_star", "float", -1.0, "starting minimum"),
        _p("saddle", "float", 0.0, "saddle point"),
        _p("eps", "float", 0.15, "noise level", minimum=0, exclusive=True),
        _p("crossing", "float", 0.5, "level whose hitting ends the transition"),
        _p("floor", "float", -4.0, "reflecting-side boundary for the MC run"),
        _p("n_paths", "int", 500, "Monte Carlo sample size", minimum=2),
        _p("h", "float", 4e-3, "Euler-Maruyama step", minimum=0, exclusive=True),
        _p("t_max", "float", 1e4, "censoring horizon", minimum=0, exclusive=True),
    ),
    _run_eyring_kramers,
))

_register(Experiment(
    "certificate-soundness",
    "Entrywise recheck of the drift, minorisation, and cone certificates.",
    (
        _p("n_cells", "int", 200, "grid cells for the OU kernel", minimum=16),
        _p("t_step", "float", 1.0, "kernel time step", minimum=0, exclusive=True),
        _p("level", "float", 2.0, "sublevel threshold for the small set",
           minimum=0, exclusive=True),
    ),
    _run_certificates,
))

_register(Experiment(
    "sample-paths",
    "Euler-Maruyama ensemble moments for any model preset, with closed forms.",
    (
        _p("n_paths", "int", 64, "ensemble size", minimum=2),
        _p("t_end", "float", 2.0, "time horizon", minimum=0, exclusive=True),
        _p("n_steps", "int", 400, "steps per path", minimum=2),
        _p("x0", "float", 1.0, "starting point"),
    ),
    _run_sample_paths,
    model=ModelSpec("ou"),
    model_presets=("bm", "ou", "gbm", "gradient"),
))
