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
``gradient`` with a potential expression) are checked by the same
:class:`ParameterSpec` rules.  A configuration is checked once, when its
:class:`ExperimentConfig` or :class:`ModelSpec` is built, so a
``ModelSpec`` built in Python hashes like its config-file spelling.
:func:`run` drives an experiment from a config file, and :func:`execute`
runs one in-process.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import operator
import os
import platform
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import __version__
from ._io import jsonable, sha256, write_csv, write_json
from .expr import Expression, ExpressionError, parse_expression
from .firstexit import (
    Domain,
    arcsine_cdf,
    arcsine_occupation,
    ball_exit_expectation,
    ball_hitting_probability,
    fk_conditional_mean,
    fk_laplace_interval,
    fk_laplace_one_sided,
    interval_exit_reference,
    mc_exit,
    mc_radial_hitting,
    shell_hitting_probability,
)
from .ergodicity import (
    _cross_ratio,
    discretize_kernel,
    drift_violations,
    fit_cone_bounds,
    hm_constants,
    power_iteration_jentzsch,
    projective_diameter,
    rho_beta_distance,
    verify_geometric_drift,
    verify_hm_contraction,
    verify_minorisation,
)
from .kolmogorov import DensityField, Grid1D, solve_fokker_planck, stationary_density_gradient
from .largedev import _drift, arrhenius_check, eyring_kramers_time, minimize_action, ou_exit_rate, quasipotential
from .sde import GaussianStream, SdeModel, TimeGrid, euler_maruyama_ensemble, sample_wiener

__all__ = [
    "ConfigError",
    "ParameterSpec",
    "ModelSpec",
    "ExperimentConfig",
    "Experiment",
    "ExperimentOutcome",
    "Gate",
    "RunManifest",
    "RunResult",
    "DEFAULT_OUT_ENV",
    "list_experiments",
    "get_experiment",
    "execute",
    "load_config",
    "parse_config",
    "run",
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
    kind: str  # "int" | "float" | "floats" | "potential"
    default: object
    help: str
    minimum: float | None = None
    exclusive: bool = False

    def convert(self, raw: object, *, source: str | None = None) -> object:
        try:
            value = self._convert(raw)
            if self.kind in ("float", "floats") and not np.all(np.isfinite(value)):
                raise ValueError(f"expected a finite number, got {value!r}")
        except ExpressionError as err:
            raise ConfigError(f"parameter {self.name!r}: {err}", source=source,
                              line=err.line, column=err.column) from None
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
        return raw if isinstance(raw, Expression) else parse_expression(str(raw))

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


def _preset_fields(preset: str) -> tuple[str, ...]:
    try:
        return _PRESET_FIELDS[preset]
    except KeyError:
        raise ConfigError(f"unknown model preset {preset!r}; choose from "
                          f"{sorted(_PRESET_FIELDS)}") from None


def _unknown_model_key(key: str, preset: str) -> ConfigError:
    return ConfigError(f"unknown model key {key!r} for preset {preset!r}; "
                       f"allowed: {', '.join(_preset_fields(preset))}")


_MODEL_FIELDS = {spec.name: spec for spec in (
    ParameterSpec("dim", "int", 1, "dimension", minimum=1),
    ParameterSpec("rate", "float", 1.0, "mean-reversion rate", minimum=0, exclusive=True),
    ParameterSpec("sigma", "float", 1.0, "noise amplitude", minimum=0, exclusive=True),
    ParameterSpec("growth", "float", 0.05, "growth rate"),
    ParameterSpec("potential", "potential", None, "potential U(x)"),
)}


@dataclass(frozen=True)
class ModelSpec:
    """A named model preset with its coefficients.

    ``bm`` is standard Brownian motion in ``dim`` dimensions; ``ou`` is
    ``dX = -rate X dt + sigma dW``; ``gbm`` is ``dX = growth X dt +
    sigma X dW``; ``gradient`` is ``dX = -U'(X) dt + sqrt(2) dW`` for a
    potential given as an expression in ``x`` (the sqrt(2) normalisation
    makes ``exp(-U)/Z`` the stationary density).  Building one converts
    and checks its preset's coefficients by ``_MODEL_FIELDS``, so
    ``ModelSpec("ou", rate=2)`` equals a config file's ``rate = 2``, and
    rejects a coefficient that its preset does not read unless it keeps
    its default, so two specs of one run compare equal.
    """

    preset: str
    dim: int = _MODEL_FIELDS["dim"].default
    rate: float = _MODEL_FIELDS["rate"].default
    sigma: float = _MODEL_FIELDS["sigma"].default
    growth: float = _MODEL_FIELDS["growth"].default
    potential: Expression | None = None

    def __post_init__(self) -> None:
        keys = _preset_fields(self.preset)
        if self.preset == "gradient" and self.potential is None:
            raise ConfigError("model preset 'gradient' needs a potential")
        for key, spec in _MODEL_FIELDS.items():
            if key in keys:
                object.__setattr__(self, key, spec.convert(getattr(self, key)))
            elif getattr(self, key) != spec.default:
                raise _unknown_model_key(key, self.preset)

    @classmethod
    def from_mapping(cls, data: Mapping[str, object],
                     source: str | None = None) -> "ModelSpec":
        entries = dict(data)
        preset = str(entries.pop("preset", "")).strip()
        try:
            if not preset:
                raise ConfigError("model section needs a 'preset' key")
            for key in entries:
                if key not in _preset_fields(preset):
                    raise _unknown_model_key(key, preset)
            return cls(preset, **entries)
        except ConfigError as err:
            raise ConfigError(err.message, source=source, line=err.line,
                              column=err.column) from None

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
        return SdeModel(1, 1, _drift(self.potential), [[math.sqrt(2.0)]])


# ---------------------------------------------------------------------------
# Experiments and their outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """One acceptance check, ``value <op> bound``, which a ``None`` or NaN
    value misses; ``name`` is the value's summary key or an expression of keys."""

    name: str
    value: float | None
    op: str
    bound: float

    _OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}

    @property
    def passed(self) -> bool:
        return self.value is not None and bool(self._OPS[self.op](self.value, self.bound))


@dataclass
class ExperimentOutcome:
    """In-memory result of one experiment: summary, tables and gates.

    ``tables`` maps a name to a ``(header, rows)`` pair destined for a
    CSV file of the same name; ``summary["within_tolerance"]`` says whether
    every gate passed, and ``flags`` renders each missed gate, in gate
    order.  A run ends with a nonzero status exactly when ``flags`` is not
    empty.
    """

    summary: dict[str, object]
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = field(default_factory=dict)
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.gates:
            self.summary["within_tolerance"] = all(gate.passed for gate in self.gates)

    @property
    def flags(self) -> tuple[str, ...]:
        return tuple(f"{gate.name} = {gate.value} (needs {gate.op} {gate.bound})"
                     for gate in self.gates if not gate.passed)


@dataclass
class _Run:
    """Everything a runner needs: validated inputs plus noise and threads."""

    params: Mapping[str, object]
    model: ModelSpec | None
    stream: GaussianStream
    threads: int


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


_REGISTRY: dict[str, Experiment] = {}


def list_experiments() -> tuple[Experiment, ...]:
    """All registered experiments, in registration order."""
    return tuple(_REGISTRY.values())


def _did_you_mean(name: str, names) -> str:
    import difflib  # only a misspelt name needs it

    hint = difflib.get_close_matches(name, names, n=1)
    return f"; did you mean {hint[0]!r}?" if hint else ""


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown experiment {name!r}{_did_you_mean(name, _REGISTRY)} "
                          "(run 'sdelab list' for the registry)") from None


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Checked configuration: experiment, seed, output root, overrides.

    Building one checks it and folds in the registry defaults: the seed,
    every schema parameter, and the model, given as a :class:`ModelSpec`
    or a mapping of its keys.  Code that reads a config trusts it.
    """

    experiment: str
    seed: int | None = None
    out_root: Path | None = None
    parameters: Mapping[str, object] = field(default_factory=dict)
    model: "ModelSpec | Mapping[str, object] | None" = None

    def __post_init__(self) -> None:
        experiment = get_experiment(self.experiment)
        seed = experiment.default_seed if self.seed is None else self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")

        specs = {spec.name: spec for spec in experiment.parameters}
        params = {name: spec.convert(spec.default) for name, spec in specs.items()}
        for key, raw in (self.parameters or {}).items():
            if key not in specs:
                raise ConfigError(f"unknown parameter {key!r} for experiment "
                                  f"{experiment.name!r}{_did_you_mean(key, specs)}")
            params[key] = specs[key].convert(raw)
        if experiment.name == "ito-isometry":  # the one rule across parameters
            _check_ito_levels(params)

        model = self.model
        if model is None:
            model = experiment.model
        elif experiment.model is None:
            raise ConfigError(
                f"experiment {experiment.name!r} does not take a model section")
        elif not isinstance(model, ModelSpec):
            model = ModelSpec.from_mapping(model)
        if model is not None and model.preset not in experiment.model_presets:
            raise ConfigError(
                f"experiment {experiment.name!r} supports model presets "
                f"{', '.join(experiment.model_presets)}; got {model.preset!r}")

        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "model", model)

    def canonical(self) -> dict[str, object]:
        """JSON-able view of the run semantics.

        The registry defaults are already folded in, so two configs that
        resolve to the same run hash identically regardless of which keys
        they spelled out.
        """
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "parameters": {k: jsonable(v) for k, v in sorted(self.parameters.items())},
            "model": None if self.model is None else self.model.describe(),
        }

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def execute(name: "str | ExperimentConfig", *,
            parameters: Mapping[str, object] | None = None,
            model: "ModelSpec | Mapping[str, object] | None" = None,
            seed: int | None = None, threads: int = 1) -> ExperimentOutcome:
    """Run an experiment in-process and return its outcome.

    ``name`` names the experiment, and ``parameters``, ``model`` and
    ``seed`` are checked as one :class:`ExperimentConfig`, so calling with
    no overrides reproduces the canonical run at the registered seed.
    ``name`` may also be an already checked :class:`ExperimentConfig`,
    which is run as it is and takes no overrides.
    """
    if not isinstance(name, ExperimentConfig):
        config = ExperimentConfig(name, seed, None, parameters, model)
    elif parameters is None and model is None and seed is None:
        config = name
    else:
        raise TypeError("an ExperimentConfig takes no parameters, model or seed "
                        "overrides; build a new config instead")
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads}")
    outcome = get_experiment(config.experiment).runner(
        _Run(config.parameters, config.model, GaussianStream(config.seed), threads))
    # glibc keeps freed arrays under its mmap threshold, which it raises up to 32 MB,
    # in its heap: without a trim, tens of MB stay resident or not by heap layout
    getattr(ctypes.CDLL(None) if os.name == "posix" else None, "malloc_trim", lambda pad: 0)(0)
    return outcome


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
        import configparser  # JSON configs, as perfbench writes, never need it

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
    try:
        return ExperimentConfig(name, seed, out_root,
                                sections.get("parameters", {}),
                                sections.get("model"))
    except ConfigError as err:  # a value's own line and column are not the file's
        raise ConfigError(err.message, source=source) from None


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"cannot read config: {err}",
                          source=str(path)) from None
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
    ``flags`` renders each missed gate, as :attr:`ExperimentOutcome.flags`
    does, so it is empty exactly when the run's status is 0.
    ``environment`` names the Python, numpy and scipy versions, numpy's
    BLAS and the platform, since the bytes depend on numpy's samplers and
    kernels and, for transition kernels, on BLAS matrix products and so
    on the BLAS thread variables, also named (``None`` where unset).
    """

    experiment: str
    config_hash: str
    artifact_version: str
    created_utc: str
    seed: int
    threads: int
    outputs: Mapping[str, str]
    flags: tuple[str, ...]
    environment: Mapping[str, str | None]

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


@dataclass
class RunResult:
    """What :func:`run` hands back: status code, directory, and records."""

    status: int
    run_dir: Path
    manifest: RunManifest
    outcome: ExperimentOutcome


def _environment() -> dict[str, str | None]:
    import scipy  # for its version only: ``import sdelab`` loads no scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "platform": platform.platform(), **{name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run(config, *, seed: int | None = None, out=None,
        threads: int | None = None) -> RunResult:
    """Run a configured experiment and write its artifacts.

    ``config`` is a path to a config file or an
    :class:`ExperimentConfig`.  ``seed``, ``out``, and ``threads``
    override the config; the output root falls back to the
    ``SDELAB_OUT`` environment variable and then ``./runs``.  Returns a
    :class:`RunResult` whose status is 3 when the experiment missed a
    gate, and 0 otherwise; ``result.json`` lists the gates, and its
    ``flags`` renders each missed one.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    if seed is not None:
        config = replace(config, seed=seed)
    use_threads = threads if threads is not None else 1
    root = Path(out) if out is not None else config.out_root
    if root is None:
        root = Path(os.environ.get(DEFAULT_OUT_ENV, "runs"))

    outcome = execute(config, threads=use_threads)

    run_dir = root / config.experiment
    run_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}
    write_json(run_dir / "result.json", {
        "experiment": config.experiment,
        "seed": config.seed,
        "summary": outcome.summary,
        "flags": list(outcome.flags),
        "gates": [{**vars(gate), "passed": gate.passed} for gate in outcome.gates],
    })
    outputs["result.json"] = sha256(run_dir / "result.json")
    for name, (header, rows) in outcome.tables.items():
        filename = f"{name}.csv"
        write_csv(run_dir / filename, header, rows)
        outputs[filename] = sha256(run_dir / filename)

    manifest = RunManifest(
        experiment=config.experiment,
        config_hash=config.config_hash,
        artifact_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        seed=config.seed,
        threads=use_threads,
        outputs=outputs,
        flags=outcome.flags,
        environment=_environment(),
    )
    manifest.save(run_dir / "manifest.json")
    return RunResult(3 if outcome.flags else 0, run_dir, manifest, outcome)


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
        "fraction_censored": stats.fraction_censored,
    }
    tables = {"exit_time_histogram": (("t_lo", "t_hi", "count"),
                                      _histogram_rows(stats.exit_times))}
    gates = (Gate("abs_error", summary["abs_error"], "<=", 0.03),
             Gate("fraction_censored", stats.fraction_censored, "==", 0.0))
    return ExperimentOutcome(summary, tables, gates=gates)


def _run_shell_hitting(run: _Run) -> ExperimentOutcome:
    p = run.params
    estimate, std_error = mc_radial_hitting(
        p["r_start"], p["r_inner"], p["r_outer"], 3, p["n_paths"], run.stream)
    closed = shell_hitting_probability(p["r_inner"], p["r_outer"],
                                       p["r_start"], 3)
    target = ball_hitting_probability(p["r_inner"], (p["r_start"], 0.0, 0.0), 3)
    summary = {
        "n_paths": p["n_paths"],
        "hit_probability": estimate,
        "hit_probability_std_error": std_error,
        "hit_probability_target": target,
        "finite_shell_probability": closed,
        "abs_error": abs(estimate - target),
    }
    return ExperimentOutcome(summary, gates=(
        Gate("abs_error", summary["abs_error"], "<=", 0.03),))


def _run_feynman_kac(run: _Run) -> ExperimentOutcome:
    p = run.params
    a, lambdas = p["a"], p["lambdas"]
    stats = mc_exit(SdeModel.brownian(1), [0.0], Domain.interval(-a, a),
                    h=p["h"], n_paths=p["n_paths"], stream=run.stream,
                    t_max=p["t_max"], threads=run.threads)
    n = p["n_paths"]
    right = stats.boundary_params == 1.0

    # a z-score over a zero standard error is undefined and written as null
    rows = []
    z_scores = []
    for lam in lambdas:
        estimate, std_error = stats.laplace(lam)
        closed = fk_laplace_interval(lam, a, 0.0)
        z = float((estimate - closed) / std_error) if std_error > 0 else None
        rows.append((lam, estimate, std_error, float(closed), z))
        z_scores.append(None if z is None else abs(z))

        one_est, one_se = stats.laplace(lam, right)
        one_closed = fk_laplace_one_sided(lam, a, 0.0)
        z_scores.append(abs(one_est - one_closed) / one_se if one_se > 0 else None)
    laplace_defined = None not in z_scores

    right_times = stats.exit_times[right]
    cond_closed = fk_conditional_mean(a, 0.0)
    cond_mean = float(right_times.mean()) if right_times.size else None
    cond_se = cond_z = None
    if right_times.size >= 2:  # fewer give no standard error
        cond_se = float(right_times.std(ddof=1) / math.sqrt(right_times.size))
        if cond_se > 0:
            cond_z = float((cond_mean - cond_closed) / cond_se)

    summary = {
        "n_paths": n,
        "max_abs_z_laplace": float(max(z_scores)) if laplace_defined else None,
        "right_exits": right_times.size,
        "conditional_mean_time": cond_mean,
        "conditional_mean_time_std_error": cond_se,
        "conditional_mean_time_target": float(cond_closed),
        "conditional_mean_z": cond_z,
        "fraction_censored": stats.fraction_censored,
    }
    tables = {"laplace": (("lam", "estimate", "std_error", "closed_form",
                           "z_score"), rows)}
    gates = (Gate("max_abs_z_laplace", summary["max_abs_z_laplace"], "<=", 3.0),
             Gate("right_exits", summary["right_exits"], ">=", 2),
             Gate("|conditional_mean_z|", None if cond_z is None else abs(cond_z),
                  "<=", 3.0))
    return ExperimentOutcome(summary, tables, gates=gates)


def _run_arcsine(run: _Run) -> ExperimentOutcome:
    p = run.params
    grid = TimeGrid(0.0, 1.0, p["n_steps"])
    fractions = np.sort(arcsine_occupation(p["n_paths"], grid, run.stream))
    # Kolmogorov-Smirnov: the larger gap of F below and above the empirical steps
    cdf, n = arcsine_cdf(fractions), fractions.size
    ks = float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                   (cdf - np.arange(0.0, n) / n).max()))
    us = np.linspace(0.0, 1.0, 101)
    empirical = np.searchsorted(fractions, us, side="right") / n
    table_rows = [(u, e, arcsine_cdf(u)) for u, e in zip(us, empirical)]
    summary = {
        "n_paths": p["n_paths"],
        "n_steps": p["n_steps"],
        "ks_statistic": ks,
    }
    tables = {"occupation_cdf": (("u", "empirical_cdf", "arcsine_cdf"),
                                 table_rows)}
    return ExperimentOutcome(summary, tables,
                             gates=(Gate("ks_statistic", ks, "<", 0.03),))


def _check_ito_levels(params: Mapping[str, object]) -> None:
    """Each level of ``ito-isometry`` takes every ``2**k``-th node of the fine
    grid, ``k <= doublings``, so it ends at ``t_end`` only if ``n_steps`` is a
    multiple of ``2**doublings``."""
    n, d = params["n_steps"], params["doublings"]
    if n % 2 ** min(d, n.bit_length()):  # 2**bit_length(n) > n divides no n
        raise ConfigError(f"parameter 'n_steps' ({n}) must be a multiple of "
                          f"2**doublings = 2**{d}, so that every level ends at t_end")


def _run_ito_isometry(run: _Run) -> ExperimentOutcome:
    p = run.params
    n_fine, doublings = p["n_steps"], p["doublings"]
    n_paths, T = p["n_paths"], p["t_end"]
    h_fine = T / n_fine
    strides = [2 ** level for level in range(doublings, -1, -1)]

    # one pass over the windows of the fine path holds, per level, the Ito sum
    # and its last coarse node, and the quadratic sum; each adds one node at a
    # time in the order of the nodes, with the bits of the sums over the path
    itos = [np.zeros(n_paths) for _ in strides]
    last = [None] * len(strides)
    quadratic = np.zeros(n_paths)
    for j, window in sample_wiener(TimeGrid(0.0, T, n_fine), run.stream, dim=n_paths):
        for m in range(j + 1 if j else 0, j + len(window)):  # node j ended the last window
            row = window[m - j]
            for i, stride in enumerate(strides):
                if m % stride == 0:
                    if m:
                        itos[i] += last[i] * (row - last[i])
                    last[i] = row
            if m < n_fine:
                quadratic += row**2 * h_fine
    exact = 0.5 * row**2 - 0.5 * T  # row is node n_fine, W(T)

    rows = []
    rms = []
    for stride, ito in zip(strides, itos):
        err = float(np.sqrt(np.mean((ito - exact) ** 2)))
        rms.append(err)
        rows.append((n_fine // stride, err))
    ratios = [rms[i] / rms[i + 1] for i in range(len(rms) - 1)]

    # discrete isometry: E[(sum W dW)^2] = E[sum W^2 h], checked pairwise on
    # the fine sum, which is the last level's
    paired = itos[-1]**2 - quadratic
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
    }
    tables = {"convergence": (("n_steps", "rms_error"), rows)}
    gates = (Gate("|isometry_difference|", abs(iso_diff), "<=", 5.0 * iso_se),
             Gate("max_ratio_deviation", summary["max_ratio_deviation"], "<=", 0.15))
    return ExperimentOutcome(summary, tables, gates=gates)


def _run_fp_stationarity(run: _Run) -> ExperimentOutcome:
    p = run.params
    spec = run.model
    grid = Grid1D(p["x_min"], p["x_max"], p["n_cells"])
    model = spec.build()
    pi = stationary_density_gradient(spec.potential, grid)

    evolved = solve_fokker_planck(model, pi, p["t_stationary"], p["dt"])
    drift_l1 = evolved.l1_distance(pi)

    width = p["x_max"] - p["x_min"]
    uniform = DensityField(grid, np.full(grid.n_nodes, 1.0 / width))
    relaxed = solve_fokker_planck(model, uniform, p["t_uniform"], p["dt"])
    relax_l1 = relaxed.l1_distance(pi)

    summary = {
        "potential": spec.potential.source,
        "n_cells": p["n_cells"],
        "stationary_l1_drift": float(drift_l1),
        "uniform_relaxation_l1": float(relax_l1),
    }
    rows = list(zip(grid.nodes, pi.values, relaxed.values))
    tables = {"densities": (("x", "stationary", "relaxed_from_uniform"), rows)}
    gates = (Gate("stationary_l1_drift", summary["stationary_l1_drift"], "<", 1e-4),
             Gate("uniform_relaxation_l1", summary["uniform_relaxation_l1"], "<", 1e-3))
    return ExperimentOutcome(summary, tables, gates=gates)


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

    gamma_error = abs(cert.gamma - gamma_target) / gamma_target
    d_error = abs(cert.d - d_target) / d_target
    summary = {
        "drift_feasible": cert.feasible,
        "gamma": cert.gamma,
        "gamma_target": gamma_target,
        "gamma_rel_error": gamma_error,
        "d": cert.d,
        "d_target": d_target,
        "d_rel_error": d_error,
        "alpha": minor.alpha,
        "beta": beta,
        "alpha_bar": alpha_bar,
        "max_ratio": contraction.max_ratio,
        "max_point_ratio": contraction.max_point_ratio,
        "n_pairs": p["n_pairs"],
    }
    tables = {"contraction_decay": (("n", "rho_beta_distance"), rows)}
    gates = (Gate("drift_feasible", cert.feasible, "==", True),
             Gate("gamma_rel_error", gamma_error, "<=", 0.05),
             Gate("d_rel_error", d_error, "<=", 0.05),
             Gate("alpha", minor.alpha, ">", 0.0),
             Gate("max_ratio", contraction.max_ratio, "<=", alpha_bar + 1e-9),
             Gate("max_point_ratio", contraction.max_point_ratio, "<=", alpha_bar + 1e-9))
    return ExperimentOutcome(summary, tables, gates=gates)


def _run_birkhoff(run: _Run) -> ExperimentOutcome:
    p = run.params
    two = np.array([[2.0, 1.0], [1.0, 2.0]])
    delta = projective_diameter(two, n_probe=p["n_probe"],
                                stream=run.stream.child(1))
    ratio_bound = math.tanh(delta / 4.0)

    probes = np.exp(run.stream.child(2).generator().uniform(
        -2.0, 2.0, size=(p["n_probe"], 2, 2)))
    pushed = np.matmul(two, probes[..., None])[..., 0]
    # libm's log, as hilbert_metric takes it: numpy's SIMD log can differ in the last bit
    before = [abs(math.log(r)) for r in _cross_ratio(probes[:, 0], probes[:, 1]).tolist()]
    after = [abs(math.log(r)) for r in _cross_ratio(pushed[:, 0], pushed[:, 1]).tolist()]
    worst = max((a / b for a, b in zip(after, before) if b >= 1e-12), default=0.0)

    killed = discretize_kernel(SdeModel.brownian(1), Grid1D(-1.0, 1.0, p["n_cells"]),
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
    }
    rows = list(zip(killed.grid.nodes, perron.h0, perron.pi0))
    tables = {"perron_vectors": (("x", "h0", "pi0"), rows)}
    gates = (Gate("|projective_diameter - log 4|", abs(delta - math.log(4.0)), "<=", 1e-9),
             Gate("max_sampled_ratio", worst, "<=", ratio_bound + 1e-9),
             Gate("lambda0", perron.lambda0, "<", 1.0),
             Gate("residual_right", perron.residual_right, "<", 1e-8),
             Gate("residual_left", perron.residual_left, "<", 1e-8),
             Gate("observed_rate", perron.observed_rate, "<=", rate_bound + 1e-9))
    return ExperimentOutcome(summary, tables, gates=gates)


def _run_minimum_action(run: _Run) -> ExperimentOutcome:
    p = run.params
    ou = SdeModel.scalar(lambda x: -x, 1.0)
    path = minimize_action(ou, 0.0, p["level"], p["t_end"], p["n_steps"],
                           tol=p["tol"], max_iter=p["max_iter"])
    closed = ou_exit_rate(0.0, p["level"], p["t_end"])

    free_path = minimize_action(SdeModel.brownian(1), 0.0, 1.0, 4.0, 100)

    summary = {
        "converged": path.converged,
        "free_converged": free_path.converged,
        "action": path.action,
        "action_target": closed,
        "abs_error": abs(path.action - closed),
        "free_action": free_path.action,
        "free_action_target": 0.125,
        "free_abs_error": abs(free_path.action - 0.125),
        "iterations": len(path.history) - 1,
    }
    profile = p["level"] * np.sinh(path.grid.nodes) / math.sinh(p["t_end"])
    rows = list(zip(path.grid.nodes, path.values[:, 0], profile))
    tables = {"optimal_path": (("t", "x", "closed_form"), rows)}
    gates = (Gate("converged", path.converged, "==", True),
             Gate("free_converged", free_path.converged, "==", True),
             Gate("abs_error", summary["abs_error"], "<=", 1e-3),
             Gate("free_abs_error", summary["free_abs_error"], "<=", 1e-4))
    return ExperimentOutcome(summary, tables, gates=gates)


def _run_quasipotential(run: _Run) -> ExperimentOutcome:
    p = run.params
    U = p["potential"]
    model = SdeModel(1, 1, _drift(U), [[1.0]])
    result = quasipotential(model, p["x_star"], p["y"], p["horizons"],
                            n_steps=p["n_steps"], tol=p["tol"],
                            max_iter=p["max_iter"])
    target = 2.0 * (U(p["y"]) - U(p["x_star"]))
    summary = {
        "potential": U.source,
        "converged": result.converged,
        "value": result.value,
        "value_target": target,
        "rel_error": abs(result.value - target) / abs(target),
        "minimizing_t": result.minimizing_t,
    }
    rows = list(zip(result.t_values, result.action_values))
    tables = {"envelope": (("t_horizon", "action"), rows)}
    gates = (Gate("converged", result.converged, "==", True),
             Gate("|value - value_target|", abs(result.value - target),
                  "<=", 0.02 * abs(target)))
    return ExperimentOutcome(summary, tables, gates=gates)


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
        "monotone": bool(fit.monotone),
    }
    rows = list(zip(fit.eps, fit.eps_log_mean_tau, fit.stderr, fit.exact))
    tables = {"fit": (("eps", "eps_log_mean_tau", "stderr", "exact"), rows)}
    gates = (Gate("monotone", summary["monotone"], "==", True),
             Gate("|value_at_smallest_eps - v_bar|", abs(smallest - fit.v_bar),
                  "<=", 0.15 * fit.v_bar))
    return ExperimentOutcome(summary, tables, gates=gates)


def _run_eyring_kramers(run: _Run) -> ExperimentOutcome:
    p = run.params
    U, eps = p["potential"], p["eps"]
    formula = eyring_kramers_time(U, p["x_star"], p["saddle"], eps)
    model = SdeModel(1, 1, _drift(U), [[math.sqrt(eps)]])
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
        "fraction_censored": stats.fraction_censored,
    }
    tables = {"transition_time_histogram": (("t_lo", "t_hi", "count"),
                                            _histogram_rows(stats.exit_times))}
    gates = (Gate("ratio", summary["ratio"], ">=", 0.5),
             Gate("ratio", summary["ratio"], "<=", 2.0),
             Gate("fraction_censored", stats.fraction_censored, "==", 0.0))
    return ExperimentOutcome(summary, tables, gates=gates)


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

    killed = discretize_kernel(SdeModel.brownian(1), Grid1D(-1.0, 1.0, 80), 0.1,
                               bc="dirichlet_zero")
    bounds = fit_cone_bounds(killed)
    cone_bad = bounds.violations(killed)

    summary = {
        "drift_violations": int(drift_bad),
        "minorisation_violations": int(minor_bad),
        "cone_violations": int(cone_bad),
        "gamma": cert.gamma,
        "d": cert.d,
        "alpha": minor.alpha,
        "cone_ratio": bounds.L,
    }
    return ExperimentOutcome(summary, gates=tuple(
        Gate(key, summary[key], "==", 0)
        for key in ("drift_violations", "minorisation_violations", "cone_violations")))


# node columns per block of sample-paths' per-node moments
_MOMENT_COLUMNS = 64


def _run_sample_paths(run: _Run) -> ExperimentOutcome:
    p = run.params
    spec = run.model
    model = spec.build()
    grid = TimeGrid(0.0, p["t_end"], p["n_steps"])
    x0 = np.full(model.dim_state, p["x0"])
    n_paths, n_nodes = p["n_paths"], grid.n_nodes
    keep = min(8, n_paths)
    kept = np.empty((n_nodes, keep))
    # per-node moments over blocks of node columns, each gathered from the windows
    # into one C-contiguous (n_paths, columns) buffer and reduced when full: numpy
    # then adds the paths row by row, as over the whole ensemble.  It sums a lone
    # column pairwise, so the last block takes two columns or more and every node
    # keeps its bits
    bounds = [*range(0, n_nodes - 1, _MOMENT_COLUMNS), n_nodes]
    buffer = np.empty(n_paths * (_MOMENT_COLUMNS + 1))
    mean, std = np.empty(n_nodes), np.empty(n_nodes)
    b = 0
    for j, path in euler_maruyama_ensemble(model, x0, grid, n_paths, run.stream):
        first = path[:, :, 0]
        m, end = j + 1 if j else 0, j + len(first)  # node j ended the last window
        kept[m:end] = first[m - j:, :keep]
        while m < end:
            start, stop = bounds[b], bounds[b + 1]
            block = buffer[:n_paths * (stop - start)].reshape(n_paths, stop - start)
            filled = min(stop, end)
            block[:, m - start:filled - start] = first[m - j:filled - j].T
            m = filled
            if filled == stop:
                mean[start:stop] = block.mean(axis=0)
                std[start:stop] = block.std(axis=0, ddof=1)
                b += 1

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

    path_rows = [(t[j], i, kept[j, i]) for i in range(keep) for j in range(n_nodes)]
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
    return ExperimentOutcome(summary, tables)


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
        _p("lambdas", "floats", (0.5, 1.0, 2.0), "Laplace parameters", minimum=0),
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
        _p("horizons", "floats", (1.0, 2.0, 3.0, 5.0), "travel times",
           minimum=0, exclusive=True),
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
        _p("eps", "floats", (0.25, 0.167, 0.125), "noise levels", minimum=0,
           exclusive=True),
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
