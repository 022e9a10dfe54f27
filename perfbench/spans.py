"""Span tracing of sdelab's layers from outside the package.

Nothing inside ``src/`` is traced.  :func:`install` replaces each wrapped
public function by a timing wrapper in every ``sdelab`` module that holds
it, which is where its callers look it up (``sdelab.experiments.mc_exit``,
``sdelab.largedev.mc_exit``, ``sdelab.ergodicity.solve_backward_kolmogorov``
and so on); methods are replaced on their class.  A target that no longer
exists raises, so a rename inside the package breaks the benchmark
instead of reading as zero, and :func:`missing_spans` is the self-test
that every span records calls on the workload meant to exercise it.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from workloads import WORKLOADS

ALL = tuple(WORKLOADS)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Aggregates spans by name and keeps every span but ``expr`` in a list.

    A kept span is ``(name, start, end, parent index)``.  ``expr`` wraps
    ``Expression.__call__``, which runs once per Euler step, so its spans
    are only aggregated.
    """

    stats: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, keep: bool) -> list:
        """Push a frame ``[child seconds, span index, parent frame]``."""
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index, self._stack[-1] if self._stack else None]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        st = self.stats.setdefault(name, SpanStats())
        st.calls += 1
        st.total_s += t1 - t0
        st.self_s += t1 - t0 - frame[0]
        parent = frame[2]
        if parent is not None:
            parent[0] += t1 - t0
        if frame[1] is not None:
            self.spans[frame[1]] = (name, t0, t1,
                                    None if parent is None else parent[1])

    def wrap(self, name: str, fn, on_return=None, keep: bool = True):
        signature = inspect.signature(fn) if on_return else None

        def wrapper(*args, **kwargs):
            frame = self._open(keep)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, t0, time.perf_counter())
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, result, bound.arguments)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into sdelab."""
        frame = self._open(True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, t0, time.perf_counter())


# ---------------------------------------------------------------------------
# Work counts taken from arguments and return values
# ---------------------------------------------------------------------------

def _mc_exit_counts(tracer: Tracer, stats, args) -> None:
    h, n_paths = args["h"], args["n_paths"]
    n_steps = max(1, math.ceil(stats.t_max / h))
    # an exit at (k + lam) h with lam in (0, 1] ends the path's k+1-th step
    steps = np.ceil(stats.exit_times / h - 1e-7)
    steps = np.concatenate([steps, np.full(n_paths - steps.size, n_steps)])
    steps.sort()
    loop_steps = float(steps[-1])
    ninety = float(steps[math.ceil(0.9 * n_paths) - 1])
    tracer.add("mc_exit.loop_steps", loop_steps)
    tracer.add("mc_exit.path_steps", float(steps.sum()))
    tracer.add("mc_exit.lane_slots", loop_steps * n_paths)
    tracer.add("mc_exit.tail_steps", loop_steps - ninety)


def _ensemble_counts(tracer: Tracer, _result, args) -> None:
    tracer.add("euler_maruyama_ensemble.path_steps",
               args["n_paths"] * args["grid"].n_steps)


def _wiener_counts(tracer: Tracer, _result, args) -> None:
    tracer.add("sample_wiener.draws", args["grid"].n_steps * args["dim"])


def _backward_counts(tracer: Tracer, result, args) -> None:
    columns = result.shape[1] if np.ndim(result) == 2 else 1
    tracer.add("kolmogorov.column_steps",
               max(1, round(args["t_end"] / args["dt"])) * columns)


def _fokker_planck_counts(tracer: Tracer, _result, args) -> None:
    tracer.add("kolmogorov.column_steps", max(1, round(args["t_end"] / args["dt"])))


def _jentzsch_counts(tracer: Tracer, result, _args) -> None:
    tracer.add("power_iteration_jentzsch.iterations", result.n_iterations)


def _action_counts(tracer: Tracer, result, _args) -> None:
    tracer.add("minimize_action.iterations", len(result.history) - 1)


# (span name, defining module, function or Class.method, count hook,
#  workloads meant to exercise it)
SPANS = (
    ("firstexit.mc_exit", "sdelab.firstexit", "mc_exit", _mc_exit_counts,
     ("metastable-exit", "path-ensembles")),
    ("expr", "sdelab.expr", "Expression.__call__", None,
     ("metastable-exit", "grid-solvers")),
    ("sde.euler_maruyama_ensemble", "sdelab.sde", "euler_maruyama_ensemble",
     _ensemble_counts, ("path-ensembles",)),
    ("sde.sample_wiener", "sdelab.sde", "sample_wiener", _wiener_counts,
     ("path-ensembles",)),
    ("firstexit.mc_radial_hitting", "sdelab.firstexit", "mc_radial_hitting",
     None, ("path-ensembles",)),
    ("firstexit.arcsine_occupation", "sdelab.firstexit", "arcsine_occupation",
     None, ("path-ensembles",)),
    ("kolmogorov.solve_backward_kolmogorov", "sdelab.kolmogorov",
     "solve_backward_kolmogorov", _backward_counts, ("grid-solvers",)),
    ("kolmogorov.solve_fokker_planck", "sdelab.kolmogorov",
     "solve_fokker_planck", _fokker_planck_counts, ("grid-solvers",)),
    ("ergodicity.discretize_kernel", "sdelab.ergodicity", "discretize_kernel",
     None, ("grid-solvers",)),
    ("ergodicity.power_iteration_jentzsch", "sdelab.ergodicity",
     "power_iteration_jentzsch", _jentzsch_counts, ("grid-solvers",)),
    ("ergodicity.verify_hm_contraction", "sdelab.ergodicity",
     "verify_hm_contraction", None, ("grid-solvers",)),
    ("ergodicity.certificates", "sdelab.ergodicity", "verify_geometric_drift",
     None, ("grid-solvers",)),
    ("ergodicity.certificates", "sdelab.ergodicity", "drift_violations",
     None, ("grid-solvers",)),
    ("ergodicity.certificates", "sdelab.ergodicity", "verify_minorisation",
     None, ("grid-solvers",)),
    ("ergodicity.certificates", "sdelab.ergodicity", "MinorisationCert.violations",
     None, ("grid-solvers",)),
    ("ergodicity.certificates", "sdelab.ergodicity", "fit_cone_bounds",
     None, ("grid-solvers",)),
    ("ergodicity.certificates", "sdelab.ergodicity", "ConeBounds.violations",
     None, ("grid-solvers",)),
    ("largedev.minimize_action", "sdelab.largedev", "minimize_action",
     _action_counts, ("grid-solvers",)),
    ("largedev.quasipotential", "sdelab.largedev", "quasipotential", None,
     ("grid-solvers",)),
    ("experiments.execute", "sdelab.experiments", "execute", None, ALL),
)


def install(tracer: Tracer):
    """Wrap every target of :data:`SPANS`; returns an undo callable."""
    undo = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "sdelab" or name.startswith("sdelab."))]
    for name, module_name, target, hook, _ in SPANS:
        owner = importlib.import_module(module_name)
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, original, hook, keep=name != "expr"))
            undo.append((cls, meth, original))
            continue
        original = getattr(owner, target)
        wrapped = tracer.wrap(name, original, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))

    def uninstall() -> None:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)

    return uninstall


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    """Spans meant to run on ``workload`` that recorded no call."""
    return sorted({name for name, *_, workloads in SPANS
                   if workload in workloads
                   and tracer.stats.get(name, SpanStats()).calls == 0})


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "firstexit.mc_exit.calls": "count",
    "firstexit.mc_exit.self_s": "s",
    "firstexit.mc_exit.loop_steps": "count",
    "firstexit.mc_exit.path_steps": "count",
    "firstexit.mc_exit.us_per_loop_step": "us",
    "firstexit.mc_exit.lane_fill": "ratio",
    "firstexit.mc_exit.tail_step_share": "ratio",
    "firstexit.probe_tail_us_per_step": "us",
    "firstexit.probe_bulk_us_per_step": "us",
    "expr.calls": "count",
    "expr.self_s": "s",
    "expr.us_per_call": "us",
    "sde.euler_maruyama_ensemble.self_s": "s",
    "sde.euler_maruyama_ensemble.ns_per_path_step": "ns",
    "sde.sample_wiener.self_s": "s",
    "sde.sample_wiener.ns_per_draw": "ns",
    "firstexit.mc_radial_hitting.self_s": "s",
    "firstexit.arcsine_occupation.self_s": "s",
    "kolmogorov.solve_backward_kolmogorov.calls": "count",
    "kolmogorov.solve_backward_kolmogorov.self_s": "s",
    "kolmogorov.solve_fokker_planck.calls": "count",
    "kolmogorov.solve_fokker_planck.self_s": "s",
    "kolmogorov.ns_per_column_step": "ns",
    "ergodicity.discretize_kernel.self_s": "s",
    "ergodicity.power_iteration_jentzsch.self_s": "s",
    "ergodicity.power_iteration_jentzsch.iterations": "count",
    "ergodicity.verify_hm_contraction.self_s": "s",
    "ergodicity.certificates.self_s": "s",
    "largedev.minimize_action.calls": "count",
    "largedev.minimize_action.self_s": "s",
    "largedev.minimize_action.iterations": "count",
    "largedev.minimize_action.ms_per_iteration": "ms",
    "largedev.quasipotential.self_s": "s",
    "experiments.execute.self_s": "s",
    "experiments.write_s": "s",
    "experiments.bytes_written": "bytes",
    "experiments.files_written": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """``scale * num / den``, and 0 where the layer did no work."""
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, write_s: float, bytes_written: int,
                  files_written: int, overhead_s: float,
                  probe_tail_us: float, probe_bulk_us: float) -> dict:
    def s(name: str) -> SpanStats:
        return tracer.stats.get(name, SpanStats())

    def c(key: str) -> float:
        return tracer.counts.get(key, 0)

    mc, ex = s("firstexit.mc_exit"), s("expr")
    ens, wie = s("sde.euler_maruyama_ensemble"), s("sde.sample_wiener")
    bk, fp = s("kolmogorov.solve_backward_kolmogorov"), s("kolmogorov.solve_fokker_planck")
    act = s("largedev.minimize_action")
    pij = s("ergodicity.power_iteration_jentzsch")
    values = {
        "firstexit.mc_exit.calls": mc.calls,
        "firstexit.mc_exit.self_s": mc.self_s,
        "firstexit.mc_exit.loop_steps": c("mc_exit.loop_steps"),
        "firstexit.mc_exit.path_steps": c("mc_exit.path_steps"),
        "firstexit.mc_exit.us_per_loop_step": _ratio(mc.self_s, c("mc_exit.loop_steps"), 1e6),
        "firstexit.mc_exit.lane_fill": _ratio(c("mc_exit.path_steps"), c("mc_exit.lane_slots")),
        "firstexit.mc_exit.tail_step_share": _ratio(c("mc_exit.tail_steps"), c("mc_exit.loop_steps")),
        "firstexit.probe_tail_us_per_step": probe_tail_us,
        "firstexit.probe_bulk_us_per_step": probe_bulk_us,
        "expr.calls": ex.calls,
        "expr.self_s": ex.self_s,
        "expr.us_per_call": _ratio(ex.self_s, ex.calls, 1e6),
        "sde.euler_maruyama_ensemble.self_s": ens.self_s,
        "sde.euler_maruyama_ensemble.ns_per_path_step":
            _ratio(ens.self_s, c("euler_maruyama_ensemble.path_steps"), 1e9),
        "sde.sample_wiener.self_s": wie.self_s,
        "sde.sample_wiener.ns_per_draw": _ratio(wie.self_s, c("sample_wiener.draws"), 1e9),
        "firstexit.mc_radial_hitting.self_s": s("firstexit.mc_radial_hitting").self_s,
        "firstexit.arcsine_occupation.self_s": s("firstexit.arcsine_occupation").self_s,
        "kolmogorov.solve_backward_kolmogorov.calls": bk.calls,
        "kolmogorov.solve_backward_kolmogorov.self_s": bk.self_s,
        "kolmogorov.solve_fokker_planck.calls": fp.calls,
        "kolmogorov.solve_fokker_planck.self_s": fp.self_s,
        "kolmogorov.ns_per_column_step":
            _ratio(bk.self_s + fp.self_s, c("kolmogorov.column_steps"), 1e9),
        "ergodicity.discretize_kernel.self_s": s("ergodicity.discretize_kernel").self_s,
        "ergodicity.power_iteration_jentzsch.self_s": pij.self_s,
        "ergodicity.power_iteration_jentzsch.iterations": c("power_iteration_jentzsch.iterations"),
        "ergodicity.verify_hm_contraction.self_s": s("ergodicity.verify_hm_contraction").self_s,
        "ergodicity.certificates.self_s": s("ergodicity.certificates").self_s,
        "largedev.minimize_action.calls": act.calls,
        "largedev.minimize_action.self_s": act.self_s,
        "largedev.minimize_action.iterations": c("minimize_action.iterations"),
        "largedev.minimize_action.ms_per_iteration":
            _ratio(act.self_s, c("minimize_action.iterations"), 1e3),
        "largedev.quasipotential.self_s": s("largedev.quasipotential").self_s,
        "experiments.execute.self_s": s("experiments.execute").self_s,
        "experiments.write_s": write_s,
        "experiments.bytes_written": bytes_written,
        "experiments.files_written": files_written,
        "trace.overhead_s": overhead_s,
    }
    assert values.keys() == PER_LAYER_UNITS.keys()
    return values


# ---------------------------------------------------------------------------
# Fixed mc_exit probes
# ---------------------------------------------------------------------------

PROBE_H = 1e-3
PROBE_SEED = 20210624


def probe_mc_exit(n_paths: int, n_steps: int, repeats: int = 5) -> float:
    """Median µs per ``mc_exit`` loop step for Brownian motion in [-1000, 1000].

    No path can leave the interval within ``n_steps`` steps of size
    ``PROBE_H``, so every repeat runs exactly ``n_steps`` steps with all
    ``n_paths`` paths active and ends censored.
    """
    from sdelab.firstexit import Domain, mc_exit
    from sdelab.sde import GaussianStream, SdeModel

    model, domain = SdeModel.brownian(1), Domain.interval(-1e3, 1e3)
    t_max = n_steps * PROBE_H
    if math.ceil(t_max / PROBE_H) != n_steps:
        raise RuntimeError("probe horizon does not map to a whole step count")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "all paths were censored" is the point
            stats = mc_exit(model, [0.0], domain, h=PROBE_H, n_paths=n_paths,
                            stream=GaussianStream(PROBE_SEED), t_max=t_max)
        times.append(time.perf_counter() - t0)
        if stats.n_exited:
            raise RuntimeError("a probe path left the domain")
    return statistics.median(times) / n_steps * 1e6
