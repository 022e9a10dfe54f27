"""Tier-1 guards for the benchmark's wiring.

The span tracer must find every target it wraps, every span must record
calls on the workload meant to exercise it, and ``run`` must reach the
experiment through the module-level ``execute`` exactly once, since the
benchmark times that call and counts the rest of ``run`` as writing.
"""

from pathlib import Path

import pytest

from sdelab import experiments, firstexit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_still_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # install raises when a wrapped function or method was deleted or renamed
    uninstall = spans.install(spans.Tracer())
    try:
        assert hasattr(firstexit.mc_exit, "__wrapped__")
    finally:
        uninstall()
    assert not hasattr(firstexit.mc_exit, "__wrapped__")


def test_run_calls_the_module_execute_once(monkeypatch, tmp_path):
    calls = []
    original = experiments.execute

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "execute", counting)
    config = experiments.ExperimentConfig(
        "sample-paths", parameters={"n_paths": 4, "n_steps": 4})
    experiments.run(config, seed=3, out=tmp_path)
    assert len(calls) == 1


# Monte Carlo operations at a size that runs in well under a second; the
# grid solvers run at their registry defaults, which already do
SMALL = {
    "eyring-kramers": {"n_paths": 8, "eps": 0.5},
    "exit-ball-2d": {"n_paths": 64},
    "sample-paths": {"n_paths": 8, "n_steps": 16},
    "arcsine-law": {"n_paths": 64, "n_steps": 16},
    "ito-isometry": {"n_paths": 16, "n_steps": 16},
    "shell-hitting-3d": {"n_paths": 64},
}


@pytest.mark.parametrize("workload", ["metastable-exit", "path-ensembles", "grid-solvers"])
def test_every_span_fires_on_its_workload(monkeypatch, workload):
    # the benchmark's traced run exits when a span meant for a workload
    # records no call, for instance when a caller stops using a wrapped function
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from workloads import WORKLOADS

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        for op in WORKLOADS[workload].operations:
            experiments.execute(experiments.ExperimentConfig(
                op.experiment, parameters=SMALL.get(op.experiment, {})))
    finally:
        uninstall()
    assert spans.missing_spans(tracer, workload) == []
