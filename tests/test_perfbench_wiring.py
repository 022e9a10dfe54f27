"""Tier-1 guards for the benchmark's wiring.

The span tracer must find every target it wraps, and ``run`` must reach
the experiment through the module-level ``execute`` exactly once, since
the benchmark times that call and counts the rest of ``run`` as writing.
"""

from pathlib import Path

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
