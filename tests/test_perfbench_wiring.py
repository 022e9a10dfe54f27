"""Tier-1 guard: the benchmark's span tracer must find every target it wraps."""

from pathlib import Path

from sdelab import firstexit

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
