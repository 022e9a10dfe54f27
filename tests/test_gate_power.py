"""Gate power: each test plants one defect and checks that a registry gate
misses it at the experiment's defaults.

A gate that passes both the true code and a broken one proves nothing.
The acceptance tests show that every gate passes the true code; these
show, for the planted defects below, which gate sees the fault.  Every
bound, seed and tolerance is the registry's own.
"""

from sdelab import firstexit, kolmogorov, sde
from sdelab.experiments import execute


def missed(name: str) -> set[str]:
    """The names of the gates that ``name``'s default run misses."""
    return {gate.name for gate in execute(name).gates if not gate.passed}


def test_exit_ball_sees_a_missing_bridge_kill(monkeypatch):
    # without the kill a path is caught only at a node: late exits,
    # abs_error 0.0052 -> 0.0415 against a bound of 0.03
    monkeypatch.setattr(firstexit, "_KILL_CAP", 0.0)
    assert "abs_error" in missed("exit-ball-2d")


def test_ito_isometry_sees_noise_two_percent_too_large(monkeypatch):
    # max_ratio_deviation 0.018 -> 0.236 against a bound of 0.15
    em_path = sde._em_path

    def noisy(model, x, dt, dw):
        return em_path(model, x, dt, 1.02 * dw)

    monkeypatch.setattr(sde, "_em_path", noisy)
    monkeypatch.setattr(firstexit, "_em_path", noisy)
    assert "max_ratio_deviation" in missed("ito-isometry")


def test_fp_stationarity_sees_a_fitted_flux_with_the_wrong_diffusion(monkeypatch):
    # a = 0.51 D in place of D / 2: both L1 gates read 9.6e-3
    coefficients = kolmogorov._scalar_coefficients

    def skewed(model, nodes):
        f, d = coefficients(model, nodes)
        return f, 1.02 * d

    monkeypatch.setattr(kolmogorov, "_scalar_coefficients", skewed)
    assert missed("fp-stationarity") == {"stationary_l1_drift", "uniform_relaxation_l1"}
