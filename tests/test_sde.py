"""Tests for the sample-path core: grids, streams, integrals, integrators."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab.sde import (
    BlowUpError,
    GaussianStream,
    GridMismatchError,
    SamplePath,
    SdeModel,
    TimeGrid,
    WienerPath,
    euler_maruyama,
    euler_maruyama_ensemble,
    exact_linear_additive,
    exact_linear_multiplicative,
    ito_integral,
    refine_wiener_midpoint,
    sample_wiener,
    sine_fixture,
    stratonovich_integral,
)
from sdelab import sde
from sdelab.sde import _WINDOW_ROW_STEPS


class ZeroStream:
    """Noise stub whose Gaussians are all zero (for interpolation checks)."""

    def generator(self):
        class _Gen:
            @staticmethod
            def normal(loc, scale, size):
                return np.zeros(size)

        return _Gen()


# ---------------------------------------------------------------------------
# Time grids
# ---------------------------------------------------------------------------

@given(
    t0=st.floats(-5.0, 5.0),
    length=st.floats(0.1, 20.0),
    n_steps=st.integers(1, 512),
)
def test_grid_nodes_are_uniform_and_increasing(t0, length, n_steps):
    grid = TimeGrid(t0, t0 + length, n_steps)
    assert grid.n_nodes == n_steps + 1
    steps = np.diff(grid.nodes)
    assert np.all(steps > 0)
    assert steps == pytest.approx(grid.dt, rel=1e-9)
    assert grid.nodes[0] == pytest.approx(t0)
    assert grid.nodes[-1] == pytest.approx(t0 + length)


def test_grid_rejects_degenerate_intervals_and_step_counts():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, -1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


@pytest.mark.parametrize("ends, name", [((0.0, math.inf), "t_end"),
                                         ((-math.inf, 0.0), "t0"),
                                         ((math.nan, 1.0), "t0")])
def test_grid_rejects_a_non_finite_end(ends, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        TimeGrid(*ends, 4)


def test_grid_refinement_doubles_steps_and_rejects_negative_levels():
    grid = TimeGrid(0.0, 1.0, 8)
    assert grid.refined(2).n_steps == 32
    assert grid.refined(0) == grid
    with pytest.raises(ValueError):
        grid.refined(-1)


# ---------------------------------------------------------------------------
# Gaussian streams
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2**32 - 1), stream_id=st.integers(0, 1000))
@settings(max_examples=25)
def test_equal_stream_identifiers_reproduce_bit_identical_draws(seed, stream_id):
    a = GaussianStream(seed, stream_id).generator().normal(size=32)
    b = GaussianStream(seed, stream_id).generator().normal(size=32)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_and_children_give_distinct_draws():
    base = GaussianStream(7, 0)
    other = GaussianStream(7, 1)
    child = base.child(0)
    draws = [s.generator().normal(size=16) for s in (base, other, child, base.child(1))]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])
    # children are themselves reproducible
    assert np.array_equal(child.generator().normal(size=16),
                          base.child(0).generator().normal(size=16))


# ---------------------------------------------------------------------------
# Wiener paths
# ---------------------------------------------------------------------------

def test_wiener_path_starts_at_zero_and_has_grid_shape():
    grid = TimeGrid(0.0, 2.0, 100)
    path = sample_wiener(grid, GaussianStream(1), dim=3)
    assert path.values.shape == (101, 3)
    assert np.all(path.values[0] == 0.0)
    with pytest.raises(ValueError):
        WienerPath(grid, np.ones((101, 1)))


def test_wiener_path_matches_cumulated_normal_increments():
    for dim, n_steps in [(1, 100_000), (3, 1000), (40, 500)]:
        grid = TimeGrid(0.0, 1.3, n_steps)
        incr = GaussianStream(11).generator().normal(
            0.0, math.sqrt(grid.dt), size=(n_steps, dim))
        expected = np.vstack([np.zeros((1, dim)), np.cumsum(incr, axis=0)])
        path = sample_wiener(grid, GaussianStream(11), dim=dim)
        assert np.array_equal(path.values, expected)


@pytest.mark.parametrize("row_steps, dim, n_steps", [
    (7, 1, 30),   # four windows of 7 steps and a ragged one of 2
    (12, 3, 23),  # five windows of 4 steps and a ragged one of 3
    (8, 5, 9),    # fewer row-steps than columns: one step per window
    (64, 2, 5),   # one window, shorter than the window size
])
def test_windowed_wiener_equals_one_draw(monkeypatch, row_steps, dim, n_steps):
    monkeypatch.setattr(sde, "_WINDOW_ROW_STEPS", row_steps)
    grid = TimeGrid(0.0, 1.3, n_steps)
    window = max(1, row_steps // dim)
    starts = [j for j, _ in sde._wiener_windows(grid, GaussianStream(33), dim)]
    assert starts == list(range(0, n_steps, window))
    steps = GaussianStream(33).generator().standard_normal((n_steps, dim))
    expected = np.vstack([np.zeros((1, dim)), np.cumsum(steps * math.sqrt(grid.dt), axis=0)])
    path = sample_wiener(grid, GaussianStream(33), dim=dim)
    assert np.array_equal(path.values, expected)


def test_wiener_increments_have_mean_zero_and_variance_dt():
    # many independent components on one grid = a cheap ensemble
    grid = TimeGrid(0.0, 1.0, 16)
    path = sample_wiener(grid, GaussianStream(2024), dim=20_000)
    incr = path.increments()
    n = incr.size
    se_mean = math.sqrt(grid.dt / n)
    assert abs(float(incr.mean())) < 5 * se_mean
    se_var = grid.dt * math.sqrt(2.0 / n)
    assert abs(float(incr.var()) - grid.dt) < 5 * se_var


def test_wiener_covariance_at_half_and_full_time_is_one_half():
    grid = TimeGrid(0.0, 1.0, 16)
    path = sample_wiener(grid, GaussianStream(3), dim=20_000)
    w_half, w_one = path.values[8], path.values[16]
    cov = float(np.mean(w_half * w_one))
    assert cov == pytest.approx(0.5, abs=0.02)


def test_rescaled_path_c_w_of_t_over_c_squared_passes_increment_checks():
    c = 3.0
    grid = TimeGrid(0.0, 1.0, 32)
    path = sample_wiener(grid, GaussianStream(4), dim=10_000)
    scaled_grid = TimeGrid(0.0, c**2 * 1.0, 32)
    scaled = WienerPath(scaled_grid, c * path.values)
    incr = scaled.increments()
    se_var = scaled_grid.dt * math.sqrt(2.0 / incr.size)
    assert abs(float(incr.var()) - scaled_grid.dt) < 5 * se_var
    assert abs(float(incr.mean())) < 5 * math.sqrt(scaled_grid.dt / incr.size)


# ---------------------------------------------------------------------------
# Midpoint refinement
# ---------------------------------------------------------------------------

def test_refinement_keeps_existing_nodes_bit_identical():
    path = sample_wiener(TimeGrid(0.0, 1.0, 16), GaussianStream(5), dim=2)
    fine = refine_wiener_midpoint(path, 3, GaussianStream(5, 1))
    assert fine.grid.n_steps == 128
    assert np.array_equal(fine.values[::8], path.values)


def test_refinement_rejects_negative_levels_and_keeps_level_zero_unchanged():
    path = sample_wiener(TimeGrid(0.0, 1.0, 8), GaussianStream(6))
    with pytest.raises(ValueError):
        refine_wiener_midpoint(path, -1, GaussianStream(6, 1))
    same = refine_wiener_midpoint(path, 0, GaussianStream(6, 1))
    assert np.array_equal(same.values, path.values)


def test_refinement_with_zero_noise_is_linear_interpolation():
    path = sample_wiener(TimeGrid(0.0, 1.0, 8), GaussianStream(7))
    fine = refine_wiener_midpoint(path, 1, ZeroStream())
    expected_mid = 0.5 * (path.values[:-1] + path.values[1:])
    assert np.array_equal(fine.values[1::2], expected_mid)


def test_refinement_midpoint_displacement_has_variance_dt_over_four():
    grid = TimeGrid(0.0, 1.0, 4)
    path = sample_wiener(grid, GaussianStream(8), dim=30_000)
    fine = refine_wiener_midpoint(path, 1, GaussianStream(8, 1))
    resid = fine.values[1::2] - 0.5 * (path.values[:-1] + path.values[1:])
    target = grid.dt / 4.0
    se = target * math.sqrt(2.0 / resid.size)
    assert abs(float(resid.var()) - target) < 5 * se
    # refined increments are again Gaussian with variance dt/2
    incr = fine.increments()
    se2 = (grid.dt / 2) * math.sqrt(2.0 / incr.size)
    assert abs(float(incr.var()) - grid.dt / 2) < 5 * se2


# ---------------------------------------------------------------------------
# Ito and Stratonovich integrals
# ---------------------------------------------------------------------------

@given(c=st.floats(-10.0, 10.0), seed=st.integers(0, 99))
@settings(max_examples=25)
def test_integral_of_a_constant_is_c_times_terminal_value(c, seed):
    path = sample_wiener(TimeGrid(0.0, 2.0, 64), GaussianStream(seed))
    w_end = path.values[-1, 0]
    const = np.full(path.grid.n_nodes, c)
    assert ito_integral(const, path) == pytest.approx(c * w_end, abs=1e-9, rel=1e-9)
    assert stratonovich_integral(const, path) == pytest.approx(c * w_end, abs=1e-9, rel=1e-9)


def test_integral_rejects_mismatched_grids():
    path = sample_wiener(TimeGrid(0.0, 1.0, 32), GaussianStream(9))
    other = SamplePath(TimeGrid(0.0, 1.0, 64), np.zeros(65))
    with pytest.raises(GridMismatchError):
        ito_integral(other, path)
    with pytest.raises(GridMismatchError):
        ito_integral(np.zeros(44), path)


def test_ito_integral_of_w_dw_approaches_half_w_squared_minus_half_t():
    # The discretisation error of sum W dW against W_T^2/2 - T/2 equals
    # (sum dW^2 - T)/2, whose RMS is sqrt(T dt / 2): halves per 4x refinement.
    t_end = 1.0
    errors = {256: [], 1024: []}
    for i in range(300):
        coarse = sample_wiener(TimeGrid(0.0, t_end, 256), GaussianStream(10, i))
        fine = refine_wiener_midpoint(coarse, 2, GaussianStream(11, i))
        for path in (coarse, fine):
            w = path.values[:, 0]
            exact = 0.5 * w[-1] ** 2 - 0.5 * t_end
            errors[path.grid.n_steps].append(ito_integral(path, path) - exact)
    rms = {n: float(np.sqrt(np.mean(np.square(e)))) for n, e in errors.items()}
    assert rms[256] == pytest.approx(math.sqrt(t_end / 256 / 2), rel=0.25)
    assert rms[1024] == pytest.approx(math.sqrt(t_end / 1024 / 2), rel=0.25)
    assert rms[256] / rms[1024] == pytest.approx(2.0, rel=0.25)


def test_stratonovich_integral_of_w_dw_approaches_half_w_squared():
    diffs = []
    for i in range(200):
        path = sample_wiener(TimeGrid(0.0, 1.0, 512), GaussianStream(12, i))
        w_end = path.values[-1, 0]
        diffs.append(stratonovich_integral(path, path) - 0.5 * w_end**2)
    # no -T/2 correction: the mean offset is zero, unlike the Ito sum
    mean = float(np.mean(diffs))
    se = float(np.std(diffs)) / math.sqrt(len(diffs))
    assert abs(mean) < 5 * max(se, 1e-4)


def test_stratonovich_integral_of_w_dw_telescopes_to_half_w_squared_exactly():
    # sum (W_k + W_{k-1})(W_k - W_{k-1})/2 telescopes: exact on every grid
    for n_steps in (8, 64, 512):
        path = sample_wiener(TimeGrid(0.0, 1.0, n_steps), GaussianStream(13))
        w_end = path.values[-1, 0]
        assert stratonovich_integral(path, path) == pytest.approx(
            0.5 * w_end**2, rel=1e-12, abs=1e-12)


def test_stratonovich_refinement_is_cauchy_toward_the_chain_rule_value():
    # int sin(W) o dW = 1 - cos(W_T) by the Stratonovich chain rule
    errs_per_level = np.zeros(4)
    for i in range(100):
        paths = [sample_wiener(TimeGrid(0.0, 1.0, 64), GaussianStream(13, i))]
        for level in range(3):
            paths.append(refine_wiener_midpoint(paths[-1], 1,
                                                GaussianStream(130 + level, i)))
        target = 1.0 - math.cos(paths[0].values[-1, 0])  # W_T preserved
        for j, p in enumerate(paths):
            integrand = np.sin(p.values[:, 0])
            errs_per_level[j] += (stratonovich_integral(integrand, p) - target) ** 2
    rms = np.sqrt(errs_per_level / 100)
    assert rms[-1] < 0.5 * rms[0]
    assert np.all(np.diff(rms) < 0)


def test_ito_isometry_for_w_dw_within_five_standard_errors():
    # E[(int_0^1 W dW)^2] = int_0^1 t dt = 1/2
    vals = []
    for i in range(2000):
        path = sample_wiener(TimeGrid(0.0, 1.0, 128), GaussianStream(14, i))
        vals.append(ito_integral(path, path))
    sq = np.square(vals)
    se = float(np.std(sq)) / math.sqrt(len(sq))
    assert abs(float(np.mean(sq)) - 0.5) < 5 * se


# ---------------------------------------------------------------------------
# Euler-Maruyama
# ---------------------------------------------------------------------------

def test_euler_maruyama_with_zero_dispersion_is_explicit_euler_exactly():
    model = SdeModel.scalar(lambda x: np.sin(x), lambda x: 0.0)
    grid = TimeGrid(0.0, 2.0, 50)
    path = euler_maruyama(model, 0.7, grid, stream=GaussianStream(15))
    x = 0.7
    for k in range(grid.n_steps):
        x = x + math.sin(x) * grid.dt
        assert path.values[k + 1, 0] == x  # bit-identical to explicit Euler


def test_constant_dispersion_models_stay_hashable():
    models = [SdeModel.brownian(2), SdeModel(1, 1, np.negative, [[math.sqrt(2.0)]]),
              SdeModel.scalar(lambda x: -x, 0.5)]
    for model in models:
        assert hash(model) == hash(model)
        assert model.constant_dispersion is not None
    assert len(set(models)) == 3


def test_constant_dispersion_agrees_with_the_dispersion_callable():
    x = np.array([[0.3, -1.2], [2.0, 0.5]])
    for model in (SdeModel.brownian(2), SdeModel(2, 2, np.negative, math.sqrt(2) * np.eye(2))):
        assert np.array_equal(model.dispersion(x),
                              np.broadcast_to(model.constant_dispersion, (2, 2, 2)))
    scalar = SdeModel.scalar(lambda x: -x, 0.5)
    assert np.array_equal(scalar.dispersion(x[:, :1]), np.full((2, 1, 1), 0.5))
    assert not scalar.constant_dispersion.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        SdeModel(1, 1, np.negative, np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        SdeModel.scalar(lambda x: -x, math.nan)
    with pytest.raises(ValueError, match=">= 1"):
        SdeModel.brownian(0)


def test_a_model_states_each_coefficient_once():
    assert [f.name for f in dataclasses.fields(SdeModel) if f.init] == \
        ["dim_state", "dim_noise", "drift", "dispersion"]


def test_number_dispersion_steps_bit_identically_to_a_constant_callable():
    grid = TimeGrid(0.0, 1.0, 64)
    kwargs = dict(x0=[0.2], grid=grid, n_paths=32, stream=GaussianStream(21))
    number = euler_maruyama_ensemble(SdeModel.scalar(lambda x: x - x**3, 0.7), **kwargs)
    callable_ = euler_maruyama_ensemble(
        SdeModel.scalar(lambda x: x - x**3, lambda x: 0.7), **kwargs)
    assert np.array_equal(number, callable_)


def test_euler_maruyama_requires_exactly_one_noise_source():
    model = SdeModel.brownian()
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        euler_maruyama(model, 0.0, grid)
    wiener = sample_wiener(grid, GaussianStream(16))
    with pytest.raises(ValueError):
        euler_maruyama(model, 0.0, grid, stream=GaussianStream(16), wiener=wiener)


def test_euler_maruyama_blow_up_carries_the_step_index():
    model = SdeModel.scalar(lambda x: x**3, lambda x: 0.0)
    grid = TimeGrid(0.0, 5.0, 50)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as excinfo:
            euler_maruyama(model, 10.0, grid, stream=GaussianStream(17))
    assert 1 <= excinfo.value.step_index <= 50
    assert excinfo.value.time == pytest.approx(grid.nodes[excinfo.value.step_index])


def test_euler_maruyama_strong_error_versus_exact_linear_solution_is_order_one():
    # additive noise: strong order 1, so halving dt roughly halves the error
    errs = {128: [], 256: []}
    for i in range(100):
        fine = sample_wiener(TimeGrid(0.0, 1.0, 256), GaussianStream(18, i))
        coarse = WienerPath(TimeGrid(0.0, 1.0, 128), fine.values[::2])
        model = SdeModel.scalar(lambda x: -x, lambda x: 1.0)
        for w in (coarse, fine):
            em = euler_maruyama(model, 1.0, w.grid, wiener=w)
            exact = exact_linear_additive(-1.0, 1.0, 1.0, w)
            errs[w.grid.n_steps].append(abs(em.values[-1, 0] - exact.values[-1, 0]))
    rms = {n: float(np.sqrt(np.mean(np.square(e)))) for n, e in errs.items()}
    assert rms[128] / rms[256] == pytest.approx(2.0, rel=0.4)


def test_ensemble_matches_single_path_layout_and_is_reproducible():
    model = SdeModel.brownian(2)
    grid = TimeGrid(0.0, 1.0, 20)
    a = euler_maruyama_ensemble(model, [0.0, 0.0], grid, 50, GaussianStream(19))
    b = euler_maruyama_ensemble(model, [0.0, 0.0], grid, 50, GaussianStream(19))
    assert a.shape == (50, 21, 2)
    assert np.array_equal(a, b)
    assert np.all(a[:, 0] == 0.0)


def test_ensemble_noise_layout_is_pinned():
    # Golden terminal rows: one (n_paths, dim_noise) draw per step fixes the
    # manifest SHA-256s of the ensemble experiments.  Brownian steps need no
    # libm call, so the values are portable.
    paths = euler_maruyama_ensemble(SdeModel.brownian(2), [0.0, 1.0],
                                    TimeGrid(0.0, 1.0, 8), 4, GaussianStream(7))
    assert paths[:, -1].tolist() == [
        [0.40211245585652067, 3.179435850816839],
        [-1.8786992038955712, 1.9658740943624098],
        [0.9591102206432748, 0.5582237915318315],
        [-0.32261980512439603, 2.1773677784681977],
    ]


def per_step_reference(model, x, grid, draw):
    """Euler-Maruyama one step at a time, ``x + f(x) dt + g(x) dW`` with
    ``dW = draw()``, raising at the first non-finite state."""
    out = [x]
    for k in range(grid.n_steps):
        x = x + model.drift(x) * grid.dt + np.einsum(
            "...ik,...k->...i", model.dispersion(x), draw())
        if not np.isfinite(x).all():
            raise BlowUpError(k + 1, grid.nodes[k + 1])
        out.append(x)
    return np.stack(out, axis=-2)


def reference_ensemble(model, x0, grid, n_paths, stream):
    """The ensemble as one ``(n_paths, dim_noise)`` draw per step."""
    rng = stream.generator()
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, model.dim_state))
    return per_step_reference(model, x, grid, lambda: rng.normal(
        0.0, math.sqrt(grid.dt), size=(n_paths, model.dim_noise)))


# windows of 7 steps: 30 steps are four full windows and a ragged one of 2
WINDOWED = dict(n_paths=_WINDOW_ROW_STEPS // 7, grid=TimeGrid(0.0, 0.3, 30))
DENSE_G = np.array([[0.6, 0.3], [-0.2, 0.5]])


@pytest.mark.parametrize("model, x0", [
    (SdeModel.scalar(lambda x: 0.05 * x, lambda x: 0.4 * x), 1.0),
    (SdeModel(2, 2, lambda x: -0.5 * x + np.sin(x[..., ::-1]), DENSE_G), [0.2, -0.1]),
    (SdeModel.brownian(2), [0.0, 1.0]),
], ids=["gbm", "dense-constant", "brownian-2d"])
def test_windowed_ensemble_equals_the_per_step_loop(model, x0):
    window = _WINDOW_ROW_STEPS // WINDOWED["n_paths"]
    assert window > 1 and WINDOWED["grid"].n_steps % window
    paths = euler_maruyama_ensemble(model, x0, stream=GaussianStream(31), **WINDOWED)
    expected = reference_ensemble(model, x0, stream=GaussianStream(31), **WINDOWED)
    assert np.array_equal(paths, expected)


def test_blow_up_inside_a_window_is_raised_at_the_per_step_loop_step():
    model = SdeModel.scalar(lambda x: x**3, 0.1)
    n_paths, grid = WINDOWED["n_paths"], TimeGrid(0.0, 1.0, 100)
    window = _WINDOW_ROW_STEPS // n_paths
    wiener = sample_wiener(grid, GaussianStream(32))
    raised = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (
            lambda: euler_maruyama_ensemble(model, 2.5, grid, n_paths, GaussianStream(32)),
            lambda: reference_ensemble(model, 2.5, grid, n_paths, GaussianStream(32)),
            lambda: euler_maruyama(model, 2.5, grid, wiener=wiener),
            lambda: per_step_reference(model, np.array([2.5]), grid,
                                       iter(wiener.increments()).__next__),
        ):
            with pytest.raises(BlowUpError) as excinfo:
                run()
            raised.append((excinfo.value.step_index, excinfo.value.time))
    assert raised[0] == raised[1] and raised[2] == raised[3]
    # the ensemble blows up on neither the first nor the last step of a
    # window, the single path inside its one window of 100 steps
    assert 0 < (raised[0][0] - 1) % window < window - 1
    assert 1 < raised[2][0] < grid.n_steps


# ---------------------------------------------------------------------------
# Exact linear solutions
# ---------------------------------------------------------------------------

def test_additive_solution_with_zero_drift_is_x0_plus_the_path():
    path = sample_wiener(TimeGrid(0.0, 1.0, 200), GaussianStream(20))
    sol = exact_linear_additive(0.0, 1.0, 2.5, path)
    assert sol.values[:, 0] == pytest.approx(2.5 + path.values[:, 0], abs=1e-12)


def test_additive_solution_variance_matches_quadrature_of_the_kernel():
    # dX = -X dt + dW on [0, 1]: the left-sum construction has terminal
    # variance exactly sum_j exp(2(alpha_N - alpha_j)) dt, which converges
    # to the continuum value (1 - e^-2)/2 = 0.43233235838169365.
    grid = TimeGrid(0.0, 1.0, 64)
    nodes, dt = grid.nodes, grid.dt
    alpha = np.concatenate([[0.0], np.cumsum(np.full(grid.n_steps, -dt))])
    quadrature = float(np.sum(np.exp(2.0 * (alpha[-1] - alpha[:-1]))) * dt)

    terminal = []
    for i in range(10_000):
        w = sample_wiener(grid, GaussianStream(21, i))
        terminal.append(exact_linear_additive(-1.0, 1.0, 0.0, w).values[-1, 0])
    var = float(np.var(terminal))
    assert var == pytest.approx(quadrature, rel=0.03)
    assert var == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=0.03)


def test_multiplicative_solution_rejects_nonpositive_start():
    path = sample_wiener(TimeGrid(0.0, 1.0, 10), GaussianStream(22))
    with pytest.raises(ValueError):
        exact_linear_multiplicative(0.0, 1.0, 0.0, path)
    with pytest.raises(ValueError):
        exact_linear_multiplicative(0.0, 1.0, -1.0, path)


def test_driftless_multiplicative_solution_is_the_exponential_martingale():
    path = sample_wiener(TimeGrid(0.0, 2.0, 128), GaussianStream(23))
    sol = exact_linear_multiplicative(0.0, 1.0, 1.0, path)
    w, t = path.values[:, 0], path.grid.nodes
    assert sol.values[:, 0] == pytest.approx(np.exp(w - 0.5 * t), rel=1e-12, abs=1e-12)


def test_exponential_martingale_has_unit_mean_over_1e5_samples():
    # With unit time steps the one-step growth factors exp(-1/2 + dW) are
    # i.i.d. copies of X_1 started at 1; 2000 paths x 50 steps = 1e5 samples.
    grid = TimeGrid(0.0, 50.0, 50)
    ratios = []
    for i in range(2000):
        path = sample_wiener(grid, GaussianStream(24, i))
        sol = exact_linear_multiplicative(0.0, 1.0, 1.0, path)
        ratios.append(sol.values[1:, 0] / sol.values[:-1, 0])
    mean = float(np.concatenate(ratios).mean())
    assert 0.95 <= mean <= 1.05


# ---------------------------------------------------------------------------
# Sine fixture
# ---------------------------------------------------------------------------

def test_sine_fixture_is_sin_w_before_crossing_and_frozen_after():
    path = sample_wiener(TimeGrid(0.0, 4.0, 4000), GaussianStream(25))
    fixt = sine_fixture(path)
    w = path.values[:, 0]
    x = fixt.values[:, 0]
    assert np.all(np.abs(x) <= 1.0)
    crossed = np.flatnonzero(np.abs(w) >= math.pi / 2)
    assert crossed.size > 0  # |W| typically exceeds pi/2 well before T=4
    first = crossed[0]
    assert x[:first] == pytest.approx(np.sin(w[:first]))
    assert np.all(x[first:] == math.copysign(1.0, w[first]))


def test_sine_fixture_agrees_with_euler_maruyama_before_crossing():
    model = SdeModel.scalar(lambda x: -0.5 * x,
                            lambda x: np.sqrt(np.clip(1.0 - x**2, 0.0, None)))
    errs = {}
    for n_steps in (200, 800):
        per_path = []
        for i in range(64):
            w = sample_wiener(TimeGrid(0.0, 0.5, n_steps), GaussianStream(26, i))
            fixt = sine_fixture(w)
            em = euler_maruyama(model, 0.0, w.grid, wiener=w)
            inside = np.abs(w.values[:, 0]) < math.pi / 2
            stop = int(np.argmin(inside)) if not inside.all() else len(inside)
            per_path.append(np.max(np.abs(fixt.values[:stop, 0] - em.values[:stop, 0])))
        errs[n_steps] = float(np.sqrt(np.mean(np.square(per_path))))
    assert errs[800] < 0.7 * errs[200]
