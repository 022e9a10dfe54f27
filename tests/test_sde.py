"""Tests for the sample-path core: grids, streams, Wiener paths, integrators."""

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
    SdeModel,
    TimeGrid,
    WienerPath,
    euler_maruyama_ensemble,
    sample_wiener,
)
from sdelab import sde
from sdelab.sde import _WINDOW_ROW_STEPS


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
    (40, 10, 13), # windows of 4 steps over 10 columns, summed row by row
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
    incr = np.diff(path.values, axis=0)
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
    incr = np.diff(scaled.values, axis=0)
    se_var = scaled_grid.dt * math.sqrt(2.0 / incr.size)
    assert abs(float(incr.var()) - scaled_grid.dt) < 5 * se_var
    assert abs(float(incr.mean())) < 5 * math.sqrt(scaled_grid.dt / incr.size)


# ---------------------------------------------------------------------------
# Euler-Maruyama
# ---------------------------------------------------------------------------

def test_euler_maruyama_with_zero_dispersion_is_explicit_euler_exactly():
    model = SdeModel.scalar(lambda x: np.sin(x), lambda x: 0.0)
    grid = TimeGrid(0.0, 2.0, 50)
    path = euler_maruyama_ensemble(model, 0.7, grid, 1, GaussianStream(15))
    x = 0.7
    for k in range(grid.n_steps):
        x = x + math.sin(x) * grid.dt
        assert path[0, k + 1, 0] == x  # bit-identical to explicit Euler


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


def test_euler_maruyama_blow_up_carries_the_step_index():
    model = SdeModel.scalar(lambda x: x**3, lambda x: 0.0)
    grid = TimeGrid(0.0, 5.0, 50)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as excinfo:
            euler_maruyama_ensemble(model, 10.0, grid, 1, GaussianStream(17))
    assert 1 <= excinfo.value.step_index <= 50
    assert excinfo.value.time == pytest.approx(grid.nodes[excinfo.value.step_index])


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
    raised = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (
            lambda: euler_maruyama_ensemble(model, 2.5, grid, n_paths, GaussianStream(32)),
            lambda: reference_ensemble(model, 2.5, grid, n_paths, GaussianStream(32)),
            lambda: euler_maruyama_ensemble(model, 2.5, grid, 1, GaussianStream(32)),
            lambda: reference_ensemble(model, 2.5, grid, 1, GaussianStream(32)),
        ):
            with pytest.raises(BlowUpError) as excinfo:
                run()
            raised.append((excinfo.value.step_index, excinfo.value.time))
    assert raised[0] == raised[1] and raised[2] == raised[3]
    # the ensemble blows up on neither the first nor the last step of a
    # window, the single path inside its one window of 100 steps
    assert 0 < (raised[0][0] - 1) % window < window - 1
    assert 1 < raised[2][0] < grid.n_steps
