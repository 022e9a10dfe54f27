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
    euler_maruyama_ensemble,
    sample_wiener,
)
from sdelab import sde
from sdelab.expr import parse_expression
from sdelab.sde import _WINDOW_ROW_STEPS
from windows import collect_windows


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
    path = collect_windows(sample_wiener(grid, GaussianStream(1), dim=3))
    assert path.shape == (101, 3)
    assert np.all(path[0] == 0.0)


def test_wiener_path_matches_cumulated_normal_increments():
    for dim, n_steps in [(1, 100_000), (3, 1000), (40, 500)]:
        grid = TimeGrid(0.0, 1.3, n_steps)
        incr = GaussianStream(11).generator().normal(
            0.0, math.sqrt(grid.dt), size=(n_steps, dim))
        expected = np.vstack([np.zeros((1, dim)), np.cumsum(incr, axis=0)])
        path = collect_windows(sample_wiener(grid, GaussianStream(11), dim=dim))
        assert np.array_equal(path, expected)


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
    starts = [j for j, _ in sde._em_windows(SdeModel.brownian(), 0.0, grid, dim,
                                            GaussianStream(33))]
    assert starts == list(range(0, n_steps, window))
    steps = GaussianStream(33).generator().standard_normal((n_steps, dim))
    expected = np.vstack([np.zeros((1, dim)), np.cumsum(steps * math.sqrt(grid.dt), axis=0)])
    path = collect_windows(sample_wiener(grid, GaussianStream(33), dim=dim))
    assert np.array_equal(path, expected)


def test_the_samplers_check_their_sizes_when_called():
    # both return an iterator of windows; a size error comes before the first
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        sample_wiener(grid, GaussianStream(1), dim=0)
    with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
        euler_maruyama_ensemble(SdeModel.brownian(), 0.0, grid, 0, GaussianStream(1))


def test_wiener_increments_have_mean_zero_and_variance_dt():
    # many independent components on one grid = a cheap ensemble
    grid = TimeGrid(0.0, 1.0, 16)
    path = collect_windows(sample_wiener(grid, GaussianStream(2024), dim=20_000))
    incr = np.diff(path, axis=0)
    n = incr.size
    se_mean = math.sqrt(grid.dt / n)
    assert abs(float(incr.mean())) < 5 * se_mean
    se_var = grid.dt * math.sqrt(2.0 / n)
    assert abs(float(incr.var()) - grid.dt) < 5 * se_var


def test_wiener_covariance_at_half_and_full_time_is_one_half():
    grid = TimeGrid(0.0, 1.0, 16)
    path = collect_windows(sample_wiener(grid, GaussianStream(3), dim=20_000))
    w_half, w_one = path[8], path[16]
    cov = float(np.mean(w_half * w_one))
    assert cov == pytest.approx(0.5, abs=0.02)


def test_rescaled_path_c_w_of_t_over_c_squared_passes_increment_checks():
    c = 3.0
    grid = TimeGrid(0.0, 1.0, 32)
    path = collect_windows(sample_wiener(grid, GaussianStream(4), dim=10_000))
    scaled_grid = TimeGrid(0.0, c**2 * 1.0, 32)
    incr = np.diff(c * path, axis=0)
    se_var = scaled_grid.dt * math.sqrt(2.0 / incr.size)
    assert abs(float(incr.var()) - scaled_grid.dt) < 5 * se_var
    assert abs(float(incr.mean())) < 5 * math.sqrt(scaled_grid.dt / incr.size)


# ---------------------------------------------------------------------------
# Euler-Maruyama
# ---------------------------------------------------------------------------

def test_euler_maruyama_with_zero_dispersion_is_explicit_euler_exactly():
    model = SdeModel.scalar(lambda x: np.sin(x), lambda x: 0.0)
    grid = TimeGrid(0.0, 2.0, 50)
    path = collect_windows(euler_maruyama_ensemble(model, 0.7, grid, 1, GaussianStream(15)),
                           node_axis=1)
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
    number = collect_windows(euler_maruyama_ensemble(
        SdeModel.scalar(lambda x: x - x**3, 0.7), **kwargs))
    callable_ = collect_windows(euler_maruyama_ensemble(
        SdeModel.scalar(lambda x: x - x**3, lambda x: 0.7), **kwargs))
    assert np.array_equal(number, callable_)


def test_euler_maruyama_blow_up_carries_the_step_index():
    model = SdeModel.scalar(lambda x: x**3, lambda x: 0.0)
    grid = TimeGrid(0.0, 5.0, 50)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as excinfo:
            collect_windows(euler_maruyama_ensemble(model, 10.0, grid, 1, GaussianStream(17)))
    assert 1 <= excinfo.value.step_index <= 50
    assert excinfo.value.time == pytest.approx(grid.nodes[excinfo.value.step_index])


def test_ensemble_matches_single_path_layout_and_is_reproducible():
    model = SdeModel.brownian(2)
    grid = TimeGrid(0.0, 1.0, 20)
    a = collect_windows(euler_maruyama_ensemble(model, [0.0, 0.0], grid, 50,
                                                GaussianStream(19)), node_axis=1)
    b = collect_windows(euler_maruyama_ensemble(model, [0.0, 0.0], grid, 50,
                                                GaussianStream(19)), node_axis=1)
    assert a.shape == (50, 21, 2)
    assert np.array_equal(a, b)
    assert np.all(a[:, 0] == 0.0)


def test_ensemble_noise_layout_is_pinned():
    # Golden terminal rows: one (n_paths, dim_noise) draw per step fixes the
    # manifest SHA-256s of the ensemble experiments.  Brownian steps need no
    # libm call, so the values are portable.
    paths = collect_windows(euler_maruyama_ensemble(
        SdeModel.brownian(2), [0.0, 1.0], TimeGrid(0.0, 1.0, 8), 4, GaussianStream(7)),
        node_axis=1)
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
    paths = collect_windows(euler_maruyama_ensemble(
        model, x0, stream=GaussianStream(31), **WINDOWED), node_axis=1)
    expected = reference_ensemble(model, x0, stream=GaussianStream(31), **WINDOWED)
    assert np.array_equal(paths, expected)


def test_blow_up_inside_a_window_is_raised_at_the_per_step_loop_step():
    model = SdeModel.scalar(lambda x: x**3, 0.1)
    n_paths, grid = WINDOWED["n_paths"], TimeGrid(0.0, 1.0, 100)
    window = _WINDOW_ROW_STEPS // n_paths
    raised = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (
            lambda: collect_windows(euler_maruyama_ensemble(
                model, 2.5, grid, n_paths, GaussianStream(32))),
            lambda: reference_ensemble(model, 2.5, grid, n_paths, GaussianStream(32)),
            lambda: collect_windows(euler_maruyama_ensemble(
                model, 2.5, grid, 1, GaussianStream(32))),
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


# ---------------------------------------------------------------------------
# The float loop of narrow windows
# ---------------------------------------------------------------------------

def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit, but with any NaN equal to any NaN: IEEE 754 leaves
    open which NaN operand a result carries, so its sign may differ."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _both_loops(monkeypatch, model, x, dt, dw):
    """``_em_path`` as it runs, then with every window on the array loop."""
    with np.errstate(all="ignore"):
        fast = sde._em_path(model, x, dt, dw)
        with monkeypatch.context() as m:
            m.setattr(sde, "_SCALAR_ROWS", 0)
            slow = sde._em_path(model, x, dt, dw)
    return fast, slow


def _window(rows: int, steps: int = 300, seed: int = 0, start=(-1.5, 1.5)):
    rng = np.random.Generator(np.random.Philox(seed))
    return (rng.uniform(*start, (rows, 1)),
            rng.normal(0.0, 0.05, (steps, rows, 2)))  # two noise columns


FLOAT_DRIFTS = ["x - x^3", "-x^5/5 + 2*x - 1/(3 + x*x)", "x^8 - x^6 + x^4 - (x - 1)^7"]


@pytest.mark.parametrize("source", FLOAT_DRIFTS)
def test_the_float_loop_has_the_bits_of_the_array_loop(monkeypatch, source):
    drift = parse_expression(source)
    assert drift._on_floats is not None
    model = SdeModel(1, 2, drift, [[0.7, -0.3]])
    for rows in range(1, sde._SCALAR_ROWS + 2):
        x, dw = _window(rows, seed=rows)
        fast, slow = _both_loops(monkeypatch, model, x, 4e-3, dw)
        assert _same_bits(fast, slow)


def test_the_float_loop_steps_the_zero_drift_bit_for_bit(monkeypatch):
    model = SdeModel(1, 2, sde._zero_drift, [[1.0, 0.5]])
    x, dw = _window(5, seed=3)
    fast, slow = _both_loops(monkeypatch, model, x, 4e-3, dw)
    assert _same_bits(fast, slow)


def test_a_division_by_zero_redoes_the_window_as_arrays(monkeypatch):
    model = SdeModel(1, 2, parse_expression("1/x"), [[0.0, 0.0]])
    x, dw = _window(3, steps=4)
    x[1] = 0.0
    fast, slow = _both_loops(monkeypatch, model, x, 4e-3, dw)
    assert np.isinf(fast[1, 1, 0])
    assert _same_bits(fast, slow)


def test_a_drift_that_calls_numpy_takes_the_array_loop(monkeypatch):
    drift = parse_expression("x^2 - 1")
    assert drift._on_floats is None
    model = SdeModel(1, 2, drift, [[0.7, -0.3]])
    x, dw = _window(4)
    fast, slow = _both_loops(monkeypatch, model, x, 4e-3, dw)
    assert _same_bits(fast, slow)


def test_a_window_that_blows_up_has_the_bits_of_the_array_loop(monkeypatch):
    # from far out the explicit step overshoots until x - x^3 overflows to
    # nan; the rows that start near the wells stay finite
    model = SdeModel(1, 2, parse_expression("x - x^3"), [[0.1, 0.1]])
    x, dw = _window(6, steps=60, start=(2.0, 9.0))
    fast, slow = _both_loops(monkeypatch, model, x, 0.05, dw)
    assert np.isnan(fast[-1]).any() and np.isfinite(fast[-1]).any()
    assert _same_bits(fast, slow)


def _disperse_every_step(model, x, dt, dw):
    """The array step with ``g dW`` taken by ``_disperse``, as for any constant ``g``."""
    path = [x]
    for noise in dw:
        if model.drift is not sde._zero_drift:
            x = x + model.drift(x) * dt
        x = x + sde._disperse(model.constant_dispersion, noise)
        path.append(x)
    return np.array(path)


@pytest.mark.parametrize("model", [
    SdeModel.brownian(1), SdeModel.brownian(2),
    SdeModel(1, 1, parse_expression("-2*x"), [[1.0]]),  # OU, sigma = 1
], ids=["brownian-1", "brownian-2", "ou"])
@pytest.mark.parametrize("rows", [sde._SCALAR_ROWS, sde._SCALAR_ROWS + 1])
def test_an_identity_dispersion_adds_the_noise_itself(model, rows):
    # g = I skips ``_disperse``; on the float loop (at most 16 rows of a 1-D state)
    # and on the array loop the states keep the bits of g dW
    assert model.identity_dispersion
    assert not SdeModel(1, 2, sde._zero_drift, [[1.0, 0.0]]).identity_dispersion
    rng = np.random.Generator(np.random.Philox(rows))
    x = rng.uniform(-1.0, 1.0, (rows, model.dim_state))
    dw = rng.normal(0.0, 0.05, (50, rows, model.dim_noise))
    np.testing.assert_array_equal(sde._em_path(model, x, 4e-3, dw),
                                  _disperse_every_step(model, x, 4e-3, dw))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 4, sde._SCALAR_ROWS])
@pytest.mark.parametrize("identity", [True, False], ids=["identity", "dense"])
def test_a_narrow_zero_drift_window_is_the_per_step_sum(dim, rows, identity):
    # one cumsum down the step axis adds g dW in the per-step loop's order
    rng = np.random.Generator(np.random.Philox(10 * dim + rows))
    g = np.eye(dim) if identity else np.tril(rng.uniform(0.2, 1.5, (dim, dim)))
    model = SdeModel(dim, dim, sde._zero_drift, g)
    assert model.identity_dispersion == identity
    x = rng.uniform(-1.0, 1.0, (rows, dim))
    dw = rng.normal(0.0, 0.05, (50, rows, dim))
    np.testing.assert_array_equal(sde._em_path(model, x, 4e-3, dw),
                                  _disperse_every_step(model, x, 4e-3, dw))


def test_mc_exit_is_the_same_on_both_loops(monkeypatch):
    from sdelab.firstexit import Domain, mc_exit
    from sdelab.largedev import _drift

    eps = 0.5  # eyring-kramers' model, at the noise level its benchmark runs
    model = SdeModel(1, 1, _drift(parse_expression("x^4/4 - x^2/2")),
                     [[math.sqrt(eps)]])
    runs = []
    for cap in (sde._SCALAR_ROWS, 0):
        monkeypatch.setattr(sde, "_SCALAR_ROWS", cap)
        runs.append(mc_exit(model, -1.0, Domain.interval(-4.0, 0.5), h=4e-3,
                            n_paths=40, stream=GaussianStream(5), t_max=1e4))
    fast, slow = (dataclasses.astuple(stats) for stats in runs)
    assert len(fast) == len(slow) and runs[0].exit_times.size == 40
    for a, b in zip(fast, slow):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
