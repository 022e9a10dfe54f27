"""Tests for rate functionals, action minimization and metastable exit laws."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab.expr import Expression, parse_expression
from sdelab.firstexit import Domain, mc_exit
from sdelab.largedev import (
    ActionPath,
    _drift,
    _residuals,
    action_gradient,
    arrhenius_check,
    eyring_kramers_time,
    fw_rate,
    minimize_action,
    ou_exit_rate,
    quasipotential,
)
from sdelab.sde import GaussianStream, SdeModel, TimeGrid

# e/(2 sinh 1): cost for an Ornstein-Uhlenbeck path to reach 1 by time 1
OU_LEVEL_COST = 1.1565176427496657


def ou_model() -> SdeModel:
    return SdeModel.scalar(lambda x: -x, lambda x: 1.0)


def double_well_model() -> SdeModel:
    """Unit-noise gradient flow of U(x) = x^4/4 - x^2/2."""
    return SdeModel.scalar(lambda x: x - x**3, lambda x: 1.0)


def double_well_potential(x):
    return 0.25 * (x * x - 1.0) ** 2


class TestActionPath:
    def test_scalar_values_gain_state_axis(self):
        grid = TimeGrid(0.0, 1.0, 4)
        path = ActionPath(grid, np.linspace(0.0, 1.0, 5))
        assert path.values.shape == (5, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="per node"):
            ActionPath(TimeGrid(0.0, 1.0, 4), np.zeros(3))

    def test_non_finite_rejected(self):
        vals = np.zeros(5)
        vals[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ActionPath(TimeGrid(0.0, 1.0, 4), vals)

    def test_line_hits_both_endpoints(self):
        path = ActionPath.line([1.0, -1.0], [3.0, 0.0], TimeGrid(0.0, 2.0, 10))
        assert path.values[0] == pytest.approx([1.0, -1.0])
        assert path.values[-1] == pytest.approx([3.0, 0.0])
        assert path.values[5] == pytest.approx([2.0, -0.5])


def _ode_solution_path(model: SdeModel, x0: float, T: float, n: int) -> ActionPath:
    grid = TimeGrid(0.0, T, n)
    vals = np.empty(grid.n_nodes)
    vals[0] = x0
    for k in range(n):
        p = vals[k]
        k1 = model.drift(p)
        k2 = model.drift(p + 0.5 * grid.dt * k1)
        k3 = model.drift(p + 0.5 * grid.dt * k2)
        k4 = model.drift(p + grid.dt * k3)
        vals[k + 1] = p + grid.dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return ActionPath(grid, vals)


class TestFwRate:
    def test_flow_line_costs_almost_nothing(self):
        rate = fw_rate(ou_model(), _ode_solution_path(ou_model(), 1.0, 1.0, 1000))
        assert rate < 1e-4

    def test_flow_line_cost_vanishes_at_first_order(self):
        rates = [fw_rate(ou_model(), _ode_solution_path(ou_model(), 1.0, 1.0, n))
                 for n in (250, 500, 1000)]
        orders = np.log2(np.array(rates[:-1]) / rates[1:])
        assert np.all(orders >= 1.0)

    def test_ou_optimal_profile_matches_closed_form(self):
        grid = TimeGrid(0.0, 1.0, 4000)
        profile = np.sinh(grid.nodes) / math.sinh(1.0)
        rate = fw_rate(ou_model(), ActionPath(grid, profile))
        assert rate == pytest.approx(OU_LEVEL_COST, abs=1e-3)

    def test_matches_schilder_for_driftless_unit_noise(self):
        grid = TimeGrid(0.0, 1.0, 40)
        vals = np.concatenate([[0.0], GaussianStream(5).generator().normal(size=40)])
        bm = SdeModel.scalar(lambda x: 0.0 * x, lambda x: 1.0)
        schilder = np.sum(np.diff(vals) ** 2) / (2.0 * grid.dt)
        assert fw_rate(bm, ActionPath(grid, vals)) == pytest.approx(schilder, rel=1e-12)

    @pytest.mark.parametrize("path, expected", [
        (ActionPath(TimeGrid(0.0, 1.0, 10), np.zeros(11)), 0.0),
        (ActionPath.line([0.0], [3.0], TimeGrid(0.0, 2.0, 64)), 9.0 / 4.0),
        (ActionPath.line([0.0, 0.0], [1.0, 2.0], TimeGrid(0.0, 1.0, 32)), 5.0 / 2.0),
        (ActionPath.line([0.0], [1.0], TimeGrid(0.0, 2.0, 50)), 0.25),
    ], ids=["zero-path", "line", "plane-line", "level-crossing-line"])
    def test_brownian_action_is_schilders(self, path, expected):
        # Schilder's functional |y|^2 / 2T of a line from 0 to y over [0, T]
        rate = fw_rate(SdeModel.brownian(path.values.shape[1]), path)
        assert rate == pytest.approx(expected, rel=1e-12, abs=0.0)

    @given(st.floats(-4.0, 4.0), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_brownian_action_scales_quadratically(self, c, seed):
        grid = TimeGrid(0.0, 1.0, 20)
        base = np.concatenate(
            [[0.0], GaussianStream(seed).generator().normal(size=20)])
        bm = SdeModel.brownian(1)
        one = fw_rate(bm, ActionPath(grid, base))
        scaled = fw_rate(bm, ActionPath(grid, c * base))
        assert scaled == pytest.approx(c * c * one, rel=1e-9, abs=1e-12)

    def test_additive_over_time_splits(self):
        gen = GaussianStream(11).generator()
        vals = np.cumsum(gen.normal(0.0, 0.2, size=31)) + 0.5
        full = fw_rate(ou_model(), ActionPath(TimeGrid(0.0, 1.0, 30), vals))
        left = fw_rate(ou_model(), ActionPath(TimeGrid(0.0, 0.4, 12), vals[:13]))
        right = fw_rate(ou_model(), ActionPath(TimeGrid(0.4, 1.0, 18), vals[12:]))
        assert full == pytest.approx(left + right, abs=1e-12)

    @given(st.floats(-2.0, 2.0), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_gradient_lower_bound(self, y, a1, a2):
        # any path from the bottom of the well costs at least twice the
        # potential increment, whatever wiggles are added on top
        grid = TimeGrid(0.0, 2.0, 2000)
        s = grid.nodes / grid.t_end
        vals = (-1.0 + s * (y + 1.0) + a1 * np.sin(np.pi * s)
                + a2 * np.sin(2.0 * np.pi * s))
        rate = fw_rate(double_well_model(), ActionPath(grid, vals))
        bound = 2.0 * (double_well_potential(y) - double_well_potential(-1.0))
        assert rate >= bound - 1e-6

    def test_singular_diffusion_rejected(self):
        pinched = SdeModel.scalar(lambda x: 0.0 * x, lambda x: x)
        path = ActionPath.line([-1.0], [1.0], TimeGrid(0.0, 1.0, 10))
        with pytest.raises(ValueError, match="singular"):
            fw_rate(pinched, path)


class TestMinimizeAction:
    def test_free_particle_line_is_optimal(self):
        free = SdeModel.scalar(lambda x: 0.0 * x, lambda x: 1.0)
        path = minimize_action(free, 0.0, 1.0, 4.0, 100)
        assert path.converged
        assert path.action == pytest.approx(0.125, abs=1e-4)
        np.testing.assert_allclose(
            path.values[:, 0], path.grid.nodes / 4.0, atol=1e-8)

    def test_ou_level_crossing_action_and_profile(self):
        path = minimize_action(ou_model(), 0.0, 1.0, 1.0, 2000)
        assert path.converged
        assert path.action == pytest.approx(OU_LEVEL_COST, abs=1e-3)
        profile = np.sinh(path.grid.nodes) / math.sinh(1.0)
        assert np.max(np.abs(path.values[:, 0] - profile)) < 1e-2

    def test_accepted_actions_never_increase(self):
        path = minimize_action(double_well_model(), -1.0, 0.5, 2.0, 300)
        assert path.history is not None
        assert np.all(np.diff(path.history) <= 1e-12)

    def test_iteration_budget_flags_best_iterate(self):
        path = minimize_action(ou_model(), 0.0, 1.0, 1.0, 400, max_iter=1)
        assert not path.converged
        line = ActionPath.line([0.0], [1.0], path.grid)
        assert path.action <= fw_rate(ou_model(), line)

    def test_gradient_matches_finite_differences(self):
        model = double_well_model()
        grid = TimeGrid(0.0, 1.0, 30)
        for seed in (3, 17):
            vals = np.cumsum(
                GaussianStream(seed).generator().normal(0.0, 0.2, size=31)) - 0.5
            grad = action_gradient(model, ActionPath(grid, vals))
            fd = np.zeros_like(grad)
            for j in range(1, 30):
                bumped = vals.copy()
                bumped[j] += 1e-6
                up = fw_rate(model, ActionPath(grid, bumped))
                bumped[j] -= 2e-6
                down = fw_rate(model, ActionPath(grid, bumped))
                fd[j - 1, 0] = (up - down) / 2e-6
            assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_returned_minimizer_is_stationary(self):
        path = minimize_action(ou_model(), 0.0, 1.0, 1.0, 500, tol=1e-8)
        grad = action_gradient(ou_model(), path)
        assert np.max(np.abs(grad)) < 1e-8

    def test_warm_start_shape_checked(self):
        with pytest.raises(ValueError, match="grid"):
            minimize_action(ou_model(), 0.0, 1.0, 1.0, 100,
                            init_values=np.zeros(7))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            minimize_action(ou_model(), 0.0, 1.0, -1.0, 100)


def constant_and_callable(g):
    """One model twice: ``g`` as a constant dispersion, and as a callable
    returning a fresh ``(..., n, k)`` array of it."""
    g = np.array(g, dtype=float)
    drift = lambda x: x - x**3 + 0.25 * x[..., ::-1]
    n, k = g.shape
    at_states = lambda x: np.ones(np.shape(x)[:-1] + (1, 1)) * g
    return SdeModel(n, k, drift, g), SdeModel(n, k, drift, at_states)


class TestConstantDiffusion:
    @pytest.mark.parametrize("g", [[[0.7]], [[0.9, 0.2], [-0.3, 0.6]]], ids=["dim1", "dim2"])
    def test_constant_dispersion_gives_the_bits_of_a_callable(self, g):
        constant, varying = constant_and_callable(g)
        dim = len(g)
        grid = TimeGrid(0.0, 1.5, 120)
        values = np.cumsum(GaussianStream(5).generator().normal(0.0, 0.1, size=(121, dim)),
                           axis=0)
        path = ActionPath(grid, values)
        for got, want in zip(_residuals(constant, values, grid.dt),
                             _residuals(varying, values, grid.dt)):
            assert got.tobytes() == want.tobytes()
        assert fw_rate(constant, path) == fw_rate(varying, path)
        assert action_gradient(constant, path).tobytes() == \
            action_gradient(varying, path).tobytes()
        x0, y = -np.ones(dim), np.full(dim, 0.5)
        fast = minimize_action(constant, x0, y, 1.5, 120, max_iter=60)
        slow = minimize_action(varying, x0, y, 1.5, 120, max_iter=60)
        assert fast.values.tobytes() == slow.values.tobytes()
        assert (fast.action, fast.history) == (slow.action, slow.history)

    @pytest.mark.parametrize("g", [[[0.0]], [[1.0], [0.5]]], ids=["zero", "rank1"])
    def test_singular_constant_diffusion_rejected(self, g):
        constant, _ = constant_and_callable(g)
        path = ActionPath.line(np.zeros(len(g)), np.ones(len(g)), TimeGrid(0.0, 1.0, 10))
        with pytest.raises(ValueError, match="singular diffusion matrix along the path"):
            fw_rate(constant, path)
        with pytest.raises(ValueError, match="singular diffusion matrix along the path"):
            action_gradient(constant, path)


class TestQuasipotential:
    def test_double_well_barrier(self):
        result = quasipotential(double_well_model(), -1.0, 0.0,
                                [1.0, 2.0, 3.0, 5.0], n_steps=400)
        assert result.converged
        assert result.value == pytest.approx(0.5, rel=0.02)
        assert result.minimizing_t == 5.0
        assert result.t_values == (1.0, 2.0, 3.0, 5.0)
        assert len(result.action_values) == 4
        # the envelope decreases toward the infimum as horizons grow
        assert np.all(np.diff(result.action_values) < 0)

    def test_longer_horizons_only_improve(self):
        short = quasipotential(double_well_model(), -1.0, 0.0, [1.0, 2.0],
                               n_steps=200)
        longer = quasipotential(double_well_model(), -1.0, 0.0,
                                [1.0, 2.0, 4.0], n_steps=200)
        assert longer.value <= short.value

    def test_stalled_horizon_is_flagged_not_hidden(self):
        # near the saddle the minimization slows down; the value is still
        # good but the convergence flag must report the stall honestly
        result = quasipotential(double_well_model(), -1.0, 0.0, [8.0],
                                n_steps=400, max_iter=50)
        assert not result.converged
        assert result.value == pytest.approx(0.5, rel=0.02)

    def test_target_at_equilibrium_costs_nothing(self):
        result = quasipotential(double_well_model(), -1.0, -1.0, [1.0, 2.0])
        assert result.value == 0.0
        assert result.converged

    def test_non_equilibrium_start_rejected(self):
        with pytest.raises(ValueError, match="equilibrium"):
            quasipotential(double_well_model(), 0.5, 0.0, [1.0])

    def test_empty_horizon_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            quasipotential(double_well_model(), -1.0, 0.0, [])


class TestOuExitRate:
    def test_unit_level_unit_deadline(self):
        assert ou_exit_rate(0.0, 1.0, 1.0) == pytest.approx(OU_LEVEL_COST,
                                                            rel=1e-12)

    def test_long_deadline_reaches_the_limit(self):
        assert ou_exit_rate(0.0, 1.0, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_in_the_deadline(self):
        costs = [ou_exit_rate(0.0, 1.0, t) for t in np.linspace(0.1, 10.0, 40)]
        assert np.all(np.diff(costs) < 0)

    def test_interior_start_has_an_optimal_deadline(self):
        # from x0 > 0 the cheapest deadline is log(h/x0), where the cost
        # bottoms out at h^2 - x0^2 before climbing back to the limit
        t_best = math.log(1.0 / 0.2)
        assert ou_exit_rate(0.2, 1.0, t_best) == pytest.approx(0.96, rel=1e-12)
        nearby = [ou_exit_rate(0.2, 1.0, t) for t in (t_best - 0.3, t_best + 0.3)]
        assert min(nearby) > 0.96

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="x0"):
            ou_exit_rate(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="x0"):
            ou_exit_rate(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            ou_exit_rate(0.0, 1.0, 0.0)


@pytest.fixture(scope="module")
def quadratic_fit():
    """Exit-time fit for the quadratic well on (-1, 1) at easy noise levels."""
    return arrhenius_check(lambda x: 0.5 * x * x, [0.5, 0.35, 0.25],
                           Domain.interval(-1.0, 1.0), n_paths=250,
                           h=5e-3, stream=GaussianStream(2024), t_max=5e3)


class TestArrheniusCheck:
    def test_barrier_from_the_potential(self, quadratic_fit):
        assert quadratic_fit.v_bar == 1.0

    def test_scaled_log_times_increase_toward_the_barrier(self, quadratic_fit):
        assert quadratic_fit.monotone
        assert np.all(np.diff(quadratic_fit.eps_log_mean_tau) > 0)
        assert np.all(quadratic_fit.eps_log_mean_tau < quadratic_fit.v_bar)

    def test_intercept_near_the_barrier(self, quadratic_fit):
        assert quadratic_fit.intercept == pytest.approx(1.0, rel=0.15)

    def test_noise_levels_sorted_with_errors(self, quadratic_fit):
        assert np.all(np.diff(quadratic_fit.eps) < 0)
        assert np.all(quadratic_fit.stderr > 0)

    def test_too_few_noise_levels_rejected(self):
        with pytest.raises(ValueError, match="three"):
            arrhenius_check(lambda x: 0.5 * x * x, [0.25],
                            Domain.interval(-1.0, 1.0),
                            stream=GaussianStream(1), t_max=1.0)

    def test_non_positive_noise_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            arrhenius_check(lambda x: 0.5 * x * x, [0.5, 0.25, -0.1],
                            Domain.interval(-1.0, 1.0),
                            stream=GaussianStream(1), t_max=1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            arrhenius_check(lambda x: 0.5 * x * x, [0.5, math.nan, 0.3],
                            Domain.interval(-1.0, 1.0),
                            stream=GaussianStream(1), t_max=1.0)

    def test_non_interval_domain_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            arrhenius_check(lambda x: 0.5 * x * x, [0.5, 0.35, 0.25],
                            Domain.ball(1.0, dim=1),
                            stream=GaussianStream(1), t_max=1.0)

    def test_censored_runs_rejected(self):
        with pytest.raises(RuntimeError, match="censored"):
            arrhenius_check(lambda x: 0.5 * x * x, [0.25, 0.2, 1 / 6],
                            Domain.interval(-1.0, 1.0), n_paths=64,
                            h=5e-3, stream=GaussianStream(7), t_max=1.0)


class TestEyringKramers:
    def test_double_well_prefactor_and_exponent(self):
        for eps in (0.5, 0.15):
            expected = 2.0 * math.pi / math.sqrt(2.0) * math.exp(0.5 / eps)
            value = eyring_kramers_time(double_well_potential, -1.0, 0.0, eps)
            assert value == pytest.approx(expected, rel=1e-6)

    def test_expression_hessians_are_exact(self):
        U = parse_expression("x^4/4 - x^2/2")
        for eps in (0.5, 0.15):
            expected = math.pi * math.sqrt(2.0) * math.exp(0.5 / eps)
            assert eyring_kramers_time(U, -1.0, 0.0, eps) == \
                pytest.approx(expected, rel=1e-12)

    def test_variable_exponent_falls_back_to_central_differences(self):
        # 2^x has no symbolic derivative in the grammar
        U = parse_expression("x^4/4 - x^2/2 + 2^x/1000")
        c = math.log(2.0) ** 2 / 1000.0
        hx, hz = 2.0 + 0.5 * c, -1.0 + c
        expected = (2.0 * math.pi / abs(hz)) * math.sqrt(abs(hz) / hx) \
            * math.exp(2.0 * (U(0.0) - U(-1.0)) / 0.2)
        assert eyring_kramers_time(U, -1.0, 0.0, 0.2) == \
            pytest.approx(expected, rel=1e-6)

    # -U' on 4096 Philox(7) draws from [-2, 2] as one column, recorded from
    # the negated symbolic or central-difference derivative that ``_drift``
    # replaced: (SHA-256 of the values, value at 1.7), compared with ``==``;
    # the double well's drift, now ``x-x^3``, is recorded as ``-(x^3-x)``
    # with x^3 as (x*x)*x
    DRIFTS = {
        "x^4/4 - x^2/2": (
            "ffa665c10f01bb2fea08ed0fb4254a521ccea1da755acfb1ef64af5e67b7d7f3",
            -3.212999999999999, Expression),
        "x^2/2 + 2^x/1000": (
            "b03be88cd1f27b1c553a60f4e03a2b5db775e421071f826cb877ce9be7fcaa4b",
            -1.7022520418463747, None),
    }

    @pytest.mark.parametrize("source", sorted(DRIFTS))
    def test_drift_is_the_negated_derivative_bit_for_bit(self, source):
        digest, at_1_7, kind = self.DRIFTS[source]
        drift = _drift(parse_expression(source))
        assert isinstance(drift, Expression) == (kind is Expression)
        xs = np.random.Generator(np.random.Philox(7)).uniform(-2.0, 2.0, 4096)
        out = drift(xs[:, np.newaxis])
        assert out.shape == (4096, 1)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest
        assert drift(np.array([1.7]))[0] == at_1_7

    def test_scalar_potentials_are_called_with_scalars(self):
        # U(*x): math.cos rejects arrays, so the fallback must not pass one
        value = eyring_kramers_time(lambda x: -math.cos(x), 0.0, math.pi, 0.5)
        assert value == pytest.approx(2.0 * math.pi * math.exp(8.0), rel=1e-6)

    def test_mirror_wells_take_equal_time(self):
        left = eyring_kramers_time(double_well_potential, -1.0, 0.0, 0.2)
        right = eyring_kramers_time(double_well_potential, 1.0, 0.0, 0.2)
        assert left == right

    def test_two_dimensional_saddle(self):
        # U = x^4/4 - x^2/2 + y^2 has Hessians diag(2, 2) and diag(-1, 2)
        U = lambda x, y: 0.25 * x**4 - 0.5 * x**2 + y**2
        expected = 2.0 * math.pi * math.sqrt(2.0 / 4.0) * math.exp(0.5 / 0.4)
        value = eyring_kramers_time(U, [-1.0, 0.0], [0.0, 0.0], 0.4)
        assert value == pytest.approx(expected, rel=1e-5)

    def test_saddle_point_signature_checked(self):
        with pytest.raises(ValueError, match="minimum"):
            eyring_kramers_time(double_well_potential, 0.0, -1.0, 0.2)
        with pytest.raises(ValueError, match="saddle"):
            eyring_kramers_time(double_well_potential, -1.0, 1.0, 0.2)
        with pytest.raises(ValueError, match="positive"):
            eyring_kramers_time(double_well_potential, -1.0, 0.0, 0.0)

    def test_formula_tracks_monte_carlo(self):
        formula = eyring_kramers_time(double_well_potential, -1.0, 0.0, 0.3)
        model = SdeModel.scalar(lambda x: x - x**3,
                                lambda x, s=math.sqrt(0.3): s)
        stats = mc_exit(model, -1.0, Domain.interval(-4.0, 0.5), h=1e-3,
                        n_paths=300, stream=GaussianStream(99), t_max=1e4)
        assert stats.fraction_censored == 0.0
        assert 0.5 * formula <= stats.mean_time <= 2.0 * formula
