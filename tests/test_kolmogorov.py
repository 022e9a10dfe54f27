"""Tests for the solvers' generator stencils, PDE solvers and density formulas."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy
from scipy.linalg import solve_banded

import sdelab
from sdelab import kolmogorov, sde
from sdelab.ergodicity import discretize_kernel
from sdelab.kolmogorov import (
    BoundaryCondition,
    DensityField,
    Grid1D,
    delta_field,
    free_bm_density,
    killed_bm_density,
    mc_feynman_kac,
    mc_semigroup,
    reflected_bm_density,
    solve_backward_kolmogorov,
    solve_fokker_planck,
    stationary_density_gradient,
)
from sdelab.sde import GaussianStream, SdeModel, TimeGrid, euler_maruyama_ensemble


def ou_model(rate: float = 1.0, noise: float = 1.0) -> SdeModel:
    return SdeModel.scalar(lambda x: -rate * x, lambda x: noise)


def gradient_quadratic() -> SdeModel:
    # dX = -X dt + sqrt(2) dW, stationary density N(0, 1)
    return SdeModel.scalar(lambda x: -x, math.sqrt(2.0))


def banded_stepping(banded_a, state, n_steps, dt):
    """Backward Euler by one ``solve_banded`` call per step: the reference
    that ``kolmogorov._evolve`` is checked against."""
    lhs = -dt * banded_a
    lhs[1] += 1.0
    for _ in range(n_steps):
        state = solve_banded((1, 1), lhs, state)
    return state


class TestGridAndField:
    def test_grid_geometry(self):
        grid = Grid1D(-2.0, 3.0, 10)
        assert grid.dx == pytest.approx(0.5)
        assert grid.n_nodes == 11
        assert grid.nodes[0] == -2.0 and grid.nodes[-1] == 3.0

    def test_grid_rejects_bad_bounds_and_too_few_cells(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)

    @pytest.mark.parametrize("ends, name", [((0.0, math.inf), "x_max"),
                                             ((-math.inf, 0.0), "x_min"),
                                             ((math.nan, 1.0), "x_min")])
    def test_grid_rejects_a_non_finite_end(self, ends, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            Grid1D(*ends, 4)

    def test_field_validates_shape_and_sign(self):
        grid = Grid1D(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            DensityField(grid, np.ones(4))
        with pytest.raises(ValueError):
            DensityField(grid, np.array([1.0, -0.5, 1.0, 1.0, 1.0]))

    def test_mass_and_normalized(self):
        grid = Grid1D(0.0, 2.0, 100)
        field = DensityField(grid, np.full(grid.n_nodes, 3.0))
        assert field.mass() == pytest.approx(6.0)
        assert field.normalized().mass() == pytest.approx(1.0)

    def test_l1_distance_requires_matching_grids(self):
        a = DensityField(Grid1D(0.0, 1.0, 10), np.ones(11))
        b = DensityField(Grid1D(0.0, 1.0, 20), np.ones(21))
        with pytest.raises(ValueError):
            a.l1_distance(b)

    def test_delta_field_is_normalised_and_centered(self):
        grid = Grid1D(-4.0, 4.0, 400)
        bump = delta_field(grid, 0.5)
        assert bump.mass() == pytest.approx(1.0)
        assert grid.nodes[np.argmax(bump.values)] == pytest.approx(0.5, abs=grid.dx)
        with pytest.raises(ValueError):
            delta_field(grid, 17.0)


def dense(banded: np.ndarray) -> np.ndarray:
    """The tridiagonal matrix held in banded storage ``(3, n)``."""
    upper, diag, lower = banded
    return np.diag(upper[1:], 1) + np.diag(diag) + np.diag(lower[:-1], -1)


REFLECTING = BoundaryCondition.NEUMANN_ZERO


class TestGeneratorStencils:
    """The solvers' own operators: ``L`` of the backward equation and ``L*``
    of the Fokker-Planck equation, row by row on the interior nodes."""

    def test_generator_matches_symbolic_oracle(self):
        # L u for dX = -X dt + sqrt(2) dW applied to u = exp(-x^2/2),
        # differentiated symbolically rather than by hand.
        x = sympy.Symbol("x")
        u_sym = sympy.exp(-(x**2) / 2)
        lu_sym = -x * sympy.diff(u_sym, x) + sympy.diff(u_sym, x, 2)
        lu_exact = sympy.lambdify(x, sympy.simplify(lu_sym), "numpy")

        grid = Grid1D(-3.0, 3.0, 600)
        banded = kolmogorov._generator(gradient_quadratic(), grid, REFLECTING, adjoint=False)
        numeric = (dense(banded) @ np.exp(-grid.nodes**2 / 2))[1:-1]
        np.testing.assert_allclose(numeric, lu_exact(grid.nodes[1:-1]), atol=1e-4)

    def test_fitted_stencil_matches_the_bernoulli_formula(self):
        # entry by entry against the face current written out per face:
        # J = (B(-z) a_i rho_i - B(z) a_{i+1} rho_{i+1}) / dx with a = D/2,
        # B(z) = z / (e^z - 1) and z Simpson's rule for the integral of f/a
        def drift(x):
            return x - x**3

        def dispersion(x):
            return 1.0 + 0.5 * np.sin(x)

        grid = Grid1D(-2.0, 2.0, 40)
        model = SdeModel.scalar(drift, dispersion)
        xs, dx = grid.nodes, grid.dx
        expected = np.zeros((grid.n_nodes, grid.n_nodes))
        for k in range(grid.n_cells):
            left, right = float(xs[k]), float(xs[k + 1])
            ratio = [drift(x) / (0.5 * dispersion(x) ** 2)
                     for x in (left, 0.5 * (left + right), right)]
            z = dx / 6.0 * (ratio[0] + 4.0 * ratio[1] + ratio[2])
            out_right = -z / math.expm1(-z) * 0.5 * dispersion(left) ** 2 / dx**2
            out_left = z / math.expm1(z) * 0.5 * dispersion(right) ** 2 / dx**2
            # rho_k leaves node k for node k + 1, and rho_{k+1} the other way
            expected[k + 1, k] += out_right
            expected[k, k] -= out_right
            expected[k, k + 1] += out_left
            expected[k + 1, k + 1] -= out_left
        # an edge node's cell is dx/2 wide: its row is the current over dx/2
        weights = np.ones(grid.n_nodes)
        weights[[0, -1]] = 0.5
        expected /= weights[:, None]
        adjoint = dense(kolmogorov._generator(model, grid, REFLECTING, adjoint=True))
        backward = dense(kolmogorov._generator(model, grid, REFLECTING, adjoint=False))
        np.testing.assert_allclose(adjoint, expected, rtol=1e-13, atol=0.0)
        # L is the transpose of L* in the trapezoid inner product
        np.testing.assert_array_equal(backward, (weights[:, None] * adjoint).T / weights[:, None])

    def test_double_well_generator_converges_at_second_order(self):
        # L V = -U'^2 + U'' for dX = -U'(X) dt + sqrt(2) dW and V = U
        x = sympy.Symbol("x")
        u = (x**2 - 1) ** 2 / 4
        lv_exact = sympy.lambdify(
            x, -sympy.diff(u, x) ** 2 + sympy.diff(u, x, 2), "numpy")
        model = SdeModel.scalar(lambda y: -(y * (y**2 - 1)), math.sqrt(2.0))
        errs = []
        for n in (300, 600, 1200):
            grid = Grid1D(-3.0, 3.0, n)
            banded = kolmogorov._generator(model, grid, REFLECTING, adjoint=False)
            numeric = (dense(banded) @ (0.25 * (grid.nodes**2 - 1) ** 2))[1:-1]
            errs.append(np.max(np.abs(numeric - lv_exact(grid.nodes[1:-1]))))
        # the ratios read 3.86 and 3.94: at x = 3 the cell Peclet number is
        # 0.48 at 300 cells, and the fourth-order term has not died out yet
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_generator_second_order_in_dx(self):
        model = gradient_quadratic()
        errs = []
        for n in (150, 300):
            grid = Grid1D(-3.0, 3.0, n)
            xs = grid.nodes
            banded = kolmogorov._generator(model, grid, REFLECTING, adjoint=False)
            numeric = (dense(banded) @ np.exp(-xs**2 / 2))[1:-1]
            exact = (2 * xs[1:-1] ** 2 - 1) * np.exp(-xs[1:-1] ** 2 / 2)
            errs.append(np.max(np.abs(numeric - exact)))
        assert errs[1] == pytest.approx(errs[0] / 4, rel=0.1)

    def test_generator_requires_scalar_model(self):
        grid = Grid1D(0.0, 1.0, 10)
        plane = SdeModel.brownian(dim=2)
        with pytest.raises(ValueError, match="scalar models only"):
            solve_backward_kolmogorov(plane, np.ones(11), grid, 1.0, 0.1)
        with pytest.raises(ValueError, match="scalar models only"):
            solve_fokker_planck(plane, DensityField(grid, np.ones(11)), 1.0, 0.1)

    @pytest.mark.parametrize("bc", ["neumann_zero", "dirichlet_zero"])
    def test_adjoint_interior_is_the_transpose_of_the_generator(self, bc):
        # on the interior nodes L is the transpose of the flux form of L*,
        # which is what makes the two solvers dual; the edge rows carry the
        # half-cell weight or the Dirichlet pin
        grid = Grid1D(-2.0, 2.0, 60)
        model = SdeModel.scalar(lambda x: x - x**3, lambda x: 1.0 + 0.5 * np.sin(x))
        bc = BoundaryCondition(bc)
        backward = dense(kolmogorov._generator(model, grid, bc, adjoint=False))[1:-1, 1:-1]
        adjoint = dense(kolmogorov._generator(model, grid, bc, adjoint=True))[1:-1, 1:-1]
        scale = np.max(np.abs(backward))
        assert np.max(np.abs(adjoint - backward.T)) <= 1e-14 * scale

    def test_adjoint_annihilates_gaussian_for_ou(self):
        # L* of the N(0, 1/2) density vanishes for dX = -X dt + dW.
        grid = Grid1D(-6.0, 6.0, 1200)
        banded = kolmogorov._generator(ou_model(), grid, REFLECTING, adjoint=True)
        residual = (dense(banded) @ np.exp(-grid.nodes**2))[1:-1]
        assert np.max(np.abs(residual)) < 1e-3

    @pytest.mark.parametrize("noise", [math.sqrt(2.0), 0.8])
    @pytest.mark.parametrize("potential, slope", [
        (lambda x: x**2 / 2, lambda x: x),
        (lambda x: x**4 / 4 - x**2 / 2, lambda x: x**3 - x),
    ], ids=["quadratic", "double-well"])
    def test_gibbs_density_is_a_discrete_null_vector(self, potential, slope, noise):
        # Simpson's rule is exact for the cubic f/a, so z_k = -2 (U_{k+1} - U_k)
        # / noise^2 and the fitted current of exp(-2 U / noise^2) is zero
        grid = Grid1D(-4.0, 4.0, 120)
        model = SdeModel.scalar(lambda x: -slope(x), noise)
        adjoint = dense(kolmogorov._generator(model, grid, REFLECTING, adjoint=True))
        gibbs = np.exp(-2.0 * potential(grid.nodes) / noise**2)
        assert np.max(np.abs(adjoint @ gibbs)) <= 1e-12 * np.max(np.abs(adjoint) @ gibbs)

    def test_steep_drift_assembles_without_floating_point_errors(self):
        # x^6/6 - x^2 on [-6, 6] at 120 cells has cell Peclet numbers near
        # 780 at the walls, where e^z overflows and e^-z underflows
        grid = Grid1D(-6.0, 6.0, 120)
        model = SdeModel.scalar(lambda x: -(x**5 - 2.0 * x), math.sqrt(2.0))
        with np.errstate(all="raise"):
            for adjoint in (True, False):
                banded = kolmogorov._generator(model, grid, REFLECTING, adjoint)
                assert np.all(np.isfinite(banded))
                assert np.all(banded[[0, 2]] >= 0.0)

    def test_a_vanishing_diffusion_under_a_drift_is_rejected(self):
        # dX = dt + x dW has no diffusion at x = 0, where the drift pushes
        grid = Grid1D(-1.0, 1.0, 10)
        model = SdeModel.scalar(lambda x: np.ones_like(x), lambda x: x)
        with pytest.raises(ValueError, match="vanishes at x = 0,"):
            solve_fokker_planck(model, delta_field(grid, 0.5), 0.1, 0.01)


class TestBackwardSolver:
    def test_heat_kernel_within_one_percent_l1(self):
        grid = Grid1D(-8.0, 8.0, 500)
        bump = delta_field(grid, 0.0)
        u = solve_backward_kolmogorov(
            SdeModel.brownian(), bump.values, grid, t_end=0.5, dt=0.002
        )
        err = np.trapezoid(np.abs(u - free_bm_density(grid.nodes, 0.5)), grid.nodes)
        assert err < 0.01

    def test_ou_second_moment_beats_closed_form(self):
        # E[X_t^2 | X_0 = x] = x^2 e^{-2t} + (1 - e^{-2t})/2 for dX = -X dt + dW
        grid = Grid1D(-8.0, 8.0, 800)
        t = 0.8
        u = solve_backward_kolmogorov(
            ou_model(), grid.nodes**2, grid, t_end=t, dt=0.002
        )
        probes = np.array([-1.5, -0.5, 0.0, 0.7, 1.2])
        expected = probes**2 * math.exp(-2 * t) + (1 - math.exp(-2 * t)) / 2
        np.testing.assert_allclose(np.interp(probes, grid.nodes, u), expected, rtol=2e-3)

    def test_multi_column_solve_matches_single_columns(self):
        grid = Grid1D(-2.0, 2.0, 80)
        model = ou_model()
        phi = np.stack([grid.nodes, grid.nodes**2], axis=1)
        both = solve_backward_kolmogorov(model, phi, grid, t_end=0.3, dt=0.01)
        for j in range(2):
            single = solve_backward_kolmogorov(model, phi[:, j], grid, t_end=0.3, dt=0.01)
            np.testing.assert_array_equal(both[:, j], single)

    def test_neumann_preserves_constants_exactly(self):
        grid = Grid1D(-3.0, 3.0, 120)
        u = solve_backward_kolmogorov(
            ou_model(), np.ones(grid.n_nodes), grid, t_end=1.0, dt=0.05,
            bc=BoundaryCondition.NEUMANN_ZERO,
        )
        np.testing.assert_allclose(u, 1.0, atol=1e-12)

    def test_reflecting_walls_keep_second_order(self):
        # u = cos(pi x) has u' = 0 at both walls of [-1, 1], and under
        # Brownian motion u(t) = exp(-pi^2 t / 2) cos(pi x); an edge row
        # without the half-cell weight would halve L u there, an error of
        # 9e-3 here
        grid = Grid1D(-1.0, 1.0, 200)
        u = solve_backward_kolmogorov(SdeModel.brownian(), np.cos(np.pi * grid.nodes),
                                      grid, t_end=0.1, dt=1e-4)
        exact = math.exp(-np.pi**2 * 0.1 / 2) * np.cos(np.pi * grid.nodes)
        assert np.max(np.abs(u - exact)) < 2e-4

    def test_dirichlet_pins_edges_to_zero(self):
        grid = Grid1D(-4.0, 4.0, 200)
        u = solve_backward_kolmogorov(
            SdeModel.brownian(), np.ones(grid.n_nodes), grid, t_end=0.5, dt=0.01,
            bc="dirichlet_zero",
        )
        assert u[0] == 0.0 and u[-1] == 0.0
        assert u[grid.n_nodes // 2] > 0.9  # far from the edges, little killing yet

    def test_rejects_unknown_method_and_bad_times(self):
        grid = Grid1D(0.0, 1.0, 10)
        phi = np.ones(grid.n_nodes)
        with pytest.raises(ValueError):
            solve_backward_kolmogorov(ou_model(), phi, grid, 1.0, 0.1, bc="magic")
        with pytest.raises(ValueError):
            solve_backward_kolmogorov(ou_model(), phi, grid, -1.0, 0.1)
        with pytest.raises(ValueError):
            solve_backward_kolmogorov(ou_model(), np.ones(3), grid, 1.0, 0.1)

    @pytest.mark.parametrize("call, name, value", [
        (lambda g: solve_backward_kolmogorov(ou_model(), np.ones(11), g, math.nan, 0.1),
         "t_end", "nan"),
        (lambda g: solve_backward_kolmogorov(ou_model(), np.ones(11), g, math.inf, 0.1),
         "t_end", "inf"),
        (lambda g: solve_fokker_planck(ou_model(), delta_field(g, 0.5), 1.0, math.nan),
         "dt", "nan"),
        (lambda g: solve_fokker_planck(ou_model(), delta_field(g, 0.5), math.inf, 0.1),
         "t_end", "inf"),
        (lambda g: discretize_kernel(ou_model(), g, math.inf), "t_step", "inf"),
        (lambda g: discretize_kernel(ou_model(), g, math.nan), "t_step", "nan"),
    ], ids=["backward-nan", "backward-inf", "fokker-planck-nan", "fokker-planck-inf",
            "kernel-inf", "kernel-nan"])
    def test_rejects_non_finite_times_by_name(self, call, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, "
                                             f"got {value}$"):
            call(Grid1D(0.0, 1.0, 10))


BOUNDARIES = ["neumann_zero", "dirichlet_zero"]


class TestOneFactorisation:
    """The stepper against one ``solve_banded`` call per step.

    Vectors are stepped with the same eliminations, so they match to the
    bit; kernels are a power of the resolvent, so their entries match to
    a tolerance set from the rounding of about 14 products of
    non-negative 121 x 121 matrices (a few 1e-14 each).
    """

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_kernel_matches_the_banded_loop(self, monkeypatch, bc):
        grid = Grid1D(-3.0, 3.0, 120)
        kernel = discretize_kernel(ou_model(), grid, 1.0, bc=bc)
        monkeypatch.setattr(kolmogorov, "_evolve", banded_stepping)
        reference = discretize_kernel(ou_model(), grid, 1.0, bc=bc)
        big = reference.matrix > 1e-12
        assert big.sum() > 10 * reference.n_states
        np.testing.assert_allclose(kernel.matrix[big], reference.matrix[big],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(kernel.matrix[~big], reference.matrix[~big],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(kernel.row_leakage, reference.row_leakage,
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_vector_solves_match_the_banded_loop(self, monkeypatch, bc):
        grid = Grid1D(-3.0, 3.0, 300)
        model = ou_model(rate=0.8, noise=0.9)
        phi = np.exp(-grid.nodes**2)
        start = delta_field(grid, 0.5)
        runs = []
        for evolve in (kolmogorov._evolve, banded_stepping):
            monkeypatch.setattr(kolmogorov, "_evolve", evolve)
            u = solve_backward_kolmogorov(model, phi, grid, 0.7, 0.01, bc=bc)
            rho = solve_fokker_planck(model, start, 0.7, 0.01, bc=bc).values
            runs.append((u, rho))
        (u, rho), (u_ref, rho_ref) = runs
        np.testing.assert_array_equal(u, u_ref)
        np.testing.assert_array_equal(rho, rho_ref)

    def test_the_identity_is_not_multiplied_into_the_power(self):
        # a zero column appended to the identity takes the dense product;
        # the identity alone returns the power, with the same bits
        grid = Grid1D(-3.0, 3.0, 100)
        eye = np.eye(grid.n_nodes)
        kernel = solve_backward_kolmogorov(ou_model(), eye, grid, 1.0, 0.002)
        padded = solve_backward_kolmogorov(
            ou_model(), np.hstack([eye, np.zeros((grid.n_nodes, 1))]), grid, 1.0, 0.002)
        np.testing.assert_array_equal(kernel, padded[:, :-1])

    def test_singular_system_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            kolmogorov._factorize(np.zeros((3, 5)))

    SCRIPT = (
        "from sdelab import kolmogorov\n"
        "from sdelab.ergodicity import discretize_kernel\n"
        "from sdelab.sde import SdeModel\n"
        "resolvent = kolmogorov._resolvent\n"
        "def negative(factors, n):\n"
        "    r = resolvent(factors, n)\n"
        "    r[n // 2, n // 2 + 1] = -0.5\n"
        "    return r\n"
        "kolmogorov._resolvent = negative\n"
        "model = SdeModel.scalar(lambda x: -x, lambda x: 1.0)\n"
        "try:\n"
        "    discretize_kernel(model, kolmogorov.Grid1D(-3.0, 3.0, 30), 1.0)\n"
        "except RuntimeError as error:\n"
        "    raise SystemExit(0 if 'positivity' in str(error) else 2)\n"
        "raise SystemExit(1)\n")

    def test_negative_resolvent_fails_the_positivity_check(self, monkeypatch):
        resolvent = kolmogorov._resolvent

        def negative(factors, n):
            r = resolvent(factors, n)
            r[n // 2, n // 2 + 1] = -0.5
            return r

        monkeypatch.setattr(kolmogorov, "_resolvent", negative)
        with pytest.raises(RuntimeError, match="positivity"):
            discretize_kernel(ou_model(), Grid1D(-3.0, 3.0, 30), 1.0)

    def test_negative_resolvent_fails_under_optimisation(self):
        src = str(Path(sdelab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-O", "-c", self.SCRIPT],
                              env=env, timeout=120)
        assert done.returncode == 0


class TestFokkerPlanck:
    def test_reflecting_boundaries_conserve_mass_to_rounding(self):
        grid = Grid1D(-6.0, 6.0, 600)
        start = delta_field(grid, 1.0)
        evolved = solve_fokker_planck(ou_model(), start, t_end=1.5, dt=0.01)
        assert evolved.mass() == pytest.approx(start.mass(), rel=1e-12)
        assert evolved.time == pytest.approx(1.5)

    def test_point_mass_on_a_coarse_grid_stays_non_negative(self):
        # OU on [-5, 5] at 16 cells has cell Peclet number 3.1 at the walls,
        # where a central flux has negative weights; the fitted one stays
        # positive without a floor
        grid = Grid1D(-5.0, 5.0, 16)
        start = np.zeros(grid.n_nodes)
        start[1] = 1.0 / grid.dx
        adjoint = kolmogorov._generator(ou_model(), grid, REFLECTING, adjoint=True)
        rho = kolmogorov._evolve(adjoint, start, 50, 0.01)
        assert np.all(rho >= 0.0)
        assert np.trapezoid(rho, grid.nodes) == pytest.approx(1.0, abs=1e-12)

    def test_ou_relaxation_mean_and_variance(self):
        # From a point mass at x0 the law is N(x0 e^{-t}, (1 - e^{-2t})/2).
        grid = Grid1D(-8.0, 8.0, 800)
        x0, t = 1.0, 0.6
        evolved = solve_fokker_planck(ou_model(), delta_field(grid, x0), t, dt=0.002)
        density = evolved.normalized().values
        mean = np.trapezoid(grid.nodes * density, grid.nodes)
        var = np.trapezoid((grid.nodes - mean) ** 2 * density, grid.nodes)
        assert mean == pytest.approx(x0 * math.exp(-t), rel=0.02)
        assert var == pytest.approx((1 - math.exp(-2 * t)) / 2, rel=0.02)

    def test_gradient_stationary_density_is_a_fixed_point(self):
        grid = Grid1D(-6.0, 6.0, 600)
        stationary = stationary_density_gradient(lambda x: 0.5 * x**2, grid)
        evolved = solve_fokker_planck(gradient_quadratic(), stationary, t_end=2.0, dt=0.01)
        assert evolved.l1_distance(stationary) < 1e-4

    def test_killed_density_matches_image_formula(self):
        barrier = 1.0
        grid = Grid1D(-8.0, barrier, 450)
        start = delta_field(grid, 0.0)
        evolved = solve_fokker_planck(
            SdeModel.brownian(), start, t_end=0.5, dt=0.002, bc="dirichlet_zero"
        )
        exact = killed_bm_density(grid.nodes, 0.5, barrier)
        assert np.trapezoid(np.abs(evolved.values - exact), grid.nodes) < 0.02

    def test_reflected_density_matches_image_formula(self):
        barrier = 1.0
        grid = Grid1D(-8.0, barrier, 450)
        start = delta_field(grid, 0.0)
        evolved = solve_fokker_planck(
            SdeModel.brownian(), start, t_end=0.5, dt=0.002, bc="neumann_zero"
        )
        exact = reflected_bm_density(grid.nodes, 0.5, barrier)
        assert np.trapezoid(np.abs(evolved.values - exact), grid.nodes) < 0.02


class TestDegenerateDiffusion:
    """GBM ``dX = X/2 dt + X dW`` on ``[0, 2]``: at x = 0 both the drift
    and the diffusion vanish, so ``f/a`` has no value there."""

    @pytest.mark.parametrize("bc", BOUNDARIES)
    def test_gbm_solves_are_finite_and_non_negative(self, bc):
        model = SdeModel.scalar(lambda x: 0.5 * x, lambda x: x)
        grid = Grid1D(0.0, 2.0, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = solve_backward_kolmogorov(model, np.exp(-grid.nodes), grid, 0.5, 0.01, bc=bc)
            rho = solve_fokker_planck(model, delta_field(grid, 1.0), 0.5, 0.01, bc=bc)
        for values in (u, rho.values):
            assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
            assert values[grid.n_nodes // 2] > 0.0

    def test_gbm_preserves_constants_and_leaves_the_origin_alone(self):
        model = SdeModel.scalar(lambda x: 0.5 * x, lambda x: x)
        grid = Grid1D(0.0, 2.0, 40)
        u = solve_backward_kolmogorov(model, np.ones(grid.n_nodes), grid, 1.0, 0.01)
        np.testing.assert_allclose(u, 1.0, rtol=0.0, atol=1e-12)
        # no drift and no diffusion at x = 0: a mass there keeps its place
        start = np.zeros(grid.n_nodes)
        start[0] = 1.0 / grid.dx
        rho = solve_fokker_planck(model, DensityField(grid, start), 1.0, 0.01)
        np.testing.assert_array_equal(rho.values, start)


class TestClosedFormDensities:
    def test_free_density_normalises_and_rejects_bad_time(self):
        xs = np.linspace(-10, 10, 2001)
        assert np.trapezoid(free_bm_density(xs, 0.7), xs) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            free_bm_density(xs, 0.0)

    def test_reflected_density_has_full_mass_and_flat_edge(self):
        barrier = 0.8
        xs = np.linspace(-12.0, barrier, 4001)
        vals = reflected_bm_density(xs, 0.5, barrier)
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-6)
        # zero derivative at the barrier: the one-sided difference there is
        # O(dx) smaller than in the bulk of the density
        dx = xs[1] - xs[0]
        assert abs(vals[-1] - vals[-2]) / dx < 0.01
        assert np.max(np.abs(np.diff(vals))) / dx > 0.2

    def test_killed_density_vanishes_at_barrier_and_loses_mass(self):
        barrier = 0.8
        xs = np.linspace(-12.0, barrier, 4001)
        vals = killed_bm_density(xs, 0.5, barrier)
        assert vals[-1] == pytest.approx(0.0, abs=1e-14)
        survival = np.trapezoid(vals, xs)
        # P(max W_s < 0.8 on [0, 0.5]) = 1 - 2 P(W_0.5 > 0.8) = 2 Phi(0.8/sqrt(0.5)) - 1
        expected = math.erf(0.8 / math.sqrt(2 * 0.5))
        assert survival == pytest.approx(expected, abs=1e-6)

    def test_densities_reject_points_beyond_barrier(self):
        with pytest.raises(ValueError):
            reflected_bm_density(np.array([0.0, 2.0]), 0.5, 1.0)
        with pytest.raises(ValueError):
            killed_bm_density(np.array([0.0, 2.0]), 0.5, 1.0)


class TestStationaryDensity:
    def test_quadratic_potential_gives_standard_gaussian(self):
        grid = Grid1D(-8.0, 8.0, 800)
        field = stationary_density_gradient(lambda x: 0.5 * x**2, grid)
        exact = np.exp(-grid.nodes**2 / 2) / math.sqrt(2 * math.pi)
        assert np.trapezoid(np.abs(field.values - exact), grid.nodes) < 1e-4
        assert field.mass() == pytest.approx(1.0)

    def test_non_confining_potential_is_rejected(self):
        grid = Grid1D(-5.0, 5.0, 100)
        with pytest.raises(ValueError, match="confine"):
            stationary_density_gradient(lambda x: -(x**2), grid)


class TestMonteCarloRoutes:
    def test_mc_semigroup_matches_ou_moment(self):
        t = 0.8
        expected = 1.0 * math.exp(-2 * t) + (1 - math.exp(-2 * t)) / 2
        est, se = mc_semigroup(
            ou_model(), 1.0, t, lambda x: x**2, n_paths=4000, dt=0.01,
            stream=GaussianStream(7101),
        )
        assert se < 0.05
        assert abs(est - expected) < 3 * se + 0.01  # 3 sigma plus Euler bias head-room

    @pytest.mark.parametrize("model, x0", [
        (ou_model(), 1.0),
        (SdeModel.brownian(2), [0.5, -0.5]),
    ], ids=["ou", "brownian-2d"])
    def test_mc_semigroup_reads_the_ensemble_terminal_row(self, monkeypatch, model, x0):
        # windows of 7 steps: 30 steps are four full windows and a ragged one of 2
        monkeypatch.setattr(sde, "_WINDOW_ROW_STEPS", 7 * 50)

        def phi(x):
            return np.sum(np.reshape(x, (50, -1)) ** 2, axis=1)

        est, se = mc_semigroup(model, x0, 0.3, phi, n_paths=50, dt=0.01,
                               stream=GaussianStream(7104))
        terminal = euler_maruyama_ensemble(model, x0, TimeGrid(0.0, 0.3, 30), 50,
                                           GaussianStream(7104))[:, -1]
        vals = phi(terminal[:, 0] if model.dim_state == 1 else terminal)
        assert (est, se) == (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(50)))

    def test_mc_semigroup_holds_a_window_not_the_ensemble(self):
        # the whole 4000 x 1001 ensemble is 32 MB
        tracemalloc.start()
        try:
            mc_semigroup(SdeModel.brownian(), 0.0, 1.0, lambda x: x, n_paths=4000,
                         dt=1e-3, stream=GaussianStream(7105))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_feynman_kac_running_sum_matches_the_whole_path_sum(self, monkeypatch):
        # windows of 7 steps; the running sum differs from a row sum by rounding only
        monkeypatch.setattr(sde, "_WINDOW_ROW_STEPS", 7 * 50)
        est, se = mc_feynman_kac(
            SdeModel.brownian(), 0.0, 0.3, lambda x: np.cos(x),
            lambda x: 0.5 * x**2, n_paths=50, dt=0.01, stream=GaussianStream(7106),
        )
        states = euler_maruyama_ensemble(SdeModel.brownian(), 0.0, TimeGrid(0.0, 0.3, 30),
                                         50, GaussianStream(7106))[:, :, 0]
        vals = np.exp(-np.sum(0.5 * states[:, :-1] ** 2, axis=1) * 0.01) * np.cos(states[:, -1])
        assert est == pytest.approx(vals.mean(), rel=1e-14)
        assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(50), rel=1e-12)

    def test_feynman_kac_constant_killing_is_exact_discount(self):
        # With q = c the weight is deterministic: E equals e^{-ct}.
        est, se = mc_feynman_kac(
            SdeModel.brownian(), 0.0, 1.0, lambda x: np.ones_like(x),
            lambda x: np.full_like(x, 0.3), n_paths=200, dt=0.01,
            stream=GaussianStream(7102),
        )
        assert est == pytest.approx(math.exp(-0.3), rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-14)

    def test_feynman_kac_quadratic_killing_closed_form(self):
        # E[exp(-1/2 int_0^t W_s^2 ds)] = cosh(t)^{-1/2}
        t = 1.0
        est, se = mc_feynman_kac(
            SdeModel.brownian(), 0.0, t, lambda x: np.ones_like(x),
            lambda x: 0.5 * x**2, n_paths=4000, dt=0.001,
            stream=GaussianStream(7103),
        )
        assert abs(est - math.cosh(t) ** -0.5) < 3 * se + 0.002
