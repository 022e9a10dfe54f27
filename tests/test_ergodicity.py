"""Tests for kernel discretization, ergodicity certificates and cone bounds."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdelab
from sdelab.ergodicity import (
    ConeBounds,
    DiscreteKernel,
    MinorisationCert,
    discretize_kernel,
    drift_violations,
    fit_cone_bounds,
    hilbert_metric,
    hm_constants,
    power_iteration_jentzsch,
    projective_diameter,
    rho_beta_distance,
    verify_geometric_drift,
    verify_hm_contraction,
    verify_minorisation,
)
from sdelab.kolmogorov import Grid1D, free_bm_density
from sdelab.sde import GaussianStream, SdeModel


def ou_model() -> SdeModel:
    return SdeModel.scalar(lambda x: -x, lambda x: 1.0)


def bm_model() -> SdeModel:
    return SdeModel.scalar(lambda x: 0.0 * x, lambda x: 1.0)


@pytest.fixture(scope="module")
def ou_kernel() -> DiscreteKernel:
    """One-second Ornstein-Uhlenbeck transition matrix on [-5, 5]."""
    return discretize_kernel(ou_model(), Grid1D(-5.0, 5.0, 200), t_step=1.0)


@pytest.fixture(scope="module")
def killed_kernel() -> DiscreteKernel:
    """Brownian motion on [-1, 1] with absorbing ends, t_step = 0.1."""
    return discretize_kernel(bm_model(), Grid1D(-1.0, 1.0, 80), t_step=0.1,
                             bc="dirichlet_zero")


def random_stochastic(n: int, seed: int) -> np.ndarray:
    w = GaussianStream(seed).generator().uniform(0.1, 1.0, size=(n, n))
    return w / w.sum(axis=1, keepdims=True)


class TestDiscreteKernel:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiscreteKernel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_row_sums_above_one(self):
        with pytest.raises(ValueError, match="row sums"):
            DiscreteKernel(np.array([[0.9, 0.2], [0.5, 0.5]]))

    def test_stochastic_kernel_must_have_unit_rows(self):
        with pytest.raises(ValueError, match="sum to one"):
            DiscreteKernel(np.array([[0.4, 0.2], [0.5, 0.5]]))
        DiscreteKernel(np.array([[0.4, 0.2], [0.5, 0.5]]), substochastic=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DiscreteKernel(np.ones((2, 3)) / 3)

    def test_rejects_grid_size_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            DiscreteKernel(np.eye(4), grid=Grid1D(0.0, 1.0, 10))

    def test_apply_and_adjoint(self):
        k = DiscreteKernel(np.array([[0.6, 0.4], [0.2, 0.8]]))
        assert np.allclose(k.apply([1.0, 2.0]), [1.4, 1.8])
        assert np.allclose(k.apply_adjoint([0.5, 0.5]), [0.4, 0.6])

class TestDiscretizeKernel:
    def test_rows_are_probability_vectors(self, ou_kernel):
        sums = ou_kernel.matrix.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)
        assert np.all(ou_kernel.matrix >= 0)
        assert np.abs(ou_kernel.row_leakage).max() < 1e-9

    def test_center_row_matches_heat_kernel(self):
        grid = Grid1D(-8.0, 8.0, 320)
        kernel = discretize_kernel(bm_model(), grid, t_step=0.5)
        row = kernel.matrix[grid.n_nodes // 2]
        exact = free_bm_density(grid.nodes, 0.5) * grid.dx
        assert np.abs(row - exact).sum() < 0.02

    @pytest.mark.parametrize("x0", [-2.0, 0.5, 3.0])
    def test_ou_rows_have_gaussian_moments(self, ou_kernel, x0):
        nodes = ou_kernel.grid.nodes
        row = ou_kernel.matrix[np.searchsorted(nodes, x0)]
        mean = row @ nodes
        var = row @ (nodes - mean) ** 2
        assert mean == pytest.approx(x0 * math.exp(-1.0), abs=2e-3)
        assert var == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=8e-3)

    def test_tiny_time_step_gives_near_identity(self):
        grid = Grid1D(-1.0, 1.0, 40)
        t_step = grid.dx**2 / 10.0
        kernel = discretize_kernel(bm_model(), grid, t_step, dt=t_step)
        for i in (10, 20, 30):
            assert kernel.matrix[i, i - 3:i + 4].sum() > 0.99

    def test_absorbing_route_is_substochastic_on_interior(self, killed_kernel):
        assert killed_kernel.substochastic
        assert killed_kernel.n_states == 79
        assert killed_kernel.grid.x_min == pytest.approx(-0.975)
        sums = killed_kernel.matrix.sum(axis=1)
        assert np.all(sums < 1.0)
        # paths started next to the barrier lose the most mass
        assert killed_kernel.row_leakage[0] > killed_kernel.row_leakage[39]

    def test_invalid_arguments(self):
        grid = Grid1D(-1.0, 1.0, 10)
        with pytest.raises(ValueError, match="t_step"):
            discretize_kernel(ou_model(), grid, 0.0)


class TestGeometricDrift:
    def test_ou_kernel_recovers_contraction_constants(self, ou_kernel):
        v = ou_kernel.grid.nodes**2
        gamma, d, feasible = verify_geometric_drift(ou_kernel, v)
        assert feasible
        assert gamma == pytest.approx(math.exp(-2.0), rel=0.05)
        assert d == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=0.05)
        assert drift_violations(ou_kernel, v, gamma, d) == 0

    def test_identity_kernel_needs_offset_from_top(self):
        v = np.array([0.0, 1.0, 4.0, 9.0])
        gamma, d, feasible = verify_geometric_drift(np.eye(4), v)
        assert feasible
        assert d == pytest.approx((1.0 - gamma) * 9.0)
        assert gamma == pytest.approx(0.999)

    def test_zero_function_needs_no_offset(self):
        gamma, d, feasible = verify_geometric_drift(random_stochastic(4, 7),
                                                    np.zeros(4))
        assert feasible and d == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            verify_geometric_drift(np.eye(3), np.array([1.0, -1.0, 2.0]))
        with pytest.raises(ValueError, match="matching"):
            verify_geometric_drift(np.eye(3), np.ones(4))

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_certificate_always_holds_entrywise(self, seed, n):
        kernel = random_stochastic(n, seed)
        v = GaussianStream(seed + 1).generator().uniform(0.0, 5.0, size=n)
        gamma, d, feasible = verify_geometric_drift(kernel, v)
        assert feasible
        assert drift_violations(kernel, v, gamma, d) == 0


class TestMinorisation:
    def test_ou_kernel_has_overlapping_rows(self, ou_kernel):
        v = ou_kernel.grid.nodes**2
        cert = verify_minorisation(ou_kernel, 2.0, v)
        assert cert.alpha > 0.3
        assert cert.nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(cert.c_nodes, np.flatnonzero(v < 2.0))
        assert cert.violations(ou_kernel) == 0

    def test_identical_rows_give_full_overlap(self):
        kernel = np.tile([0.2, 0.3, 0.5], (3, 1))
        cert = verify_minorisation(kernel, 1.0, np.zeros(3))
        assert cert.alpha == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports_rejected(self):
        kernel = DiscreteKernel(np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]))
        with pytest.raises(ValueError, match="disjoint"):
            verify_minorisation(kernel, 1.0, np.array([0.0, 5.0, 0.0, 5.0]))

    def test_empty_small_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            verify_minorisation(np.eye(3), 0.5, np.ones(3))


class TestSelfChecks:
    """A certificate that fails its own recheck raises, even under -O."""

    SCRIPT = (
        "import numpy as np\n"
        "from sdelab.ergodicity import MinorisationCert, verify_minorisation\n"
        "MinorisationCert.violations = lambda self, kernel: 1\n"
        "try:\n"
        "    verify_minorisation(np.tile([0.2, 0.3, 0.5], (3, 1)), 1.0, np.zeros(3))\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")

    def test_failed_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(MinorisationCert, "violations", lambda self, kernel: 1)
        with pytest.raises(RuntimeError, match="recheck"):
            verify_minorisation(np.tile([0.2, 0.3, 0.5], (3, 1)), 1.0, np.zeros(3))

    def test_failed_recheck_raises_under_optimisation(self):
        src = str(Path(sdelab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-O", "-c", self.SCRIPT],
                              env=env, timeout=120)
        assert done.returncode == 0


class TestHmConstants:
    def test_worked_example(self):
        beta, alpha_bar = hm_constants(0.5, 1.0, 0.5, 5.0, 0.25, 0.95)
        assert beta == 0.25
        assert alpha_bar == pytest.approx(0.9807692307692307, abs=1e-15)

    def test_empty_admissible_window_rejected(self):
        with pytest.raises(ValueError, match="no admissible gamma0"):
            hm_constants(0.9, 1.0, 0.5, 5.0, 0.25, 0.95)

    def test_parameter_windows_enforced(self):
        with pytest.raises(ValueError, match="alpha0"):
            hm_constants(0.5, 1.0, 0.5, 5.0, 0.6, 0.95)
        with pytest.raises(ValueError, match="gamma0"):
            hm_constants(0.5, 1.0, 0.5, 5.0, 0.25, 0.8)
        with pytest.raises(ValueError, match="gamma must"):
            hm_constants(1.5, 1.0, 0.5, 5.0, 0.25, 0.95)

    @given(st.floats(0.1, 0.6), st.floats(0.1, 2.0), st.floats(0.1, 0.9),
           st.floats(0.1, 0.9), st.floats(0.1, 0.9))
    @settings(max_examples=100)
    def test_constants_always_land_in_valid_ranges(self, gamma, d, alpha, u, w):
        level = 2.0 * d / (1.0 - gamma) * 1.1
        low = gamma + 2.0 * d / level
        beta, alpha_bar = hm_constants(gamma, d, alpha, level, u * alpha,
                                       low + w * (1.0 - low))
        assert beta > 0.0
        assert 0.0 < alpha_bar < 1.0


class TestRhoBeta:
    def test_zero_for_equal_measures(self):
        mu = np.array([0.25, 0.25, 0.5])
        assert rho_beta_distance(mu, mu, np.arange(3.0), 1.0) == 0.0

    def test_unweighted_case_is_total_variation(self):
        gen = GaussianStream(3).generator()
        w = np.exp(gen.normal(size=(2, 8)))
        mu, nu = w / w.sum(axis=1, keepdims=True)
        dist = rho_beta_distance(mu, nu, np.zeros(8), 0.0)
        # brute force 2 * sup_A |mu(A) - nu(A)| over every subset
        best = max(
            abs(sum((mu[k] - nu[k]) for k in range(8) if mask >> k & 1))
            for mask in range(256)
        )
        assert dist == pytest.approx(2.0 * best, abs=1e-12)

    def test_point_masses_give_weighted_diameter(self):
        v = np.array([1.0, 2.0, 7.0])
        mu, nu = np.eye(3)[0], np.eye(3)[2]
        assert rho_beta_distance(mu, nu, v, 0.5) == pytest.approx(2.0 + 0.5 * 8.0)

    def test_stacked_rows_match_one_call_per_row(self):
        gen = GaussianStream(5).generator()
        mu, nu = np.exp(gen.normal(size=(2, 6, 9)))
        v = gen.uniform(0.0, 4.0, size=9)
        stacked = rho_beta_distance(mu, nu, v, 0.7)
        assert stacked.shape == (6,)
        assert stacked.tolist() == [rho_beta_distance(a, b, v, 0.7) for a, b in zip(mu, nu)]

    def test_validation(self):
        with pytest.raises(ValueError, match="grid"):
            rho_beta_distance(np.ones(3) / 3, np.ones(4) / 4, np.ones(3), 1.0)
        with pytest.raises(ValueError, match="grid"):
            rho_beta_distance(np.ones((2, 3)) / 3, np.ones((2, 3)) / 3, np.ones(4), 1.0)
        with pytest.raises(ValueError, match="beta"):
            rho_beta_distance(np.ones(3) / 3, np.ones(3) / 3, np.ones(3), -1.0)


@pytest.fixture(scope="module")
def certified(ou_kernel):
    """Drift + minorisation certificates for the OU kernel, chained to (beta, alpha_bar)."""
    v = ou_kernel.grid.nodes**2
    gamma, d, _ = verify_geometric_drift(ou_kernel, v)
    level = 2.0
    alpha = verify_minorisation(ou_kernel, level, v).alpha
    low = gamma + 2.0 * d / level
    beta, alpha_bar = hm_constants(gamma, d, alpha, level, alpha / 2.0,
                                   (low + 1.0) / 2.0)
    return v, beta, alpha_bar


def hm_contraction_one_pair_at_a_time(m, v, beta, n_pairs, stream):
    """``(max_ratio, mean_ratio, max_point_ratio)`` from drawing and
    measuring one random pair, then one point mass, at a time."""
    gen = stream.generator()
    weights = 1.0 + beta * v
    ratios = np.empty(n_pairs)
    for i in range(n_pairs):
        w = np.exp(gen.normal(size=(2, m.shape[0])))
        mu, nu = w / w.sum(axis=1, keepdims=True)
        ratios[i] = (np.sum(weights * np.abs(mu @ m - nu @ m))
                     / np.sum(weights * np.abs(mu - nu)))
    point_ratio = 0.0
    for x in range(m.shape[0]):
        after = np.abs(m[x][None, :] - m) @ weights
        after[x] = 0.0
        point_ratio = max(point_ratio, float(np.max(after / (2.0 + beta * (v[x] + v)))))
    return float(ratios.max()), float(ratios.mean()), point_ratio


class TestHmContraction:
    def test_batches_give_the_bits_of_one_pair_at_a_time(self, ou_kernel, certified):
        # 300 pairs are not a whole number of batches
        v, beta, alpha_bar = certified
        report = verify_hm_contraction(ou_kernel, v, beta, alpha_bar,
                                       n_pairs=300, stream=GaussianStream(41))
        assert (report.max_ratio, report.mean_ratio, report.max_point_ratio) == \
            hm_contraction_one_pair_at_a_time(ou_kernel.matrix, v, beta, 300,
                                              GaussianStream(41))

    def test_holds_a_batch_not_every_pair(self):
        # all 1000 pairs of 401-state measures, and their images, are 13 MB
        m = random_stochastic(401, 12)
        v = np.linspace(0.0, 4.0, 401)
        tracemalloc.start()
        try:
            verify_hm_contraction(m, v, 0.5, 0.9, n_pairs=1000, stream=GaussianStream(13))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_a_sample_of_no_pairs_names_the_argument(self, ou_kernel, certified, n_pairs):
        v, beta, alpha_bar = certified
        with pytest.raises(ValueError, match=f"n_pairs must be at least 1, got {n_pairs}"):
            verify_hm_contraction(ou_kernel, v, beta, alpha_bar, n_pairs=n_pairs)

    def test_every_sampled_pair_contracts(self, ou_kernel, certified):
        v, beta, alpha_bar = certified
        report = verify_hm_contraction(ou_kernel, v, beta, alpha_bar,
                                       n_pairs=300, stream=GaussianStream(41))
        assert report.max_ratio <= alpha_bar + 1e-9
        assert report.max_point_ratio <= alpha_bar + 1e-9
        assert 0.0 < report.mean_ratio < report.max_point_ratio

    def test_iterates_approach_equilibrium_geometrically(self, ou_kernel, certified):
        v, beta, alpha_bar = certified
        pi = power_iteration_jentzsch(ou_kernel).pi0
        mu = np.zeros(ou_kernel.n_states)
        mu[10] = 1.0  # point mass far in the tail
        dist = rho_beta_distance(mu, pi, v, beta)
        for _ in range(8):
            mu = mu @ ou_kernel.matrix
            new_dist = rho_beta_distance(mu, pi, v, beta)
            assert new_dist <= alpha_bar * dist + 1e-9
            dist = new_dist


class TestConeBounds:
    def test_symmetric_two_state_example(self):
        bounds = fit_cone_bounds(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert bounds.L == pytest.approx(2.0, rel=1e-9)
        assert bounds.violations(np.array([[2.0, 1.0], [1.0, 2.0]])) == 0

    def test_rank_one_kernel_is_perfectly_conditioned(self):
        kernel = np.outer([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert fit_cone_bounds(kernel).L == pytest.approx(1.0, abs=1e-9)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="zero entry"):
            fit_cone_bounds(np.array([[1.0, 0.0], [1.0, 1.0]]))

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_envelope_holds_entrywise(self, seed, n):
        kernel = GaussianStream(seed).generator().uniform(0.05, 2.0, size=(n, n))
        bounds = fit_cone_bounds(kernel)
        assert bounds.L >= 1.0
        assert bounds.violations(kernel) == 0


class TestHilbertMetric:
    def test_simple_two_vector_example(self):
        assert hilbert_metric([1.0, 1.0], [1.0, 2.0]) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_zero_on_equal_and_proportional_vectors(self):
        f = np.array([0.3, 1.7, 2.0])
        assert hilbert_metric(f, f) == 0.0
        assert hilbert_metric(f, 5.0 * f) < 1e-12

    def test_invariant_under_positive_scaling(self):
        f = np.array([0.5, 2.0, 1.0])
        g = np.array([1.0, 0.25, 3.0])
        assert hilbert_metric(3.0 * f, 7.0 * g) == pytest.approx(
            hilbert_metric(f, g), abs=1e-12)

    def test_symmetric(self):
        f = np.array([0.5, 2.0, 1.0])
        g = np.array([1.0, 0.25, 3.0])
        assert hilbert_metric(f, g) == hilbert_metric(g, f)

    def test_nonpositive_entries_are_infinitely_far(self):
        assert hilbert_metric([1.0, -1.0], [1.0, 1.0]) == math.inf
        assert hilbert_metric([1.0, 1.0], [0.0, 1.0]) == math.inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            hilbert_metric([1.0, 2.0], [1.0, 2.0, 3.0])


def diameter_one_pair_at_a_time(p, n_probe, stream):
    n = p.shape[0]
    delta = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            delta = max(delta, hilbert_metric(p[i], p[j]))
    gen = stream.generator()
    for _ in range(n_probe):
        f, g = np.exp(gen.uniform(-3.0, 3.0, size=(2, n)))
        delta = max(delta, hilbert_metric(p @ f, p @ g))
    return delta


class TestProjectiveDiameter:
    def test_arrays_give_the_bits_of_one_pair_at_a_time(self):
        p = GaussianStream(29).generator().uniform(0.05, 1.0, size=(40, 40))
        assert projective_diameter(p, n_probe=200, stream=GaussianStream(30)) == \
            diameter_one_pair_at_a_time(p, 200, GaussianStream(30))

    def test_holds_one_row_of_pairs_not_every_pair(self):
        # the cross ratios of all 44 850 row pairs of a 300-row kernel take
        # two 300-vectors each, 310 MiB at once
        p = GaussianStream(31).generator().uniform(0.5, 1.0, size=(300, 300))
        tracemalloc.start()
        try:
            projective_diameter(p, n_probe=100, stream=GaussianStream(32))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_a_single_state_has_zero_diameter(self):
        assert projective_diameter(np.array([[0.5]]), n_probe=0) == 0.0

    def test_no_probes_leave_the_rows_to_give_the_diameter(self):
        delta = projective_diameter(np.array([[2.0, 1.0], [1.0, 2.0]]), n_probe=0)
        assert delta == pytest.approx(math.log(4.0), abs=1e-12)

    def test_a_negative_probe_count_names_the_argument(self):
        with pytest.raises(ValueError, match="n_probe must be non-negative, got -1"):
            projective_diameter(np.array([[2.0, 1.0], [1.0, 2.0]]), n_probe=-1)

    def test_two_state_cross_ratio(self):
        delta = projective_diameter(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                    n_probe=200)
        assert delta == pytest.approx(math.log(4.0), abs=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0),
           st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_cross_ratio_formula(self, a, b, c, d):
        delta = projective_diameter(np.array([[a, b], [c, d]]), n_probe=20)
        assert delta == pytest.approx(abs(math.log(a * d / (b * c))), abs=1e-9)

    def test_rank_one_kernel_has_zero_diameter(self):
        kernel = np.outer([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert projective_diameter(kernel, n_probe=50) < 1e-12

    def test_contraction_ratio_bounded_by_birkhoff_coefficient(self):
        kernel = np.array([[2.0, 1.0], [1.0, 2.0]])
        delta = projective_diameter(kernel, n_probe=100)
        coeff = math.tanh(delta / 4.0)
        assert coeff == pytest.approx(1.0 / 3.0, abs=1e-12)
        gen = GaussianStream(17).generator()
        worst = 0.0
        for _ in range(1000):
            f, g = np.exp(gen.uniform(-3.0, 3.0, size=(2, 2)))
            theta = hilbert_metric(f, g)
            if theta > 1e-12:
                worst = max(worst, hilbert_metric(kernel @ f, kernel @ g) / theta)
        assert worst <= coeff + 1e-9
        assert worst > 0.9 * coeff  # the bound is sharp, not slack

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            projective_diameter(np.array([[1.0, 0.0], [1.0, 1.0]]), n_probe=10)


class TestPowerIteration:
    def test_symmetric_stochastic_two_state(self):
        kernel = np.array([[0.6, 0.4], [0.4, 0.6]])
        result = power_iteration_jentzsch(kernel)
        assert result.lambda0 == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(result.h0, [1.0, 1.0], atol=1e-8)
        assert np.allclose(result.pi0, [0.5, 0.5], atol=1e-8)
        assert result.residual_right <= 1e-10
        assert result.residual_left <= 1e-10
        # decay rate equals the second eigenvalue, computed independently
        eigs = np.sort(np.abs(np.linalg.eigvals(kernel)))
        assert result.observed_rate == pytest.approx(eigs[0], abs=1e-3)

    def test_killed_brownian_motion_loses_mass(self, killed_kernel):
        result = power_iteration_jentzsch(killed_kernel)
        lam_exact = math.exp(-math.pi**2 / 8.0 * 0.1)
        assert result.lambda0 < 1.0
        assert result.lambda0 == pytest.approx(lam_exact, rel=1e-3)
        # the left vector is the quasistationary distribution
        assert np.all(result.pi0 > 0)
        assert result.pi0.sum() == pytest.approx(1.0, abs=1e-12)
        left = result.pi0 @ killed_kernel.matrix
        assert np.max(np.abs(left - result.lambda0 * result.pi0)) <= 1e-10
        # decay toward the Perron direction follows the true spectral ratio
        ratio = math.exp(-(4.0 - 1.0) * math.pi**2 / 8.0 * 0.1)
        assert result.observed_rate == pytest.approx(ratio, abs=0.02)
        bound = 1.0 - 1.0 / fit_cone_bounds(killed_kernel).L ** 2
        assert result.observed_rate <= bound + 1e-9

    def test_left_right_duality(self, killed_kernel):
        result = power_iteration_jentzsch(killed_kernel)
        f = GaussianStream(23).generator().normal(size=killed_kernel.n_states)
        lhs = result.pi0 @ killed_kernel.apply(f)
        rhs = result.lambda0 * (result.pi0 @ f)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_non_convergence_raises(self):
        sluggish = np.array([[0.999, 0.001], [0.001, 0.999]])
        with pytest.raises(RuntimeError, match="did not converge"):
            power_iteration_jentzsch(sluggish, max_iter=3)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            power_iteration_jentzsch(np.array([[1.0, 0.0], [0.5, 0.5]]))
