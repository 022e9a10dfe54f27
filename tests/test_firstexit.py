"""Tests for exit-time Monte Carlo, domains and the closed-form oracles."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab.firstexit import (
    Domain,
    ExitStatistics,
    arcsine_cdf,
    arcsine_occupation,
    ball_exit_expectation,
    ball_hitting_probability,
    fk_conditional_mean,
    fk_laplace_interval,
    fk_laplace_one_sided,
    gbm_exit,
    interval_exit_reference,
    line_hitting_2d,
    mc_exit,
    mc_radial_hitting,
    shell_hitting_probability,
    three_set_bound,
)
from sdelab import firstexit
from sdelab.firstexit import _STEP_BLOCK, _WINDOW_ROW_STEPS, _normal_variance
from sdelab.sde import BlowUpError, GaussianStream, SdeModel, TimeGrid


def ks_statistic(samples: np.ndarray, cdf) -> float:
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.asarray(cdf(s), dtype=float)
    grid = np.arange(n + 1) / n
    return float(max(np.max(np.abs(f - grid[1:])), np.max(np.abs(f - grid[:-1]))))


class TestDomain:
    def test_ball_membership_is_strict(self):
        ball = Domain.ball(1.0, dim=2)
        pts = np.array([[0.0, 0.0], [0.999, 0.0], [1.0, 0.0], [0.8, 0.8]])
        np.testing.assert_array_equal(ball.contains(pts), [True, True, False, False])
        assert ball.dim == 2

    def test_interval_and_half_space_membership(self):
        box = Domain.interval(-1.0, 2.0)
        assert bool(box.contains(np.array([0.0])))
        assert not bool(box.contains(np.array([2.0])))
        below = Domain.half_space(1.0, axis=0, side="below")
        above = Domain.half_space(1.0, axis=0, side="above")
        assert bool(below.contains(np.array([0.5])))
        assert not bool(above.contains(np.array([0.5])))

    def test_non_finite_points_are_outside_every_domain(self):
        bad = np.array([[np.nan, 0.0], [-np.inf, 0.0], [0.0, np.inf], [0.0, 0.0]])
        domains = [Domain.ball(1.0, dim=2), Domain.half_space(1.0, side="below"),
                   Domain.predicate(lambda x: np.ones(x.shape[:-1], dtype=bool))]
        for domain in domains:
            np.testing.assert_array_equal(domain.contains(bad),
                                          [False, False, False, True])
        box = Domain.interval(-1.0, 1.0)
        np.testing.assert_array_equal(
            box.contains(np.array([[np.nan], [np.inf], [-np.inf], [0.0]])),
            [False, False, False, True])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Domain.ball(-1.0)
        with pytest.raises(ValueError):
            Domain.interval(2.0, 2.0)
        with pytest.raises(ValueError):
            Domain.half_space(0.0, side="sideways")
        with pytest.raises(ValueError):
            Domain.ball(1.0, center=(0.0, 0.0), dim=3)

    def test_distance_to_the_boundary(self):
        ball = Domain.ball(2.0, center=(1.0, 0.0))
        np.testing.assert_allclose(ball.distance(np.array([[1.0, 0.0], [1.0, 1.5],
                                                           [4.0, 0.0]])), [2.0, 0.5, -1.0])
        box = Domain.interval(-1.0, 3.0)
        np.testing.assert_array_equal(box.distance(np.array([[0.0], [2.5], [4.0]])),
                                      [1.0, 0.5, -1.0])
        above = Domain.half_space(1.0, axis=1, side="above")
        np.testing.assert_array_equal(above.distance(np.array([[9.0, 3.0], [0.0, 0.5]])),
                                      [2.0, -0.5])
        with pytest.raises(ValueError, match="predicate"):
            Domain.predicate(lambda x: x[..., 0] > 0).distance(np.zeros((1, 1)))

    def test_membership_by_distance_matches_the_direct_comparisons(self):
        rng = np.random.default_rng(12)
        pts = 1.5 * rng.normal(size=(500, 2))
        pts[:6] = [[np.nan, 0.0], [-np.inf, 0.0], [0.0, np.inf], [1.0, 0.0],
                   [0.3, 0.0], [-0.5, -0.2]]
        finite = np.isfinite(pts).all(axis=1)
        expected = {
            Domain.ball(1.0, dim=2): np.linalg.norm(pts, axis=1) < 1.0,
            Domain.interval(-0.5, 0.7): (-0.5 < pts[:, 0]) & (pts[:, 0] < 0.7),
            Domain.half_space(0.3, side="below"): (pts[:, 0] < 0.3) & finite,
            Domain.half_space(-0.2, axis=1, side="above"): (pts[:, 1] > -0.2) & finite,
        }
        for domain, inside in expected.items():
            np.testing.assert_array_equal(domain.contains(pts), inside)

    def test_nearest_boundary_point(self):
        ball = Domain.ball(2.0, center=(1.0, 0.0))
        np.testing.assert_allclose(
            ball._nearest_boundary_point(np.array([[1.0, 1.0], [4.0, 0.0]])),
            [[1.0, 2.0], [3.0, 0.0]])
        box = Domain.interval(-1.0, 3.0)
        np.testing.assert_array_equal(
            box._nearest_boundary_point(np.array([[0.5], [1.5]])), [[-1.0], [3.0]])
        below = Domain.half_space(1.0, axis=1)
        np.testing.assert_array_equal(
            below._nearest_boundary_point(np.array([[5.0, 0.2]])), [[5.0, 1.0]])

    def test_normal_variance_is_the_variance_along_the_normal(self):
        g = np.array([[0.6, 0.3, -0.2], [0.1, -0.5, 0.4]])
        diffusion = g @ g.T
        pts = np.array([[0.3, -0.4], [-2.0, 0.1], [0.0, 5.0]])
        normals = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        np.testing.assert_allclose(
            _normal_variance(Domain.ball(1.0, dim=2), diffusion, pts),
            np.sum((normals @ g) ** 2, axis=1), rtol=1e-14)
        assert _normal_variance(Domain.half_space(0.0, axis=1), diffusion, pts) == \
            diffusion[1, 1]
        assert _normal_variance(Domain.interval(-1.0, 1.0), np.array([[0.7]]),
                                pts[:, :1]) == 0.7

    def test_ball_exit_fraction_lands_on_sphere(self):
        ball = Domain.ball(1.5, center=(0.5, -0.25))
        rng = np.random.default_rng(11)
        p = ball.center + 0.3 * rng.normal(size=(64, 2))
        q = ball.center + 4.0 * rng.normal(size=(64, 2))
        q = q[~ball.contains(q)]
        p = p[: q.shape[0]]
        lam = ball.exit_fraction(p, q)
        pts = p + lam[:, None] * (q - p)
        radii = np.linalg.norm(pts - ball.center, axis=1)
        np.testing.assert_allclose(radii, 1.5, atol=1e-12)

    def test_predicate_bisection_matches_analytic_ball(self):
        analytic = Domain.ball(1.0, dim=2)
        implicit = Domain.predicate(lambda x: np.linalg.norm(x, axis=-1) < 1.0)
        p = np.array([[0.2, 0.1], [-0.4, 0.3], [0.0, 0.0]])
        q = np.array([[2.0, 0.5], [-1.5, 1.2], [0.0, -3.0]])
        np.testing.assert_allclose(
            implicit.exit_fraction(p, q), analytic.exit_fraction(p, q), atol=1e-9
        )

    def test_interval_exit_fraction_picks_first_crossing(self):
        box = Domain.interval(-1.0, 1.0)
        p = np.array([[0.5], [-0.5]])
        q = np.array([[1.5], [-3.5]])
        np.testing.assert_allclose(box.exit_fraction(p, q), [0.5, 1.0 / 6.0])

    def test_boundary_parameter_interval_and_ball(self):
        box = Domain.interval(-1.0, 1.0)
        np.testing.assert_array_equal(
            box.boundary_parameter(np.array([[-1.0], [1.0]])), [0.0, 1.0]
        )
        disk = Domain.ball(2.0, dim=2)
        params = disk.boundary_parameter(np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0]]))
        np.testing.assert_allclose(params, [0.0, 0.25, 0.5])
        assert Domain.ball(1.0, dim=3).boundary_parameter(np.zeros((1, 3))) is None
        assert Domain.half_space(0.0).boundary_parameter(np.zeros((1, 1))) is None


class TestExitStatistics:
    def make(self, **kw):
        defaults = dict(
            exit_times=np.array([1.0, 2.0, 3.0]), path_ids=np.array([0, 2, 3]),
            n_paths=4, t_max=50.0, boundary_params=np.array([0.0, 1.0, 1.0]),
        )
        defaults.update(kw)
        return ExitStatistics.from_samples(**defaults)

    def test_summary_fields(self):
        stats = self.make()
        assert stats.n_exited == 3
        assert stats.fraction_censored == pytest.approx(0.25)
        assert stats.valid
        assert stats.mean_time == pytest.approx(2.0)
        assert stats.time_std_error == pytest.approx(1.0 / math.sqrt(3))

    def test_laplace_counts_censored_paths_as_zero(self):
        stats = self.make()
        est, se = stats.laplace(1.0)
        expected = (math.exp(-1) + math.exp(-2) + math.exp(-3)) / 4
        assert est == pytest.approx(expected)
        assert se > 0
        right, _ = stats.laplace(1.0, stats.boundary_params == 1.0)
        assert right == pytest.approx((math.exp(-2) + math.exp(-3)) / 4)

    def test_invalid_when_everything_censored(self):
        stats = self.make(exit_times=np.empty(0), path_ids=np.empty(0, dtype=int),
                          boundary_params=None)
        assert not stats.valid
        assert math.isnan(stats.mean_time)
        assert stats.fraction_censored == 1.0

    def test_histogram_covers_unit_interval(self):
        stats = self.make()
        counts, edges = stats.exit_location_histogram(n_bins=8)
        assert counts.sum() == 3
        assert edges[0] == 0.0 and edges[-1] == 1.0
        with pytest.raises(ValueError):
            self.make(boundary_params=None).exit_location_histogram()

    def test_json_and_csv_outputs(self, tmp_path):
        stats = self.make()
        jpath = tmp_path / "stats.json"
        stats.to_json(jpath)
        payload = json.loads(jpath.read_text())
        assert payload["n_paths"] == 4
        assert payload["mean_time"] == pytest.approx(2.0)
        assert payload["time_std_error"] == pytest.approx(1.0 / math.sqrt(3))

        cpath = tmp_path / "samples.csv"
        stats.save_samples(cpath)
        lines = cpath.read_text().splitlines()
        assert lines[0] == "path_id,exit_time,boundary_parameter"
        assert len(lines) == 4
        assert lines[1].startswith("0,1.0,")


class TestMcExit:
    def test_rejects_outside_start_and_bad_step(self):
        model = SdeModel.brownian()
        box = Domain.interval(-1.0, 1.0)
        with pytest.raises(ValueError):
            mc_exit(model, 1.5, box, h=1e-2, n_paths=8, stream=GaussianStream(1))
        with pytest.raises(ValueError):
            mc_exit(model, 0.0, box, h=-1e-2, n_paths=8, stream=GaussianStream(1))
        with pytest.raises(ValueError):
            mc_exit(model, np.zeros(2), box, h=1e-2, n_paths=8, stream=GaussianStream(1))

    def test_rejects_a_run_without_paths(self):
        # an empty run has no censored fraction to report
        with pytest.raises(ValueError, match="n_paths must be at least 1, got 0"):
            mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0), h=1e-2,
                    n_paths=0, stream=GaussianStream(1), t_max=1.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="step size h must be positive and finite"):
            mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0), h=h,
                    n_paths=8, stream=GaussianStream(1), t_max=1.0)

    @pytest.mark.parametrize("t_max", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, t_max):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0), h=1e-2,
                    n_paths=8, stream=GaussianStream(1), t_max=t_max)

    def test_interval_mean_exit_matches_dynkin_at_three_points(self):
        model = SdeModel.brownian()
        box = Domain.interval(-1.0, 1.0)
        for i, x0 in enumerate((0.0, 0.4, -0.6)):
            stats = mc_exit(model, x0, box, h=5e-4, n_paths=2000,
                            stream=GaussianStream(8321, stream_id=i), t_max=50.0)
            assert stats.fraction_censored < 1e-3
            expected = 1.0 - x0**2
            assert abs(stats.mean_time - expected) < 3 * stats.time_std_error + 0.03

    def test_disk_mean_exit_time(self):
        stats = mc_exit(SdeModel.brownian(dim=2), np.zeros(2), Domain.ball(1.0, dim=2),
                        h=2e-3, n_paths=1500, stream=GaussianStream(8322), t_max=40.0)
        assert abs(stats.mean_time - 0.5) < 3 * stats.time_std_error + 0.04

    def test_halving_the_step_keeps_the_mean_exit_time_unbiased(self):
        # node-only detection misses crossings between nodes: on these streams
        # it reads 1.095 at h = 1e-2 and 1.045 at 2.5e-3, 4.7 and 2.4 standard
        # errors high; the bridge kill leaves an O(h) bias inside the noise
        model = SdeModel.brownian()
        box = Domain.interval(-1.0, 1.0)
        for h, seed in ((1e-2, 8323), (2.5e-3, 8324)):
            stats = mc_exit(model, 0.0, box, h=h, n_paths=2000,
                            stream=GaussianStream(seed), t_max=50.0)
            assert abs(stats.mean_time - 1.0) < 3 * stats.time_std_error

    def test_nested_balls_exit_earlier_path_by_path(self):
        model = SdeModel.brownian(dim=2)
        kwargs = dict(h=2e-3, n_paths=400, t_max=60.0)
        big = mc_exit(model, np.zeros(2), Domain.ball(1.0, dim=2),
                      stream=GaussianStream(8325), **kwargs)
        small = mc_exit(model, np.zeros(2), Domain.ball(0.6, dim=2),
                        stream=GaussianStream(8325), **kwargs)
        assert big.fraction_censored == 0.0 and small.fraction_censored == 0.0
        assert np.all(small.exit_times <= big.exit_times + 1e-12)

    def test_all_censored_run_is_flagged(self):
        with pytest.warns(UserWarning, match="censored"):
            stats = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-50.0, 50.0),
                            h=1e-3, n_paths=32, stream=GaussianStream(8326), t_max=0.05)
        assert not stats.valid
        assert stats.fraction_censored == 1.0

    def test_laplace_transform_matches_cosh_formula(self):
        stats = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                        h=5e-4, n_paths=3000, stream=GaussianStream(8327),
                        t_max=50.0)
        est, se = stats.laplace(1.0)
        exact = 1.0 / math.cosh(math.sqrt(2.0))
        assert abs(est - exact) < 3 * se + 0.012

    def test_laplace_map_is_completely_monotone_within_noise(self):
        lambdas = (0.25, 0.5, 1.0, 2.0, 4.0)
        stats = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                        h=1e-3, n_paths=4000, stream=GaussianStream(8328),
                        t_max=50.0)
        vals = np.array([stats.laplace(l)[0] for l in lambdas])
        assert np.all(np.diff(vals) < 0)
        # log-convexity on an uneven grid: secant slopes must increase
        slopes = np.diff(np.log(vals)) / np.diff(lambdas)
        assert np.all(np.diff(slopes) > -0.02)

    def test_exit_side_frequencies_match_hitting_probability(self):
        x0 = 0.5
        stats = mc_exit(SdeModel.brownian(), x0, Domain.interval(-1.0, 1.0),
                        h=5e-4, n_paths=2000, stream=GaussianStream(8329), t_max=50.0)
        frac_right = float(np.mean(stats.boundary_params))
        assert abs(frac_right - 0.75) < 0.04

    def test_blow_up_propagates(self):
        # step_index recorded when every active row was checked on every
        # step: blow-up must surface at the same step among the exiting rows
        cubic = SdeModel.scalar(lambda x: x**3, lambda x: 0.1)
        whole_line = Domain.predicate(lambda x: np.ones(x.shape[:-1], dtype=bool))
        for domain in (whole_line, Domain.interval(-1e300, 1e300)):
            with pytest.raises(BlowUpError) as excinfo:
                mc_exit(cubic, 2.0, domain, h=0.1, n_paths=4,
                        stream=GaussianStream(8330), t_max=10.0)
            assert excinfo.value.step_index == 9

    def test_domain_dimension_must_match_the_model(self):
        with pytest.raises(ValueError, match="2-dimensional model"):
            mc_exit(SdeModel.brownian(2), [0.0, 0.0], Domain.interval(-1.0, 1.0),
                    h=1e-2, n_paths=4, stream=GaussianStream(8330), t_max=1.0)

    def test_pilot_run_sets_generous_horizon(self):
        stats = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                        h=2e-3, n_paths=500, stream=GaussianStream(8331))
        assert 10.0 < stats.t_max < 200.0
        assert stats.fraction_censored < 1e-3

    def test_pilot_failure_raises(self):
        with pytest.warns(UserWarning, match="censored"):
            with pytest.raises(RuntimeError, match="pilot"):
                mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1e6, 1e6),
                        h=1e-3, n_paths=16, stream=GaussianStream(8332))

    def test_runs_are_reproducible(self):
        a = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                    h=1e-2, n_paths=64, stream=GaussianStream(8333), t_max=30.0)
        b = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                    h=1e-2, n_paths=64, stream=GaussianStream(8333), t_max=30.0)
        np.testing.assert_array_equal(a.exit_times, b.exit_times)

    def test_noise_layout_is_pinned(self):
        # Golden values from ``per_step_exit`` below: the (path, step) noise
        # layout of the Gaussians and of the bridge's exponentials fixes every
        # manifest SHA-256, so any change to it must show up here.  Path 5 is
        # censored, the run spans ten step blocks, and paths 0-2, 7-9, 13 and
        # 14 are killed inside a step, at (k + 1/2) h.
        stats = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                        h=1e-3, n_paths=16, stream=GaussianStream(2024), t_max=2.5)
        assert stats.exit_times.tolist() == [
            0.4975, 1.1265, 0.2455, 1.698640472344855, 1.0179918515924853,
            1.4445671677657461, 0.8425, 0.2985, 1.9385000000000001,
            0.7491558320860742, 0.8766476042003123, 1.3206300895331795,
            0.2565, 0.7605000000000001, 1.1248530540585588,
        ]
        assert stats.path_ids.tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15]
        assert stats.boundary_params.tolist() == [
            1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0,
            0.0, 1.0,
        ]

    def test_thread_count_does_not_change_results(self):
        # threads 2 and 3 shard the 2500 paths into contiguous ranges; a
        # short switch interval makes the shards interleave often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                            h=1e-3, n_paths=2500, stream=GaussianStream(8335),
                            t_max=0.5, threads=threads)
                    for threads in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        assert 0 < runs[0].n_exited < 2500
        # some paths are killed inside a step, at (k + 1/2) h
        assert np.any(np.abs(runs[0].exit_times / 1e-3 % 1.0 - 0.5) < 1e-6)
        for other in runs[1:]:
            np.testing.assert_array_equal(other.exit_times, runs[0].exit_times)
            np.testing.assert_array_equal(other.path_ids, runs[0].path_ids)
            np.testing.assert_array_equal(other.boundary_params,
                                          runs[0].boundary_params)

    def test_multi_block_noise_layout_is_pinned(self):
        # 1100 paths over ten step blocks, each path from its own addresses
        stats = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                        h=1e-3, n_paths=1100, stream=GaussianStream(2024), t_max=2.5)
        # golden from ``per_step_exit``, in which 500 of the paths are killed
        assert stats.n_exited == 1035
        digest = hashlib.sha256(stats.exit_times.tobytes()).hexdigest()
        assert digest == ("77e92d68cd5ee1167f82d835ebcb6d48"
                          "44263f7fe6ca2ece2666fb54c2881b23")

    def test_runs_are_prefix_stable(self):
        # a path's noise depends on its address alone, not on how many paths
        # run: the first 100 of 10 000 paths are a 100-path run, also past
        # the first step block
        kwargs = dict(h=1e-3, stream=GaussianStream(8336), t_max=3.0)
        big = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                      n_paths=10_000, **kwargs)
        small = mc_exit(SdeModel.brownian(), 0.0, Domain.interval(-1.0, 1.0),
                        n_paths=100, **kwargs)
        assert np.any(small.exit_times > _STEP_BLOCK * 1e-3)
        first = big.path_ids < 100
        np.testing.assert_array_equal(big.exit_times[first], small.exit_times)
        np.testing.assert_array_equal(big.path_ids[first], small.path_ids)
        np.testing.assert_array_equal(big.boundary_params[first],
                                      small.boundary_params)

    def test_earliest_blow_up_over_all_shards_is_raised(self):
        cubic = SdeModel.scalar(lambda x: x**3, lambda x: 0.5)
        whole_line = Domain.predicate(lambda x: np.ones(x.shape[:-1], dtype=bool))

        def blow_up_step(n_paths, threads=1):
            with pytest.raises(BlowUpError) as excinfo:
                mc_exit(cubic, 0.0, whole_line, h=0.05, n_paths=n_paths,
                        stream=GaussianStream(8333), t_max=40.0, threads=threads)
            return excinfo.value.step_index

        # goldens from ``per_step_exit``: the first 1500 paths on their own
        # blow up later than path 2188, so at 2 or 3 threads the first
        # shard's blow-up is not the one to report
        assert blow_up_step(1500) == 24
        assert [blow_up_step(3000, threads) for threads in (1, 2, 3)] == [23] * 3


def per_step_exit(model, x0, domain, *, h, n_paths, stream, t_max):
    """First exits from a plain loop that checks every path after every step.

    It draws ``mc_exit``'s noise in full, for every path and step block,
    from a Philox it builds for each address: in step block ``c`` path
    ``p`` takes its Gaussians from counter ``(0, p, c, 0)`` under the key of
    ``stream.child(0)``, and the bridge's exponentials from counter
    ``(0, p, c, 1)``.  It keeps stepping paths after they exit.  Where the
    domain has a distance and the model a constant dispersion, a path with
    both nodes of a step inside is killed in that step when
    ``d0 d1 < min(E, cap) s2 h / 2``, for its standard exponential ``E``
    and ``cap = _KILL_CAP``: probability ``exp(-2 d0 d1 / (s2 h))``, or 0
    below ``exp(-cap)``.  Returns exit times, exit points, per path whether
    it was killed, and whether it was back inside the domain at a later
    step of the same step block.
    """
    n_steps = math.ceil(t_max / h)
    key = stream.child(0).generator().bit_generator.state["state"]["key"]

    def address(path, block, kind):
        return np.random.Generator(np.random.Philox(key=key, counter=(0, path, block, kind)))

    g = model.constant_dispersion
    bridge = domain.kind != "predicate" and g is not None
    rows = np.arange(n_paths)
    x = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    times = np.full(n_paths, np.nan)
    points = np.zeros_like(x)
    killed = np.zeros(n_paths, dtype=bool)
    returned = np.zeros(n_paths, dtype=bool)
    for step in range(n_steps):
        block, at = divmod(step, _STEP_BLOCK)
        if at == 0:
            nb = min(_STEP_BLOCK, n_steps - step)
            dw = np.array([address(p, block, 0).standard_normal((nb, model.dim_noise))
                           for p in range(n_paths)]) * math.sqrt(h)
            e = np.array([address(p, block, 1).standard_exponential(nb)
                          for p in range(n_paths)])
            exit_block = np.full(n_paths, -1)
        gx = g if g is not None else model.dispersion(x)
        x_new = x + model.drift(x) * h + np.einsum("...ik,...k->...i", gx, dw[rows, at])
        inside = domain.contains(x_new)
        kill = np.zeros(n_paths, dtype=bool)
        if bridge:
            var = _normal_variance(domain, g @ g.T, x_new)
            slack = np.minimum(e[:, at], firstexit._KILL_CAP) * (var * (0.5 * h))
            kill = inside & (domain.distance(x) * domain.distance(x_new) < slack)
        first = (~inside | kill) & np.isnan(times)
        if first.any():
            p, q = x[first], x_new[first]
            lam = np.where(kill[first], 0.5, domain.exit_fraction(p, q))
            times[first] = (step + lam) * h
            points[first] = p + lam[:, np.newaxis] * (q - p)
            new_kills = first & kill
            if new_kills.any():
                points[new_kills] = domain._nearest_boundary_point(x_new[new_kills])
            killed |= new_kills
            exit_block[first] = block
        returned |= inside & (exit_block == block)
        x = x_new
    return times, points, killed, returned


class TestWindowedExitMatchesPerStepLoop:
    """``mc_exit`` checks exits once per window of steps; it must record the
    same first exits, bit for bit, as a loop that checks after every step."""

    @staticmethod
    def assert_same_exits(model, x0, domain, **kwargs):
        stats = mc_exit(model, x0, domain, **kwargs)
        times, points, killed, returned = per_step_exit(model, x0, domain, **kwargs)
        exited = np.flatnonzero(~np.isnan(times))
        assert exited.size > 0
        assert stats.path_ids.tolist() == exited.tolist()
        assert stats.exit_times.tolist() == times[exited].tolist()
        params = domain.boundary_parameter(points[exited])
        if params is None:
            assert stats.boundary_params is None
        else:
            assert stats.boundary_params.tolist() == params.tolist()
        return killed, returned

    @staticmethod
    def dense_disk_model():
        g = np.array([[0.6, 0.3, -0.2], [0.1, -0.5, 0.4]])
        return SdeModel(dim_state=2, dim_noise=3,
                        drift=lambda x: -0.5 * x + np.sin(x[..., ::-1]),
                        dispersion=lambda x: np.broadcast_to(g, x.shape[:-1] + g.shape),
                        constant_dispersion=g)

    def test_dense_constant_dispersion_in_a_disk(self):
        # 3000 steps span two step blocks and several windows per block
        killed, _ = self.assert_same_exits(
            self.dense_disk_model(), [0.2, -0.1], Domain.ball(1.0, dim=2), h=1e-3,
            n_paths=40, stream=GaussianStream(8340), t_max=3.0)
        assert killed.any()

    def test_kill_takes_the_normal_variance_at_the_end_node(self):
        # at this step the variance along the start node's normal would
        # decide some kills differently
        killed, _ = self.assert_same_exits(
            self.dense_disk_model(), [0.2, -0.1], Domain.ball(1.0, dim=2), h=1e-2,
            n_paths=100, stream=GaussianStream(8340), t_max=4.0)
        assert killed.sum() > 20

    def test_bridge_kills_on_an_interval(self):
        # 1100 paths, each with its own Gaussians and exponentials
        model = SdeModel.scalar(lambda x: -x, 0.7)
        killed, _ = self.assert_same_exits(
            model, 0.3, Domain.interval(-0.8, 1.0), h=2e-2, n_paths=1100,
            stream=GaussianStream(8343), t_max=2.0)
        assert killed[:1024].any() and killed[1024:].any()

    def test_bridge_kills_at_a_half_space(self):
        model = SdeModel.brownian(2)
        killed, _ = self.assert_same_exits(
            model, [0.0, 0.0], Domain.half_space(0.5, axis=1, side="below"),
            h=1e-2, n_paths=64, stream=GaussianStream(8344), t_max=4.0)
        assert killed.any()

    def test_a_low_cap_leaves_the_lazy_draws_exact(self, monkeypatch):
        # at a cap of 0.3 a window needs exponentials only for a step within
        # about 0.4 sqrt(h) of the boundary, and the cap decides most kills;
        # one step per window leaves many windows without such a step
        monkeypatch.setattr(firstexit, "_KILL_CAP", 0.3)
        monkeypatch.setattr(firstexit, "_WINDOW_ROW_STEPS", 256)
        killed, _ = self.assert_same_exits(
            SdeModel.scalar(lambda x: 0.0 * x, 0.2), 0.0, Domain.interval(-1.0, 1.0),
            h=1e-2, n_paths=1100, stream=GaussianStream(8345), t_max=30.0)
        assert killed[:1024].any() and killed[1024:].any()

    def test_state_dependent_dispersion_is_evaluated_per_step(self):
        shapes = []

        def sigma(x):
            shapes.append(np.shape(x))
            return 0.5 + 0.25 * np.sin(3.0 * x)

        model = SdeModel.scalar(lambda x: -x, sigma)
        assert model.constant_dispersion is None
        killed, _ = self.assert_same_exits(
            model, 0.3, Domain.interval(-0.8, 1.0), h=1e-3, n_paths=24,
            stream=GaussianStream(8341), t_max=3.0)
        # no constant dispersion, no bridge: exits are detected at nodes
        assert not killed.any()
        # one call per step on the active rows, never on a window of steps
        assert {len(shape) for shape in shapes} == {2}

    def test_first_exit_is_kept_when_a_path_comes_back_inside(self):
        box = Domain.predicate(lambda x: np.abs(x[..., 0]) < 1.0)
        n_paths, n_steps = 16, 1000
        # with this few paths each window is a whole step block
        assert _WINDOW_ROW_STEPS // n_paths >= _STEP_BLOCK
        killed, returned = self.assert_same_exits(
            SdeModel.brownian(), 0.0, box, h=1e-2, n_paths=n_paths,
            stream=GaussianStream(8342), t_max=n_steps * 1e-2)
        assert returned.any()
        assert not killed.any()  # a predicate domain has no distance


class TestRadialHitting:
    def test_three_dimensional_shell(self):
        p, se = mc_radial_hitting(2.0, 1.0, 8.0, dim=3, n_paths=4000,
                                  stream=GaussianStream(8340))
        exact = shell_hitting_probability(1.0, 8.0, 2.0, 3)
        assert exact == pytest.approx(3.0 / 7.0)
        assert abs(p - exact) < 3 * se + 0.005

    def test_two_dimensional_shell_uses_log_scale(self):
        p, se = mc_radial_hitting(math.e, 1.0, math.e**2, dim=2, n_paths=2000,
                                  stream=GaussianStream(8341))
        assert shell_hitting_probability(1.0, math.e**2, math.e, 2) == pytest.approx(0.5)
        assert abs(p - 0.5) < 3 * se + 0.005

    def test_one_dimensional_shell_is_linear(self):
        p, se = mc_radial_hitting(2.0, 1.0, 3.0, dim=1, n_paths=2000,
                                  stream=GaussianStream(8342))
        assert abs(p - 0.5) < 3 * se + 0.005

    def test_validation(self):
        stream = GaussianStream(0)
        with pytest.raises(ValueError):
            mc_radial_hitting(0.5, 1.0, 8.0, dim=3, n_paths=10, stream=stream)
        with pytest.raises(ValueError):
            mc_radial_hitting(2.0, 1.0, 8.0, dim=0, n_paths=10, stream=stream)

    def test_rejects_a_run_without_paths(self):
        with pytest.raises(ValueError, match="n_paths must be at least 1, got 0"):
            mc_radial_hitting(2.0, 1.0, 8.0, dim=3, n_paths=0,
                              stream=GaussianStream(0))
        # one path has no standard error
        with pytest.raises(ValueError, match="n_paths must be at least 2"):
            mc_radial_hitting(2.0, 1.0, 8.0, dim=3, n_paths=1,
                              stream=GaussianStream(0))

    def test_reproducible(self):
        a = mc_radial_hitting(2.0, 1.0, 8.0, dim=3, n_paths=500,
                              stream=GaussianStream(8343))
        b = mc_radial_hitting(2.0, 1.0, 8.0, dim=3, n_paths=500,
                              stream=GaussianStream(8343))
        assert a == b


@pytest.fixture(scope="module")
def run():
    return line_hitting_2d(3000, h=0.01, stream=GaussianStream(8350), t_max=2000.0)


class TestLineHitting:
    def test_censoring_is_small_but_present(self, run):
        assert 0.0 < run.fraction_censored < 0.05
        assert run.tau_samples.size == run.w2_samples.size

    def test_median_crossing_time(self, run):
        # median of tau solves 2(1 - Phi(1/sqrt(t))) = 1/2
        assert np.median(run.tau_samples) == pytest.approx(2.1981093383177326, abs=0.3)

    def test_crossing_location_is_cauchy(self, run):
        ks = ks_statistic(run.w2_samples, lambda x: 0.5 + np.arctan(x) / math.pi)
        assert ks < 0.035

    def test_crossing_location_is_symmetric(self, run):
        assert abs(np.median(run.w2_samples)) < 0.12

    def test_validation(self):
        with pytest.raises(ValueError):
            line_hitting_2d(0, h=0.01, stream=GaussianStream(0))
        with pytest.raises(ValueError):
            line_hitting_2d(10, h=0.0, stream=GaussianStream(0))

    def test_rejects_a_step_that_is_not_a_positive_number(self):
        with pytest.raises(ValueError, match="step size h must be positive and finite"):
            line_hitting_2d(10, h=math.nan, stream=GaussianStream(0))

    def test_rejects_a_negative_horizon(self):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            line_hitting_2d(10, h=0.01, stream=GaussianStream(0), t_max=-1.0)


class TestBallClosedForms:
    def test_mean_exit_examples(self):
        assert ball_exit_expectation(1.0, np.zeros(2), 2) == pytest.approx(0.5)
        assert ball_exit_expectation(1.0, 0.0, 1) == pytest.approx(1.0)
        assert ball_exit_expectation(2.0, (0.0, 0.0, 1.999), 3) == pytest.approx(
            (4.0 - 1.999**2) / 3
        )

    def test_mean_exit_validation(self):
        with pytest.raises(ValueError):
            ball_exit_expectation(1.0, (1.0, 0.0), 2)
        with pytest.raises(ValueError):
            ball_exit_expectation(1.0, 0.0, 0)

    @given(st.floats(-0.99, 0.99))
    def test_one_dimensional_ball_agrees_with_interval_formula(self, x):
        assert ball_exit_expectation(1.0, x, 1) == pytest.approx(1.0 - x**2)

    def test_hitting_probability_examples(self):
        assert ball_hitting_probability(1.0, (2.0, 0.0, 0.0), 3) == pytest.approx(0.5)
        assert ball_hitting_probability(1.0, (5.0, 0.0), 2) == 1.0
        assert ball_hitting_probability(1.0, 7.0, 1) == 1.0

    def test_hitting_probability_validation(self):
        with pytest.raises(ValueError):
            ball_hitting_probability(1.0, (0.5, 0.0), 3)

    def test_shell_formula_frozen_value(self):
        assert shell_hitting_probability(1.0, 64.0, 2.0, 3) == pytest.approx(31.0 / 63.0)

    def test_shell_formula_approaches_infinite_limit(self):
        finite = shell_hitting_probability(1.0, 1e9, 2.0, 3)
        assert finite == pytest.approx(ball_hitting_probability(1.0, 2.0, 3), abs=1e-8)

    @given(st.floats(1.5, 10.0), st.floats(11.0, 50.0))
    def test_shell_probability_decreases_with_start_radius(self, r1, r_outer):
        p1 = shell_hitting_probability(1.0, r_outer, r1, 3)
        p2 = shell_hitting_probability(1.0, r_outer, min(r1 + 0.5, r_outer - 1e-6), 3)
        assert p2 <= p1 + 1e-12

    def test_shell_validation(self):
        with pytest.raises(ValueError):
            shell_hitting_probability(2.0, 1.0, 1.5, 3)


class TestGbmExit:
    def test_scale_function_solves_the_ode_symbolically(self):
        x, r = sympy.symbols("x r", positive=True)
        u = x ** (1 - 2 * r)
        residual = sympy.simplify(x**2 / 2 * sympy.diff(u, x, 2) + r * x * sympy.diff(u, x))
        assert residual == 0

    def test_driftless_case_is_linear(self):
        split = gbm_exit(0.0, 0.5, 2.0, 1.0)
        assert split.p_hit_a_first == pytest.approx((2.0 - 1.0) / (2.0 - 0.5))
        assert split.p_hit_b_first == pytest.approx(1.0 / 3.0)
        assert split.mean_time_to_b is None

    def test_zero_lower_level_limits(self):
        assert gbm_exit(0.0, 0.0, 2.0, 1.0).p_hit_b_first == pytest.approx(0.5)
        assert gbm_exit(0.3, 0.0, 2.0, 1.0).p_hit_b_first == pytest.approx(2.0**-0.4)
        assert gbm_exit(1.0, 0.0, 2.0, 1.0).p_hit_b_first == 1.0

    def test_frozen_interior_value(self):
        split = gbm_exit(0.3, 0.5, 2.0, 1.0)
        assert split.p_hit_b_first == pytest.approx(0.43112592776921616, rel=1e-12)
        assert split.p_hit_a_first + split.p_hit_b_first == pytest.approx(1.0)

    def test_mean_passage_for_winning_drift(self):
        split = gbm_exit(1.0, 0.0, 2.0, 1.0)
        assert split.mean_time_to_b == pytest.approx(2.0 * math.log(2.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="logarithmic"):
            gbm_exit(0.5, 0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            gbm_exit(0.0, 1.5, 2.0, 1.0)

    def test_monte_carlo_agrees_with_split(self):
        model = SdeModel.scalar(lambda x: 0.0 * x, lambda x: x)
        stats = mc_exit(model, 1.0, Domain.interval(0.5, 2.0), h=5e-4,
                        n_paths=1500, stream=GaussianStream(8360), t_max=60.0)
        frac_upper = float(np.mean(stats.boundary_params))
        assert abs(frac_upper - 1.0 / 3.0) < 0.045


class TestFeynmanKacFormulas:
    def test_frozen_cosh_values(self):
        assert fk_laplace_interval(0.5, 1.0, 0.0) == pytest.approx(0.6480542736638855)
        assert fk_laplace_interval(1.0, 1.0, 0.0) == pytest.approx(0.45909813108542546)
        assert fk_laplace_interval(2.0, 1.0, 0.0) == pytest.approx(0.2658022288340797)

    def test_zero_lambda_limits(self):
        assert fk_laplace_interval(0.0, 1.0, 0.3) == 1.0
        assert fk_laplace_one_sided(0.0, 1.0, 0.3) == pytest.approx(0.65)
        tiny = fk_laplace_one_sided(1e-12, 1.0, 0.3)
        assert tiny == pytest.approx(0.65, abs=1e-6)

    def test_one_sided_is_half_of_two_sided_at_centre(self):
        for lam in (0.3, 1.0, 2.5):
            assert fk_laplace_one_sided(lam, 1.0, 0.0) == pytest.approx(
                fk_laplace_interval(lam, 1.0, 0.0) / 2
            )

    def test_derivative_at_zero_recovers_mean_exit_time(self):
        # -d/dlambda E[e^{-lambda tau}] at 0+ equals E[tau] = a^2 - x^2
        a, x, eps = 1.0, 0.4, 1e-6
        slope = (1.0 - fk_laplace_interval(eps, a, x)) / eps
        assert slope == pytest.approx(a**2 - x**2, abs=1e-4)

    @given(st.floats(0.5, 3.0), st.floats(-0.9, 0.9))
    def test_conditional_identity(self, a, frac):
        x = frac * a
        product = fk_laplace_one_sided(0.0, a, x) * fk_conditional_mean(a, x)
        expected = (a**2 - x**2) * (3 * a + x) / (6 * a)
        assert product == pytest.approx(expected, rel=1e-12)

    def test_domain_validation(self):
        for fn in (lambda: fk_laplace_interval(1.0, 1.0, 1.5),
                   lambda: fk_laplace_one_sided(1.0, 1.0, -1.5),
                   lambda: fk_conditional_mean(1.0, 2.0),
                   lambda: fk_laplace_interval(-1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                fn()

    def test_vectorised_evaluation(self):
        xs = np.array([-0.5, 0.0, 0.5])
        vals = fk_laplace_interval(1.0, 1.0, xs)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(vals[2])  # even in x


class TestIntervalExitReference:
    """The scale-function quadrature against closed forms and pinned values."""

    @pytest.mark.parametrize("x0, a, b", [(0.0, -1.0, 1.0), (0.4, -1.0, 1.0),
                                          (0.3, -0.5, 2.0)])
    def test_brownian_motion_matches_dynkin(self, x0, a, b):
        mean, p_b = interval_exit_reference(SdeModel.brownian(), x0, a, b)
        assert abs(mean - (b - x0) * (x0 - a)) < 1e-10
        assert abs(p_b - (x0 - a) / (b - a)) < 1e-10

    @pytest.mark.parametrize("eps, value", [(0.5, 0.752217), (0.35, 0.805870),
                                            (0.25, 0.827934), (0.125, 0.864487)])
    def test_ornstein_uhlenbeck_scaled_log_times(self, eps, value):
        # U = x^2/2 on (-1, 1) from the bottom of the well
        model = SdeModel.scalar(lambda x: -x, math.sqrt(eps))
        mean, p_b = interval_exit_reference(model, 0.0, -1.0, 1.0)
        assert eps * math.log(mean) == pytest.approx(value, abs=5e-7)
        assert p_b == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("eps, value", [(0.15, 136.0807), (0.5, 10.8151)])
    def test_double_well_transition_time(self, eps, value):
        # U = x^4/4 - x^2/2 on (-4, 0.5) from -1: 2U/eps reaches 750 on the
        # floor, where an unshifted exp(2U/eps) overflows
        model = SdeModel.scalar(lambda x: x - x**3, math.sqrt(eps))
        mean, p_b = interval_exit_reference(model, -1.0, -4.0, 0.5)
        assert mean == pytest.approx(value, abs=5e-5)
        assert p_b == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="constant dispersion"):
            interval_exit_reference(SdeModel.brownian(2), 0.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="constant dispersion"):
            interval_exit_reference(SdeModel.scalar(lambda x: -x, lambda x: 1 + x * x),
                                    0.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="a < x0 < b"):
            interval_exit_reference(SdeModel.brownian(), 1.0, -1.0, 1.0)


class TestArcsine:
    def test_cdf_reference_points(self):
        assert arcsine_cdf(0.5) == pytest.approx(0.5)
        assert arcsine_cdf(0.25) == pytest.approx(1.0 / 3.0)
        assert arcsine_cdf(0.0) == 0.0 and arcsine_cdf(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            arcsine_cdf(1.5)

    def test_occupation_samples_follow_arcsine_law(self):
        grid = TimeGrid(0.0, 1.0, 500)
        frac = arcsine_occupation(2000, grid, GaussianStream(8370))
        assert frac.shape == (2000,)
        assert np.all((frac >= 0) & (frac <= 1))
        assert np.all(np.diff(frac) >= 0)  # sorted
        assert ks_statistic(frac, arcsine_cdf) < 0.06

    def test_occupation_extremes_are_rare_but_possible(self):
        grid = TimeGrid(0.0, 1.0, 100)
        frac = arcsine_occupation(3000, grid, GaussianStream(8371))
        # the arcsine density piles up near 0 and 1
        edge_mass = np.mean((frac < 0.1) | (frac > 0.9))
        assert edge_mass > 0.3


class TestThreeSetBound:
    def test_worked_example(self):
        assert three_set_bound(1.0, 0.5, 2.0) == pytest.approx(4.0)

    def test_zero_detour_probability(self):
        assert three_set_bound(1.7, 0.0, 99.0) == pytest.approx(1.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            three_set_bound(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            three_set_bound(-1.0, 0.5, 2.0)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 0.95), st.floats(0.0, 10.0))
    def test_bound_dominates_direct_leg(self, e1, p, e2):
        assert three_set_bound(e1, p, e2) >= e1 - 1e-12
