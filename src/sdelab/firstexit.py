"""First-exit times and locations: Monte Carlo drivers and closed forms.

The Monte Carlo side simulates Euler-Maruyama paths until they leave a
:class:`Domain`, with the exit time interpolated linearly inside the
straddling step and paths that outlive ``t_max`` reported as censored.
:func:`mc_exit` is the only exit routine.  Its noise is addressed by
(path block, step block) independently of how long any path survives, so
runs over nested domains with the same stream see the same trajectories,
and its ``threads`` option shards the path blocks without changing a bit
of the result.

The closed-form side collects the classical exit oracles for Brownian
motion and geometric Brownian motion: mean exit times from balls, hitting
probabilities for shells (recurrence/transience), Laplace transforms of
interval exit times and their one-sided refinements, the arcsine law for
occupation fractions, the Cauchy law of the crossing location of a line,
and the three-set bound that patches exit expectations together.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._io import write_csv, write_json
from .sde import (BlowUpError, GaussianStream, SdeModel, TimeGrid, _em_step,
                  sample_wiener)

__all__ = [
    "Domain",
    "ExitStatistics",
    "GbmExit",
    "LineHitting",
    "mc_exit",
    "mc_radial_hitting",
    "line_hitting_2d",
    "ball_exit_expectation",
    "ball_hitting_probability",
    "shell_hitting_probability",
    "gbm_exit",
    "fk_laplace_interval",
    "fk_laplace_one_sided",
    "fk_conditional_mean",
    "arcsine_occupation",
    "arcsine_cdf",
    "three_set_bound",
]


@dataclass(frozen=True, eq=False)
class Domain:
    """Open subset of R^n with a vectorised membership test.

    Construct through the classmethods :meth:`ball`, :meth:`interval`,
    :meth:`half_space` or :meth:`predicate`.  Points on the boundary count
    as outside, matching the convention that the first-exit time is the
    first entry into the closed complement.  A point with a non-finite
    coordinate is never inside, so a blown-up path leaves the domain.
    """

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    a: float | None = None
    b: float | None = None
    level: float | None = None
    axis: int = 0
    side: str = "below"
    membership: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def ball(cls, radius: float, center=None, *, dim: int | None = None) -> "Domain":
        if radius <= 0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        if center is None:
            center = np.zeros(dim if dim is not None else 1)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if dim is not None and center.shape != (dim,):
            raise ValueError(f"center {center} does not have dimension {dim}")
        return cls(kind="ball", center=center, radius=float(radius))

    @classmethod
    def interval(cls, a: float, b: float) -> "Domain":
        if not a < b:
            raise ValueError(f"need a < b, got ({a}, {b})")
        return cls(kind="interval", a=float(a), b=float(b))

    @classmethod
    def half_space(cls, level: float, axis: int = 0, side: str = "below") -> "Domain":
        if side not in ("below", "above"):
            raise ValueError(f"side must be 'below' or 'above', got {side!r}")
        return cls(kind="half_space", level=float(level), axis=axis, side=side)

    @classmethod
    def predicate(cls, membership: Callable[[np.ndarray], np.ndarray]) -> "Domain":
        """Domain given by a membership test acting on ``(..., n)`` batches."""
        return cls(kind="predicate", membership=membership)

    @property
    def dim(self) -> int | None:
        if self.kind == "ball":
            return self.center.shape[0]
        if self.kind == "interval":
            return 1
        return None

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return np.linalg.norm(x - self.center, axis=-1) < self.radius
        if self.kind == "interval":
            xi = x[..., 0]
            return (self.a < xi) & (xi < self.b)
        if self.kind == "half_space":
            xi = x[..., self.axis]
            inside = xi < self.level if self.side == "below" else xi > self.level
        else:
            inside = np.asarray(self.membership(x), dtype=bool)
        return inside & np.isfinite(x).all(axis=-1)

    def exit_fraction(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Fraction lambda of the segment p -> q at which the boundary is hit.

        ``p`` must be inside and ``q`` outside (row-wise).  Exact for
        balls, intervals and half-spaces; 48 bisection rounds for
        predicate domains.
        """
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        d = q - p
        if self.kind == "ball":
            rel = p - self.center
            aa = np.sum(d * d, axis=1)
            bb = 2.0 * np.sum(rel * d, axis=1)
            cc = np.sum(rel * rel, axis=1) - self.radius**2
            disc = np.sqrt(np.maximum(bb * bb - 4 * aa * cc, 0.0))
            lam = (-bb + disc) / (2 * aa)
        elif self.kind == "interval":
            lam = np.full(p.shape[0], np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                lam_left = (self.a - p[:, 0]) / d[:, 0]
                lam_right = (self.b - p[:, 0]) / d[:, 0]
            for cand in (lam_left, lam_right):
                ok = np.isfinite(cand) & (cand >= 0.0)
                lam = np.where(ok & (cand < lam), cand, lam)
        elif self.kind == "half_space":
            lam = (self.level - p[:, self.axis]) / d[:, self.axis]
        else:
            lo = np.zeros(p.shape[0])
            hi = np.ones(p.shape[0])
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                inside = self.contains(p + mid[:, np.newaxis] * d)
                lo = np.where(inside, mid, lo)
                hi = np.where(inside, hi, mid)
            lam = 0.5 * (lo + hi)
        return np.clip(lam, 0.0, 1.0)

    def boundary_parameter(self, points: np.ndarray) -> np.ndarray | None:
        """Map boundary points to [0, 1): angle for 2D balls, endpoint
        indicator for intervals and 1D balls, ``None`` otherwise."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            mid = 0.5 * (self.a + self.b)
            return (points[:, 0] > mid).astype(float)
        if self.kind == "ball":
            if self.center.shape[0] == 1:
                return (points[:, 0] > self.center[0]).astype(float)
            if self.center.shape[0] == 2:
                rel = points - self.center
                angle = np.arctan2(rel[:, 1], rel[:, 0])
                return (angle / (2 * math.pi)) % 1.0
        return None


@dataclass
class ExitStatistics:
    """Summary of a first-exit Monte Carlo run with censoring accounting.

    ``exit_times`` holds the uncensored samples in path order, identified
    by ``path_ids``; ``mean_time`` and its standard error are computed over
    the uncensored paths only, with ``fraction_censored`` reporting how
    much of the sample that leaves out.
    """

    n_paths: int
    exit_times: np.ndarray
    path_ids: np.ndarray
    t_max: float
    boundary_params: np.ndarray | None = None

    @classmethod
    def from_samples(cls, exit_times, path_ids, n_paths: int, t_max: float,
                     boundary_params=None) -> "ExitStatistics":
        return cls(n_paths, np.asarray(exit_times, dtype=float),
                   np.asarray(path_ids, dtype=int), float(t_max),
                   None if boundary_params is None else np.asarray(boundary_params, dtype=float))

    @property
    def n_exited(self) -> int:
        return int(self.exit_times.size)

    @property
    def fraction_censored(self) -> float:
        return 1.0 - self.n_exited / self.n_paths

    @property
    def valid(self) -> bool:
        """False when every path was censored and no estimate exists."""
        return self.n_exited > 0

    @property
    def mean_time(self) -> float:
        return float(self.exit_times.mean()) if self.valid else math.nan

    @property
    def time_std_error(self) -> float:
        if self.n_exited < 2:
            return math.nan
        return float(self.exit_times.std(ddof=1) / math.sqrt(self.n_exited))

    def laplace(self, lam: float, where=None) -> tuple[float, float]:
        """Estimate and standard error of ``E[exp(-lam tau); where]``.

        Censored paths count as zero, so the estimate is a lower bound
        accurate to ``exp(-lam t_max)``.  ``where`` is a boolean mask over
        the uncensored samples (say, exits through one side); samples it
        leaves out count as zero too.
        """
        vals = np.zeros(self.n_paths)
        vals[: self.n_exited] = np.exp(-lam * self.exit_times)
        if where is not None:
            vals[: self.n_exited] *= where
        std_error = (float(vals.std(ddof=1) / math.sqrt(self.n_paths))
                     if self.n_paths > 1 else 0.0)
        return float(vals.mean()), std_error

    def exit_location_histogram(self, n_bins: int = 64) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of boundary parameters over [0, 1] in ``n_bins`` bins."""
        if self.boundary_params is None:
            raise ValueError("no boundary parametrisation for this domain")
        return np.histogram(self.boundary_params, bins=n_bins, range=(0.0, 1.0))

    def to_json(self, path) -> None:
        write_json(path, {
            "n_paths": self.n_paths,
            "n_exited": self.n_exited,
            "fraction_censored": self.fraction_censored,
            "mean_time": self.mean_time,
            "time_std_error": self.time_std_error,
            "t_max": self.t_max,
            "valid": self.valid,
        })

    def save_samples(self, path) -> None:
        """Raw uncensored samples as CSV ``path_id,exit_time,boundary_parameter``."""
        locations = (self.boundary_params if self.boundary_params is not None
                     else [""] * self.n_exited)
        write_csv(path, ("path_id", "exit_time", "boundary_parameter"),
                  zip(self.path_ids, self.exit_times, locations))


_NOISE_BLOCK_CAP = 20_000_000  # Gaussian draws per noise block
_PATH_BLOCK = 1024  # paths per block of the noise plan


def _chunk_size(n_paths: int, dim_noise: int) -> int:
    return max(16, min(2048, _NOISE_BLOCK_CAP // max(1, n_paths * dim_noise)))


def mc_exit(model: SdeModel, x0, domain: Domain, *, h: float, n_paths: int,
            stream: GaussianStream, t_max: float | None = None,
            threads: int = 1) -> ExitStatistics:
    """Monte Carlo first-exit statistics for ``model`` started at ``x0``.

    Paths advance with fixed-step Euler-Maruyama until they leave
    ``domain``; the exit time is interpolated linearly between the
    straddling nodes (no bridge correction, giving the usual O(sqrt(h))
    late-detection bias).  Only the paths still inside are stepped.
    ``t_max`` defaults to 50 times a pilot estimate of the mean exit time;
    paths still inside at ``t_max`` are censored.  A run where nothing
    exits is flagged invalid rather than averaged.  A non-finite state is
    never inside a domain, so blow-up is detected among the rows that exit
    at a step and raises :class:`~sdelab.sde.BlowUpError` at that step.

    The noise is addressed by (path block, step block): blocks of
    ``_PATH_BLOCK`` paths, and step blocks whose length depends on
    ``n_paths`` but not on ``threads``.  In step block ``j`` path block 0
    draws from ``stream.child(0).child(j)`` and path block ``b >= 1`` from
    ``stream.child(0).child(j).child(b)``; only blocks with an active path
    are drawn, so a path's draws never depend on when the others exit.
    The first rows of a draw equal a smaller draw from the same generator,
    so block 0 repeats what runs of at most ``_PATH_BLOCK`` paths drew
    before there were path blocks, and their results are unchanged.

    ``threads`` shards the path blocks into contiguous runs, one worker
    each.  It changes only the speed: the noise, the results and the step
    of a blow-up (the earliest over all shards) are the same at any count.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.dim_state,):
        raise ValueError(f"x0 must have shape ({model.dim_state},), got {x0.shape}")
    if domain.dim not in (None, model.dim_state):
        raise ValueError(f"a {domain.dim}-dimensional {domain.kind} does not fit "
                         f"a {model.dim_state}-dimensional model")
    if not bool(domain.contains(x0)):
        raise ValueError(f"starting point {x0} is not inside the domain")
    if h <= 0:
        raise ValueError("step size must be positive")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if t_max is None:
        pilot = mc_exit(model, x0, domain, h=h, n_paths=64,
                        stream=stream.child(1), t_max=10_000 * h)
        if not pilot.valid:
            raise RuntimeError(
                "pilot run produced no exits within 10^4 steps; pass t_max explicitly"
            )
        t_max = 50.0 * pilot.mean_time

    n_steps = max(1, math.ceil(t_max / h))
    noise = stream.child(0)
    block = _chunk_size(n_paths, model.dim_noise)
    sqrt_h = math.sqrt(h)
    exit_time = np.full(n_paths, np.nan)
    exit_points = np.zeros((n_paths, model.dim_state))

    def shard(first: int, stop: int) -> BlowUpError | None:
        """Step path blocks ``first`` to ``stop - 1``; return a blow-up."""
        rows = slice(first * _PATH_BLOCK, stop * _PATH_BLOCK)
        times, points = exit_time[rows], exit_points[rows]
        # compacted active set: ``x[r]`` is the state of shard row ``ids[r]``
        ids = np.arange(times.size)
        x = np.tile(x0, (ids.size, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk, step in enumerate(range(0, n_steps, block)):
                if not ids.size:
                    break
                nb = min(block, n_steps - step)
                # rows of path blocks with no active path are never read
                dw = np.empty((times.size, nb, model.dim_noise))
                for b in np.unique(ids // _PATH_BLOCK).tolist():
                    part = dw[b * _PATH_BLOCK:(b + 1) * _PATH_BLOCK]
                    source = noise.child(chunk)
                    if first + b:
                        source = source.child(first + b)
                    part[...] = source.generator().normal(0.0, sqrt_h, part.shape)
                for j in range(nb):
                    x_new = _em_step(model, x, h, dw[ids, j])
                    inside = domain.contains(x_new)
                    if np.count_nonzero(inside) < ids.size:
                        out = ~inside
                        p, q, gone = x[out], x_new[out], ids[out]
                        if not np.all(np.isfinite(q)):
                            return BlowUpError(step + j + 1, (step + j + 1) * h)
                        lam = domain.exit_fraction(p, q)
                        times[gone] = (step + j + lam) * h
                        points[gone] = p + lam[:, np.newaxis] * (q - p)
                        ids, x_new = ids[inside], x_new[inside]
                        if not ids.size:
                            break
                    x = x_new
        return None

    n_blocks = -(-n_paths // _PATH_BLOCK)
    n_shards = max(1, min(threads, n_blocks))
    cuts = [n_blocks * s // n_shards for s in range(n_shards + 1)]
    if n_shards == 1:
        blowups = [shard(0, n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=n_shards) as pool:
            blowups = list(pool.map(shard, cuts[:-1], cuts[1:]))
    blowups = [err for err in blowups if err is not None]
    if blowups:
        raise min(blowups, key=lambda err: err.step_index)

    exited = np.flatnonzero(~np.isnan(exit_time))
    params = domain.boundary_parameter(exit_points[exited]) if exited.size else None
    stats = ExitStatistics.from_samples(exit_time[exited], exited, n_paths,
                                        t_max, params)
    if not stats.valid:
        warnings.warn("all paths were censored; exit statistics are invalid",
                      stacklevel=2)
    return stats


def mc_radial_hitting(r_start: float, r_inner: float, r_outer: float, dim: int,
                      n_paths: int, stream: GaussianStream, *,
                      kappa: float = 0.2, snap_fraction: float = 1e-4,
                      max_rounds: int = 200_000) -> tuple[float, float]:
    """Probability that Brownian motion hits the inner sphere before the outer.

    Exploits exact Gaussian increments with a state-dependent clock: each
    path takes a step of standard deviation ``kappa`` times its distance to
    the nearest sphere, which is exact in law at the sampled times and
    makes skipping a boundary between samples overwhelmingly unlikely
    (probability ~ exp(-2/kappa^2) per step).  Paths within
    ``snap_fraction`` of the gap width are assigned to the nearer sphere.
    Returns ``(estimate, standard_error)``.
    """
    if not 0.0 < r_inner < r_start < r_outer:
        raise ValueError(
            f"need 0 < r_inner < r_start < r_outer, got {(r_inner, r_start, r_outer)}"
        )
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    gen = stream.generator()
    snap = snap_fraction * (r_outer - r_inner)

    x = np.zeros((n_paths, dim))
    x[:, 0] = r_start
    hit_inner = np.zeros(n_paths, dtype=bool)
    open_paths = np.arange(n_paths)

    for _ in range(max_rounds):
        if open_paths.size == 0:
            break
        r = np.linalg.norm(x[open_paths], axis=1)
        inner_gap = r - r_inner
        outer_gap = r_outer - r
        done = (inner_gap <= snap) | (outer_gap <= snap)
        if done.any():
            ids = open_paths[done]
            hit_inner[ids] = inner_gap[done] <= outer_gap[done]
            keep = ~done
            open_paths = open_paths[keep]
            inner_gap, outer_gap = inner_gap[keep], outer_gap[keep]
        if open_paths.size == 0:
            break
        sd = kappa * np.minimum(inner_gap, outer_gap)
        x[open_paths] += sd[:, np.newaxis] * gen.normal(size=(open_paths.size, dim))
    else:
        r = np.linalg.norm(x[open_paths], axis=1)
        hit_inner[open_paths] = (r - r_inner) <= (r_outer - r)

    p = float(hit_inner.mean())
    se = float(hit_inner.std(ddof=1) / math.sqrt(n_paths))
    return p, se


@dataclass(frozen=True)
class LineHitting:
    """Crossing samples of planar Brownian motion against the line x = 1.

    ``tau_samples`` are the (uncensored) crossing times and ``w2_samples``
    the second coordinate at the crossing, which follows a standard Cauchy
    law.  The crossing time has infinite mean, so a finite horizon always
    censors a few paths; ``fraction_censored`` reports how many.
    """

    tau_samples: np.ndarray
    w2_samples: np.ndarray
    fraction_censored: float
    t_max: float


def line_hitting_2d(n_paths: int, h: float, stream: GaussianStream, *,
                    t_max: float = 20_000.0) -> LineHitting:
    """Sample crossing times/locations of the line x = 1 from the origin.

    Fixed-step increments processed in blocks: within a block the first
    node at which the first coordinate reaches 1 is located, the crossing
    is interpolated linearly in time, and the second coordinate is read at
    the interpolated point.
    """
    if h <= 0 or n_paths < 1:
        raise ValueError("need h > 0 and at least one path")
    sqrt_h = math.sqrt(h)
    w1 = np.zeros(n_paths)
    w2 = np.zeros(n_paths)
    taus = []
    crossings = []
    t_base = 0.0
    chunk = 0
    n_alive = n_paths
    while n_alive and t_base < t_max:
        nb = min(max(64, 2_000_000 // n_alive), math.ceil((t_max - t_base) / h))
        dw = stream.child(chunk).generator().normal(0.0, sqrt_h, (n_alive, nb, 2))
        path1 = w1[:, np.newaxis] + np.cumsum(dw[:, :, 0], axis=1)
        reached = path1 >= 1.0
        hit = reached.any(axis=1)
        if hit.any():
            rows = np.flatnonzero(hit)
            first = np.argmax(reached[rows], axis=1)
            d1 = dw[rows, first, 0]
            prev1 = path1[rows, first] - d1
            lam = (1.0 - prev1) / d1
            cum2 = np.cumsum(dw[rows, :, 1], axis=1)
            at_first = cum2[np.arange(rows.size), first]
            d2 = dw[rows, first, 1]
            taus.append(t_base + (first + lam) * h)
            crossings.append(w2[rows] + at_first - d2 + lam * d2)
        alive = ~hit
        w1 = path1[alive, -1]
        w2 = w2[alive] + np.sum(dw[alive, :, 1], axis=1)
        n_alive = int(alive.sum())
        t_base += nb * h
        chunk += 1

    tau_samples = np.concatenate(taus) if taus else np.empty(0)
    w2_samples = np.concatenate(crossings) if crossings else np.empty(0)
    return LineHitting(tau_samples, w2_samples, 1.0 - tau_samples.size / n_paths,
                       t_max)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def ball_exit_expectation(radius: float, x, n: int) -> float:
    """Mean exit time ``(R^2 - |x|^2)/n`` of n-dim Brownian motion from a ball."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    norm2 = float(np.sum(x * x))
    if norm2 >= radius**2:
        raise ValueError("starting point must lie strictly inside the ball")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return (radius**2 - norm2) / n


def ball_hitting_probability(radius: float, x, n: int) -> float:
    """Probability that n-dim Brownian motion from ``x`` ever hits the ball.

    Equals 1 in dimensions one and two (recurrence) and ``(R/|x|)^{n-2}``
    for ``n > 2`` (transience).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dist = float(np.linalg.norm(x))
    if dist <= radius:
        raise ValueError("starting point must lie strictly outside the ball")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n <= 2:
        return 1.0
    return (radius / dist) ** (n - 2)


def shell_hitting_probability(r_inner: float, r_outer: float, r: float, n: int) -> float:
    """Probability of reaching the inner sphere before the outer one.

    Ratio of the radial harmonic function ``phi`` between the spheres:
    ``phi(r) = r`` in 1D, ``log r`` in 2D, ``r^{2-n}`` for ``n >= 3``.
    """
    if not 0.0 < r_inner < r < r_outer:
        raise ValueError(f"need 0 < r_inner < r < r_outer, got {(r_inner, r, r_outer)}")
    if n == 1:
        phi = lambda s: s
    elif n == 2:
        phi = math.log
    else:
        phi = lambda s: s ** (2 - n)
    return (phi(r) - phi(r_outer)) / (phi(r_inner) - phi(r_outer))


@dataclass(frozen=True)
class GbmExit:
    """Exit split of geometric Brownian motion ``dX = r X dt + X dW`` from (a, b).

    ``mean_time_to_b`` is ``None`` unless the drift wins (``r > 1/2``), in
    which case the upper level is reached almost surely in finite mean time.
    """

    p_hit_a_first: float
    p_hit_b_first: float
    mean_time_to_b: float | None


def gbm_exit(r: float, a: float, b: float, x: float) -> GbmExit:
    """Exit probabilities of GBM from ``(a, b)`` via the scale function x^gamma.

    ``gamma = 1 - 2r``; ``a = 0`` is accepted and handled by the limiting
    expressions (``(x/b)^gamma`` for ``r < 1/2``, certain passage for
    ``r > 1/2``).  The balanced case ``r = 1/2`` has a logarithmic scale
    function and is reported as unsupported.
    """
    if r == 0.5:
        raise ValueError("r = 1/2 is the logarithmic case and is not supported")
    if not 0.0 <= a < x < b:
        raise ValueError(f"need 0 <= a < x < b, got a={a}, x={x}, b={b}")
    gamma = 1.0 - 2.0 * r
    if a == 0.0:
        p_b = (x / b) ** gamma if gamma > 0 else 1.0
    else:
        p_b = (x**gamma - a**gamma) / (b**gamma - a**gamma)
    mean_to_b = math.log(b / x) / (r - 0.5) if r > 0.5 else None
    return GbmExit(1.0 - p_b, p_b, mean_to_b)


def _check_interval_point(a: float, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if a <= 0:
        raise ValueError("half-width a must be positive")
    if np.any(np.abs(x) > a):
        raise ValueError(f"need |x| <= {a}")
    return x


def fk_laplace_interval(lam: float, a: float, x) -> float | np.ndarray:
    """``E_x[exp(-lambda tau)]`` for BM exiting ``(-a, a)``: a cosh ratio."""
    x = _check_interval_point(a, x)
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if lam == 0:
        out = np.ones_like(x)
    else:
        k = math.sqrt(2.0 * lam)
        out = np.cosh(k * x) / math.cosh(k * a)
    return float(out) if out.ndim == 0 else out


def fk_laplace_one_sided(lam: float, a: float, x) -> float | np.ndarray:
    """``E_x[exp(-lambda tau) 1{+a is hit first}]`` for BM on ``(-a, a)``.

    A sinh ratio; its ``lambda -> 0`` limit is the hitting probability
    ``(x + a)/(2a)``, returned exactly at ``lambda = 0``.
    """
    x = _check_interval_point(a, x)
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if lam == 0:
        out = (x + a) / (2.0 * a)
    else:
        k = math.sqrt(2.0 * lam)
        out = np.sinh(k * (x + a)) / math.sinh(2.0 * k * a)
    return float(out) if out.ndim == 0 else out


def fk_conditional_mean(a: float, x) -> float | np.ndarray:
    """``E_x[tau | +a hit first]`` for BM on ``(-a, a)``: ``(a-x)(3a+x)/3``."""
    x = _check_interval_point(a, x)
    out = (a - x) * (3.0 * a + x) / 3.0
    return float(out) if out.ndim == 0 else out


def arcsine_occupation(n_paths: int, grid: TimeGrid, stream: GaussianStream) -> np.ndarray:
    """Sorted samples of the fraction of time Brownian motion spends positive.

    The occupation integral uses left endpoints on the simulation grid, so
    each sample lies on ``{0, 1/n, ..., 1}``; the discretisation bias of
    the resulting CDF is O(n_steps^{-1/2}).
    """
    path = sample_wiener(grid, stream, dim=n_paths)
    frac = np.mean(path.values[:-1] > 0.0, axis=0)
    return np.sort(frac)


def arcsine_cdf(u) -> float | np.ndarray:
    """Limiting CDF ``(2/pi) arcsin(sqrt(u))`` of the occupation fraction."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u > 1)):
        raise ValueError("occupation fractions live in [0, 1]")
    out = (2.0 / math.pi) * np.arcsin(np.sqrt(u))
    return float(out) if out.ndim == 0 else out


def three_set_bound(e_start_to_bc: float, p_detour: float, e_detour_back: float) -> float:
    """Upper bound on a mean passage time assembled from three estimates.

    With ``e_start_to_bc`` the mean time to reach either the target or a
    detour set, ``p_detour`` the probability of reaching the detour first,
    and ``e_detour_back`` the mean time from the detour boundary back to
    the union, the bound is ``(e_start_to_bc + p e_detour_back)/(1 - p)``.
    """
    if e_start_to_bc < 0 or e_detour_back < 0:
        raise ValueError("mean times must be non-negative")
    if not 0.0 <= p_detour < 1.0:
        raise ValueError(f"need 0 <= p < 1, got {p_detour}")
    return (e_start_to_bc + p_detour * e_detour_back) / (1.0 - p_detour)
