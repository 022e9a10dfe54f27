"""First-exit times and locations: Monte Carlo drivers and closed forms.

The Monte Carlo side simulates Euler-Maruyama paths until they leave a
:class:`Domain`, with the exit time interpolated linearly inside the
straddling step, a Brownian-bridge kill for crossings between two nodes
inside, and paths that outlive ``t_max`` reported as censored.
:func:`mc_exit` is the only exit routine, with one exit rule for every
model: the bridge kill takes the dispersion, constant or state-dependent,
at each step's start node.  Each path reads its noise from its own
(path, step block) addresses, so runs over nested domains with the same
stream see the same trajectories, the first n paths of a run are an n-path
run, and ``threads`` shards the paths without changing a bit of the
result.  It checks exits once per window of steps, each stepped by the one
Euler-Maruyama loop ``sde._em_path``, so a path may take up to one window
of steps past its exit; those steps are discarded.
:func:`mc_radial_hitting` takes no time steps: it runs Muller's walk on
spheres between two concentric spheres.

The closed-form side collects the classical exit oracles for Brownian
motion and geometric Brownian motion: mean exit times from balls, hitting
probabilities for shells (recurrence/transience), Laplace transforms of
interval exit times and their one-sided refinements, and the arcsine law
for occupation fractions.  :func:`interval_exit_reference` adds, by
quadrature, the exact mean exit time and exit side of any 1-D diffusion
with a constant dispersion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sde import (_WINDOW_ROW_STEPS, BlowUpError, GaussianStream, SdeModel,
                  TimeGrid, _AddressedDraws, _em_path, sample_wiener)

__all__ = [
    "Domain",
    "ExitStatistics",
    "GbmExit",
    "mc_exit",
    "mc_radial_hitting",
    "ball_exit_expectation",
    "ball_hitting_probability",
    "shell_hitting_probability",
    "gbm_exit",
    "interval_exit_reference",
    "fk_laplace_interval",
    "fk_laplace_one_sided",
    "fk_conditional_mean",
    "arcsine_occupation",
    "arcsine_cdf",
]


def _check_radius(radius: float) -> None:
    if not 0 < radius < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {radius}")


@dataclass(frozen=True, eq=False)
class Domain:
    """Open subset of R^n with a vectorised distance to its boundary.

    Construct through the classmethods :meth:`ball` or :meth:`interval`.
    Points on the boundary count as outside, matching the convention that
    the first-exit time is the first entry into the closed complement.  A
    point with a non-finite coordinate is never inside, so a blown-up path
    leaves the domain.
    """

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    a: float | None = None
    b: float | None = None

    @classmethod
    def ball(cls, radius: float, center=None, *, dim: int | None = None) -> "Domain":
        _check_radius(radius)
        if center is None:
            center = np.zeros(dim if dim is not None else 1)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if dim is not None and center.shape != (dim,):
            raise ValueError(f"center {center} does not have dimension {dim}")
        return cls(kind="ball", center=center, radius=float(radius))

    @classmethod
    def interval(cls, a: float, b: float) -> "Domain":
        """The open interval ``(a, b)``; either end may be infinite, and
        ``Domain.interval(-inf, inf)`` is the whole line of finite points."""
        if not a < b:
            raise ValueError(f"need a < b, got ({a}, {b})")
        return cls(kind="interval", a=float(a), b=float(b))

    @property
    def dim(self) -> int:
        return self.center.shape[0] if self.kind == "ball" else 1

    def contains(self, x) -> np.ndarray:
        return self.distance(x) > 0.0

    def distance(self, x) -> np.ndarray:
        """Distance from each point to the boundary: positive exactly inside.

        An interval's distance is to its nearer endpoint; a point with a
        non-finite coordinate gets a distance that is not positive.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return self.radius - np.linalg.norm(x - self.center, axis=-1)
        xi = x[..., 0]
        with np.errstate(invalid="ignore"):  # inf - inf at an infinite end
            return np.minimum(xi - self.a, self.b - xi)

    def _nearest_boundary_point(self, x: np.ndarray) -> np.ndarray:
        """The boundary point nearest each row of ``x``."""
        if self.kind == "ball":
            rel = x - self.center
            norm = np.linalg.norm(rel, axis=1, keepdims=True)
            return self.center + self.radius * rel / norm
        out = x.copy()
        out[:, 0] = np.where(x[:, 0] - self.a < self.b - x[:, 0], self.a, self.b)
        return out

    def exit_fraction(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Fraction lambda of the segment p -> q at which the boundary is hit.

        ``p`` must be inside and ``q`` outside (row-wise).
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
        else:
            lam = np.full(p.shape[0], np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                lam_left = (self.a - p[:, 0]) / d[:, 0]
                lam_right = (self.b - p[:, 0]) / d[:, 0]
            for cand in (lam_left, lam_right):
                ok = np.isfinite(cand) & (cand >= 0.0)
                lam = np.where(ok & (cand < lam), cand, lam)
        return np.clip(lam, 0.0, 1.0)

    def boundary_parameter(self, points: np.ndarray) -> np.ndarray | None:
        """Map boundary points to [0, 1): angle for 2D balls, endpoint
        indicator for intervals and 1D balls, ``None`` otherwise."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            mid = 0.5 * (self.a + self.b)
            return (points[:, 0] > mid).astype(float)
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


_STEP_BLOCK = 256  # steps per noise address of mc_exit
# mc_exit's bridge kills when d0 d1 < min(E, _KILL_CAP) s2 h / 2 for a
# standard exponential E: kill probabilities below e^-40 count as zero, so a
# window with no step that close to the boundary needs no exponentials
_KILL_CAP = 40.0
_SNAP_FRACTION = 1e-4  # of the gap width: mc_radial_hitting's hit distance


def _check_sampling(n_paths: int, h: float | None = None,
                    t_max: float | None = None) -> None:
    """Reject a path count, step or horizon that no run can use."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if h is not None and not 0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h}")
    if t_max is not None and not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")


def _normal_variance(domain: Domain, diffusion: np.ndarray, x: np.ndarray):
    """``n^T D n`` for the unit normal ``n`` of the boundary nearest each point.

    ``diffusion`` is one ``(n, n)`` matrix ``D`` or one for each point, of
    shape ``x.shape + (n,)``.  An interval's normal is the axis; for a ball
    ``n`` is the radial direction of the point, written as sums of products
    so that any batch shape gives the same bits.
    """
    if domain.kind == "interval":
        return diffusion[..., 0, 0]
    rel = x - domain.center
    dim = rel.shape[-1]
    quad = sum(diffusion[..., i, j] * rel[..., i] * rel[..., j]
               for i in range(dim) for j in range(dim))
    return quad / np.sum(rel * rel, axis=-1)


def mc_exit(model: SdeModel, x0, domain: Domain, *, h: float, n_paths: int,
            stream: GaussianStream, t_max: float,
            threads: int = 1) -> ExitStatistics:
    """Monte Carlo first-exit statistics for ``model`` started at ``x0``.

    Paths advance with fixed-step Euler-Maruyama until they leave
    ``domain``.  A path whose next node is outside exits at the linearly
    interpolated crossing of the straddling step.  A path whose two nodes
    are both inside is killed with the Brownian-bridge crossing
    probability ``exp(-2 d0 d1 / (s2 h))`` (Mannella, Phys. Lett. A 254
    (1999); Gobet, Stoch. Proc. Appl. 87 (2000)): ``d0`` and ``d1`` are
    the nodes' :meth:`Domain.distance`, ``s2 = n^T g g^T n`` the variance
    along the normal ``n`` of the boundary nearest the step's end node, with
    ``g`` the dispersion at the step's start node, as the Euler step takes
    it.  Across the step the continuous Euler path is a Brownian motion
    with a constant drift and that covariance, so given both nodes the kill
    is exact for it at a flat boundary; elsewhere it removes the O(sqrt(h))
    late-exit bias of node-only detection and leaves O(h).  Every model
    takes this one rule.  The test kills when
    ``d0 d1 < min(E, 40) s2 h / 2`` for a standard exponential ``E`` per
    path and step: that probability, with any below ``e^-40`` taken as
    zero, and no ``exp`` of a mostly underflowing exponent.  A killed path
    exits at ``(k + 1/2) h`` in its step ``k``, at the boundary point
    nearest the step's end node.

    Only paths inside at a window's start are stepped.  Paths still inside
    at ``t_max`` are censored.  A run where nothing exits is flagged
    invalid rather than averaged.  A non-finite state is never inside a
    domain, so blow-up is detected among the rows that exit at a step and
    raises :class:`~sdelab.sde.BlowUpError` at that step.

    Exits are checked once per window of ``_WINDOW_ROW_STEPS // active
    paths`` steps (at most to the end of the step block): one ``_em_path``
    call steps every active path through the window, then each path's first
    step out or killed is found in one pass over the window's distances.
    Steps past an exit are discarded, so the results are those of checking
    after every step, bit for bit.

    The noise is addressed by (path, step block), with step blocks of
    ``_STEP_BLOCK`` steps: path ``p`` reads the Gaussians of step block
    ``j`` from the Philox of ``stream.child(0)`` at counter ``(0, p, j,
    0)``, and the bridge's exponentials from counter ``(0, p, j, 1)``.  A
    step block is drawn for the paths still active at its start, and its
    exponentials for the paths active at the first window with a step
    close enough to the boundary to need them.  So a path's noise depends
    only on (seed, path, step): not on ``n_paths``, ``threads``, the window
    or when the other paths exit, and the first n paths of a run equal an
    n-path run with the same stream, bit for bit.

    ``threads`` shards the paths into contiguous ranges, one worker each.
    It changes only the speed: the noise, the results and the step of a
    blow-up (the earliest over all shards) are the same at any count.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (model.dim_state,):
        raise ValueError(f"x0 must have shape ({model.dim_state},), got {x0.shape}")
    if domain.dim != model.dim_state:
        raise ValueError(f"a {domain.dim}-dimensional {domain.kind} does not fit "
                         f"a {model.dim_state}-dimensional model")
    if not bool(domain.contains(x0)):
        raise ValueError(f"starting point {x0} is not inside the domain")
    _check_sampling(n_paths, h, t_max)
    if threads < 1:
        raise ValueError("threads must be at least 1")

    n_steps = max(1, math.ceil(t_max / h))
    noise = stream.child(0)
    g = model.constant_dispersion
    diffusion = None if g is None else g @ g.T
    sqrt_h = math.sqrt(h)
    exit_time = np.full(n_paths, np.nan)
    exit_points = np.zeros((n_paths, model.dim_state))

    def shard(start: int, stop: int) -> BlowUpError | None:
        """Step paths ``start`` to ``stop - 1``; return a blow-up."""
        # compacted active set: ``x[r]`` is the state of path ``ids[r]``, whose
        # noise in the current step block is row ``rows[r]`` of ``dw`` and ``e``
        ids = np.arange(start, stop)
        x = np.tile(x0, (ids.size, 1))
        draws = _AddressedDraws(noise)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for block, step in enumerate(range(0, n_steps, _STEP_BLOCK)):
                if not ids.size:
                    break
                nb = min(_STEP_BLOCK, n_steps - step)
                dw = e = None  # release the last block's noise before drawing
                dw = draws(ids, block, 0, (nb, model.dim_noise))
                dw *= sqrt_h
                rows = np.arange(ids.size)
                j = 0
                while j < nb and ids.size:
                    w = min(nb - j, max(1, _WINDOW_ROW_STEPS // ids.size))
                    # path[k] holds the states after step + j + k steps
                    path = _em_path(model, x, h, np.ascontiguousarray(
                        dw[rows, j:j + w].swapaxes(0, 1)))
                    dist = domain.distance(path)
                    inside = alive = dist[1:] > 0.0
                    d = model.diffusion_matrix(path[:-1]) if g is None else diffusion
                    scale = _normal_variance(domain, d, path[1:]) * (0.5 * h)
                    gap = dist[:-1] * dist[1:]
                    if (gap < _KILL_CAP * scale).any():
                        # drawn for the paths active at the first window of
                        # the step block with a step this close to the boundary
                        if e is None:
                            e = np.empty((dw.shape[0], nb))
                            e[rows] = draws(ids, block, 1, (nb,))
                        slack = e[rows, j:j + w].T  # a gathered copy
                        np.minimum(slack, _KILL_CAP, out=slack)
                        slack *= scale
                        alive = inside & ~(gap < slack)
                    x = path[w]
                    if not alive.all():
                        stay = alive.all(axis=0)
                        r = np.flatnonzero(~stay)
                        k_out = np.argmin(alive[:, r], axis=0)  # first step out
                        p, q = path[k_out, r], path[k_out + 1, r]
                        killed = inside[k_out, r]
                        crossed = ~killed
                        finite = np.isfinite(q[crossed]).all(axis=1)
                        if not finite.all():
                            at = step + j + int(k_out[crossed][~finite].min()) + 1
                            return BlowUpError(at, at * h)
                        lam = np.full(r.size, 0.5)
                        lam[crossed] = domain.exit_fraction(p[crossed], q[crossed])
                        gone = ids[r]
                        exit_time[gone] = (step + j + k_out + lam) * h
                        exit_points[gone] = p + lam[:, np.newaxis] * (q - p)
                        if killed.any():
                            exit_points[gone[killed]] = domain._nearest_boundary_point(
                                q[killed])
                        ids, rows, x = ids[stay], rows[stay], x[stay]
                    j += w
        return None

    n_shards = min(threads, n_paths)
    cuts = [n_paths * s // n_shards for s in range(n_shards + 1)]
    if n_shards == 1:
        blowups = [shard(0, n_paths)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only here

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
                      n_paths: int, stream: GaussianStream) -> tuple[float, float]:
    """Probability that Brownian motion hits the inner sphere before the outer.

    Muller's walk on spheres: each open path jumps to a uniform point on the
    sphere of radius ``d = min(r - r_inner, r_outer - r)`` around it, which
    is where Brownian motion first leaves that ball, so every jump is exact
    in law.  The direction is one ``dim``-normal draw scaled to length ``d``.
    Paths within ``_SNAP_FRACTION`` of the gap width are assigned to the
    nearer sphere; that snap is the walk's only bias.
    Returns ``(estimate, standard_error)``.
    """
    if not 0.0 < r_inner < r_start < r_outer < math.inf:
        raise ValueError(f"need 0 < r_inner < r_start < r_outer < inf, "
                         f"got {(r_inner, r_start, r_outer)}")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    _check_sampling(n_paths)
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2 for a standard error, got {n_paths}")
    gen = stream.generator()
    snap = _SNAP_FRACTION * (r_outer - r_inner)

    # compacted active set: ``x[k]`` is the state of path ``open_paths[k]``
    x = np.zeros((n_paths, dim))
    x[:, 0] = r_start
    hit_inner = np.zeros(n_paths, dtype=bool)
    open_paths = np.arange(n_paths)

    while open_paths.size:
        r = np.linalg.norm(x, axis=1)
        inner_gap = r - r_inner
        outer_gap = r_outer - r
        done = (inner_gap <= snap) | (outer_gap <= snap)
        if done.any():
            hit_inner[open_paths[done]] = inner_gap[done] <= outer_gap[done]
            keep = ~done
            open_paths, x = open_paths[keep], x[keep]
            inner_gap, outer_gap = inner_gap[keep], outer_gap[keep]
        step = gen.normal(size=(open_paths.size, dim))
        d = np.minimum(inner_gap, outer_gap)
        x += (d / np.linalg.norm(step, axis=1))[:, np.newaxis] * step

    p = float(hit_inner.mean())
    se = float(hit_inner.std(ddof=1) / math.sqrt(n_paths))
    return p, se


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _check_ball_point(x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError(f"starting point x must be finite, got {x}")
    return x


def ball_exit_expectation(radius: float, x, n: int) -> float:
    """Mean exit time ``(R^2 - |x|^2)/n`` of n-dim Brownian motion from a ball."""
    _check_radius(radius)
    x = _check_ball_point(x)
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
    _check_radius(radius)
    x = _check_ball_point(x)
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
    ``phi(r) = r`` in 1D, ``log r`` in 2D, ``r^{2-n}`` for ``n >= 3``.  An
    infinite ``r_outer`` gives :func:`ball_hitting_probability`'s limit.
    """
    if not 0.0 < r_inner < r < r_outer:
        raise ValueError(f"need 0 < r_inner < r < r_outer, got {(r_inner, r, r_outer)}")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n <= 2 and r_outer == math.inf:
        return 1.0  # recurrence: phi(r_outer) is infinite
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


_REFERENCE_CELLS = 20_000  # trapezoid cells of interval_exit_reference's grid


def interval_exit_reference(model: SdeModel, x0: float, a: float,
                            b: float) -> tuple[float, float]:
    """Exact ``(E[tau], P(exit at b))`` of a 1-D diffusion leaving ``(a, b)``.

    For ``dX = f(X) dt + sigma dW`` with a constant ``sigma``, let
    ``phi = 2U / sigma^2`` with ``U' = -f``, the scale density
    ``s = exp(phi)`` and the speed density ``m = (2 / sigma^2) exp(-phi)``,
    and ``S``, ``M`` their integrals from ``a`` (Karlin & Taylor, *A Second
    Course in Stochastic Processes*, 1981, ch. 15).  Then
    ``P(exit at b) = S(x0) / S(b)`` and

        E[tau] = int_x0^b s M dy - (int_a^b s M dy / S(b)) int_x0^b s dy.

    ``U`` and every integral are cumulative trapezoids on a grid of
    ``_REFERENCE_CELLS`` cells with ``x0`` as a node, so the result is
    exact up to O(cells^-2), a relative 2e-7 for ``eyring-kramers``'
    double well.  The integrals of ``exp(+-phi)`` are summed in log space,
    each term shifted by the running maximum, so they cannot overflow:
    ``phi`` reaches 750 on that experiment's floor.
    """
    g = model.constant_dispersion
    if model.dim_state != 1 or g is None:
        raise ValueError("need a one-dimensional model with a constant dispersion")
    if not -math.inf < a < x0 < b < math.inf:
        raise ValueError(f"need finite a < x0 < b, got {(a, x0, b)}")
    var = float((g @ g.T)[0, 0])
    if var == 0.0:
        raise ValueError("need a nonzero dispersion, got sigma = 0")
    n_left = min(max(1, round(_REFERENCE_CELLS * (x0 - a) / (b - a))),
                 _REFERENCE_CELLS - 1)
    nodes = np.concatenate([np.linspace(a, x0, n_left + 1)[:-1],
                            np.linspace(x0, b, _REFERENCE_CELLS - n_left + 1)])
    dx = np.diff(nodes)
    f = np.asarray(model.drift(nodes[:, np.newaxis]), dtype=float)[:, 0]
    phi = np.concatenate([[0.0], np.cumsum(-(f[1:] + f[:-1]) * dx)]) / var

    def log_integral(log_y: np.ndarray, cells: slice = slice(None)) -> np.ndarray:
        """log of the cumulative trapezoid of ``exp(log_y)`` from the first node."""
        terms = np.log(dx[cells] / 2) + np.logaddexp(log_y[cells][:-1],
                                                      log_y[cells][1:])
        return np.concatenate([[-np.inf], np.logaddexp.accumulate(terms)])

    i0 = n_left
    log_s = log_integral(phi)
    sm = np.exp(phi + log_integral(-phi) + math.log(2.0 / var))
    sm_integral = np.concatenate([[0.0], np.cumsum((sm[1:] + sm[:-1]) * dx / 2)])
    tail_s = log_integral(phi, slice(i0, None))[-1]
    mean = (sm_integral[-1] - sm_integral[i0]
            - math.exp(math.log(sm_integral[-1]) - log_s[-1] + tail_s))
    return float(mean), float(math.exp(log_s[i0] - log_s[-1]))


def _check_interval_point(a: float, x) -> np.ndarray:
    # each test is negated, so that a NaN fails it
    x = np.asarray(x, dtype=float)
    if not 0 < a < math.inf:
        raise ValueError(f"half-width a must be positive and finite, got {a}")
    if not np.all(np.abs(x) <= a):
        raise ValueError(f"need x with |x| <= {a}, got {x}")
    return x


def fk_laplace_interval(lam: float, a: float, x) -> float | np.ndarray:
    """``E_x[exp(-lambda tau)]`` for BM exiting ``(-a, a)``: a cosh ratio."""
    x = _check_interval_point(a, x)
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be non-negative and finite, got {lam}")
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
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be non-negative and finite, got {lam}")
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
    the resulting CDF is O(n_steps^{-1/2}).  Each window of
    :func:`~sdelab.sde.sample_wiener` is reduced to integer counts of positive
    nodes as it is drawn, so only one window is held, not the whole path; the
    samples have the bits of the mean over the whole path.
    """
    positive = np.zeros(n_paths, dtype=np.int64)
    for _, rows in sample_wiener(grid, stream, dim=n_paths):
        positive += np.count_nonzero(rows[:-1] > 0.0, axis=0)
    return np.sort(positive / grid.n_steps)


def arcsine_cdf(u) -> float | np.ndarray:
    """Limiting CDF ``(2/pi) arcsin(sqrt(u))`` of the occupation fraction."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u > 1)):
        raise ValueError("occupation fractions live in [0, 1]")
    out = (2.0 / math.pi) * np.arcsin(np.sqrt(u))
    return float(out) if out.ndim == 0 else out
