"""Ergodicity toolbox: discrete kernels, drift/minorisation certificates,
weighted-total-variation contraction, and Hilbert-metric spectral bounds.

A continuous-time model is reduced to a row-(sub)stochastic matrix on a
spatial grid by :func:`discretize_kernel`.  On such kernels the module

* fits and *verifies* geometric-drift and minorisation certificates, the
  two inequalities behind coupling proofs of geometric ergodicity,
* evaluates the explicit contraction constants ``(beta, alpha_bar)`` of
  the weighted-total-variation metric ``rho_beta`` and measures the
  contraction empirically on random pairs of probability vectors,
* fits uniform-positivity cone bounds ``s(x)m(y) <= p(x,y) <= L s(x)m(y)``,
  computes the Hilbert projective metric and projective diameter, and runs
  power iteration with the resulting ``tanh``/spectral-gap rate guarantees
  (including the substochastic branch, whose left Perron vector is the
  quasistationary distribution).

Every certificate returned by this module is rechecked entrywise, with
conservative rounding nudges so the inequalities hold exactly in floating
point, not just in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kolmogorov import Grid1D, solve_backward_kolmogorov
from .sde import GaussianStream, SdeModel

__all__ = [
    "DiscreteKernel",
    "DriftCertificate",
    "MinorisationCert",
    "ConeBounds",
    "HmContractionReport",
    "JentzschResult",
    "discretize_kernel",
    "verify_geometric_drift",
    "drift_violations",
    "verify_minorisation",
    "hm_constants",
    "rho_beta_distance",
    "verify_hm_contraction",
    "fit_cone_bounds",
    "hilbert_metric",
    "projective_diameter",
    "power_iteration_jentzsch",
]

_GUARD = 1e-12  # multiplicative nudge making certificate inequalities exact in fp
_PAIR_BATCH = 128  # measure pairs per array in verify_hm_contraction: 0.8 MB at 401 states


@dataclass
class DiscreteKernel:
    """Row-indexed transition matrix on a grid (or abstract index set).

    Rows hold the transition weights out of each node; row sums may fall
    below one only when ``substochastic`` is set (absorption).  ``grid``
    is optional so small hand-written matrices can be wrapped directly.
    """

    matrix: np.ndarray
    grid: Grid1D | None = None
    substochastic: bool = False
    row_leakage: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {self.matrix.shape}")
        if self.grid is not None and self.matrix.shape[0] != self.grid.n_nodes:
            raise ValueError("matrix size does not match the grid")
        if np.any(self.matrix < 0):
            raise ValueError("kernel entries must be non-negative")
        sums = self.matrix.sum(axis=1)
        if np.any(sums > 1.0 + 1e-12):
            raise ValueError(f"row sums exceed one (max {sums.max()!r})")
        if not self.substochastic and np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("rows of a stochastic kernel must sum to one")

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Right action on functions: ``(P f)(x) = sum_y p(x, y) f(y)``."""
        return self.matrix @ np.asarray(f, dtype=float)

    def apply_adjoint(self, mu: np.ndarray) -> np.ndarray:
        """Left action on measures: ``(mu P)(y) = sum_x mu(x) p(x, y)``."""
        return np.asarray(mu, dtype=float) @ self.matrix


def _kernel_matrix(kernel) -> np.ndarray:
    """Accept a DiscreteKernel or a bare non-negative square matrix."""
    if isinstance(kernel, DiscreteKernel):
        return kernel.matrix
    m = np.asarray(kernel, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"kernel must be a square matrix, got shape {m.shape}")
    if np.any(m < 0):
        raise ValueError("kernel entries must be non-negative")
    return m


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------

def discretize_kernel(model: SdeModel, grid: Grid1D, t_step: float, *,
                      bc: str = "neumann_zero",
                      dt: float | None = None) -> DiscreteKernel:
    """Transition matrix of ``model`` over one time step on ``grid``.

    Pushes the identity matrix through the backward solver (every column
    is an indicator function), which returns the ``t_step / dt``-th power
    of the backward-Euler resolvent, formed by repeated squaring; ``dt``
    defaults to ``t_step / 1000``, and a finer one costs a few more
    products, not more solves.  With
    reflecting boundaries the rows are renormalized to probability vectors
    and the leaked mass recorded; with absorbing (``dirichlet_zero``)
    boundaries the rows are left substochastic, which is the
    quasistationary setting.
    """
    if not 0.0 < t_step < math.inf:
        raise ValueError(f"t_step must be finite and positive, got {t_step}")
    dt = t_step / 1000 if dt is None else dt
    # non-negative on every grid: the backward solver steps with an M-matrix
    k = solve_backward_kolmogorov(model, np.eye(grid.n_nodes), grid,
                                  t_end=t_step, dt=dt, bc=bc)
    absorbing = bc == "dirichlet_zero"
    if absorbing:
        # Absorbed mass never returns, so the boundary columns are
        # identically zero; the kernel lives on the interior nodes.
        if grid.n_cells < 4:
            raise ValueError("need at least 4 cells for an absorbing kernel")
        grid = Grid1D(grid.x_min + grid.dx, grid.x_max - grid.dx,
                      grid.n_cells - 2)
        k = k[1:-1, 1:-1]
    sums = k.sum(axis=1)
    if np.any(sums <= 0):
        raise ValueError("a kernel row received no mass; refine the discretization")
    if absorbing:
        k = np.where(sums[:, None] > 1.0, k / sums[:, None], k)
        return DiscreteKernel(k, grid, substochastic=True,
                              row_leakage=1.0 - k.sum(axis=1))
    return DiscreteKernel(k / sums[:, None], grid, substochastic=False,
                          row_leakage=1.0 - sums)


# ---------------------------------------------------------------------------
# Drift and minorisation certificates
# ---------------------------------------------------------------------------

class DriftCertificate(NamedTuple):
    gamma: float
    d: float
    feasible: bool


def verify_geometric_drift(kernel, V) -> DriftCertificate:
    """Fit ``(P V)(x) <= gamma V(x) + d`` with the tightest useful constants.

    For each gamma on a grid in (0, 1) the smallest admissible offset is
    ``d(gamma) = max(P V - gamma V, 0)``.  The fit takes the smallest
    ``gamma`` whose offset is (up to rounding slack) as small as the best
    one found — past the true contraction factor the offset curve goes
    flat, so this locates the elbow.  The returned pair satisfies the
    inequality at every node by construction.
    """
    m = _kernel_matrix(kernel)
    v = np.asarray(V, dtype=float)
    if v.shape != (m.shape[0],):
        raise ValueError("V must be a grid function matching the kernel")
    if np.any(v < 0):
        raise ValueError("V must be non-negative")
    pv = m @ v
    gammas = np.linspace(1e-3, 1.0 - 1e-3, 999)
    offsets = np.maximum(pv[None, :] - gammas[:, None] * v[None, :], 0.0).max(axis=1)
    best = float(offsets.min())
    slack = 1e-9 * max(best, 1.0) + 1e-12
    pick = int(np.argmax(offsets <= best + slack))
    gamma = float(gammas[pick])
    d = float(np.max(np.maximum(pv - gamma * v, 0.0)))
    return DriftCertificate(gamma, d, drift_violations(m, v, gamma, d) == 0)


def drift_violations(kernel, V, gamma: float, d: float) -> int:
    """Number of nodes where ``(P V)(x) <= gamma V(x) + d`` fails.

    The inequality is evaluated as ``P V - gamma V <= d``, the same
    expression the fit maximises, so a fitted certificate passes exactly.
    """
    m = _kernel_matrix(kernel)
    v = np.asarray(V, dtype=float)
    return int(np.sum(m @ v - gamma * v > d))


@dataclass(frozen=True)
class MinorisationCert:
    """Verified minorisation ``p(x, .) >= alpha nu(.)`` for all x in C.

    ``c_nodes`` indexes the small set ``C = {V < R}``; ``nu`` is the
    normalized entrywise row minimum over ``C`` (the largest feasible
    minorising measure) and ``alpha`` its total mass, nudged down so the
    inequality holds exactly in floating point.
    """

    c_nodes: np.ndarray
    alpha: float
    nu: np.ndarray
    level: float

    def violations(self, kernel) -> int:
        m = _kernel_matrix(kernel)
        return int(np.sum(m[self.c_nodes] < self.alpha * self.nu[None, :]))


def verify_minorisation(kernel, level: float, V) -> MinorisationCert:
    """Certify a minorisation condition on the sublevel set ``{V < level}``.

    The minorising measure is the normalized entrywise minimum of the rows
    over the small set; its mass is the certified ``alpha``.  Raises when
    the rows have disjoint support (``alpha = 0``).
    """
    m = _kernel_matrix(kernel)
    v = np.asarray(V, dtype=float)
    if v.shape != (m.shape[0],):
        raise ValueError("V must be a grid function matching the kernel")
    c_nodes = np.flatnonzero(v < level)
    if c_nodes.size == 0:
        raise ValueError(f"the sublevel set {{V < {level}}} is empty")
    row_min = m[c_nodes].min(axis=0)
    alpha_raw = float(row_min.sum())
    if alpha_raw <= 0.0:
        raise ValueError("rows over the small set have disjoint supports (alpha = 0)")
    nu = row_min / alpha_raw
    nu = nu / nu.sum()
    cert = MinorisationCert(c_nodes, alpha_raw * (1.0 - _GUARD), nu, float(level))
    if cert.violations(m) != 0:
        raise RuntimeError("minorisation certificate fails its own recheck")
    return cert


def hm_constants(gamma: float, d: float, alpha: float, level: float,
                 alpha0: float, gamma0: float) -> tuple[float, float]:
    """Explicit contraction constants ``(beta, alpha_bar)`` for ``rho_beta``.

    Given a geometric drift certificate ``(gamma, d)``, a minorisation
    ``alpha`` on ``{V < level}``, and tuning parameters ``alpha0 in
    (0, alpha)`` and ``gamma0`` in the admissible window
    ``(gamma + 2d/level, 1)``, returns ``beta = alpha0/d`` and

        alpha_bar = max(1 - (alpha - alpha0), (2 + level beta gamma0)/(2 + level beta)),

    which is a bound on the contraction factor of the weighted
    total-variation metric under one kernel step.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if d <= 0 or level <= 0:
        raise ValueError("d and the small-set level must be positive")
    if not 0.0 < alpha0 < alpha:
        raise ValueError(f"need 0 < alpha0 < alpha, got alpha0={alpha0}, alpha={alpha}")
    low = gamma + 2.0 * d / level
    if low >= 1.0:
        raise ValueError(
            f"no admissible gamma0: gamma + 2d/level = {low:.6g} >= 1; "
            "increase the small-set level"
        )
    if not low < gamma0 < 1.0:
        raise ValueError(f"gamma0 must lie in ({low:.6g}, 1), got {gamma0}")
    beta = alpha0 / d
    alpha_bar = max(1.0 - (alpha - alpha0),
                    (2.0 + level * beta * gamma0) / (2.0 + level * beta))
    if not 0.0 < alpha_bar < 1.0:
        raise RuntimeError(f"contraction factor alpha_bar = {alpha_bar} is not in (0, 1)")
    return beta, alpha_bar


def rho_beta_distance(mu, nu_meas, V, beta: float) -> float | np.ndarray:
    """Weighted total-variation distance ``sum (1 + beta V) |mu - nu|``
    over the last axis: stacked rows give one distance per row."""
    mu = np.asarray(mu, dtype=float)
    nu_meas = np.asarray(nu_meas, dtype=float)
    v = np.asarray(V, dtype=float)
    if mu.shape != nu_meas.shape or mu.shape[-1:] != v.shape:
        raise ValueError("mu, nu and V must share one grid")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return np.sum((1.0 + beta * v) * np.abs(mu - nu_meas), axis=-1)


@dataclass(frozen=True)
class HmContractionReport:
    """Empirical contraction of ``rho_beta`` under one kernel step.

    ``max_ratio`` is the worst contraction factor over random smooth
    pairs; ``max_point_ratio`` the worst over all pairs of point masses,
    where the theoretical bound is attained.
    """

    n_pairs: int
    alpha_bar: float
    max_ratio: float
    mean_ratio: float
    max_point_ratio: float


def verify_hm_contraction(kernel, V, beta: float, alpha_bar: float,
                          n_pairs: int = 1000,
                          stream: GaussianStream | None = None) -> HmContractionReport:
    """Measure ``rho_beta(mu P, nu P) / rho_beta(mu, nu)`` against ``alpha_bar``.

    Random pairs are independent log-normal-weight probability vectors; on
    top of those, every pair of point masses is checked, since those are
    the extremal measures of the weighted metric.  The certified theory
    promises every ratio is at most ``alpha_bar``.  Pairs are drawn in
    stream order in batches and pushed one measure per product, so the
    report equals that of one pair at a time.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    m = _kernel_matrix(kernel)
    v = np.asarray(V, dtype=float)
    n = m.shape[0]
    gen = (stream if stream is not None else GaussianStream(271828)).generator()
    ratios = np.zeros(n_pairs)
    for start in range(0, n_pairs, _PAIR_BATCH):
        w = np.exp(gen.normal(size=(min(_PAIR_BATCH, n_pairs - start), 2, n)))
        w /= w.sum(axis=-1, keepdims=True)
        before = rho_beta_distance(w[:, 0], w[:, 1], v, beta)
        pushed = np.matmul(w[:, :, None, :], m)[:, :, 0]  # a gemv each: mu @ m's bits
        after = rho_beta_distance(pushed[:, 0], pushed[:, 1], v, beta)
        np.divide(after, before, out=ratios[start:start + len(w)], where=before != 0.0)
    weights = 1.0 + beta * v
    point_ratio = 0.0
    rows = np.empty_like(m)
    for x in range(n):
        np.subtract(m[x], m, out=rows)
        after = np.abs(rows, out=rows) @ weights           # rho_beta of row pairs
        before = 2.0 + beta * (v[x] + v)                   # distance of point masses
        after[x] = 0.0
        point_ratio = max(point_ratio, float(np.max(after / before)))
    return HmContractionReport(n_pairs, alpha_bar, float(ratios.max()),
                               float(ratios.mean()), point_ratio)


# ---------------------------------------------------------------------------
# Cone bounds, Hilbert metric, power iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeBounds:
    """Uniform positivity envelope ``s(x)m(y) <= p(x,y) <= L s(x)m(y)``."""

    s: np.ndarray
    m: np.ndarray
    L: float

    def violations(self, kernel) -> int:
        p = _kernel_matrix(kernel)
        outer = np.outer(self.s, self.m)
        return int(np.sum((p < outer) | (p > self.L * outer)))


def fit_cone_bounds(kernel) -> ConeBounds:
    """Fit the tightest uniform-positivity envelope of a positive kernel.

    ``s`` is the row-sum normalization, ``m`` the entrywise minimum of the
    normalized rows, and ``L`` the worst entrywise ratio.  Both ``m`` and
    ``L`` carry a one-part-in-10^12 nudge so the envelope holds exactly in
    floating point; a zero entry means the kernel is not uniformly
    positive and is rejected.
    """
    p = _kernel_matrix(kernel)
    if np.any(p <= 0):
        raise ValueError("kernel has a zero entry; it is not uniformly positive")
    s = p.sum(axis=1)
    normalized = p / s[:, None]
    m = normalized.min(axis=0) * (1.0 - _GUARD)
    ell = float(np.max(p / np.outer(s, m))) * (1.0 + _GUARD)
    bounds = ConeBounds(s, m, ell)
    if bounds.violations(p) != 0:
        raise RuntimeError("cone bounds fail their own recheck")
    return bounds


def _cross_ratio(f, g):
    """``min(f/g) min(g/f)`` over the last axis: ``exp(-d)`` at Hilbert distance d."""
    return np.min(f / g, axis=-1) * np.min(g / f, axis=-1)


def hilbert_metric(f, g) -> float:
    """Hilbert projective distance ``|log(min(f/g) min(g/f))|``.

    Scale-invariant in each argument and zero exactly for proportional
    vectors.  Vectors leaving the positive cone are at infinite distance;
    the sentinel ``math.inf`` is returned rather than raising.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError("vectors must have matching shapes")
    if np.any(f <= 0) or np.any(g <= 0):
        return math.inf
    return abs(math.log(_cross_ratio(f, g)))


def projective_diameter(kernel, n_probe: int = 1000,
                        stream: GaussianStream | None = None) -> float:
    """Estimate the projective diameter of the kernel's image cone.

    Takes the maximum Hilbert distance over all pairs of rows and over
    random log-uniform positive vectors pushed through the kernel, and
    checks the result against the ``2 log L`` bound from the cone fit.
    Probes are drawn in stream order as one array and pushed one per
    product, and each row meets the rows after it as one array, so the
    estimate equals that of one pair at a time.
    """
    if n_probe < 0:
        raise ValueError(f"n_probe must be non-negative, got {n_probe}")
    p = _kernel_matrix(kernel)
    if np.any(p <= 0):
        raise ValueError("projective diameter needs a strictly positive kernel")
    n = p.shape[0]
    gen = (stream if stream is not None else GaussianStream(314159)).generator()
    probes = np.exp(gen.uniform(-3.0, 3.0, size=(n_probe, 2, n)))
    pushed = np.matmul(p, probes[..., None])[..., 0]  # a gemv each: p @ f's bits
    ratios = np.concatenate([*(_cross_ratio(p[i], p[i + 1:]) for i in range(n - 1)),
                             _cross_ratio(pushed[:, 0], pushed[:, 1])])
    # a cross ratio is at most one up to rounding and log is monotone, so the
    # largest distance is that of the smallest or largest ratio (none reads 1)
    delta = max(abs(math.log(ratios.min(initial=1.0))),
                abs(math.log(ratios.max(initial=1.0))))
    bound = 2.0 * math.log(fit_cone_bounds(p).L)
    if not delta <= bound + 1e-9:
        raise RuntimeError("diameter exceeded the 2 log L bound")
    return delta


@dataclass(frozen=True)
class JentzschResult:
    """Perron data of a positive kernel from two-sided power iteration.

    ``h0`` is the right eigenvector (sup-norm one), ``pi0`` the left one
    (unit mass; the quasistationary distribution when the kernel is
    substochastic), ``lambda0`` the shared eigenvalue, and
    ``observed_rate`` the fitted geometric decay of successive projective
    distances during the iteration.
    """

    lambda0: float
    h0: np.ndarray
    pi0: np.ndarray
    observed_rate: float
    n_iterations: int
    residual_right: float
    residual_left: float


def power_iteration_jentzsch(kernel, tol: float = 1e-10,
                             max_iter: int = 10_000) -> JentzschResult:
    """Two-sided power iteration with a projective-contraction rate check.

    Iterates ``h -> P h`` and ``pi -> pi P`` until both sup-norm residuals
    against the Rayleigh eigenvalue drop below ``tol``; raises if
    ``max_iter`` is exhausted first.  The observed projective decay rate
    is checked against the ``1 - 1/L^2`` spectral-gap guarantee.
    """
    p = _kernel_matrix(kernel)
    if np.any(p <= 0):
        raise ValueError("power iteration with guarantees needs a positive kernel")
    n = p.shape[0]
    # generic positive starts (a constant start is already the Perron vector
    # of a stochastic kernel, which would hide the convergence rate)
    h = 1.0 + np.arange(n) / (2.0 * max(n - 1, 1))
    pi = h[::-1] / h.sum()
    thetas = []
    for iteration in range(1, max_iter + 1):
        h_new = p @ h
        h_new /= np.max(np.abs(h_new))
        pi_new = pi @ p
        pi_new /= pi_new.sum()
        thetas.append(hilbert_metric(h_new, h))
        h, pi = h_new, pi_new
        lam = float(pi @ (p @ h)) / float(pi @ h)
        res_right = float(np.max(np.abs(p @ h - lam * h)))
        res_left = float(np.max(np.abs(pi @ p - lam * pi)))
        if res_right <= tol and res_left <= tol:
            break
    else:
        raise RuntimeError(f"power iteration did not converge in {max_iter} steps")

    usable = [(a, b) for a, b in zip(thetas[:-1], thetas[1:]) if a > 1e-10 and b > 0]
    rate = float(np.median([b / a for a, b in usable])) if usable else 0.0
    gap_bound = 1.0 - 1.0 / fit_cone_bounds(p).L ** 2
    if not rate <= gap_bound + max(tol, 1e-9):
        raise RuntimeError("observed rate exceeded the spectral-gap bound")
    return JentzschResult(lam, h, pi, rate, iteration, res_right, res_left)
