"""Generators, Kolmogorov equations and densities for scalar diffusions.

For ``dX = f(X) dt + g(X) dW`` the generator and its formal adjoint are

    L u   = f u' + (1/2) D u''              with D = g^2,
    L* rho = (1/2) (D rho)'' - (f rho)',

acting on functions sampled on a uniform spatial grid.  ``L*`` is
assembled once, in flux form with the exponentially fitted face current
of Scharfetter and Gummel (*IEEE Trans. Electron Devices* 16, 1969) and
Chang and Cooper (*J. Comput. Phys.* 6, 1970), and ``L`` is its
transpose.  The fitted weights are positive at every cell Peclet number,
so ``I - dt L*`` is an M-matrix on every grid and both solves keep
non-negative data non-negative; with a constant dispersion, the sampled
Gibbs density of a potential of degree at most four is an exact discrete
null vector of ``L*``.  The module solves
the backward equation ``du/dt = L u`` and the Fokker-Planck equation
``drho/dt = L* rho`` by backward Euler in time, provides the
closed-form heat kernels for free, reflected and killed Brownian motion,
the stationary density ``exp(-U)/Z`` of gradient systems, and Monte Carlo
estimators for the semigroup and for Feynman-Kac functionals that serve as
independent cross-checks of the PDE routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .sde import GaussianStream, SdeModel, TimeGrid, _em_windows

__all__ = [
    "Grid1D",
    "DensityField",
    "BoundaryCondition",
    "solve_backward_kolmogorov",
    "solve_fokker_planck",
    "delta_field",
    "stationary_density_gradient",
    "free_bm_density",
    "reflected_bm_density",
    "killed_bm_density",
    "mc_semigroup",
    "mc_feynman_kac",
]


class BoundaryCondition(str, Enum):
    """Boundary handling for the PDE solvers.

    ``dirichlet_zero``
        Absorbing: the solution is pinned to zero at both edge nodes.
    ``neumann_zero``
        Reflecting: zero derivative (backward equation) respectively zero
        probability flux (Fokker-Planck), which conserves mass exactly.
    """

    DIRICHLET_ZERO = "dirichlet_zero"
    NEUMANN_ZERO = "neumann_zero"


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid on ``[x_min, x_max]`` with ``n_cells`` cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if self.n_cells < 2:
            raise ValueError(f"need at least two cells, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_nodes)


@dataclass
class DensityField:
    """Non-negative density values on a spatial grid at a given time."""

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values must have shape ({self.grid.n_nodes},), got {self.values.shape}"
            )
        if np.any(self.values < 0):
            raise ValueError("densities must be non-negative")

    def mass(self) -> float:
        """Trapezoidal integral of the density over the grid."""
        return float(np.trapezoid(self.values, self.grid.nodes))

    def normalized(self) -> "DensityField":
        return DensityField(self.grid, self.values / self.mass(), self.time)

    def l1_distance(self, other: "DensityField") -> float:
        if self.grid != other.grid:
            raise ValueError("densities live on different grids")
        return float(np.trapezoid(np.abs(self.values - other.values), self.grid.nodes))


# ---------------------------------------------------------------------------
# Generator and adjoint on a grid
# ---------------------------------------------------------------------------

def _scalar_coefficients(model: SdeModel, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if model.dim_state != 1 or model.dim_noise != 1:
        raise ValueError("the PDE routines handle scalar models only")
    x = nodes[:, np.newaxis]
    f = np.asarray(model.drift(x), dtype=float).reshape(-1)
    d = np.asarray(model.diffusion_matrix(x), dtype=float).reshape(-1)
    return f, d


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """``B(z) = z / (e^z - 1)``, with ``B(0) = 1``, for every finite ``z``.

    Only ``e^{-|z|}`` is taken, so nothing overflows: ``B(z) = B(-|z|)``
    for ``z < 0`` and ``B(-|z|) e^{-|z|}`` for ``z > 0``.  Where
    ``|z| > 700`` the second is below ``1e-300`` of its partner
    ``B(-z) = B(z) + z`` and is flushed to zero, not underflowed.
    """
    t = -np.abs(z)
    b = np.divide(t, np.expm1(t), out=np.ones_like(t), where=t != 0.0)
    decay = np.exp(t, out=np.zeros_like(t), where=t > -700.0)
    return np.where(z > 0.0, b * decay, b)


def _generator(model: SdeModel, grid: Grid1D, bc: BoundaryCondition,
               adjoint: bool) -> np.ndarray:
    """``L*`` (``adjoint``) or ``L`` as a tridiagonal matrix in banded storage ``(3, n)``.

    ``L*`` is assembled in flux form, ``drho_i/dt = -(J_{i+1/2} - J_{i-1/2})/dx``,
    with no current through the outer faces, and ``L`` is its transpose.
    With ``a = D/2`` the face current is the exponentially fitted one,
    ``J_{i+1/2} = (B(-z) a_i rho_i - B(z) a_{i+1} rho_{i+1}) / dx``, where
    ``z`` is Simpson's rule for the integral of ``f/a`` over the cell.
    A node where ``D = 0`` and ``f = 0`` sends nothing; one where
    ``D = 0`` and ``f != 0`` is rejected.  An edge node's cell is
    ``dx/2`` wide, so under ``neumann_zero`` its row is doubled: ``L*``
    then conserves the trapezoid mass and ``L`` is its transpose in the
    trapezoid inner product, with the ghost-node value at the walls.
    Under ``dirichlet_zero`` the edge rows are zeroed, which pins the
    edge values.
    """
    n, dx = grid.n_nodes, grid.dx
    xs = np.concatenate([grid.nodes, grid.nodes[:-1] + 0.5 * dx])  # nodes, then midpoints
    f, d = _scalar_coefficients(model, xs)
    a = 0.5 * d
    stuck = (a == 0.0) & (f != 0.0)
    if np.any(stuck):
        raise ValueError(f"the diffusion vanishes at x = {xs[np.argmax(stuck)]:.6g}, "
                         f"where the drift does not; the fitted flux has no limit there")
    v = np.divide(f, a, out=np.zeros_like(f), where=a != 0.0)
    z = dx / 6.0 * (v[:n - 1] + 4.0 * v[n:] + v[1:n])
    # face k carries right[k] rho_k to node k+1 and left[k] rho_{k+1} to node k
    right = _bernoulli(-z) * a[:n - 1] / dx**2
    left = _bernoulli(z) * a[1:n] / dx**2
    banded = np.zeros((3, n))
    banded[0, 1:], banded[2, :-1] = (left, right) if adjoint else (right, left)
    banded[1, :-1] -= right
    banded[1, 1:] -= left
    # an edge node holds half a cell, so its row is the current over dx/2;
    # dirichlet_zero zeroes the row instead, which pins the edge value
    edge = 0.0 if bc is BoundaryCondition.DIRICHLET_ZERO else 2.0
    banded[1, [0, -1]] *= edge
    banded[0, 1] *= edge
    banded[2, -2] *= edge
    return banded


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def _factorize(banded: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor (``dgttrf``) a tridiagonal matrix in banded storage ``(3, n)``
    and return its solve ``b -> x``, which overwrites a Fortran-ordered ``b``.

    The eliminations are those of ``gtsv``, which ``solve_banded`` runs,
    so the bits are the same.
    """
    # scipy's LAPACK loads at the first grid solve, not at import
    from scipy.linalg.lapack import dgttrf, dgttrs

    banded = np.asarray_chkfinite(banded)
    *factors, info = dgttrf(banded[2, :-1], banded[1], banded[0, 1:])
    if info != 0:
        raise LinAlgError("singular matrix")

    def solve(b: np.ndarray) -> np.ndarray:
        x, _ = dgttrs(*factors, b, overwrite_b=1)
        return x

    return solve


def _resolvent(solve: Callable, n: int) -> np.ndarray:
    """The one-step resolvent ``(I - dt A)^{-1}`` as a dense matrix."""
    return solve(np.eye(n, order="F"))


def _evolve(banded_a: np.ndarray, state: np.ndarray, n_steps: int,
            dt: float) -> np.ndarray:
    """Backward Euler ``(I - dt A) u_{k+1} = u_k`` for ``n_steps`` steps.

    ``I - dt A`` is factorised once.  A vector, or a matrix with fewer
    columns than grid nodes, is stepped by one solve per step on a copy.
    A matrix with at least as many columns, such as the identity that
    assembles a transition kernel, is mapped by the ``n_steps``-th power
    of the resolvent ``R = (I - dt A)^{-1}``: about ``2 log2(n_steps)``
    dense products instead of ``n_steps`` solves of every column.  The
    identity itself is not multiplied: the power is returned.
    ``R >= 0`` holds by construction: the fitted ``A`` has non-negative
    off-diagonals on every grid, so ``I - dt A`` is an M-matrix.  A
    product of non-negative matrices has a componentwise relative error
    of at most about ``n`` units in the last place (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, sec. 3.5), so the power is
    as accurate as stepping.
    """
    lhs = -dt * banded_a
    lhs[1] += 1.0
    solve = _factorize(lhs)
    n = lhs.shape[1]
    state = np.asarray_chkfinite(state)
    if state.ndim == 2 and state.shape[1] >= n:
        power = np.linalg.matrix_power(_resolvent(solve, n), n_steps)
        if (state.shape[1] == n and np.count_nonzero(state) == n
                and np.all(np.diagonal(state) == 1.0)):
            return power  # the identity that assembles a transition kernel
        return power @ state
    u = np.array(state.reshape(n, -1), order="F")
    for _ in range(n_steps):
        u = solve(u)
    return u.reshape(state.shape)


def _solve(model: SdeModel, grid: Grid1D, state: np.ndarray, t_end: float,
           dt: float, bc, adjoint: bool) -> np.ndarray:
    """Step ``state`` by backward Euler under ``L*`` (``adjoint``) or ``L``.

    ``n_steps = round(t_end / dt)`` steps of ``t_end / n_steps``, with the
    edge values pinned to zero for ``dirichlet_zero``.  Non-negative data
    stays non-negative by construction; that is checked on every run, and
    rounding-level negatives are then floored to zero.
    """
    bc = BoundaryCondition(bc)
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    n_steps = max(1, round(t_end / dt))
    banded_a = _generator(model, grid, bc, adjoint)
    if bc is BoundaryCondition.DIRICHLET_ZERO:
        state = state.copy()
        state[0] = state[-1] = 0.0
    u = _evolve(banded_a, state, n_steps, t_end / n_steps)
    if bc is BoundaryCondition.DIRICHLET_ZERO:
        u[0] = u[-1] = 0.0
    if np.all(state >= 0.0):
        floor = 1e-9 * (1.0 + float(np.max(state)))
        lowest = float(np.min(u))
        if not lowest >= -floor:
            raise RuntimeError(
                f"implicit step lost positivity on {grid}: the lowest value is "
                f"{lowest:.3g}, below -{floor:.3g}, although I - dt A is an M-matrix")
        u = np.maximum(u, 0.0)
    return u


def solve_backward_kolmogorov(model: SdeModel, phi, grid: Grid1D, t_end: float,
                              dt: float, bc="neumann_zero") -> np.ndarray:
    """Evolve ``du/dt = L u`` from ``u(0) = phi`` to time ``t_end``.

    ``phi`` may be a callable evaluated on the nodes, an array of node
    values, or a matrix with one column per function.  Time stepping is
    backward Euler with one factorisation of ``I - dt L``; a matrix with
    at least as many columns as nodes (the identity, which assembles a
    transition kernel) is mapped by the ``n_steps``-th power of the
    one-step resolvent instead of being stepped.  ``L`` is the transpose
    of the fitted flux form of ``L*``, so constants are preserved under
    ``neumann_zero`` and non-negative data stays non-negative on every grid.
    """
    u0 = np.asarray(phi(grid.nodes) if callable(phi) else phi, dtype=float)
    if u0.shape[0] != grid.n_nodes:
        raise ValueError(f"phi must be sampled on all {grid.n_nodes} nodes")
    return _solve(model, grid, u0, t_end, dt, bc, adjoint=False)


def solve_fokker_planck(model: SdeModel, rho0: DensityField, t_end: float,
                        dt: float, bc="neumann_zero") -> DensityField:
    """Evolve the Fokker-Planck equation ``drho/dt = L* rho`` to ``t_end``.

    Uses the fitted flux discretisation, so with reflecting
    (``neumann_zero``) boundaries the trapezoid mass
    :meth:`DensityField.mass` is conserved to rounding, and the density
    stays non-negative on every grid.
    """
    rho = _solve(model, rho0.grid, rho0.values, t_end, dt, bc, adjoint=True)
    return DensityField(rho0.grid, rho, rho0.time + t_end)


def delta_field(grid: Grid1D, center: float, width: float | None = None) -> DensityField:
    """Normalised Gaussian bump approximating a point mass at ``center``.

    The default width is two grid spacings, narrow enough to act as a
    delta initial condition while remaining resolvable on the grid.
    """
    if not grid.x_min <= center <= grid.x_max:
        raise ValueError(f"center {center} lies outside the grid")
    sd = 2.0 * grid.dx if width is None else width
    vals = np.exp(-0.5 * ((grid.nodes - center) / sd) ** 2)
    field = DensityField(grid, vals)
    return field.normalized()


# ---------------------------------------------------------------------------
# Closed-form densities and stationary states
# ---------------------------------------------------------------------------

def stationary_density_gradient(potential: Callable[[np.ndarray], np.ndarray],
                                grid: Grid1D) -> DensityField:
    """Stationary density ``exp(-U)/Z`` of ``dX = -U'(X) dt + sqrt(2) dW``.

    ``Z`` is the trapezoidal integral over the grid.  If ``exp(-U)`` has
    not decayed at the domain edges (edge value above 1e-3 of the peak)
    the potential is treated as non-confining and an error is raised,
    since the normalisation would be a truncation artifact.
    """
    u = np.asarray(potential(grid.nodes), dtype=float)
    w = np.exp(-(u - u.min()))  # shift for overflow safety; Z absorbs it
    if max(w[0], w[-1]) > 1e-3 * w.max():
        raise ValueError(
            "exp(-U) has not decayed at the domain edges; the potential does not "
            "confine on this grid and exp(-U) is not normalisable here"
        )
    z = float(np.trapezoid(w, grid.nodes))
    return DensityField(grid, w / z)


def free_bm_density(x, t: float) -> np.ndarray:
    """Heat kernel ``exp(-x^2/2t) / sqrt(2 pi t)`` of Brownian motion."""
    if t <= 0:
        raise ValueError("time must be positive")
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def reflected_bm_density(x, t: float, barrier: float) -> np.ndarray:
    """Transition density of Brownian motion reflected at ``barrier``.

    For a path started at the origin with ``x <= barrier``, the method of
    images adds the mirror source: ``p(t,x) + p(t, 2*barrier - x)``, whose
    derivative vanishes at the barrier (no flux).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x > barrier):
        raise ValueError("the reflected density is defined on x <= barrier")
    return free_bm_density(x, t) + free_bm_density(2.0 * barrier - x, t)


def killed_bm_density(x, t: float, barrier: float) -> np.ndarray:
    """Sub-probability density of Brownian motion killed at ``barrier``.

    The image charge is subtracted: ``p(t,x) - p(t, 2*barrier - x)``; the
    result vanishes at the barrier and its total mass decays in time.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x > barrier):
        raise ValueError("the killed density is defined on x <= barrier")
    return free_bm_density(x, t) - free_bm_density(2.0 * barrier - x, t)


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks
# ---------------------------------------------------------------------------

def mc_semigroup(model: SdeModel, x0, t: float, phi, n_paths: int, dt: float,
                 stream: GaussianStream) -> tuple[float, float]:
    """Estimate ``(P_t phi)(x0) = E[phi(X_t) | X_0 = x0]`` by Euler-Maruyama.

    The ensemble is stepped a window at a time and only the last window's
    last row is kept, with the bits of ``euler_maruyama_ensemble(...)[:, -1]``.
    Returns ``(estimate, standard_error)``.
    """
    grid = TimeGrid(0.0, t, max(1, round(t / dt)))
    for _, path in _em_windows(model, x0, grid, n_paths, stream):
        terminal = path[-1]
    vals = np.asarray(phi(terminal[:, 0] if model.dim_state == 1 else terminal),
                      dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths))


def mc_feynman_kac(model: SdeModel, x0, t: float, phi, potential_q, n_paths: int,
                   dt: float, stream: GaussianStream) -> tuple[float, float]:
    """Estimate ``E[exp(-int_0^t q(X_s) ds) phi(X_t)]`` by Euler-Maruyama.

    The killing integral uses left-endpoint quadrature on the simulation
    grid, summed per path as the windows of the ensemble arrive: ``q``
    sees states of shape ``(w, n_paths)`` in 1-D and ``(w, n_paths, n)``
    otherwise.  Returns ``(estimate, standard_error)``.
    """
    grid = TimeGrid(0.0, t, max(1, round(t / dt)))
    killing = np.zeros(n_paths)
    for _, path in _em_windows(model, x0, grid, n_paths, stream):
        states = path[..., 0] if model.dim_state == 1 else path
        killing += np.asarray(potential_q(states[:-1]), dtype=float).sum(axis=0)
    weights = np.exp(-killing * grid.dt)
    vals = weights * np.asarray(phi(states[-1]), dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths))
