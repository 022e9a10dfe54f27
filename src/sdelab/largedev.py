"""Sample-path large deviations: the action functional, action
minimization, quasipotentials, and metastable exit-time laws.

The central object is the path action

    S(phi) = 1/2 * integral of <phidot - f(phi), D(phi)^{-1} (phidot - f(phi))> dt,

discretized on a uniform time grid with left-endpoint coefficients.  The
module evaluates it (:func:`fw_rate`; Schilder's functional is its value
for ``SdeModel.brownian``), minimizes it between fixed endpoints with a
Sobolev-preconditioned descent (:func:`minimize_action`), and takes the
infimum over travel times to obtain the quasipotential.

On top of the variational machinery sit the classical rare-event laws:
the closed-form level-crossing rate of the Ornstein-Uhlenbeck process,
an Arrhenius-law fitting harness driven by Monte Carlo exit times, and
the Eyring-Kramers mean transition time with Hessian checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expr import Expression
from .firstexit import Domain, interval_exit_reference, mc_exit
from .kolmogorov import _factorize
from .sde import GaussianStream, SdeModel, TimeGrid

__all__ = [
    "ActionPath",
    "QuasipotentialResult",
    "ArrheniusFit",
    "fw_rate",
    "action_gradient",
    "minimize_action",
    "quasipotential",
    "ou_exit_rate",
    "arrhenius_check",
    "eyring_kramers_time",
]

_FD_STEP = 1e-5  # the one finite-difference step, for callables without exact derivatives
_EQUILIBRIUM_TOL = 1e-6  # largest |f(x_star)| that quasipotential accepts as an equilibrium
_MAX_CENSORED = 0.05  # largest censored fraction of an arrhenius_check exit run


@dataclass
class ActionPath:
    """A path on a uniform time grid with its (optionally cached) action.

    ``values`` has one row per grid node; scalar paths may be passed as a
    flat array and are stored with a trailing state axis.  ``converged``
    is set by the minimizers; a path that did not converge still carries
    the best iterate found.
    """

    grid: TimeGrid
    values: np.ndarray
    action: float | None = None
    converged: bool = True
    history: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        if values.ndim != 2 or values.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"need one path value per node: got {values.shape} "
                f"for {self.grid.n_nodes} nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def line(cls, x0, y, grid: TimeGrid) -> "ActionPath":
        """Straight-line path from ``x0`` to ``y`` over ``grid``."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        s = (grid.nodes - grid.t0) / (grid.t_end - grid.t0)
        return cls(grid, x0[None, :] + s[:, None] * (y - x0)[None, :])


@dataclass
class QuasipotentialResult:
    """Infimum of the action over travel times from a grid of horizons."""

    value: float
    minimizing_t: float
    path: ActionPath
    converged: bool
    t_values: tuple[float, ...] = ()
    action_values: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# The action functional
# ---------------------------------------------------------------------------

def _residuals(model: SdeModel, values: np.ndarray, dt: float):
    """Left-endpoint residuals ``dphi/h - f`` and solved ``D^{-1} r``."""
    xs = values[:-1]
    r = np.diff(values, axis=0) / dt - model.drift(xs)
    d = model.diffusion_matrix(xs)
    np.linalg.cholesky(d)  # ellipticity check: raises on a singular/indefinite D
    return r, np.linalg.solve(d, r[..., np.newaxis])[..., 0]


def fw_rate(model: SdeModel, path: ActionPath) -> float:
    """Lagrangian action ``1/2 sum <r, D^{-1} r> h`` with ``r = dphi/h - f``.

    Coefficients are evaluated at the left endpoint of each step.  The
    dispersion must be elliptic along the path; a singular diffusion
    matrix at any node is rejected.
    """
    try:
        r, a = _residuals(model, path.values, path.grid.dt)
    except np.linalg.LinAlgError:
        raise ValueError("singular diffusion matrix along the path") from None
    return float(0.5 * path.grid.dt * np.sum(r * a))


def _central_differences(f: Callable, x, dim: int) -> list[np.ndarray]:
    """The package's one rule for differentiating a callable: the list over
    ``l < dim`` of ``(f(x + h e_l) - f(x - h e_l)) / 2h``, with ``e_l`` the
    l-th unit vector along the last axis of ``x`` and ``h = _FD_STEP``."""
    out = []
    for l in range(dim):
        e = np.zeros(dim)
        e[l] = _FD_STEP
        out.append((f(x + e) - f(x - e)) / (2 * _FD_STEP))
    return out


def _drift(U: Callable) -> Callable:
    """The drift ``-U'`` of a 1-D potential, built once: an :class:`Expression`
    for an :class:`Expression` ``U``, else (also for ``x`` in an exponent)
    central differences."""
    if isinstance(U, Expression):
        try:
            return -U.derivative()
        except ValueError:
            pass  # no logarithm in the grammar: fall back to differences
    return lambda x: -_central_differences(U, x, 1)[0]


def _hessian(U: Callable, x: np.ndarray) -> np.ndarray:
    """Hessian of ``U(*x)``: the exact ``U''`` of a 1-D :class:`Expression`,
    else central differences of the central-difference gradient."""
    drift = _drift(U)
    if x.size == 1 and isinstance(drift, Expression):
        return np.reshape((-drift.derivative())(x), (1, 1))
    grad = lambda y: np.array(_central_differences(lambda z: U(*z), y, y.size))
    return np.array(_central_differences(grad, x, x.size))


def _model_jacobians(model: SdeModel, xs: np.ndarray):
    """Jacobian ``[k, i, l] = d f_i / d x_l`` of the drift and derivative
    tensor ``[k, l, i, j] = d D_ij / d x_l`` of the diffusion matrix at the
    rows of ``xs``, by central differences."""
    diffs = lambda f: _central_differences(f, xs, xs.shape[-1])
    return np.stack(diffs(model.drift), axis=-1), np.stack(diffs(model.diffusion_matrix), axis=1)


def action_gradient(model: SdeModel, path: ActionPath) -> np.ndarray:
    """Gradient of the discretized action at the interior path nodes.

    Endpoint nodes are fixed in the variational problem, so the gradient
    has ``n_nodes - 2`` rows.  Model derivatives are taken by central
    finite differences.
    """
    values, dt = path.values, path.grid.dt
    try:
        _, a = _residuals(model, values, dt)
    except np.linalg.LinAlgError:
        raise ValueError("singular diffusion matrix along the path") from None
    jac_f, d_dd = _model_jacobians(model, values[1:-1])
    a_left = a[:-1]     # step ending at node j
    a_right = a[1:]     # step starting at node j
    grad = a_left - a_right
    grad -= dt * np.einsum("kil,ki->kl", jac_f, a_right)
    grad -= 0.5 * dt * np.einsum("ki,klij,kj->kl", a_right, d_dd, a_right)
    return grad


# ---------------------------------------------------------------------------
# Action minimization and the quasipotential
# ---------------------------------------------------------------------------

def _trial_action(model: SdeModel, grid: TimeGrid, values: np.ndarray) -> float:
    """:func:`fw_rate` of a trial path, infinite where the path is rejected
    (a singular diffusion matrix or a non-finite value along it), so that the
    descent backs off."""
    try:
        return fw_rate(model, ActionPath(grid, values))
    except ValueError:
        return math.inf


def minimize_action(model: SdeModel, x0, y, T: float, n_steps: int,
                    *, tol: float = 1e-8, max_iter: int = 500,
                    init_values: np.ndarray | None = None) -> ActionPath:
    """Minimize the discretized action between fixed endpoints.

    Descent directions come from solving a second-difference (discrete
    Laplacian) system against the action gradient — the natural metric
    for an H1-type functional, without which plain gradient descent
    crawls on fine grids.  Step sizes are chosen by Armijo backtracking;
    iteration stops when the gradient sup-norm falls below ``tol``.  On
    hitting ``max_iter`` first, the best iterate is returned with
    ``converged=False``.

    The initial guess is the straight line between the endpoints, unless
    ``init_values`` gives one (used for warm starts).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if n_steps < 2:
        raise ValueError("need at least two steps for an interior node")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid = TimeGrid(0.0, T, n_steps)
    if init_values is not None:
        values = np.array(init_values, dtype=float)
        if values.ndim == 1:
            values = values[:, np.newaxis]
        if values.shape != (grid.n_nodes, x0.size):
            raise ValueError("init_values does not match the grid")
        values[0], values[-1] = x0, y
    else:
        values = ActionPath.line(x0, y, grid).values.copy()

    dt = grid.dt
    # mean diffusion scale for the Laplacian preconditioner
    d_bar = float(np.mean(np.trace(model.diffusion_matrix(values), axis1=-2,
                                   axis2=-1))) / values.shape[1]
    n_int = grid.n_nodes - 2
    banded = np.zeros((3, n_int))
    banded[0, 1:] = -1.0
    banded[1, :] = 2.0
    banded[2, :-1] = -1.0
    solve_laplacian = _factorize(banded)

    action = _trial_action(model, grid, values)
    history = [action]
    converged = False
    for _ in range(max_iter):
        grad = action_gradient(model, ActionPath(grid, values, action))
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        # row-major like ``grad``: the sums below depend on the memory order
        step = solve_laplacian(np.array(grad, order="F"))
        step = np.ascontiguousarray(step) * dt * d_bar
        slope = float(np.sum(grad * step))
        alpha = 1.0
        for _ in range(40):
            trial = values.copy()
            trial[1:-1] -= alpha * step
            new_action = _trial_action(model, grid, trial)
            if new_action <= action - 1e-4 * alpha * slope:
                values, action = trial, new_action
                history.append(action)
                break
            alpha *= 0.5
        else:
            break  # no acceptable step; keep the best iterate
    return ActionPath(grid, values, action, converged, tuple(history))


def quasipotential(model: SdeModel, x_star, y, T_list: Sequence[float],
                   *, n_steps: int = 600, tol: float = 1e-8,
                   max_iter: int = 500) -> QuasipotentialResult:
    """Infimum of the action from an equilibrium ``x_star`` to ``y``.

    The infimum over travel times is taken over the grid ``T_list``, with
    each minimization warm-started from the previous one's path.  The
    per-horizon actions are reported so the envelope can be inspected.
    """
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not T_list:
        raise ValueError("T_list must be non-empty")
    speed = np.max(np.abs(model.drift(x_star)))
    if speed > _EQUILIBRIUM_TOL:
        raise ValueError(
            f"x_star is not an equilibrium: |f(x_star)| = {speed:.3g}")
    if np.array_equal(x_star, y):
        grid = TimeGrid(0.0, float(min(T_list)), 2)
        path = ActionPath(grid, np.tile(x_star, (grid.n_nodes, 1)), 0.0)
        return QuasipotentialResult(0.0, grid.t_end, path, True,
                                    (grid.t_end,), (0.0,))

    best: ActionPath | None = None
    best_t = math.nan
    warm = None
    t_values, action_values = [], []
    all_converged = True
    for horizon in sorted(T_list):
        path = minimize_action(model, x_star, y, float(horizon), n_steps,
                               tol=tol, max_iter=max_iter, init_values=warm)
        warm = path.values
        t_values.append(float(horizon))
        action_values.append(path.action)
        all_converged = all_converged and path.converged
        if best is None or path.action < best.action:
            best, best_t = path, float(horizon)
    return QuasipotentialResult(best.action, best_t, best, all_converged,
                                tuple(t_values), tuple(action_values))


# ---------------------------------------------------------------------------
# Closed forms and metastability harnesses
# ---------------------------------------------------------------------------

def ou_exit_rate(x0: float, h: float, T: float) -> float:
    """Action cost for an Ornstein-Uhlenbeck path to reach level ``h`` by ``T``.

    Evaluates ``(h e^{T/2} - x0 e^{-T/2})^2 / (2 sinh T)``, which tends to
    ``h^2`` as the deadline grows: monotonically from ``x0 = 0``, and from
    ``x0 > 0`` after bottoming out at ``h^2 - x0^2`` when ``T = log(h/x0)``.
    """
    if not 0.0 <= x0 < h:
        raise ValueError(f"need 0 <= x0 < h, got x0={x0}, h={h}")
    if T <= 0:
        raise ValueError("T must be positive")
    return (h * math.exp(T / 2.0) - x0 * math.exp(-T / 2.0)) ** 2 / (2.0 * math.sinh(T))


@dataclass(frozen=True)
class ArrheniusFit:
    """Linear fit of ``eps * log E[tau]`` against ``eps``.

    The intercept extrapolates the activation energy at zero noise and is
    compared against ``v_bar``, the doubled potential barrier from the
    quasipotential of the exit domain.  ``exact`` holds ``eps log E[tau]``
    at each level from :func:`~sdelab.firstexit.interval_exit_reference`,
    the target that the Monte Carlo values miss by their discretisation
    bias and noise.
    """

    eps: np.ndarray
    eps_log_mean_tau: np.ndarray
    stderr: np.ndarray
    slope: float
    intercept: float
    v_bar: float
    monotone: bool
    exact: np.ndarray


def _well_minimum(U: Callable, a: float, b: float) -> float:
    """Locate the interior minimum of a smooth 1D potential on [a, b]."""
    xs = np.linspace(a, b, 4097)
    vals = np.array([U(x) for x in xs])
    k = int(np.argmin(vals))
    k = min(max(k, 1), xs.size - 2)
    # parabolic refinement through the three bracketing samples
    denom = vals[k - 1] - 2.0 * vals[k] + vals[k + 1]
    if denom <= 0:
        return float(xs[k])
    return float(xs[k] + 0.5 * (vals[k - 1] - vals[k + 1]) / denom * (xs[1] - xs[0]))


def arrhenius_check(U: Callable, eps_list: Sequence[float], exit_domain: Domain,
                    *, n_paths: int = 1000, h: float = 2e-3,
                    stream: GaussianStream, t_max: float) -> ArrheniusFit:
    """Fit the small-noise exit-time law ``E[tau] ~ exp(v_bar / eps)``.

    Runs Monte Carlo first exits of ``dX = -U'(X) dt + sqrt(eps) dW`` from
    the bottom of the well for every noise level, then fits a line to
    ``eps log E[tau]`` versus ``eps``: the intercept estimates the
    activation energy and is reported next to the theoretical
    ``v_bar = 2 min_boundary [U - U(bottom)]``.  Paths still inside at
    ``t_max`` are censored, and runs dominated by censoring (over
    ``_MAX_CENSORED`` of the paths) are rejected rather than silently
    biasing the fit.
    """
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if eps.size < 3:
        raise ValueError("need at least three noise levels for a stable fit")
    if not np.all((eps > 0) & np.isfinite(eps)):
        raise ValueError(f"noise levels must be positive and finite, got {eps_list}")
    if exit_domain.kind != "interval":
        raise ValueError("the exit-time harness supports interval domains")
    a, b = exit_domain.a, exit_domain.b
    x_star = _well_minimum(U, a, b)
    u_star = U(x_star)
    v_bar = 2.0 * (min(U(a), U(b)) - u_star)
    drift = _drift(U)
    eps_log = np.empty(eps.size)
    stderr = np.empty(eps.size)
    exact = np.empty(eps.size)
    for i, e in enumerate(eps):
        model = SdeModel(1, 1, drift, [[math.sqrt(e)]])
        stats = mc_exit(model, x_star, exit_domain, h=h, n_paths=n_paths,
                        stream=stream.child(i), t_max=t_max)
        if stats.fraction_censored > _MAX_CENSORED:
            raise RuntimeError(
                f"exit run at eps={e} is censored-dominated "
                f"({stats.fraction_censored:.1%}); increase t_max")
        eps_log[i] = e * math.log(stats.mean_time)
        stderr[i] = e * stats.time_std_error / stats.mean_time
        exact[i] = e * math.log(interval_exit_reference(model, x_star, a, b)[0])
    slope, intercept = np.polyfit(eps, eps_log, 1)
    monotone = bool(np.all(np.diff(eps_log) > 0))
    return ArrheniusFit(eps, eps_log, stderr, float(slope), float(intercept),
                        v_bar, monotone, exact)


def eyring_kramers_time(U: Callable, x_star, z_star, eps: float) -> float:
    """Eyring-Kramers mean transition time through a saddle.

    For ``dX = -grad U dt + sqrt(eps) dW`` started at the minimum
    ``x_star``, the expected time to cross the saddle ``z_star`` is

        (2 pi / |lambda_minus|) sqrt(|det Hess U(z*)| / det Hess U(x*))
            * exp(2 [U(z*) - U(x*)] / eps),

    with ``lambda_minus`` the saddle's unique negative curvature.  The
    Hessians (exact in 1-D for an :class:`Expression`) have their
    signatures checked: a non-minimal ``x_star`` or non-saddle
    ``z_star`` is an error, not a warning.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    z_star = np.atleast_1d(np.asarray(z_star, dtype=float))
    hx = np.linalg.eigvalsh(_hessian(U, x_star))
    hz = np.linalg.eigvalsh(_hessian(U, z_star))
    if np.any(hx <= 0):
        raise ValueError("x_star is not a non-degenerate minimum")
    if np.sum(hz < 0) != 1 or np.any(hz == 0):
        raise ValueError("z_star is not a saddle with one downhill direction")
    lam_minus = hz[0]
    prefactor = (2.0 * math.pi / abs(lam_minus)) * math.sqrt(
        abs(np.prod(hz)) / np.prod(hx))
    barrier = U(*z_star) - U(*x_star)
    return prefactor * math.exp(2.0 * barrier / eps)
