"""Sample-path machinery for stochastic differential equations.

This module provides the building blocks used everywhere else in the
package: uniform time grids, reproducible Gaussian noise streams, Wiener
path construction and dyadic refinement, Ito / Stratonovich integrals,
the Euler-Maruyama scheme, and exact solutions of linear equations

    dX_t = a(t) X_t dt + sigma(t) dW_t            (additive noise)
    dX_t = a(t) X_t dt + sigma(t) X_t dW_t        (multiplicative noise)

which serve as strong-error references for the discrete schemes.

All randomness is drawn from a :class:`GaussianStream`, a thin wrapper
around numpy's counter-based Philox generator.  Operations are pure
given their stream argument: calling an operation twice with the same
stream yields bit-identical output, and distinct ``stream_id`` values
yield statistically independent noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TimeGrid",
    "GaussianStream",
    "WienerPath",
    "SamplePath",
    "SdeModel",
    "GridMismatchError",
    "BlowUpError",
    "sample_wiener",
    "refine_wiener_midpoint",
    "ito_integral",
    "stratonovich_integral",
    "euler_maruyama",
    "euler_maruyama_ensemble",
    "exact_linear_additive",
    "exact_linear_multiplicative",
    "sine_fixture",
]


class GridMismatchError(ValueError):
    """Raised when two path objects do not share the same time grid."""


class BlowUpError(RuntimeError):
    """Raised when an integrator produces a non-finite state.

    Attributes
    ----------
    step_index : int
        Index of the first step at which a non-finite value appeared.
    time : float
        Corresponding grid time.
    """

    def __init__(self, step_index: int, time: float):
        self.step_index = step_index
        self.time = time
        super().__init__(
            f"non-finite state at step {step_index} (t = {time:g}); "
            "the drift or dispersion is likely only locally Lipschitz"
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on ``[t0, t_end]`` with ``n_steps`` steps.

    The grid has ``n_steps + 1`` nodes ``t0 + k * dt`` with spacing
    ``dt = (t_end - t0) / n_steps``.

    Examples
    --------
    >>> grid = TimeGrid(0.0, 1.0, 4)
    >>> grid.dt
    0.25
    >>> grid.nodes
    array([0.  , 0.25, 0.5 , 0.75, 1.  ])
    """

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.t_end > self.t0:
            raise ValueError(f"need t_end > t0, got [{self.t0}, {self.t_end}]")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got n_steps={self.n_steps}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.n_steps + 1)

    def refined(self, levels: int = 1) -> "TimeGrid":
        """Grid over the same interval with ``2**levels`` times more steps."""
        if levels < 0:
            raise ValueError(f"refinement levels must be >= 0, got {levels}")
        return TimeGrid(self.t0, self.t_end, self.n_steps * 2**levels)


@dataclass(frozen=True)
class GaussianStream:
    """Reproducible source of Gaussian noise.

    A stream is identified by ``(seed, stream_id)``; equal identifiers
    reproduce the exact same draws, and distinct ``stream_id`` values give
    independent streams (this is numpy's ``SeedSequence`` spawn-key
    guarantee on top of the counter-based Philox bit generator).

    ``child(i)`` derives independent sub-streams for parallel work without
    colliding with any top-level ``stream_id``.
    """

    seed: int
    stream_id: int = 0
    branch: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of the stream."""
        key = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.branch))
        return np.random.Generator(np.random.Philox(key))

    def child(self, index: int) -> "GaussianStream":
        """An independent sub-stream, reproducible per ``index``."""
        return replace(self, branch=(*self.branch, index))


def _as_node_columns(values) -> np.ndarray:
    """Coerce path values to shape ``(n_nodes, dim)``; 1-D input is a column."""
    arr = np.asarray(values, dtype=float)
    return arr[:, np.newaxis] if arr.ndim == 1 else arr


@dataclass
class WienerPath:
    """Discretely sampled Brownian path on a uniform grid.

    ``values`` has shape ``(grid.n_nodes, dim)`` and starts at zero.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _as_node_columns(self.values)
        if self.values.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"values must have shape (n_nodes, dim) = ({self.grid.n_nodes}, ...), "
                f"got {self.values.shape}"
            )
        if not np.all(self.values[0] == 0.0):
            raise ValueError("a Wiener path must start at zero")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def increments(self) -> np.ndarray:
        """Step increments, shape ``(n_steps, dim)``."""
        return np.diff(self.values, axis=0)


@dataclass
class SamplePath:
    """Solution values on a grid, optionally with the driving noise attached."""

    grid: TimeGrid
    values: np.ndarray
    wiener: WienerPath | None = None

    def __post_init__(self) -> None:
        self.values = _as_node_columns(self.values)
        if self.values.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"values must have {self.grid.n_nodes} rows, got {self.values.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.values.shape[1]


DriftFn = Callable[[np.ndarray], np.ndarray]
DispersionFn = Callable[[np.ndarray], np.ndarray]


def _zero_drift(x: np.ndarray) -> np.ndarray:
    """The drift of Brownian motion; :func:`_em_update` skips adding it."""
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SdeModel:
    """Drift / dispersion pair defining ``dX = f(X) dt + g(X) dW``.

    Parameters
    ----------
    dim_state : int
        Dimension ``n`` of the state.
    dim_noise : int
        Dimension ``k`` of the driving Brownian motion.
    drift : callable
        Maps states of shape ``(..., n)`` to drifts of the same shape.
    dispersion : callable
        Maps states of shape ``(..., n)`` to matrices of shape
        ``(..., n, k)``.
    potential : callable, optional
        Present exactly for gradient systems built via :meth:`gradient`,
        where ``f = -grad U`` and ``g = sqrt(2) * I`` so that the
        stationary density is proportional to ``exp(-U)``.
    grad_potential : callable, optional
        Gradient of ``potential`` (same shape convention as ``drift``).
    constant_dispersion : ndarray, optional
        The ``(n, k)`` matrix ``g`` when it does not depend on the state,
        as for :meth:`brownian`, :meth:`gradient` and :meth:`scalar` with
        a number dispersion.  The Euler-Maruyama step then uses it
        directly instead of calling ``dispersion`` on every step; it must
        agree with ``dispersion``.  It takes no part in equality or
        hashing.
    """

    dim_state: int
    dim_noise: int
    drift: DriftFn
    dispersion: DispersionFn
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    grad_potential: DriftFn | None = None
    constant_dispersion: np.ndarray | None = field(default=None, compare=False,
                                                   repr=False)

    def __post_init__(self) -> None:
        if self.constant_dispersion is not None:
            g = np.array(self.constant_dispersion, dtype=float)
            if g.shape != (self.dim_state, self.dim_noise):
                raise ValueError(
                    f"constant_dispersion must have shape ({self.dim_state}, "
                    f"{self.dim_noise}), got {g.shape}")
            g.flags.writeable = False
            object.__setattr__(self, "constant_dispersion", g)

    @property
    def is_gradient(self) -> bool:
        return self.potential is not None

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        """``D(x) = g(x) g(x)^T`` with shape ``(..., n, n)``."""
        g = self.dispersion(np.asarray(x, dtype=float))
        return g @ np.swapaxes(g, -1, -2)

    @classmethod
    def scalar(cls, drift: Callable[[np.ndarray], np.ndarray],
               dispersion: Callable[[np.ndarray], np.ndarray] | float) -> "SdeModel":
        """One-dimensional model from elementwise scalar callables.

        ``dispersion`` may also be a number, which makes it the model's
        :attr:`constant_dispersion`.
        """
        constant = None
        if not callable(dispersion):
            constant = [[float(dispersion)]]
            dispersion = lambda x, sigma=float(dispersion): sigma

        def f(x: np.ndarray) -> np.ndarray:
            out = np.asarray(drift(x), dtype=float)
            if out.shape == np.shape(x):
                return out
            return np.broadcast_to(out, np.shape(x)).copy()

        def g(x: np.ndarray) -> np.ndarray:
            out = np.broadcast_to(np.asarray(dispersion(x), dtype=float), np.shape(x))
            return out[..., np.newaxis]

        return cls(dim_state=1, dim_noise=1, drift=f, dispersion=g,
                   constant_dispersion=constant)

    @classmethod
    def brownian(cls, dim: int = 1) -> "SdeModel":
        """Standard Brownian motion in ``dim`` dimensions."""
        eye = np.eye(dim)

        def g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(eye, x.shape + (dim,)).copy()

        return cls(dim_state=dim, dim_noise=dim, drift=_zero_drift, dispersion=g,
                   constant_dispersion=eye)

    @classmethod
    def gradient(cls, potential: Callable[[np.ndarray], np.ndarray],
                 grad_potential: DriftFn, dim: int = 1) -> "SdeModel":
        """Gradient system ``dX = -grad U dt + sqrt(2) dW``.

        With this normalisation ``exp(-U) / Z`` is the stationary density,
        which is what :func:`sdelab.kolmogorov.stationary_density_gradient`
        computes.
        """
        root2_eye = math.sqrt(2.0) * np.eye(dim)

        def f(x: np.ndarray) -> np.ndarray:
            return -np.asarray(grad_potential(x), dtype=float)

        def g(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(root2_eye, x.shape + (dim,)).copy()

        return cls(dim_state=dim, dim_noise=dim, drift=f, dispersion=g,
                   potential=potential, grad_potential=grad_potential,
                   constant_dispersion=root2_eye)


# ---------------------------------------------------------------------------
# Wiener path construction
# ---------------------------------------------------------------------------

def sample_wiener(grid: TimeGrid, stream: GaussianStream, dim: int = 1) -> WienerPath:
    """Sample a Brownian path on ``grid`` by accumulating N(0, dt) increments."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    values = np.zeros((grid.n_nodes, dim))
    steps = values[1:]  # increments drawn, scaled and summed in place
    stream.generator().standard_normal(out=steps)
    steps *= math.sqrt(grid.dt)
    np.cumsum(steps, axis=0, out=steps)
    return WienerPath(grid, values)


def refine_wiener_midpoint(path: WienerPath, levels: int,
                           stream: GaussianStream) -> WienerPath:
    """Refine a Brownian path by dyadic midpoint displacement.

    Each level doubles the number of steps: the new midpoint of an interval
    of length ``dt`` is the average of its endpoints plus an independent
    ``N(0, dt/4)`` displacement, so existing nodes are kept bit-identically
    and the refined pairs of half-increments are i.i.d. ``N(0, dt/2)``.

    With all displacement Gaussians forced to zero the construction reduces
    to linear interpolation between the existing nodes.
    """
    if levels < 0:
        raise ValueError(f"refinement levels must be >= 0, got {levels}")
    rng = stream.generator()
    grid, values = path.grid, path.values
    for _ in range(levels):
        n_mid = grid.n_steps
        bridge_sd = math.sqrt(grid.dt / 4.0)
        noise = rng.normal(0.0, bridge_sd, size=(n_mid, values.shape[1]))
        refined = np.empty((2 * n_mid + 1, values.shape[1]))
        refined[::2] = values
        refined[1::2] = 0.5 * (values[:-1] + values[1:]) + noise
        grid = grid.refined()
        values = refined
    return WienerPath(grid, values)


# ---------------------------------------------------------------------------
# Stochastic integrals
# ---------------------------------------------------------------------------

def _integrand_on_grid(integrand, wiener: WienerPath) -> np.ndarray:
    if isinstance(integrand, (SamplePath, WienerPath)):
        if integrand.grid != wiener.grid:
            raise GridMismatchError(
                "integrand is sampled on a different grid than the Wiener path"
            )
        vals = integrand.values
        return vals[:, 0] if vals.ndim == 2 and vals.shape[1] == 1 else vals
    vals = np.asarray(integrand, dtype=float)
    if vals.shape[-1] != wiener.grid.n_nodes:
        raise GridMismatchError(
            f"integrand has {vals.shape[-1]} nodes but the grid has "
            f"{wiener.grid.n_nodes}"
        )
    return vals


def ito_integral(integrand, wiener: WienerPath) -> float | np.ndarray:
    """Left-endpoint (Ito) integral of ``integrand`` against ``wiener``.

    Computes ``sum_k e(t_{k-1}) (W_{t_k} - W_{t_{k-1}})`` for a scalar
    Brownian path.  ``integrand`` may be a :class:`SamplePath` on the same
    grid or an array whose last axis enumerates the grid nodes; a leading
    batch axis is carried through.
    """
    if wiener.dim != 1:
        raise ValueError("stochastic integrals are taken against a scalar Brownian path")
    vals = _integrand_on_grid(integrand, wiener)
    dw = np.diff(wiener.values[:, 0])
    out = vals[..., :-1] @ dw
    return float(out) if np.ndim(out) == 0 else out


def stratonovich_integral(integrand, wiener: WienerPath) -> float | np.ndarray:
    """Midpoint-average (Stratonovich) integral against ``wiener``.

    Uses ``sum_k (e(t_k) + e(t_{k-1})) / 2 * (W_{t_k} - W_{t_{k-1}})``;
    for ``e = W`` this converges to ``W_T^2 / 2`` where the Ito version
    leaves the ``-T/2`` correction.
    """
    if wiener.dim != 1:
        raise ValueError("stochastic integrals are taken against a scalar Brownian path")
    vals = _integrand_on_grid(integrand, wiener)
    dw = np.diff(wiener.values[:, 0])
    avg = 0.5 * (vals[..., 1:] + vals[..., :-1])
    out = avg @ dw
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Integrators
# ---------------------------------------------------------------------------

def _check_finite(x: np.ndarray, step: int, t: float) -> None:
    if not np.all(np.isfinite(x)):
        raise BlowUpError(step, t)


def _disperse(g: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The noise term ``g dW`` over leading batch axes; an ``(n, k)`` ``g`` broadcasts."""
    return np.einsum("...ik,...k->...i", g, dw)


def _em_update(model: SdeModel, x: np.ndarray, dt: float, g_dw: np.ndarray) -> np.ndarray:
    """The Euler-Maruyama update ``x + f(x) dt + g dW`` given ``g dW``."""
    if model.drift is _zero_drift:
        return x + g_dw
    return x + model.drift(x) * dt + g_dw


def _em_step(model: SdeModel, x: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step ``x + f(x) dt + g(x) dW`` over leading batch axes."""
    g = model.constant_dispersion
    if g is None:
        g = model.dispersion(x)
    return _em_update(model, x, dt, _disperse(g, dw))


def euler_maruyama(model: SdeModel, x0, grid: TimeGrid, *,
                   stream: GaussianStream | None = None,
                   wiener: WienerPath | None = None) -> SamplePath:
    """Euler-Maruyama approximation of ``dX = f(X) dt + g(X) dW``.

    Exactly one noise source must be supplied: either a ``stream`` (a
    Brownian path is sampled internally and attached to the result) or an
    existing ``wiener`` path, which allows strong-error comparisons against
    exact solutions driven by the same noise.  With ``g == 0`` the scheme
    reduces exactly to the explicit Euler method for the drift ODE.

    Raises
    ------
    BlowUpError
        If the state leaves the floating-point range; the error carries the
        offending step index.  Only realised blow-up is detected - there is
        no a-priori check that the coefficients are globally Lipschitz.
    """
    if (stream is None) == (wiener is None):
        raise ValueError("supply exactly one of stream= or wiener=")
    if wiener is None:
        wiener = sample_wiener(grid, stream, dim=model.dim_noise)
    if wiener.grid != grid:
        raise GridMismatchError("wiener path lives on a different grid")
    if wiener.dim != model.dim_noise:
        raise ValueError(f"model expects {model.dim_noise}-dimensional noise, "
                         f"got a {wiener.dim}-dimensional path")

    x = np.broadcast_to(np.asarray(x0, dtype=float), (model.dim_state,)).copy()
    dt = grid.dt
    dw = wiener.increments()
    out = np.empty((grid.n_nodes, model.dim_state))
    out[0] = x
    for k in range(grid.n_steps):
        x = _em_step(model, x, dt, dw[k])
        _check_finite(x, k + 1, grid.nodes[k + 1])
        out[k + 1] = x
    return SamplePath(grid, out, wiener=wiener)


def euler_maruyama_ensemble(model: SdeModel, x0, grid: TimeGrid, n_paths: int,
                            stream: GaussianStream) -> np.ndarray:
    """Euler-Maruyama over an ensemble of paths, stepped in lockstep.

    Returns an array of shape ``(n_paths, n_nodes, dim_state)``.  All paths
    advance simultaneously on vectorised drift/dispersion evaluations, which
    is the workhorse for the Monte Carlo estimators elsewhere in the
    package.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = stream.generator()
    dt = grid.dt
    sqrt_dt = math.sqrt(dt)
    x = np.broadcast_to(np.asarray(x0, dtype=float),
                        (n_paths, model.dim_state)).copy()
    out = np.empty((n_paths, grid.n_nodes, model.dim_state))
    out[:, 0] = x
    for k in range(grid.n_steps):
        xi = rng.normal(0.0, sqrt_dt, size=(n_paths, model.dim_noise))
        x = _em_step(model, x, dt, xi)
        _check_finite(x, k + 1, grid.nodes[k + 1])
        out[:, k + 1] = x
    return out


# ---------------------------------------------------------------------------
# Exact linear solutions
# ---------------------------------------------------------------------------

def _coefficient_on_nodes(coeff, nodes: np.ndarray) -> np.ndarray:
    if callable(coeff):
        vals = np.asarray(coeff(nodes), dtype=float)
        return np.broadcast_to(vals, nodes.shape).astype(float)
    return np.full_like(nodes, float(coeff))


def exact_linear_additive(a, sigma, x0: float, wiener: WienerPath) -> SamplePath:
    """Exact solution of ``dX = a(t) X dt + sigma(t) dW`` on the path's grid.

    The solution is ``X_t = x0 e^{alpha(t)} + int_0^t e^{alpha(t)-alpha(s)}
    sigma(s) dW_s`` with ``alpha(t) = int_0^t a(s) ds``; both integrals are
    discretised with left-endpoint sums on the grid, which makes the
    variance of ``X_T`` equal exactly to the left-sum quadrature of
    ``int e^{2(alpha(T)-alpha(s))} sigma(s)^2 ds``.

    ``a`` and ``sigma`` may be constants or vectorised callables of time.
    """
    if wiener.dim != 1:
        raise ValueError("the linear solver is one-dimensional")
    nodes = wiener.grid.nodes
    dt = wiener.grid.dt
    a_vals = _coefficient_on_nodes(a, nodes)
    s_vals = _coefficient_on_nodes(sigma, nodes)
    dw = np.diff(wiener.values[:, 0])

    x = np.empty(wiener.grid.n_nodes)
    x[0] = float(x0)
    # One exponential step per interval keeps the left-endpoint convolution
    # structure while costing O(n) instead of O(n^2).
    growth = np.exp(a_vals[:-1] * dt)
    for k in range(wiener.grid.n_steps):
        x[k + 1] = growth[k] * (x[k] + s_vals[k] * dw[k])
    return SamplePath(wiener.grid, x[:, np.newaxis], wiener=wiener)


def exact_linear_multiplicative(a, sigma, x0: float, wiener: WienerPath) -> SamplePath:
    """Exact solution of ``dX = a(t) X dt + sigma(t) X dW`` for ``x0 > 0``.

    ``X_t = x0 exp(int (a - sigma^2/2) ds + int sigma dW)`` with both
    integrals as left-endpoint sums.  For ``a = 0, sigma = 1`` this is the
    exponential martingale ``exp(W_t - t/2)`` with unit expectation.
    """
    if not x0 > 0:
        raise ValueError(f"multiplicative solution requires x0 > 0, got {x0}")
    if wiener.dim != 1:
        raise ValueError("the linear solver is one-dimensional")
    nodes = wiener.grid.nodes
    dt = wiener.grid.dt
    a_vals = _coefficient_on_nodes(a, nodes)[:-1]
    s_vals = _coefficient_on_nodes(sigma, nodes)[:-1]
    dw = np.diff(wiener.values[:, 0])

    log_x = np.concatenate([
        [0.0], np.cumsum((a_vals - 0.5 * s_vals**2) * dt + s_vals * dw)
    ])
    values = float(x0) * np.exp(log_x)
    return SamplePath(wiener.grid, values[:, np.newaxis], wiener=wiener)


def sine_fixture(wiener: WienerPath) -> SamplePath:
    """The path ``X = sin(W)``, frozen at ``+-1`` once ``|W|`` reaches pi/2.

    Up to that first crossing this is a strong solution of
    ``dX = -X/2 dt + sqrt(1 - X^2) dW`` driven by the given path, handy as
    a nonlinear reference for strong-convergence tests.
    """
    if wiener.dim != 1:
        raise ValueError("the sine fixture is one-dimensional")
    w = wiener.values[:, 0]
    x = np.sin(w)
    crossed = np.flatnonzero(np.abs(w) >= math.pi / 2.0)
    if crossed.size:
        first = crossed[0]
        x = x.copy()
        x[first:] = math.copysign(1.0, w[first])
    return SamplePath(wiener.grid, x[:, np.newaxis], wiener=wiener)
