"""Sample-path machinery for stochastic differential equations.

This module provides the building blocks used everywhere else in the
package: uniform time grids, reproducible Gaussian noise streams, Wiener
path construction and dyadic refinement, Ito / Stratonovich integrals,
the Euler-Maruyama scheme, and exact solutions of linear equations

    dX_t = a(t) X_t dt + sigma(t) dW_t            (additive noise)
    dX_t = a(t) X_t dt + sigma(t) X_t dW_t        (multiplicative noise)

which serve as strong-error references for the discrete schemes.  Every
Euler-Maruyama step in the package is taken in ``_em_path``, a window of
steps at a time, with the bits of one step at a time.  Brownian paths and
Euler-Maruyama ensembles are generated by one window loop each
(``_wiener_windows`` and ``_em_windows``): ``sample_wiener`` and
``euler_maruyama_ensemble`` collect the windows into one array, and an
estimator that needs a few numbers per path reduces each window as it
arrives, in memory O(paths x window).

All randomness is drawn from a :class:`GaussianStream`, a thin wrapper
around numpy's counter-based Philox generator.  Operations are pure
given their stream argument: calling an operation twice with the same
stream yields bit-identical output, and distinct ``stream_id`` values
yield statistically independent noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
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
        for name in ("t0", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


class _AddressedDraws:
    """Rows of noise read by address from one keyed Philox, built once.

    ``draws(ids, step_block, kind, shape)`` returns one row of ``shape`` per
    path in ``ids``, read from address ``(path, step_block, kind)``: the
    counter ``(0, path, step_block, kind)`` of the stream's Philox, under
    its key (Salmon et al., SC'11).  Word 0 counts the draws inside an
    address, so no two overlap.  Kind 0 holds standard Gaussians, kind 1
    standard exponentials.  Every row starts from the generator's fresh
    state with only the counter moved, so a row does not depend on what
    was read before it.  Moving the generator costs a fraction of building
    one, so a caller that reads many addresses holds one reader per thread.
    """

    def __init__(self, stream: GaussianStream) -> None:
        self._gen = stream.generator()
        self._bits = self._gen.bit_generator
        self._fresh = self._bits.state  # counter zero, no buffered words

    def __call__(self, ids: np.ndarray, step_block: int, kind: int,
                 shape: tuple[int, ...]) -> np.ndarray:
        state, bits = self._fresh, self._bits
        counter = state["state"]["counter"]
        counter[2:] = step_block, kind
        draw = (self._gen.standard_normal, self._gen.standard_exponential)[kind]
        out = np.empty((len(ids),) + tuple(shape))
        for row, path in zip(out, ids.tolist()):
            counter[1] = path
            bits.state = state
            draw(out=row)
        return out


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
    """The drift of Brownian motion; :func:`_em_path` skips adding it."""
    return np.zeros_like(np.asarray(x, dtype=float))


def _broadcast_dispersion(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The constant ``(n, k)`` dispersion ``g`` at states ``x`` of shape ``(..., n)``."""
    return np.broadcast_to(g, np.shape(x)[:-1] + g.shape)


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
    dispersion : callable or array_like
        Either a callable mapping states of shape ``(..., n)`` to matrices
        of shape ``(..., n, k)``, or the constant ``(n, k)`` matrix ``g``
        itself.  A matrix is stored read-only as :attr:`constant_dispersion`
        (which takes no part in equality or hashing), and ``dispersion``
        becomes its broadcast over the batch axes.  The Euler-Maruyama step
        and the exit drivers use a constant ``g`` directly.

    A gradient system ``dX = -grad U dt + sqrt(2) dW`` in ``n`` dimensions
    is ``SdeModel(n, n, drift, math.sqrt(2) * np.eye(n))``; with this
    normalisation ``exp(-U) / Z`` is the stationary density, which is what
    :func:`sdelab.kolmogorov.stationary_density_gradient` computes.
    """

    dim_state: int
    dim_noise: int
    drift: DriftFn
    dispersion: DispersionFn | np.ndarray
    constant_dispersion: np.ndarray | None = field(init=False, compare=False,
                                                   repr=False)

    def __post_init__(self) -> None:
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError(f"need dim_state and dim_noise >= 1, got "
                             f"({self.dim_state}, {self.dim_noise})")
        g = None
        if not callable(self.dispersion):
            g = np.array(self.dispersion, dtype=float)
            if g.shape != (self.dim_state, self.dim_noise):
                raise ValueError(
                    f"a constant dispersion must have shape ({self.dim_state}, "
                    f"{self.dim_noise}), got {g.shape}")
            if not np.isfinite(g).all():
                raise ValueError(f"a constant dispersion must be finite, got {g.tolist()}")
            g.flags.writeable = False
            object.__setattr__(self, "dispersion", partial(_broadcast_dispersion, g))
        object.__setattr__(self, "constant_dispersion", g)

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        """``D(x) = g(x) g(x)^T`` with shape ``(..., n, n)``."""
        g = self.dispersion(np.asarray(x, dtype=float))
        return g @ np.swapaxes(g, -1, -2)

    @classmethod
    def scalar(cls, drift: Callable[[np.ndarray], np.ndarray],
               dispersion: Callable[[np.ndarray], np.ndarray] | float) -> "SdeModel":
        """One-dimensional model from elementwise scalar callables; a number
        ``dispersion`` is the constant matrix ``[[dispersion]]``."""

        def f(x: np.ndarray) -> np.ndarray:
            out = np.asarray(drift(x), dtype=float)
            if out.shape == np.shape(x):
                return out
            return np.broadcast_to(out, np.shape(x)).copy()

        def g(x: np.ndarray) -> np.ndarray:
            out = np.broadcast_to(np.asarray(dispersion(x), dtype=float), np.shape(x))
            return out[..., np.newaxis]

        return cls(1, 1, f, g if callable(dispersion) else [[dispersion]])

    @classmethod
    def brownian(cls, dim: int = 1) -> "SdeModel":
        """Standard Brownian motion in ``dim`` dimensions."""
        return cls(dim, dim, _zero_drift, np.eye(dim))


# row-steps per window of Euler-Maruyama or Brownian steps: on the perfbench probes
# 1024 (one-step windows at 1000 rows) was slower than per-step checks, and the gain
# levels off at 32768, whose 256 KB buffers per state dimension stay in cache
_WINDOW_ROW_STEPS = 32768


# ---------------------------------------------------------------------------
# Wiener path construction
# ---------------------------------------------------------------------------

def sample_wiener(grid: TimeGrid, stream: GaussianStream, dim: int = 1) -> WienerPath:
    """Sample a Brownian path on ``grid`` by accumulating N(0, dt) increments.

    The path is collected from :func:`_wiener_windows`; a caller that
    reduces the path node by node can iterate the windows instead and hold
    one window, not the whole ``(n_nodes, dim)`` array.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    values = np.zeros((grid.n_nodes, dim))
    for j, nodes in _wiener_windows(grid, stream, dim):
        values[j + 1:j + 1 + len(nodes)] = nodes
    return WienerPath(grid, values)


def _wiener_windows(grid: TimeGrid, stream: GaussianStream, dim: int):
    """The one Brownian loop: yields ``(j, nodes)``, the values at nodes
    ``j + 1 .. j + w`` of a ``dim``-column path that starts at zero.

    Each window draws ``_WINDOW_ROW_STEPS // dim`` steps (at least one) with
    ``standard_normal(out=...)``, scales them by ``sqrt(dt)``, adds the
    carried last node to its first row and sums it in place.  Windowed
    draws from one generator are one draw, and the running sum adds each
    row to the one before it, so the nodes have the bits of one draw and
    one ``cumsum``.  The window is a buffer that the next window overwrites.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = stream.generator()
    sqrt_dt = math.sqrt(grid.dt)
    window = max(1, _WINDOW_ROW_STEPS // dim)
    buffer = np.empty((min(window, grid.n_steps), dim))
    last = np.zeros(dim)
    for j in range(0, grid.n_steps, window):
        nodes = buffer[:min(window, grid.n_steps - j)]
        rng.standard_normal(out=nodes)
        nodes *= sqrt_dt
        if j:
            nodes[0] += last
        np.cumsum(nodes, axis=0, out=nodes)
        last[:] = nodes[-1]
        yield j, nodes


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

def _disperse(g: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The noise term ``g dW`` over leading batch axes; an ``(n, k)`` ``g`` broadcasts."""
    return np.einsum("...ik,...k->...i", g, dw)


def _em_path(model: SdeModel, x: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
    """The one Euler-Maruyama loop: ``(w + 1,) + x.shape`` states from ``x`` over
    step-major noise ``dw`` of shape ``(w,) + batch + (k,)``.  A constant ``g``
    multiplies the window's noise at once; each step's rows are contiguous,
    so ``einsum`` sums them in the per-step order."""
    path = np.empty((dw.shape[0] + 1,) + x.shape)
    path[0] = x
    g = model.constant_dispersion
    g_dw_w = None if g is None else _disperse(g, dw)
    for k in range(dw.shape[0]):
        x = path[k]
        g_dw = _disperse(model.dispersion(x), dw[k]) if g_dw_w is None else g_dw_w[k]
        if model.drift is not _zero_drift:
            x = x + model.drift(x) * dt
        np.add(x, g_dw, out=path[k + 1])
    return path


def _raise_blow_up(path: np.ndarray, grid: TimeGrid, step: int) -> None:
    """Raise :class:`BlowUpError` at the first non-finite row of ``path`` (row 0 at
    node ``step``); the update keeps a state non-finite, so a finite last row
    clears the rows before it."""
    if not np.isfinite(path[-1]).all():
        step += next(k for k, x in enumerate(path) if not np.isfinite(x).all())
        raise BlowUpError(step, grid.nodes[step])


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

    x = np.broadcast_to(np.asarray(x0, dtype=float), (model.dim_state,))
    values = _em_path(model, x, grid.dt, wiener.increments())
    _raise_blow_up(values, grid, 0)
    return SamplePath(grid, values, wiener=wiener)


def euler_maruyama_ensemble(model: SdeModel, x0, grid: TimeGrid, n_paths: int,
                            stream: GaussianStream) -> np.ndarray:
    """Euler-Maruyama over an ensemble of paths, stepped in lockstep.

    Returns an array of shape ``(n_paths, n_nodes, dim_state)``.  All paths
    advance simultaneously on vectorised drift/dispersion evaluations.  The
    array is collected from :func:`_em_windows`; an estimator that needs a
    few numbers per path (a terminal state, a running integral) iterates
    the windows instead and holds one window, not every step of every path.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    out = np.empty((n_paths, grid.n_nodes, model.dim_state))
    out[:, 0] = x0
    for j, path in _em_windows(model, x0, grid, n_paths, stream):
        # step by step: one transposed copy of the window would run its few
        # steps in the inner loop, which is slower
        for k in range(1, path.shape[0]):
            out[:, j + k] = path[k]
    return out


def _em_windows(model: SdeModel, x0, grid: TimeGrid, n_paths: int,
                stream: GaussianStream):
    """The one ensemble loop: yields ``(j, path)``, the :func:`_em_path` window
    of shape ``(w + 1, n_paths, dim_state)`` at nodes ``j .. j + w``.

    The noise is one ``(n_paths, dim_noise)`` draw per step, taken a window
    of ``_WINDOW_ROW_STEPS // n_paths`` steps (at least one) at a time.  A
    window with a non-finite state raises :class:`BlowUpError` at its step.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = stream.generator()
    dt = grid.dt
    sqrt_dt = math.sqrt(dt)
    window = max(1, _WINDOW_ROW_STEPS // n_paths)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, model.dim_state))
    for j in range(0, grid.n_steps, window):
        dw = rng.normal(0.0, sqrt_dt,
                        size=(min(window, grid.n_steps - j), n_paths, model.dim_noise))
        path = _em_path(model, x, dt, dw)
        _raise_blow_up(path, grid, j)
        x = path[-1]
        yield j, path


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
