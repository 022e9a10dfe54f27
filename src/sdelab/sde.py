"""Sample-path machinery for stochastic differential equations.

This module provides the building blocks used everywhere else in the
package: uniform time grids, reproducible Gaussian noise streams, Wiener
path construction and the Euler-Maruyama scheme.  Every Euler-Maruyama
step in the package is taken in ``_em_path``, a window of steps at a
time, with the bits of one step at a time: as arrays, or, in a narrow
window of a 1-D state with an expression drift, path by path on Python
floats, which round as the array step does.  Ensembles are generated by
one window loop, ``_em_windows``; a Brownian path is its case
``SdeModel.brownian()``, with one column per path.  ``sample_wiener``
and ``euler_maruyama_ensemble`` return that loop's windows, not an array
of every node, so an estimator reduces each window as it arrives and
holds memory O(paths x window).

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
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "TimeGrid",
    "GaussianStream",
    "SdeModel",
    "BlowUpError",
    "sample_wiener",
    "euler_maruyama_ensemble",
]


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
        becomes its broadcast over the batch axes (:attr:`identity_dispersion`
        marks ``g = I``); the Euler-Maruyama step and exit drivers use ``g`` directly,
        and the action's residuals form ``g g^T`` once.

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
    identity_dispersion: bool = field(init=False, default=False, compare=False, repr=False)

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
            object.__setattr__(self, "identity_dispersion", np.array_equal(g, np.eye(len(g))))
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


# row-steps per window of Euler-Maruyama steps: on the perfbench probes
# 1024 (one-step windows at 1000 rows) was slower than per-step checks, and the gain
# levels off at 32768, whose 256 KB buffers per state dimension stay in cache
_WINDOW_ROW_STEPS = 32768

# rows up to which _em_path may step a window row by row on Python floats: on a 2-vCPU
# Xeon that loop won at 16 rows and lost at 32, where numpy's cost per call is no longer most
_SCALAR_ROWS = 16


# ---------------------------------------------------------------------------
# Wiener path construction
# ---------------------------------------------------------------------------

def sample_wiener(grid: TimeGrid, stream: GaussianStream,
                  dim: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """Sample ``dim`` Brownian paths on ``grid`` by accumulating N(0, dt) increments.

    Returns an iterator over windows ``(j, rows)``: ``rows`` of shape
    ``(w + 1, dim)`` hold the values at nodes ``j .. j + w``, starting at zero
    at node 0, and a window's first row is the last row of the one before.
    The ``dim`` columns are ``SdeModel.brownian()`` paths of the one ensemble
    loop :func:`_em_windows`, so a caller that reduces each window as it
    arrives holds one window, not the path.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return ((j, path[..., 0])
            for j, path in _em_windows(SdeModel.brownian(), 0.0, grid, dim, stream))


# ---------------------------------------------------------------------------
# Integrators
# ---------------------------------------------------------------------------

def _disperse(g: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The noise term ``g dW`` over leading batch axes; an ``(n, k)`` ``g`` broadcasts."""
    return np.einsum("...ik,...k->...i", g, dw)


def _em_path(model: SdeModel, x: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
    """The one Euler-Maruyama loop: ``(w + 1,) + x.shape`` states from ``x`` over
    step-major noise ``dw`` of shape ``(w,) + batch + (k,)``.  A constant ``g``
    multiplies the window's noise at once, where ``einsum`` sums each step's
    contiguous rows in the per-step order; an identity ``g`` is skipped.

    A window of at most ``_SCALAR_ROWS`` rows with a constant ``g`` skips numpy's
    cost per step.  With a zero drift it is one ``np.cumsum`` of ``g dW`` down the
    step axis; with a 1-D state and an :class:`~sdelab.expr.Expression` drift that
    runs on Python floats, each row steps as ``v + f(v) * dt + g_dw`` on floats.
    Both take the IEEE operations of the loop in its order, so the same bits, but
    for the sign of a NaN.  A division by zero, which raises on floats, redoes the
    window as arrays."""
    path = np.empty((dw.shape[0] + 1,) + x.shape)
    path[0] = x
    g = model.constant_dispersion
    # skipping g = I pays: at 40 000 rows einsum with a 1x1 g costs three multiplies
    g_dw_w = None if g is None else dw if model.identity_dispersion else _disperse(g, dw)
    narrow = g is not None and len(x) <= _SCALAR_ROWS
    # wide windows keep the loop: at 8 192 rows x 4 steps the cumsum was 8 times slower
    if narrow and model.drift is _zero_drift:
        path[1:] = g_dw_w
        return np.cumsum(path, axis=0, out=path)
    f = getattr(model.drift, "_on_floats", None)  # set on an Expression
    if narrow and f is not None and model.dim_state == 1:
        rows, dt = path.reshape(len(path), -1), float(dt)
        try:
            for r, (v, noise) in enumerate(zip(
                    rows[0].tolist(), g_dw_w.reshape(len(dw), -1).T.tolist())):
                rows[1:, r] = [v := v + f(v) * dt + e for e in noise]
            return path
        except ZeroDivisionError:
            pass  # numpy divides by zero without raising: step as arrays
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


def euler_maruyama_ensemble(model: SdeModel, x0, grid: TimeGrid, n_paths: int,
                            stream: GaussianStream) -> Iterator[tuple[int, np.ndarray]]:
    """Euler-Maruyama over an ensemble of paths, stepped in lockstep.

    Returns the iterator of the one ensemble loop :func:`_em_windows`: windows
    ``(j, path)`` whose ``path`` of shape ``(w + 1, n_paths, dim_state)`` holds
    the states at nodes ``j .. j + w``, starting at ``x0`` at node 0.  All paths
    advance simultaneously on vectorised drift/dispersion evaluations.  An
    estimator reduces each window as it arrives (a terminal state, a running
    integral, per-node moments) and holds one window, not every step of every
    path.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    return _em_windows(model, x0, grid, n_paths, stream)


def _em_windows(model: SdeModel, x0, grid: TimeGrid, n_paths: int,
                stream: GaussianStream):
    """The one ensemble loop: yields ``(j, path)``, the :func:`_em_path` window
    of shape ``(w + 1, n_paths, dim_state)`` at nodes ``j .. j + w``.

    The noise is one ``(n_paths, dim_noise)`` draw per step, taken a window
    of ``_WINDOW_ROW_STEPS // n_paths`` steps (at least one) at a time into
    one buffer, scaled in place: the bits of one ``normal(0, sqrt(dt))`` draw.
    A window with a non-finite state raises :class:`BlowUpError` at its step.
    Its callers check ``n_paths`` when called, which a generator would only do
    at its first window.
    """
    rng = stream.generator()
    dt = grid.dt
    window = max(1, _WINDOW_ROW_STEPS // n_paths)
    buffer = np.empty((min(window, grid.n_steps), n_paths, model.dim_noise))
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, model.dim_state))
    for j in range(0, grid.n_steps, window):
        dw = buffer[:min(window, grid.n_steps - j)]
        rng.standard_normal(out=dw)
        dw *= math.sqrt(dt)
        path = _em_path(model, x, dt, dw)
        _raise_blow_up(path, grid, j)
        x = path[-1]
        yield j, path
