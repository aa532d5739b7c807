"""Deterministic density evolution on the unit interval.

Solves the coupled fields (rho1, rho0) = (infected, susceptible density)

    d rho1/dt = -psi(u) rho1 + rho0 * Integral lambda(u, v) rho1(t, v) dv
    d rho0/dt = -rho0 * Integral lambda(u, v) rho1(t, v) dv

with rho1(0) = phi, rho0(0) = 1 - phi, by the classical fixed-step
fourth-order Runge-Kutta scheme on the node grid m/M.  The kernel integral is
the right-endpoint node sum (1/M) sum_q lambda(u, q/M) rho1(t, q/M), chosen
to mirror the empirical sums (1/N) sum_j exactly, so law-of-large-numbers
comparisons share the discretization.

No clipping is applied anywhere: bound violations beyond tolerance raise
:class:`DensityBoundsError` instead of being silently projected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .csvout import write_time_rows
from .fields import TestFunction, _node_sum, sites
from .model import ModelSpec
from .rk4 import rk4, time_index, time_steps

__all__ = [
    "GridSpec",
    "DensityField",
    "DensityBoundsError",
    "solve_density",
    "density_residual",
    "write_density_csv",
]

BOUNDS_TOL = 1e-8
_BLOCK_ROWS = 64  # stored states per block of the bounds check


class DensityBoundsError(ValueError):
    """A solved density violated its a-priori bounds beyond tolerance."""


@dataclass(frozen=True)
class GridSpec:
    """Space/time discretization: M nodes at m/M, fixed step dt, horizon T."""

    M: int
    dt: float
    T: float

    def __post_init__(self) -> None:
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError("M must be an integer >= 1")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "T", float(self.T))
        time_steps(self.T, self.dt)

    def n_steps(self) -> int:
        return time_steps(self.T, self.dt)[0]

    def step(self) -> float:
        """Actual step T / n_steps (equals dt when dt divides T)."""
        return time_steps(self.T, self.dt)[1]


@dataclass(frozen=True)
class DensityField:
    """Densities on the node grid for each stored time.

    ``rho1`` and ``rho0`` have shape (len(times), M).
    """

    times: np.ndarray
    rho1: np.ndarray
    rho0: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        r1 = np.asarray(self.rho1, dtype=float)
        r0 = np.asarray(self.rho0, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if r1.shape != r0.shape or r1.shape[0] != times.size:
            raise ValueError("density arrays must be (n_times, M)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rho1", r1)
        object.__setattr__(self, "rho0", r0)

    @property
    def m(self) -> int:
        return self.rho1.shape[1]

    def nodes(self) -> np.ndarray:
        return sites(self.m)

    def index_of(self, t: float) -> int:
        return time_index(self.times, t)

    def node_integral(self, t: float, f: TestFunction) -> float:
        """(1/M) sum_m rho1(t, m/M) f(m/M), the node-sum integral of rho1*f."""
        fv = f.at_sites(self.m)
        return float(self.rho1[self.index_of(t)] @ fv) / self.m

    def total_infected(self, t: float) -> float:
        return float(self.rho1[self.index_of(t)].mean())


def _density_rhs(spec: ModelSpec, ms: tuple):
    """Right-hand side f(y, j, out) of the stacked state y = (rho1, rho0).

    The node grids of ``ms`` lie side by side along the last axis, and each
    takes its kernel node sum on its own slice, so every grid's derivative
    is the one it has alone.
    """
    rungs = [(cut, *spec.lam.factors(m)) for cut, m in zip(_cuts(ms), ms)]
    psi_v = np.concatenate([spec.psi.at_sites(m) for m in ms])
    force = np.empty(sum(ms))

    def f(y, j, out):
        rho1, rho0, d1, d0 = y[0], y[1], out[0], out[1]
        for cut, left, right in rungs:
            _node_sum(left, right, rho1[cut], force[cut])
        np.multiply(rho0, force, d0)
        np.subtract(d0, np.multiply(psi_v, rho1, d1), d1)
        np.negative(d0, d0)

    return f


def _solve_grids(spec: ModelSpec, ms: tuple, dt: float,
                 T: float) -> list[DensityField]:
    """:func:`solve_density` on the grids M = ms[0], ms[1], ... in one solve.

    The grids share the time grid of (T, dt) and step as one state, with
    their nodes side by side; each field equals its own solve bit for bit,
    and each is checked for bounds on its own.
    """
    n, h = time_steps(T, dt)
    rho1 = np.empty((n + 1, sum(ms)))
    rho0 = np.empty((n + 1, sum(ms)))
    rho1[0] = np.concatenate([spec.phi.at_sites(m) for m in ms])
    rho0[0] = 1.0 - rho1[0]
    steps = rk4(_density_rhs(spec, ms), np.array([rho1[0], rho0[0]]), h, 0, n)
    for k, y in enumerate(steps, 1):
        rho1[k], rho0[k] = y

    times = np.arange(n + 1) * h
    fields = []
    for cut in _cuts(ms):
        _check_bounds(rho1[:, cut], rho0[:, cut])
        fields.append(DensityField(times, rho1[:, cut], rho0[:, cut]))
    return fields


def _cuts(ms: tuple) -> list[slice]:
    """The slices of grids of sizes ms laid side by side."""
    ends = list(itertools.accumulate(ms))
    return [slice(b - m, b) for m, b in zip(ms, ends)]


def _check_bounds(rho1: np.ndarray, rho0: np.ndarray) -> None:
    """Raise :class:`DensityBoundsError` unless the stored states keep their
    bounds; blocks of rows keep the temporaries small."""
    rows = range(0, len(rho1), _BLOCK_ROWS)
    low = min(rho1.min(), rho0.min())
    high = np.max([(rho1[k:k + _BLOCK_ROWS] + rho0[k:k + _BLOCK_ROWS]).max()
                   for k in rows])
    if low < -BOUNDS_TOL or high > 1.0 + BOUNDS_TOL:
        raise DensityBoundsError(
            f"density bounds violated: min={low:.3e}, max sum={high:.6f}"
        )
    if any((np.diff(rho0[k:k + _BLOCK_ROWS + 1], axis=0) > BOUNDS_TOL).any()
           for k in rows):
        raise DensityBoundsError("susceptible density must be nonincreasing")


def solve_density(spec: ModelSpec, grid: GridSpec) -> DensityField:
    """Integrate the density system; returns every time step.

    Raises :class:`DensityBoundsError` if any stored state leaves
    [0 - tol, ...] or rho1 + rho0 exceeds 1 + tol.
    """
    return _solve_grids(spec, (grid.M,), grid.dt, grid.T)[0]


def density_residual(field: DensityField, spec: ModelSpec) -> float:
    """Max abs defect of the stored field against the density system.

    Time derivatives are centered finite differences, so the residual of an
    accurate solution scales like O(dt^2).  Needs at least three stored
    times.
    """
    if field.times.size < 3:
        raise ValueError("residual needs at least three stored times")
    f = _density_rhs(spec, (field.m,))
    deriv = np.empty((2, field.m))
    worst = 0.0
    for k in range(1, field.times.size - 1):
        h2 = field.times[k + 1] - field.times[k - 1]
        d1 = (field.rho1[k + 1] - field.rho1[k - 1]) / h2
        d0 = (field.rho0[k + 1] - field.rho0[k - 1]) / h2
        f((field.rho1[k], field.rho0[k]), None, deriv)
        f1, f0 = deriv
        worst = max(
            worst,
            float(np.max(np.abs(d1 - f1))),
            float(np.max(np.abs(d0 - f0))),
        )
    return worst


def write_density_csv(field: DensityField, path) -> None:
    """Rows time, node_u, rho1, rho0 for every stored time and node."""
    cells = [f"{u:.10g},%.12g,%.12g" for u in field.nodes()]
    blocks = (
        (t, np.stack((r1, r0), axis=-1))
        for t, r1, r0 in zip(field.times, field.rho1, field.rho0)
    )
    write_time_rows(path, ("time", "node_u", "rho1", "rho0"), cells, blocks)
