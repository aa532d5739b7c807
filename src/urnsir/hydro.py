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


def _density_rhs(spec: ModelSpec, m: int):
    """Right-hand side f(y, j) of the stacked state y = (rho1, rho0)."""
    psi_v = spec.psi.at_sites(m)
    left, right = spec.lam.factors(m)

    def f(y, j=None):
        rho1, rho0 = y
        force = _node_sum(left, right, rho1)
        return np.array([-psi_v * rho1 + rho0 * force, -rho0 * force])

    return f


def solve_density(spec: ModelSpec, grid: GridSpec) -> DensityField:
    """Integrate the density system; returns every time step.

    Raises :class:`DensityBoundsError` if any stored state leaves
    [0 - tol, ...] or rho1 + rho0 exceeds 1 + tol.
    """
    m = grid.M
    n, h = time_steps(grid.T, grid.dt)
    rho1 = np.empty((n + 1, m))
    rho0 = np.empty((n + 1, m))
    rho1[0] = spec.phi.at_sites(m)
    rho0[0] = 1.0 - rho1[0]
    steps = rk4(_density_rhs(spec, m), np.array([rho1[0], rho0[0]]), h, 0, n)
    for k, y in enumerate(steps, 1):
        rho1[k], rho0[k] = y

    low = min(rho1.min(), rho0.min())
    high = (rho1 + rho0).max()
    if low < -BOUNDS_TOL or high > 1.0 + BOUNDS_TOL:
        raise DensityBoundsError(
            f"density bounds violated: min={low:.3e}, max sum={high:.6f}"
        )
    if np.any(np.diff(rho0, axis=0) > BOUNDS_TOL):
        raise DensityBoundsError("susceptible density must be nonincreasing")
    return DensityField(times=np.arange(n + 1) * h, rho1=rho1, rho0=rho0)


def density_residual(field: DensityField, spec: ModelSpec) -> float:
    """Max abs defect of the stored field against the density system.

    Time derivatives are centered finite differences, so the residual of an
    accurate solution scales like O(dt^2).  Needs at least three stored
    times.
    """
    if field.times.size < 3:
        raise ValueError("residual needs at least three stored times")
    f = _density_rhs(spec, field.m)
    worst = 0.0
    for k in range(1, field.times.size - 1):
        h2 = field.times[k + 1] - field.times[k - 1]
        d1 = (field.rho1[k + 1] - field.rho1[k - 1]) / h2
        d0 = (field.rho0[k + 1] - field.rho0[k - 1]) / h2
        f1, f0 = f((field.rho1[k], field.rho0[k]))
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
