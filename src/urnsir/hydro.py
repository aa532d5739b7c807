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
:class:`DensityBoundsError` instead of being silently projected.  Every
RK4 step is checked, whether or not it is stored: :func:`solve_density`
stores every step, while the law-of-large-numbers ladder of
:func:`urnsir.reports.lln_report` stores only times 0 and t, so its memory
is that of one block of _BLOCK_ROWS steps, not of the whole history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .csvout import write_time_rows
from .fields import TestFunction, sites
from .model import ModelSpec
from .rk4 import rk4, stored_steps, time_index, time_steps

__all__ = [
    "GridSpec",
    "DensityField",
    "DensityBoundsError",
    "solve_density",
    "write_density_csv",
]

BOUNDS_TOL = 1e-8
_BLOCK_ROWS = 64  # steps per block of the bounds check


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
    is the one it has alone.  Each grid's node sum is the arithmetic of
    :meth:`Kernel.node_average` in its order, into buffers made once: the
    (r, M) products, their sums along the nodes, the sums over M, then
    their dot product with the left factors.
    """
    rungs = []
    for cut, m in zip(_cuts(ms), ms):
        left, right = spec.lam.factors(m)
        rungs.append((cut, left.T, right.T, np.empty(right.T.shape),
                      np.empty(right.shape[1]), float(m)))
    psi_v = np.concatenate([spec.psi.at_sites(m) for m in ms])
    force = np.empty(sum(ms))

    def f(y, j, out):
        rho1, rho0, d1, d0 = y[0], y[1], out[0], out[1]
        for cut, left_t, right_t, prod, sums, m in rungs:
            np.multiply(right_t, rho1[cut], prod)
            np.add.reduce(prod, -1, out=sums)
            np.divide(sums, m, sums)
            np.dot(sums, left_t, force[cut])
        np.multiply(rho0, force, d0)
        np.subtract(d0, np.multiply(psi_v, rho1, d1), d1)
        np.negative(d0, d0)

    return f


def _solve_grids(spec: ModelSpec, ms: tuple, dt: float, T: float,
                 store_every: int = 1) -> list[DensityField]:
    """:func:`solve_density` on the grids M = ms[0], ms[1], ... in one solve.

    The grids share the time grid of (T, dt) and step as one state, with
    their nodes side by side; each field equals its own solve bit for bit,
    and each is checked for bounds on its own.  The fields hold the steps
    of :func:`stored_steps` (step 0, every ``store_every``-th step and the
    last step); the bounds check sees every step all the same, as the
    states stream past in blocks of _BLOCK_ROWS steps, so memory is the
    stored steps and one block.
    """
    n, h = time_steps(T, dt)
    keep = stored_steps(n, store_every)
    cuts = _cuts(ms)
    starts = [cut.start for cut in cuts]
    rho1 = np.empty((keep.size, sum(ms)))
    rho0 = np.empty((keep.size, sum(ms)))
    # row 0 of a block repeats the last state of the block before, so the
    # monotonicity check sees every step
    block = np.empty((_BLOCK_ROWS + 1, 2, sum(ms)))
    block[0, 0] = np.concatenate([spec.phi.at_sites(m) for m in ms])
    block[0, 1] = 1.0 - block[0, 0]
    rho1[0], rho0[0] = block[0]
    # per grid: the least rho1 and rho0, the largest rho1 + rho0, and
    # whether rho0 rose by more than the tolerance in some step
    low = np.full((2, len(ms)), np.inf)
    high = np.full(len(ms), -np.inf)
    rising = np.zeros(len(ms), dtype=bool)

    def see(rows: np.ndarray) -> None:
        least = np.minimum.reduceat(rows.min(axis=0), starts, axis=1)
        np.minimum(low, least, out=low)
        most = np.maximum.reduceat((rows[:, 0] + rows[:, 1]).max(axis=0),
                                   starts)
        np.maximum(high, most, out=high)
        rose = (np.diff(rows[:, 1], axis=0) > BOUNDS_TOL).any(axis=0)
        np.logical_or(rising, np.logical_or.reduceat(rose, starts),
                      out=rising)

    if n == 0:
        see(block[:1])
    filled, done = 1, 1  # rows of the block in use; steps stored so far
    # rk4 reads block[0] only for step 1, before the block is reused
    for k, y in enumerate(rk4(_density_rhs(spec, ms), block[0], h, 0, n), 1):
        block[filled] = y
        filled += 1
        if filled < len(block) and k < n:
            continue
        # the block holds steps k - filled + 1 .. k
        see(block[:filled])
        upto = int(np.searchsorted(keep, k, side="right"))
        rows = keep[done:upto] - (k - filled + 1)
        # mode "clip" copies without a buffer; the rows are in range
        np.take(block[:, 0], rows, axis=0, out=rho1[done:upto], mode="clip")
        np.take(block[:, 1], rows, axis=0, out=rho0[done:upto], mode="clip")
        block[0] = block[filled - 1]
        filled, done = 1, upto

    times = keep * h
    fields = []
    for g, cut in enumerate(cuts):
        least = min(low[0, g], low[1, g])
        if least < -BOUNDS_TOL or high[g] > 1.0 + BOUNDS_TOL:
            raise DensityBoundsError(
                f"density bounds violated: min={least:.3e}, "
                f"max sum={high[g]:.6f}"
            )
        if rising[g]:
            raise DensityBoundsError(
                "susceptible density must be nonincreasing")
        fields.append(DensityField(times, rho1[:, cut], rho0[:, cut]))
    return fields


def _cuts(ms: tuple) -> list[slice]:
    """The slices of grids of sizes ms laid side by side."""
    ends = list(itertools.accumulate(ms))
    return [slice(b - m, b) for m, b in zip(ms, ends)]


def solve_density(spec: ModelSpec, grid: GridSpec) -> DensityField:
    """Integrate the density system; returns every time step.

    Raises :class:`DensityBoundsError` if any state leaves [0 - tol, ...],
    rho1 + rho0 exceeds 1 + tol, or rho0 rises by more than tol in a step.
    """
    return _solve_grids(spec, (grid.M,), grid.dt, grid.T)[0]


def write_density_csv(field: DensityField, path) -> None:
    """Rows time, node_u, rho1, rho0 for every stored time and node."""
    cells = [f"{u:.10g},%.12g,%.12g" for u in field.nodes()]
    blocks = (
        (t, np.stack((r1, r0), axis=-1))
        for t, r1, r0 in zip(field.times, field.rho1, field.rho0)
    )
    write_time_rows(path, ("time", "node_u", "rho1", "rho0"), cells, blocks)
