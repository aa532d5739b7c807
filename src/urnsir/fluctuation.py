"""Gaussian fluctuation covariances around the density limit.

The centered, sqrt(N)-scaled occupation fields (eta, beta) = (infected,
susceptible) converge to a two-component Gaussian process driven by the
density solution.  Against a test function f its drift uses three
operators built from the density (rho1, rho0),

    (Apsi f)(u) = psi(u) f(u),
    (A1 f)(u)   = f(u) * Integral lambda(u, v) rho1(t, v) dv,
    (A0 f)(u)   = Integral lambda(v, u) rho0(t, v) f(v) dv,

and two multiplicative noise amplitudes b^2 = psi * rho1 (recovery noise,
eta only) and alpha^2 = rho0 * Integral lambda(u, v) rho1(t, v) dv
(infection noise, entering eta and beta with opposite signs):

    d eta(f) = beta(A1 f) dt + eta(A0 f) dt - eta(Apsi f) dt + noise,
    d beta(f) = -beta(A1 f) dt - eta(A0 f) dt - noise(infection part).

Everything is discretized on the node grid m/M with the package node-sum
quadrature.  Fields are represented by dual weight vectors w with
eta(f) = (1/M) w . f_nodes, so function-space operators act through their
transposes, giving the 2M x 2M weight drift

    S = [[A0^T - diag psi, diag kappa1], [-A0^T, -diag kappa1]],

kappa1 = Integral lambda(., v) rho1(t, v) dv, and the noise covariance
density (in weight coordinates)

    Q = [[M diag(b^2 + alpha^2), -M diag(alpha^2)],
         [-M diag(alpha^2),       M diag(alpha^2)]].

With the kernel's exact rank-r site factors (:meth:`Kernel.factors`),
A0^T = diag(rho0/M) left right^T, so S y costs one rank-r product and
diagonal scalings (:meth:`PanelSeries.drift`); no M x M or 2M x 2M operator
matrix is formed.  Covariances evolve by the Lyapunov equation
dC/dt = S C + C S^T + Q from C(0) = [[D, -D], [-D, D]],
D = M diag(phi (1 - phi)), with pairings
Cov(eta(f), beta(g)) = (1/M^2) f^T C_eb g.  For symmetric C the right-hand
side is X + X^T + Q with X = S C, exactly symmetric, so each step relies on
a symmetric C(0) (an asymmetric one is rejected with the stored
trajectory); Q adds only to the diagonals of the four M x M blocks.  The
integrator is :func:`urnsir.rk4.rk4`; the density is solved on a half-step
grid so the midpoint-stage drift exists without interpolation and the
scheme keeps its order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvout import write_time_rows
from .fields import TestFunction, sites
from .hydro import GridSpec, solve_density
from .model import ModelSpec
from .rk4 import rk4, time_index, time_steps

__all__ = [
    "PanelSeries",
    "propagate",
    "initial_covariance",
    "CovarianceTrajectory",
    "evolve_covariance",
    "pair_covariance",
    "write_covariance_csv",
    "write_pair_csv",
]

SYMMETRY_TOL = 1e-10
PSD_FLOOR = -1e-8


class PanelSeries:
    """The density and the drift and noise vectors of every half step.

    The density is solved with step dt/2 so that the classical fourth-order
    stages (which need the drift at step midpoints) read exact grid values
    instead of interpolating.  ``kappa1``, ``b2``, ``alpha2`` and ``rho0_m``
    hold one (M,) row per half step j, time j * dt/2; ``psi`` and the kernel
    factors ``left``, ``right`` do not depend on time.
    """

    def __init__(self, spec: ModelSpec, m: int, dt: float, T: float):
        self.spec = spec
        self.n_steps, self.dt = time_steps(T, dt)
        self.T = float(T)
        half = self.dt / 2.0 if self.n_steps else self.dt
        self.density = solve_density(spec, GridSpec(M=m, dt=half, T=T))
        self.m = m
        rho1, rho0 = self.density.rho1, self.density.rho0
        self.psi = spec.psi.at_sites(m)
        self.kappa1 = spec.lam.node_average(rho1)
        self.b2 = self.psi * rho1
        self.alpha2 = rho0 * self.kappa1
        self.rho0_m = rho0 / m
        self.left, self.right = spec.lam.factors(m)

    def drift(self, j: int, y: np.ndarray) -> np.ndarray:
        """S y at half step j for stacked weight columns y, (2M, K)."""
        m = self.m
        top, bottom = y[:m], y[m:]
        # infections move weight from beta to eta: A0^T top + kappa1 bottom
        gain = self.left.dot(self.right.T.dot(top))
        gain *= self.rho0_m[j][:, None]
        gain += self.kappa1[j][:, None] * bottom
        out = np.empty_like(y)
        np.subtract(gain, self.psi[:, None] * top, out=out[:m])
        np.negative(gain, out=out[m:])
        return out

    def step_index(self, t: float) -> int:
        idx = int(round(t / self.dt)) if self.dt else 0
        if abs(idx * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not on the evolution grid")
        if not 0 <= idx <= self.n_steps:
            raise ValueError(f"time {t} outside [0, T]")
        return idx


def propagate(series: PanelSeries, s: float, t: float) -> np.ndarray:
    """Flow matrix of the drift from time s to t >= s (both on the grid).

    Satisfies the cocycle property up to integrator error: the flow s->t
    composed with t->r equals s->r.
    """
    a = series.step_index(s)
    b = series.step_index(t)
    if b < a:
        raise ValueError("propagation runs forward in time")
    y = np.eye(2 * series.m)
    for y in rk4(lambda y, j: series.drift(j, y), y, series.dt, a, b):
        pass
    return y


def initial_covariance(spec: ModelSpec, m: int) -> np.ndarray:
    """Weight covariance of the initial fields: independent occupations.

    Var(eta_0(f)) discretizes the node-sum of f^2 phi (1 - phi), and
    beta_0 = -eta_0 exactly, whence the [[D, -D], [-D, D]] block shape.
    """
    phi = spec.phi.at_sites(m)
    d = m * phi * (1.0 - phi)
    c = np.zeros((2 * m, 2 * m))
    c[:m, :m] = np.diag(d)
    c[:m, m:] = -np.diag(d)
    c[m:, :m] = -np.diag(d)
    c[m:, m:] = np.diag(d)
    return c


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Stored weight covariances C(t) at a subset of evolution times.

    ``dt`` is the RK4 step of the solve that produced them (0 if none).
    RK4 moves the zero eigenvalues of the singular C(0) by about dt^4, so
    each C must be symmetric with no eigenvalue below
    -max(1e-8, dt^4) * max(1, max |C|).
    """

    times: np.ndarray
    covariances: np.ndarray  # (n_times, 2M, 2M)
    m: int
    dt: float = 0.0

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        if covs.ndim != 3 or covs.shape[0] != times.size:
            raise ValueError("covariances must be (n_times, 2M, 2M)")
        if covs.shape[1] != covs.shape[2] or covs.shape[1] != 2 * self.m:
            raise ValueError("covariance blocks must be 2M x 2M")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "covariances", covs)
        # max |C| as max(max C, -min C): np.abs would copy every matrix
        top = float(max(covs.max(), -covs.min())) if covs.size else 1.0
        scale = max(1.0, top)
        floor = min(PSD_FLOOR, -self.dt**4) * scale
        for k in range(times.size):
            c = covs[k]
            asym = float(np.max(np.abs(c - c.T))) / scale
            if asym > SYMMETRY_TOL:
                raise ValueError(f"covariance at t={times[k]} not symmetric")
            low = float(np.linalg.eigvalsh((c + c.T) / 2.0)[0])
            if low < floor:
                raise ValueError(
                    f"covariance at t={times[k]} has eigenvalue {low:.3e}"
                )

    def at(self, t: float) -> np.ndarray:
        return self.covariances[time_index(self.times, t)]


def evolve_covariance(
    series: PanelSeries,
    c0: np.ndarray | None = None,
    store_every: int | None = None,
    include_noise: bool = True,
) -> CovarianceTrajectory:
    """Integrate the Lyapunov equation along the panel series.

    ``include_noise=False`` drops Q, leaving the pure flow conjugation
    C(t) = Flow C(0) Flow^T for cross-checking against :func:`propagate`.
    """
    m = series.m
    c = initial_covariance(series.spec, m) if c0 is None else c0.copy()
    if c.shape != (2 * m, 2 * m):
        raise ValueError("c0 must be a 2M x 2M matrix")
    n = series.n_steps
    if store_every is None:
        store_every = max(1, n // 200) if n else 1
    if store_every < 1:
        raise ValueError("store_every must be a positive integer")
    h = series.dt
    times = [0.0]
    # time 0, every store_every-th step and the last step
    stored = np.empty((1 + -(-n // store_every), 2 * m, 2 * m))
    stored[0] = c

    top = np.arange(m)
    bottom = top + m

    def rhs(mat: np.ndarray, j: int) -> np.ndarray:
        x = series.drift(j, mat)
        out = x + x.T
        if include_noise:
            cross = m * series.alpha2[j]
            out[top, top] += m * (series.b2[j] + series.alpha2[j])
            out[bottom, bottom] += cross
            out[top, bottom] -= cross
            out[bottom, top] -= cross
        return out

    for k, c in enumerate(rk4(rhs, c, h, 0, n), 1):
        if k % store_every == 0 or k == n:
            stored[len(times)] = c
            times.append(k * h)
    return CovarianceTrajectory(
        times=np.asarray(times), covariances=stored, m=m, dt=h
    )


def pair_covariance(
    c: np.ndarray, f: TestFunction, g: TestFunction, m: int
) -> np.ndarray:
    """2x2 covariance of (eta(f), beta(g)) under the weight covariance c."""
    if c.shape != (2 * m, 2 * m):
        raise ValueError("c must be a 2M x 2M matrix")
    fv = f.at_sites(m)
    gv = g.at_sites(m)
    scale = 1.0 / (m * m)
    ee = float(fv @ c[:m, :m] @ fv) * scale
    eb = float(fv @ c[:m, m:] @ gv) * scale
    be = float(gv @ c[m:, :m] @ fv) * scale
    bb = float(gv @ c[m:, m:] @ gv) * scale
    return np.array([[ee, eb], [be, bb]])


def write_covariance_csv(traj: CovarianceTrajectory, path) -> None:
    """Rows time, block (ee|eb|bb), row_u, col_u, value."""
    m = traj.m
    us = [f"{u:.10g}" for u in sites(m)]
    cells = [f"{name},{a},{b},%.12g"
             for name in ("ee", "eb", "bb") for a in us for b in us]
    blocks = (
        (t, np.concatenate((c[:m, :m], c[:m, m:], c[m:, m:]), axis=None))
        for t, c in zip(traj.times, traj.covariances)
    )
    write_time_rows(path, ("time", "block", "row_u", "col_u", "value"),
                    cells, blocks)


def write_pair_csv(
    traj: CovarianceTrajectory, f: TestFunction, g: TestFunction, path
) -> None:
    """Rows time, var_eta_f, cov_eta_beta, var_beta_g."""
    blocks = (
        (t, pair_covariance(c, f, g, traj.m)[[0, 0, 1], [0, 1, 1]])
        for t, c in zip(traj.times, traj.covariances)
    )
    write_time_rows(path, ("time", "var_eta_f", "cov_eta_beta", "var_beta_g"),
                    ["%.12g,%.12g,%.12g"], blocks)
