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

    S = [[A0^T - Apsi, A1^T], [-A0^T, -A1^T]]

and the noise covariance density (in weight coordinates)

    Q = [[M diag(b^2 + alpha^2), -M diag(alpha^2)],
         [-M diag(alpha^2),       M diag(alpha^2)]].

Covariances evolve by the Lyapunov equation dC/dt = S C + C S^T + Q from
C(0) = [[D, -D], [-D, D]], D = M diag(phi (1 - phi)); pairings are
Cov(eta(f), beta(g)) = (1/M^2) f^T C_eb g.  Integration is
:func:`urnsir.rk4.rk4`, the one fixed-step classical fourth-order
integrator of the package; the density is solved on a half-step grid so the
midpoint-stage operator panels exist without interpolation and the scheme
keeps its order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvout import write_time_rows
from .fields import TestFunction, sites
from .hydro import DensityField, GridSpec, solve_density
from .model import ModelSpec
from .rk4 import rk4, time_index, time_steps

__all__ = [
    "OperatorPanel",
    "build_operator_panel",
    "weight_drift",
    "noise_matrix",
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


@dataclass(frozen=True)
class OperatorPanel:
    """Drift/noise ingredients frozen at one density-grid time."""

    t: float
    psi: np.ndarray  # (M,) recovery rates at the nodes
    kappa1: np.ndarray  # (M,) A1 diagonal: node-sum of lambda(u, .) rho1
    a0: np.ndarray  # (M, M) matrix of A0 in function space
    b2: np.ndarray  # (M,) recovery noise amplitude psi * rho1
    alpha2: np.ndarray  # (M,) infection noise amplitude rho0 * kappa1

    @property
    def m(self) -> int:
        return self.kappa1.size


def _panel_at_index(spec: ModelSpec, density: DensityField, idx: int
                    ) -> OperatorPanel:
    m = density.m
    rho1 = density.rho1[idx]
    rho0 = density.rho0[idx]
    psi = spec.psi.at_sites(m)
    kappa1 = spec.lam.node_average(rho1)
    lam_site = spec.lam.site_matrix(m)
    a0 = lam_site.T * (rho0 / m)[None, :]
    return OperatorPanel(
        t=float(density.times[idx]),
        psi=psi,
        kappa1=kappa1,
        a0=a0,
        b2=psi * rho1,
        alpha2=rho0 * kappa1,
    )


def build_operator_panel(
    spec: ModelSpec, density: DensityField, t: float
) -> OperatorPanel:
    """Panel at a stored density time; off-grid t raises."""
    return _panel_at_index(spec, density, density.index_of(t))


def weight_drift(panel: OperatorPanel) -> np.ndarray:
    """2M x 2M drift acting on stacked dual weights (w_eta, w_beta)."""
    m = panel.m
    a0t = panel.a0.T
    s = np.zeros((2 * m, 2 * m))
    s[:m, :m] = a0t - np.diag(panel.psi)
    s[:m, m:] = np.diag(panel.kappa1)
    s[m:, :m] = -a0t
    s[m:, m:] = -np.diag(panel.kappa1)
    return s


def noise_matrix(panel: OperatorPanel) -> np.ndarray:
    """Instantaneous noise covariance density in weight coordinates."""
    m = panel.m
    q = np.zeros((2 * m, 2 * m))
    top = m * (panel.b2 + panel.alpha2)
    cross = m * panel.alpha2
    q[:m, :m] = np.diag(top)
    q[:m, m:] = -np.diag(cross)
    q[m:, :m] = -np.diag(cross)
    q[m:, m:] = np.diag(cross)
    return q


class PanelSeries:
    """Operator panels on a shared time grid, including half steps.

    The density is solved with step dt/2 so that the classical fourth-order
    stages (which need the drift at step midpoints) read exact grid values
    instead of interpolating.
    """

    def __init__(self, spec: ModelSpec, m: int, dt: float, T: float):
        self.spec = spec
        self.n_steps, self.dt = time_steps(T, dt)
        self.T = float(T)
        half = self.dt / 2.0 if self.n_steps else self.dt
        self.density = solve_density(spec, GridSpec(M=m, dt=half, T=T))
        self.m = m
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def half_operators(self, half_index: int
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(weight_drift, noise_matrix) of the panel at half_index * dt/2.

        Each pair is built once; the last four stay cached, enough for the
        stages of one RK4 step (half steps 2k, 2k+1, 2k+1, 2k+2).
        """
        ops = self._cache.get(half_index)
        if ops is None:
            panel = _panel_at_index(self.spec, self.density, half_index)
            ops = (weight_drift(panel), noise_matrix(panel))
            self._cache[half_index] = ops
            if len(self._cache) > 4:
                self._cache.pop(next(iter(self._cache)))
        return ops

    def panel(self, t: float) -> OperatorPanel:
        return build_operator_panel(self.spec, self.density, t)

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

    def drift(y, j):
        return series.half_operators(j)[0] @ y

    y = np.eye(2 * series.m)
    for y in rk4(drift, y, series.dt, a, b):
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
    """Stored weight covariances C(t) at a subset of evolution times."""

    times: np.ndarray
    covariances: np.ndarray  # (n_times, 2M, 2M)
    m: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        if covs.ndim != 3 or covs.shape[0] != times.size:
            raise ValueError("covariances must be (n_times, 2M, 2M)")
        if covs.shape[1] != covs.shape[2] or covs.shape[1] != 2 * self.m:
            raise ValueError("covariance blocks must be 2M x 2M")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "covariances", covs)
        scale = max(1.0, float(np.max(np.abs(covs))) if covs.size else 1.0)
        for k in range(times.size):
            c = covs[k]
            asym = float(np.max(np.abs(c - c.T))) / scale
            if asym > SYMMETRY_TOL:
                raise ValueError(f"covariance at t={times[k]} not symmetric")
            low = float(np.linalg.eigvalsh((c + c.T) / 2.0)[0])
            if low < PSD_FLOOR * scale:
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
    h = series.dt
    times = [0.0]
    stored = [c]

    def rhs(mat: np.ndarray, half_index: int) -> np.ndarray:
        s, q = series.half_operators(half_index)
        out = s @ mat + mat @ s.T
        if include_noise:
            out = out + q
        return out

    for k, c in enumerate(rk4(rhs, c, h, 0, n), 1):
        if k % store_every == 0 or k == n:
            times.append(k * h)
            stored.append(c)
    return CovarianceTrajectory(
        times=np.asarray(times), covariances=np.asarray(stored), m=m
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
