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

A pairing needs only the adjoint flow (duality).  For weight vectors a, b
and the flow Phi(t, s) of S, y(s) = Phi(t, s)^T a solves
dy/ds = -S(s)^T y with y(t) = a, and

    a^T C(t) b = y_a(0)^T C(0) y_b(0) + Integral_0^t y_a(s)^T Q(s) y_b(s) ds.

S^T acts, like S, through diagonal scalings and one rank-r product, and
Q(s) and C(0) are diagonal per block, so two columns cost O(M r) per stage
instead of the O(M^2 r) of a Lyapunov step.  :func:`adjoint_pair_covariance`
steps them backward through the same panels; the report's 2x2 theory
comes from there, while :func:`evolve_covariance` keeps the whole matrix
for the ``fluctuate`` command and the flow checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvout import write_time_rows
from .fields import TestFunction, sites
from .hydro import GridSpec, solve_density
from .model import ModelSpec
from .rk4 import rk4, stored_steps, time_index, time_steps

__all__ = [
    "PanelSeries",
    "propagate",
    "initial_covariance",
    "CovarianceTrajectory",
    "evolve_covariance",
    "pair_covariance",
    "adjoint_pair_covariance",
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

    def drift(self, j: int, y: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """S y at half step j for stacked weight columns y, (2M, K).

        Written into ``out`` when given (not y itself), else a new array.
        """
        m = self.m
        top, bottom = y[:m], y[m:]
        # infections move weight from beta to eta: A0^T top + kappa1 bottom
        gain = self.left.dot(self.right.T.dot(top))
        gain *= self.rho0_m[j][:, None]
        gain += self.kappa1[j][:, None] * bottom
        if out is None:
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
    for y in rk4(lambda y, j, out: series.drift(j, y, out), y, series.dt,
                 a, b):
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
        # C + (|floor| / 2) I has a Cholesky factor only if the least
        # eigenvalue of C exceeds floor / 2, up to rounding far below
        # |floor| / 2; eigvalsh decides where the factorization fails, so
        # the same matrices pass as with eigvalsh alone
        shifted = np.empty(covs.shape[1:])
        diag = shifted.reshape(-1)[::len(shifted) + 1]
        for k in range(times.size):
            c = covs[k]
            # a solve gives C symmetric bit for bit: a cheaper test, and
            # then C is its own symmetric part
            if np.array_equal(c, c.T):
                np.copyto(shifted, c)
            else:
                asym = float(np.max(np.abs(c - c.T))) / scale
                if asym > SYMMETRY_TOL:
                    raise ValueError(
                        f"covariance at t={times[k]} not symmetric")
                np.divide(np.add(c, c.T, out=shifted), 2.0, out=shifted)
            diag -= floor / 2.0
            try:
                np.linalg.cholesky(shifted)
                continue
            except np.linalg.LinAlgError:
                pass
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
    h = series.dt
    keep = stored_steps(n, store_every)
    stored = np.empty((keep.size, 2 * m, 2 * m))
    stored[0] = c

    dim = 2 * m
    x = np.empty((dim, dim))

    def rhs(mat: np.ndarray, j: int, out: np.ndarray) -> None:
        series.drift(j, mat, x)
        np.add(x, x.T, out=out)
        if include_noise:
            # the diagonals of the four M x M blocks, as strided views of
            # the flat (C-ordered) matrix
            flat = out.reshape(-1)
            diag = flat[::dim + 1]
            cross = m * series.alpha2[j]
            diag[:m] += m * (series.b2[j] + series.alpha2[j])
            diag[m:] += cross
            flat[m::dim + 1][:m] -= cross
            flat[m * dim::dim + 1] -= cross

    done = 1
    for k, c in enumerate(rk4(rhs, c, h, 0, n), 1):
        if k == keep[done]:
            stored[done] = c
            done += 1
    return CovarianceTrajectory(
        times=keep * h, covariances=stored, m=m, dt=h
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


def adjoint_pair_covariance(
    series: PanelSeries, f: TestFunction, g: TestFunction
) -> np.ndarray:
    """2x2 covariance of (eta_T(f), beta_T(g)) at the series' horizon T.

    The pairing of ``evolve_covariance(series)``'s last matrix by duality
    (module docstring): the weight columns a = (f/M, 0) and b = (0, g/M)
    step backward, tau = T - s, under dy/dtau = S(T - tau)^T y through
    :func:`rk4` and the same half-step panels, and two more state rows
    carry the 2x2 integral of y^T Q y.  A column is held as (p, d = p - q),
    whence dp/dtau = R L^T (rho0/M d) - psi p, dd/dtau = dp/dtau - kappa1 d
    and y^T Q y = p^T (M b^2) p + d^T (M alpha^2) d is one product.  It is
    stepped as M a and M b, so the factors M of Q and of
    C(0) = M phi (1 - phi) on d become one division at the end.  A stage
    costs O(M r).  The two RK4 schemes agree to O(dt^4): about 1e-14
    relative at dt = 1e-3.
    """
    m, n = series.m, series.n_steps
    y = np.zeros((2 * m + 2, 2))
    y[:m, 0] = y[m:2 * m, 0] = f.at_sites(m)  # (p, d) = (f, f)
    y[m:2 * m, 1] = -g.at_sites(m)  # (p, d) = (0, -g)
    # one (M, 1) column or (1, 2M) row per panel, indexed once per stage
    rho0_m, kappa1 = series.rho0_m[:, :, None], series.kappa1[:, :, None]
    noise = np.concatenate((series.b2, series.alpha2), axis=1)[:, None]
    right, left_t, psi = series.right, series.left.T, series.psi[:, None]
    gain, work, rows = np.empty((m, 2)), np.empty((m, 2)), np.empty((2, 2 * m))

    def rhs(y: np.ndarray, j: int, out: np.ndarray) -> None:
        i = 2 * n - j  # the panel at time T - j h/2
        p, d, pd = y[:m], y[m:2 * m], y[:2 * m]
        np.dot(right, left_t.dot(np.multiply(rho0_m[i], d, work)), gain)
        np.subtract(gain, np.multiply(psi, p, work), out[:m])
        np.subtract(out[:m], np.multiply(kappa1[i], d, work), out[m:2 * m])
        np.dot(np.multiply(pd.T, noise[i], rows), pd, out[2 * m:])

    for y in rk4(rhs, y, series.dt, 0, n):
        pass
    d = y[m:2 * m]
    phi = series.spec.phi.at_sites(m)
    return ((d.T * (phi * (1.0 - phi))).dot(d) + y[2 * m:]) / m


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
