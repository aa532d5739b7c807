"""Closed two-dimensional reductions for homogeneous models.

When the kernel is a constant lam0, the recovery rate is 1 and the initial
profile is a constant phi0, the site label carries no information and the
infected/susceptible fractions (i_t, s_t) satisfy the classical density
ODE

    di/dt = -i + lam0 * i * s,        ds/dt = -lam0 * i * s,

while the scaled fluctuations of (i, s) around it are a 2-d Gaussian whose
covariance solves dSigma/dt = A Sigma + Sigma A^T + B with

    A = [[lam0*s - 1, lam0*i], [-lam0*s, -lam0*i]],
    B = [[i + lam0*i*s, -lam0*i*s], [-lam0*i*s, lam0*i*s]],
    Sigma(0) = phi0*(1-phi0) * [[1, -1], [-1, 1]].

:func:`classic_clt_covariance` steps both with :func:`urnsir.rk4.rk4`, the
one fixed-step fourth-order Runge-Kutta integrator of the density and
fluctuation solvers, on the same :func:`urnsir.rk4.time_steps` grid, so
constant-input cross-checks isolate modeling differences, not integrator
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rk4 import rk4, time_index, time_steps

__all__ = ["HomogeneousState", "classic_clt_covariance"]


@dataclass(frozen=True)
class HomogeneousState:
    """Trajectory of the homogeneous fractions and their covariance."""

    times: np.ndarray
    infected: np.ndarray
    susceptible: np.ndarray
    covariance: np.ndarray  # (n_times, 2, 2)

    def at(self, t: float) -> int:
        return time_index(self.times, t)


def classic_clt_covariance(
    lam0: float, phi0: float, T: float, dt: float
) -> HomogeneousState:
    """Fractions plus the 2x2 fluctuation covariance along the trajectory.

    The state stacks the fractions (i, s) over the two covariance rows.
    """
    if not 0.0 <= phi0 <= 1.0:
        raise ValueError("phi0 must lie in [0, 1]")
    if lam0 < 0.0:
        raise ValueError("lam0 must be nonnegative")
    n, h = time_steps(T, dt)
    q = phi0 * (1.0 - phi0)
    traj = np.empty((n + 1, 3, 2))
    traj[0] = [[phi0, 1.0 - phi0], [q, -q], [-q, q]]

    def f(y, j, out):
        (i, s), sigma = y[0], y[1:]
        flux = lam0 * i * s
        a = np.array([[lam0 * s - 1.0, lam0 * i], [-lam0 * s, -lam0 * i]])
        b = np.array([[i + flux, -flux], [-flux, flux]])
        out[1:] = a @ sigma + sigma @ a.T + b
        out[0] = -i + flux, -flux

    for k, y in enumerate(rk4(f, traj[0], h, 0, n), 1):
        traj[k] = y
    return HomogeneousState(
        times=np.arange(n + 1) * h, infected=traj[:, 0, 0],
        susceptible=traj[:, 0, 1], covariance=traj[:, 1:],
    )
