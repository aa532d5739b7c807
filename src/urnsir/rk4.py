"""The one fixed-step integrator and time grid of the deterministic solvers.

The density ODE, the Lyapunov equation, the flow matrix and the
homogeneous reductions all step through :func:`rk4` on the grid of
:func:`time_steps`, so cross-checks between them compare models, not
integrators.
"""

from __future__ import annotations

import numpy as np


def rk4(f, y, h, start, stop):
    """Classical RK4 steps k = start..stop-1; yields the state after each.

    ``f(y, j)`` is the derivative at half step j, time j*h/2: the stages of
    step k read j = 2k, 2k+1, 2k+1, 2k+2.  Autonomous systems ignore j.
    """
    for k in range(start, stop):
        k1 = f(y, 2 * k)
        k2 = f(y + 0.5 * h * k1, 2 * k + 1)
        k3 = f(y + 0.5 * h * k2, 2 * k + 1)
        k4 = f(y + h * k3, 2 * k + 2)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield y


def time_steps(T: float, dt: float) -> tuple[int, float]:
    """(n, h): n steps of h = T/n, the nearest to dt; (0, dt) when T = 0."""
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError("dt must be positive")
    if not np.isfinite(T) or T < 0.0:
        raise ValueError("T must be finite and >= 0")
    if T == 0.0:
        return 0, dt
    n = max(1, int(round(T / dt)))
    return n, T / n


def time_index(times, t: float) -> int:
    """Index of the stored time within 1e-9 (relative, above 1) of t."""
    gaps = np.abs(np.asarray(times, dtype=float) - t)
    if gaps.size and gaps.min() <= 1e-9 * max(1.0, abs(t)):
        return int(np.argmin(gaps))
    raise ValueError(f"time {t} is not among the stored times")
