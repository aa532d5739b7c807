"""The one fixed-step integrator and time grid of the deterministic solvers.

The density ODE, the Lyapunov equation, the flow matrix, the adjoint
weight columns and the homogeneous reductions all step through :func:`rk4`
on the grid of :func:`time_steps`, so cross-checks between them compare
models, not integrators.  Right-hand sides write into a stage buffer that
:func:`rk4` reuses, so a step allocates only the state it yields.
"""

from __future__ import annotations

import numpy as np


def rk4(f, y, h, start, stop):
    """Classical RK4 steps k = start..stop-1; yields the state after each.

    ``f(y, j, out)`` writes the derivative at half step j, time j*h/2, into
    ``out``, an array shaped like y: the stages of step k read
    j = 2k, 2k+1, 2k+1, 2k+2.  Autonomous systems ignore j.  ``f`` must not
    keep ``y`` or ``out``, which are reused; each yielded state is a new
    array.  The arithmetic is the textbook one, in a fixed order: stage
    inputs (c h) k + y, and the update y + (h/6) (((2 k2 + k1) + 2 k3) + k4).
    """
    y = np.asarray(y, dtype=float)
    k1, k2, k3, k4, z = (np.empty_like(y) for _ in range(5))
    # 0-d arrays: numpy multiplies by them faster than by Python floats
    half, full, sixth = (np.array(c) for c in (0.5 * h, h, h / 6.0))
    for k in range(start, stop):
        f(y, 2 * k, k1)
        np.add(np.multiply(k1, half, z), y, z)
        f(z, 2 * k + 1, k2)
        np.add(np.multiply(k2, half, z), y, z)
        f(z, 2 * k + 1, k3)
        np.add(np.multiply(k3, full, z), y, z)
        f(z, 2 * k + 2, k4)
        # 2 k is k + k exactly
        np.add(np.add(k2, k2, k2), k1, k2)
        np.add(k2, np.add(k3, k3, k3), k2)
        np.add(k2, k4, k2)
        y = np.multiply(k2, sixth, k2) + y
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


def stored_steps(n: int, every: int) -> np.ndarray:
    """Steps of n that a solve stored every ``every`` steps keeps: step 0,
    every ``every``-th step and the last step n."""
    if not isinstance(every, (int, np.integer)) or every < 1:
        raise ValueError("store_every must be a positive integer")
    return np.union1d(np.arange(0, n + 1, every), n)


def time_index(times, t: float) -> int:
    """Index of the stored time within 1e-9 (relative, above 1) of t."""
    gaps = np.abs(np.asarray(times, dtype=float) - t)
    if gaps.size and gaps.min() <= 1e-9 * max(1.0, abs(t)):
        return int(np.argmin(gaps))
    raise ValueError(f"time {t} is not among the stored times")
