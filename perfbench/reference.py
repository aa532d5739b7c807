"""Independent references for the benchmark's output checks.

Nothing here imports the package under test.  Models are plain dicts

    {"lam": ("constant", c) | ("table", rows),
     "psi": ("constant", c) | ("affine", (a, b)),
     "phi": ("constant", c) | ("affine", (a, b))}

evaluated with this file's own code: affine fields are a + b*u, kernel
tables are bilinear on the corner-inclusive grid k/(M-1) with row = target
site u and column = source site v, urn i sits at i/N.

References:
  * the 3^N generator assembled densely and exponentiated with
    ``scipy.linalg.expm`` (N <= 4);
  * the site-indexed density ODE on the node grid m/M, integrated by
    ``scipy.integrate.solve_ivp`` at tight tolerance;
  * the 2x2 homogeneous Lyapunov system for constant rates, likewise.

``self_check`` ties each reference to a closed form before any program
output is compared against it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

ODE_RTOL = 1e-12
ODE_ATOL = 1e-14


def field_at(spec: tuple, u: np.ndarray) -> np.ndarray:
    form, vals = spec
    u = np.asarray(u, dtype=float)
    if form == "constant":
        return np.full(u.shape, float(vals))
    if form == "affine":
        a, b = vals
        return a + b * u
    raise ValueError(f"unsupported field form {form!r}")


def kernel_at(spec: tuple, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """lambda(u, v) broadcast over u (targets) and v (sources)."""
    form, vals = spec
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    if form == "constant":
        return np.full(u.shape, float(vals))
    if form != "table":
        raise ValueError(f"unsupported kernel form {form!r}")
    g = np.asarray(vals, dtype=float)
    m = g.shape[0]
    x, y = u * (m - 1), v * (m - 1)
    i = np.minimum(np.floor(x).astype(int), m - 2)
    j = np.minimum(np.floor(y).astype(int), m - 2)
    a, b = x - i, y - j
    return ((1 - a) * (1 - b) * g[i, j] + (1 - a) * b * g[i, j + 1]
            + a * (1 - b) * g[i + 1, j] + a * b * g[i + 1, j + 1])


def nodes(n: int) -> np.ndarray:
    return np.arange(1, n + 1) / n


# ---------------------------------------------------------------------------
# exact small-N chain


def joint_distribution(model: dict, n: int, times) -> np.ndarray:
    """(len(times), 3^N) law of the joint state by dense expm.

    State code = sum_i (s_i + 1) 3^(i-1) with s = -1 removed, 0 susceptible,
    1 infected, urn i = 1..N; this is the code the ensemble CSVs index by.
    """
    if n > 4:
        raise ValueError("dense reference is limited to N <= 4")
    u = nodes(n)
    psi = field_at(model["psi"], u)
    phi = field_at(model["phi"], u)
    lam = kernel_at(model["lam"], u[:, None], u[None, :])
    size = 3 ** n
    digits = (np.arange(size)[:, None] // 3 ** np.arange(n)) % 3
    q = np.zeros((size, size))
    for s in range(size):
        d = digits[s]
        infected = d == 2
        for i in range(n):
            if d[i] == 2:
                q[s, s - 2 * 3 ** i] += psi[i]
            elif d[i] == 1:
                q[s, s + 3 ** i] += lam[i, infected].sum() / n
    q -= np.diag(q.sum(axis=1))
    p0 = np.prod(np.where(digits == 2, phi, np.where(digits == 1, 1 - phi, 0.0)),
                 axis=1)
    return np.array([p0 @ expm(q * t) for t in times])


def infected_indicator_moments(dist: np.ndarray, n: int):
    """(P(I_i), E[I_i I_j]) from a joint law over state codes."""
    digits = (np.arange(3 ** n)[:, None] // 3 ** np.arange(n)) % 3
    ind = (digits == 2).astype(float)
    return dist @ ind, ind.T @ (dist[:, None] * ind)


def pair_covariances(dist: np.ndarray, n: int) -> dict:
    mean, second = infected_indicator_moments(dist, n)
    return {(i + 1, j + 1): second[i, j] - mean[i] * mean[j]
            for i in range(n) for j in range(i + 1, n)}


# ---------------------------------------------------------------------------
# density ODE and homogeneous Lyapunov system


def density(model: dict, m: int, times) -> tuple[np.ndarray, np.ndarray]:
    """(rho1, rho0), each (len(times), M), on the node grid m/M."""
    u = nodes(m)
    psi = field_at(model["psi"], u)
    phi = field_at(model["phi"], u)
    lam = kernel_at(model["lam"], u[:, None], u[None, :]) / m

    def rhs(_t, y):
        r1, r0 = y[:m], y[m:]
        force = lam @ r1
        return np.concatenate([-psi * r1 + r0 * force, -r0 * force])

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(times[-1])), np.concatenate([phi, 1 - phi]),
                    method="DOP853", t_eval=times, rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference density solve failed: {sol.message}")
    return sol.y[:m].T, sol.y[m:].T


def homogeneous(lam0: float, psi0: float, phi0: float, times) -> np.ndarray:
    """(len(times), 5): i, s, Var eta, Cov(eta, beta), Var beta."""

    def rhs(_t, y):
        i, s, c11, c12, c22 = y
        flux = lam0 * i * s
        a = np.array([[lam0 * s - psi0, lam0 * i], [-lam0 * s, -lam0 * i]])
        b = np.array([[psi0 * i + flux, -flux], [-flux, flux]])
        c = np.array([[c11, c12], [c12, c22]])
        dc = a @ c + c @ a.T + b
        return [-psi0 * i + flux, -flux, dc[0, 0], dc[0, 1], dc[1, 1]]

    q = phi0 * (1 - phi0)
    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(times[-1])),
                    [phi0, 1 - phi0, q, -q, q], method="DOP853",
                    t_eval=times, rtol=ODE_RTOL, atol=ODE_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference Lyapunov solve failed: {sol.message}")
    return sol.y.T


# ---------------------------------------------------------------------------
# closed forms


def self_check() -> list[str]:
    """Problems found comparing each reference with a closed form."""
    problems = []
    t = np.array([0.3, 1.0, 2.0])

    # one urn: P(infected at t) = phi e^{-psi t}
    one = {"lam": ("constant", 1.7), "psi": ("affine", (0.4, 0.5)),
           "phi": ("affine", (0.2, 0.3))}
    dist = joint_distribution(one, 1, t)
    exact = 0.5 * np.exp(-0.9 * t)
    if np.max(np.abs(dist[:, 2] - exact)) > 1e-12:
        problems.append("expm reference: one-urn decay mismatch")

    # lambda = 0: pure decay on every node, in the ODE and in the chain
    decay = {"lam": ("constant", 0.0), "psi": ("affine", (0.5, 1.0)),
             "phi": ("affine", (0.1, 0.6))}
    u = nodes(16)
    r1, _ = density(decay, 16, t)
    exact = (0.1 + 0.6 * u) * np.exp(-np.outer(t, 0.5 + u))
    if np.max(np.abs(r1 - exact)) > 1e-10:
        problems.append("density reference: pure-decay mismatch")
    p_inf = np.array([infected_indicator_moments(d, 3)[0]
                      for d in joint_distribution(decay, 3, t)])
    exact = (0.1 + 0.6 * nodes(3)) * np.exp(-np.outer(t, 0.5 + nodes(3)))
    if np.max(np.abs(p_inf - exact)) > 1e-12:
        problems.append("expm reference: pure-decay marginals mismatch")

    # psi = 0, constant lambda: the logistic curve
    logi = {"lam": ("constant", 1.5), "psi": ("constant", 0.0),
            "phi": ("constant", 0.3)}
    r1, _ = density(logi, 8, t)
    e = 0.3 * np.exp(1.5 * t)
    exact = e / (0.7 + e)
    if np.max(np.abs(r1 - exact[:, None])) > 1e-10:
        problems.append("density reference: logistic mismatch")
    h = homogeneous(1.5, 0.0, 0.3, t)
    if np.max(np.abs(h[:, 0] - exact)) > 1e-10:
        problems.append("homogeneous reference: logistic mismatch")

    # lambda = 0, psi = 1: independent decays, Var eta = p (1 - p)
    h = homogeneous(0.0, 1.0, 0.4, t)
    p = 0.4 * np.exp(-t)
    if np.max(np.abs(h[:, 2] - p * (1 - p))) > 1e-10:
        problems.append("homogeneous reference: decay variance mismatch")

    # kernel tables: bilinear interpolation reproduces nodes and planes
    rows = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]]
    grid = np.linspace(0.0, 1.0, 7)
    vals = kernel_at(("table", rows), grid[:, None], grid[None, :])
    if np.max(np.abs(vals - (1 + 2 * grid[:, None] + 2 * grid[None, :]))) > 1e-12:
        problems.append("kernel reference: bilinear plane mismatch")
    if not math.isclose(float(kernel_at(("table", rows), 0.5, 0.0)), 2.0):
        problems.append("kernel reference: node value mismatch")
    return problems
