"""Exact transient analysis of the finite chain for small N.

The full configuration space {-1, 0, 1}^N is enumerated by a base-3 index
whose i-th digit (least significant first, one digit per urn, urn i at digit
i-1) is state + 1, i.e. 0 = removed, 1 = susceptible, 2 = infected.  The
generator is assembled as a sparse 3^N x 3^N matrix and transient
distributions come from uniformization

    p(t) = sum_k  Poisson(Lambda t; k) * p(0) P^k,     P = I + Q / Lambda,

with the clean uniformization constant Lambda = N (||psi|| + ||lambda||) and
the Poisson tail truncated below ``TV_TOL`` in total variation.

Everything here is the independent reference ("oracle") that the Monte Carlo
machinery is validated against, so the implementation favors obvious
correctness over speed; N is capped at 10 urns.

scipy is imported where it is used: ``scipy.sparse`` in
:func:`build_generator` and ``scipy.special`` in the Poisson weights of
:func:`transient_distribution`.  ``import urnsir`` therefore loads no scipy;
``validate oracle`` and ``validate cov`` (its exact small-N anchor) load
both at their first generator build and transient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Configuration, ModelSpec

__all__ = [
    "MAX_URNS",
    "CapacityError",
    "state_index",
    "index_state",
    "enumerate_states",
    "GeneratorMatrix",
    "build_generator",
    "initial_distribution",
    "transient_distribution",
    "MomentRecord",
    "moment_report",
]

MAX_URNS = 10
ROW_SUM_TOL = 1e-12
MASS_TOL = 1e-9
TV_TOL = 1e-10  # Poisson tail left out of a transient distribution


class CapacityError(ValueError):
    """The exact oracle is limited to MAX_URNS urns."""


def _check_capacity(n: int) -> int:
    if n > MAX_URNS:
        raise CapacityError(f"exact oracle supports N <= {MAX_URNS}, got {n}")
    return int(n)


def state_index(states: np.ndarray | Configuration) -> int:
    """Base-3 index of a configuration (digit i-1 = state of urn i, + 1)."""
    if isinstance(states, Configuration):
        states = states.states
    arr = np.asarray(states, dtype=np.int64)
    _check_capacity(arr.size)
    digits = arr + 1
    if digits.min() < 0 or digits.max() > 2:
        raise ValueError("states must lie in {-1, 0, 1}")
    return int(digits @ (3 ** np.arange(arr.size, dtype=np.int64)))


def index_state(index: int, n: int) -> np.ndarray:
    """Inverse of :func:`state_index` for an N-urn configuration."""
    _check_capacity(n)
    if not 0 <= index < 3**n:
        raise ValueError("state index out of range")
    digits = (index // 3 ** np.arange(n, dtype=np.int64)) % 3
    return (digits - 1).astype(np.int8)


def enumerate_states(n: int) -> np.ndarray:
    """(3^N, N) matrix of digits (0 removed, 1 susceptible, 2 infected)."""
    _check_capacity(n)
    idx = np.arange(3**n, dtype=np.int64)
    return ((idx[:, None] // 3 ** np.arange(n, dtype=np.int64)) % 3).astype(
        np.int8
    )


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse generator plus the uniformization constant used with it."""

    spec: ModelSpec
    Q: "scipy.sparse.csr_matrix"
    uniformization_rate: float

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]


def build_generator(spec: ModelSpec) -> GeneratorMatrix:
    """Assemble the 3^N x 3^N generator of the jump process."""
    from scipy import sparse

    n = _check_capacity(spec.N)
    digits = enumerate_states(n)
    n_states = digits.shape[0]
    infected = digits == 2
    susceptible = digits == 1
    lam_site = spec.lam.site_matrix(n)
    psi_site = spec.psi_at_sites()

    # Recovery i: digit 2 -> 0 (index shift -2 * 3^(i-1)), rate psi(i/N).
    # Infection i: digit 1 -> 2 (index shift +3^(i-1)), rate = pressure.
    pressure = infected.astype(float) @ lam_site.T / n
    powers = 3 ** np.arange(n, dtype=np.int64)
    state_ids = np.arange(n_states, dtype=np.int64)

    rows, cols, vals = [], [], []
    for i in range(n):
        rec = infected[:, i]
        if rec.any():
            rows.append(state_ids[rec])
            cols.append(state_ids[rec] - 2 * powers[i])
            vals.append(np.full(int(rec.sum()), psi_site[i]))
        inf = susceptible[:, i]
        rate = pressure[inf, i]
        live = rate > 0.0
        if live.any():
            src = state_ids[inf][live]
            rows.append(src)
            cols.append(src + powers[i])
            vals.append(rate[live])

    if rows:
        row = np.concatenate(rows)
        col = np.concatenate(cols)
        val = np.concatenate(vals)
    else:
        row = col = np.empty(0, dtype=np.int64)
        val = np.empty(0)
    off = sparse.coo_matrix(
        (val, (row, col)), shape=(n_states, n_states)
    ).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    q = (off + sparse.diags(diag)).tocsr()

    row_sums = np.abs(np.asarray(q.sum(axis=1)).ravel())
    if row_sums.max() > ROW_SUM_TOL:
        raise AssertionError("generator row sums exceed tolerance")
    rate = n * (spec.psi.sup_norm() + spec.lam.sup_norm())
    return GeneratorMatrix(spec=spec, Q=q, uniformization_rate=rate)


def initial_distribution(spec: ModelSpec) -> np.ndarray:
    """Product law: urn i infected w.p. phi(i/N), else susceptible."""
    n = _check_capacity(spec.N)
    digits = enumerate_states(n)
    phi = spec.phi_at_sites()
    probs = np.where(
        digits == 2, phi, np.where(digits == 1, 1.0 - phi, 0.0)
    )
    return probs.prod(axis=1)


def _poisson_weights(mu: float, tol: float) -> np.ndarray:
    """Poisson(mu) pmf at 0 .. k + 1, k the least with P(> k) <= tol (the
    ``scipy.stats.poisson`` isf and pmf, from the special functions)."""
    from scipy.special import gammaln, pdtr, pdtrik, xlogy

    k = math.ceil(pdtrik(1.0 - tol, mu))
    if k > 0 and pdtr(k - 1, mu) >= 1.0 - tol:
        k -= 1
    ks = np.arange(k + 2)
    return np.exp(xlogy(ks, mu) - gammaln(ks + 1) - mu)


def transient_distribution(
    gen: GeneratorMatrix, p0: np.ndarray, t: float
) -> np.ndarray:
    """Distribution at time t >= 0 by uniformization, TV-accurate to
    TV_TOL."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (gen.n_states,):
        raise ValueError("p0 has the wrong length")
    if abs(p0.sum() - 1.0) > MASS_TOL or p0.min() < 0:
        raise ValueError("p0 must be a probability vector")
    if t < 0 or not np.isfinite(t):
        raise ValueError("t must be finite and >= 0")
    lam = gen.uniformization_rate
    if t == 0.0 or lam == 0.0:
        return p0.copy()

    weights = _poisson_weights(lam * t, TV_TOL)
    out = weights[0] * p0
    v = p0
    inv = 1.0 / lam
    for k in range(1, weights.size):
        v = v + (v @ gen.Q) * inv  # v P with P = I + Q/Lambda
        out = out + weights[k] * v
    total = out.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise AssertionError(f"distribution mass {total} drifted beyond tol")
    return out


@dataclass(frozen=True)
class MomentRecord:
    """One exact product moment E[prod H] and its centered companion.

    ``query`` is a tuple of (urn, which) pairs with urn 1-based and which
    in {0, 1}: 0 for the susceptible indicator, 1 for the infected one.
    ``centered`` is E[prod H] - prod E[H], which for a pair is the
    covariance.
    """

    query: tuple[tuple[int, int], ...]
    expectation: float
    centered: float


def moment_report(
    dist: np.ndarray,
    n: int,
    queries: Iterable[Sequence[tuple[int, int]]],
) -> list[MomentRecord]:
    """Exact product moments of occupation indicators under ``dist``.

    Duplicate urn indices inside one query are rejected: repeated
    indicators are idempotent and a silent answer would mask the caller's
    error.
    """
    digits = enumerate_states(n)
    if dist.shape != (digits.shape[0],):
        raise ValueError("distribution has the wrong length")
    records = []
    for query in queries:
        q = tuple((int(i), int(r)) for i, r in query)
        if not 2 <= len(q) <= 4 and len(q) != 1:
            raise ValueError("queries take 1 to 4 indicators")
        urns = [i for i, _ in q]
        if len(set(urns)) != len(urns):
            raise ValueError(f"duplicate urn in query {q}")
        mask = np.ones(dist.shape[0], dtype=bool)
        singles = 1.0
        for urn, which in q:
            if not 1 <= urn <= n:
                raise ValueError(f"urn {urn} out of range")
            if which not in (0, 1):
                raise ValueError("indicator selector must be 0 or 1")
            ind = digits[:, urn - 1] == (1 if which == 0 else 2)
            mask &= ind
            singles *= float(dist @ ind)
        expectation = float(dist @ mask)
        records.append(
            MomentRecord(
                query=q, expectation=expectation,
                centered=expectation - singles,
            )
        )
    return records
