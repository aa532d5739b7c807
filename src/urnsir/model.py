"""Model specification, configurations and initial states.

Urn ``i`` (1-based, as in every external format) sits at site u = i/N and is
stored at array position i-1.  States are encoded -1 = removed, 0 =
susceptible, 1 = infected; an infected urn recovers at rate psi(i/N) and a
susceptible urn is infected at rate (1/N) sum_j lambda(i/N, j/N) over
currently infected j.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Kernel, ScalarField, sites
from .streams import DOMAIN_INITIAL, derive_rng, replica_words, uniforms

__all__ = [
    "ModelSpec",
    "Configuration",
    "sample_initial",
    "initial_states",
    "REMOVED",
    "SUSCEPTIBLE",
    "INFECTED",
]

REMOVED, SUSCEPTIBLE, INFECTED = -1, 0, 1
_DRAW_CELLS = 1 << 15  # replica-urn cells per draw of initial_states


@dataclass(frozen=True)
class ModelSpec:
    """Complete description of one finite-N model.

    ``lam`` is the infection kernel, ``psi`` the recovery-rate profile,
    ``phi`` the initial infection profile.  Rates are validated nonnegative
    (degenerate zero rates are admitted for closed-form fixtures; the
    strictly positive regime of the limit theory can be asserted with
    :meth:`require_positive_rates`), and ``phi`` must map into [0, 1].
    """

    lam: Kernel
    psi: ScalarField
    phi: ScalarField
    N: int
    T: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError("N must be an integer >= 1")
        object.__setattr__(self, "N", int(self.N))
        t = float(self.T)
        if not np.isfinite(t) or t < 0.0:
            raise ValueError("T must be finite and >= 0")
        object.__setattr__(self, "T", t)
        if self.phi.min_value() < 0.0 or self.phi.max_value() > 1.0:
            raise ValueError("phi must take values in [0, 1]")
        if self.psi.min_value() < 0.0:
            raise ValueError("psi must be nonnegative")
        if self.lam.min_value() < 0.0:
            raise ValueError("lambda must be nonnegative")

    def require_positive_rates(self) -> None:
        """Raise unless psi and lambda are strictly positive everywhere."""
        if self.psi.min_value() <= 0.0:
            raise ValueError("psi must be strictly positive for this use")
        if self.lam.min_value() <= 0.0:
            raise ValueError("lambda must be strictly positive for this use")

    def with_n(self, n: int) -> "ModelSpec":
        return replace(self, N=n)

    def sites(self) -> np.ndarray:
        return sites(self.N)

    def psi_at_sites(self) -> np.ndarray:
        return self.psi.at_sites(self.N)

    def phi_at_sites(self) -> np.ndarray:
        return self.phi.at_sites(self.N)


@dataclass(frozen=True)
class Configuration:
    """One state vector xi in {-1, 0, 1}^N at a given time.

    The dataclass is frozen but numpy arrays are not; treat ``states`` as
    read-only once constructed.
    """

    states: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.states, dtype=np.int8)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("states must be a nonempty vector")
        if arr.min() < -1 or arr.max() > 1:
            raise ValueError("states must lie in {-1, 0, 1}")
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "time", float(self.time))

    @property
    def n(self) -> int:
        return self.states.size

    def counts(self) -> tuple[int, int, int]:
        """(#susceptible, #infected, #removed)."""
        s = int(np.count_nonzero(self.states == SUSCEPTIBLE))
        i = int(np.count_nonzero(self.states == INFECTED))
        return s, i, self.n - s - i


def sample_initial(spec: ModelSpec, seed: int,
                   replica: int = 0) -> Configuration:
    """Independent initial states: urn i infected with probability phi(i/N).

    Deterministic in (seed, replica); uses the (initial-domain, bank 1)
    stream, which is also bank 1 of the clock-table initial banks.
    """
    rng = derive_rng(seed, DOMAIN_INITIAL, 1, replica=replica)
    u = rng.random(spec.N)
    states = (u < spec.phi_at_sites()).astype(np.int8)
    return Configuration(states=states, time=0.0)


def initial_states(spec: ModelSpec, seed: int, replicas) -> np.ndarray:
    """(len(replicas), N) int8 initial states of many replicas.

    Row q equals ``sample_initial(spec, seed, replicas[q]).states``.  The
    words are drawn for about _DRAW_CELLS cells at a time, so the 8-byte
    words and uniforms exist for one chunk of rows, not for the batch.
    """
    replicas = np.asarray(replicas).reshape(-1)
    phi = spec.phi_at_sites()
    out = np.empty((replicas.size, spec.N), dtype=np.int8)
    step = max(1, _DRAW_CELLS // spec.N)
    for lo in range(0, replicas.size, step):
        words = replica_words(seed, replicas[lo:lo + step], spec.N,
                              DOMAIN_INITIAL, 1)
        np.less(uniforms(words), phi, out=out[lo:lo + step])
    return out
