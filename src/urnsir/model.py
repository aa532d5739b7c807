"""Model specification, configurations, and empirical/fluctuation fields.

Urn ``i`` (1-based, as in every external format) sits at site u = i/N and is
stored at array position i-1.  States are encoded -1 = removed, 0 =
susceptible, 1 = infected; an infected urn recovers at rate psi(i/N) and a
susceptible urn is infected at rate (1/N) sum_j lambda(i/N, j/N) over
currently infected j.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Kernel, ScalarField, TestFunction, sites
from .streams import DOMAIN_INITIAL, derive_rng

__all__ = [
    "ModelSpec",
    "Configuration",
    "sample_initial",
    "empirical_fields",
    "fluctuation_fields",
    "REMOVED",
    "SUSCEPTIBLE",
    "INFECTED",
]

REMOVED, SUSCEPTIBLE, INFECTED = -1, 0, 1


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

    def infected_indicator(self) -> np.ndarray:
        return (self.states == INFECTED).astype(float)

    def susceptible_indicator(self) -> np.ndarray:
        return (self.states == SUSCEPTIBLE).astype(float)


def sample_initial(spec: ModelSpec, seed: int) -> Configuration:
    """Independent initial states: urn i infected with probability phi(i/N).

    Deterministic in ``seed``; uses the (seed, initial-domain, bank=1)
    stream, which is also bank 1 of the clock-table initial banks.
    """
    rng = derive_rng(seed, DOMAIN_INITIAL, 1)
    u = rng.random(spec.N)
    states = (u < spec.phi_at_sites()).astype(np.int8)
    return Configuration(states=states, time=0.0)


def empirical_fields(
    config: Configuration, f: TestFunction
) -> tuple[float, float]:
    """(mu, theta): infected and susceptible empirical fields against f.

    mu = (1/N) sum over infected urns of f(i/N), theta the same over
    susceptible urns.
    """
    fv = f.at_sites(config.n)
    mu = float(config.infected_indicator() @ fv) / config.n
    theta = float(config.susceptible_indicator() @ fv) / config.n
    return mu, theta


def fluctuation_fields(
    config: Configuration,
    mean_infected: np.ndarray,
    mean_susceptible: np.ndarray,
    f: TestFunction,
) -> tuple[float, float]:
    """(eta, beta): sqrt(N)-scaled centered fields against f.

    eta = (1/sqrt(N)) sum_i (1{xi(i)=1} - mean_infected[i]) f(i/N) and beta
    the susceptible analogue.  The centering vectors are the caller's
    estimate (or exact value) of the per-urn occupation probabilities.
    """
    n = config.n
    mean_infected = np.asarray(mean_infected, dtype=float)
    mean_susceptible = np.asarray(mean_susceptible, dtype=float)
    if mean_infected.shape != (n,) or mean_susceptible.shape != (n,):
        raise ValueError("centering vectors must have one entry per urn")
    fv = f.at_sites(n)
    root = np.sqrt(n)
    eta = float((config.infected_indicator() - mean_infected) @ fv) / root
    beta = float((config.susceptible_indicator() - mean_susceptible) @ fv) / root
    return eta, beta
