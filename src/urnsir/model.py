"""Model specification, configurations and initial states.

Urn ``i`` (1-based, as in every external format) sits at site u = i/N and is
stored at array position i-1.  States are encoded -1 = removed, 0 =
susceptible, 1 = infected; an infected urn recovers at rate psi(i/N) and a
susceptible urn is infected at rate (1/N) sum_j lambda(i/N, j/N) over
currently infected j.  One function reads the initial states of one bank
for any list of replicas; :func:`initial_states` and the clock tables'
banks read it, and :func:`sample_initial` is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Kernel, ScalarField, sites
from .streams import DOMAIN_INITIAL, check_replicas, replica_words, uniforms
# derive_rng is not called here; the benchmark's traced run wraps this name
from .streams import derive_rng  # noqa: F401

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
    (degenerate zero rates are admitted for closed-form fixtures), and
    ``phi`` must map into [0, 1].
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


def sample_initial(spec: ModelSpec, seed: int,
                   replica: int = 0) -> Configuration:
    """Independent initial states: urn i infected with probability phi(i/N).

    Deterministic in (seed, replica): the batch of one of
    :func:`initial_states`.
    """
    return Configuration(states=_initial_states(spec, seed, [replica])[0])


def initial_states(spec: ModelSpec, seed: int, replicas) -> np.ndarray:
    """(len(replicas), N) int8 initial states of many replicas.

    Row q equals ``sample_initial(spec, seed, replicas[q]).states``.  The
    words are drawn for about _DRAW_CELLS cells at a time, so the 8-byte
    words and uniforms exist for one chunk of rows, not for the batch.
    """
    replicas = check_replicas(replicas)
    out = np.empty((replicas.size, spec.N), dtype=np.int8)
    step = max(1, _DRAW_CELLS // spec.N)
    for lo in range(0, replicas.size, step):
        out[lo:lo + step] = _initial_states(spec, seed, replicas[lo:lo + step])
    return out


def _initial_states(spec: ModelSpec, seed: int, replicas,
                    bank: int = 1) -> np.ndarray:
    """(len(replicas), N) 0/1 int8 initial states of one bank: urn i is
    infected where the uniform of its word is below phi(i/N)."""
    words = replica_words(seed, replicas, spec.N, DOMAIN_INITIAL, bank)
    return (uniforms(words) < spec.phi_at_sites()).view(np.int8)
