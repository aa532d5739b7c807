"""Replica ensembles with reproducible per-replica streams.

A run is fully determined by (spec, master_seed).  Replica r simulates
with seed ``replica_seed(master_seed, r)`` and writes its own
preallocated slot; every reduction happens afterwards in replica order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import TestFunction
from .gillespie import snapshot_states
from .graphical import ClockTable, state_from_clocks
from .model import INFECTED, SUSCEPTIBLE, ModelSpec
from .rk4 import time_index
from .streams import replica_seed

__all__ = [
    "EnsembleSpec",
    "EnsembleResult",
    "run_ensemble",
    "run_clock_ensemble",
]


@dataclass(frozen=True)
class EnsembleSpec:
    """What to run: model, replica count, master seed, snapshot times."""

    model: ModelSpec
    replicas: int
    master_seed: int
    snapshot_times: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.replicas, (int, np.integer)) or self.replicas < 1:
            raise ValueError("replicas must be a positive integer")
        times = tuple(float(t) for t in self.snapshot_times)
        for t in times:
            if not 0.0 <= t <= self.model.T:
                raise ValueError(f"snapshot time {t} outside [0, T]")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be nondecreasing")
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class EnsembleResult:
    """States of every replica at the snapshot times, plus field helpers."""

    spec: EnsembleSpec
    states: np.ndarray  # (replicas, n_times, N) int8

    def __post_init__(self) -> None:
        expected = (
            self.spec.replicas,
            len(self.spec.snapshot_times),
            self.spec.model.N,
        )
        if self.states.shape != expected:
            raise ValueError(f"states must have shape {expected}")

    @property
    def times(self) -> tuple:
        return self.spec.snapshot_times

    def time_index(self, t: float) -> int:
        return time_index(self.spec.snapshot_times, t)

    def indicator(self, which: int, k: int) -> np.ndarray:
        """(replicas, N) 0/1 array of 1{state == which} at snapshot k."""
        return (self.states[:, k, :] == which).astype(float)

    def mean_indicator(self, which: int, k: int) -> np.ndarray:
        return self.indicator(which, k).mean(axis=0)

    def _pair(self, which: int, k: int, f: TestFunction) -> np.ndarray:
        fv = f.at_sites(self.spec.model.N)
        return self.indicator(which, k) @ fv / self.spec.model.N

    def mu(self, f: TestFunction, k: int) -> np.ndarray:
        """(replicas,) infected empirical field against f at snapshot k."""
        return self._pair(INFECTED, k, f)

    def theta(self, f: TestFunction, k: int) -> np.ndarray:
        return self._pair(SUSCEPTIBLE, k, f)

    def _centered(self, which: int, k: int, f: TestFunction,
                  mean: np.ndarray | None) -> np.ndarray:
        n = self.spec.model.N
        fv = f.at_sites(n)
        ind = self.indicator(which, k)
        center = ind.mean(axis=0) if mean is None else np.asarray(mean, float)
        if center.shape != (n,):
            raise ValueError("mean vector must have one entry per urn")
        return (ind - center) @ fv / np.sqrt(n)

    def eta(self, f: TestFunction, k: int,
            mean: np.ndarray | None = None) -> np.ndarray:
        """sqrt(N)-scaled infected field centered at ensemble means.

        Passing ``mean`` (per-urn infected probabilities) replaces the
        ensemble centering, e.g. with exact small-N values.
        """
        return self._centered(INFECTED, k, f, mean)

    def beta(self, f: TestFunction, k: int,
             mean: np.ndarray | None = None) -> np.ndarray:
        return self._centered(SUSCEPTIBLE, k, f, mean)

    def state_codes(self, k: int) -> np.ndarray:
        """(replicas,) base-3 codes of the joint state; small N only."""
        n = self.spec.model.N
        powers = 3 ** np.arange(n, dtype=np.int64)
        return (self.states[:, k, :].astype(np.int64) + 1) @ powers

    def state_counts(self, k: int) -> np.ndarray:
        """(3^N,) histogram of joint states at snapshot k."""
        n = self.spec.model.N
        return np.bincount(self.state_codes(k), minlength=3 ** n)


def run_ensemble(ens: EnsembleSpec) -> EnsembleResult:
    """Simulate all replicas; deterministic given the master seed."""
    model = ens.model
    times = ens.snapshot_times
    out = np.empty((ens.replicas, len(times), model.N), dtype=np.int8)
    for r in range(ens.replicas):
        out[r] = snapshot_states(model, replica_seed(ens.master_seed, r), times)
    return EnsembleResult(spec=ens, states=out)


def run_clock_ensemble(
    model: ModelSpec, master_seed: int, replicas: int, t: float,
) -> np.ndarray:
    """States at time t from the clock construction, one row per replica.

    Each replica draws its own clock table (bank 1) and evaluates every
    urn's state from the clock-path rule; law should match run_ensemble.
    """
    if not 0.0 <= t <= model.T:
        raise ValueError("t outside [0, T]")
    out = np.empty((replicas, model.N), dtype=np.int8)
    for r in range(replicas):
        clocks = ClockTable(model, replica_seed(master_seed, r))
        initial = clocks.initial_states(bank=1)
        for m in range(1, model.N + 1):
            out[r, m - 1] = state_from_clocks(clocks, initial, m, t)
    return out
