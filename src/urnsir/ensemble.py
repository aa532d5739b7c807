"""Replica ensembles: all replicas of (spec, master_seed) at once.

A run is fully determined by (spec, master_seed).  Replica r draws from the
streams keyed (master_seed, r), so its rows equal the single trajectory
``snapshot_states(spec, master_seed, times, replica=r)`` bit for bit and
growing an ensemble keeps every existing replica.  ``run_ensemble`` steps
batches of replicas in lockstep and ``run_clock_ensemble`` evaluates the
clock tables of a batch at once; a batch holds at most ``BATCH_CELLS``
replica-urn state cells (replica-urn-urn cells for clock tables).  What a
cell costs depends on the engine:

* constant rates: a 4-byte (int32) urn permutation, plus, while a
  snapshot is read, a copy of it for the rows read and three 1-byte
  temporaries;
* general rates: 16 bytes (float infected and susceptible indicators),
  and from ``gillespie.BLOCKED_FROM`` urns 8 (r + 1) more for the rate
  terms of a rank-r kernel (twice that while they are built);
* clock tables: 8 bytes of path cost per replica-urn-urn cell, and 8 more
  in each relaxation round.

The initial states of a batch are drawn in chunks of
``model._DRAW_CELLS`` cells.  The snapshots of all replicas take one byte
per cell and snapshot time.  Reductions happen afterwards in replica order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import TestFunction
from .gillespie import _check_snapshot_times, lockstep_states, snapshot_states
from .graphical import clock_states, state_from_clocks
from .model import INFECTED, SUSCEPTIBLE, ModelSpec

__all__ = [
    "EnsembleSpec",
    "EnsembleResult",
    "run_ensemble",
    "run_clock_ensemble",
    # one replica of either ensemble, re-exported
    "snapshot_states",
    "state_from_clocks",
]

BATCH_CELLS = 1 << 19


def _check_replica_count(replicas) -> None:
    if (not isinstance(replicas, (int, np.integer))
            or isinstance(replicas, bool) or replicas < 1):
        raise ValueError("replicas must be a positive integer")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to run: model, replica count, master seed, snapshot times
    (by :func:`snapshot_states`'s rule: in [0, T] and nondecreasing)."""

    model: ModelSpec
    replicas: int
    master_seed: int
    snapshot_times: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check_replica_count(self.replicas)
        times = _check_snapshot_times(self.model, self.snapshot_times)
        object.__setattr__(self, "snapshot_times", tuple(times.tolist()))


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

    def _centered(self, which: int, k: int, f: TestFunction) -> np.ndarray:
        n = self.spec.model.N
        ind = self.indicator(which, k)
        return (ind - ind.mean(axis=0)) @ f.at_sites(n) / np.sqrt(n)

    def eta(self, f: TestFunction, k: int) -> np.ndarray:
        """sqrt(N)-scaled infected field centered at ensemble means."""
        return self._centered(INFECTED, k, f)

    def beta(self, f: TestFunction, k: int) -> np.ndarray:
        return self._centered(SUSCEPTIBLE, k, f)

    def state_codes(self, k: int) -> np.ndarray:
        """(replicas,) base-3 codes of the joint state; small N only."""
        n = self.spec.model.N
        powers = 3 ** np.arange(n, dtype=np.int64)
        return (self.states[:, k, :].astype(np.int64) + 1) @ powers

    def state_counts(self, k: int) -> np.ndarray:
        """(3^N,) histogram of joint states at snapshot k."""
        n = self.spec.model.N
        return np.bincount(self.state_codes(k), minlength=3 ** n)


def _batches(replicas: int, cells_per_replica: int):
    size = max(1, BATCH_CELLS // cells_per_replica)
    for lo in range(0, replicas, size):
        yield lo, np.arange(lo, min(replicas, lo + size))


def run_ensemble(ens: EnsembleSpec) -> EnsembleResult:
    """Simulate all replicas in lockstep; deterministic given the master seed."""
    model = ens.model
    times = ens.snapshot_times
    out = np.empty((ens.replicas, len(times), model.N), dtype=np.int8)
    for lo, rows in _batches(ens.replicas, model.N):
        out[lo:lo + rows.size] = lockstep_states(
            model, ens.master_seed, rows, times
        )
    return EnsembleResult(spec=ens, states=out)


def run_clock_ensemble(
    model: ModelSpec, master_seed: int, replicas: int, t: float,
) -> np.ndarray:
    """States at time t from the clock construction, one row per replica.

    Replica r uses the bank-1 clock table of (master_seed, r), whose initial
    states are those of replica r of run_ensemble; the law should match
    run_ensemble's.
    """
    if not 0.0 <= t <= model.T:
        raise ValueError("t outside [0, T]")
    out = np.empty((replicas, model.N), dtype=np.int8)
    for lo, rows in _batches(replicas, model.N ** 2):
        out[lo:lo + rows.size] = clock_states(model, master_seed, rows, t)
    return out
