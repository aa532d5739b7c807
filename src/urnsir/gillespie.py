"""Exact event-by-event simulation of the finite-N jump process.

The simulator draws the next event by a single uniform over the cumulative
per-urn rate array: an infected urn i carries rate psi(i/N), a susceptible
urn carries its infection pressure (1/N) sum_j lambda(i/N, j/N) over
infected j, a removed urn carries rate 0.  The pressure is recomputed
exactly at every event from the kernel's rank-r site factors,
left @ (infected @ right) / N, at O(N r) per event; no N x N matrix is
built, so nothing drifts and an urn on which lambda vanishes has rate
exactly 0.

When both the kernel and the recovery rate are constants, urn identity does
not affect rates and the engine switches to an O(1)-per-event membership
list scheme.  The engine choice is a deterministic function of the model
spec, so the contract "same (spec, seed) -> same trajectory" always holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .csvout import write_time_rows
from .model import (
    Configuration,
    INFECTED,
    ModelSpec,
    REMOVED,
    SUSCEPTIBLE,
    sample_initial,
)
from .streams import DOMAIN_SIMULATION, derive_rng

__all__ = [
    "RECOVERY",
    "INFECTION",
    "Trajectory",
    "Simulation",
    "simulate",
    "snapshot_states",
    "replay",
    "write_events_ndjson",
    "write_snapshots_csv",
]

RECOVERY, INFECTION = 0, 1
_EVENT_DTYPE = np.dtype(
    [("time", "f8"), ("kind", "i1"), ("urn", "i4"), ("source", "i4")]
)


@dataclass(frozen=True)
class Trajectory:
    """Initial configuration, ordered events, and requested snapshots.

    ``events`` is one structured array with fields ``time``, ``kind``
    (RECOVERY or INFECTION), ``urn`` and ``source``; urns are 1-based and
    ``source`` is 0 exactly for recoveries.  A list of (time, kind, urn,
    source) tuples is converted.  ``snapshots`` is the
    (len(snapshot_times), N) int8 state matrix at ``snapshot_times``.
    """

    spec: ModelSpec
    seed: int
    initial: Configuration
    events: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray

    def __post_init__(self) -> None:
        ev = np.asarray(self.events, dtype=_EVENT_DTYPE)
        times = np.asarray(self.snapshot_times, dtype=float)
        snaps = np.asarray(self.snapshots, dtype=np.int8)
        if snaps.shape != (times.size, self.spec.N):
            raise ValueError("snapshots must hold one row per snapshot time")
        kind = ev["kind"]
        if ev.size and (kind.min() < RECOVERY or kind.max() > INFECTION):
            raise ValueError("unknown event kind")
        if np.any((ev["source"] != 0) != (kind == INFECTION)):
            raise ValueError("source is required exactly for infections")
        if np.any(np.diff(ev["time"]) <= 0.0):
            raise ValueError("event times must be strictly increasing")
        if ev.size and ev["time"][0] <= self.initial.time:
            raise ValueError("events must happen after the initial time")
        object.__setattr__(self, "events", ev)
        object.__setattr__(self, "snapshot_times", times)
        object.__setattr__(self, "snapshots", snaps)


class Simulation:
    """Mutable simulation state advancing one event per :meth:`step`."""

    def __init__(self, spec: ModelSpec, seed: int):
        self.spec = spec
        self.seed = int(seed)
        self.initial = sample_initial(spec, seed)
        self.states = self.initial.states.copy()
        self.time = 0.0
        self.absorbed = False
        self.rng = derive_rng(seed, DOMAIN_SIMULATION)
        self._lam0 = spec.lam.constant_value()
        self._psi0 = spec.psi.constant_value()
        self._uniform = self._lam0 is not None and self._psi0 is not None
        if self._uniform:
            self._init_uniform()
        else:
            self._init_general()

    # -- constant-rate path -------------------------------------------------

    def _init_uniform(self) -> None:
        n = self.spec.N
        # membership lists: group 0 susceptibles, group 1 infected
        self._members = np.empty((2, n), dtype=np.int64)
        self._counts = [0, 0]
        self._slot = np.full(n, -1, dtype=np.int64)
        for idx in range(n):
            st = self.states[idx]
            if st != REMOVED:
                self._enlist(0 if st == SUSCEPTIBLE else 1, idx)

    def _enlist(self, group: int, idx: int) -> None:
        pos = self._counts[group]
        self._members[group, pos] = idx
        self._slot[idx] = pos
        self._counts[group] += 1

    def _delist(self, group: int, idx: int) -> None:
        pos = self._slot[idx]
        last = self._counts[group] - 1
        mover = self._members[group, last]
        self._members[group, pos] = mover
        self._slot[mover] = pos
        self._counts[group] = last
        self._slot[idx] = -1

    def _step_uniform(self):
        n_sus, n_inf = self._counts
        total_rec = self._psi0 * n_inf
        pressure = self._lam0 * n_inf / self.spec.N
        total = total_rec + pressure * n_sus
        if total <= 0.0:
            self.absorbed = True
            return None
        self.time += self.rng.exponential() / total
        u = self.rng.random() * total
        if u < total_rec:
            k = min(int(u / self._psi0), n_inf - 1)
            idx = int(self._members[1, k])
            self._delist(1, idx)
            self.states[idx] = REMOVED
            return self.time, RECOVERY, idx, -1
        k = min(int((u - total_rec) / pressure), n_sus - 1)
        idx = int(self._members[0, k])
        j = min(int(self.rng.random() * n_inf), n_inf - 1)
        src = int(self._members[1, j])
        self._delist(0, idx)
        self._enlist(1, idx)
        self.states[idx] = INFECTED
        return self.time, INFECTION, idx, src

    # -- general path -------------------------------------------------------

    def _init_general(self) -> None:
        n = self.spec.N
        self._psi_sites = self.spec.psi.at_sites(n)
        left, right = self.spec.lam.factors(n)
        self._left = left / n
        self._right = right

    def _step_general(self):
        inf_mask = self.states == INFECTED
        pressure = self._left.dot(inf_mask.dot(self._right))
        rates = np.where(
            inf_mask,
            self._psi_sites,
            np.where(self.states == SUSCEPTIBLE, pressure, 0.0),
        )
        cum = np.cumsum(rates)
        total = cum[-1]
        if total <= 0.0:
            self.absorbed = True
            return None
        n = self.spec.N
        self.time += self.rng.exponential() / total
        u = self.rng.random() * total
        idx = min(int(np.searchsorted(cum, u, side="right")), n - 1)
        if self.states[idx] == INFECTED:
            self.states[idx] = REMOVED
            return self.time, RECOVERY, idx, -1
        weights = np.cumsum(self._right.dot(self._left[idx]) * inf_mask)
        src = min(
            int(np.searchsorted(
                weights, self.rng.random() * weights[-1], side="right"
            )),
            n - 1,
        )
        self.states[idx] = INFECTED
        return self.time, INFECTION, idx, src

    def step(self):
        """Advance one event; returns (time, kind, urn_idx, source_idx) with
        0-based indices (source -1 for recoveries), or None once absorbed."""
        if self.absorbed:
            return None
        return self._step_uniform() if self._uniform else self._step_general()


def _check_snapshot_times(spec: ModelSpec, snapshot_times) -> np.ndarray:
    times = np.asarray(sorted(float(t) for t in snapshot_times), dtype=float)
    if times.size and (times[0] < 0.0 or times[-1] > spec.T + 1e-12):
        raise ValueError("snapshot times must lie in [0, T]")
    return times


def _run(sim: Simulation, times: np.ndarray, log: list | None) -> np.ndarray:
    """Step ``sim`` and return its (len(times), N) states at ``times``.

    The one snapshot rule: a snapshot at tau shows every event with time
    <= tau.  With ``log`` every event up to T is appended to it as the
    engine's (time, kind, idx, src) tuple and stepping runs to T or
    absorption; without it stepping stops once the last row is filled.
    """
    horizon = sim.spec.T
    out = np.empty((times.size, sim.spec.N), dtype=np.int8)
    k = 0
    while k < times.size or log is not None:
        nxt = sim.step()
        if nxt is None:
            break
        t, kind, idx, _ = nxt
        if t > horizon or (k < times.size and times[k] < t):
            # sim.states is already post-event; undo the single change
            pre = sim.states.copy()
            pre[idx] = INFECTED if kind == RECOVERY else SUSCEPTIBLE
            if t > horizon:
                out[k:] = pre
                return out
            while k < times.size and times[k] < t:
                out[k] = pre
                k += 1
        if log is not None:
            log.append(nxt)
    out[k:] = sim.states
    return out


def simulate(spec: ModelSpec, seed: int, snapshot_times=()) -> Trajectory:
    """Run one trajectory on [0, T]; deterministic in (spec, seed).

    A snapshot at time tau reflects all events with time <= tau.  Events
    after the horizon T are discarded.
    """
    times = _check_snapshot_times(spec, snapshot_times)
    sim = Simulation(spec, seed)
    log: list = []
    snapshots = _run(sim, times, log)
    events = np.array(log, dtype=_EVENT_DTYPE)
    events["urn"] += 1
    events["source"] += 1
    return Trajectory(
        spec=spec,
        seed=int(seed),
        initial=sim.initial,
        events=events,
        snapshot_times=times,
        snapshots=snapshots,
    )


def snapshot_states(spec: ModelSpec, seed: int, times) -> np.ndarray:
    """State matrix (len(times), N) without an event log.

    Same engine, draw order and stepping loop as :func:`simulate`, so rows
    agree with the trajectory snapshots bit for bit; used by ensemble runs
    where event logs would dominate memory.  Stepping stops once the last
    row is filled, so a snapshot at t < T does not pay for the rest of
    [0, T].
    """
    times = _check_snapshot_times(spec, times)
    return _run(Simulation(spec, seed), times, None)


def replay(trajectory: Trajectory, times) -> np.ndarray:
    """States (len(times), N) at the sorted times, replaying event by event."""
    times = sorted(float(t) for t in times)
    states = trajectory.initial.states.copy()
    out = np.empty((len(times), states.size), dtype=np.int8)
    events = iter(trajectory.events.tolist())
    ev = next(events, None)
    for k, t in enumerate(times):
        while ev is not None and ev[0] <= t:
            _, kind, urn, _ = ev
            states[urn - 1] = REMOVED if kind == RECOVERY else INFECTED
            ev = next(events, None)
        out[k] = states
    return out


def write_events_ndjson(trajectory: Trajectory, path) -> None:
    """One JSON object per line: {"t", "kind", "urn", "source"}."""
    names = ("recovery", "infection")
    with open(path, "w") as fh:
        for t, kind, urn, source in trajectory.events.tolist():
            fh.write(
                json.dumps(
                    {"t": t, "kind": names[kind], "urn": urn,
                     "source": source or None}
                )
                + "\n"
            )


def write_snapshots_csv(trajectory: Trajectory, path) -> None:
    """Rows time, urn, state for every snapshot and urn."""
    cells = [f"{urn},%d" for urn in range(1, trajectory.spec.N + 1)]
    blocks = zip(trajectory.snapshot_times.tolist(), trajectory.snapshots)
    write_time_rows(path, ("time", "urn", "state"), cells, blocks)
