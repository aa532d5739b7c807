"""Exact event-by-event simulation of the finite-N jump process.

The simulator draws the next event by a single uniform over the cumulative
per-urn rate array, in urn order: an infected urn i carries rate
psi(i/N), a susceptible urn carries its infection pressure
(1/N) sum_j lambda(i/N, j/N) over infected j, a removed urn carries rate
0.  The pressure comes from the kernel's rank-r site factors,
left @ (infected @ right) / N; no N x N matrix is built, so an urn on
which lambda vanishes has rate exactly 0.

Below N = BLOCKED_FROM the rates of all N urns are built and prefix-summed
at every event, at O(N r).  From BLOCKED_FROM on, the urn axis is split
into blocks of about sqrt(N) urns (the last one padded with zero-rate
sites), and each row keeps per block the sums of its urns' rate terms,
(left / N) . susceptible (r of them) and psi . infected.  They are
recomputed from the block's urns after every event, so they are exact
functions of the state and nothing drifts.  The uniform is then inverted
in two steps, still in urn order: a block, from the running sum of the
block rates (c, 1) . sums with c = infected @ right; then an urn, from the
running sum of the rates inside that block.  An event costs O(N r)
multiply-adds for c and O(sqrt(N) r) for the rest.  The rule is the same
either way; the urn can differ only where the uniform falls within
rounding of a block edge.

When both the kernel and the recovery rate are constants, urn identity does
not affect rates and the engine switches to an O(1)-per-event scheme: each
row keeps its urns in three runs (susceptible, infected, removed) and an
event takes the k-th urn of a run.  The engine choice is a deterministic
function of the model spec.

One engine steps any number of replicas of (spec, seed) in lockstep, one
event each per step, in one loop that shows each event to an optional
visitor (an event log, the Dynkin sums) before applying it; the visitor
can also read each row's last event time and the pressure factor of the
proposal from the engine.  Replica r's draws come from the streams keyed
(seed, r) (see :mod:`urnsir.streams`): its initial states from the
initial-state stream, event s from block s + 1 of its simulation
stream, read through :func:`urnsir.streams.replica_words` for every
batch.  The arithmetic of a row does not depend on the other rows, so
:func:`simulate` and :func:`snapshot_states`, the batch of one, give
replica r of an ensemble bit for bit; all three take the same snapshot
times, finite, in [0, T] and nondecreasing.  :class:`Simulation` only
builds that batch of one (the replica's initial configuration and its
engine) and has no stepping API: :func:`_run` is the one stepping loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .csvout import write_time_rows
from .model import (
    Configuration,
    INFECTED,
    ModelSpec,
    REMOVED,
    SUSCEPTIBLE,
    initial_states,
    sample_initial,
)
from .streams import (
    CHUNK,
    DOMAIN_SIMULATION,
    check_replicas,
    exponentials,
    replica_words,
    uniforms,
)
# derive_rng is not called here; the benchmark's traced run wraps this name
from .streams import derive_rng  # noqa: F401

__all__ = [
    "RECOVERY",
    "INFECTION",
    "Trajectory",
    "Simulation",
    "simulate",
    "snapshot_states",
    "lockstep_states",
    "write_events_ndjson",
    "write_snapshots_csv",
]

RECOVERY, INFECTION = 0, 1
# the general engine's two-level selection starts at this N (measured
# crossover, BENCH_14.json); below it one block holds every urn
BLOCKED_FROM = 400
# change of (susceptible, infected) counts: an infection, a recovery
_GROUP_MOVES = np.array([[-1.0, 1.0], [0.0, -1.0]])
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


def _search(cum: np.ndarray, pos) -> np.ndarray:
    """Per row, the first index whose running sum exceeds pos, at most N - 1.

    ``searchsorted(row, pos, side="right")`` on each nondecreasing row,
    clamped to the last index: the first hit of one comparison along the
    urn axis, for one row or a batch.
    """
    hit = cum > pos[..., None]
    hit[..., -1] = True
    return hit.argmax(axis=-1)


def _search_block(run: np.ndarray, pos) -> np.ndarray:
    """Per row, the first index whose running sum exceeds pos.

    When rounding leaves every running sum at or below pos (the block sums
    put pos in this block, the running sum of its urns ends just short of
    it), the first index whose running sum reaches the row's total: the
    last urn of positive rate, never a trailing zero-rate or padded site.
    """
    hit = run > pos[..., None]
    hit |= run >= run[..., -1:]
    return hit.argmax(axis=-1)


def block_size(n: int) -> int:
    """Urns per block of the general engine: ceil(sqrt(N)), or N below
    BLOCKED_FROM (one block, no block bookkeeping)."""
    return n if n < BLOCKED_FROM else math.isqrt(n - 1) + 1


class _Engine:
    """Jump chains of a batch of replicas of one model, stepped in lockstep.

    ``replicas`` is an array of R replica numbers, or one replica number
    for a single trajectory, and ``states`` their (R, N) initial rows
    (R = 1 for one).  The bookkeeping is (R, N) arrays either way; every
    step reads the rows through ``[:]`` for a batch and ``[0]`` for one
    replica, so the same code gives per-row values as (R,) arrays or as
    numpy scalars.  No arithmetic mixes rows, so a replica's trajectory
    does not depend on the batch it is stepped in.

    Every row advances one event per step, so all rows sit at the same
    event count, and step s reads block s + 1 of each row's simulation
    stream: the holding time from word 0, the target from word 1 and the
    infection source from word 2.  Every batch, the batch of one
    included, reads its streams through :func:`urnsir.streams.replica_words`,
    the words of many events per call.

    ``time`` holds each row's last event time and ``c`` its pressure factor
    at the last proposal, infected @ right (n_inf at constant rates).
    """

    def __init__(self, spec: ModelSpec, seed: int, replicas, states):
        self.spec = spec
        self.seed = int(seed)
        one = np.ndim(replicas) == 0
        self.replicas = np.atleast_1d(np.asarray(replicas, dtype=np.uint64))
        states = np.asarray(states, dtype=np.int8)
        if (self.replicas.ndim != 1
                or states.shape != (self.replicas.size, spec.N)):
            raise ValueError("need one state row per replica")
        self.steps = 0
        if one:
            # numpy scalars, not (1,) rows: fancy indexing with (1,) arrays
            # costs more than scalar indexing (a table model at N = 400
            # went from 32 to 51-98 us per event)
            self._view = self._ix = 0
        else:
            self._view = slice(None)
            self._ix = np.arange(self.replicas.size)
        self.time = np.zeros(self.replicas.size)[self._view]
        self._pos = self._size = 0
        lam0 = spec.lam.constant_value()
        psi0 = spec.psi.constant_value()
        self.uniform = lam0 is not None and psi0 is not None
        if self.uniform:
            self._init_uniform(states, lam0, psi0)
            self._propose, self._move, self.source, self.states_of = (
                self._propose_uniform, self._move_uniform,
                self._source_uniform, self._states_uniform)
        else:
            self._init_general(states)
            blocked = self._blocks > 1
            self._propose, self._move, self.source, self.states_of = (
                self._propose_blocked if blocked else self._propose_general,
                self._move_blocked if blocked else self._move_general,
                self._source_general, self._states_general)

    def _draw(self):
        """This step's exponential and uniforms (target, source, unused)."""
        if self._pos == self._size:
            # no replica makes more than 2N events, plus one past T
            blocks = max(1, min(CHUNK // self.replicas.size,
                                2 * self.spec.N + 1 - self.steps))
            words = replica_words(
                self.seed, self.replicas, 4 * blocks, DOMAIN_SIMULATION,
                first_block=self.steps + 1,
            ).reshape(self.replicas.size, blocks, 4)
            self._exp = exponentials(words[..., 0])
            self._uni = uniforms(words[..., 1:])
            self._pos, self._size = 0, blocks
        pos = self._pos
        self._pos += 1
        self.steps += 1
        return self._exp[self._view, pos], self._uni[self._view, pos]

    def propose(self):
        """Every row's next event, not yet applied: (time, urn, recovery, u).

        Urns are 0-based.  The time is infinite for a row with no event
        left (absorbed); it divides by a total rate of 0, so the caller
        silences that warning.  ``u`` is the event's source uniform:
        :meth:`source` turns it into the infector of one replica's
        infection, before the event is applied.  The states do not depend
        on it.
        """
        exp, uni = self._draw()
        return (*self._propose(exp, uni), uni.T[1])

    def apply(self, time, urn, recovery) -> None:
        """Apply the event just proposed to every row."""
        self._move(urn, recovery)
        self.time = time

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows of a batch where ``mask`` is False."""
        self.replicas = self.replicas[mask]
        self.time = self.time[mask]
        self._ix = np.arange(self.replicas.size)
        self._exp = self._exp[mask]
        self._uni = self._uni[mask]
        if self.uniform:
            self._perm = self._perm[mask]
            self._counts = self._counts[mask]
        else:
            self._inf = self._inf[mask]
            self._sus = self._sus[mask]
            if self._blocks > 1:
                self._terms = self._terms[mask]
                self._sums = self._sums[mask]
                self._coef = self._coef[mask]
                self._cum = self._cum[mask]

    # -- constant-rate path -------------------------------------------------

    def _init_uniform(self, states, lam0: float, psi0: float) -> None:
        self._lam0, self._psi0 = lam0, psi0
        # each row's urns in three runs, susceptible, infected, removed
        # (each in urn order at the start), and the sizes of the first two;
        # int32 urn numbers, copied whole each time a row retires, sorted
        # about CHUNK cells at a time so argsort's int64 result stays small
        group = np.where(states == REMOVED, 2, states)
        self._perm = np.empty(group.shape, dtype=np.int32)
        step = max(1, CHUNK // self.spec.N)
        for lo in range(0, len(group), step):
            self._perm[lo:lo + step] = np.argsort(group[lo:lo + step], axis=1,
                                                  kind="stable")
        self._counts = np.stack([(group == 0).sum(axis=1),
                                 (group == 1).sum(axis=1)], axis=1) * 1.0

    def _states_uniform(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), N) int8 states of the given rows (0-based)."""
        # each place of a row's runs gets its run's code, int8 throughout,
        # and the urn at that place takes it
        n_sus, n_inf = self._counts[rows].T[:, :, None]
        place = np.arange(self.spec.N)
        codes = np.where(place < n_sus, np.int8(SUSCEPTIBLE),
                         np.where(place < n_sus + n_inf, np.int8(INFECTED),
                                  np.int8(REMOVED)))
        out = np.empty_like(codes)
        np.put_along_axis(out, self._perm[rows], codes, axis=1)
        return out

    def _propose_uniform(self, exp, uni):
        n_sus, n_inf = self._counts[self._view].T
        total_rec = self._psi0 * n_inf
        pressure = self._lam0 * n_inf / self.spec.N
        total = total_rec + pressure * n_sus
        self.c = self._counts[self._view, 1:]
        u = uni.T[0] * total
        recovery = u < total_rec
        # a recovery takes the k-th infected urn, k = u / psi, an infection
        # the k-th susceptible one, k = (u - total_rec) / pressure; rounding
        # can reach a run's length but not pass it, and an absorbed row
        # (0 / 0) gets the last place of its run
        k = np.where(recovery, u, u - total_rec)
        k /= np.where(recovery, self._psi0, pressure)
        last = np.where(recovery, n_inf, n_sus) - 1.0
        start = n_sus * recovery
        # apply swaps the urn to the end of its run, which then shrinks
        slot = (np.fmin(k, last) + start).astype(np.intp)
        self._swap = slot, (last + start).astype(np.intp)
        urn = self._perm[self._ix, slot]
        return self.time + exp / total, urn, recovery

    def _move_uniform(self, urn, recovery) -> None:
        ix, (slot, last) = self._ix, self._swap
        self._perm[ix, slot] = self._perm[ix, last]
        self._perm[ix, last] = urn
        self._counts[self._view] += _GROUP_MOVES[recovery.astype(np.intp)]

    def _source_uniform(self, urn, u):
        # the k-th infected urn, k = u * n_inf: every infected urn has the
        # same weight lambda
        n_sus, n_inf = self._counts[self._view].T
        j = np.fmin(u * n_inf, n_inf - 1.0) + n_sus
        return self._perm[self._ix, j.astype(np.intp)]

    # -- general path -------------------------------------------------------

    def _init_general(self, states) -> None:
        n = self.spec.N
        left, right = self.spec.lam.factors(n)
        self._psi_sites = self.spec.psi.at_sites(n)
        self._left_t = np.ascontiguousarray((left / n).T)
        self._right_t = np.ascontiguousarray(right.T)
        self._inf = (states == INFECTED).astype(float)
        self._sus = (states == SUSCEPTIBLE).astype(float)
        self._per_block = block_size(n)
        self._blocks = -(-n // self._per_block)
        if self._blocks == 1:
            return
        # per urn, the terms of its rate: (left / N) . sus in rows 0 .. r-1
        # and psi . inf in row r, so that the rate is coef . terms with
        # coef = (inf @ right, 1); blocks of _per_block urns, the last one
        # padded with zero-rate sites
        rows, r = states.shape[0], right.shape[1]
        terms = np.zeros((rows, r + 1, self._blocks * self._per_block))
        terms[:, :r, :n] = np.where(self._sus[:, None] > 0.0,
                                    self._left_t, 0.0)
        terms[:, r, :n] = self._psi_sites * self._inf
        self._terms = np.ascontiguousarray(terms.reshape(
            rows, r + 1, self._blocks, self._per_block).transpose(0, 2, 1, 3))
        # per (row, block) the sums of its urns' terms, always by this one
        # reduction over the block, so an exact function of the state
        self._sums = np.add.reduce(self._terms, axis=-1)
        self._coef = np.ones((rows, r + 1))
        # running sums of the block rates, from an exact 0 in column 0
        self._cum = np.zeros((rows, self._blocks + 1))

    def _states_general(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), N) int8 states of the given rows (0-based)."""
        return (2.0 * self._inf[rows] + self._sus[rows] - 1.0).astype(np.int8)

    def _propose_general(self, exp, uni):
        inf = self._inf[self._view]
        # pressure = left @ (inf @ right) / N row by row: einsum sums each
        # row's products in the same order whatever the batch, where a BLAS
        # call would round after the batch shape
        self.c = c = np.einsum("...n,an->...a", inf, self._right_t)
        rates = np.einsum("...a,an->...n", c, self._left_t)
        rates *= self._sus[self._view]
        rates += self._psi_sites * inf
        cum = np.add.accumulate(rates, axis=-1)
        total = cum.T[-1]
        urn = _search(cum, uni.T[0] * total)
        recovery = self._inf[self._ix, urn] > 0.0
        return self.time + exp / total, urn, recovery

    def _move_general(self, urn, recovery) -> None:
        # the urn was susceptible exactly if it gets infected
        self._inf[self._ix, urn] = self._sus[self._ix, urn]
        self._sus[self._ix, urn] = 0.0

    def _propose_blocked(self, exp, uni):
        ix, view = self._ix, self._view
        coef = self._coef[view]
        coef[..., :-1] = np.einsum("...n,an->...a", self._inf[view],
                                   self._right_t)
        self.c = coef[..., :-1]
        # block b's rate coef . sums[b] holds the positions
        # [cum[b], cum[b + 1]) of the running sum over all urns
        block_rates = np.einsum("...k,...bk->...b", coef, self._sums[view])
        cum = self._cum[view]
        np.add.accumulate(block_rates, axis=-1, out=cum[..., 1:])
        total = cum.T[-1]
        pos = uni.T[0] * total
        block = (cum[..., 1:] > pos[..., None]).argmax(axis=-1)
        # inside the block, the running sum of its urns' rates
        rates = np.einsum("...k,...kn->...n", coef, self._terms[ix, block])
        at = _search_block(np.add.accumulate(rates, axis=-1),
                           pos - self._cum[ix, block])
        urn = block * self._per_block + at
        # an absorbed row (total 0) proposes the last urn, as with one block
        urn += (total == 0.0) * (self.spec.N - 1 - urn)
        recovery = self._inf[ix, urn] > 0.0
        return self.time + exp / total, urn, recovery

    def _move_blocked(self, urn, recovery) -> None:
        self._move_general(urn, recovery)
        ix = self._ix
        block = urn // self._per_block
        at = urn - block * self._per_block
        # the urn is susceptible no more, and infected after an infection
        self._terms[ix, block, :-1, at] = 0.0
        self._terms[ix, block, -1, at] = (self._psi_sites[urn]
                                          * self._inf[ix, urn])
        self._sums[ix, block] = np.add.reduce(self._terms[ix, block], axis=-1)

    def _source_general(self, urn, u):
        # infector j of urn i with weight lambda(i, j) over the infected j:
        # the kernel's row, nonnegative whatever the signs of its factors;
        # drawn for one replica at a time, so one row and a BLAS product
        weights = self._left_t[:, urn] @ self._right_t
        weights *= self._inf[self._view]
        cum = np.add.accumulate(weights)
        return min(cum.searchsorted(u * cum[-1], side="right"), cum.size - 1)


class Simulation:
    """One replica's initial configuration and its engine, a batch of one.

    Replica ``replica`` of (spec, seed) makes the same draws and
    arithmetic here as in row ``replica`` of an ensemble.
    """

    def __init__(self, spec: ModelSpec, seed: int, replica: int = 0):
        self.initial = sample_initial(spec, seed, replica)
        self._engine = _Engine(spec, seed, replica,
                               self.initial.states[None])


def _check_snapshot_times(spec: ModelSpec, snapshot_times) -> np.ndarray:
    """Snapshot times as a float array: finite, in [0, T] (up to 1e-12
    past T) and nondecreasing, the rule of every batch and ensemble."""
    times = [float(t) for t in snapshot_times]
    # NaN fails both bounds
    if not all(0.0 <= t <= spec.T + 1e-12 for t in times):
        raise ValueError("snapshot times must lie in [0, T]")
    if times != sorted(times):
        raise ValueError("snapshot times must be nondecreasing")
    return np.array(times, dtype=float)


def _passed(times: np.ndarray, horizon: float, time) -> np.ndarray:
    """Per row, how many snapshot times lie before its event at ``time``,
    by the one snapshot rule: a snapshot at tau shows every event with
    time <= tau and none after the horizon."""
    return np.where(time > horizon, times.size,
                    np.searchsorted(times, time, side="left"))


def _fills(k: np.ndarray, j: np.ndarray):
    """Snapshots k .. j - 1 of each row: pair p is snapshot ``q[p]`` of
    row ``rows[each[p]]``, row by row."""
    rows = np.flatnonzero(j > k)
    fills = j[rows] - k[rows]
    each = np.repeat(np.arange(rows.size), fills)
    q = np.arange(each.size) - (np.cumsum(fills) - fills - k[rows])[each]
    return rows, each, q


def _run(engine: _Engine, times: np.ndarray, visit=None) -> np.ndarray:
    """Step a batch in lockstep; its (R, len(times), N) states at ``times``.

    Snapshots follow the one snapshot rule of :func:`_passed`.  A row
    retires once its next event falls after T (or it is absorbed) or its
    last snapshot is filled; the batch shrinks to the rows left.
    ``visit(live, time, urn, recovery, u)`` sees every proposed event
    before it is applied, the retiring one included: ``live`` holds the
    output rows still stepping, the other arguments are those of
    :meth:`_Engine.propose`, and the engine's ``time`` and ``c`` are still
    those of the state before the event.
    """
    horizon = engine.spec.T
    n_rows, n = engine.replicas.size, engine.spec.N
    out = np.empty((n_rows, times.size, n), dtype=np.int8)
    # marks[k]: the time past which a row's next event fills snapshot k
    marks = np.minimum(times, horizon)
    live = np.arange(n_rows if times.size else 0)
    k = np.zeros(live.size, dtype=np.int64)
    mark = marks[k]
    # absorbed rows divide by a total rate of 0 and propose time inf
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            time, urn, recovery, u = engine.propose()
            filled = (time > mark).any()
            if filled:
                # at least k: a batch of one proposes a scalar time
                j = np.maximum(k, _passed(times, horizon, time))
                rows, each, q = _fills(k, j)
                out[live[rows][each], q] = engine.states_of(rows)[each]
                k = j
            if visit is not None:
                visit(live, time, urn, recovery, u)
            # a retiring row's event is applied too, then dropped with it
            engine.apply(time, urn, recovery)
            if filled:
                keep = k < times.size
                if not keep.all():
                    live, k = live[keep], k[keep]
                    if live.size:
                        engine.keep(keep)
                mark = marks[k]
    return out


def simulate(spec: ModelSpec, seed: int, snapshot_times=(),
             replica: int = 0) -> Trajectory:
    """Run one trajectory on [0, T]; deterministic in (spec, seed, replica).

    A snapshot at time tau reflects all events with time <= tau.  Events
    after the horizon T are discarded: :func:`_run` on the batch of one,
    stepped to T by one extra snapshot there.
    """
    times = _check_snapshot_times(spec, snapshot_times)
    sim = Simulation(spec, seed, replica)
    engine = sim._engine
    log: list = []

    def visit(live, time, urn, recovery, u):
        if time <= spec.T:
            kind, src = ((RECOVERY, 0) if recovery
                         else (INFECTION, engine.source(urn, u) + 1))
            log.append((time, kind, urn + 1, src))

    run_times = np.append(np.minimum(times, spec.T), spec.T)
    snapshots = _run(engine, run_times, visit)[0, :-1]
    return Trajectory(
        spec=spec,
        seed=int(seed),
        initial=sim.initial,
        events=log,
        snapshot_times=times,
        snapshots=snapshots,
    )


def snapshot_states(spec: ModelSpec, seed: int, times,
                    replica: int = 0) -> np.ndarray:
    """State matrix (len(times), N) of one replica, without an event log.

    The batch of one of :func:`lockstep_states`: the same engine and draws
    as :func:`simulate` and as row ``replica`` of an ensemble, so rows
    agree bit for bit.  Stepping stops once the last row is filled, so a
    snapshot at t < T does not pay for the rest of [0, T].
    """
    times = _check_snapshot_times(spec, times)
    return _run(Simulation(spec, seed, replica)._engine, times)[0]


def lockstep_states(spec: ModelSpec, seed: int, replicas,
                    times) -> np.ndarray:
    """(len(replicas), len(times), N) states of many replicas stepped together.

    Initial states come from one draw, each step's event words from one
    block evaluation for all rows, and a row leaves the batch once its
    last snapshot is filled.  Row q equals ``snapshot_states(spec, seed,
    times, replica=replicas[q])``.  Memory is O(len(replicas) * N).
    """
    times = _check_snapshot_times(spec, times)
    replicas = check_replicas(replicas)
    states = initial_states(spec, seed, replicas)
    return _run(_Engine(spec, seed, replicas, states), times)


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
