"""Static clock tables and the path-based construction of states.

The jump dynamics have an equivalent static description.  Give urn i a
recovery clock K_i ~ Exp(psi(i/N)) and every ordered pair (i, j), i != j,
an infection clock U_(i, j) ~ Exp(lambda(i/N, j/N) / N): the waiting time
for an infected j to infect a susceptible i, measured from the moment j
itself becomes infected.  Urn m is infected by time t exactly when some
self-avoiding path m_0, ..., m_n = m from an initially infected urn m_0
satisfies U_(m_{l+1}, m_l) < K_{m_l} on every link (each infector passes
the infection on before recovering) and has total clock sum <= t; the
minimal such sum c determines the state at time t:

    infected if c + K_m > t,  removed if c + K_m <= t,  susceptible if no
    path exists with c <= t.

Minimal sums over nonnegative clocks are shortest paths.  One
Dijkstra-style search, run backwards from the queried urn, yields urns in
order of their least clock sum to it, capped at a horizon, and so only
touches the urns that could have influenced it.  Restricted to links with
U < K, its first yielded urn that starts infected gives c; unrestricted,
the urns it yields are the queried urn's influence set.
:func:`clock_states` evaluates whole tables of many replicas at once
instead, by min-plus relaxation forward from the initially infected urns.

The four-urn coupling swaps the clock rows of the earlier urns' influence
sets for independent replica banks (2..4), which leaves each marginal law
unchanged while decoupling the four states outside an explicit event
whose failure probability is O(1/N); that event is read from the same
influence sets, as the absence of short primary clocks between them.
``coupled_quadruple`` returns the coupled states and that event's
indicator.

The table of replica r of a seed draws from the streams keyed (seed, r)
(see :mod:`urnsir.streams`): recovery clocks and initial states of bank b
from index (b,), the pair clocks targeting urn i from index (b, i - 1).
Tables are lazy: each row (all clocks targeting one urn) materializes on
first access from its own stream, so building a table is O(1), only rows
that searches actually touch are ever sampled, and eager or lazy access
orders, or drawing many tables at once, give identical values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .model import (
    INFECTED,
    REMOVED,
    SUSCEPTIBLE,
    Configuration,
    ModelSpec,
    initial_states,
)
from .streams import (
    DOMAIN_INITIAL,
    DOMAIN_PAIR_CLOCKS,
    DOMAIN_RECOVERY_CLOCKS,
    check_replicas,
    derive_rng,
    exponentials,
    replica_words,
)

__all__ = [
    "ClockTable",
    "state_from_clocks",
    "clock_states",
    "CoupledQuadruple",
    "coupled_quadruple",
    "BANKS",
]

BANKS = (1, 2, 3, 4)


def _clocks(words: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Exponential clocks of the given rates from stream words; inf at rate 0."""
    out = np.full(words.shape, np.inf)
    np.divide(exponentials(words), rates, out=out, where=rates > 0)
    return out


def _pair_rates(spec: ModelSpec, target_idx: int) -> np.ndarray:
    """lambda(target, j) / N over sources j: rates of one pair-clock row."""
    n = spec.N
    s = spec.sites()
    return np.asarray(spec.lam(np.full(n, s[target_idx]), s)) / n


@dataclass
class ClockTable:
    """Lazy table of recovery clocks, pair clocks and initial banks.

    The table of replica ``replica`` of ``seed`` draws from the streams
    keyed (seed, replica).  Bank 1 is the primary draw; banks 2..4 are
    independent copies used by the coupling construction.  Bank 1 of the
    initial states follows the same stream rule as
    :func:`urnsir.model.sample_initial`, so the two agree for equal
    (seed, replica).
    """

    spec: ModelSpec
    seed: int
    replica: int = 0
    _recovery: dict = field(default_factory=dict, repr=False)
    _initial: dict = field(default_factory=dict, repr=False)
    _rows: dict = field(default_factory=dict, repr=False)

    def _check_bank(self, bank: int) -> int:
        if bank not in BANKS:
            raise ValueError(f"bank must be one of {BANKS}")
        return int(bank)

    def recovery_clocks(self, bank: int = 1) -> np.ndarray:
        """K_i for i = 1..N (position i-1); infinite where psi vanishes."""
        bank = self._check_bank(bank)
        if bank not in self._recovery:
            rng = derive_rng(self.seed, DOMAIN_RECOVERY_CLOCKS, bank,
                             replica=self.replica)
            clocks = _clocks(rng.bit_generator.random_raw(self.spec.N),
                             self.spec.psi_at_sites())
            clocks.setflags(write=False)
            self._recovery[bank] = clocks
        return self._recovery[bank]

    def initial_states(self, bank: int = 1) -> np.ndarray:
        """0/1 initial states drawn from the phi profile for this bank."""
        bank = self._check_bank(bank)
        if bank not in self._initial:
            rng = derive_rng(self.seed, DOMAIN_INITIAL, bank,
                             replica=self.replica)
            states = (rng.random(self.spec.N) < self.spec.phi_at_sites())
            states = states.astype(np.int8)
            states.setflags(write=False)
            self._initial[bank] = states
        return self._initial[bank]

    def pair_clocks(self, target: int, bank: int = 1) -> np.ndarray:
        """U_(target, j) over sources j = 1..N; the diagonal is infinite."""
        if not 1 <= target <= self.spec.N:
            raise ValueError("target urn out of range")
        return self._row(target - 1, self._check_bank(bank))

    def _row(self, target_idx: int, bank: int) -> np.ndarray:
        key = (bank, target_idx)
        row = self._rows.get(key)
        if row is None:
            rng = derive_rng(self.seed, DOMAIN_PAIR_CLOCKS, bank, target_idx,
                             replica=self.replica)
            row = _clocks(rng.bit_generator.random_raw(self.spec.N),
                          _pair_rates(self.spec, target_idx))
            row[target_idx] = np.inf
            row.setflags(write=False)
            self._rows[key] = row
        return row


def _paths(row_fn, root: int, horizon: float, k_vec=None):
    """(sum, urn) in order of the urn's least clock sum to ``root``.

    Dijkstra backwards from the root, which comes first at 0: a link from
    the path urn v to a candidate source w costs U_(v, w), read from
    ``row_fn(v)`` once the urn after v is asked for.  Only sums <= horizon
    are followed; given recovery clocks ``k_vec``, only links with
    U_(v, w) < K_w.  All 0-based.
    """
    dist = {root: 0.0}
    heap = [(0.0, root)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        yield d, v
        row = row_fn(v)
        nd = d + row
        usable = nd <= horizon
        if k_vec is not None:
            usable &= row < k_vec
        for w in np.nonzero(usable)[0]:
            w = int(w)
            if w in done:
                continue
            val = float(nd[w])
            if val < dist.get(w, np.inf):
                dist[w] = val
                heapq.heappush(heap, (val, w))


def _state(row_fn, k_vec, init, root: int, t: float) -> int:
    """State of ``root`` at t; c is the sum of the first urn that
    :func:`_paths` reaches over admissible links and that starts infected
    (inf when there is none)."""
    c = next((d for d, v in _paths(row_fn, root, t, k_vec) if init[v] == 1),
             np.inf)
    if c > t:
        return 0
    return 1 if c + float(k_vec[root]) > t else -1


def state_from_clocks(
    clocks: ClockTable, initial, m: int, t: float
) -> int:
    """State of urn m at time t from the static clock description.

    ``initial`` is a 0/1 configuration (no urn starts removed); bank 1
    clocks are used throughout.
    """
    if isinstance(initial, Configuration):
        init = initial.states
    else:
        init = np.asarray(initial, dtype=np.int8)
    n = clocks.spec.N
    if init.shape != (n,) or init.min() < 0 or init.max() > 1:
        raise ValueError("initial states must be a 0/1 vector per urn")
    if not 1 <= m <= n:
        raise ValueError("urn out of range")
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")

    return _state(lambda v: clocks._row(v, 1), clocks.recovery_clocks(1),
                  init, m - 1, t)


def clock_states(spec: ModelSpec, seed: int, replicas, t: float) -> np.ndarray:
    """(len(replicas), N) states at time t from many bank-1 clock tables.

    Draws the tables of all replicas at once.  c, the minimal admissible
    path sum into each urn, comes from min-plus relaxation forward from
    the initially infected urns: c is 0 on them and inf elsewhere, and each
    round lowers c_v to c_w + U_(v, w) over links with U_(v, w) < K_w,
    until no sum changes (at most N - 1 rounds).  Row q equals
    :func:`state_from_clocks` on ``ClockTable(spec, seed, replicas[q])``
    for every urn; the two add a path's clocks in opposite orders, which
    could matter only for a sum within rounding of t.  Memory is
    O(len(replicas) * N^2).
    """
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and >= 0")
    n = spec.N
    replicas = check_replicas(replicas)
    init = initial_states(spec, seed, replicas)
    k_vec = _clocks(
        replica_words(seed, replicas, n, DOMAIN_RECOVERY_CLOCKS, 1),
        spec.psi_at_sites(),
    )
    # cost[q, v, w] = U_(v, w) where the link w -> v is admissible
    cost = np.empty((replicas.size, n, n))
    for v in range(n):
        row = _clocks(replica_words(seed, replicas, n, DOMAIN_PAIR_CLOCKS, 1, v),
                      _pair_rates(spec, v))
        row[:, v] = np.inf
        cost[:, v] = np.where(row < k_vec, row, np.inf)
    c = np.where(init == 1, 0.0, np.inf)
    for _ in range(n - 1):
        relaxed = np.minimum(c, (c[:, None, :] + cost).min(axis=2))
        if np.array_equal(relaxed, c):
            break
        c = relaxed
    state = np.where(c + k_vec > t, INFECTED, REMOVED)
    return np.where(c > t, SUSCEPTIBLE, state).astype(np.int8)


@dataclass(frozen=True)
class CoupledQuadruple:
    """Coupled states of four urns plus the decoupling event indicator.

    ``states`` holds (xi_t(i), xi^_t(j), xi^_t(k), xi^_t(l)); on
    ``omega_ok`` the replica-bank substitutions were invisible and the
    hatted states coincide with the original ones.
    """

    urns: tuple
    t: float
    states: tuple
    omega_ok: bool


def coupled_quadruple(
    clocks: ClockTable, urns, t: float
) -> CoupledQuadruple:
    """Replica-bank coupling of the states of four distinct urns at time t.

    The first urn keeps the primary clocks.  Each later urn re-draws (from
    banks 2..4) the clock rows, recovery clocks and initial states of every
    urn already explored by the earlier searches, so the four reported
    states are mutually independent by construction.  ``omega_ok`` is the
    event that no swapped clock could have mattered at horizon T, read
    from the influence sets: for each later root, no primary clock <= T
    runs from the earlier roots' influence sets into its own, or from the
    root into them.  On it, all four states equal the uncoupled ones.
    """
    spec = clocks.spec
    urns = tuple(int(u) for u in urns)
    if len(urns) != 4 or len(set(urns)) != 4:
        raise ValueError("need four distinct urns")
    if not all(1 <= u <= spec.N for u in urns):
        raise ValueError("urn out of range")
    if not (0.0 <= t <= spec.T):
        raise ValueError("t must lie in [0, T]")
    roots = [u - 1 for u in urns]
    k1 = clocks.recovery_clocks(1)
    init1 = clocks.initial_states(1)

    def clear(targets, sources) -> bool:
        """No primary clock from a source to a target is <= T."""
        sources = list(sources)
        return all(clocks._row(v, 1)[sources].min() > spec.T
                   for v in targets)

    # each root's clocks: bank b in place of bank 1 on the urns that the
    # earlier roots' searches (their influence sets) reach.  The last
    # root's influence set only feeds omega, so it is searched only while
    # omega holds.
    explored: set = set()
    states, omega = [], True
    for bank, root in zip(BANKS, roots):
        subst = list(explored)

        def row_fn(v, subst=frozenset(subst), bank=bank):
            return clocks._row(v, bank if v in subst else 1)

        k_vec, init = k1.copy(), init1.copy()
        k_vec[subst] = clocks.recovery_clocks(bank)[subst]
        init[subst] = clocks.initial_states(bank)[subst]
        states.append(_state(row_fn, k_vec, init, root, t))
        if bank != BANKS[-1] or omega:
            influence = {v for _, v in _paths(row_fn, root, t)}
            if explored:
                omega = (omega and clear(influence, explored)
                         and clear(explored, [root]))
            explored |= influence

    return CoupledQuadruple(
        urns=urns, t=float(t), states=tuple(states), omega_ok=omega
    )
