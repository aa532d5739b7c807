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

Minimal sums over nonnegative clocks are shortest paths, so states come
from a Dijkstra-style search restricted to links with U < K, run backwards
from the queried urn (the search then only touches the urns that could
have influenced it).

Influence sets drop the K filter: the influence set of m at horizon t is
everything reachable from m through clock-sum paths <= t, organized into
discovery layers.  Blocked variants delete a set B from the graph first.
The four-urn coupling swaps clock rows of already-explored regions for
independent replica banks (2..4), which leaves each marginal law unchanged
while decoupling the four states outside an explicit event whose failure
probability is O(1/N); ``coupled_quadruple`` returns the coupled states
and that event's indicator.

Tables are lazy: each row (all clocks targeting one urn) materializes on
first access from its own derived stream, so building a table is O(1), only
rows that searches actually touch are ever sampled, and eager or lazy
access orders give identical values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .model import Configuration, ModelSpec
from .streams import (
    DOMAIN_INITIAL,
    DOMAIN_PAIR_CLOCKS,
    DOMAIN_RECOVERY_CLOCKS,
    derive_rng,
)

__all__ = [
    "ClockTable",
    "InfluenceSet",
    "influence_set",
    "state_from_clocks",
    "CoupledQuadruple",
    "coupled_quadruple",
    "BANKS",
]

BANKS = (1, 2, 3, 4)


def _exponentials(rng: np.random.Generator, rates: np.ndarray) -> np.ndarray:
    std = rng.standard_exponential(rates.size)
    out = np.full(rates.size, np.inf)
    np.divide(std, rates, out=out, where=rates > 0)
    return out


@dataclass
class ClockTable:
    """Lazy per-seed table of recovery clocks, pair clocks, initial banks.

    Bank 1 is the primary draw; banks 2..4 are independent replicas used by
    the coupling construction.  Bank 1 of the initial states follows the
    same stream rule as :func:`urnsir.model.sample_initial`, so the two
    agree for equal seeds.
    """

    spec: ModelSpec
    seed: int
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
            rng = derive_rng(self.seed, DOMAIN_RECOVERY_CLOCKS, bank)
            clocks = _exponentials(rng, self.spec.psi_at_sites())
            clocks.setflags(write=False)
            self._recovery[bank] = clocks
        return self._recovery[bank]

    def initial_states(self, bank: int = 1) -> np.ndarray:
        """0/1 initial states drawn from the phi profile for this bank."""
        bank = self._check_bank(bank)
        if bank not in self._initial:
            rng = derive_rng(self.seed, DOMAIN_INITIAL, bank)
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

    def pair_clock(self, target: int, source: int, bank: int = 1) -> float:
        if target == source:
            raise ValueError("pair clocks need distinct urns")
        return float(self.pair_clocks(target, bank)[source - 1])

    def _row(self, target_idx: int, bank: int) -> np.ndarray:
        key = (bank, target_idx)
        row = self._rows.get(key)
        if row is None:
            n = self.spec.N
            rng = derive_rng(self.seed, DOMAIN_PAIR_CLOCKS, bank, target_idx)
            s = self.spec.sites()
            rates = np.asarray(self.spec.lam(np.full(n, s[target_idx]), s))
            row = _exponentials(rng, rates / n)
            row[target_idx] = np.inf
            row.setflags(write=False)
            self._rows[key] = row
        return row

    @classmethod
    def from_values(
        cls,
        spec: ModelSpec,
        recovery: np.ndarray | None = None,
        pair_clocks: np.ndarray | None = None,
        initial: np.ndarray | None = None,
        seed: int = 0,
        bank: int = 1,
    ) -> "ClockTable":
        """Seeded table with explicit overrides for one bank (for traces).

        ``pair_clocks`` is an (N, N) matrix with [i-1, j-1] = U_(i, j); its
        diagonal is forced to infinity.
        """
        table = cls(spec=spec, seed=seed)
        n = spec.N
        if recovery is not None:
            arr = np.asarray(recovery, dtype=float).copy()
            if arr.shape != (n,):
                raise ValueError("recovery clocks must have one entry per urn")
            arr.setflags(write=False)
            table._recovery[bank] = arr
        if pair_clocks is not None:
            mat = np.asarray(pair_clocks, dtype=float).copy()
            if mat.shape != (n, n):
                raise ValueError("pair clocks must be an N x N matrix")
            np.fill_diagonal(mat, np.inf)
            for idx in range(n):
                row = mat[idx].copy()
                row.setflags(write=False)
                table._rows[(bank, idx)] = row
        if initial is not None:
            arr = np.asarray(initial, dtype=np.int8).copy()
            if arr.shape != (n,) or arr.min() < 0 or arr.max() > 1:
                raise ValueError("initial states must be a 0/1 vector")
            arr.setflags(write=False)
            table._initial[bank] = arr
        return table


def _reach(row_fn, n: int, root: int, horizon: float, blocked) -> dict:
    """Minimal clock sums of paths from ``root``, capped at ``horizon``.

    Returns {vertex: minimal sum} over everything reachable with sum <=
    horizon, root included at 0; vertices in ``blocked`` are deleted from
    the graph.  All 0-based.
    """
    dist = {root: 0.0}
    heap = [(0.0, root)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        nd = d + row_fn(v)
        for w in np.nonzero(nd <= horizon)[0]:
            w = int(w)
            if w in done or w in blocked:
                continue
            val = float(nd[w])
            if val < dist.get(w, np.inf):
                dist[w] = val
                heapq.heappush(heap, (val, w))
    return dist


def _discovery_layers(row_fn, members: list, root: int, horizon: float):
    """Layer index = least number of links in any admissible path.

    Iterated min-plus relaxation restricted to the reachable set; a vertex
    joins layer q when a q-link path first puts its sum under the horizon.
    Rarely a relaxation round discovers nothing while overall sums still
    improve; the round then contributes an (interior) empty layer.
    """
    order = sorted(members)
    pos = {v: k for k, v in enumerate(order)}
    r = len(order)
    sub = np.empty((r, r))
    for a, v in enumerate(order):
        sub[a] = row_fn(v)[order]
    best = np.full(r, np.inf)
    best[pos[root]] = 0.0
    layer = np.full(r, -1)
    layer[pos[root]] = 0
    layers = [frozenset([root])]
    for q in range(1, r + 1):
        relaxed = np.minimum(best, np.min(best[:, None] + sub, axis=0))
        if np.array_equal(relaxed, best):
            break
        best = relaxed
        fresh = (layer < 0) & (best <= horizon)
        layer[fresh] = q
        layers.append(frozenset(order[a] for a in np.nonzero(fresh)[0]))
    while len(layers) > 1 and not layers[-1]:
        layers.pop()
    return layers


@dataclass(frozen=True)
class InfluenceSet:
    """Layers of urns whose clocks can influence the root within a horizon."""

    root: int
    horizon: float
    blocked: frozenset
    layers: tuple
    members: frozenset

    def __post_init__(self) -> None:
        if self.members & self.blocked:
            raise ValueError("influence set overlaps its blocked set")


def influence_set(
    clocks: ClockTable, root: int, t: float, blocked=()
) -> InfluenceSet:
    """Influence set of ``root`` (1-based) at horizon ``t``, avoiding B."""
    n = clocks.spec.N
    if not 1 <= root <= n:
        raise ValueError("root urn out of range")
    blocked_set = {int(b) for b in blocked}
    if root in blocked_set:
        raise ValueError("root must not be blocked")
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError("horizon must be finite and >= 0")
    blocked0 = {b - 1 for b in blocked_set}
    if not all(0 <= b < n for b in blocked0):
        raise ValueError("blocked urns out of range")

    def row(v: int) -> np.ndarray:
        return clocks._row(v, 1)

    dist = _reach(row, n, root - 1, t, blocked0)
    layers0 = _discovery_layers(row, list(dist), root - 1, t)
    layers = tuple(frozenset(v + 1 for v in lay) for lay in layers0)
    return InfluenceSet(
        root=root,
        horizon=float(t),
        blocked=frozenset(blocked_set),
        layers=layers,
        members=frozenset(v + 1 for v in dist),
    )


def _first_infection(row_fn, k_vec, init_vec, root: int, t: float) -> float:
    """Minimal admissible path sum from an initially infected urn to root.

    Runs Dijkstra backwards from the root; a link from the path vertex v to
    a candidate source w costs U_(v, w) and is usable only when
    U_(v, w) < K_w.  Returns inf when no admissible path has sum <= t.
    """
    if init_vec[root] == 1:
        return 0.0
    dist = {root: 0.0}
    heap = [(0.0, root)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        if init_vec[v] == 1:
            return d
        done.add(v)
        row = row_fn(v)
        nd = d + row
        usable = (row < k_vec) & (nd <= t)
        for w in np.nonzero(usable)[0]:
            w = int(w)
            if w in done:
                continue
            val = float(nd[w])
            if val < dist.get(w, np.inf):
                dist[w] = val
                heapq.heappush(heap, (val, w))
    return np.inf


def _state_at(c: float, k_root: float, t: float) -> int:
    if c > t:
        return 0
    return 1 if c + k_root > t else -1


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

    k_vec = clocks.recovery_clocks(1)
    c = _first_infection(
        lambda v: clocks._row(v, 1), k_vec, init, m - 1, t
    )
    return _state_at(c, float(k_vec[m - 1]), t)


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
    influence_sets: tuple
    blocked_sets: tuple


def coupled_quadruple(
    clocks: ClockTable, urns, t: float
) -> CoupledQuadruple:
    """Replica-bank coupling of the states of four distinct urns at time t.

    The first urn keeps the primary clocks.  Each later urn re-draws (from
    banks 2..4) the clock rows, recovery clocks and initial states of every
    urn already explored by the earlier searches, so the four reported
    states are mutually independent by construction.  ``omega_ok`` is the
    event that no swapped clock could have mattered at horizon T (checked
    against the primary clocks); on it, all four states equal the uncoupled
    ones.
    """
    spec = clocks.spec
    n = spec.N
    urns = tuple(int(u) for u in urns)
    if len(urns) != 4 or len(set(urns)) != 4:
        raise ValueError("need four distinct urns")
    if not all(1 <= u <= n for u in urns):
        raise ValueError("urn out of range")
    if not (0.0 <= t <= spec.T):
        raise ValueError("t must lie in [0, T]")
    horizon = spec.T
    i0, j0, k0, l0 = (u - 1 for u in urns)

    def primary_row(v: int) -> np.ndarray:
        return clocks._row(v, 1)

    def swapped_row(subst: set, bank: int):
        def row(v: int) -> np.ndarray:
            return clocks._row(v, bank if v in subst else 1)
        return row

    def swapped_vec(base: np.ndarray, repl: np.ndarray, subst: set):
        out = base.copy()
        idx = list(subst)
        out[idx] = repl[idx]
        return out

    gamma_i = set(_reach(primary_row, n, i0, t, ()))
    row_j = swapped_row(gamma_i, 2)
    gamma_j = set(_reach(row_j, n, j0, t, ()))
    row_k = swapped_row(gamma_i | gamma_j, 3)
    gamma_k = set(_reach(row_k, n, k0, t, ()))
    row_l = swapped_row(gamma_i | gamma_j | gamma_k, 4)

    k1 = clocks.recovery_clocks(1)
    init1 = clocks.initial_states(1)

    def hat_state(row_fn, subst: set, bank: int, root: int) -> int:
        k_vec = swapped_vec(k1, clocks.recovery_clocks(bank), subst)
        init = swapped_vec(init1, clocks.initial_states(bank), subst)
        c = _first_infection(row_fn, k_vec, init, root, t)
        return _state_at(c, float(k_vec[root]), t)

    xi_i = _state_at(
        _first_infection(primary_row, k1, init1, i0, t),
        float(k1[i0]),
        t,
    )
    xi_j = hat_state(row_j, gamma_i, 2, j0)
    xi_k = hat_state(row_k, gamma_i | gamma_j, 3, k0)
    xi_l = hat_state(row_l, gamma_i | gamma_j | gamma_k, 4, l0)

    b1 = set(_reach(primary_row, n, i0, t, {j0, k0, l0}))
    b2 = set(_reach(row_j, n, j0, t, b1 | {k0, l0}))
    b3 = set(_reach(row_k, n, k0, t, b1 | b2 | {l0}))
    b4 = set(_reach(row_l, n, l0, t, b1 | b2 | b3))
    b_sets = (b1, b2, b3, b4)

    def clocks_clear(rows, cols) -> bool:
        cols = list(cols)
        if not cols:
            return True
        for v in rows:
            if np.min(primary_row(v)[cols]) <= horizon:
                return False
        return True

    omega = True
    for m1 in range(1, 4):
        for m2 in range(m1):  # m2 < m1, 0-based over b_sets
            if not clocks_clear(b_sets[m1], b_sets[m2]):
                omega = False
                break
        if not omega:
            break
    if omega:
        omega = (
            clocks_clear(b1, [j0])
            and clocks_clear(b1 | b2, [k0])
            and clocks_clear(b1 | b2 | b3, [l0])
        )

    to_urns = lambda s: frozenset(v + 1 for v in s)  # noqa: E731
    return CoupledQuadruple(
        urns=urns,
        t=float(t),
        states=(xi_i, xi_j, xi_k, xi_l),
        omega_ok=bool(omega),
        influence_sets=(to_urns(gamma_i), to_urns(gamma_j), to_urns(gamma_k)),
        blocked_sets=tuple(to_urns(b) for b in b_sets),
    )
