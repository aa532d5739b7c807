import hashlib

import numpy as np
import pytest
from scipy import stats

from urnsir.fields import Kernel, ScalarField
from urnsir.graphical import (
    BANKS,
    ClockTable,
    _paths,
    coupled_quadruple,
    state_from_clocks,
)
from urnsir.model import Configuration, ModelSpec, sample_initial

INF = np.inf


def flat_spec(n, lam=1.5, psi=1.0, phi=0.3, T=1.0):
    return ModelSpec(
        lam=Kernel.constant(lam),
        psi=ScalarField.constant(psi),
        phi=ScalarField.constant(phi),
        N=n,
        T=T,
    )


def from_values(spec, recovery=None, pair_clocks=None, initial=None,
                seed=0, bank=1):
    """Seeded table with explicit overrides for one bank (for traces).

    ``pair_clocks`` is an (N, N) matrix with [i-1, j-1] = U_(i, j); its
    diagonal is forced to infinity.
    """
    table = ClockTable(spec=spec, seed=seed)
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
        np.fill_diagonal(mat, INF)
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


def chain_table(T=5.0):
    """Three urns: 1 <- 2 (0.4), 2 <- 3 (0.5), 1 <- 3 direct (2.0)."""
    spec = flat_spec(3, T=T)
    pair = np.array(
        [[INF, 0.4, 2.0], [5.0, INF, 0.5], [5.0, 5.0, INF]]
    )
    return from_values(
        spec,
        recovery=np.array([0.9, 0.7, 10.0]),
        pair_clocks=pair,
        initial=np.array([0, 0, 1]),
    )


class TestClockTable:
    def test_bank_validation(self):
        tab = ClockTable(spec=flat_spec(3), seed=0)
        for bank in BANKS:
            assert tab.recovery_clocks(bank).shape == (3,)
        with pytest.raises(ValueError):
            tab.recovery_clocks(5)

    def test_initial_bank_one_matches_sampler(self):
        spec = flat_spec(20, phi=0.4)
        tab = ClockTable(spec=spec, seed=77)
        np.testing.assert_array_equal(
            tab.initial_states(1), sample_initial(spec, 77).states
        )

    def test_banks_are_separate_streams(self):
        tab = ClockTable(spec=flat_spec(10), seed=3)
        assert not np.array_equal(tab.recovery_clocks(1), tab.recovery_clocks(2))
        assert not np.array_equal(tab.pair_clocks(4, 1), tab.pair_clocks(4, 2))

    def test_access_order_does_not_change_values(self):
        spec = flat_spec(6)
        eager = ClockTable(spec=spec, seed=9)
        for target in range(1, 7):
            eager.pair_clocks(target)
        lazy = ClockTable(spec=spec, seed=9)
        np.testing.assert_array_equal(lazy.pair_clocks(5), eager.pair_clocks(5))
        np.testing.assert_array_equal(
            lazy.recovery_clocks(), eager.recovery_clocks()
        )

    def test_zero_rates_give_infinite_clocks(self):
        spec = ModelSpec(
            lam=Kernel.separable(
                ScalarField.constant(1.0), ScalarField.table([0.0, 1.0])
            ),
            psi=ScalarField.constant(0.0),
            phi=ScalarField.constant(0.5),
            N=2,
            T=1.0,
        )
        tab = ClockTable(spec=spec, seed=0)
        assert np.all(np.isinf(tab.recovery_clocks()))
        # source at site 1/2 has kernel factor 0, so it never fires
        assert np.isinf(tab.pair_clocks(2)[0])

    def test_diagonal_is_infinite(self):
        tab = ClockTable(spec=flat_spec(4), seed=1)
        for target in range(1, 5):
            assert np.isinf(tab.pair_clocks(target)[target - 1])

    def test_from_values_validation(self):
        spec = flat_spec(3)
        with pytest.raises(ValueError):
            from_values(spec, recovery=np.zeros(2))
        with pytest.raises(ValueError):
            from_values(spec, pair_clocks=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            from_values(spec, initial=np.array([0, 1, 2]))

    def test_clock_means(self):
        # Exp(psi(u)) recovery clocks and Exp(lam/N) pair clocks
        spec = flat_spec(4, lam=1.5, psi=0.8)
        reps = 20_000
        rec = np.zeros(4)
        pair = 0.0
        for seed in range(reps):
            tab = ClockTable(spec=spec, seed=seed)
            rec += tab.recovery_clocks()
            pair += tab.pair_clocks(1)[1]
        rec /= reps
        pair /= reps
        se_rec = (1 / 0.8) / np.sqrt(reps)
        assert np.all(np.abs(rec - 1 / 0.8) < 3.89 * se_rec)
        mean_pair = 4 / 1.5
        assert abs(pair - mean_pair) < 3.89 * mean_pair / np.sqrt(reps)


def reach(tab, root, horizon):
    """{urn: least clock sum} that _paths yields on bank 1, 1-based."""
    paths = _paths(lambda v: tab._row(v, 1), root - 1, horizon)
    return {v + 1: d for d, v in paths}


class TestInfluenceSet:
    # the capped path search that gives coupled_quadruple its influence
    # sets, traced by hand on chain_table()

    def test_urns_come_in_order_of_least_sum(self):
        tab = chain_table()
        paths = _paths(lambda v: tab._row(v, 1), 0, 5.0)
        assert [v for _, v in paths] == [0, 1, 2]

    def test_horizon_cuts_reach(self):
        tab = chain_table()
        # 1 <- 2 at 0.4, then 2 <- 3 at 0.4 + 0.5; the direct 2.0 loses
        assert reach(tab, 1, 1.0) == pytest.approx({1: 0.0, 2: 0.4, 3: 0.9})
        assert reach(tab, 1, 0.3) == {1: 0.0}


class TestStateFromClocks:
    def test_single_urn_recovery_threshold(self):
        spec = flat_spec(1, T=5.0)
        tab = from_values(
            spec, recovery=np.array([0.3]), initial=np.array([1])
        )
        assert state_from_clocks(tab, [1], 1, 0.2) == 1
        assert state_from_clocks(tab, [1], 1, 0.5) == -1

    def test_all_susceptible_stays_susceptible(self):
        tab = chain_table()
        for urn in (1, 2, 3):
            assert state_from_clocks(tab, [0, 0, 0], urn, 4.0) == 0

    def test_chain_trace(self):
        tab = chain_table()
        init = [0, 0, 1]
        # urn 1: infected along 1 <- 2 <- 3 with sum 0.9, K_1 = 0.9
        assert state_from_clocks(tab, init, 1, 0.5) == 0
        assert state_from_clocks(tab, init, 1, 1.0) == 1
        assert state_from_clocks(tab, init, 1, 2.0) == -1
        # urn 2: infected at 0.5, K_2 = 0.7
        assert state_from_clocks(tab, init, 2, 1.0) == 1
        assert state_from_clocks(tab, init, 2, 1.3) == -1
        # urn 3: initially infected, K_3 = 10
        assert state_from_clocks(tab, init, 3, 1.0) == 1

    def test_link_requires_source_to_outlast_clock(self):
        # U_(1, 2) = 0.4 with K_2 = 0.3: source 2 recovers first, so the
        # infection never crosses even though the sum fits the horizon
        spec = flat_spec(2, T=5.0)
        pair = np.array([[INF, 0.4], [5.0, INF]])
        tab = from_values(
            spec,
            recovery=np.array([9.0, 0.3]),
            pair_clocks=pair,
            initial=np.array([0, 1]),
        )
        assert state_from_clocks(tab, [0, 1], 1, 3.0) == 0

    def test_accepts_configuration_and_validates(self):
        tab = chain_table()
        cfg = Configuration(states=np.array([0, 0, 1], dtype=np.int8), time=0.0)
        assert state_from_clocks(tab, cfg, 3, 1.0) == 1
        with pytest.raises(ValueError):
            state_from_clocks(tab, [0, 1], 1, 1.0)
        with pytest.raises(ValueError):
            state_from_clocks(tab, [0, -1, 1], 1, 1.0)
        with pytest.raises(ValueError):
            state_from_clocks(tab, [0, 2, 1], 1, 1.0)
        with pytest.raises(ValueError):
            state_from_clocks(tab, [0, 0, 1], 4, 1.0)


class TestCoupling:
    def test_validation(self):
        tab = ClockTable(spec=flat_spec(8), seed=0)
        with pytest.raises(ValueError):
            coupled_quadruple(tab, (1, 2, 3), 0.5)
        with pytest.raises(ValueError):
            coupled_quadruple(tab, (1, 2, 3, 3), 0.5)
        with pytest.raises(ValueError):
            coupled_quadruple(tab, (1, 2, 3, 4), 2.0)

    def test_isolated_clocks_decouple_cleanly(self):
        # every pair clock beyond the horizon: omega holds and each coupled
        # state equals its uncoupled counterpart
        spec = flat_spec(4, T=1.0)
        tab = from_values(
            spec,
            recovery=np.array([0.2, 5.0, 5.0, 0.9]),
            pair_clocks=np.full((4, 4), 5.0),
            initial=np.array([1, 0, 1, 1]),
        )
        quad = coupled_quadruple(tab, (1, 2, 3, 4), 1.0)
        assert quad.omega_ok
        assert quad.states == (-1, 0, 1, -1)
        init = tab.initial_states(1)
        for urn, st in zip((1, 2, 3, 4), quad.states):
            assert state_from_clocks(tab, init, urn, 1.0) == st

    def test_tangled_clocks_fail_omega(self):
        spec = flat_spec(4, T=1.0)
        tab = from_values(
            spec,
            recovery=np.full(4, 5.0),
            pair_clocks=np.full((4, 4), 0.1),
            initial=np.array([1, 0, 0, 0]),
        )
        quad = coupled_quadruple(tab, (1, 2, 3, 4), 1.0)
        assert not quad.omega_ok

    def test_hat_marginal_matches_direct_law(self):
        # the bank-2 hatted state of one urn must follow the same law as the
        # plain construction; compare over disjoint seed ranges
        spec = flat_spec(12, T=0.8)
        reps = 3000
        direct = np.zeros(3, dtype=int)
        hatted = np.zeros(3, dtype=int)
        for seed in range(reps):
            tab = ClockTable(spec=spec, seed=seed)
            s = state_from_clocks(tab, tab.initial_states(1), 4, 0.8)
            direct[s + 1] += 1
        for seed in range(reps, 2 * reps):
            tab = ClockTable(spec=spec, seed=seed)
            quad = coupled_quadruple(tab, (1, 4, 7, 10), 0.8)
            hatted[quad.states[1] + 1] += 1
        res = stats.chi2_contingency(np.array([direct, hatted]))
        assert res.pvalue > 1e-3

    def test_decoupling_failure_decays_with_n(self):
        reps = 1500
        rates = []
        for n in (8, 16, 32, 64):
            spec = flat_spec(n, T=0.4)
            fails = 0
            for seed in range(reps):
                quad = coupled_quadruple(
                    ClockTable(spec=spec, seed=seed), (1, 2, 3, 4), 0.4
                )
                fails += not quad.omega_ok
            rates.append(fails / reps)
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0.55 * rates[0]


def table_spec16():
    return ModelSpec(
        lam=Kernel.table([[1.0, 2.5, 0.5], [3.0, 0.5, 1.5], [2.0, 1.0, 4.0]]),
        psi=ScalarField.affine(0.6, 0.8),
        phi=ScalarField.table([0.1, 0.4, 0.2]),
        N=16,
        T=1.0,
    )


class TestFrozenConstruction:
    # sha256 over seeds 0..299 of coupled_quadruple's (states, omega_ok) and
    # every urn's state_from_clocks at t = 0.7: any change to the clocks,
    # the path search or the coupling that moves one state or omega moves it
    DIGEST = "b5775f87301df8842c16ffd62721833b2f4489c8cca777d7bacde66e4c7872c7"

    def test_digest(self):
        spec = table_spec16()
        n, t = spec.N, 0.7
        digest = hashlib.sha256()
        records = []
        for seed in range(300):
            tab = ClockTable(spec=spec, seed=seed)
            urns = tuple((seed + 5 * k) % n + 1 for k in range(4))
            quad = coupled_quadruple(tab, urns, t)
            init = tab.initial_states(1)
            states = [state_from_clocks(tab, init, m, t) for m in range(1, n + 1)]
            record = np.array([*quad.states, quad.omega_ok, *states],
                              dtype=np.int8)
            digest.update(record.tobytes())
            records.append(record)
        records = np.array(records)
        # the digest covers both omega outcomes and all three states
        assert set(records[:, 4]) == {0, 1}
        assert set(records[:, 5:].ravel()) == {-1, 0, 1}
        assert digest.hexdigest() == self.DIGEST

    # coupled_quadruple's (states, omega_ok) at t = T/2 and T over seeds
    # 0..299 of a flat model where omega mostly holds (89 % and 86 %), so
    # the digest sees the later roots' influence sets and omega's reading
    DIGEST_OMEGA = (
        "5823fe016f61ca6572ea7e4d5c36838957ad3f169877ca6dd132eee20e16db8c")

    def test_digest_where_omega_mostly_holds(self):
        spec = flat_spec(64, lam=1.0, psi=1.0, phi=0.5, T=0.4)
        n = spec.N
        digest = hashlib.sha256()
        records = []
        for seed in range(300):
            tab = ClockTable(spec=spec, seed=seed)
            urns = tuple((seed + 16 * k) % n + 1 for k in range(4))
            record = []
            for t in (spec.T / 2, spec.T):
                quad = coupled_quadruple(tab, urns, t)
                record += [*quad.states, quad.omega_ok]
            record = np.array(record, dtype=np.int8)
            digest.update(record.tobytes())
            records.append(record)
        records = np.array(records)
        omega = records[:, [4, 9]]
        assert 0.8 < omega.mean() < 1.0
        assert set(records[:, [0, 1, 2, 3, 5, 6, 7, 8]].ravel()) == {-1, 0, 1}
        assert digest.hexdigest() == self.DIGEST_OMEGA
