import re

import numpy as np
import pytest

from urnsir import ensemble, streams
from urnsir.ensemble import (
    EnsembleResult,
    EnsembleSpec,
    run_clock_ensemble,
    run_ensemble,
)
from urnsir.fields import Kernel, ScalarField
from urnsir.gillespie import lockstep_states, snapshot_states
from urnsir.graphical import ClockTable, clock_states, state_from_clocks
from urnsir.model import (
    INFECTED,
    ModelSpec,
    SUSCEPTIBLE,
    initial_states,
    sample_initial,
)

ONE = ScalarField.constant(1.0)


def flat_spec(n=20, lam=1.5, psi=1.0, phi=0.4, T=1.0):
    return ModelSpec(
        lam=Kernel.constant(lam),
        psi=ScalarField.constant(psi),
        phi=ScalarField.constant(phi),
        N=n,
        T=T,
    )


def table_spec(n=20, T=1.0):
    return ModelSpec(
        lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]),
        psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.4),
        N=n,
        T=T,
    )


def small_ensemble(replicas=40, times=(0.0, 0.5, 1.0), seed=5, model=None):
    return EnsembleSpec(
        model=flat_spec() if model is None else model,
        replicas=replicas,
        master_seed=seed,
        snapshot_times=times,
    )


class TestSpecValidation:
    @pytest.mark.parametrize("replicas", [0, True, 2.5])
    def test_replica_count(self, replicas):
        with pytest.raises(ValueError, match="positive integer"):
            EnsembleSpec(model=flat_spec(), replicas=replicas, master_seed=1)

    def test_snapshot_time_range(self):
        with pytest.raises(ValueError):
            EnsembleSpec(
                model=flat_spec(T=1.0),
                replicas=1,
                master_seed=1,
                snapshot_times=(1.5,),
            )
        with pytest.raises(ValueError):
            EnsembleSpec(
                model=flat_spec(),
                replicas=1,
                master_seed=1,
                snapshot_times=(0.5, 0.2),
            )

    @pytest.mark.parametrize("times", [
        (1.5, 0.1), (0.5, float("nan")), (-0.1,), (1.0 + 1e-13,),
        (0.0, 0.0, 1.0),
    ])
    def test_snapshot_times_follow_the_single_trajectory_rule(self, times):
        # an ensemble takes the times that its replicas' snapshot_states
        # takes, and refuses the others with the same message
        model = flat_spec(T=1.0)
        try:
            snapshot_states(model, 1, times)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                EnsembleSpec(model=model, replicas=1, master_seed=1,
                             snapshot_times=times)
        else:
            ens = EnsembleSpec(model=model, replicas=1, master_seed=1,
                               snapshot_times=times)
            assert ens.snapshot_times == times

    def test_result_shape_checked(self):
        ens = small_ensemble(replicas=3)
        with pytest.raises(ValueError):
            EnsembleResult(spec=ens, states=np.zeros((3, 2, 20), dtype=np.int8))


class TestDeterminism:
    def test_rerun_is_identical(self):
        ens = small_ensemble()
        a = run_ensemble(ens)
        b = run_ensemble(ens)
        np.testing.assert_array_equal(a.states, b.states)

    @pytest.mark.parametrize("model", [flat_spec(), table_spec()],
                             ids=["uniform", "table"])
    def test_replicas_match_individual_runs(self, model):
        # replica r of the lockstep batch is the single run of replica r,
        # bit for bit, on the uniform and on the general engine
        ens = small_ensemble(replicas=30, model=model)
        result = run_ensemble(ens)
        assert len(np.unique(result.states[:, -1], axis=0)) > 1
        for r in range(ens.replicas):
            rows = snapshot_states(
                ens.model, ens.master_seed, ens.snapshot_times, replica=r
            )
            np.testing.assert_array_equal(result.states[r], rows)

    def test_rows_do_not_depend_on_the_batch(self, monkeypatch):
        # one replica per batch gives the same rows as one batch for all
        ens = small_ensemble(replicas=12, model=table_spec())
        whole = run_ensemble(ens).states
        monkeypatch.setattr(ensemble, "BATCH_CELLS", 1)
        np.testing.assert_array_equal(run_ensemble(ens).states, whole)
        monkeypatch.setattr(ensemble, "BATCH_CELLS", 5 * ens.model.N)
        np.testing.assert_array_equal(run_ensemble(ens).states, whole)

    @pytest.mark.parametrize("model", [flat_spec(n=7), table_spec(n=7)],
                             ids=["uniform", "table"])
    def test_clock_rows_match_lazy_tables(self, model):
        t = 0.7
        states = run_clock_ensemble(model, 13, 60, t)
        assert len(np.unique(states, axis=0)) > 1
        for r in range(60):
            clocks = ClockTable(model, 13, replica=r)
            initial = clocks.initial_states(1)
            row = [state_from_clocks(clocks, initial, m, t)
                   for m in range(1, model.N + 1)]
            np.testing.assert_array_equal(states[r], row)

    @pytest.mark.parametrize("lam", [
        Kernel.constant(3.0),
        Kernel.table([[2.5, 3.0], [3.2, 4.0]]),
    ], ids=["uniform", "table"])
    def test_rows_match_when_refills_change_path(self, lam, monkeypatch):
        # 1200 replicas draw 13 blocks each at first, the vectorised path;
        # more than half hold no infected urn and retire at once, so the
        # next refill is long enough for numpy's Philox, and the last one
        # short again
        model = ModelSpec(lam=lam, psi=ScalarField.constant(1.0),
                          phi=ScalarField.constant(0.02), N=30, T=5.0)
        paths = []
        for name in ("_native_words", "_vector_words"):
            def spy(seed, replicas, n_words, ctr, first_block,
                    path=getattr(streams, name), name=name):
                if ctr[1] == streams.DOMAIN_SIMULATION:
                    paths.append(name)
                return path(seed, replicas, n_words, ctr, first_block)
            monkeypatch.setattr(streams, name, spy)
        ens = EnsembleSpec(model=model, replicas=1200, master_seed=3,
                           snapshot_times=(1.0, 5.0))
        result = run_ensemble(ens)
        assert paths[:3] == ["_vector_words", "_native_words",
                             "_vector_words"]
        for r in range(0, ens.replicas, 5):
            rows = snapshot_states(model, 3, ens.snapshot_times, replica=r)
            np.testing.assert_array_equal(result.states[r], rows)

    @pytest.mark.parametrize("batch", [
        lambda model, replicas: initial_states(model, 4, replicas),
        lambda model, replicas: lockstep_states(model, 4, replicas, (0.5,)),
        lambda model, replicas: clock_states(model, 4, replicas, 0.5),
    ], ids=["initial_states", "lockstep_states", "clock_states"])
    def test_batch_paths_check_replica_numbers(self, batch):
        # replica numbers are stream key words, each checked as derive_rng
        # checks one before any cast could wrap -1 or truncate 1.7
        model = flat_spec(n=6)
        for bad in ([-1], np.array([3, -1]), [2**64], [0, -1, 2**63]):
            with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
                batch(model, bad)
        for bad in ([1.7], np.array([1.0]), [True], ["1"]):
            with pytest.raises(TypeError, match="must be integers"):
                batch(model, bad)
        assert batch(model, []).shape[0] == 0

    def test_batch_paths_keep_large_replica_numbers(self):
        # the top key word next to a small one: a list numpy would hold
        # as floats
        model, replicas = flat_spec(n=6), [2**64 - 1, 3]
        np.testing.assert_array_equal(
            initial_states(model, 4, replicas),
            [sample_initial(model, 4, r).states for r in replicas])
        np.testing.assert_array_equal(
            lockstep_states(model, 4, replicas, (0.5,)),
            [snapshot_states(model, 4, (0.5,), replica=r) for r in replicas])
        tables = [ClockTable(model, 4, replica=r) for r in replicas]
        np.testing.assert_array_equal(
            clock_states(model, 4, replicas, 0.5),
            [[state_from_clocks(c, c.initial_states(1), m, 0.5)
              for m in range(1, model.N + 1)] for c in tables])

    def test_prefix_stability(self):
        # growing the ensemble must not change earlier replicas
        a = run_ensemble(small_ensemble(replicas=10))
        b = run_ensemble(small_ensemble(replicas=25))
        np.testing.assert_array_equal(a.states, b.states[:10])


class TestFieldHelpers:
    def test_initial_snapshot_has_no_removed(self):
        result = run_ensemble(small_ensemble(replicas=10))
        assert not np.any(result.states[:, 0, :] == -1)

    def test_mu_theta_bounds_and_consistency(self):
        result = run_ensemble(small_ensemble(replicas=30))
        for k in range(3):
            mu = result.mu(ONE, k)
            theta = result.theta(ONE, k)
            assert np.all(mu >= 0) and np.all(theta >= 0)
            assert np.all(mu + theta <= 1.0 + 1e-12)
            frac = result.indicator(INFECTED, k).mean(axis=1)
            np.testing.assert_allclose(mu, frac, atol=1e-12)

    def test_ensemble_centering_sums_to_zero(self):
        result = run_ensemble(small_ensemble(replicas=50))
        f = ScalarField.affine(0.3, 0.9)
        for k in range(3):
            eta = result.eta(f, k)
            beta = result.beta(f, k)
            assert abs(eta.sum()) < 1e-10 * np.sqrt(20) * 50
            assert abs(beta.sum()) < 1e-10 * np.sqrt(20) * 50

    def test_explicit_centering(self):
        # eta is the indicators centered at the per-urn ensemble means
        result = run_ensemble(small_ensemble(replicas=20))
        mean = result.mean_indicator(INFECTED, 1)
        ind = result.indicator(INFECTED, 1)
        np.testing.assert_allclose(
            result.eta(ONE, 1), (ind - mean).sum(axis=1) / np.sqrt(20),
            atol=1e-14,
        )

    def test_state_counts_total(self):
        ens = EnsembleSpec(
            model=flat_spec(n=4),
            replicas=30,
            master_seed=2,
            snapshot_times=(0.5,),
        )
        result = run_ensemble(ens)
        counts = result.state_counts(0)
        assert counts.shape == (81,)
        assert counts.sum() == 30
        codes = result.state_codes(0)
        assert codes.min() >= 0 and codes.max() < 81


class TestLaws:
    def test_mean_infected_tracks_decay(self):
        # lambda = 0, phi = 1: every urn decays independently, so the mean
        # infected fraction at t = 1 concentrates around e^(-1)
        spec = ModelSpec(
            lam=Kernel.constant(0.0),
            psi=ScalarField.constant(1.0),
            phi=ScalarField.constant(1.0),
            N=10_000,
            T=1.0,
        )
        ens = EnsembleSpec(
            model=spec, replicas=100, master_seed=11, snapshot_times=(1.0,)
        )
        result = run_ensemble(ens)
        frac = result.mu(ONE, 0).mean()
        p = np.exp(-1.0)
        se = np.sqrt(p * (1 - p) / (100 * 10_000))
        assert abs(frac - p) < 3.29 * se

    def test_clock_ensemble_matches_simulator_marginals(self):
        # two-sample check of per-urn occupation frequencies
        model = flat_spec(n=6, T=0.8)
        reps = 4000
        sim = run_ensemble(
            EnsembleSpec(
                model=model, replicas=reps, master_seed=21,
                snapshot_times=(0.8,),
            ),
        )
        clock = run_clock_ensemble(model, 22, reps, 0.8)
        for which in (-1, 0, 1):
            p_sim = (sim.states[:, 0, :] == which).mean(axis=0)
            p_clk = (clock == which).mean(axis=0)
            pool = (p_sim + p_clk) / 2
            se = np.sqrt(np.maximum(pool * (1 - pool), 1e-12) * 2 / reps)
            assert np.all(np.abs(p_sim - p_clk) < 4.4 * se)
