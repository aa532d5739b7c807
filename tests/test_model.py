import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnsir.ensemble import EnsembleResult, EnsembleSpec
from urnsir.fields import Kernel, ScalarField
from urnsir.model import (
    INFECTED,
    REMOVED,
    Configuration,
    ModelSpec,
    sample_initial,
)


def make_spec(n=5, lam=1.0, psi=1.0, phi=0.5, T=1.0):
    return ModelSpec(
        lam=Kernel.constant(lam),
        psi=ScalarField.constant(psi),
        phi=ScalarField.constant(phi),
        N=n,
        T=T,
    )


class TestModelSpec:
    def test_basic_validation(self):
        with pytest.raises(ValueError):
            make_spec(n=0)
        with pytest.raises(ValueError):
            make_spec(T=-1.0)
        with pytest.raises(ValueError):
            ModelSpec(
                lam=Kernel.constant(1.0),
                psi=ScalarField.constant(1.0),
                phi=ScalarField.constant(1.5),
                N=3,
                T=1.0,
            )

    def test_negative_psi_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(
                lam=Kernel.constant(1.0),
                psi=ScalarField.affine(0.1, -1.0),
                phi=ScalarField.constant(0.5),
                N=3,
                T=1.0,
            )

    def test_with_n(self):
        spec = make_spec(n=5)
        assert spec.with_n(20).N == 20
        assert spec.with_n(20).T == spec.T


class TestConfiguration:
    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            Configuration(states=np.array([2, 0], dtype=np.int8), time=0.0)
        with pytest.raises(ValueError):
            Configuration(states=np.array([0, -2], dtype=np.int8), time=0.0)


class TestSampleInitial:
    def test_degenerate_probability_one(self):
        cfg = sample_initial(make_spec(phi=1.0), seed=1)
        np.testing.assert_array_equal(cfg.states, 1)

    def test_degenerate_probability_zero(self):
        cfg = sample_initial(make_spec(phi=0.0), seed=1)
        np.testing.assert_array_equal(cfg.states, 0)

    def test_no_removed_and_time_zero(self):
        cfg = sample_initial(make_spec(n=100), seed=3)
        assert cfg.time == 0.0
        assert not np.any(cfg.states == REMOVED)

    def test_deterministic_given_seed(self):
        spec = make_spec(n=50)
        a = sample_initial(spec, seed=9)
        b = sample_initial(spec, seed=9)
        np.testing.assert_array_equal(a.states, b.states)
        c = sample_initial(spec, seed=10)
        assert not np.array_equal(a.states, c.states)

    def test_site_linear_profile_frequency(self):
        # phi(u) = u: mean infected fraction concentrates near the site mean
        spec = ModelSpec(
            lam=Kernel.constant(1.0),
            psi=ScalarField.constant(1.0),
            phi=ScalarField.affine(0.0, 1.0),
            N=10_000,
            T=1.0,
        )
        cfg = sample_initial(spec, seed=7)
        frac = np.mean(cfg.states == INFECTED)
        mean_p = np.mean(spec.phi_at_sites())
        # 99.9% band for a sum of independent non-identical Bernoullis
        sd = np.sqrt(np.sum(spec.phi_at_sites() * (1 - spec.phi_at_sites()))) / spec.N
        assert abs(frac - mean_p) < 3.29 * sd

    def test_per_urn_frequency_bands(self):
        spec = make_spec(n=8, phi=0.3)
        reps = 20_000
        hits = np.zeros(8)
        for seed in range(reps):
            hits += sample_initial(spec, seed).states == INFECTED
        freq = hits / reps
        band = 3.29 * np.sqrt(0.3 * 0.7 / reps)
        assert np.all(np.abs(freq - 0.3) < band)


def one_config(states):
    """An ensemble of one replica and one snapshot holding ``states``."""
    states = np.asarray(states, dtype=np.int8)
    ens = EnsembleSpec(make_spec(n=states.size), replicas=1, master_seed=0,
                       snapshot_times=(0.0,))
    return EnsembleResult(spec=ens, states=states[None, None])


def fields(states, f):
    """(mu, theta) of one configuration against f."""
    res = one_config(states)
    return float(res.mu(f, 0)[0]), float(res.theta(f, 0)[0])


class TestFields:
    def test_full_infection(self):
        assert fields(np.ones(4), ScalarField.constant(1.0)) == (1.0, 0.0)

    def test_identity_function_hand_value(self):
        mu, theta = fields([1, 0, 0, 1], ScalarField.affine(0.0, 1.0))
        assert mu == pytest.approx(5 / 16)
        assert theta == pytest.approx(5 / 16)

    def test_all_removed_gives_zero(self):
        assert fields(-np.ones(6), ScalarField.affine(1.0, 2.0)) == (0.0, 0.0)

    def test_linearity_in_f(self):
        rng = np.random.default_rng(2)
        states = rng.choice([-1, 0, 1], size=12)
        f = ScalarField.affine(0.5, 1.0)
        g = ScalarField.table([0.2, 0.9, 0.1, 0.5])
        combo = ScalarField.table(
            list(2.0 * f.at_sites(12) - 3.0 * g.at_sites(12))
        )
        mu_c, th_c = fields(states, combo)
        mu_f, th_f = fields(states, f)
        mu_g, th_g = fields(states, g)
        assert mu_c == pytest.approx(2 * mu_f - 3 * mu_g)
        assert th_c == pytest.approx(2 * th_f - 3 * th_g)

    @settings(max_examples=25)
    @given(st.integers(1, 30), st.integers(0, 10_000))
    def test_field_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        states = rng.choice([-1, 0, 1], size=n)
        mu, theta = fields(states, ScalarField.constant(1.0))
        assert 0.0 <= mu <= 1.0
        assert 0.0 <= theta <= 1.0
        assert mu + theta <= 1.0 + 1e-12
