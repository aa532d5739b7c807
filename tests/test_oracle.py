import csv
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from urnsir.config import spec_hash
from urnsir.fields import Kernel, ScalarField
from urnsir.model import Configuration, ModelSpec
from urnsir.oracle import (
    MAX_URNS,
    CapacityError,
    build_generator,
    enumerate_states,
    index_state,
    initial_distribution,
    moment_report,
    state_index,
    transient_distribution,
)
from urnsir.oracle import _poisson_weights

DATA = Path(__file__).parent / "data"


def make_spec(n, lam=2.0, psi=1.0, phi=0.2, T=1.0):
    return ModelSpec(
        lam=Kernel.constant(lam),
        psi=ScalarField.constant(psi),
        phi=ScalarField.constant(phi),
        N=n,
        T=T,
    )


class TestIndexing:
    def test_round_trip_all_states_n3(self):
        for idx in range(27):
            assert state_index(index_state(idx, 3)) == idx

    def test_digit_order(self):
        # urn 1 is the least significant digit
        assert state_index(np.array([1, -1, 0])) == 2 + 0 * 3 + 1 * 9
        # 11 = 2 + 0*3 + 1*9 -> digits (2, 0, 1) -> states (1, -1, 0)
        np.testing.assert_array_equal(index_state(11, 3), [1, -1, 0])

    def test_accepts_configuration(self):
        cfg = Configuration(states=np.array([0, 1], dtype=np.int8), time=0.0)
        assert state_index(cfg) == 1 + 2 * 3

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            enumerate_states(MAX_URNS + 1)
        with pytest.raises(CapacityError):
            build_generator(make_spec(MAX_URNS + 1))

    def test_enumerate_matches_index_state(self):
        digits = enumerate_states(2)
        assert digits.shape == (9, 2)
        for idx in range(9):
            np.testing.assert_array_equal(digits[idx] - 1, index_state(idx, 2))


class TestGenerator:
    def test_row_sums_vanish(self):
        gen = build_generator(make_spec(4))
        sums = np.asarray(gen.Q.sum(axis=1)).ravel()
        assert np.max(np.abs(sums)) < 1e-12

    def test_off_diagonal_nonnegative(self):
        gen = build_generator(make_spec(3))
        dense = gen.Q.toarray()
        off = dense - np.diag(np.diag(dense))
        assert off.min() >= 0.0

    def test_single_urn_rates(self):
        # N=1: infected state can only recover; nothing else moves
        gen = build_generator(make_spec(1, psi=0.7))
        dense = gen.Q.toarray()
        i_inf = state_index(np.array([1]))
        i_rem = state_index(np.array([-1]))
        i_sus = state_index(np.array([0]))
        assert dense[i_inf, i_rem] == pytest.approx(0.7)
        assert dense[i_inf, i_inf] == pytest.approx(-0.7)
        assert np.all(dense[i_sus] == 0.0)
        assert np.all(dense[i_rem] == 0.0)

    def test_two_urn_infection_rate(self):
        # susceptible 1 next to infected 2 is infected at lambda(u1,u2)/N
        spec = ModelSpec(
            lam=Kernel.table([[1.0, 3.0], [2.0, 5.0]]),
            psi=ScalarField.constant(1.0),
            phi=ScalarField.constant(0.5),
            N=2,
            T=1.0,
        )
        gen = build_generator(spec)
        dense = gen.Q.toarray()
        src = state_index(np.array([0, 1]))
        dst = state_index(np.array([1, 1]))
        assert dense[src, dst] == pytest.approx(spec.lam(0.5, 1.0) / 2)

    def test_uniformization_rate_dominates(self):
        gen = build_generator(make_spec(4, lam=2.0, psi=1.5))
        exit_rates = -gen.Q.diagonal()
        assert gen.uniformization_rate >= exit_rates.max() - 1e-12
        assert gen.uniformization_rate == pytest.approx(4 * (1.5 + 2.0))


class TestInitialDistribution:
    def test_sums_to_one_and_supported_off_removed(self):
        spec = ModelSpec(
            lam=Kernel.constant(1.0),
            psi=ScalarField.constant(1.0),
            phi=ScalarField.affine(0.1, 0.5),
            N=3,
            T=1.0,
        )
        p0 = initial_distribution(spec)
        assert p0.sum() == pytest.approx(1.0)
        digits = enumerate_states(3)
        assert p0[(digits == 0).any(axis=1)].max() == 0.0

    def test_product_law_hand_value(self):
        spec = make_spec(2, phi=0.3)
        p0 = initial_distribution(spec)
        idx = state_index(np.array([1, 0]))
        assert p0[idx] == pytest.approx(0.3 * 0.7)


class TestTransient:
    def test_single_urn_closed_forms(self):
        # phi = p: P(infected at t) = p e^(-psi t)
        psi0, p = 1.3, 0.4
        spec = make_spec(1, psi=psi0, phi=p, T=2.0)
        gen = build_generator(spec)
        dist = transient_distribution(gen, initial_distribution(spec), 1.7)
        decay = p * np.exp(-psi0 * 1.7)
        assert dist[state_index(np.array([1]))] == pytest.approx(decay, abs=1e-11)
        assert dist[state_index(np.array([0]))] == pytest.approx(1 - p, abs=1e-11)
        assert dist[state_index(np.array([-1]))] == pytest.approx(
            p - decay, abs=1e-11
        )

    def test_t_zero_returns_initial(self):
        spec = make_spec(3)
        gen = build_generator(spec)
        p0 = initial_distribution(spec)
        np.testing.assert_array_equal(transient_distribution(gen, p0, 0.0), p0)

    def test_matches_dense_matrix_exponential(self):
        spec = ModelSpec(
            lam=Kernel.table([[1.0, 2.5, 0.5], [2.0, 1.0, 3.0], [0.7, 1.2, 2.2]]),
            psi=ScalarField.affine(0.5, 0.8),
            phi=ScalarField.table([0.2, 0.5, 0.7]),
            N=3,
            T=1.0,
        )
        gen = build_generator(spec)
        p0 = initial_distribution(spec)
        dist = transient_distribution(gen, p0, 1.0)
        ref = p0 @ expm(gen.Q.toarray() * 1.0)
        assert np.max(np.abs(dist - ref)) < 1e-9

    def test_invalid_inputs(self):
        spec = make_spec(2)
        gen = build_generator(spec)
        p0 = initial_distribution(spec)
        with pytest.raises(ValueError):
            transient_distribution(gen, p0[:-1], 1.0)
        with pytest.raises(ValueError):
            transient_distribution(gen, p0 * 2.0, 1.0)
        with pytest.raises(ValueError):
            transient_distribution(gen, p0, -1.0)

    def test_permutation_equivariance(self):
        # constant inputs make urns exchangeable: swapping urn labels in the
        # state index must not change probabilities
        spec = make_spec(3, lam=1.5, psi=0.8, phi=0.35)
        gen = build_generator(spec)
        dist = transient_distribution(gen, initial_distribution(spec), 0.9)
        digits = enumerate_states(3)
        swapped = digits[:, [1, 0, 2]]
        powers = 3 ** np.arange(3, dtype=np.int64)
        perm_idx = swapped.astype(np.int64) @ powers
        assert np.max(np.abs(dist - dist[perm_idx])) < 1e-12


def test_poisson_weights_equal_scipy_stats():
    # the truncation point and every weight, bit for bit
    rng = np.random.default_rng(3)
    for mu, tol in zip(np.exp(rng.uniform(-5.0, 7.0, 500)),
                       10.0 ** rng.uniform(-14.0, -2.0, 500)):
        k_max = int(stats.poisson.isf(tol, mu)) + 1
        want = stats.poisson.pmf(np.arange(k_max + 1), mu)
        np.testing.assert_array_equal(_poisson_weights(mu, tol), want)


class TestMoments:
    def test_marginals_against_moment_report(self):
        spec = make_spec(3, phi=0.4)
        gen = build_generator(spec)
        dist = transient_distribution(gen, initial_distribution(spec), 0.8)
        # per-urn P(susceptible), P(infected): digit 1, digit 2
        digits = enumerate_states(3)
        p_sus, p_inf = dist @ (digits == 1), dist @ (digits == 2)
        recs = moment_report(dist, 3, [[(1, 1)], [(1, 0)], [(3, 1)]])
        assert recs[0].expectation == pytest.approx(p_inf[0], abs=1e-14)
        assert recs[1].expectation == pytest.approx(p_sus[0], abs=1e-14)
        assert recs[2].expectation == pytest.approx(p_inf[2], abs=1e-14)

    def test_product_initial_law_has_zero_covariance(self):
        spec = make_spec(4, phi=0.3)
        p0 = initial_distribution(spec)
        recs = moment_report(p0, 4, [[(1, 1), (2, 1)], [(1, 0), (3, 1)]])
        for rec in recs:
            assert rec.centered == pytest.approx(0.0, abs=1e-14)

    def test_duplicate_urn_rejected(self):
        p0 = initial_distribution(make_spec(2))
        with pytest.raises(ValueError):
            moment_report(p0, 2, [[(1, 1), (1, 0)]])

    def test_bad_selector_rejected(self):
        p0 = initial_distribution(make_spec(2))
        with pytest.raises(ValueError):
            moment_report(p0, 2, [[(1, 2)]])
        with pytest.raises(ValueError):
            moment_report(p0, 2, [[(3, 1)]])


class TestFrozenFixture:
    """Regenerate the checked-in moment fixture and compare value for value.

    The fixture file was produced once from this same code path; the test
    guards against silent drift in the generator, the uniformization, or
    the moment bookkeeping.
    """

    def test_fixture_still_reproducible(self):
        spec = make_spec(4, lam=2.0, psi=1.0, phi=0.2, T=1.0)
        with open(DATA / "moments_n4.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "fixture must not be empty"
        assert rows[0]["spec_hash"] == spec_hash(spec)

        gen = build_generator(spec)
        dist = transient_distribution(gen, initial_distribution(spec), 1.0)

        def parse(label):
            out = []
            for part in label.split(";"):
                which = {"S": 0, "I": 1}[part[0]]
                out.append((int(part[1:]), which))
            return out

        queries = [parse(row["query"]) for row in rows]
        recs = moment_report(dist, 4, queries)
        for row, rec in zip(rows, recs):
            assert rec.expectation == pytest.approx(
                float(row["value"]), abs=5e-11
            ), row["query"]
            assert rec.centered == pytest.approx(
                float(row["centered"]), abs=5e-11
            ), row["query"]
