import csv
import io

import numpy as np
import pytest

from urnsir.fields import Kernel, ScalarField, sites
from urnsir.fluctuation import (
    CovarianceTrajectory,
    PanelSeries,
    adjoint_pair_covariance,
    evolve_covariance,
    initial_covariance,
    pair_covariance,
    propagate,
    write_covariance_csv,
    write_pair_csv,
)
from urnsir.homogeneous import classic_clt_covariance
from urnsir.model import ModelSpec
from urnsir.rk4 import rk4

ONE = ScalarField.constant(1.0)


def hetero_spec(T=1.0):
    return ModelSpec(
        lam=Kernel.separable(
            ScalarField.affine(0.8, 0.6), ScalarField.affine(1.2, -0.5)
        ),
        psi=ScalarField.affine(0.7, 0.4),
        phi=ScalarField.affine(0.2, 0.3),
        N=10,
        T=T,
    )


def flat_spec(lam0=1.7, phi0=0.3, T=1.0):
    return ModelSpec(
        lam=Kernel.constant(lam0),
        psi=ScalarField.constant(1.0),
        phi=ScalarField.constant(phi0),
        N=10,
        T=T,
    )


# negative zero, subnormals, values >= 1e16 and digits that %.11g would
# drop; 0.1 * 3 = 0.30000000000000004 is printed as 0.3 by %.10g
TIMES = [0.1 * k for k in range(4)] + [1 / 3, 1e16]


def awkward_trajectory(m, times):
    """Symmetric PSD covariances: awkward diagonals, -0.0 and subnormals off
    the diagonal."""
    diag = [1e16, 5e-324, 1 / 3, 0.1 * 3, 1.2345678901234567e20, 2 / 3]
    covs = []
    for k in range(len(times)):
        c = np.diag(np.resize(np.roll(diag, k), 2 * m))
        c[~np.eye(2 * m, dtype=bool)] = -0.0
        c[0, -1] = c[-1, 0] = 2.5e-310
        covs.append(c)
    return CovarianceTrajectory(times=np.asarray(times), covariances=covs, m=m)


def kernel_spec(lam):
    return ModelSpec(lam=lam, psi=ScalarField.affine(0.7, 0.4),
                     phi=ScalarField.affine(0.2, 0.3), N=10, T=1.0)


KERNELS = {
    "constant": Kernel.constant(1.7),
    "separable": Kernel.separable(ScalarField.affine(0.8, 0.6),
                                  ScalarField.affine(1.2, -0.5)),
    # not symmetric, so swapping target and source changes A0
    "table": Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4],
                           [1.4, 2.6, 3.0]]),
}


def dense_operators(series, j):
    """S and Q of half step j from the block formulas of the module
    docstring, with lambda evaluated pointwise on the node grid."""
    m = series.m
    u = sites(m)
    lam = series.spec.lam(u[:, None], u[None, :])  # [target, source]
    rho1 = series.density.rho1[j]
    rho0 = series.density.rho0[j]
    psi = series.spec.psi(u)
    kappa1 = lam @ rho1 / m
    # (A0 f)(u) = (1/M) sum_v lambda(v, u) rho0(v) f(v)
    a0 = lam.T * (rho0 / m)[None, :]
    alpha2 = rho0 * kappa1
    s = np.block([[a0.T - np.diag(psi), np.diag(kappa1)],
                  [-a0.T, -np.diag(kappa1)]])
    q = m * np.block([[np.diag(psi * rho1 + alpha2), -np.diag(alpha2)],
                      [-np.diag(alpha2), np.diag(alpha2)]])
    return s, q


class TestDrift:
    @pytest.mark.parametrize("name", KERNELS)
    def test_drift_matches_dense_reference(self, name):
        series = PanelSeries(kernel_spec(KERNELS[name]), 6, 0.1, 1.0)
        last = 2 * series.n_steps
        y = np.random.default_rng(3).uniform(-1.0, 1.0, (12, 12))
        for j in (0, 7, last):
            s, _ = dense_operators(series, j)
            want = s @ y
            # relative to the largest entry: single entries cancel
            np.testing.assert_allclose(series.drift(j, y), want, rtol=1e-14,
                                       atol=1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("include_noise", [True, False])
    def test_evolution_matches_dense_lyapunov_solve(self, name,
                                                    include_noise):
        # the singular C(0) keeps the noise-free RK4 solution PSD only to
        # about dt^4, which the trajectory's PSD floor allows for
        series = PanelSeries(kernel_spec(KERNELS[name]), 5, 0.01, 1.0)
        traj = evolve_covariance(series, store_every=1,
                                 include_noise=include_noise)

        def rhs(c, j, out):
            s, q = dense_operators(series, j)
            out[:] = s @ c + c @ s.T + (q if include_noise else 0.0)

        c0 = initial_covariance(series.spec, 5)
        expect = np.asarray([c0] + list(rk4(rhs, c0, series.dt, 0,
                                            series.n_steps)))
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(traj.covariances - expect)) < 1e-13 * scale

    @pytest.mark.parametrize("name", KERNELS)
    def test_half_step_vectors_match_definitions(self, name):
        spec = kernel_spec(KERNELS[name])
        series = PanelSeries(spec, 6, 0.1, 1.0)
        u = sites(6)
        lam = spec.lam(u[:, None], u[None, :])
        psi = spec.psi(u)
        rho1, rho0 = series.density.rho1, series.density.rho0
        assert rho1.shape == (2 * series.n_steps + 1, 6)
        for j in range(rho1.shape[0]):
            np.testing.assert_allclose(series.kappa1[j], lam @ rho1[j] / 6,
                                       rtol=1e-14)
            np.testing.assert_array_equal(series.b2[j], psi * rho1[j])
            np.testing.assert_array_equal(series.alpha2[j],
                                          rho0[j] * series.kappa1[j])

    @pytest.mark.parametrize("name", KERNELS)
    def test_noise_amplitudes_nonnegative(self, name):
        # b2, alpha2 >= 0 make Q = M [[b2 + a2, -a2], [-a2, a2]] (diagonal
        # blocks) positive semidefinite
        series = PanelSeries(kernel_spec(KERNELS[name]), 5, 0.1, 1.0)
        assert series.b2.min() >= 0.0 and series.alpha2.min() >= 0.0
        for j in (0, 2 * series.n_steps):
            _, q = dense_operators(series, j)
            assert np.linalg.eigvalsh(q).min() > -1e-12

    def test_no_kernel_evaluation_after_setup(self, monkeypatch):
        series = PanelSeries(kernel_spec(KERNELS["table"]), 6, 0.1, 1.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("kernel evaluated after set-up")

        for name in ("__call__", "site_matrix", "node_average"):
            monkeypatch.setattr(Kernel, name, forbidden)
        evolve_covariance(series)
        propagate(series, 0.2, 1.0)
        adjoint_pair_covariance(series, ONE, ONE)


class TestPropagator:
    def test_identity_at_equal_times(self):
        series = PanelSeries(hetero_spec(), 4, 0.05, 1.0)
        np.testing.assert_array_equal(propagate(series, 0.5, 0.5), np.eye(8))

    def test_cocycle_property(self):
        series = PanelSeries(hetero_spec(), 6, 0.02, 1.0)
        full = propagate(series, 0.0, 1.0)
        split = propagate(series, 0.5, 1.0) @ propagate(series, 0.0, 0.5)
        assert np.max(np.abs(full - split)) < 1e-10

    def test_backward_propagation_rejected(self):
        series = PanelSeries(hetero_spec(), 4, 0.05, 1.0)
        with pytest.raises(ValueError):
            propagate(series, 0.5, 0.2)

    def test_off_grid_time_rejected(self):
        series = PanelSeries(hetero_spec(), 4, 0.1, 1.0)
        with pytest.raises(ValueError, match="not on the evolution grid"):
            propagate(series, 0.123, 0.5)

    def test_noise_free_evolution_is_flow_conjugation(self):
        # the two integrations only agree to integrator order; the defect
        # shrinks like dt^4
        series = PanelSeries(hetero_spec(), 5, 0.005, 1.0)
        traj = evolve_covariance(series, include_noise=False)
        flow = propagate(series, 0.0, 1.0)
        c0 = initial_covariance(series.spec, 5)
        expect = flow @ c0 @ flow.T
        assert np.max(np.abs(traj.at(1.0) - expect)) < 1e-9


class TestCovariance:
    def test_initial_structure(self):
        spec = hetero_spec()
        c0 = initial_covariance(spec, 4)
        phi = spec.phi.at_sites(4)
        d = np.diag(4 * phi * (1 - phi))
        np.testing.assert_array_equal(c0[:4, :4], d)
        np.testing.assert_array_equal(c0[:4, 4:], -d)
        np.testing.assert_array_equal(c0[4:, 4:], d)
        # beta_0 = -eta_0 makes the block matrix singular but PSD
        eigs = np.linalg.eigvalsh(c0)
        assert eigs.min() > -1e-12

    def test_initial_pairing_half_half(self):
        # phi = 1/2, f = g = 1: Var eta = Var beta = 1/4, Cov = -1/4
        spec = flat_spec(phi0=0.5)
        c0 = initial_covariance(spec, 8)
        v = pair_covariance(c0, ONE, ONE, 8)
        np.testing.assert_allclose(
            v, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14
        )

    def test_pure_recovery_matches_independent_urns(self):
        # lambda = 0: urns decouple and Var eta_t(f) is the node average of
        # f^2 p_t (1 - p_t) with p_t = phi e^(-psi t)
        spec = ModelSpec(
            lam=Kernel.constant(0.0),
            psi=ScalarField.affine(0.5, 1.0),
            phi=ScalarField.table([0.1, 0.6, 0.3, 0.8]),
            N=8,
            T=1.0,
        )
        m = 16
        series = PanelSeries(spec, m, 1e-3, 1.0)
        traj = evolve_covariance(series)
        f = ScalarField.affine(0.5, 1.0)
        fv = f.at_sites(m)
        u = np.arange(1, m + 1) / m
        p_t = spec.phi(u) * np.exp(-spec.psi(u) * 1.0)
        var_expect = float(np.mean(fv**2 * p_t * (1 - p_t)))
        v = pair_covariance(traj.at(1.0), f, f, m)
        assert abs(v[0, 0] - var_expect) < 1e-6
        # susceptibles frozen: Var beta stays at its initial value
        q0 = float(np.mean(fv**2 * spec.phi(u) * (1 - spec.phi(u))))
        assert abs(v[1, 1] - q0) < 1e-10
        # Cov(eta_t, beta_t) = -node avg of f^2 p_t (1 - phi)
        cov_expect = -float(np.mean(fv**2 * p_t * (1 - spec.phi(u))))
        assert abs(v[0, 1] - cov_expect) < 1e-6

    def test_homogeneous_reduction_matches_closed_system(self):
        lam0, phi0 = 1.7, 0.3
        spec = flat_spec(lam0=lam0, phi0=phi0, T=1.0)
        series = PanelSeries(spec, 16, 1e-3, 1.0)
        traj = evolve_covariance(series)
        ref = classic_clt_covariance(lam0, phi0, 1.0, 1e-3)
        for t in (0.0, 0.5, 1.0):
            ours = pair_covariance(traj.at(t), ONE, ONE, 16)
            theirs = ref.covariance[ref.at(t)]
            assert np.max(np.abs(ours - theirs)) < 1e-8

    def test_trajectory_symmetry_and_psd_enforced(self):
        series = PanelSeries(hetero_spec(), 8, 1e-2, 1.0)
        traj = evolve_covariance(series)
        for c in traj.covariances:
            assert np.max(np.abs(c - c.T)) < 1e-8
            assert np.linalg.eigvalsh(c).min() > -1e-8
        bad = np.eye(4)
        bad[0, 1] = 1e6
        with pytest.raises(ValueError):
            CovarianceTrajectory(times=[0.0], covariances=[bad], m=2)
        with pytest.raises(ValueError):
            CovarianceTrajectory(
                times=[0.0], covariances=[-np.eye(4)], m=2
            )

    def test_coarse_step_noise_free_solve_accepted(self):
        # at dt = 0.05 RK4 moves the zero eigenvalues of the singular C(0)
        # to -1.4e-8, below a fixed floor of -1e-8 but well inside dt^4
        spec = ModelSpec(
            lam=Kernel.constant(1.7), psi=ScalarField.affine(0.7, 0.4),
            phi=ScalarField.affine(0.2, 0.3), N=5, T=1.0,
        )
        traj = evolve_covariance(PanelSeries(spec, 5, 0.05, 1.0),
                                 include_noise=False)
        assert traj.dt == 0.05
        low = min(np.linalg.eigvalsh(c)[0] for c in traj.covariances)
        assert -0.05**4 < low < -1e-8

    def test_store_every_and_at(self):
        series = PanelSeries(hetero_spec(), 4, 0.1, 1.0)
        traj = evolve_covariance(series, store_every=5)
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0], atol=1e-12)
        with pytest.raises(ValueError):
            traj.at(0.3)
        # a stride that does not divide the steps still stores T last
        every = evolve_covariance(series, store_every=1)
        traj = evolve_covariance(series, store_every=3)
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0],
                                   atol=1e-12)
        for t, c in zip(traj.times, traj.covariances):
            np.testing.assert_array_equal(c, every.at(t))
        with pytest.raises(ValueError, match="store_every"):
            evolve_covariance(series, store_every=0)

    def test_bad_initial_shape_rejected(self):
        series = PanelSeries(hetero_spec(), 4, 0.1, 1.0)
        # the X + X^T step needs a symmetric C(0)
        asymmetric = initial_covariance(series.spec, 4)
        asymmetric[0, 5] += 0.5
        for c0 in (np.eye(3), asymmetric):
            with pytest.raises(ValueError):
                evolve_covariance(series, c0=c0)


EIGVALSH = np.linalg.eigvalsh


def eigvalsh_check(times, covs, dt=0.0):
    """The error of the symmetry and PSD check by eigvalsh alone, or None."""
    covs = np.asarray(covs, dtype=float)
    scale = max(1.0, float(max(covs.max(), -covs.min())))
    floor = min(-1e-8, -dt**4) * scale
    for t, c in zip(times, covs):
        if float(np.max(np.abs(c - c.T))) / scale > 1e-10:
            return f"covariance at t={t} not symmetric"
        low = float(EIGVALSH((c + c.T) / 2.0)[0])
        if low < floor:
            return f"covariance at t={t} has eigenvalue {low:.3e}"
    return None


def with_least_eigenvalue(low, asym=0.0):
    """4 x 4 (M = 2) symmetric C with eigenvalues (low, 0.2, 0.5, 1): max |C|
    is below 1, so the PSD floor is -1e-8; ``asym`` is added to C[0, 1]."""
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    c = (q * [low, 0.2, 0.5, 1.0]) @ q.T
    c = (c + c.T) / 2.0
    c[0, 1] += asym
    return c


class TestPsdCheck:
    """The Cholesky fast path accepts and rejects what eigvalsh alone does."""

    def test_above_half_the_floor_needs_no_eigenvalues(self, monkeypatch):
        def refuse(c):
            raise AssertionError("eigvalsh ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for low in (-0.4e-8, 0.0, 1e-3):
            CovarianceTrajectory(times=[0.0],
                                 covariances=[with_least_eigenvalue(low)], m=2)

    def test_between_floor_and_half_floor_is_accepted_by_eigvalsh(
            self, monkeypatch):
        # C + (|floor| / 2) I has no Cholesky factor, so eigvalsh decides
        calls = []

        def spy(c):
            calls.append(c)
            return EIGVALSH(c)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for low in (-0.75e-8, -0.99e-8):
            CovarianceTrajectory(times=[0.0],
                                 covariances=[with_least_eigenvalue(low)], m=2)
        assert len(calls) == 2

    def test_just_below_the_floor_is_rejected(self):
        with pytest.raises(ValueError, match="has eigenvalue -1.010e-08"):
            CovarianceTrajectory(
                times=[0.0], covariances=[with_least_eigenvalue(-1.01e-8)],
                m=2)

    def test_verdicts_and_errors_are_those_of_eigvalsh(self):
        lows = [-1e-6, -2e-8, -1.01e-8, -1.0000001e-8, -0.9999999e-8,
                -0.99e-8, -0.75e-8, -0.5000001e-8, -0.4999999e-8, -0.4e-8,
                0.0, 1e-3]
        cases = [[with_least_eigenvalue(low)] for low in lows]
        # asymmetric within and beyond the tolerance, and a scaled copy
        cases += [[with_least_eigenvalue(-0.99e-8, asym=5e-11)],
                  [with_least_eigenvalue(-1.01e-8, asym=5e-11)],
                  [with_least_eigenvalue(0.1, asym=2e-10)],
                  [50.0 * with_least_eigenvalue(-0.7e-8)],
                  [with_least_eigenvalue(0.1), with_least_eigenvalue(-2e-8)]]
        for covs in cases:
            times = [0.5 * k for k in range(len(covs))]
            for dt in (0.0, 0.02):
                want = eigvalsh_check(times, covs, dt)
                try:
                    CovarianceTrajectory(times=times, covariances=covs, m=2,
                                         dt=dt)
                    got = None
                except ValueError as err:
                    got = str(err)
                assert got == want

    def test_solved_trajectories_are_exactly_symmetric(self):
        # the fast path of the symmetry test: X + X^T from a symmetric C(0)
        traj = evolve_covariance(PanelSeries(hetero_spec(), 8, 1e-2, 1.0))
        for c in traj.covariances:
            assert np.array_equal(c, c.T)


class TestOutputs:
    def test_covariance_csv_schema(self, tmp_path):
        series = PanelSeries(hetero_spec(), 3, 0.25, 0.5)
        traj = evolve_covariance(series, store_every=2)
        path = tmp_path / "cov.csv"
        write_covariance_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "block", "row_u", "col_u", "value"]
        assert len(rows) == 1 + traj.times.size * 3 * 9
        blocks = {r[1] for r in rows[1:]}
        assert blocks == {"ee", "eb", "bb"}
        # spot check one entry against the matrix
        last = traj.covariances[-1]
        row = rows[-1]
        assert float(row[4]) == pytest.approx(last[5, 5], rel=1e-10)

    @pytest.mark.parametrize("m, times", [(1, TIMES), (3, TIMES),
                                          (1, [0.1 * 3]), (3, [1 / 3])])
    def test_covariance_csv_bytes(self, tmp_path, m, times):
        """Bytes of csv.writer rows: time, row_u, col_u %.10g; value %.12g."""
        traj = awkward_trajectory(m, times)
        path = tmp_path / "cov.csv"
        write_covariance_csv(traj, path)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["time", "block", "row_u", "col_u", "value"])
        nodes = sites(m)
        for t, c in zip(times, traj.covariances):
            for name, r0, c0 in (("ee", 0, 0), ("eb", 0, m), ("bb", m, m)):
                for a in range(m):
                    for b in range(m):
                        writer.writerow([f"{t:.10g}", name, f"{nodes[a]:.10g}",
                                         f"{nodes[b]:.10g}",
                                         f"{c[r0 + a, c0 + b]:.12g}"])
        assert path.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("m, times", [(1, TIMES), (3, [1 / 3])])
    def test_pair_csv_bytes(self, tmp_path, m, times):
        traj = awkward_trajectory(m, times)
        path = tmp_path / "pairs.csv"
        write_pair_csv(traj, ONE, ONE, path)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["time", "var_eta_f", "cov_eta_beta", "var_beta_g"])
        for t, c in zip(times, traj.covariances):
            v = pair_covariance(c, ONE, ONE, m)
            writer.writerow([f"{t:.10g}", f"{v[0, 0]:.12g}",
                             f"{v[0, 1]:.12g}", f"{v[1, 1]:.12g}"])
        assert path.read_bytes() == buf.getvalue().encode()

    def test_pair_csv_schema(self, tmp_path):
        series = PanelSeries(flat_spec(), 4, 0.25, 0.5)
        traj = evolve_covariance(series, store_every=1)
        path = tmp_path / "pairs.csv"
        write_pair_csv(traj, ONE, ONE, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "var_eta_f", "cov_eta_beta", "var_beta_g"]
        assert len(rows) == 1 + traj.times.size
        v = pair_covariance(traj.at(0.5), ONE, ONE, 4)
        assert float(rows[-1][1]) == pytest.approx(v[0, 0], rel=1e-10)
        assert float(rows[-1][2]) == pytest.approx(v[0, 1], rel=1e-10)
        assert float(rows[-1][3]) == pytest.approx(v[1, 1], rel=1e-10)


class TestAdjointPairing:
    # the constant and the table models of acceptance checks 06 and 11, on
    # a 32-node grid at their dt, so that the dense solve stays cheap
    MODELS = {
        "constant": ModelSpec(
            lam=Kernel.constant(2.0), psi=ScalarField.constant(1.0),
            phi=ScalarField.constant(0.2), N=2000, T=1.0,
        ),
        "table": ModelSpec(
            lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4],
                              [1.4, 2.6, 3.0]]),
            psi=ScalarField.affine(0.5, 1.0),
            phi=ScalarField.affine(0.1, 0.4), N=200, T=1.0,
        ),
    }

    @pytest.mark.parametrize("name", MODELS)
    def test_matches_the_dense_lyapunov_pairing(self, name):
        series = PanelSeries(self.MODELS[name], 32, 1e-3, 1.0)
        last = evolve_covariance(series, store_every=series.n_steps)
        affine = ScalarField.affine(0.5, 1.0)
        for f, g in ((ONE, ONE), (affine, affine), (ONE, affine)):
            dense = pair_covariance(last.covariances[-1], f, g, 32)
            np.testing.assert_allclose(adjoint_pair_covariance(series, f, g),
                                       dense, rtol=1e-12, atol=0.0)

    def test_zero_horizon_is_the_initial_pairing(self):
        series = PanelSeries(hetero_spec(), 6, 0.1, 0.0)
        f = ScalarField.affine(0.3, 0.9)
        np.testing.assert_allclose(
            adjoint_pair_covariance(series, f, ONE),
            pair_covariance(initial_covariance(series.spec, 6), f, ONE, 6),
            rtol=1e-14,
        )
