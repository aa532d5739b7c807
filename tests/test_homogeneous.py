import numpy as np
import pytest

from urnsir.fields import Kernel, ScalarField
from urnsir.homogeneous import classic_clt_covariance
from urnsir.hydro import GridSpec, solve_density
from urnsir.model import ModelSpec
from urnsir.rk4 import rk4, time_steps


def test_input_validation():
    with pytest.raises(ValueError):
        classic_clt_covariance(1.0, 1.2, 1.0, 0.01)
    with pytest.raises(ValueError):
        classic_clt_covariance(-1.0, 0.5, 1.0, 0.01)
    with pytest.raises(ValueError):
        classic_clt_covariance(1.0, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        classic_clt_covariance(1.0, 0.5, -1.0, 0.01)


def test_no_infection_decays_exponentially():
    state = classic_clt_covariance(0.0, 0.4, 2.0, 1e-3)
    k = state.at(2.0)
    assert state.infected[k] == pytest.approx(0.4 * np.exp(-2.0), abs=1e-12)
    assert state.susceptible[k] == pytest.approx(0.6, abs=1e-14)


def test_total_mass_never_grows():
    state = classic_clt_covariance(2.5, 0.2, 5.0, 1e-3)
    total = state.infected + state.susceptible
    assert np.all(np.diff(total) <= 1e-12)
    assert np.all(state.infected >= -1e-12)
    assert np.all(np.diff(state.susceptible) <= 1e-12)


def test_at_rejects_off_grid_times():
    state = classic_clt_covariance(1.0, 0.5, 1.0, 0.25)
    assert state.at(0.75) == 3
    with pytest.raises(ValueError):
        state.at(0.3)


def test_matches_flat_density_solver_exactly():
    # a constant-input density solve on any node grid reduces to the same
    # 2-d system, step for step
    lam0, phi0, T, dt = 1.7, 0.3, 2.0, 0.01
    spec = ModelSpec(
        lam=Kernel.constant(lam0),
        psi=ScalarField.constant(1.0),
        phi=ScalarField.constant(phi0),
        N=8,
        T=T,
    )
    field = solve_density(spec, GridSpec(M=16, dt=dt, T=T))
    state = classic_clt_covariance(lam0, phi0, T, dt)
    np.testing.assert_array_equal(field.rho1, np.tile(state.infected[:, None], 16))
    np.testing.assert_array_equal(field.rho0, np.tile(state.susceptible[:, None], 16))


def test_covariance_structure():
    state = classic_clt_covariance(2.0, 0.3, 1.5, 1e-3)
    cov = state.covariance
    assert cov is not None and cov.shape == (state.times.size, 2, 2)
    q = 0.3 * 0.7
    np.testing.assert_allclose(cov[0], [[q, -q], [-q, q]], atol=1e-15)
    # symmetric and PSD along the way
    assert np.max(np.abs(cov - cov.transpose(0, 2, 1))) < 1e-12
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() > -1e-10


def test_covariance_no_infection_closed_form():
    # lam0 = 0: the infected fluctuation is a pure death branch with
    # Var eta_t = phi0 e^(-t) (1 - phi0 e^(-t)); susceptibles stay frozen
    phi0 = 0.4
    state = classic_clt_covariance(0.0, phi0, 2.0, 1e-3)
    k = state.at(2.0)
    p = phi0 * np.exp(-2.0)
    assert state.covariance[k, 0, 0] == pytest.approx(p * (1 - p), abs=1e-9)
    assert state.covariance[k, 1, 1] == pytest.approx(phi0 * (1 - phi0), abs=1e-12)
    assert state.covariance[k, 0, 1] == pytest.approx(
        -p * (1 - phi0), abs=1e-9
    )


def test_covariance_trajectory_matches_fraction_solver():
    # the covariance rows do not feed back: the fractions are those of an
    # RK4 solve of the fractions alone, bit for bit
    lam0, phi0 = 1.3, 0.25

    def fractions(y, j, out):
        i, s = y
        flux = lam0 * i * s
        out[0] = -i + flux
        out[1] = -flux

    n, h = time_steps(1.0, 0.01)
    alone = np.array([[phi0, 1.0 - phi0],
                      *rk4(fractions, [phi0, 1.0 - phi0], h, 0, n)])
    b = classic_clt_covariance(lam0, phi0, 1.0, 0.01)
    np.testing.assert_array_equal(alone[:, 0], b.infected)
    np.testing.assert_array_equal(alone[:, 1], b.susceptible)


def test_step_order_four():
    # measured order runs slightly hot (~4.25) before the asymptotic regime;
    # the band only needs to rule out a dropped-stage regression
    # the reference's own error, about 2e-15 at dt = 1e-4, is under 1 % of
    # the smallest measured one (6e-13)
    ref = classic_clt_covariance(2.0, 0.3, 1.0, 1e-4)
    i_ref = ref.infected[-1]
    dts = (0.1, 0.05, 0.025, 0.0125)
    errs = [abs(classic_clt_covariance(2.0, 0.3, 1.0, dt).infected[-1] - i_ref)
            for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.5
