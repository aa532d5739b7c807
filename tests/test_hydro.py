import csv
import io

import numpy as np
import pytest

from urnsir.fields import Kernel, ScalarField, sites
from urnsir.hydro import (
    DensityBoundsError,
    DensityField,
    GridSpec,
    density_residual,
    solve_density,
    write_density_csv,
    _solve_grids,
)
from urnsir.model import ModelSpec
from urnsir.rk4 import time_steps


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


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(M=0, dt=0.1, T=1.0)
        with pytest.raises(ValueError):
            GridSpec(M=4, dt=0.0, T=1.0)
        with pytest.raises(ValueError):
            GridSpec(M=4, dt=0.1, T=-1.0)

    def test_step_rounding(self):
        grid = GridSpec(M=4, dt=0.3, T=1.0)
        assert grid.n_steps() == 3
        assert grid.step() == pytest.approx(1.0 / 3.0)

    def test_zero_horizon(self):
        assert GridSpec(M=4, dt=0.1, T=0.0).n_steps() == 0


class TestDensityField:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            DensityField(
                times=[0.0, 0.0], rho1=np.zeros((2, 3)), rho0=np.zeros((2, 3))
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityField(
                times=[0.0, 1.0], rho1=np.zeros((2, 3)), rho0=np.zeros((2, 4))
            )

    def test_index_of_off_grid(self):
        field = DensityField(
            times=[0.0, 1.0], rho1=np.zeros((2, 2)), rho0=np.ones((2, 2))
        )
        assert field.index_of(1.0) == 1
        with pytest.raises(ValueError):
            field.index_of(0.37)

    def test_node_integral_hand_value(self):
        field = DensityField(
            times=[0.0, 0.5],
            rho1=[[0.2, 0.4], [0.1, 0.3]],
            rho0=[[0.8, 0.6], [0.8, 0.6]],
        )
        # nodes 1/2, 1 with f(u) = u: (0.2*0.5 + 0.4*1.0)/2
        assert field.node_integral(0.0, ScalarField.affine(0.0, 1.0)) == (
            pytest.approx(0.25)
        )
        assert field.total_infected(0.5) == pytest.approx(0.2)


class TestClosedForms:
    def test_pure_recovery_is_exponential(self):
        # lambda = 0 decouples the nodes: rho1(t, u) = phi(u) exp(-psi(u) t)
        spec = ModelSpec(
            lam=Kernel.constant(0.0),
            psi=ScalarField.affine(0.5, 1.0),
            phi=ScalarField.table([0.1, 0.6, 0.3, 0.8]),
            N=8,
            T=2.0,
        )
        field = solve_density(spec, GridSpec(M=16, dt=1e-3, T=2.0))
        u = field.nodes()
        for t in (0.5, 1.3, 2.0):
            expect = spec.phi(u) * np.exp(-spec.psi(u) * t)
            err = np.max(np.abs(field.rho1[field.index_of(t)] - expect))
            assert err < 1e-10
        assert np.max(np.abs(field.rho0 - (1.0 - spec.phi(u))[None, :])) < 1e-12

    def test_pure_infection_is_logistic(self):
        # psi = 0, constant kernel, flat phi: total infected follows the
        # logistic curve phi0 e^(l t) / (1 - phi0 + phi0 e^(l t))
        lam0, phi0 = 1.8, 0.35
        spec = ModelSpec(
            lam=Kernel.constant(lam0),
            psi=ScalarField.constant(0.0),
            phi=ScalarField.constant(phi0),
            N=8,
            T=2.0,
        )
        field = solve_density(spec, GridSpec(M=8, dt=1e-3, T=2.0))
        for t in (0.4, 1.0, 2.0):
            e = np.exp(lam0 * t)
            expect = phi0 * e / (1.0 - phi0 + phi0 * e)
            assert abs(field.total_infected(t) - expect) < 1e-8


class TestAccuracy:
    def test_time_step_order_four(self):
        spec = hetero_spec(T=1.0)
        ref = solve_density(spec, GridSpec(M=8, dt=1e-4, T=1.0))
        r_ref = ref.rho1[-1]
        errs = []
        dts = (0.2, 0.1, 0.05, 0.025)
        for dt in dts:
            sol = solve_density(spec, GridSpec(M=8, dt=dt, T=1.0))
            errs.append(np.max(np.abs(sol.rho1[-1] - r_ref)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 4.0) < 0.3

    def test_node_refinement_first_order_generic(self):
        # right-endpoint node sums converge like 1/M on smooth data
        spec = hetero_spec(T=1.0)
        dt = 2e-3
        ref = solve_density(spec, GridSpec(M=2048, dt=dt, T=1.0))
        ms = (32, 64, 128, 256)
        errs = []
        for m in ms:
            sol = solve_density(spec, GridSpec(M=m, dt=dt, T=1.0))
            stride = 2048 // m
            errs.append(
                np.max(np.abs(sol.rho1[-1] - ref.rho1[-1][stride - 1 :: stride]))
            )
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert abs(slope + 1.0) < 0.25

    def test_node_refinement_second_order_matched(self):
        # when every v-profile takes the same value at the clamp node and at
        # 1, the leading endpoint term of the node sum cancels
        h2 = ScalarField.table([0.4, 0.9, 1.3, 0.9, 0.4, 0.4, 0.7, 0.4])
        spec = ModelSpec(
            lam=Kernel.separable(ScalarField.constant(1.1), h2),
            psi=ScalarField.constant(0.8),
            phi=ScalarField.table([0.30, 0.45, 0.6, 0.45, 0.30, 0.30, 0.38, 0.30]),
            N=10,
            T=1.0,
        )
        dt = 2e-3
        ref = solve_density(spec, GridSpec(M=2048, dt=dt, T=1.0))
        ms = (32, 64, 128, 256)
        errs = []
        for m in ms:
            sol = solve_density(spec, GridSpec(M=m, dt=dt, T=1.0))
            stride = 2048 // m
            errs.append(
                np.max(np.abs(sol.rho1[-1] - ref.rho1[-1][stride - 1 :: stride]))
            )
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert abs(slope + 2.0) < 0.3


class TestInvariants:
    def test_bounds_and_monotone_susceptibles(self):
        field = solve_density(hetero_spec(T=2.0), GridSpec(M=32, dt=1e-3, T=2.0))
        assert field.rho1.min() >= -1e-8
        assert field.rho0.min() >= -1e-8
        assert (field.rho1 + field.rho0).max() <= 1.0 + 1e-8
        assert np.all(np.diff(field.rho0, axis=0) <= 1e-8)

    def test_mass_balance(self):
        # d/dt mean(rho1 + rho0) = -mean(psi rho1)
        spec = hetero_spec(T=2.0)
        field = solve_density(spec, GridSpec(M=32, dt=1e-3, T=2.0))
        psi_v = spec.psi.at_sites(32)
        mass = (field.rho1 + field.rho0).mean(axis=1)
        sink = (psi_v[None, :] * field.rho1).mean(axis=1)
        trapz = getattr(np, "trapezoid", None) or np.trapz
        drained = trapz(sink, field.times)
        assert abs((mass[0] - mass[-1]) - drained) < 1e-7

    def test_unstable_step_raises(self):
        spec = ModelSpec(
            lam=Kernel.constant(0.0),
            psi=ScalarField.constant(60.0),
            phi=ScalarField.constant(0.5),
            N=4,
            T=1.0,
        )
        with pytest.raises(DensityBoundsError):
            solve_density(spec, GridSpec(M=4, dt=0.1, T=1.0))

    def test_residual_small_for_solution(self):
        spec = hetero_spec(T=1.0)
        field = solve_density(spec, GridSpec(M=16, dt=1e-3, T=1.0))
        assert density_residual(field, spec) < 1e-4

    def test_residual_needs_three_times(self):
        field = DensityField(
            times=[0.0, 1.0], rho1=np.zeros((2, 2)), rho0=np.ones((2, 2))
        )
        with pytest.raises(ValueError):
            density_residual(field, hetero_spec())


def test_density_csv_round_trip(tmp_path):
    spec = hetero_spec(T=0.5)
    field = solve_density(spec, GridSpec(M=3, dt=0.25, T=0.5))
    path = tmp_path / "density.csv"
    write_density_csv(field, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "node_u", "rho1", "rho0"]
    assert len(rows) == 1 + field.times.size * 3
    t, u, r1, r0 = map(float, rows[-1])
    assert t == pytest.approx(0.5)
    assert u == pytest.approx(1.0)
    assert r1 == pytest.approx(field.rho1[-1, -1], rel=1e-10)
    assert r0 == pytest.approx(field.rho0[-1, -1], rel=1e-10)


# negative zero, subnormals, values >= 1e16, digits that %.11g would drop,
# and 0.1 * 3 = 0.30000000000000004, which %.10g prints as 0.3
AWKWARD = [1 / 3, -0.0, 5e-324, 2.5e-310, 1e16, 1.2345678901234567e20,
           0.1 * 3, -2 / 3, 0.0, np.inf, -np.inf, np.nan]
TIMES = [0.1 * k for k in range(4)] + [1 / 3, 1e16]


@pytest.mark.parametrize("m, times", [(1, TIMES), (5, TIMES),
                                      (1, [0.1 * 3]), (5, [1 / 3])])
def test_density_csv_bytes(tmp_path, m, times):
    """Bytes of csv.writer rows: time and node_u %.10g, rho %.12g, CRLF."""
    shape = (len(times), m)
    field = DensityField(times=times, rho1=np.resize(AWKWARD, shape),
                         rho0=np.resize(AWKWARD[::-1], shape))
    path = tmp_path / "density.csv"
    write_density_csv(field, path)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["time", "node_u", "rho1", "rho0"])
    for k, t in enumerate(times):
        for j, u in enumerate(sites(m)):
            writer.writerow([f"{t:.10g}", f"{u:.10g}",
                             f"{field.rho1[k, j]:.12g}",
                             f"{field.rho0[k, j]:.12g}"])
    assert path.read_bytes() == buf.getvalue().encode()


def textbook_density(spec, m, dt, T):
    """(n+1, 2, M) states of the density ODE by the textbook RK4 formulas,
    a new array for every stage, in the operation order of rk4."""
    n, h = time_steps(T, dt)
    psi = spec.psi.at_sites(m)

    def f(y):
        force = spec.lam.node_average(y[0])
        return np.array([-psi * y[0] + y[1] * force, -y[1] * force])

    phi = spec.phi.at_sites(m)
    y = np.array([phi, 1.0 - phi])
    states = [y]
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(y)
    return np.array(states)


@pytest.mark.parametrize("ms", [(7, 13, 401, 1000), (50, 200, 800)])
def test_grids_solved_together_equal_their_own_solves(ms):
    # the lln ladder steps all rungs as one state; each rung's field must
    # be the one the textbook formulas give on its grid alone, bit for bit
    spec = ModelSpec(
        lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]),
        psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.4),
        N=10,
        T=1.0,
    )
    fields = _solve_grids(spec, ms, 0.02, 1.0)
    assert [field.m for field in fields] == list(ms)
    for m, field in zip(ms, fields):
        want = textbook_density(spec, m, 0.02, 1.0)
        assert np.array_equal(field.rho1, want[:, 0])
        assert np.array_equal(field.rho0, want[:, 1])
        alone = solve_density(spec, GridSpec(M=m, dt=0.02, T=1.0))
        assert np.array_equal(field.times, alone.times)
        assert np.array_equal(field.rho1, alone.rho1)


@pytest.mark.parametrize("store_every", [1, 3, 7, 50, 64, 65, 1000])
def test_stored_steps_are_those_of_the_full_solve(store_every):
    # lln_report keeps only times 0 and t (store_every = all steps); any
    # stride keeps step 0, every store_every-th step and the last step,
    # each the full solve's state bit for bit
    spec = ModelSpec(
        lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]),
        psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.4),
        N=10,
        T=1.0,
    )
    ms = (50, 200, 800)
    full = _solve_grids(spec, ms, 1e-3, 1.0)
    kept = _solve_grids(spec, ms, 1e-3, 1.0, store_every=store_every)
    steps = sorted(set(range(0, 1001, store_every)) | {1000})
    for whole, part in zip(full, kept):
        assert np.array_equal(part.times, whole.times[steps])
        assert np.array_equal(part.rho1, whole.rho1[steps])
        assert np.array_equal(part.rho0, whole.rho0[steps])
        assert part.node_integral(1.0, ScalarField.constant(1.0)) == (
            whole.node_integral(1.0, ScalarField.constant(1.0)))
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="store_every"):
            _solve_grids(spec, ms, 1e-3, 1.0, store_every=bad)


def test_bounds_are_checked_on_steps_that_are_not_stored():
    # at this coarse step rho0 runs 0.5, 0.203, 0.317, 0.244: it rises at
    # step 2, while the two stored steps 0 and 3 are in order
    spec = ModelSpec(
        lam=Kernel.constant(10.0),
        psi=ScalarField.constant(0.1),
        phi=ScalarField.constant(0.5),
        N=4,
        T=1.0,
    )
    with pytest.raises(DensityBoundsError, match="nonincreasing"):
        _solve_grids(spec, (4,), 0.3, 1.0, store_every=3)
