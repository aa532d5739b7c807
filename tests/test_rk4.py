import numpy as np
import pytest

from urnsir.fields import Kernel, ScalarField
from urnsir.fluctuation import PanelSeries
from urnsir.homogeneous import classic_clt_covariance
from urnsir.hydro import GridSpec, solve_density
from urnsir.model import ModelSpec
from urnsir.rk4 import rk4, time_index, time_steps


def small_spec():
    return ModelSpec(
        lam=Kernel.constant(1.5), psi=ScalarField.constant(1.0),
        phi=ScalarField.constant(0.2), N=4, T=1.0,
    )


def test_half_step_index_is_time_over_half_step():
    # y' = cos(t) read through f(y, j, out) at t = j*h/2; a wrong
    # convention (say t = j*h) would not converge to sin(1) at all
    errors = []
    dts = (0.1, 0.05, 0.025, 0.0125)
    for dt in dts:
        n, h = time_steps(1.0, dt)

        def f(y, j, out):
            out[:] = np.cos(j * h / 2.0)

        for y in rk4(f, np.zeros(1), h, 0, n):
            pass
        errors.append(abs(y[0] - np.sin(1.0)))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.5)


def test_steps_are_the_textbook_formulas_bit_for_bit():
    # the in-place stages and update keep the operation order of
    # y + (h/6) (k1 + 2 k2 + 2 k3 + k4) with stage inputs y + (c h) k
    rng = np.random.default_rng(5)
    mix = rng.normal(size=(3, 3))
    h = 0.0731

    def g(y, j):
        return mix @ np.sin(y) + 0.01 * j - y**2

    y0 = rng.normal(size=3)
    y = y0
    want = []
    for k in range(4):
        k1 = g(y, 2 * k)
        k2 = g(y + 0.5 * h * k1, 2 * k + 1)
        k3 = g(y + 0.5 * h * k2, 2 * k + 1)
        k4 = g(y + h * k3, 2 * k + 2)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        want.append(y)

    def f(y, j, out):
        out[:] = g(y, j)

    got = list(rk4(f, y0, h, 0, 4))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len({id(y) for y in got}) == len(got)  # a new array per step


def test_start_offsets_the_half_step_index():
    seen = []

    def f(y, j, out):
        seen.append(j)
        out[:] = 0.0

    list(rk4(f, np.zeros(1), 0.1, 3, 5))
    assert seen == [6, 7, 7, 8, 8, 9, 9, 10]


@pytest.mark.parametrize("T,dt,n,h", [
    (1.0, 0.3, 3, 1.0 / 3.0),
    (0.7, 0.1, 7, 0.1),
    (1.0, 0.4, 2, 0.5),  # T/dt = 2.5 rounds half to even
    (0.05, 0.1, 1, 0.05),  # never fewer than one step on T > 0
    (2.0, 3.0, 1, 2.0),
    (0.0, 0.1, 0, 0.1),  # T = 0: no steps, h is dt
])
def test_solvers_share_the_time_grid(T, dt, n, h):
    assert time_steps(T, dt) == (n, pytest.approx(h, rel=1e-15))
    grid = GridSpec(M=3, dt=dt, T=T)
    assert grid.n_steps() == n
    assert np.array_equal(solve_density(small_spec(), grid).times,
                          np.arange(n + 1) * time_steps(T, dt)[1])
    series = PanelSeries(small_spec(), 3, dt, T)
    assert (series.n_steps, series.dt) == time_steps(T, dt)
    assert series.density.times.size == 2 * n + 1
    state = classic_clt_covariance(1.5, 0.2, T, dt)
    assert np.array_equal(state.times, np.arange(n + 1) * time_steps(T, dt)[1])


@pytest.mark.parametrize("T,dt", [
    (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf),
    (-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
])
def test_invalid_grid_raises_everywhere(T, dt):
    with pytest.raises(ValueError):
        time_steps(T, dt)
    with pytest.raises(ValueError):
        GridSpec(M=3, dt=dt, T=T)
    with pytest.raises(ValueError):
        PanelSeries(small_spec(), 3, dt, T)
    with pytest.raises(ValueError):
        classic_clt_covariance(1.5, 0.2, T, dt)


def test_time_index_tolerance():
    times = np.arange(11) * 0.1
    assert time_index(times, 0.3) == 3
    assert time_index(times, 0.3 + 1e-12) == 3
    assert time_index((0.5, 0.5, 1.0), 0.5) == 0
    with pytest.raises(ValueError, match="not among the stored times"):
        time_index(times, 0.35)
    with pytest.raises(ValueError):
        time_index((), 0.0)
