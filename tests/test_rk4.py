import numpy as np
import pytest

from urnsir.fields import Kernel, ScalarField
from urnsir.fluctuation import PanelSeries
from urnsir.homogeneous import classic_sir_solve
from urnsir.hydro import GridSpec
from urnsir.model import ModelSpec
from urnsir.rk4 import rk4, time_index, time_steps


def small_spec():
    return ModelSpec(
        lam=Kernel.constant(1.5), psi=ScalarField.constant(1.0),
        phi=ScalarField.constant(0.2), N=4, T=1.0,
    )


def test_half_step_index_is_time_over_half_step():
    # y' = cos(t) read through f(y, j) at t = j*h/2; a wrong convention
    # (say t = j*h) would not converge to sin(1) at all
    errors = []
    dts = (0.1, 0.05, 0.025, 0.0125)
    for dt in dts:
        n, h = time_steps(1.0, dt)
        for y in rk4(lambda y, j: np.cos(j * h / 2.0), 0.0, h, 0, n):
            pass
        errors.append(abs(y - np.sin(1.0)))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.5)


def test_start_offsets_the_half_step_index():
    seen = []
    list(rk4(lambda y, j: seen.append(j) or 0.0, 0.0, 0.1, 3, 5))
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
    assert (grid.n_steps(), grid.step()) == time_steps(T, dt)
    series = PanelSeries(small_spec(), 3, dt, T)
    assert (series.n_steps, series.dt) == time_steps(T, dt)
    assert series.density.times.size == 2 * n + 1
    state = classic_sir_solve(1.5, 0.2, T, dt)
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
        classic_sir_solve(1.5, 0.2, T, dt)


def test_time_index_tolerance():
    times = np.arange(11) * 0.1
    assert time_index(times, 0.3) == 3
    assert time_index(times, 0.3 + 1e-12) == 3
    assert time_index((0.5, 0.5, 1.0), 0.5) == 0
    with pytest.raises(ValueError, match="not among the stored times"):
        time_index(times, 0.35)
    with pytest.raises(ValueError):
        time_index((), 0.0)
