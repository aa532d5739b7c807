"""Bounded memory: the chunked and blocked paths give the old results.

Each path that was rewritten to hold less memory is compared bit for bit
with the formula it replaced, kept here as the reference, and its peak
traced memory is bounded; each bound notes the figure of the formula it
replaced.
"""

import tracemalloc

import numpy as np
import pytest

from urnsir.fields import Kernel, ScalarField
from urnsir.gillespie import _Engine
from urnsir.hydro import _solve_grids
from urnsir.model import (
    INFECTED,
    REMOVED,
    SUSCEPTIBLE,
    ModelSpec,
    initial_states,
)
from urnsir.streams import DOMAIN_INITIAL, replica_words, uniforms

TABLE = [[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]


def hetero(n):
    return ModelSpec(lam=Kernel.table(TABLE), psi=ScalarField.affine(0.5, 1.0),
                     phi=ScalarField.affine(0.1, 0.4), N=n, T=1.0)


def constant(n):
    return ModelSpec(lam=Kernel.constant(2.0), psi=ScalarField.constant(1.0),
                     phi=ScalarField.constant(0.2), N=n, T=1.0)


def peak_mb(call):
    """Peak traced MB of call() above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if started:
            tracemalloc.stop()


def initial_states_reference(spec, seed, replicas):
    """The one-draw formula: words and uniforms for the whole batch."""
    u = uniforms(replica_words(seed, replicas, spec.N, DOMAIN_INITIAL, 1))
    return (u < spec.phi_at_sites()).astype(np.int8)


def states_uniform_reference(engine, rows):
    """Each urn's place in its row's runs, int64, then its run's code."""
    perm = engine._perm[rows]
    place = np.empty_like(perm)
    np.put_along_axis(place, perm, np.arange(engine.spec.N), axis=1)
    n_sus, n_inf = engine._counts[rows].T[:, :, None]
    return np.where(place < n_sus, SUSCEPTIBLE,
                    np.where(place < n_sus + n_inf, INFECTED,
                             REMOVED)).astype(np.int8)


def node_average_reference(kernel, values):
    """The (rows, r, M) product of all rows at once."""
    left, right = kernel.factors(values.shape[-1])
    sums = np.add.reduce(right.T * values[..., None, :], -1)
    return np.dot(sums / values.shape[-1], left.T)


# N = 3001 and 70001 do not divide the 2^15 cells of a draw; 70001 urns
# take one replica per draw
@pytest.mark.parametrize("n", [1, 7, 2000, 3001, 70001])
def test_initial_states_are_the_one_draw_states(n):
    spec = hetero(n)
    batches = [np.arange(3), np.array([5, 90, 3, 1000]),
               np.array([], dtype=np.int64)]
    if n <= 3001:
        batches.append(np.arange(200))
    for rows in batches:
        got = initial_states(spec, 11, rows)
        want = initial_states_reference(spec, 11, rows)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, replicas, steps", [(2000, 200, 1500),
                                                (37, 70, 30), (5, 3, 12)])
def test_uniform_states_are_the_place_formula(n, replicas, steps):
    spec = constant(n)
    rows = np.arange(replicas)
    engine = _Engine(spec, 7, rows, initial_states(spec, 7, rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            engine.apply(*engine.propose()[:3])
    for subset in (rows, rows[::7], rows[[-1, 0]],
                   np.array([], dtype=np.int64)):
        got = engine.states_of(subset)
        assert got.dtype == np.int8
        assert np.array_equal(got, states_uniform_reference(engine, subset))
    # every code occurs once the chains have run
    if n == 2000:
        assert set(np.unique(engine.states_of(rows))) == {-1, 0, 1}


@pytest.mark.parametrize("rows", [1, 2, 64, 65, 129, 2001])
@pytest.mark.parametrize("kernel", [
    Kernel.constant(1.7),
    Kernel.separable(ScalarField.affine(0.8, 0.6),
                     ScalarField.affine(1.2, -0.5)),
    Kernel.table(TABLE),
    Kernel.table(np.random.default_rng(0).random((16, 16)).tolist()),
])
def test_node_average_in_row_blocks_is_one_product(kernel, rows):
    # a trailing block of one row included (65, 129, 2001 rows); M = 100
    # is where a 16 x 16 table's BLAS product changes with the row count
    for m in (16, 100):
        values = np.random.default_rng(rows + m).random((rows, m))
        assert np.array_equal(kernel.node_average(values),
                              node_average_reference(kernel, values))


def test_ladder_solve_memory():
    # the lln ladder of the benchmark, times 0 and t stored: 17.4 MB when
    # every step was stored
    spec = hetero(800)
    mb = peak_mb(lambda: _solve_grids(spec, (50, 200, 800), 1e-3, 1.0,
                                      store_every=1000))
    assert mb < 4.0


def test_uniform_states_memory():
    # R = 200, N = 2000: 13.2 MB by the int64 place formula
    spec = constant(2000)
    rows = np.arange(200)
    engine = _Engine(spec, 7, rows, initial_states(spec, 7, rows))
    assert peak_mb(lambda: engine.states_of(rows)) < 6.0


def test_initial_states_memory():
    # R = 200, N = 2000: 9.7 MB by the one-draw formula
    spec = constant(2000)
    assert peak_mb(lambda: initial_states(spec, 7, np.arange(200))) < 3.0
