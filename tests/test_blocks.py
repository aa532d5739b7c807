"""The general engine's two-level selection against a dense inversion.

``reference_events`` walks one replica with the one-block rule: all N
per-urn rates, one ``add.accumulate`` over the row, the first running sum
above the uniform times the total, clamped to the last urn.  It reads the
replica's stream word by word, as the engine does.  From ``BLOCKED_FROM``
on, the engine picks a block of urns from the running sum of block rates
and then an urn inside it; the rule is the same, so the events agree
unless a uniform falls within rounding of a block edge.
"""

import dataclasses

import numpy as np
import pytest

from urnsir.fields import Kernel, ScalarField
from urnsir.gillespie import (
    BLOCKED_FROM,
    INFECTION,
    RECOVERY,
    Simulation,
    _Engine,
    _run,
    block_size,
    lockstep_states,
    simulate,
    snapshot_states,
)
from urnsir.model import (
    INFECTED,
    REMOVED,
    SUSCEPTIBLE,
    ModelSpec,
    sample_initial,
)
from urnsir.streams import (
    DOMAIN_SIMULATION,
    derive_rng,
    exponentials,
    uniforms,
)

from replay import replay

SEEDS = range(50)
TIME_TOL = 1e-12

TABLE = ModelSpec(
    lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]),
    psi=ScalarField.affine(0.5, 1.0),
    phi=ScalarField.affine(0.1, 0.4),
    N=BLOCKED_FROM,
    T=0.25,
)
# lambda = h1(u) h2(v) with both factors negative at every site
NEGATIVE = ModelSpec(
    lam=Kernel.separable(ScalarField.affine(-0.4, -1.2),
                         ScalarField.affine(-2.0, 0.9)),
    psi=ScalarField.affine(0.6, 0.7),
    phi=ScalarField.affine(0.1, 0.4),
    N=BLOCKED_FROM,
    T=0.25,
)
# zero rows: lambda vanishes for u <= 1/2, so half the urns feel no pressure
ZERO_ROWS = ModelSpec(
    lam=Kernel.table([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
    psi=ScalarField.affine(0.5, 1.0),
    phi=ScalarField.affine(0.1, 0.4),
    N=BLOCKED_FROM,
    T=0.25,
)
MODELS = {"table": TABLE, "negative": NEGATIVE, "zero-rows": ZERO_ROWS}
# the first blocked N, an N that is not a multiple of its block size, and
# a large one
SIZES = (BLOCKED_FROM, BLOCKED_FROM + 7, 1600)


def at(model, n):
    return dataclasses.replace(model, N=n)


def dense_rates(model, states):
    """Per-urn rates of one state row, summed over all N urns at once."""
    n = model.N
    left, right = model.lam.factors(n)
    inf = (states == INFECTED).astype(float)
    sus = (states == SUSCEPTIBLE).astype(float)
    return sus * (left @ (inf @ right) / n) + model.psi.at_sites(n) * inf


def reference_events(model, seed, replica):
    """(time, kind, urn, source) to T, 1-based, by the dense inversion."""
    n = model.N
    left, right = model.lam.factors(n)
    states = sample_initial(model, seed, replica).states.copy()
    rng = derive_rng(seed, DOMAIN_SIMULATION, replica=replica)
    time, events = 0.0, []
    while True:
        words = rng.bit_generator.random_raw(4)
        exp = exponentials(words[0])
        u_target, u_source, _ = uniforms(words[1:])
        cum = np.add.accumulate(dense_rates(model, states))
        if cum[-1] == 0.0:
            return events
        time += exp / cum[-1]
        if time > model.T:
            return events
        urn = min(int(cum.searchsorted(u_target * cum[-1], side="right")),
                  n - 1)
        if states[urn] == INFECTED:
            states[urn] = REMOVED
            events.append((time, RECOVERY, urn + 1, 0))
            continue
        weights = np.add.accumulate(
            (left[urn] @ right.T / n) * (states == INFECTED))
        src = min(int(weights.searchsorted(u_source * weights[-1],
                                           side="right")), n - 1)
        states[urn] = INFECTED
        events.append((time, INFECTION, urn + 1, src + 1))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", list(MODELS))
def test_events_match_dense_inversion(name, n):
    model = at(MODELS[name], n)
    assert block_size(n) < n
    infections = 0
    for seed in SEEDS:
        want = reference_events(model, seed, 0)
        got = simulate(model, seed).events
        assert [e[1:] for e in want] == [e[1:] for e in got.tolist()], seed
        times = np.array([e[0] for e in want])
        np.testing.assert_allclose(got["time"], times, rtol=TIME_TOL, atol=0)
        infections += int((got["kind"] == INFECTION).sum())
    assert infections > 0


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", list(MODELS))
def test_lockstep_rows_equal_batch_of_one(name, n):
    # rows retire at different steps: each once its next event passes T
    model = at(MODELS[name], n)
    replicas = np.array([3, 0, 11, 7, 5])
    times = (0.0, 0.05, 0.05, 0.2, model.T)
    rows = lockstep_states(model, 9, replicas, times)
    counts = {simulate(model, 9, replica=int(q)).events.size
              for q in replicas}
    assert len(counts) > 1
    for row, q in zip(rows, replicas):
        np.testing.assert_array_equal(
            row, snapshot_states(model, 9, times, replica=int(q)))


def test_block_sums_are_a_function_of_the_state():
    # after many events, the kept sums equal those of a fresh engine built
    # from the current states: nothing drifts
    model = at(TABLE, BLOCKED_FROM + 7)
    engine = _Engine(model, 4, np.arange(6),
                     np.stack([sample_initial(model, 4, q).states
                               for q in range(6)]))
    for _ in range(300):
        time, urn, recovery, _ = engine.propose()
        engine.apply(time, urn, recovery)
    fresh = _Engine(model, 4, np.arange(6),
                    engine.states_of(np.arange(6)))
    np.testing.assert_array_equal(engine._sums, fresh._sums)
    np.testing.assert_array_equal(engine._terms, fresh._terms)


def test_block_rule_depends_on_n_alone():
    assert block_size(BLOCKED_FROM - 1) == BLOCKED_FROM - 1
    for n in SIZES + (4000, 10_000):
        size = block_size(n)
        assert size * size >= n > (size - 1) * (size - 1)


# ---------------------------------------------------------------------------
# zero-rate guard


def test_never_proposes_a_zero_rate_urn():
    # a padded last block, zero-rate urns on half the axis, removed urns
    # everywhere; every live row's proposal has a positive rate
    model = at(ZERO_ROWS, BLOCKED_FROM + 7)
    assert model.N % block_size(model.N)
    rows = 20
    states = np.stack([sample_initial(model, 6, q).states
                       for q in range(rows)])
    engine = _Engine(model, 6, np.arange(rows), states)
    with np.errstate(divide="ignore"):
        for _ in range(400):
            time, urn, recovery, _ = engine.propose()
            now = engine.states_of(np.arange(rows))
            for q in range(rows):
                rates = dense_rates(model, now[q])
                if rates.sum() > 0.0:
                    assert 0 <= urn[q] < model.N and rates[urn[q]] > 0.0
            engine.apply(time, urn, recovery)


def test_rounding_short_of_the_block_takes_its_last_positive_urn():
    # force the rounding case: block b's sum exceeds the running sum of
    # its urns, and the uniform lands in between; the engine must take the
    # last urn of positive rate in b, not b's last index (a removed urn)
    n = BLOCKED_FROM
    size = block_size(n)
    b = 3
    states = np.full(n, SUSCEPTIBLE, dtype=np.int8)
    states[::7] = INFECTED
    last = (b + 1) * size - 1
    states[last - 4:last + 1] = REMOVED
    engine = _Engine(at(TABLE, n), 1, np.arange(1), states[None])
    rates = dense_rates(engine.spec, states)
    block_total = rates[b * size:(b + 1) * size].sum()
    want = last - 5
    assert rates[want] > 0.0 and rates[want + 1:last + 1].max() == 0.0
    # the block's psi . inf sum a little too large, as if by rounding
    engine._sums[0, b, -1] += 1e-9 * block_total
    coef = np.append(engine._inf[0] @ engine._right_t.T, 1.0)
    cum = np.add.accumulate(engine._sums[0] @ coef)
    gap_mid = cum[b] - 0.5e-9 * block_total
    uni = np.array([[gap_mid / cum[-1], 0.5, 0.5]])
    _, urn, recovery = engine._propose(np.ones(1), uni)
    assert urn[0] == want
    assert not recovery[0]


def test_absorbed_rows_propose_the_last_urn_at_time_inf():
    n = BLOCKED_FROM + 7
    live = np.full(n, SUSCEPTIBLE, dtype=np.int8)
    live[::5] = INFECTED
    dead = np.where(live == INFECTED, REMOVED, SUSCEPTIBLE).astype(np.int8)
    model = at(TABLE, n)
    engine = _Engine(model, 1, np.arange(3), np.stack([live, dead, live]))
    with np.errstate(divide="ignore"):
        time, urn, _, _ = engine.propose()
    assert np.isfinite(time[[0, 2]]).all() and time[1] == np.inf
    assert urn[1] == n - 1
    one = _Engine(model, 1, 0, dead[None])
    with np.errstate(divide="ignore"):
        time, urn, _, _ = one.propose()
    assert time == np.inf and urn == n - 1


# ---------------------------------------------------------------------------
# snapshot fill of the stepping loop


GENERAL = ModelSpec(
    lam=Kernel.separable(ScalarField.affine(0.8, 0.9),
                         ScalarField.affine(1.4, -0.6)),
    psi=ScalarField.affine(0.6, 0.7),
    phi=ScalarField.affine(0.2, 0.4),
    N=30,
    T=2.0,
)
UNIFORM = ModelSpec(
    lam=Kernel.constant(1.5),
    psi=ScalarField.constant(1.0),
    phi=ScalarField.constant(0.4),
    N=30,
    T=2.0,
)


def dense_grid(model):
    # repeated times, and times after each replica's last event up to T
    grid = np.linspace(0.0, model.T, 161)
    return np.sort(np.concatenate([grid, grid[::9], [model.T, model.T]]))


@pytest.mark.parametrize("model", [GENERAL, UNIFORM, at(TABLE, BLOCKED_FROM)],
                         ids=["general", "uniform", "blocked"])
def test_run_on_a_dense_grid_equals_replay(model):
    times = dense_grid(model)
    replicas = np.arange(6)
    trajs = [simulate(model, 21, replica=int(q)) for q in replicas]
    assert len({t.events.size for t in trajs}) > 1
    assert all((times > t.events["time"][-1]).any() for t in trajs)
    # the batch of one
    for q, traj in zip(replicas, trajs):
        got = _run(Simulation(model, 21, int(q))._engine, times)[0]
        np.testing.assert_array_equal(got, replay(traj, times))
    # a batch whose rows retire at different steps
    rows = lockstep_states(model, 21, replicas, times)
    for row, traj in zip(rows, trajs):
        np.testing.assert_array_equal(row, replay(traj, times))

