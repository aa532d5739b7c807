"""The batched Dynkin report against a per-replica walk over event logs.

``reference_sums`` replays ``simulate(...).events`` one replica at a time,
recomputing the infection pressure from the kernel factors after every
event, and reads the grid sums from snapshots.  The report steps replicas
in lockstep batches, reads each event's pressure factor and last event
time from the engine, and adds the grid sums as the events pass the grid
times; the draws are the same, so the two differ only in rounding.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from urnsir import ensemble, reports
from urnsir.fields import Kernel, ScalarField
from urnsir.gillespie import RECOVERY, simulate
from urnsir.model import INFECTED, SUSCEPTIBLE, ModelSpec
from urnsir.reports import dynkin_report

SEED = 2024
# relative to each sum's or record's scale; seen: 2e-15 for the sums,
# 4e-12 for the records (mean_residual is a small difference)
TOL = 1e-10

CONSTANT = ModelSpec(
    lam=Kernel.constant(1.5),
    psi=ScalarField.constant(1.0),
    phi=ScalarField.constant(0.3),
    N=60,
    T=1.0,
)
TABLE = ModelSpec(
    lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]),
    psi=ScalarField.affine(0.5, 1.0),
    phi=ScalarField.affine(0.1, 0.4),
    N=50,
    T=1.0,
)
# a kernel of one value in other forms: the constant-rate engine runs them,
# and its pressure factor is the infected count, not infected @ right
SEPARABLE = replace(CONSTANT, lam=Kernel.separable(ScalarField.constant(2.0),
                                                   ScalarField.constant(0.75)))
FLAT = replace(CONSTANT, lam=Kernel.table([[1.5, 1.5], [1.5, 1.5]]))
# 24 of 30 rows have no infected urn left by t = 0.5: their retiring
# time-inf proposals pass the later grid times
ABSORBING = ModelSpec(
    lam=Kernel.table([[0.3, 0.6], [0.5, 0.9]]),
    psi=ScalarField.affine(3.0, 2.0),
    phi=ScalarField.constant(0.1),
    N=20,
    T=1.0,
)
MODELS = [CONSTANT, TABLE, SEPARABLE, FLAT, ABSORBING]
MODEL_IDS = ["constant", "table", "separable", "flat", "absorbing"]
F = ScalarField.affine(0.5, 1.0)


def reference_sums(model, seed, replicas, fv, grid):
    """The report's (raw, acc, grid_sum), one replica and event at a time."""
    n = model.N
    sqrt_n = math.sqrt(n)
    t = model.T
    left, right = model.lam.factors(n)
    raw = np.empty((replicas, 2))
    acc = np.empty((replicas, 2))
    sp_sum = np.zeros((grid.size, n))
    for r in range(replicas):
        traj = simulate(model, seed, snapshot_times=grid, replica=r)
        for k, row in enumerate(traj.snapshots):
            inf = (row == INFECTED).astype(float)
            sp_sum[k] += (row == SUSCEPTIBLE) * (left.dot(inf.dot(right)) / n)
        sus = (traj.initial.states == SUSCEPTIBLE).astype(float)
        inf = (traj.initial.states == INFECTED).astype(float)
        raw0 = float(fv @ sus) / sqrt_n
        cur = lint = qv = 0.0
        ev = traj.events
        times = np.append(ev["time"], t)
        for te, kind, urn in zip(times.tolist(), ev["kind"].tolist() + [-1],
                                 ev["urn"].tolist() + [0]):
            sp = sus * (left.dot(inf.dot(right)) / n)
            lint += (te - cur) * float(fv @ sp) / sqrt_n
            qv += (te - cur) * float(fv**2 @ sp) / n
            if kind == RECOVERY:
                inf[urn - 1] = 0.0
            elif kind >= 0:
                sus[urn - 1] = 0.0
                inf[urn - 1] = 1.0
            cur = te
        raw[r] = raw0, float(fv @ sus) / sqrt_n
        acc[r] = lint, qv
    return raw, acc, sp_sum @ fv / sqrt_n


def grid_for(model, dt=0.05):
    return np.linspace(0.0, model.T, round(model.T / dt) + 1)


def assert_records_close(got, want):
    assert [(r.statistic, r.n, r.t) for r in got.records] == \
        [(r.statistic, r.n, r.t) for r in want.records]
    assert got.passed == want.passed
    for g, w in zip(got.records, want.records):
        scale = max(abs(w.value), abs(w.bound or 0.0), 1e-3)
        assert abs(g.value - w.value) <= TOL * scale, g.statistic
        if w.bound is not None:
            assert abs(g.bound - w.bound) <= TOL * scale, g.statistic


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_batched_sums_match_per_replica_walk(model):
    fv = F.at_sites(model.N)
    grid = grid_for(model)
    got = reports._dynkin_batches(model, SEED, 30, fv, grid)
    want = reference_sums(model, SEED, 30, fv, grid)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=TOL, atol=TOL * np.abs(w).max())


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_report_records_match_per_replica_walk(model, monkeypatch):
    got = dynkin_report(model, SEED, f=F, t=1.0, replicas=40,
                        dt_report=0.05)
    monkeypatch.setattr(reports, "_dynkin_batches", reference_sums)
    want = dynkin_report(model, SEED, f=F, t=1.0, replicas=40,
                         dt_report=0.05)
    assert_records_close(got, want)


def test_records_do_not_depend_on_batch_split(monkeypatch):
    whole = dynkin_report(TABLE, SEED, t=0.8, replicas=25, dt_report=0.1)
    # 7 replicas of 50 urns per batch: four batches, the last one short
    monkeypatch.setattr(ensemble, "BATCH_CELLS", 7 * TABLE.N)
    split = dynkin_report(TABLE, SEED, t=0.8, replicas=25, dt_report=0.1)
    assert_records_close(split, whole)


def test_wrong_compensator_fails_the_qv_check(monkeypatch):
    # the trajectories keep lambda; the compensator integrates 1.5 lambda,
    # so E[M^2] != E[<M>]
    factors = Kernel.factors

    def scaled(kernel, n):
        left, right = factors(kernel, n)
        return 1.5 * left, right

    monkeypatch.setattr(Kernel, "factors", scaled)
    rep = dynkin_report(CONSTANT.with_n(200), SEED, t=1.0, replicas=400)
    by_name = {r.statistic: r for r in rep.records}
    assert abs(by_name["qv_z"].value) > by_name["qv_z"].bound
    assert not rep.passed


def test_replicas_validation():
    # EnsembleSpec's check, not a TypeError from deep in the batches
    with pytest.raises(ValueError, match="must be a positive integer"):
        dynkin_report(CONSTANT, SEED, replicas=2.5)


def test_alpha_validation():
    with pytest.raises(ValueError):
        dynkin_report(CONSTANT, SEED, alpha=0.0)


@pytest.mark.parametrize("dt_report", [0.0, -0.01, math.nan, math.inf])
def test_dt_report_validation(dt_report):
    # a zero, negative or non-finite step gives no report grid
    with pytest.raises(ValueError, match="dt_report must be positive"):
        dynkin_report(CONSTANT, SEED, replicas=4, dt_report=dt_report)
