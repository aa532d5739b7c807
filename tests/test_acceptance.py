"""Desk-scale acceptance suite.

Each test exercises one headline guarantee end to end and prints a single
verdict line; run with ``pytest tests/test_acceptance.py -v -s`` to see
them.  Tolerances are the release gate, not unit-test tight: statistical
checks use the frozen master seed below, verified once against fresh
seeds before freezing.  Budgets are generous wall-clock caps that flag
accidental quadratic blowups, not timing regressions.
"""

import time

import numpy as np
import pytest

from urnsir import (
    GridSpec,
    ModelSpec,
    PanelSeries,
    classic_clt_covariance,
    clt_report,
    construction_report,
    covariance_anchor_report,
    covariance_decay_report,
    dynkin_report,
    evolve_covariance,
    lln_report,
    oracle_report,
    pair_covariance,
    propagate,
    sites,
    solve_density,
)
from urnsir.fields import Kernel, ScalarField

MASTER_SEED = 20260823

FLAT_HALF = dict(
    lam=Kernel.constant(1.0), psi=ScalarField.constant(1.0),
    phi=ScalarField.constant(0.5),
)
GENERIC = ModelSpec(
    lam=Kernel.constant(2.0), psi=ScalarField.constant(1.0),
    phi=ScalarField.constant(0.2), N=100, T=2.0,
)


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_01_simulator_matches_exact_transients():
    t0 = time.time()
    verdicts = []
    for n in (3, 4):
        spec = ModelSpec(N=n, T=1.0, **FLAT_HALF)
        rep = oracle_report(
            spec, MASTER_SEED, times=(0.5, 1.0), replicas=100_000
        )
        pvals = [r for r in rep.records if r.statistic == "chi2_pvalue"]
        verdicts.append((n, rep.passed, min(r.value for r in pvals),
                         pvals[0].bound))
    elapsed = time.time() - t0
    ok = all(p for _, p, _, _ in verdicts) and elapsed < 120
    verdict(ok, "oracle equivalence",
            " ".join(f"N={n} min chi-square p={p:.4f}"
                     for n, _, p, _ in verdicts)
            + f" (need >= {verdicts[0][3]:g} each, {elapsed:.0f}s)")


def test_02_clock_construction_matches_simulator():
    t0 = time.time()
    spec = ModelSpec(N=4, T=1.0, **FLAT_HALF)
    rep = construction_report(
        spec, MASTER_SEED, t=1.0, replicas=100_000
    )
    worst = max(abs(r.value) / r.bound for r in rep.records)
    elapsed = time.time() - t0
    verdict(rep.passed and elapsed < 120, "construction equivalence",
            f"12 marginals within 3 sigma, worst |delta|/band = {worst:.2f} "
            f"({elapsed:.0f}s)")


def test_03_density_solver_closed_forms_and_order():
    t0 = time.time()
    decay_spec = ModelSpec(
        lam=Kernel.constant(0.0), psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.6), N=10, T=2.0,
    )
    dens = solve_density(decay_spec, GridSpec(M=32, dt=1e-3, T=2.0))
    u = dens.nodes()
    exact = decay_spec.phi(u) * np.exp(-decay_spec.psi(u) * 2.0)
    decay_err = float(np.max(np.abs(dens.rho1[-1] - exact)))

    logistic_spec = ModelSpec(
        lam=Kernel.constant(1.5), psi=ScalarField.constant(0.0),
        phi=ScalarField.constant(0.3), N=10, T=2.0,
    )
    dens_l = solve_density(logistic_spec, GridSpec(M=32, dt=1e-3, T=2.0))
    grown = 0.3 * np.exp(1.5 * 2.0)
    logistic_err = abs(dens_l.total_infected(2.0) - grown / (0.7 + grown))

    dts = (0.2, 0.1, 0.05, 0.025)
    errs = []
    for dt in dts:
        d = solve_density(decay_spec, GridSpec(M=8, dt=dt, T=2.0))
        ex = decay_spec.phi(d.nodes()) * np.exp(-decay_spec.psi(d.nodes()) * 2.0)
        errs.append(np.max(np.abs(d.rho1[-1] - ex)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    elapsed = time.time() - t0
    ok = (decay_err < 1e-8 and logistic_err < 1e-6
          and abs(slope - 4.0) < 0.3 and elapsed < 30)
    verdict(ok, "density closed forms",
            f"decay {decay_err:.1e} (<1e-8), logistic {logistic_err:.1e} "
            f"(<1e-6), dt-order {slope:.2f} (4 +/- 0.3, {elapsed:.0f}s)")


def test_04_empirical_density_error_shrinks_like_root_n():
    t0 = time.time()
    rep = lln_report(
        GENERIC, MASTER_SEED, ns=(100, 400, 1600), t=2.0, replicas=200,
    )
    slope = [r for r in rep.records if r.statistic == "slope"][0]
    elapsed = time.time() - t0
    ok = rep.passed and abs(slope.value + 0.5) <= 0.2 and elapsed < 300
    verdict(ok, "lln rate",
            f"rms error slope {slope.value:.3f} (-0.5 +/- 0.2, {elapsed:.0f}s)")


def test_05_pair_covariance_scale_bounded_and_anchored():
    t0 = time.time()
    decay = covariance_decay_report(
        GENERIC, MASTER_SEED, ns=(50, 100, 200, 400), t=1.0,
        replicas=10_000,
    )
    anchor = covariance_anchor_report(
        GENERIC.with_n(4), MASTER_SEED, t=1.0, replicas=10_000
    )
    worst = max(abs(r.value) / r.bound for r in anchor.records)
    elapsed = time.time() - t0
    ok = decay.passed and anchor.passed and elapsed < 300
    verdict(ok, "covariance decay",
            f"N*mean|cov| excess stays bounded over N=50..400; exact-chain "
            f"anchor worst |delta|/band = {worst:.2f} ({elapsed:.0f}s)")


def test_06_fluctuation_variances_and_normality():
    t0 = time.time()
    spec = ModelSpec(
        lam=Kernel.constant(2.0), psi=ScalarField.constant(1.0),
        phi=ScalarField.constant(0.2), N=2000, T=1.0,
    )
    rep = clt_report(
        spec, MASTER_SEED, t=1.0, replicas=500, m_grid=32, dt=1e-3
    )
    by_name = {r.statistic: r for r in rep.records}
    elapsed = time.time() - t0
    ok = (rep.passed
          and abs(by_name["var_eta_ratio"].value - 1.0) <= 0.10
          and abs(by_name["var_beta_ratio"].value - 1.0) <= 0.10
          and by_name["ks_pvalue"].value > 0.01
          and elapsed < 300)
    verdict(ok, "clt",
            f"var ratios {by_name['var_eta_ratio'].value:.3f}/"
            f"{by_name['var_beta_ratio'].value:.3f} (each 1 +/- 0.10), "
            f"KS p {by_name['ks_pvalue'].value:.3f} (>0.01), "
            f"initial var in band ({elapsed:.0f}s)")


def test_07_constant_input_reductions_match_classic():
    t0 = time.time()
    const = GENERIC.with_n(10)
    grid = GridSpec(M=32, dt=1e-4, T=1.0)
    dens = solve_density(ModelSpec(lam=const.lam, psi=const.psi,
                                   phi=const.phi, N=10, T=1.0), grid)
    classic = classic_clt_covariance(2.0, 0.2, 1.0, 1e-4)
    sir_err = abs(dens.total_infected(1.0) - classic.infected[-1])

    series = PanelSeries(const, 32, 1e-4, 1.0)
    traj = evolve_covariance(series)
    one = ScalarField.constant(1.0)
    reduced = pair_covariance(traj.covariances[-1], one, one, 32)
    clt_err = float(np.max(np.abs(reduced - classic.covariance[-1])))
    elapsed = time.time() - t0
    ok = sir_err < 1e-6 and clt_err < 1e-5 and elapsed < 30
    verdict(ok, "homogeneous reduction",
            f"density vs 2-state solve {sir_err:.1e} (<1e-6), covariance vs "
            f"2x2 solve {clt_err:.1e} (<1e-5, {elapsed:.0f}s)")


def test_08_propagator_cocycle_psd_and_closed_form():
    t0 = time.time()
    series = PanelSeries(GENERIC.with_n(10), 16, 1e-3, 1.0)
    leg_a = propagate(series, 0.0, 0.4)
    leg_b = propagate(series, 0.4, 1.0)
    whole = propagate(series, 0.0, 1.0)
    cocycle_err = float(np.max(np.abs(leg_b @ leg_a - whole)))

    decay_spec = ModelSpec(
        lam=Kernel.constant(0.0), psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.6), N=10, T=1.0,
    )
    decay_traj = evolve_covariance(PanelSeries(decay_spec, 16, 1e-3, 1.0))
    one = ScalarField.constant(1.0)
    u = sites(16)
    var_err = 0.0
    for t in (0.5, 1.0):
        p_t = decay_spec.phi(u) * np.exp(-decay_spec.psi(u) * t)
        exact = float(np.mean(p_t * (1.0 - p_t)))
        got = pair_covariance(decay_traj.at(t), one, one, 16)[0, 0]
        var_err = max(var_err, abs(got - exact))

    generic_traj = evolve_covariance(series)
    min_eig = min(
        float(np.linalg.eigvalsh((c + c.T) / 2.0)[0])
        for traj in (decay_traj, generic_traj) for c in traj.covariances
    )
    elapsed = time.time() - t0
    ok = (cocycle_err < 1e-6 and var_err < 1e-6 and min_eig > -1e-8
          and elapsed < 30)
    verdict(ok, "propagator",
            f"cocycle defect {cocycle_err:.1e} (<1e-6), no-infection "
            f"variance {var_err:.1e} (<1e-6), min eigenvalue {min_eig:.1e} "
            f"(>-1e-8, {elapsed:.0f}s)")


def test_09_martingale_residual_and_quadratic_variation():
    t0 = time.time()
    rep = dynkin_report(
        GENERIC.with_n(500), MASTER_SEED, t=1.0, replicas=500
    )
    by_name = {r.statistic: r for r in rep.records}
    elapsed = time.time() - t0
    ok = (rep.passed
          and abs(by_name["mean_residual"].value) <= by_name["mean_residual"].bound
          and 0.85 <= by_name["var_over_qv"].value <= 1.15
          and elapsed < 180)
    verdict(ok, "dynkin",
            f"mean residual {by_name['mean_residual'].value:+.5f} within 3 SE, "
            f"Var/QV {by_name['var_over_qv'].value:.3f} in [0.85, 1.15] "
            f"({elapsed:.0f}s)")


def test_10_martingale_residual_heterogeneous():
    spec = ModelSpec(
        lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]),
        psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.4),
        N=400,
        T=1.0,
    )
    t0 = time.time()
    rep = dynkin_report(spec, MASTER_SEED, t=1.0, replicas=1000)
    by_name = {r.statistic: r for r in rep.records}
    elapsed = time.time() - t0
    ok = (rep.passed
          and abs(by_name["mean_residual"].value) <= by_name["mean_residual"].bound
          and 0.85 <= by_name["var_over_qv"].value <= 1.15
          and elapsed < 60)
    verdict(ok, "dynkin heterogeneous",
            f"mean residual {by_name['mean_residual'].value:+.5f} within 3 SE, "
            f"Var/QV {by_name['var_over_qv'].value:.3f} in [0.85, 1.15] "
            f"({elapsed:.0f}s)")


def test_11_fluctuation_variances_and_normality_heterogeneous():
    # f = 1 would make eta a count over sqrt(N), lattice-valued at N = 200,
    # which the KS test resolves; the affine f and g spread it
    spec = ModelSpec(
        lam=Kernel.table([[0.5, 1.0, 1.5], [1.2, 2.0, 2.4], [1.4, 2.6, 3.0]]),
        psi=ScalarField.affine(0.5, 1.0),
        phi=ScalarField.affine(0.1, 0.4),
        N=200,
        T=1.0,
    )
    f = ScalarField.affine(0.5, 1.0)
    t0 = time.time()
    rep = clt_report(
        spec, MASTER_SEED, f=f, g=f, t=1.0, replicas=2000, m_grid=200,
        dt=1e-3,
    )
    by_name = {r.statistic: r for r in rep.records}
    elapsed = time.time() - t0
    ok = (rep.passed
          and abs(by_name["var_eta_ratio"].value - 1.0) <= 0.10
          and abs(by_name["var_beta_ratio"].value - 1.0) <= 0.10
          and by_name["ks_pvalue"].value > 0.01
          and elapsed < 90)
    verdict(ok, "clt heterogeneous",
            f"var ratios {by_name['var_eta_ratio'].value:.3f}/"
            f"{by_name['var_beta_ratio'].value:.3f} (each 1 +/- 0.10), "
            f"KS p {by_name['ks_pvalue'].value:.3f} (>0.01), "
            f"initial var in band ({elapsed:.0f}s)")
