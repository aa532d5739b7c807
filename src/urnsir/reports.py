"""Statistical reports that test the limit theory against simulation.

Each report runs a reproducible ensemble, compares an empirical statistic
against an independent target (ODE solution, Lyapunov covariance, exact
small-N distribution, or an internal identity), and returns a ``Report``
whose records regenerate bit-identically from (spec, master_seed).

Statistical conventions used throughout:
  - fluctuation fields are centered at ensemble means (exact location for
    the normality test), so reports with sample variances need at least
    two replicas;
  - bands are 3 standard errors unless a check states otherwise;
  - p-values come from scipy.special, not the slow-to-import scipy.stats;
    each function imports what it uses at its call, so ``import urnsir``
    loads no scipy.  ``validate clt`` loads scipy.special for its KS test,
    ``validate dynkin`` for its z bound, and ``validate oracle`` and
    ``validate cov`` load scipy.sparse and scipy.special through the exact
    oracle; ``validate lln`` and the construction report load none;
  - thresholds are keyword arguments with the documented defaults, so a
    failed check is always an explicit exit-code-3 event, never a silent
    relaxation; a threshold that would decide every check alike (NaN,
    negative) raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import csv

import numpy as np

from .ensemble import (
    EnsembleSpec,
    _batches,
    _check_replica_count,
    run_clock_ensemble,
    run_ensemble,
)
from .fields import ScalarField, TestFunction
# evolve_covariance, pair_covariance, solve_density and simulate are not
# called here; the benchmark's traced run wraps these names
from .fluctuation import (  # noqa: F401
    PanelSeries,
    adjoint_pair_covariance,
    evolve_covariance,
    pair_covariance,
)
from .gillespie import _Engine, _fills, _passed, _run, simulate  # noqa: F401
from .hydro import _solve_grids, solve_density  # noqa: F401
from .model import INFECTED, SUSCEPTIBLE, ModelSpec, initial_states
from .oracle import (
    build_generator,
    initial_distribution,
    moment_report,
    transient_distribution,
)
from .rk4 import time_steps
from .streams import DOMAIN_SAMPLING, derive_rng

__all__ = [
    "ReportRecord",
    "Report",
    "write_report_csv",
    "lln_report",
    "covariance_decay_report",
    "covariance_anchor_report",
    "clt_report",
    "dynkin_report",
    "oracle_report",
    "construction_report",
]

_ONE = ScalarField.constant(1.0)


@dataclass(frozen=True)
class ReportRecord:
    """One reproducible statistic: (kind, N, t, name, value, bound, seed)."""

    kind: str
    n: int
    t: float
    statistic: str
    value: float
    bound: float | None
    seed: int


@dataclass(frozen=True)
class Report:
    kind: str
    passed: bool
    records: tuple[ReportRecord, ...]
    lines: tuple[str, ...]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.kind}"


def write_report_csv(report: Report, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "N", "t", "statistic", "value", "bound", "seed"])
        for r in report.records:
            writer.writerow(
                [r.kind, r.n, f"{r.t:.10g}", r.statistic, f"{r.value:.12g}",
                 "" if r.bound is None else f"{r.bound:.12g}", r.seed]
            )


def _require_positive(name: str, value: float) -> None:
    # a NaN, zero, negative or infinite tolerance decides every check alike,
    # and such a grid step gives no grid
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive")


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    fn = getattr(np, "trapezoid", None) or np.trapz
    return float(fn(y, x))


# ---------------------------------------------------------------------------
# law of large numbers


def lln_report(
    model: ModelSpec,
    master_seed: int,
    *,
    f: TestFunction | None = None,
    ns: tuple = (100, 400, 1600),
    t: float = 2.0,
    replicas: int = 200,
    dt: float = 1e-3,
    slope_tol: float = 0.2,
) -> Report:
    """RMS error of mu_t^N(f) against the density node sum over an N ladder.

    The limit theorem gives error ~ N^(-1/2); the check is the log-log
    slope of RMS error vs N within ``slope_tol`` of -1/2.
    """
    if f is None:
        f = _ONE
    if not 0.0 < t <= model.T:
        raise ValueError("t must lie in (0, T]")
    if len(set(ns)) < 2:  # a slope needs two rungs
        raise ValueError("ns must hold at least two distinct N")
    _require_positive("slope_tol", slope_tol)
    records: list[ReportRecord] = []
    lines: list[str] = []
    rms = []
    specs = [model.with_n(int(n)) for n in ns]
    # every rung's density in one solve, each on its own node grid M = N,
    # keeping only times 0 and t
    ladder = _solve_grids(model, tuple(s.N for s in specs), dt, t,
                          store_every=time_steps(t, dt)[0])
    targets = [density.node_integral(t, f) for density in ladder]
    for n, spec_n, target in zip(ns, specs, targets):
        ens = EnsembleSpec(
            model=spec_n, replicas=replicas, master_seed=master_seed,
            snapshot_times=(t,),
        )
        err = np.abs(run_ensemble(ens).mu(f, 0) - target)
        r = float(np.sqrt(np.mean(err**2)))
        rms.append(r)
        se = r / math.sqrt(2.0 * replicas) if r else 0.0
        records.append(ReportRecord("lln", int(n), t, "rms_error", r, se,
                                    master_seed))
        records.append(ReportRecord("lln", int(n), t, "mean_abs_error",
                                    float(err.mean()), None, master_seed))
        lines.append(f"N={n:>5d}  rms |mu - target| = {r:.5f}")
    if max(rms) == 0.0:  # f == 0 degenerate case: errors vanish exactly
        records.append(ReportRecord("lln", 0, t, "slope", float("nan"),
                                    slope_tol, master_seed))
        lines.append("all errors exactly zero; slope check skipped")
        return Report("lln", True, tuple(records), tuple(lines))
    slope = float(np.polyfit(np.log(np.asarray(ns, float)), np.log(rms), 1)[0])
    passed = abs(slope + 0.5) <= slope_tol
    records.append(ReportRecord("lln", 0, t, "slope", slope, slope_tol,
                                master_seed))
    lines.append(f"log-log slope = {slope:+.3f}  (target -0.5 +/- {slope_tol})")
    return Report("lln", passed, tuple(records), tuple(lines))


# ---------------------------------------------------------------------------
# covariance decay across urns


def _sample_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Distinct unordered urn pairs (0-based columns), deterministic in rng."""
    total = n * (n - 1) // 2
    if total <= count:
        return np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    chosen: set = set()
    out = []
    while len(out) < count:
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in chosen:
            continue
        chosen.add(key)
        out.append(key)
    return np.array(out)


def _pair_covariances(ind: np.ndarray, pairs: np.ndarray):
    """Per-pair sample covariance and its standard error across replicas."""
    r = ind.shape[0]
    x = ind[:, pairs[:, 0]]
    y = ind[:, pairs[:, 1]]
    dx = x - x.mean(axis=0)
    dy = y - y.mean(axis=0)
    prod = dx * dy
    cov = prod.sum(axis=0) / (r - 1)
    se = prod.std(axis=0, ddof=1) / math.sqrt(r)
    return cov, se


def covariance_decay_report(
    model: ModelSpec,
    master_seed: int,
    *,
    ns: tuple = (50, 100, 200, 400),
    t: float = 1.0,
    replicas: int = 10_000,
    pairs_per_n: int = 150,
) -> Report:
    """N times mean |Cov| of infected indicators over sampled pairs.

    The coupling bound says |Cov(I_t(i), I_t(j))| <= C/N, so the scaled
    mean must stay bounded.  The |.| of a noisy estimate has a floor of
    sigma*sqrt(2/pi) per pair, which grows with N at fixed R; the check
    therefore subtracts the per-N floor and fails only if the excess
    increases monotonically by more than its own 3-sigma uncertainty.
    """
    if not 0.0 <= t <= model.T:
        raise ValueError("t outside [0, T]")
    if len(set(ns)) < 2:  # a trend needs two rungs
        raise ValueError("ns must hold at least two distinct N")
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    # the spread of |Cov| over a rung needs two pairs: N >= 3 has three
    if min(ns) < 3 or pairs_per_n < 2:
        raise ValueError("each N in ns must be >= 3 and pairs_per_n >= 2")
    records: list[ReportRecord] = []
    lines: list[str] = []
    excess = []
    unc = []
    for n in ns:
        spec_n = model.with_n(int(n))
        ens = EnsembleSpec(
            model=spec_n, replicas=replicas, master_seed=master_seed,
            snapshot_times=(t,),
        )
        ind = run_ensemble(ens).indicator(INFECTED, 0)
        rng = derive_rng(master_seed, DOMAIN_SAMPLING, int(n))
        pairs = _sample_pairs(rng, int(n), pairs_per_n)
        cov, se = _pair_covariances(ind, pairs)
        n_mean_abs = float(n * np.mean(np.abs(cov)))
        n_max_abs = float(n * np.max(np.abs(cov)))
        n_signed = float(n * np.mean(cov))
        floor = float(n * np.mean(se) * math.sqrt(2.0 / math.pi))
        e = n_mean_abs - floor
        u = float(n * np.std(np.abs(cov), ddof=1) / math.sqrt(len(pairs)))
        excess.append(e)
        unc.append(u)
        for name, val, bound in (
            ("n_mean_abs_cov", n_mean_abs, None),
            ("n_max_abs_cov", n_max_abs, None),
            ("n_signed_mean_cov", n_signed, None),
            ("n_noise_floor", floor, None),
            ("n_excess", e, 3.0 * u),
        ):
            records.append(ReportRecord("cov", int(n), t, name, val, bound,
                                        master_seed))
        lines.append(
            f"N={n:>4d}  N*mean|cov| = {n_mean_abs:.4f}"
            f"  noise floor = {floor:.4f}  excess = {e:+.4f} (+/- {u:.4f})"
        )
    diffs = np.diff(excess)
    significant = (excess[-1] - excess[0]) > 3.0 * math.hypot(unc[0], unc[-1])
    trending = bool(np.all(diffs > 0) and significant)
    passed = not trending
    lines.append(
        "excess trend: "
        + ("monotone increase beyond noise" if trending else "bounded")
    )
    return Report("cov", passed, tuple(records), tuple(lines))


def covariance_anchor_report(
    model: ModelSpec,
    master_seed: int,
    *,
    t: float = 1.0,
    replicas: int = 10_000,
) -> Report:
    """Monte Carlo pair covariances vs exact values at small N.

    Every unordered pair's sampled Cov(I_t(i), I_t(j)) must sit within 3
    standard errors of the exact transient value.
    """
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    n = model.N
    gen = build_generator(model)
    dist = transient_distribution(gen, initial_distribution(model), t)
    ens = EnsembleSpec(
        model=model, replicas=replicas, master_seed=master_seed,
        snapshot_times=(t,),
    )
    ind = run_ensemble(ens).indicator(INFECTED, 0)
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    cov, se = _pair_covariances(ind, pairs)
    exact_records = moment_report(
        dist, n, [((int(i) + 1, 1), (int(j) + 1, 1)) for i, j in pairs]
    )
    records: list[ReportRecord] = []
    lines: list[str] = []
    ok = True
    for k, (i, j) in enumerate(pairs):
        exact = exact_records[k].centered
        delta = float(cov[k] - exact)
        band = 3.0 * float(se[k])
        ok = ok and abs(delta) <= band
        records.append(
            ReportRecord("cov-anchor", n, t, f"cov_delta_{i + 1}_{j + 1}",
                         delta, band, master_seed)
        )
        lines.append(
            f"pair ({i + 1},{j + 1}): mc - exact = {delta:+.5f}"
            f"  (band {band:.5f})"
        )
    return Report("cov-anchor", ok, tuple(records), tuple(lines))


# ---------------------------------------------------------------------------
# central limit theorem


def _ks_normal(z: np.ndarray) -> tuple[float, float]:
    """KS statistic and asymptotic p-value of z against N(0, 1), as
    ``scipy.stats.kstest(z, "norm", method="asymp")`` computes them."""
    from scipy.special import kolmogorov, ndtr

    n = z.size
    cdf = ndtr(np.sort(z))
    d = max((np.arange(1.0, n + 1) / n - cdf).max(),
            (cdf - np.arange(0.0, n) / n).max())
    return float(d), float(np.clip(kolmogorov(d * math.sqrt(n)), 0.0, 1.0))


def clt_report(
    model: ModelSpec,
    master_seed: int,
    *,
    f: TestFunction | None = None,
    g: TestFunction | None = None,
    t: float = 1.0,
    replicas: int = 500,
    m_grid: int = 32,
    dt: float = 1e-3,
    rel_tol: float = 0.10,
    ks_threshold: float = 0.01,
) -> Report:
    """Empirical (eta, beta) moments against the Lyapunov covariance.

    The theory is the 2x2 pairing at t from two adjoint weight columns
    (:func:`urnsir.fluctuation.adjoint_pair_covariance`); the whole
    2M x 2M covariance is never formed.

    Checks: Var(eta_t(f)) and Var(beta_t(g)) within ``rel_tol`` of theory,
    Kolmogorov-Smirnov normality of standardized eta_t(f) (asymptotic
    p-value > ``ks_threshold``), and the t=0 variance against the exact
    independent-initial value within a 3-sigma band.
    """
    if f is None:
        f = _ONE
    if g is None:
        g = _ONE
    if not 0.0 < t <= model.T:
        raise ValueError("t must lie in (0, T]")
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    _require_positive("rel_tol", rel_tol)
    if not 0.0 <= ks_threshold < 1.0:
        raise ValueError("ks_threshold must lie in [0, 1)")
    n = model.N
    theory = adjoint_pair_covariance(PanelSeries(model, m_grid, dt, t), f, g)
    var_eta_th, cov_th, var_beta_th = (
        theory[0, 0], theory[0, 1], theory[1, 1]
    )

    ens = EnsembleSpec(
        model=model, replicas=replicas, master_seed=master_seed,
        snapshot_times=(0.0, t),
    )
    result = run_ensemble(ens)
    eta = result.eta(f, 1)
    beta = result.beta(g, 1)
    eta0 = result.eta(f, 0)
    var_eta = float(np.var(eta, ddof=1))
    var_beta = float(np.var(beta, ddof=1))
    cov_emp = float(np.cov(eta, beta, ddof=1)[0, 1])
    var0 = float(np.var(eta0, ddof=1))
    fv = f.at_sites(n)
    phi = model.phi_at_sites()
    var0_th = float(np.mean(fv**2 * phi * (1.0 - phi)))

    records: list[ReportRecord] = []
    lines: list[str] = []
    seed = master_seed

    if var_eta_th < 1e-10:
        # theory degenerates; refuse standardization, require emptiness
        passed = var_eta <= 1e-6 and var_beta <= 1e-6
        records.append(ReportRecord("clt", n, t, "degenerate", 1.0, None,
                                    seed))
        lines.append("theoretical variance ~ 0; standardization refused")
        return Report("clt", passed, tuple(records), tuple(lines))

    ratio_eta = var_eta / var_eta_th
    ratio_beta = var_beta / var_beta_th if var_beta_th > 1e-10 else float("nan")
    z = (eta - eta.mean()) / math.sqrt(var_eta_th)
    ks_stat, ks_p = _ks_normal(z)
    band0 = 3.0 * var0_th * math.sqrt(2.0 / (replicas - 1))
    cov_band = 3.0 * math.sqrt(
        (var_eta_th * var_beta_th + cov_th**2) / (replicas - 1)
    )

    checks = [
        abs(ratio_eta - 1.0) <= rel_tol,
        (math.isnan(ratio_beta) and var_beta <= 1e-6)
        or abs(ratio_beta - 1.0) <= rel_tol,
        ks_p > ks_threshold,
        abs(var0 - var0_th) <= band0,
    ]
    records.extend([
        ReportRecord("clt", n, t, "var_eta", var_eta, None, seed),
        ReportRecord("clt", n, t, "var_eta_theory", var_eta_th, None, seed),
        ReportRecord("clt", n, t, "var_eta_ratio", ratio_eta, rel_tol, seed),
        ReportRecord("clt", n, t, "var_beta", var_beta, None, seed),
        ReportRecord("clt", n, t, "var_beta_theory", var_beta_th, None, seed),
        ReportRecord("clt", n, t, "var_beta_ratio", ratio_beta, rel_tol, seed),
        ReportRecord("clt", n, t, "cov_eta_beta", cov_emp, cov_band, seed),
        ReportRecord("clt", n, t, "cov_eta_beta_theory", cov_th, None, seed),
        ReportRecord("clt", n, t, "ks_statistic", ks_stat, None, seed),
        ReportRecord("clt", n, t, "ks_pvalue", ks_p, ks_threshold, seed),
        ReportRecord("clt", n, 0.0, "var_eta0", var0, band0, seed),
        ReportRecord("clt", n, 0.0, "var_eta0_theory", var0_th, None, seed),
    ])
    lines.extend([
        f"Var(eta)  = {var_eta:.5f}  theory {var_eta_th:.5f}"
        f"  ratio {ratio_eta:.3f}",
        f"Var(beta) = {var_beta:.5f}  theory {var_beta_th:.5f}"
        f"  ratio {ratio_beta:.3f}",
        f"Cov(eta, beta) = {cov_emp:+.5f}  theory {cov_th:+.5f}",
        f"KS statistic {ks_stat:.4f}, p = {ks_p:.4f}",
        f"Var(eta_0) = {var0:.5f}  exact {var0_th:.5f}  (band {band0:.5f})",
    ])
    return Report("clt", all(checks), tuple(records), tuple(lines))


# ---------------------------------------------------------------------------
# Dynkin martingale and quadratic variation


def _dynkin_batches(model: ModelSpec, seed: int, replicas: int,
                    fv: np.ndarray, grid: np.ndarray):
    """Per-replica Dynkin sums (raw, acc, grid_sum) over lockstep batches.

    raw: (1/sqrt N) f.S at times 0 and T.  acc: the exact event-time
    integrals of (1/sqrt N) f.S p (generator term) and (1/N) f^2.S p
    (quadratic variation), p = left @ c / N the pressure; c and the time
    of the last event are the engine's.  Each row keeps F_k = (f^k S) @
    left as r-vectors, and f^k.S p = F_k.c / N.  grid_sum: the replica sum
    of (1/sqrt N) f.S p at each grid time, added by the events that pass it.
    """
    n = model.N
    left, right = model.lam.factors(n)
    powers = fv[:, None] ** np.arange(1, 3)  # (N, 2): f, f^2
    scale = np.array([1.0 / (n * math.sqrt(n)), 1.0 / n**2])
    raw = np.empty((replicas, 2))
    acc = np.zeros((replicas, 2))
    grid_sum = np.zeros(grid.size)
    t = model.T
    for lo, rows in _batches(replicas, n):
        states = initial_states(model, seed, rows)
        engine = _Engine(model, seed, rows, states)
        # the constant-rate engine's c is n_inf: pair it with lambda(., 1/N)
        paired = left @ right[:1].T if engine.uniform else left
        f_left = powers[:, :, None] * paired[:, None, :]  # (N, 2, r)
        big_f = np.einsum("bn,nka->bka", states == SUSCEPTIBLE, f_left)

        def visit(live, time, urn, recovery, u):
            rate = np.einsum("bka,ba->bk", big_f[live], engine.c)
            dur = np.minimum(time, t) - engine.time
            acc[lo + live] += dur[:, None] * rate * scale
            # the state before the event is the one at the grid times
            # from the last event on
            at, each, q = _fills(_passed(grid, t, engine.time),
                                 _passed(grid, t, time))
            grid_sum[:] += np.bincount(q, rate[at, 0][each], grid.size)
            # an infection takes the urn out of S
            big_f[live] -= (~recovery)[:, None, None] * f_left[urn]

        ends = np.stack([states, _run(engine, np.array([t]), visit)[:, 0]], 1)
        raw[lo:lo + rows.size] = (ends == SUSCEPTIBLE) @ fv
    return raw / math.sqrt(n), acc, grid_sum / (n * math.sqrt(n))


def dynkin_report(
    model: ModelSpec,
    master_seed: int,
    *,
    f: TestFunction | None = None,
    t: float = 1.0,
    replicas: int = 500,
    dt_report: float = 0.01,
    alpha: float = 1e-3,
) -> Report:
    """Martingale residual of beta_t(f) and its quadratic variation.

    M = beta_t - beta_0 - integral of (d/ds + generator) beta_s ds; the
    generator part is integrated exactly between events, the expectation
    part from ensemble means on a dt_report grid with trapezoid
    quadrature.  Checks |mean M| < 3 SE and E[M^2] = E[<M>_t], the latter
    by z = mean(d) / SE(d), d_r = M_r^2 - QV_r on the centering-free
    residual (the martingale itself), two-sided at level ``alpha``.  The
    normal approximation of z is rough when d is skewed and R small: on
    N = 6, R = 40 a correct model fails 6 % of seeds at alpha = 1e-3.
    Var(M) / mean QV and the centering-free residual z are recorded too:
    ensemble centering plus the shared expectation term make mean M
    near-deterministically small, so the raw z is the sharper diagnostic.
    """
    from scipy.special import ndtri

    if f is None:
        f = _ONE
    if not 0.0 < t <= model.T:
        raise ValueError("t must lie in (0, T]")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    _check_replica_count(replicas)
    if replicas < 2:
        raise ValueError("replicas must be at least 2")
    _require_positive("dt_report", dt_report)
    spec_t = dc_replace(model, T=float(t))
    n = model.N
    fv = f.at_sites(n)
    n_grid = max(1, round(t / dt_report))
    grid = np.linspace(0.0, t, n_grid + 1)
    raw, acc, grid_sum = _dynkin_batches(spec_t, master_seed, replicas, fv,
                                         grid)
    raw0, rawt = raw.T
    lint, qv = acc.T

    delta = _trapezoid(grid_sum / replicas, grid)
    m_res = (rawt - rawt.mean()) - (raw0 - raw0.mean()) + lint - delta
    raw_res = rawt - raw0 + lint
    mean_m = float(m_res.mean())
    qv_mean = float(qv.mean())
    records: list[ReportRecord] = []
    lines: list[str] = []
    seed = master_seed

    if qv_mean < 1e-300:
        passed = float(np.max(np.abs(m_res))) <= 1e-12
        records.append(ReportRecord("dynkin", n, t, "degenerate", 1.0, None,
                                    seed))
        lines.append("no infection flux; martingale identically zero")
        return Report("dynkin", passed, tuple(records), tuple(lines))

    var_m = float(np.var(m_res, ddof=1))
    se = math.sqrt(var_m / replicas)
    ratio = var_m / qv_mean
    root_r = math.sqrt(replicas)
    raw_z = float(raw_res.mean() / (raw_res.std(ddof=1) / root_r))
    d = raw_res**2 - qv
    qv_z = float(d.mean() / (d.std(ddof=1) / root_r))
    z_crit = float(-ndtri(0.5 * alpha))
    checks = [
        abs(mean_m) <= 3.0 * se,
        abs(qv_z) <= z_crit,
    ]
    records.extend([
        ReportRecord("dynkin", n, t, "mean_residual", mean_m, 3.0 * se, seed),
        ReportRecord("dynkin", n, t, "var_residual", var_m, None, seed),
        ReportRecord("dynkin", n, t, "mean_qv", qv_mean, None, seed),
        ReportRecord("dynkin", n, t, "var_over_qv", ratio, None, seed),
        ReportRecord("dynkin", n, t, "qv_z", qv_z, z_crit, seed),
        ReportRecord("dynkin", n, t, "raw_residual_z", raw_z, 3.0, seed),
    ])
    lines.extend([
        f"mean M = {mean_m:+.6f}  (3 SE = {3.0 * se:.6f})",
        f"Var(M) = {var_m:.5f}  mean <M> = {qv_mean:.5f}  ratio {ratio:.3f}",
        f"M^2 - <M> z = {qv_z:+.3f}  (|z| <= {z_crit:.3f}, alpha {alpha:g})",
        f"centering-free residual z = {raw_z:+.3f}",
    ])
    return Report("dynkin", all(checks), tuple(records), tuple(lines))


# ---------------------------------------------------------------------------
# exact-oracle and construction comparisons


def _chi_square(counts: np.ndarray, expected: np.ndarray):
    """Pearson chi-square (statistic, dof, p-value) of counts vs expectations.

    Cells with expectation < 5 are pooled into one cell.  A count in a cell
    of expectation 0 is impossible under the model and gives p = 0.
    """
    from scipy.special import chdtrc

    if np.any((expected == 0) & (counts > 0)):
        return math.inf, 0, 0.0
    big = expected >= 5.0
    obs = counts[big].astype(float)
    exp = expected[big]
    if (~big).any() and expected[~big].sum() > 0:
        obs = np.append(obs, counts[~big].sum())
        exp = np.append(exp, expected[~big].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = obs.size - 1
    return stat, dof, float(chdtrc(dof, stat)) if dof > 0 else 1.0


def oracle_report(
    model: ModelSpec,
    master_seed: int,
    *,
    times: tuple = (0.5, 1.0),
    replicas: int = 100_000,
    alpha: float = 1e-3,
) -> Report:
    """Joint state frequencies vs uniformization, one chi-square test per time.

    At each time the 3^N joint-state counts are compared with ``replicas``
    times the exact law by Pearson's chi-square, cells with expectation
    < 5 pooled into one.  The report passes when every time's p-value is
    at least alpha / len(times), so a correct simulator fails it with
    probability at most about ``alpha`` (Bonferroni over the times, to the
    accuracy of the chi-square approximation).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if len(times) == 0:
        raise ValueError("times must hold at least one time")
    gen = build_generator(model)
    init = initial_distribution(model)
    ens = EnsembleSpec(
        model=model, replicas=replicas, master_seed=master_seed,
        snapshot_times=tuple(times),
    )
    result = run_ensemble(ens)
    level = alpha / len(ens.snapshot_times)
    records: list[ReportRecord] = []
    lines: list[str] = []
    ok = True
    for k, t in enumerate(ens.snapshot_times):
        dist = transient_distribution(gen, init, t)
        counts = result.state_counts(k)
        expected = replicas * dist
        delta = counts - expected
        stat, dof, p = _chi_square(counts, expected)
        ok = ok and p >= level
        for idx in range(dist.size):
            records.append(
                ReportRecord("oracle", model.N, t, f"state_{idx}_delta",
                             float(delta[idx]), None, master_seed)
            )
        records.extend([
            ReportRecord("oracle", model.N, t, "chi2_statistic", stat, None,
                         master_seed),
            ReportRecord("oracle", model.N, t, "chi2_dof", float(dof), None,
                         master_seed),
            ReportRecord("oracle", model.N, t, "chi2_pvalue", p, level,
                         master_seed),
        ])
        lines.append(
            f"t={t:g}: chi-square {stat:.2f} on {dof} dof, p = {p:.4f}"
            f" (need >= {level:g})"
        )
    return Report("oracle", ok, tuple(records), tuple(lines))


def construction_report(
    model: ModelSpec,
    master_seed: int,
    *,
    t: float = 1.0,
    replicas: int = 100_000,
) -> Report:
    """Clock-construction vs jump-chain per-urn marginals, 3-sigma bands.

    The two samplers share initial states (same derived stream), which
    only tightens the two-sample comparison.
    """
    ens = EnsembleSpec(
        model=model, replicas=replicas, master_seed=master_seed,
        snapshot_times=(t,),
    )
    sim_states = run_ensemble(ens).states[:, 0, :]
    clock_states = run_clock_ensemble(model, master_seed, replicas, t)
    records: list[ReportRecord] = []
    lines: list[str] = []
    ok = True
    for urn in range(1, model.N + 1):
        for state in (-1, 0, 1):
            p1 = float(np.mean(sim_states[:, urn - 1] == state))
            p2 = float(np.mean(clock_states[:, urn - 1] == state))
            pooled = 0.5 * (p1 + p2)
            sig = math.sqrt(max(pooled * (1.0 - pooled), 0.0) * 2.0 / replicas)
            delta = p1 - p2
            cell_ok = abs(delta) <= 3.0 * sig + 1e-12
            ok = ok and cell_ok
            records.append(
                ReportRecord("construction", model.N, t,
                             f"urn_{urn}_state_{state}_delta", delta,
                             3.0 * sig, master_seed)
            )
            if not cell_ok:
                lines.append(
                    f"urn {urn} state {state:+d}: delta {delta:+.5f}"
                    f" outside band {3.0 * sig:.5f}"
                )
    lines.append(
        f"{model.N} urns x 3 states compared at t={t:g}, R={replicas}: "
        + ("all within 3 sigma" if ok else "band violations above")
    )
    return Report("construction", ok, tuple(records), tuple(lines))
