import ast
import csv
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import stats

from urnsir.fields import Kernel, ScalarField
from urnsir.fluctuation import PanelSeries, evolve_covariance, pair_covariance
from urnsir.model import ModelSpec
from urnsir.reports import (
    Report,
    ReportRecord,
    clt_report,
    construction_report,
    covariance_anchor_report,
    covariance_decay_report,
    dynkin_report,
    lln_report,
    oracle_report,
    write_report_csv,
)
from urnsir.reports import _chi_square, _ks_normal

ZERO = ScalarField.constant(0.0)
SEED = 404


def flat(n=100, lam=1.5, psi=1.0, phi=0.4, T=2.0):
    return ModelSpec(
        lam=Kernel.constant(lam),
        psi=ScalarField.constant(psi),
        phi=ScalarField.constant(phi),
        N=n,
        T=T,
    )


def no_infection(n=30):
    return ModelSpec(
        lam=Kernel.constant(0.0),
        psi=ScalarField.constant(1.0),
        phi=ScalarField.constant(0.5),
        N=n,
        T=1.0,
    )


class TestLln:
    def test_slope_near_minus_half(self):
        rep = lln_report(
            flat(), SEED, ns=(50, 100, 200), t=1.0, replicas=150
        )
        assert rep.passed
        slope = [r for r in rep.records if r.statistic == "slope"][0]
        assert abs(slope.value + 0.5) <= slope.bound
        # one rms and one mean-abs record per ladder point, plus the slope
        assert len(rep.records) == 2 * 3 + 1

    def test_zero_test_function_degenerates_cleanly(self):
        rep = lln_report(flat(), SEED, f=ZERO, ns=(10, 20), t=0.5, replicas=5)
        assert rep.passed
        slope = [r for r in rep.records if r.statistic == "slope"][0]
        assert math.isnan(slope.value)

    def test_time_validation(self):
        with pytest.raises(ValueError):
            lln_report(flat(T=1.0), SEED, t=1.5)

    @pytest.mark.parametrize("ns", [(), (50,), (50, 50)])
    def test_ladder_needs_two_distinct_n(self, ns):
        # one point has no slope: numpy would warn and fit a meaningless one
        with pytest.raises(ValueError, match="ns must hold"):
            lln_report(flat(), SEED, ns=ns, t=1.0, replicas=5)


class TestCovarianceDecay:
    @pytest.mark.parametrize("ns", [(), (20,), (20, 20)])
    def test_ladder_needs_two_distinct_n(self, ns):
        # the trend test compares the first and last rungs
        with pytest.raises(ValueError, match="ns must hold"):
            covariance_decay_report(flat(), SEED, ns=ns, t=0.5, replicas=5)

    @pytest.mark.parametrize("ns,pairs", [((2, 4), 10), ((10, 20), 1)])
    def test_rung_needs_two_pairs(self, ns, pairs):
        # one pair per rung has no spread: the n_excess bound would be NaN
        # and the trend verdict would pass on it
        with pytest.raises(ValueError, match="pairs_per_n >= 2"):
            covariance_decay_report(flat(), SEED, ns=ns, t=0.5, replicas=50,
                                    pairs_per_n=pairs)

    def test_excess_stays_bounded(self):
        rep = covariance_decay_report(
            flat(), SEED, ns=(20, 40, 80), t=0.5, replicas=2000,
            pairs_per_n=60,
        )
        assert rep.passed
        stats_per_n = {r.statistic for r in rep.records}
        assert stats_per_n == {
            "n_mean_abs_cov", "n_max_abs_cov", "n_signed_mean_cov",
            "n_noise_floor", "n_excess",
        }
        assert len(rep.records) == 5 * 3

    def test_anchor_all_pairs_in_band(self):
        rep = covariance_anchor_report(
            flat(n=3), SEED, t=0.5, replicas=4000
        )
        assert rep.passed
        assert len(rep.records) == 3  # pairs (1,2), (1,3), (2,3)
        assert all(r.bound > 0 for r in rep.records)
        assert all(abs(r.value) <= r.bound for r in rep.records)


class TestClt:
    def test_variances_and_normality(self):
        rep = clt_report(
            flat(n=400), SEED, t=0.5, replicas=250, m_grid=16,
            rel_tol=0.15,
        )
        assert rep.passed
        by_name = {r.statistic: r for r in rep.records}
        assert abs(by_name["var_eta_ratio"].value - 1.0) <= 0.15
        assert abs(by_name["var_beta_ratio"].value - 1.0) <= 0.15
        assert by_name["ks_pvalue"].value > 0.01
        assert abs(by_name["var_eta0"].value - by_name["var_eta0_theory"].value
                   ) <= by_name["var_eta0"].bound

    def test_zero_test_function_degenerates_cleanly(self):
        rep = clt_report(flat(n=50), SEED, f=ZERO, g=ZERO, t=0.5, replicas=20)
        assert rep.passed
        assert rep.records[0].statistic == "degenerate"

    def test_time_validation(self):
        with pytest.raises(ValueError):
            clt_report(flat(T=1.0), SEED, t=0.0)

    def test_theory_is_the_lyapunov_pairing(self):
        # the adjoint columns give the dense solve's 2x2 pairing, with f
        # read by eta and g by beta
        spec = ModelSpec(
            lam=Kernel.table([[0.5, 1.0], [1.2, 2.6]]),
            psi=ScalarField.affine(0.5, 1.0),
            phi=ScalarField.affine(0.1, 0.4), N=60, T=1.0,
        )
        f, g = ScalarField.affine(0.5, 1.0), ScalarField.affine(1.0, -0.5)
        rep = clt_report(spec, SEED, f=f, g=g, t=0.8, replicas=20, m_grid=12,
                         dt=1e-3)
        by_name = {r.statistic: r.value for r in rep.records}
        series = PanelSeries(spec, 12, 1e-3, 0.8)
        dense = pair_covariance(evolve_covariance(series).covariances[-1],
                                f, g, 12)
        got = [by_name["var_eta_theory"], by_name["cov_eta_beta_theory"],
               by_name["var_beta_theory"]]
        np.testing.assert_allclose(got, dense[[0, 0, 1], [0, 1, 1]],
                                   rtol=1e-12)


class TestDynkin:
    def test_variance_matches_quadratic_variation(self):
        rep = dynkin_report(flat(n=150), SEED, t=0.5, replicas=200)
        assert rep.passed
        by_name = {r.statistic: r for r in rep.records}
        assert 0.85 <= by_name["var_over_qv"].value <= 1.15
        assert abs(by_name["mean_residual"].value) <= by_name["mean_residual"].bound
        assert by_name["raw_residual_z"].bound == 3.0

    def test_no_infection_flux_degenerates_cleanly(self):
        rep = dynkin_report(no_infection(), SEED, t=1.0, replicas=50)
        assert rep.passed
        assert rep.records[0].statistic == "degenerate"


class TestOracleAndConstruction:
    def test_frequencies_match_exact_chain(self):
        rep = oracle_report(
            flat(n=3, T=1.0), SEED, times=(0.5,), replicas=20_000
        )
        assert rep.passed
        by_name = {r.statistic: r for r in rep.records}
        assert by_name["chi2_pvalue"].value >= by_name["chi2_pvalue"].bound
        assert by_name["chi2_pvalue"].bound == 1e-3
        # 27 per-state deltas plus the statistic, its dof and its p-value
        assert len(rep.records) == 27 + 3

    def test_alpha_is_split_over_times(self):
        rep = oracle_report(
            flat(n=2, T=1.0), SEED, times=(0.5, 1.0), replicas=2000,
            alpha=0.01,
        )
        bounds = [r.bound for r in rep.records if r.statistic == "chi2_pvalue"]
        assert bounds == [0.005, 0.005]

    def test_unit_alpha_fails(self):
        rep = oracle_report(
            flat(n=2, T=1.0), SEED, times=(0.5,), replicas=2000, alpha=1.0,
        )
        assert not rep.passed
        assert rep.summary() == "[FAIL] oracle"
        with pytest.raises(ValueError):
            oracle_report(flat(n=2, T=1.0), SEED, times=(0.5,), alpha=0.0)

    def test_no_times_rejected(self):
        # the level alpha / len(times) needs a time to split over
        with pytest.raises(ValueError, match="times must hold"):
            oracle_report(flat(n=2, T=1.0), SEED, times=(), replicas=10)

    def test_chi_square_pools_small_cells(self):
        counts = np.array([52, 48, 3, 1, 0])
        expected = np.array([50.0, 50.0, 2.0, 1.5, 0.5])
        stat, dof, p = _chi_square(counts, expected)
        # cells 3..5 pool into one of expectation 4 holding 4 counts
        assert dof == 2
        assert stat == pytest.approx(0.08 + 0.08 + 0.0)
        assert p == pytest.approx(stats.chi2.sf(0.16, 2))
        assert _chi_square(np.array([9, 1]), np.array([10.0, 0.0]))[2] == 0.0

    def test_construction_marginals_agree(self):
        rep = construction_report(
            flat(n=3, T=1.0), SEED, t=0.5, replicas=8000
        )
        assert rep.passed
        assert len(rep.records) == 3 * 3
        assert rep.summary() == "[PASS] construction"


@pytest.mark.parametrize("report,model", [
    (clt_report, flat(n=10)),
    (dynkin_report, flat(n=10)),
    (covariance_decay_report, flat(n=10)),
    (covariance_anchor_report, flat(n=4)),
])
def test_sample_variances_need_two_replicas(report, model):
    with pytest.raises(ValueError, match="replicas must be at least 2"):
        report(model, SEED, t=0.5, replicas=1)


def test_report_csv_round_trip(tmp_path):
    rep = Report(
        kind="demo",
        passed=True,
        records=(
            ReportRecord("demo", 5, 1.0, "alpha", 0.25, 0.5, 7),
            ReportRecord("demo", 5, 1.0, "beta", -1.0, None, 7),
        ),
        lines=("line",),
    )
    path = tmp_path / "report.csv"
    write_report_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "N", "t", "statistic", "value", "bound", "seed"]
    assert rows[1] == ["demo", "5", "1", "alpha", "0.25", "0.5", "7"]
    assert rows[2][5] == ""  # missing bound stays empty, not "None"


def test_special_function_p_values_equal_scipy_stats():
    rng = np.random.default_rng(8)
    for _ in range(300):
        expected = rng.uniform(0.5, 40.0, int(rng.integers(2, 60)))
        counts = rng.poisson(expected)
        stat, dof, p = _chi_square(counts, expected)
        assert p == (stats.chi2.sf(stat, dof) if dof > 0 else 1.0)
    for size in rng.integers(5, 3000, 100):
        z = rng.normal(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0), size)
        want = stats.kstest(z, "norm", method="asymp")
        assert _ks_normal(z) == (want.statistic, want.pvalue)


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this suite's path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_does_not_load_scipy(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(textwrap.dedent("""\
        [model]
        N = 4
        T = 0.5

        [lambda]
        form = constant
        lam0 = 1.5

        [psi]
        form = constant
        values = 1.0

        [phi]
        form = constant
        values = 0.4

        [grid]
        M = 4
        dt = 0.1
        """))
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    out = run_fresh(
        "import sys, urnsir, urnsir.cli\n"
        f"urnsir.load_config({str(cfg)!r})\n"
        f"assert urnsir.cli.main({argv!r}) == 0\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    assert (tmp_path / "out" / "density.csv").is_file()
    assert out.splitlines()[-1] == "[]"


def test_package_loads_a_module_when_a_name_is_first_used(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nN = 4\nT = 0.5\n[lambda]\nform = constant\n"
                   "lam0 = 1.5\n[psi]\nform = constant\nvalues = 1.0\n"
                   "[phi]\nform = constant\nvalues = 0.4\n")
    out = run_fresh(
        "import sys, urnsir\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "                 ('urnsir', 'json', 'csv', 'hashlib')))\n"
        f"urnsir.load_config({str(cfg)!r})\n"
        "loaded()\n"
        "urnsir.solve_density\n"
        "loaded()\n")
    after_config, after_solver = map(ast.literal_eval, out.splitlines()[-2:])
    assert after_config == ["urnsir", "urnsir.config", "urnsir.fields",
                            "urnsir.model", "urnsir.streams"]
    assert "urnsir.hydro" in after_solver
    assert "urnsir.gillespie" not in after_solver


# Every function that imports scipy at its first call, run once; the
# subprocess test runs this from a cold start, the suite with scipy loaded.
COLD_CALLS = """\
import dataclasses, sys
import numpy as np
from urnsir.fields import Kernel, ScalarField
from urnsir.model import ModelSpec
from urnsir.oracle import (build_generator, initial_distribution,
                           transient_distribution)
from urnsir.reports import _chi_square, _ks_normal, dynkin_report

cold = [m for m in sys.modules if m.split(".")[0] == "scipy"]
spec = ModelSpec(lam=Kernel.constant(1.5), psi=ScalarField.constant(1.0),
                 phi=ScalarField.constant(0.4), N=3, T=1.0)
gen = build_generator(spec)
rep = dynkin_report(spec, 404, t=0.5, replicas=12, dt_report=0.1)
values = {
    "transient": transient_distribution(
        gen, initial_distribution(spec), 0.5).tolist(),
    "chi_square": _chi_square(np.array([9, 14, 2, 3]),
                              np.array([10.0, 12.0, 4.5, 1.5])),
    "ks_normal": _ks_normal(np.linspace(-2.0, 2.5, 40)),
    "dynkin": (rep.passed, [dataclasses.astuple(r) for r in rep.records]),
}
"""


def test_cold_scipy_imports_give_in_process_values():
    out = json.loads(run_fresh(
        COLD_CALLS + "import json\nprint(json.dumps([cold, values]))\n"))
    warm = {}
    exec(COLD_CALLS, warm)
    assert out[0] == []
    assert out[1] == json.loads(json.dumps(warm["values"]))
