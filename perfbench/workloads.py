"""The three benchmark workloads: their inputs, operations and output checks.

A round is a fixed list of operations.  Each operation is one call into the
package's public entry points: the CLI (``urnsir.cli.main``) where a
command exists, and ``urnsir.reports.construction_report`` where none
does.  Its check runs after the timed call and returns the problems it
found; an empty list means the output is correct.

Statistical gates each have a false-alarm rate of ALPHA under a correct
program (two-sided, Bonferroni-split where one gate covers several
cells).  The reports' own PASS/FAIL verdicts are recorded next to them but
gate nothing: at these replica counts their fixed rules fail on a fair
share of seeds (see README.md).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

import reference as ref

ALPHA = 1e-6
Z_TWO_SIDED = float(stats.norm.isf(ALPHA / 2))

REPORT_HEADER = ["kind", "N", "t", "statistic", "value", "bound", "seed"]

# acceptance checks 01-02 use FLAT, check 06 uses CONSTANT
FLAT = {"lam": ("constant", 1.0), "psi": ("constant", 1.0),
        "phi": ("constant", 0.5)}
CONSTANT = {"lam": ("constant", 2.0), "psi": ("constant", 1.0),
            "phi": ("constant", 0.2)}
# site-dependent rates; the table is not symmetric, so swapping target and
# source anywhere changes the law the references compute
HETERO = {"lam": ("table", ((0.5, 1.0, 1.5), (1.2, 2.0, 2.4),
                            (1.4, 2.6, 3.0))),
          "psi": ("affine", (0.5, 1.0)),
          "phi": ("affine", (0.1, 0.4))}


def config_text(model: dict, n: int, t: float, grid=None, validate=None) -> str:
    def num(v) -> str:
        return repr(float(v))

    def scalar(name: str, spec) -> list[str]:
        form, vals = spec
        vals = vals if isinstance(vals, tuple) else (vals,)
        return [f"[{name}]", f"form = {form}",
                "values = " + ", ".join(num(v) for v in vals), ""]

    lines = ["[model]", f"N = {n}", f"T = {num(t)}", "", "[lambda]"]
    form, vals = model["lam"]
    if form == "constant":
        lines += ["form = constant", f"lam0 = {num(vals)}", ""]
    else:
        lines += ["form = table", f"size = {len(vals)}",
                  "values = " + ", ".join(num(v) for row in vals for v in row),
                  ""]
    lines += scalar("psi", model["psi"]) + scalar("phi", model["phi"])
    for name, section in (("grid", grid), ("validate", validate)):
        if section:
            lines.append(f"[{name}]")
            lines += [f"{k} = {v}" for k, v in section.items()]
            lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    phase: str
    label: str
    replicas: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    out_dir: Path | None = None


@dataclass
class CliResult:
    verdicts: list[str]


def _cli(argv: list[str]) -> CliResult:
    import urnsir.cli  # resolved at call time so the traced run sees wrappers

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = urnsir.cli.main(argv)
    if code not in (0, 3):  # 3 is a report verdict of FAIL, not an error
        raise RuntimeError(f"urnsir {' '.join(argv[:2])} exited with {code}")
    verdicts = [line.strip() for line in buf.getvalue().splitlines()
                if line.startswith(("[PASS]", "[FAIL]"))]
    return CliResult(verdicts)


def _prepare(out: Path, label: str, text: str) -> tuple[Path, Path]:
    op_dir = out / label
    op_dir.mkdir(parents=True, exist_ok=True)
    for old in op_dir.glob("*.csv"):
        old.unlink()
    cfg = op_dir / "config.ini"
    cfg.write_text(text)
    return op_dir, cfg


def cli_op(out: Path, phase: str, label: str, command: list[str], text: str,
           check: Callable[[CliResult, Path], list[str]],
           seed: int | None = None, replicas: int = 0,
           simulated: int | None = None) -> Op:
    """One CLI call; ``simulated`` counts replicas over all its ensembles."""
    op_dir, cfg = _prepare(out, label, text)
    argv = command + ["--config", str(cfg), "--out", str(op_dir)]
    if seed is not None:
        argv += ["--seed", str(seed), "--replicas", str(replicas)]
    return Op(phase, label, replicas if simulated is None else simulated,
              lambda: _cli(argv), lambda res: check(res, op_dir), op_dir)


# ---------------------------------------------------------------------------
# reading outputs


class OutputError(Exception):
    """An output file is missing or does not have the documented layout."""


def read_records(path: Path) -> list[dict]:
    """Rows of a validate_*.csv, which must carry the documented header."""
    if not path.is_file():
        raise OutputError(f"{path.name} was not written")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != REPORT_HEADER:
        raise OutputError(f"{path.name}: header is not {REPORT_HEADER}")
    out = []
    for row in rows[1:]:
        if len(row) != len(REPORT_HEADER):
            raise OutputError(f"{path.name}: malformed row {row}")
        rec = dict(zip(REPORT_HEADER, row))
        rec["N"] = int(rec["N"])
        rec["t"] = float(rec["t"])
        rec["value"] = float(rec["value"])
        rec["bound"] = float(rec["bound"]) if rec["bound"] else None
        out.append(rec)
    return out


def by_statistic(records: list[dict]) -> dict:
    return {(r["statistic"], r["N"]): r for r in records}


def csv_chunks(path: Path, header: list[str], size: int):
    """Rows of a CSV in lists of ``size``, so big files stay out of memory."""
    if not path.is_file():
        raise OutputError(f"{path.name} was not written")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise OutputError(f"{path.name}: header is not {header}")
        while rows := list(itertools.islice(reader, size)):
            yield rows


def chi2_interval(dof: int) -> tuple[float, float]:
    """Two-sided ALPHA interval of a sample-variance ratio on dof d.o.f."""
    return (float(stats.chi2.ppf(ALPHA / 2, dof)) / dof,
            float(stats.chi2.isf(ALPHA / 2, dof)) / dof)


def program_distribution(cfg: Path, t: float) -> np.ndarray:
    """The package's own exact law at t, to rebuild counts from its CSVs."""
    from urnsir.config import load_config
    from urnsir.oracle import (build_generator, initial_distribution,
                               transient_distribution)

    spec = load_config(cfg).model
    return transient_distribution(build_generator(spec),
                                  initial_distribution(spec), t)


# ---------------------------------------------------------------------------
# small-n-exact


def check_oracle(model, n, times, replicas):
    def check(res: CliResult, op_dir: Path) -> list[str]:
        recs = read_records(op_dir / "validate_oracle.csv")
        p_ref = ref.joint_distribution(model, n, times)
        problems = []
        for k, t in enumerate(times):
            delta = np.full(3 ** n, np.nan)
            for r in recs:
                if r["statistic"].startswith("state_") and abs(r["t"] - t) < 1e-12:
                    delta[int(r["statistic"].split("_")[1])] = r["value"]
            if np.isnan(delta).any():
                return [f"t={t}: validate_oracle.csv lacks some of the "
                        f"{3 ** n} states"]
            p_prog = program_distribution(op_dir / "config.ini", t)
            if np.max(np.abs(p_prog - p_ref[k])) > 1e-9:
                problems.append(f"t={t}: exact law differs from expm reference")
            counts = delta + replicas * p_prog
            if (np.max(np.abs(counts - np.round(counts))) > 1e-3
                    or round(counts.sum()) != replicas or counts.min() < -1e-3):
                problems.append(f"t={t}: state counts are not a histogram of "
                                f"{replicas} replicas")
                continue
            p = gof_pvalue(np.round(counts), replicas * p_ref[k])
            if p < ALPHA:
                problems.append(f"t={t}: chi-square p={p:.2e} < {ALPHA:g}")
        return problems
    return check


def gof_pvalue(counts: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square goodness of fit, cells with expectation < 5 pooled."""
    if np.any((expected == 0) & (counts > 0)):
        return 0.0
    big = expected >= 5
    obs = list(counts[big])
    exp = list(expected[big])
    if (~big).any() and expected[~big].sum() > 0:
        obs.append(counts[~big].sum())
        exp.append(expected[~big].sum())
    obs, exp = np.array(obs), np.array(exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(stat, len(obs) - 1))


def check_construction(report) -> list[str]:
    cells = [r for r in report.records if r.statistic.startswith("urn_")]
    if len(cells) != 3 * report.records[0].n:
        return [f"construction: expected {3 * report.records[0].n} cells"]
    z_crit = float(stats.norm.isf(ALPHA / (2 * len(cells))))
    problems = []
    for r in cells:
        sigma = r.bound / 3.0
        if sigma == 0.0 and r.value != 0.0:
            problems.append(f"{r.statistic}: nonzero delta with zero variance")
        elif sigma > 0.0 and abs(r.value) / sigma > z_crit:
            problems.append(f"{r.statistic}: |z|={abs(r.value) / sigma:.2f}"
                            f" > {z_crit:.2f}")
    return problems


def check_cov(model, ns, anchor_n, t):
    def check(res: CliResult, op_dir: Path) -> list[str]:
        problems = []
        ladder = by_statistic(read_records(op_dir / "validate_cov.csv"))
        for n in ns:
            for stat in ("n_mean_abs_cov", "n_max_abs_cov", "n_signed_mean_cov",
                         "n_noise_floor", "n_excess"):
                rec = ladder.get((stat, n))
                if rec is None or not math.isfinite(rec["value"]):
                    problems.append(f"validate_cov.csv: N={n} lacks {stat}")
        anchor = read_records(op_dir / "validate_cov_anchor.csv")
        dist_ref = ref.joint_distribution(model, anchor_n, [t])[0]
        cov_ref = ref.pair_covariances(dist_ref, anchor_n)
        anchor_cfg = op_dir / "anchor.ini"
        anchor_cfg.write_text(config_text(model, anchor_n, t))
        dist_prog = program_distribution(anchor_cfg, t)
        if np.max(np.abs(dist_prog - dist_ref)) > 1e-9:
            problems.append("anchor: exact law differs from expm reference")
        cov_prog = ref.pair_covariances(dist_prog, anchor_n)
        if len(anchor) != len(cov_ref):
            return problems + [f"anchor: expected {len(cov_ref)} pairs"]
        z_crit = float(stats.norm.isf(ALPHA / (2 * len(cov_ref))))
        for r in anchor:
            i, j = (int(x) for x in r["statistic"].split("_")[2:4])
            mc = r["value"] + cov_prog[(i, j)]
            z = (mc - cov_ref[(i, j)]) / (r["bound"] / 3.0)
            if abs(z) > z_crit:
                problems.append(f"anchor pair ({i},{j}): |z|={abs(z):.2f}"
                                f" > {z_crit:.2f}")
        return problems
    return check


def small_n_exact(out: Path, seeds: list[int]) -> list[Op]:
    times = (0.5, 1.0)
    oracle_validate = {"oracle_times": "0.5, 1.0"}
    cov_ns, cov_pairs, anchor_n, cov_r = (12, 24, 48), 100, 4, 800
    ops = [
        cli_op(out, "oracle", "oracle-flat-n4", ["validate", "oracle"],
               config_text(FLAT, 4, 1.0, validate=oracle_validate),
               check_oracle(FLAT, 4, times, 10_000), seeds[0], 10_000),
        cli_op(out, "oracle", "oracle-hetero-n3", ["validate", "oracle"],
               config_text(HETERO, 3, 1.0, validate=oracle_validate),
               check_oracle(HETERO, 3, times, 10_000), seeds[1], 10_000),
    ]
    flat4 = config_text(FLAT, 4, 1.0)
    op_dir, cfg = _prepare(out, "construction-flat-n4", flat4)

    def construction():
        import urnsir.reports
        from urnsir.config import load_config

        return urnsir.reports.construction_report(
            load_config(cfg).model, seeds[2], t=1.0, replicas=2_000)

    ops.append(Op("construction", "construction-flat-n4", 2 * 2_000,
                  construction, check_construction, op_dir))
    cov_validate = {"cov_ns": ", ".join(map(str, cov_ns)), "cov_t": 1.0,
                    "cov_pairs": cov_pairs, "cov_anchor_n": anchor_n}
    ops.append(cli_op(
        out, "cov", "cov-hetero", ["validate", "cov"],
        config_text(HETERO, anchor_n, 1.0, validate=cov_validate),
        check_cov(HETERO, cov_ns, anchor_n, 1.0), seeds[3], cov_r,
        simulated=cov_r * (len(cov_ns) + 1)))
    return ops


# ---------------------------------------------------------------------------
# large-n-ensembles


def check_lln(ns, replicas):
    def check(res: CliResult, op_dir: Path) -> list[str]:
        recs = by_statistic(read_records(op_dir / "validate_lln.csv"))
        rms = []
        for n in ns:
            rec = recs.get(("rms_error", n))
            if rec is None or not rec["value"] > 0:
                return [f"validate_lln.csv: N={n} lacks a positive rms_error"]
            rms.append(rec["value"])
        slope_rec = recs.get(("slope", 0))
        if slope_rec is None:
            return ["validate_lln.csv lacks the slope"]
        x = np.log(np.asarray(ns, float))
        slope = float(np.polyfit(x, np.log(rms), 1)[0])
        problems = []
        if abs(slope - slope_rec["value"]) > 1e-8:
            problems.append("lln: reported slope does not fit the rms errors")
        # Var(log rms) ~ 1/(2R) per rung, so the fitted slope has this SE
        se = math.sqrt(1.0 / (2 * replicas) / float(((x - x.mean()) ** 2).sum()))
        if abs(slope + 0.5) > Z_TWO_SIDED * se:
            problems.append(f"lln: slope {slope:+.3f} is more than "
                            f"{Z_TWO_SIDED:.2f} SE ({se:.3f}) from -1/2")
        return problems
    return check


def check_dynkin(n, replicas):
    def check(res: CliResult, op_dir: Path) -> list[str]:
        recs = by_statistic(read_records(op_dir / "validate_dynkin.csv"))
        need = ("mean_residual", "var_residual", "mean_qv", "var_over_qv",
                "raw_residual_z")
        if any((s, n) not in recs for s in need):
            return ["validate_dynkin.csv lacks a statistic"]
        v = {s: recs[(s, n)]["value"] for s in need}
        problems = []
        se = recs[("mean_residual", n)]["bound"] / 3.0
        if abs(v["mean_residual"]) > Z_TWO_SIDED * se:
            problems.append("dynkin: mean residual beyond the ALPHA band")
        if abs(v["raw_residual_z"]) > Z_TWO_SIDED:
            problems.append(f"dynkin: raw residual z={v['raw_residual_z']:+.2f}")
        if abs(v["var_residual"] / v["mean_qv"] - v["var_over_qv"]) > 1e-9:
            problems.append("dynkin: var_over_qv is not var_residual/mean_qv")
        lo, hi = chi2_interval(replicas - 1)
        if not lo <= v["var_over_qv"] <= hi:
            problems.append(f"dynkin: Var(M)/<M> = {v['var_over_qv']:.3f}"
                            f" outside [{lo:.3f}, {hi:.3f}]")
        return problems
    return check


def check_clt(model, n, t, replicas):
    lam0, psi0, phi0 = (model[k][1] for k in ("lam", "psi", "phi"))

    def check(res: CliResult, op_dir: Path) -> list[str]:
        recs = by_statistic(read_records(op_dir / "validate_clt.csv"))
        try:
            v = {s: recs[(s, n)]["value"] for s in (
                "var_eta", "var_eta_theory", "var_beta", "var_beta_theory",
                "cov_eta_beta_theory", "ks_pvalue", "var_eta0",
                "var_eta0_theory")}
        except KeyError as exc:
            return [f"validate_clt.csv lacks {exc}"]
        _, _, c11, c12, c22 = ref.homogeneous(lam0, psi0, phi0, [0.0, t])[-1]
        problems = []
        for name, exact in (("var_eta_theory", c11), ("var_beta_theory", c22),
                            ("cov_eta_beta_theory", c12),
                            ("var_eta0_theory", phi0 * (1 - phi0))):
            if abs(v[name] - exact) > 1e-7 * max(1.0, abs(exact)):
                problems.append(f"clt: {name}={v[name]:.9f}, reference "
                                f"{exact:.9f}")
        lo, hi = chi2_interval(replicas - 1)
        for emp, th in (("var_eta", c11), ("var_beta", c22),
                        ("var_eta0", phi0 * (1 - phi0))):
            if not lo <= v[emp] / th <= hi:
                problems.append(f"clt: {emp}/theory = {v[emp] / th:.3f}"
                                f" outside [{lo:.3f}, {hi:.3f}]")
        if v["ks_pvalue"] < ALPHA:
            problems.append(f"clt: KS p={v['ks_pvalue']:.2e} < {ALPHA:g}")
        return problems
    return check


def large_n_ensembles(out: Path, seeds: list[int]) -> list[Op]:
    lln_ns, lln_r = (50, 200, 800), 40
    dyn_n, dyn_r = 1000, 40
    clt_n, clt_r = 2000, 200
    lln_validate = {"lln_ns": ", ".join(map(str, lln_ns)), "lln_t": 1.0}
    return [
        cli_op(out, "lln", "lln-hetero", ["validate", "lln"],
               config_text(HETERO, lln_ns[-1], 1.0, validate=lln_validate),
               check_lln(lln_ns, lln_r), seeds[0], lln_r,
               simulated=lln_r * len(lln_ns)),
        cli_op(out, "dynkin", "dynkin-hetero", ["validate", "dynkin"],
               config_text(HETERO, dyn_n, 1.0, validate={"dynkin_t": 1.0}),
               check_dynkin(dyn_n, dyn_r), seeds[1], dyn_r),
        cli_op(out, "clt", "clt-constant", ["validate", "clt"],
               config_text(CONSTANT, clt_n, 1.0,
                           validate={"clt_t": 1.0, "clt_m": 16,
                                     "clt_dt": 1e-3}),
               check_clt(CONSTANT, clt_n, 1.0, clt_r), seeds[2], clt_r),
    ]


# ---------------------------------------------------------------------------
# limit-solvers


def _steps(t: float, dt: float) -> tuple[int, float]:
    n = max(1, int(round(t / dt)))
    return n, t / n


def check_density(model, m, t, dt):
    def check(res: CliResult, op_dir: Path) -> list[str]:
        n, h = _steps(t, dt)
        times = np.arange(n + 1) * h
        rho1, rho0 = ref.density(model, m, times)
        u = ref.nodes(m)
        worst, k = 0.0, 0
        for k, rows in enumerate(csv_chunks(
                op_dir / "density.csv", ["time", "node_u", "rho1", "rho0"], m)):
            if k > n or len(rows) != m:
                return [f"density.csv: not {n + 1} times x {m} nodes"]
            a = np.array(rows, dtype=float)
            if (np.max(np.abs(a[:, 0] - times[k])) > 1e-9
                    or np.max(np.abs(a[:, 1] - u)) > 1e-9):
                return [f"density.csv: block {k} is not time {times[k]:g}"
                        f" on the node grid"]
            worst = max(worst, float(np.max(np.abs(a[:, 2] - rho1[k]))),
                        float(np.max(np.abs(a[:, 3] - rho0[k]))))
        if k != n:
            return [f"density.csv: {k + 1} times, expected {n + 1}"]
        if worst > 1e-9:
            return [f"density.csv: max |rho - reference| = {worst:.2e}"]
        return []
    return check


def check_covariance(model, m, t, dt, homogeneous=False):
    header = ["time", "block", "row_u", "col_u", "value"]

    def stored_times(path: Path):
        """(time, 2M x 2M matrix) per stored time, one time in memory."""
        blocks = {}
        for rows in csv_chunks(path, header, m * m):
            if len(rows) != m * m or len({r[0] for r in rows}) != 1 or len(
                    {r[1] for r in rows}) != 1:
                raise OutputError("covariance.csv: a block is not one M x M"
                                  " matrix")
            name = rows[0][1]
            if name != ["ee", "eb", "bb"][len(blocks)]:
                raise OutputError("covariance.csv: blocks are not ee, eb, bb"
                                  " per time")
            blocks[name] = np.array([r[4] for r in rows], dtype=float
                                    ).reshape(m, m)
            if len(blocks) == 3:
                ee, eb, bb = blocks["ee"], blocks["eb"], blocks["bb"]
                yield float(rows[0][0]), np.block([[ee, eb], [eb.T, bb]])
                blocks = {}
        if blocks:
            raise OutputError("covariance.csv: the last time lacks a block")

    def check(res: CliResult, op_dir: Path) -> list[str]:
        phi = ref.field_at(model["phi"], ref.nodes(m))
        d = np.diag(m * phi * (1 - phi))
        c0 = np.block([[d, -d], [-d, d]])
        problems, sums = [], []
        for k, (when, c) in enumerate(stored_times(op_dir / "covariance.csv")):
            scale = max(1.0, float(np.max(np.abs(c))))
            if np.max(np.abs(c - c.T)) > 1e-10 * scale:
                problems.append(f"covariance t={when:g}: not symmetric")
            if np.linalg.eigvalsh(c)[0] < -1e-8 * scale:
                problems.append(f"covariance t={when:g}: not PSD")
            if k == 0 and np.max(np.abs(c - c0)) > 1e-10 * m:
                problems.append("covariance t=0: not the independent-initial"
                                " block")
            sums.append([c[:m, :m].sum(), c[:m, m:].sum(), c[m:, m:].sum()])
        if not sums:
            return problems + ["covariance.csv holds no stored time"]
        pairs = np.array([r for chunk in csv_chunks(
            op_dir / "covariance_pairs.csv",
            ["time", "var_eta_f", "cov_eta_beta", "var_beta_g"], 1024)
            for r in chunk], dtype=float)
        if len(pairs) != len(sums):
            return problems + [f"covariance_pairs.csv: {len(pairs)} rows for"
                               f" {len(sums)} stored times"]
        sums = np.array(sums) / (m * m)
        if np.max(np.abs(pairs[:, 1:] - sums)) > 1e-9 * max(
                1.0, float(np.max(np.abs(sums)))):
            problems.append("covariance_pairs.csv is not (1/M^2) sum of blocks")
        if homogeneous:
            lam0, psi0, phi0 = (model[k][1] for k in ("lam", "psi", "phi"))
            h = ref.homogeneous(lam0, psi0, phi0, pairs[:, 0])
            err = float(np.max(np.abs(pairs[:, 1:] - h[:, 2:])))
            tol = 10.0 * _steps(t, dt)[1] ** 4
            if err > tol:
                problems.append(f"covariance_pairs.csv: |pairs - 2x2 reference|"
                                f" = {err:.2e} > {tol:.1e}")
        return problems
    return check


def check_homogeneous(model, t, dt):
    lam0, psi0, phi0 = (model[k][1] for k in ("lam", "psi", "phi"))

    def check(res: CliResult, op_dir: Path) -> list[str]:
        rows = [r for chunk in csv_chunks(
            op_dir / "homogeneous.csv",
            ["time", "infected", "susceptible", "var_eta", "cov_eta_beta",
             "var_beta"], 4096) for r in chunk]
        n, h = _steps(t, dt)
        if len(rows) != n + 1:
            return [f"homogeneous.csv: {len(rows)} rows, expected {n + 1}"]
        a = np.array(rows, dtype=float)
        if np.max(np.abs(a[:, 0] - np.arange(n + 1) * h)) > 1e-9:
            return ["homogeneous.csv: times are not the step grid"]
        err = float(np.max(np.abs(a[:, 1:] - ref.homogeneous(
            lam0, psi0, phi0, a[:, 0]))))
        return [] if err <= 1e-9 else [
            f"homogeneous.csv: max |value - reference| = {err:.2e}"]
    return check


def limit_solvers(out: Path, seeds: list[int]) -> list[Op]:

    def solver(phase, label, model, m, dt, check, **kw):
        text = config_text(model, m, 1.0, grid={"M": m, "dt": dt})
        return cli_op(out, phase, label, [phase], text,
                      check(model, m, 1.0, dt, **kw))

    homog = config_text(CONSTANT, 64, 1.0, grid={"M": 64, "dt": 1e-3})
    return [
        solver("solve", "solve-hetero", HETERO, 128, 1e-3, check_density),
        solver("solve", "solve-constant", CONSTANT, 64, 1e-3, check_density),
        solver("fluctuate", "fluctuate-hetero", HETERO, 64, 0.02,
               check_covariance),
        solver("fluctuate", "fluctuate-constant", CONSTANT, 64, 0.04,
               check_covariance, homogeneous=True),
        cli_op(out, "homogeneous", "homogeneous-constant", ["homogeneous"],
               homog, check_homogeneous(CONSTANT, 1.0, 1e-3)),
    ]


WORKLOADS = {
    "small-n-exact": (small_n_exact, ("oracle", "construction", "cov")),
    "large-n-ensembles": (large_n_ensembles, ("lln", "dynkin", "clt")),
    "limit-solvers": (limit_solvers, ("solve", "fluctuate", "homogeneous")),
}
