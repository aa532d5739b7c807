import csv
import inspect
import io
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from urnsir import cli
from urnsir.cli import main
from urnsir.config import (
    VALIDATE_KEYS,
    ConfigError,
    canonical_model_text,
    load_config,
    spec_hash,
)
from urnsir.fields import Kernel, ScalarField
from urnsir.homogeneous import classic_clt_covariance
from urnsir.model import ModelSpec
from urnsir.reports import (
    clt_report,
    covariance_anchor_report,
    covariance_decay_report,
    dynkin_report,
    lln_report,
    oracle_report,
    write_report_csv,
)

README = Path(__file__).resolve().parents[1] / "README.md"
REPORTS = {"lln": lln_report, "cov": covariance_decay_report,
           "clt": clt_report, "dynkin": dynkin_report,
           "oracle": oracle_report}


def write_ini(path, *parts):
    path.write_text("\n".join(textwrap.dedent(p) for p in parts))
    return str(path)


BASE = """\
    [model]
    N = 6
    T = 1.0

    [lambda]
    form = constant
    lam0 = 1.5

    [psi]
    form = constant
    values = 1.0

    [phi]
    form = constant
    values = 0.4
    """


class TestLoadConfig:
    def test_full_file(self, tmp_path):
        path = write_ini(tmp_path / "run.ini", """\
            [model]
            N = 8
            T = 2.5

            [lambda]
            form = separable
            h1_form = affine
            h1_values = 0.8, 0.6
            h2_form = table
            h2_values = 1.2, 0.7, 0.9

            [psi]
            form = affine
            values = 0.5, 0.8

            [phi]
            form = table
            values = 0.2, 0.3, 0.4, 0.5

            [grid]
            M = 16
            dt = 0.01

            [ensemble]
            master_seed = 99
            snapshot_times = 0.5, 1.0, 2.5

            [validate]
            lln_ns = 20, 40
            oracle_times = 0.25, 0.75
            clt_rel_tol = 0.2
            oracle_replicas = 500
            """)
        cfg = load_config(path)
        assert cfg.model.N == 8 and cfg.model.T == 2.5
        assert cfg.model.lam(0.5, 1.0) == pytest.approx((0.8 + 0.6 * 0.5) * 0.9)
        assert cfg.model.psi(1.0) == pytest.approx(1.3)
        assert cfg.model.phi(0.5) == pytest.approx(0.3)  # second table node
        assert cfg.grid_m == 16 and cfg.grid_dt == 0.01
        assert cfg.master_seed == 99
        assert cfg.snapshot_times == (0.5, 1.0, 2.5)
        assert cfg.validate == {
            "lln_ns": (20, 40),
            "oracle_times": (0.25, 0.75),
            "clt_rel_tol": 0.2,
            "oracle_replicas": 500,
        }

    def test_table_kernel(self, tmp_path):
        path = write_ini(tmp_path / "run.ini", """\
            [model]
            N = 3
            T = 1.0

            [lambda]
            form = table
            size = 2
            values = 1.0, 3.0, 2.0, 5.0

            [psi]
            form = constant
            values = 0.7

            [phi]
            form = constant
            values = 0.5
            """)
        cfg = load_config(path)
        # size-2 kernel tables put nodes at the corners of the square
        assert cfg.model.lam(0.0, 0.0) == 1.0
        assert cfg.model.lam(0.0, 1.0) == 3.0
        assert cfg.model.lam(1.0, 0.0) == 2.0
        assert cfg.model.lam(1.0, 1.0) == 5.0

    def test_defaults_without_optional_sections(self, tmp_path):
        cfg = load_config(write_ini(tmp_path / "run.ini", BASE))
        assert cfg.grid_m == 32 and cfg.grid_dt == 1e-3
        assert cfg.master_seed is None and cfg.snapshot_times == ()
        assert cfg.validate == {}

    def test_integers_in_float_notation(self, tmp_path):
        # N and M read like the [validate] integers; the seed stays exact
        text = textwrap.dedent(BASE).replace("N = 6", "N = 1e3")
        cfg = load_config(write_ini(tmp_path / "run.ini", text, """\
            [grid]
            M = 1.6e1

            [ensemble]
            master_seed = 18446744073709551615

            [validate]
            lln_replicas = 1e3
            """))
        assert cfg.model.N == 1000 and cfg.grid_m == 16
        assert cfg.validate == {"lln_replicas": 1000}
        assert cfg.master_seed == 2**64 - 1

    @pytest.mark.parametrize("mangle", [
        lambda s: s.replace("[phi]\n", "[fi]\n"),
        lambda s: s.replace("form = constant\nlam0 = 1.5", "form = cubic"),
        lambda s: s.replace("N = 6", "N = six"),
        lambda s: s.replace("values = 1.0\n", "values = 1.0, 2.0\n", 1),
        lambda s: s + "\n[validate]\nlln_slope = 0.1\n",
        lambda s: s + "\n[validate]\nlln_replicas = 2.5\n",
    ])
    def test_rejects_bad_files(self, tmp_path, mangle):
        path = write_ini(tmp_path / "bad.ini", mangle(textwrap.dedent(BASE)))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("section,key", [
        ("grid", "steps"), ("ensemble", "replica"), ("ensemble", "threads"),
        ("ensemble", "replicas"),
    ])
    def test_unknown_grid_and_ensemble_keys(self, tmp_path, capsys,
                                            section, key):
        path = write_ini(tmp_path / "run.ini", BASE, f"""\
            [{section}]
            {key} = 4
            """)
        with pytest.raises(ConfigError,
                           match=rf"^\[{section}\]: unknown key '{key}'$"):
            load_config(path)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_table_kernel_size_mismatch(self, tmp_path):
        text = textwrap.dedent(BASE).replace(
            "form = constant\nlam0 = 1.5",
            "form = table\nsize = 3\nvalues = 1, 2, 3, 4",
        )
        with pytest.raises(ConfigError, match="9 values"):
            load_config(write_ini(tmp_path / "bad.ini", text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_not_ini(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)


class TestValidateKeys:
    """The [validate] keys, the report keywords and the README table agree."""

    @staticmethod
    def keyword_default(key):
        if key == "cov_anchor_n":  # the anchor's N, read by the CLI itself
            return 4
        kind, _, name = key.partition("_")
        params = inspect.signature(REPORTS[kind]).parameters
        return params[cli._RENAMED.get(key, name)].default

    def test_each_key_names_a_report_keyword(self):
        for key in VALIDATE_KEYS:
            assert self.keyword_default(key) is not inspect.Parameter.empty

    def test_readme_table_lists_the_report_defaults(self):
        table = README.read_text().split("`[validate]` keys")[1]
        table = table.split("###")[0]
        documented = {}
        for line in table.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            for key, default in zip(cells[::2], cells[1::2]):
                if key.startswith("`"):
                    documented[key.strip("`")] = tuple(
                        float(v) for v in default.split(",")
                    )
        assert set(documented) == set(VALIDATE_KEYS)
        for key, value in documented.items():
            default = np.atleast_1d(self.keyword_default(key))
            assert value == tuple(float(v) for v in default), key

    @pytest.mark.parametrize("kind", sorted(REPORTS))
    def test_unset_keys_take_report_defaults(self, tmp_path, kind):
        # no [validate] section, so the CLI passes only the replica count
        cfg = write_ini(tmp_path / "run.ini",
                        BASE.replace("T = 1.0", "T = 2.0"))
        out = tmp_path / "cli"
        assert main(["validate", kind, "--config", cfg, "--out", str(out),
                     "--seed", "7", "--replicas", "3"]) in (0, 3)
        model = load_config(cfg).model
        want = {f"validate_{kind}.csv": REPORTS[kind](model, 7, replicas=3)}
        if kind == "cov":
            want["validate_cov_anchor.csv"] = covariance_anchor_report(
                model.with_n(4), 7, replicas=3)
        assert sorted(p.name for p in out.iterdir()) == sorted(want)
        for name, report in want.items():
            write_report_csv(report, tmp_path / name)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


class TestCanonicalText:
    def test_golden_hash(self):
        spec = ModelSpec(
            lam=Kernel.constant(2.0), psi=ScalarField.constant(1.0),
            phi=ScalarField.constant(0.2), N=4, T=1.0,
        )
        assert canonical_model_text(spec) == (
            "N=4\nT=1.0\nlambda=constant:2.0\npsi=constant:1.0\nphi=constant:0.2"
        )
        assert spec_hash(spec) == "1684902231400a39"

    def test_hash_separates_forms(self):
        base = dict(psi=ScalarField.constant(1.0),
                    phi=ScalarField.constant(0.2), N=4, T=1.0)
        a = ModelSpec(lam=Kernel.constant(2.0), **base)
        b = ModelSpec(lam=Kernel.separable(
            ScalarField.constant(2.0), ScalarField.constant(1.0)), **base)
        assert a.lam(0.3, 0.7) == b.lam(0.3, 0.7)
        assert spec_hash(a) != spec_hash(b)

    def test_config_round_trips_to_same_hash(self, tmp_path):
        cfg = load_config(write_ini(tmp_path / "run.ini", BASE))
        direct = ModelSpec(
            lam=Kernel.constant(1.5), psi=ScalarField.constant(1.0),
            phi=ScalarField.constant(0.4), N=6, T=1.0,
        )
        assert spec_hash(cfg.model) == spec_hash(direct)


class TestCli:
    def test_simulate(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini", BASE)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "11"])
        assert code == 0
        echoed = capsys.readouterr().out
        assert "spec_hash=" in echoed and "master_seed=11" in echoed
        lines = (out / "events.ndjson").read_text().splitlines()
        for line in lines:
            event = json.loads(line)
            assert set(event) == {"t", "kind", "urn", "source"}
        with open(out / "snapshots.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "urn", "state"]
        assert len(rows) == 1 + 6  # default snapshot at T only

    def test_simulate_without_seed_is_config_error(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini", BASE)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "master seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_key_range_is_config_error(self, tmp_path, capsys,
                                                    seed):
        cfg = write_ini(tmp_path / "run.ini", BASE)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--seed", seed])
        assert code == 2
        assert "[0, 2^64)" in capsys.readouterr().err

    def test_validate_seed_outside_key_range_is_config_error(self, tmp_path,
                                                             capsys,
                                                             monkeypatch):
        # the streams' key check rejects the seed before any report runs
        def forbidden(*args, **kwargs):
            raise AssertionError("the Lyapunov solve ran before the seed check")

        monkeypatch.setattr("urnsir.reports.evolve_covariance", forbidden)
        monkeypatch.setattr("urnsir.reports.adjoint_pair_covariance",
                            forbidden)
        cfg = write_ini(tmp_path / "run.ini", BASE)
        for kind in ("oracle", "clt"):
            code = main(["validate", kind, "--config", cfg, "--out",
                         str(tmp_path), "--seed", "-1", "--replicas", "10"])
            assert code == 2
            assert "[0, 2^64)" in capsys.readouterr().err

    def test_simulate_byte_identical_reruns(self, tmp_path):
        cfg = write_ini(tmp_path / "run.ini", BASE)
        for name in ("a", "b"):
            assert main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / name), "--seed", "7"]) == 0
        assert (tmp_path / "a" / "events.ndjson").read_bytes() == \
            (tmp_path / "b" / "events.ndjson").read_bytes()
        assert (tmp_path / "a" / "snapshots.csv").read_bytes() == \
            (tmp_path / "b" / "snapshots.csv").read_bytes()

    def test_validate_byte_identical_reruns(self, tmp_path):
        oracle = write_ini(tmp_path / "oracle.ini",
                           BASE.replace("N = 6", "N = 3"), """\
            [validate]
            oracle_times = 0.5
            oracle_replicas = 400
            """)
        dynkin = write_ini(tmp_path / "dynkin.ini", BASE, """\
            [validate]
            dynkin_t = 0.5
            dynkin_replicas = 40
            """)
        # at seed 7 the 40-replica dynkin run has Var(M)/<M> = 1.98 but
        # passes the calibrated M^2 - <M> test (z = 1.80 at alpha 1e-3);
        # each rerun must give that same verdict
        for kind, cfg, verdict in (("oracle", oracle, 0),
                                   ("dynkin", dynkin, 0)):
            runs = []
            for name in ("a", "b"):
                out = tmp_path / f"{kind}_{name}"
                assert main(["validate", kind, "--config", cfg,
                             "--out", str(out), "--seed", "7"]) == verdict
                runs.append((out / f"validate_{kind}.csv").read_bytes())
            assert runs[0] == runs[1]

    def test_solve(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini", BASE, """\
            [grid]
            M = 8
            dt = 0.01
            """)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "density.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "node_u", "rho1", "rho0"]
        assert len(rows) == 1 + 101 * 8
        assert float(rows[1][2]) == pytest.approx(0.4)  # rho1(0, u) = phi
        assert "steps=100" in capsys.readouterr().out

    def test_fluctuate(self, tmp_path):
        cfg = write_ini(tmp_path / "run.ini", BASE, """\
            [grid]
            M = 4
            dt = 0.01
            """)
        out = tmp_path / "out"
        assert main(["fluctuate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "covariance.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["time", "block", "row_u", "col_u", "value"]
        with open(out / "covariance_pairs.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["time", "var_eta_f", "cov_eta_beta", "var_beta_g"]

    def test_homogeneous(self, tmp_path):
        cfg = write_ini(tmp_path / "run.ini", BASE, """\
            [grid]
            dt = 0.01
            """)
        out = tmp_path / "out"
        assert main(["homogeneous", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "homogeneous.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "infected", "susceptible",
                           "var_eta", "cov_eta_beta", "var_beta"]
        assert float(rows[1][1]) == pytest.approx(0.4)
        # byte for byte: time %.10g, values %.12g, LF line endings
        state = classic_clt_covariance(1.5, 0.4, 1.0, 0.01)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for t, i, s, c in zip(state.times, state.infected, state.susceptible,
                              state.covariance):
            writer.writerow([f"{t:.10g}", f"{i:.12g}", f"{s:.12g}",
                             f"{c[0, 0]:.12g}", f"{c[0, 1]:.12g}",
                             f"{c[1, 1]:.12g}"])
        assert (out / "homogeneous.csv").read_bytes() == \
            buf.getvalue().encode()

    def test_homogeneous_needs_unit_recovery(self, tmp_path, capsys):
        text = textwrap.dedent(BASE).replace("values = 1.0", "values = 2.0", 1)
        cfg = write_ini(tmp_path / "run.ini", text)
        assert main(["homogeneous", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
        assert "psi == 1" in capsys.readouterr().err

    def test_validate_oracle_pass(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini", BASE.replace("N = 6", "N = 2"), """\
            [validate]
            oracle_times = 0.5
            oracle_replicas = 2000
            """)
        out = tmp_path / "out"
        code = main(["validate", "oracle", "--config", cfg,
                     "--out", str(out), "--seed", "5"])
        assert code == 0
        assert "[PASS] oracle" in capsys.readouterr().out
        with open(out / "validate_oracle.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "N", "t", "statistic", "value", "bound", "seed"]
        assert all(row[6] == "5" for row in rows[1:])

    def test_validate_oracle_threshold_failure_exits_3(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini", BASE.replace("N = 6", "N = 2"), """\
            [validate]
            oracle_times = 0.5
            oracle_replicas = 500
            oracle_alpha = 1.0
            """)
        code = main(["validate", "oracle", "--config", cfg,
                     "--out", str(tmp_path / "out"), "--seed", "5"])
        assert code == 3
        assert "[FAIL] oracle" in capsys.readouterr().out

    def test_validate_cov_writes_both_reports(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini", BASE, """\
            [validate]
            cov_ns = 10, 20
            cov_t = 0.5
            cov_replicas = 2000
            cov_pairs = 20
            cov_anchor_n = 3
            """)
        out = tmp_path / "out"
        code = main(["validate", "cov", "--config", cfg,
                     "--out", str(out), "--seed", "5"])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert (out / "validate_cov.csv").exists()
        assert (out / "validate_cov_anchor.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini",
                        textwrap.dedent(BASE).replace("[psi]", "[psy]"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,match", [
        ("validate clt", "[validate]\nclt_m = 0", "M must be"),
        ("validate dynkin", "[validate]\ndynkin_alpha = 2", "alpha must"),
        ("validate lln", "[validate]\nlln_t = 3", "t must lie"),
        ("solve", "[grid]\nM = 0", "M must be"),
        ("simulate", "[ensemble]\nsnapshot_times = 0.5, 2.0",
         "snapshot times"),
        ("simulate", "[ensemble]\nsnapshot_times = nan", "snapshot times"),
        ("simulate", "[ensemble]\nsnapshot_times = 0.5, nan",
         "snapshot times"),
        ("validate dynkin", "[validate]\ndynkin_dt_report = 0",
         "dt_report must"),
        ("validate dynkin", "[validate]\ndynkin_dt_report = -0.01",
         "dt_report must"),
        ("validate lln", "[validate]\nlln_slope_tol = nan\nlln_t = 0.5",
         "slope_tol must"),
        ("validate lln", "[validate]\nlln_slope_tol = -0.2\nlln_t = 0.5",
         "slope_tol must"),
        ("validate clt", "[validate]\nclt_rel_tol = nan", "rel_tol must"),
        ("validate clt", "[validate]\nclt_rel_tol = -0.1", "rel_tol must"),
        ("validate clt", "[validate]\nclt_ks_p = nan", "ks_threshold must"),
        ("validate clt", "[validate]\nclt_ks_p = -0.01", "ks_threshold must"),
        ("validate lln", "[validate]\nlln_ns = 10\nlln_t = 0.5",
         "ns must hold"),
        ("validate lln", "[validate]\nlln_ns =\nlln_t = 0.5",
         "ns must hold"),
        ("validate cov", "[validate]\ncov_ns = 10", "ns must hold"),
        ("validate cov", "[validate]\ncov_ns =", "ns must hold"),
        ("validate cov", "[validate]\ncov_anchor_n = 1\ncov_ns = 3, 4\n"
         "cov_replicas = 20", "anchor's N must be"),
        ("validate oracle", "[validate]\noracle_times =", "times must hold"),
        ("validate lln", "[validate]\nlln_replicas = 10, 20",
         "lln_replicas: expected one number"),
        ("validate lln", "[validate]\nlln_replicas =",
         "lln_replicas: expected one number"),
        ("solve", "N = 2.5", "[model] N: expected integers"),
        ("solve", "[grid]\nM = 32.5", "[grid] M: expected integers"),
    ])
    def test_rejected_values_exit_2(self, tmp_path, capsys, command, section,
                                    match):
        # values the package rejects: one error line, no traceback; a
        # [model] key replaces the base file's own line
        if section.startswith("N ="):
            text, section = BASE.replace("N = 6", section), ""
        else:
            text = BASE
        cfg = write_ini(tmp_path / "run.ini", text, section + "\n")
        assert main([*command.split(), "--config", cfg,
                     "--out", str(tmp_path), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert match in err

    @pytest.mark.parametrize("kind", ["clt", "dynkin", "cov"])
    def test_one_replica_rejected(self, tmp_path, capsys, kind):
        # a sample variance needs two replicas: one error line, no CSV
        cfg = write_ini(tmp_path / "run.ini", BASE)
        out = tmp_path / "out"
        assert main(["validate", kind, "--config", cfg, "--out", str(out),
                     "--seed", "1", "--replicas", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: replicas must be at least 2\n"
        assert not any(out.iterdir())

    def test_zero_replicas_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "run.ini", BASE)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "1", "--replicas", "0"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        cfg = write_ini(tmp_path / "run.ini", BASE)
        proc = subprocess.run(
            [sys.executable, "-m", "urnsir", "simulate", "--config", cfg,
             "--out", str(tmp_path / "out"), "--seed", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "master_seed=3" in proc.stdout
