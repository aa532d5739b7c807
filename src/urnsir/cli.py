"""Command-line interface.

Subcommands: simulate, solve, fluctuate, homogeneous,
validate {lln|clt|cov|dynkin|oracle}.  Every run reads --config, writes
CSV/NDJSON into --out, and echoes the resolved model (canonical text,
spec hash, master seed).  Exit codes: 0 success, 2 configuration error
(a file that does not parse, or a value the package rejects with
``ValueError``), 3 failed validation threshold.

``validate`` has no ``construction`` kind on purpose: the clock-construction
check (``reports.construction_report``) is API-only.  Acceptance check
``test_02`` and ``perfbench`` call it directly, and wiring it in here would
add configuration keys that nothing needs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, canonical_model_text, load_config, spec_hash
from .fields import ScalarField
from .fluctuation import (
    PanelSeries,
    evolve_covariance,
    write_covariance_csv,
    write_pair_csv,
)
from .gillespie import simulate, write_events_ndjson, write_snapshots_csv
from .homogeneous import classic_clt_covariance
from .hydro import GridSpec, solve_density, write_density_csv
from .reports import (
    clt_report,
    covariance_anchor_report,
    covariance_decay_report,
    dynkin_report,
    lln_report,
    oracle_report,
    write_report_csv,
)
from .streams import _check_component

__all__ = ["main"]

_VALIDATE_KINDS = ("lln", "clt", "cov", "dynkin", "oracle")
# [validate] keys whose report keyword is not the key without its kind
_RENAMED = {"clt_m": "m_grid", "clt_ks_p": "ks_threshold",
            "cov_pairs": "pairs_per_n"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnsir",
        description="Heterogeneous SIR urn model: simulation, limits, checks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides [ensemble] master_seed)")
        p.add_argument("--replicas", type=int, default=None,
                       help="replica count override")

    common(sub.add_parser("simulate", help="one trajectory to NDJSON/CSV"))
    common(sub.add_parser("solve", help="density ODE to CSV"))
    common(sub.add_parser("fluctuate", help="fluctuation covariance to CSV"))
    common(sub.add_parser("homogeneous",
                          help="constant-input closed-system solution"))
    validate = sub.add_parser("validate", help="statistical validation reports")
    validate.add_argument("kind", choices=_VALIDATE_KINDS)
    common(validate)
    return parser


def _echo(cfg: RunConfig, seed: int | None) -> None:
    print(canonical_model_text(cfg.model))
    print(f"spec_hash={spec_hash(cfg.model)}")
    print(f"master_seed={'-' if seed is None else seed}")


def _require_seed(cfg: RunConfig, override: int | None) -> int:
    seed = override if override is not None else cfg.master_seed
    if seed is None:
        raise ConfigError(
            "a master seed is required: set [ensemble] master_seed or --seed"
        )
    # the stream key's range, checked before any solve or replica runs
    return _check_component(seed)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(cfg: RunConfig, args) -> int:
    seed = _require_seed(cfg, args.seed)
    out = _out_dir(args)
    times = cfg.snapshot_times or (cfg.model.T,)
    traj = simulate(cfg.model, seed, snapshot_times=times)
    write_events_ndjson(traj, out / "events.ndjson")
    write_snapshots_csv(traj, out / "snapshots.csv")
    _echo(cfg, seed)
    print(f"events={len(traj.events)} snapshots={len(traj.snapshots)}")
    return 0


def _cmd_solve(cfg: RunConfig, args) -> int:
    out = _out_dir(args)
    grid = GridSpec(M=cfg.grid_m, dt=cfg.grid_dt, T=cfg.model.T)
    density = solve_density(cfg.model, grid)
    write_density_csv(density, out / "density.csv")
    _echo(cfg, args.seed if args.seed is not None else cfg.master_seed)
    print(f"grid M={cfg.grid_m} dt={cfg.grid_dt:g} steps={grid.n_steps()}")
    return 0


def _cmd_fluctuate(cfg: RunConfig, args) -> int:
    out = _out_dir(args)
    series = PanelSeries(cfg.model, cfg.grid_m, cfg.grid_dt, cfg.model.T)
    traj = evolve_covariance(series)
    one = ScalarField.constant(1.0)
    write_covariance_csv(traj, out / "covariance.csv")
    write_pair_csv(traj, one, one, out / "covariance_pairs.csv")
    _echo(cfg, args.seed if args.seed is not None else cfg.master_seed)
    print(f"stored {traj.times.size} covariance matrices (2M={2 * cfg.grid_m})")
    return 0


def _cmd_homogeneous(cfg: RunConfig, args) -> int:
    model = cfg.model
    lam0 = model.lam.constant_value()
    phi0 = model.phi.constant_value()
    psi0 = model.psi.constant_value()
    if lam0 is None or phi0 is None or psi0 is None:
        raise ConfigError(
            "homogeneous requires constant lambda, psi, and phi"
        )
    if abs(psi0 - 1.0) > 1e-12:
        raise ConfigError("homogeneous requires psi == 1 (unit recovery rate)")
    out = _out_dir(args)
    state = classic_clt_covariance(lam0, phi0, model.T, cfg.grid_dt)
    path = out / "homogeneous.csv"
    with open(path, "w", newline="") as fh:
        fh.write("time,infected,susceptible,var_eta,cov_eta_beta,var_beta\n")
        for k, t in enumerate(state.times):
            c = state.covariance[k]
            fh.write(
                f"{t:.10g},{state.infected[k]:.12g},{state.susceptible[k]:.12g},"
                f"{c[0, 0]:.12g},{c[0, 1]:.12g},{c[1, 1]:.12g}\n"
            )
    _echo(cfg, args.seed if args.seed is not None else cfg.master_seed)
    print(f"wrote {path.name} with {state.times.size} rows")
    return 0


def _cmd_validate(cfg: RunConfig, args) -> int:
    seed = _require_seed(cfg, args.seed)
    out = _out_dir(args)
    kind = args.kind
    # looked up per call, so a wrapper patched onto one of these names sees it
    report = {
        "lln": lln_report,
        "cov": covariance_decay_report,
        "clt": clt_report,
        "dynkin": dynkin_report,
        "oracle": oracle_report,
    }[kind]
    kwargs = {
        _RENAMED.get(key, key.removeprefix(f"{kind}_")): value
        for key, value in cfg.validate.items() if key.startswith(f"{kind}_")
    }
    if args.replicas is not None:
        kwargs["replicas"] = args.replicas
    anchor_n = kwargs.pop("anchor_n", 4)  # cov_anchor_n; no report keyword
    reports = [report(cfg.model, seed, **kwargs)]
    if kind == "cov":
        shared = {k: kwargs[k] for k in ("t", "replicas") if k in kwargs}
        reports.append(covariance_anchor_report(
            cfg.model.with_n(anchor_n), seed, **shared,
        ))
    _echo(cfg, seed)
    ok = True
    for report in reports:
        name = (
            f"validate_{kind}.csv" if len(reports) == 1
            else f"validate_{report.kind.replace('-', '_')}.csv"
        )
        write_report_csv(report, out / name)
        for line in report.lines:
            print(f"  {line}")
        print(report.summary())
        ok = ok and report.passed
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        if args.replicas is not None and args.replicas < 1:
            raise ConfigError("--replicas must be positive")
        handler = {
            "simulate": _cmd_simulate,
            "solve": _cmd_solve,
            "fluctuate": _cmd_fluctuate,
            "homogeneous": _cmd_homogeneous,
            "validate": _cmd_validate,
        }[args.command]
        return handler(cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
