"""Configuration files: INI sections to model/grid/ensemble settings.

Schema (all decimals, lists comma-separated):

    [model]    N, T
    [lambda]   form = constant | separable | table
               constant:  lam0
               separable: h1_form, h1_values, h2_form, h2_values
               table:     size, values (size*size entries, row-major)
    [psi]      form = constant | affine | table; values
    [phi]      form = constant | affine | table; values
    [grid]     M, dt                      (solvers; defaults 32, 1e-3)
    [ensemble] master_seed, snapshot_times
    [validate] per-report thresholds, all optional (defaults below)

Only [model], [lambda], [psi], [phi] are required; [grid], [ensemble]
and [validate] reject keys not listed here.  Any parse or validation
problem raises ConfigError; the CLI maps that to exit code 2.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .fields import Kernel, ScalarField
from .model import ModelSpec

__all__ = [
    "ConfigError",
    "RunConfig",
    "VALIDATE_DEFAULTS",
    "load_config",
    "canonical_model_text",
    "spec_hash",
]


class ConfigError(Exception):
    """A configuration file could not be read or failed validation."""


# documented defaults for every [validate] threshold
VALIDATE_DEFAULTS: dict = {
    "lln_ns": (100, 400, 1600),
    "lln_t": 2.0,
    "lln_replicas": 200,
    "lln_slope_tol": 0.2,
    "cov_ns": (50, 100, 200, 400),
    "cov_t": 1.0,
    "cov_replicas": 10_000,
    "cov_pairs": 150,
    "cov_anchor_n": 4,
    "clt_t": 1.0,
    "clt_replicas": 500,
    "clt_m": 32,
    "clt_dt": 1e-3,
    "clt_rel_tol": 0.10,
    "clt_ks_p": 0.01,
    "dynkin_t": 1.0,
    "dynkin_replicas": 500,
    "dynkin_dt_report": 0.01,
    "dynkin_alpha": 1e-3,
    "oracle_times": (0.5, 1.0),
    "oracle_replicas": 100_000,
    "oracle_alpha": 1e-3,
}


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    grid_m: int = 32
    grid_dt: float = 1e-3
    master_seed: int | None = None
    snapshot_times: tuple = ()
    validate: dict = field(default_factory=dict)

    def validate_value(self, key: str):
        return self.validate.get(key, VALIDATE_DEFAULTS[key])


def _floats(text: str, where: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: expected comma-separated numbers") from exc


def _ints(text: str, where: str) -> tuple:
    vals = _floats(text, where)
    out = tuple(int(round(v)) for v in vals)
    if any(abs(a - b) > 1e-9 for a, b in zip(out, vals)):
        raise ConfigError(f"{where}: expected integers")
    return out


def _scalar_field(section, name: str) -> ScalarField:
    form = section.get("form", "").strip()
    values = _floats(section.get("values", ""), f"[{name}] values")
    try:
        if form == "constant":
            if len(values) != 1:
                raise ConfigError(f"[{name}]: constant takes one value")
            return ScalarField.constant(values[0])
        if form == "affine":
            if len(values) != 2:
                raise ConfigError(f"[{name}]: affine takes two values (a, b)")
            return ScalarField.affine(values[0], values[1])
        if form == "table":
            if not values:
                raise ConfigError(f"[{name}]: table needs values")
            return ScalarField.table(values)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc
    raise ConfigError(f"[{name}]: unknown form {form!r}")


def _kernel(section) -> Kernel:
    form = section.get("form", "").strip()
    try:
        if form == "constant":
            if "lam0" not in section:
                raise ConfigError("[lambda]: constant form needs lam0")
            return Kernel.constant(float(section["lam0"]))
        if form == "separable":
            h1 = _scalar_field(
                {"form": section.get("h1_form", ""),
                 "values": section.get("h1_values", "")},
                "lambda.h1",
            )
            h2 = _scalar_field(
                {"form": section.get("h2_form", ""),
                 "values": section.get("h2_values", "")},
                "lambda.h2",
            )
            return Kernel.separable(h1, h2)
        if form == "table":
            size = _ints(section.get("size", ""), "[lambda] size")
            if len(size) != 1 or size[0] < 2:
                raise ConfigError("[lambda]: size must be one integer >= 2")
            m = size[0]
            values = _floats(section.get("values", ""), "[lambda] values")
            if len(values) != m * m:
                raise ConfigError(
                    f"[lambda]: need {m * m} values for size {m}"
                )
            rows = [values[r * m:(r + 1) * m] for r in range(m)]
            return Kernel.table(rows)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[lambda]: {exc}") from exc
    raise ConfigError(f"[lambda]: unknown form {form!r}")


_VALIDATE_INT_KEYS = {
    "lln_replicas", "cov_replicas", "cov_pairs", "cov_anchor_n",
    "clt_replicas", "clt_m", "dynkin_replicas", "oracle_replicas",
}
_VALIDATE_TUPLE_KEYS = {"lln_ns", "cov_ns", "oracle_times"}


def _reject_unknown(section, name: str, known) -> None:
    # configparser lower-cases key names
    for key in section:
        if key not in known:
            raise ConfigError(f"[{name}]: unknown key {key!r}")


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    for name in ("model", "lambda", "psi", "phi"):
        if name not in parser:
            raise ConfigError(f"missing required section [{name}]")
    model_sec = parser["model"]
    try:
        n = int(model_sec.get("N", ""))
        t_horizon = float(model_sec.get("T", ""))
    except ValueError as exc:
        raise ConfigError("[model]: N and T are required numbers") from exc

    lam = _kernel(parser["lambda"])
    psi = _scalar_field(parser["psi"], "psi")
    phi = _scalar_field(parser["phi"], "phi")
    try:
        model = ModelSpec(lam=lam, psi=psi, phi=phi, N=n, T=t_horizon)
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    kwargs: dict = {"model": model}
    if "grid" in parser:
        grid = parser["grid"]
        _reject_unknown(grid, "grid", ("m", "dt"))
        try:
            if "M" in grid:
                kwargs["grid_m"] = int(grid["M"])
            if "dt" in grid:
                kwargs["grid_dt"] = float(grid["dt"])
        except ValueError as exc:
            raise ConfigError(f"[grid]: {exc}") from exc
    if "ensemble" in parser:
        ens = parser["ensemble"]
        _reject_unknown(ens, "ensemble", ("master_seed", "snapshot_times"))
        try:
            if "master_seed" in ens:
                kwargs["master_seed"] = int(ens["master_seed"])
        except ValueError as exc:
            raise ConfigError(f"[ensemble]: {exc}") from exc
        if "snapshot_times" in ens:
            kwargs["snapshot_times"] = _floats(
                ens["snapshot_times"], "[ensemble] snapshot_times"
            )
    if "validate" in parser:
        out: dict = {}
        _reject_unknown(parser["validate"], "validate", VALIDATE_DEFAULTS)
        for key, raw in parser["validate"].items():
            if key in _VALIDATE_TUPLE_KEYS:
                out[key] = (
                    _ints(raw, key) if key != "oracle_times"
                    else _floats(raw, key)
                )
            elif key in _VALIDATE_INT_KEYS:
                (out[key],) = _ints(raw, key)
            else:
                try:
                    out[key] = float(raw)
                except ValueError as exc:
                    raise ConfigError(f"[validate] {key}: {exc}") from exc
        kwargs["validate"] = out
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _field_text(f: ScalarField) -> str:
    vals = ",".join(repr(float(v)) for v in f.values)
    return f"{f.form}:{vals}"


def canonical_model_text(model: ModelSpec) -> str:
    """Stable serialization used for hashing and CLI echo."""
    lam = model.lam
    if lam.form == "constant":
        lam_text = f"constant:{float(lam.lam0)!r}"
    elif lam.form == "separable":
        lam_text = (
            f"separable:{_field_text(lam.h1)}|{_field_text(lam.h2)}"
        )
    else:
        rows = ";".join(
            ",".join(repr(float(v)) for v in row) for row in lam.values
        )
        lam_text = f"table:{rows}"
    return "\n".join([
        f"N={model.N}",
        f"T={float(model.T)!r}",
        f"lambda={lam_text}",
        f"psi={_field_text(model.psi)}",
        f"phi={_field_text(model.phi)}",
    ])


def spec_hash(model: ModelSpec) -> str:
    """First 16 hex digits of the canonical serialization's SHA-256."""
    digest = hashlib.sha256(canonical_model_text(model).encode())
    return digest.hexdigest()[:16]
