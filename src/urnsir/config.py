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
    [validate] the keys of VALIDATE_KEYS, all optional

Only [model], [lambda], [psi], [phi] are required; [grid], [ensemble]
and [validate] reject keys not listed here.  This module only parses
text: whether a form, a value count or a value is allowed is decided by
``ScalarField``, ``Kernel`` and ``ModelSpec``, whose ``ValueError`` is
raised again as ConfigError.  A ``[validate]`` key the file leaves unset
is not passed on, so its default is the keyword default of the report it
feeds.  The CLI maps ConfigError, and the ``ValueError`` of a value the
package rejects later, to exit code 2.
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
    "VALIDATE_KEYS",
    "load_config",
    "canonical_model_text",
    "spec_hash",
]


class ConfigError(Exception):
    """A configuration file could not be read or failed validation."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    grid_m: int = 32
    grid_dt: float = 1e-3
    master_seed: int | None = None
    snapshot_times: tuple = ()
    validate: dict = field(default_factory=dict)


def _floats(text: str, where: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(
            f"{where}: expected numbers, got {text.strip()!r}"
        ) from exc


def _ints(text: str, where: str) -> tuple:
    vals = _floats(text, where)
    out = tuple(int(round(v)) for v in vals)
    if any(abs(a - b) > 1e-9 for a, b in zip(out, vals)):
        raise ConfigError(f"{where}: expected integers")
    return out


def _one(parse):
    """Parser of exactly one value, read as list parser ``parse`` reads."""
    def one(text: str, where: str):
        vals = parse(text, where)
        if len(vals) != 1:
            raise ConfigError(f"{where}: expected one number, got {len(vals)}")
        return vals[0]
    return one


_float, _int = _one(_floats), _one(_ints)

#: Every ``[validate]`` key and the parser of its value.  Key <kind>_<name>
#: sets keyword <name> of that kind's report (``cli`` renames three keys
#: and reads ``cov_anchor_n`` itself).
VALIDATE_KEYS = {
    "lln_ns": _ints, "lln_t": _float, "lln_replicas": _int,
    "lln_slope_tol": _float,
    "cov_ns": _ints, "cov_t": _float, "cov_replicas": _int, "cov_pairs": _int,
    "cov_anchor_n": _int,
    "clt_t": _float, "clt_replicas": _int, "clt_m": _int, "clt_dt": _float,
    "clt_rel_tol": _float, "clt_ks_p": _float,
    "dynkin_t": _float, "dynkin_replicas": _int, "dynkin_dt_report": _float,
    "dynkin_alpha": _float,
    "oracle_times": _floats, "oracle_replicas": _int, "oracle_alpha": _float,
}


def _scalar_field(section, name: str, prefix: str = "") -> ScalarField:
    values = _floats(section.get(f"{prefix}values", ""), f"[{name}] values")
    try:
        return ScalarField(section.get(f"{prefix}form", "").strip(), values)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _kernel(section) -> Kernel:
    form = section.get("form", "").strip()
    args: dict = {}
    if form == "constant":
        args["lam0"] = _float(section.get("lam0", ""), "[lambda] lam0")
    elif form == "separable":
        args["h1"] = _scalar_field(section, "lambda.h1", "h1_")
        args["h2"] = _scalar_field(section, "lambda.h2", "h2_")
    elif form == "table":
        m = _int(section.get("size", ""), "[lambda] size")
        values = _floats(section.get("values", ""), "[lambda] values")
        if len(values) != m * m:
            raise ConfigError(f"[lambda]: need {m * m} values for size {m}")
        args["values"] = [values[r * m:(r + 1) * m] for r in range(m)]
    try:
        return Kernel(form, **args)
    except ValueError as exc:
        raise ConfigError(f"[lambda]: {exc}") from exc


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
    n = _int(model_sec.get("N", ""), "[model] N")
    t_horizon = _float(model_sec.get("T", ""), "[model] T")

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
        if "M" in grid:
            kwargs["grid_m"] = _int(grid["M"], "[grid] M")
        if "dt" in grid:
            kwargs["grid_dt"] = _float(grid["dt"], "[grid] dt")
    if "ensemble" in parser:
        ens = parser["ensemble"]
        _reject_unknown(ens, "ensemble", ("master_seed", "snapshot_times"))
        try:
            if "master_seed" in ens:
                # exact int(), not _int: seeds above 2^53 must not round
                kwargs["master_seed"] = int(ens["master_seed"])
        except ValueError as exc:
            raise ConfigError(f"[ensemble]: {exc}") from exc
        if "snapshot_times" in ens:
            kwargs["snapshot_times"] = _floats(
                ens["snapshot_times"], "[ensemble] snapshot_times"
            )
    if "validate" in parser:
        section = parser["validate"]
        _reject_unknown(section, "validate", VALIDATE_KEYS)
        kwargs["validate"] = {
            key: VALIDATE_KEYS[key](raw, f"[validate] {key}")
            for key, raw in section.items()
        }
    return RunConfig(**kwargs)


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
