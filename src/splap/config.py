"""Experiment configuration: parsing, validation, canonical echo.

Config files are line oriented ``key = value`` pairs; ``#`` starts a
comment and blank lines are ignored.  Numbers may be written as plain
floats, integers, or fractions like ``1/32``.  List values are comma
separated.  Unknown keys are rejected by name.  Every key has a default
(the full-protocol values), so an empty file is a valid configuration.

Keys
----
p_list            growth exponents to sweep           (default 1.1, 1.2, 1.5, 2.5)
kappa             shift of the constitutive law       (default 0)
mesh_n            unit-square subdivisions per side   (default 32)
tau_ladder        coarse mean steps, largest first    (default 1, 1/2, ..., 1/32)
tau_ref           reference mean step                 (default 1/32)
T                 time horizon                        (default 1)
n_r               Monte-Carlo replicates              (default 100)
master_seed       seed of the replicate streams       (default 1)
noise_mode        additive | multiplicative           (default additive)
phi               noise amplitude: |x|^<e> or number  (default |x|^-1/2)
noise_components  Brownian components K               (default 1)
sigma             multiplicative shape: u or number   (default u)
u0                constant initial value              (default 1)
grid_kind         deterministic | random              (default deterministic)
solver_tol        per-step solver tolerance           (default 1e-9)
clip_initial      zero the initial boundary values    (default false)
fit_taus          auto | list of taus to regress      (default auto)
out_dir           output directory                    (default splap_out)
workers           worker processes, 0 = machine size  (default 0)

``fit_taus = auto`` regresses over the ladder entries strictly between
tau_ref and T (the largest step, a single-step trajectory, and the
reference entry itself carry no rate information).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    p_list: tuple = (1.1, 1.2, 1.5, 2.5)
    kappa: float = 0.0
    mesh_n: int = 32
    tau_ladder: tuple = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    tau_ref: float = 0.03125
    horizon: float = 1.0
    n_replicates: int = 100
    master_seed: int = 1
    noise_mode: str = "additive"
    phi: str = "|x|^-1/2"
    noise_components: int = 1
    sigma: str = "u"
    u0: float = 1.0
    grid_kind: str = "deterministic"
    solver_tol: float = 1e-9
    clip_initial: bool = False
    fit_taus: tuple | None = None
    out_dir: str = "splap_out"
    workers: int = 0


# config key -> dataclass field
_KEYMAP = {
    "p_list": "p_list",
    "kappa": "kappa",
    "mesh_n": "mesh_n",
    "tau_ladder": "tau_ladder",
    "tau_ref": "tau_ref",
    "T": "horizon",
    "n_r": "n_replicates",
    "master_seed": "master_seed",
    "noise_mode": "noise_mode",
    "phi": "phi",
    "noise_components": "noise_components",
    "sigma": "sigma",
    "u0": "u0",
    "grid_kind": "grid_kind",
    "solver_tol": "solver_tol",
    "clip_initial": "clip_initial",
    "fit_taus": "fit_taus",
    "out_dir": "out_dir",
    "workers": "workers",
}
_FIELDMAP = {v: k for k, v in _KEYMAP.items()}

_NUMBER_LIST_KEYS = {"p_list", "tau_ladder"}
_NUMBER_KEYS = {"kappa", "tau_ref", "T", "u0", "solver_tol"}
_INT_KEYS = {"mesh_n", "n_r", "master_seed", "noise_components", "workers"}
_BOOL_KEYS = {"clip_initial"}
_STRING_KEYS = {"noise_mode", "phi", "sigma", "grid_kind", "out_dir"}


def parse_number(token: str) -> float:
    """Parse a float, integer, or fraction token like ``1/32``."""
    token = token.strip()
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad number {token!r}") from exc


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _NUMBER_LIST_KEYS:
        return tuple(parse_number(tok) for tok in raw.split(","))
    if key in _NUMBER_KEYS:
        return parse_number(raw)
    if key in _INT_KEYS:
        val = parse_number(raw)
        if val != int(val):
            raise ConfigError(f"{key} must be an integer, got {raw!r}")
        return int(val)
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key} must be a boolean, got {raw!r}")
    if key == "fit_taus":
        if raw.lower() == "auto":
            return None
        return tuple(parse_number(tok) for tok in raw.split(","))
    return raw


def parse_config(source) -> ExperimentConfig:
    """Parse and validate a config from bytes, a string, or a stream."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8")
    values: dict[str, object] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if _KEYMAP[key] in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[_KEYMAP[key]] = _parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def _is_integer_ratio(num: float, den: float) -> bool:
    ratio = num / den
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio))


def validate_config(cfg: ExperimentConfig) -> None:
    if not cfg.p_list:
        raise ConfigError("p_list must not be empty")
    for p in cfg.p_list:
        if not (np.isfinite(p) and p > 1.0):
            raise ConfigError(f"growth exponents must satisfy p > 1, got {p!r}")
    if not (np.isfinite(cfg.kappa) and cfg.kappa >= 0.0):
        raise ConfigError(f"kappa must be >= 0, got {cfg.kappa!r}")
    if cfg.mesh_n < 1:
        raise ConfigError(f"mesh_n must be >= 1, got {cfg.mesh_n}")
    if not (np.isfinite(cfg.horizon) and cfg.horizon > 0.0):
        raise ConfigError(f"T must be positive, got {cfg.horizon!r}")
    if not (np.isfinite(cfg.tau_ref) and 0.0 < cfg.tau_ref <= cfg.horizon):
        raise ConfigError(f"tau_ref must lie in (0, T], got {cfg.tau_ref!r}")
    if not _is_integer_ratio(cfg.horizon, cfg.tau_ref):
        raise ConfigError("T must be an integer multiple of tau_ref")
    if not cfg.tau_ladder:
        raise ConfigError("tau_ladder must not be empty")
    for tau in cfg.tau_ladder:
        if not (np.isfinite(tau) and cfg.tau_ref <= tau <= cfg.horizon):
            raise ConfigError(f"ladder entry {tau!r} outside [tau_ref, T]")
        if not _is_integer_ratio(tau, cfg.tau_ref):
            raise ConfigError(f"ladder entry {tau!r} is not a multiple of tau_ref")
        if not _is_integer_ratio(cfg.horizon, tau):
            raise ConfigError(f"T is not an integer multiple of ladder entry {tau!r}")
    if len(set(cfg.tau_ladder)) != len(cfg.tau_ladder):
        raise ConfigError("tau_ladder has duplicate entries")
    if cfg.n_replicates < 1:
        raise ConfigError(f"n_r must be >= 1, got {cfg.n_replicates}")
    if cfg.noise_mode not in ("additive", "multiplicative"):
        raise ConfigError(f"noise_mode must be additive or multiplicative, got {cfg.noise_mode!r}")
    if cfg.noise_components < 1:
        raise ConfigError(f"noise_components must be >= 1, got {cfg.noise_components}")
    if cfg.grid_kind not in ("deterministic", "random"):
        raise ConfigError(f"grid_kind must be deterministic or random, got {cfg.grid_kind!r}")
    if not (np.isfinite(cfg.solver_tol) and cfg.solver_tol > 0.0):
        raise ConfigError(f"solver_tol must be positive, got {cfg.solver_tol!r}")
    if not np.isfinite(cfg.u0):
        raise ConfigError(f"u0 must be finite, got {cfg.u0!r}")
    if cfg.workers < 0:
        raise ConfigError(f"workers must be >= 0, got {cfg.workers}")
    if cfg.fit_taus is not None:
        for tau in cfg.fit_taus:
            if tau not in cfg.tau_ladder:
                raise ConfigError(f"fit tau {tau!r} is not a ladder entry")
        if len(cfg.fit_taus) < 2:
            raise ConfigError("fit_taus needs at least two entries")
    phi_function(cfg.phi)
    if cfg.noise_mode == "multiplicative":
        sigma_function(cfg.sigma)


def regression_taus(cfg: ExperimentConfig) -> tuple:
    """The ladder entries used for the rate regression."""
    if cfg.fit_taus is not None:
        return tuple(cfg.fit_taus)
    auto = tuple(t for t in cfg.tau_ladder if cfg.tau_ref < t < cfg.horizon)
    if len(auto) < 2:
        raise ConfigError(
            "fit_taus = auto needs at least two ladder entries strictly between tau_ref and T"
        )
    return auto


_PHI_POWER = re.compile(r"^\|x\|\s*\^\s*\(?\s*(-?[0-9][0-9./]*)\s*\)?$")


def phi_function(expr: str):
    """Noise amplitude expression -> pointwise function of (x, y).

    Supported forms: a power of the distance to the origin, written
    ``|x|^e`` (e a number or fraction, e.g. ``|x|^-1/2``), or a plain
    numeric constant.
    """
    expr = expr.strip()
    match = _PHI_POWER.match(expr)
    if match:
        exponent = parse_number(match.group(1))

        def radial(x: float, y: float, _e=exponent) -> float:
            return (x * x + y * y) ** (_e / 2.0)

        return radial
    try:
        const = parse_number(expr)
    except ConfigError as exc:
        raise ConfigError(f"unsupported phi expression {expr!r}") from exc
    return lambda x, y, _c=const: _c


def sigma_function(expr: str):
    """Multiplicative shape expression -> scalar function.

    ``u`` is the identity (linear multiplicative noise); a numeric
    constant gives state-independent scaling.
    """
    expr = expr.strip()
    if expr == "u":
        return lambda x: x
    try:
        const = parse_number(expr)
    except ConfigError as exc:
        raise ConfigError(f"unsupported sigma expression {expr!r}") from exc
    return lambda x, _c=const: _c


def _format_value(key: str, value) -> str:
    if key in _NUMBER_LIST_KEYS:
        return ", ".join(repr(float(v)) for v in value)
    if key in _NUMBER_KEYS:
        return repr(float(value))
    if key in _INT_KEYS:
        return str(int(value))
    if key in _BOOL_KEYS:
        return "true" if value else "false"
    if key == "fit_taus":
        if value is None:
            return "auto"
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def echo_config(cfg: ExperimentConfig) -> str:
    """Canonical text form with every key explicit; parses back equal."""
    lines = []
    for f in fields(ExperimentConfig):
        key = _FIELDMAP[f.name]
        lines.append(f"{key} = {_format_value(key, getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"
