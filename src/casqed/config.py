"""Experiment configuration files.

Grammar: UTF-8 text, one ``key = value`` pair per line, ``#`` starts a
comment, blank lines ignored.  Dotted keys group related settings
(``physical.g_2pi_MHz = 110``).  Values are parsed as int, float,
complex (``1+2j``), booleans (``true``/``false``), comma lists, range
expressions ``lo:hi:step`` (inclusive of both ends up to rounding) and
``log:lo:hi:n`` for log-spaced grids; anything else stays a string.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_EXPERIMENTS = ("evolve", "sweep-eps", "sweep-coop", "steady", "metrics")
_TIERS = ("reduced", "effective", "full")
_BALANCE_MODES = ("compensated", "raman_resonant")


def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_value(text: str):
    text = text.strip()
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError("log range needs log:lo:hi:n")
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        if lo <= 0 or hi <= 0 or n < 1:
            raise ValueError("log range needs positive bounds and n >= 1")
        return [float(x) for x in np.geomspace(lo, hi, n)]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range needs lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        n = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return [float(lo + i * step) for i in range(n)]
    if "," in text:
        return [_parse_scalar(p.strip()) for p in text.split(",") if p.strip()]
    return _parse_scalar(text)


def parse_config_text(text: str) -> dict:
    """Raw key -> value mapping; raises ConfigError with line numbers."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key", line=lineno)
        try:
            out[key] = parse_value(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}", key=key, line=lineno) from exc
    return out


@dataclass
class ExperimentConfig:
    """Validated settings for one experiment run."""

    experiment: str | None
    tiers: list
    # matched-drive description (reduced tier)
    a: complex
    b: complex
    epsilon: float
    drive_kappa1: float
    drive_kappa2: float
    cross: bool
    # physical description (cavity tiers, optional for reduced)
    physical: dict | None
    balance: str
    fock_cutoff: int
    # time grid / solver
    t_max_us: float
    n_points: int
    rel_tol: float | None   # None: per-tier defaults
    abs_tol: float | None
    ss_tol: float
    # sweep axes
    sweep_a_over_b: list
    sweep_epsilon: list
    sweep_Y: list
    sha256: str = ""

    def require_physical(self) -> dict:
        if self.physical is None:
            raise ConfigError(
                "cavity tiers need the physical.* block", key="physical.g_2pi_MHz"
            )
        return self.physical


#: physical.* key -> field name; every value is a float
_PHYSICAL_KEYS = {
    "g_2pi_MHz": "g",
    "kappa1_2pi_MHz": "kappa1",
    "kappa2_2pi_MHz": "kappa2",
    "gamma_2pi_MHz": "gamma",
    "Delta_2pi_MHz": "Delta",
    "Omega_s_2pi_MHz": "Omega_s",
    "a_over_b": "a_over_b",
    "epsilon": "epsilon",
    "omega_1_2pi_MHz": "omega_1",
}

_PHYSICAL_REQUIRED = ("g", "kappa1", "gamma", "Delta", "Omega_s", "a_over_b", "epsilon")

_PHYSICAL_DEFAULTS = {"omega_1": 100.0}


def _get(raw, key, default, cast=None):
    if key not in raw:
        return default
    val = raw.pop(key)
    if cast is not None:
        try:
            return cast(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"key {key}: cannot read {val!r}", key=key) from exc
    return val


def _as_list(val):
    return list(val) if isinstance(val, list) else [val]


def validate_config(raw: dict, text: str = "") -> ExperimentConfig:
    raw = dict(raw)
    experiment = _get(raw, "experiment", None)
    if experiment is not None and experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {_EXPERIMENTS}, got {experiment!r}", key="experiment"
        )

    tiers = [str(t) for t in _as_list(_get(raw, "model.tier", "reduced"))]
    for t in tiers:
        if t not in _TIERS:
            raise ConfigError(f"model.tier entries must be in {_TIERS}, got {t!r}", key="model.tier")

    balance = _get(raw, "model.balance", "compensated")
    if balance not in _BALANCE_MODES:
        raise ConfigError(
            f"model.balance must be one of {_BALANCE_MODES}, got {balance!r}", key="model.balance"
        )
    fock_cutoff = _get(raw, "model.fock_cutoff", 2, int)
    if fock_cutoff < 1:
        raise ConfigError("model.fock_cutoff must be >= 1", key="model.fock_cutoff")

    # matched drive block
    a_over_b = _get(raw, "drive.a_over_b", None, complex)
    b = _get(raw, "drive.b", 1.0 + 0j, complex)
    a = _get(raw, "drive.a", a_over_b * b if a_over_b is not None else 2.0 * b, complex)
    epsilon = _get(raw, "drive.epsilon", None, float)
    cross = _get(raw, "drive.cross", False, bool)
    drive_kappa1 = _get(raw, "drive.kappa1", 1.0, float)
    drive_kappa2 = _get(raw, "drive.kappa2", 1.0, float)

    # physical block
    physical = {}
    for raw_key, name in _PHYSICAL_KEYS.items():
        val = _get(raw, f"physical.{raw_key}", None, float)
        if val is not None:
            physical[name] = val
    if physical:
        for raw_key, name in _PHYSICAL_KEYS.items():
            if name in _PHYSICAL_REQUIRED and name not in physical:
                raise ConfigError(f"missing key physical.{raw_key}", key=f"physical.{raw_key}")
        if "kappa2" not in physical:
            physical["kappa2"] = physical["kappa1"]
        for name, default in _PHYSICAL_DEFAULTS.items():
            physical.setdefault(name, default)
    else:
        physical = None

    if epsilon is None:
        epsilon = physical["epsilon"] if physical else 1.0
    if physical is not None and a_over_b is None and "a_over_b" in physical:
        a = complex(physical["a_over_b"]) * b

    t_max_us = _get(raw, "time.t_max_us", 10.0, float)
    n_points = _get(raw, "time.n_points", 101, int)
    if t_max_us <= 0 or n_points < 2:
        raise ConfigError("need time.t_max_us > 0 and time.n_points >= 2", key="time.t_max_us")

    rel_tol = _get(raw, "solver.rel_tol", None, float)
    abs_tol = _get(raw, "solver.abs_tol", None, float)
    ss_tol = _get(raw, "solver.ss_tol", 1e-8, float)

    # sweep axes default to the standard figure ranges
    sweep_a_over_b = [float(x) for x in _as_list(_get(raw, "sweep.a_over_b", parse_value("1.1:4.0:0.1")))]
    sweep_epsilon = [float(x) for x in _as_list(_get(raw, "sweep.epsilon", parse_value("0.7:1.0:0.01")))]
    sweep_Y = [float(x) for x in _as_list(_get(raw, "sweep.Y", parse_value("log:1:300:30")))]
    for name, axis in (("sweep.a_over_b", sweep_a_over_b), ("sweep.epsilon", sweep_epsilon), ("sweep.Y", sweep_Y)):
        if not axis or not all(np.isfinite(axis)):
            raise ConfigError(f"{name} must be a non-empty finite list", key=name)

    if raw:
        raise ConfigError(f"unknown key {sorted(raw)[0]!r}", key=sorted(raw)[0])

    return ExperimentConfig(
        experiment=experiment,
        tiers=tiers,
        a=a, b=b, epsilon=epsilon,
        drive_kappa1=drive_kappa1, drive_kappa2=drive_kappa2, cross=cross,
        physical=physical, balance=balance, fock_cutoff=fock_cutoff,
        t_max_us=t_max_us, n_points=n_points,
        rel_tol=rel_tol, abs_tol=abs_tol, ss_tol=ss_tol,
        sweep_a_over_b=sweep_a_over_b, sweep_epsilon=sweep_epsilon, sweep_Y=sweep_Y,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file (see module docstring for grammar)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(parse_config_text(text), text=text)
