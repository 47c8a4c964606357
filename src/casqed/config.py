"""Experiment configuration files.

Grammar: UTF-8 text, one ``key = value`` pair per line, ``#`` starts a
comment, blank lines ignored.  Dotted keys group related settings
(``physical.g_2pi_MHz = 110``).  Values are parsed as int, float,
complex (``1+2j``), booleans (``true``/``false``), comma lists, range
expressions ``lo:hi:step`` (inclusive of both ends up to rounding) and
``log:lo:hi:n`` for log-spaced grids; anything else stays a string.

:data:`KEYS` holds one entry per key: its field, default, cast, accepted
values, help line and the commands that read it.  :func:`validate_config`
reads every key through it, :func:`casqed.experiments.check_params` checks
the values of the keys a command reads (:func:`keys_read_by`), and
``casqed --help`` prints it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError


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


def _integral(value) -> int:
    """``value`` as an int: 3 and 3.0 are integral; 2.5, true and "3" are not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def parse_value(text: str):
    text = text.strip()
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError("log range needs log:lo:hi:n")
        lo, hi, n = float(parts[1]), float(parts[2]), _integral(_parse_scalar(parts[3].strip()))
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
        # a count no allocator can hold fails here at once, not entry by entry
        return (lo + np.arange(n) * step).tolist()
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
        except (OverflowError, MemoryError) as exc:
            raise ConfigError(f"line {lineno}: {key} has too many values ({exc})",
                              key=key, line=lineno) from exc
    return out


@dataclass
class ExperimentConfig:
    """Validated settings for one experiment run."""

    experiment: str | None
    tiers: list
    # matched-drive description (reduced tier without the physical block)
    a: complex
    b: complex
    epsilon: float
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
    # sweep axes
    sweep_a_over_b: list
    sweep_epsilon: list
    sweep_Y: list
    sha256: str = ""
    # steady-state residual bound read only by perfbench/checks.py; no key
    # sets it, and it goes with that check (ROADMAP item 2)
    ss_tol: float = 1e-8


def _scalar(value):
    """One value as parsed; a comma list is not one."""
    if isinstance(value, list):
        raise ValueError(value)
    return value


def _list(cast):
    """Cast of a comma list, or of one value, entry by entry."""
    return lambda value: [cast(v) for v in (value if isinstance(value, list) else [value])]


#: accepted values by name; each test takes one cast value (one list entry)
_CHECKS = {
    "finite": lambda v: math.isfinite(abs(v)),
    "finite > 0": lambda v: math.isfinite(v) and v > 0,
    "integer >= 1": lambda v: v >= 1,
    "integer >= 2": lambda v: v >= 2,
    "true | false": lambda v: isinstance(v, bool),
}


#: the commands that read a config file
COMMANDS = ("evolve", "sweep-eps", "sweep-coop", "steady")


class Key(NamedTuple):
    """One config key: where it goes, its default, what it accepts and
    which commands read it."""

    name: str
    field: str              # ExperimentConfig field; physical.*: key of the physical dict
    default: str | None     # config text of the value when absent; None: see help
    cast: Callable          # parsed value -> field value
    accepts: str            # a _CHECKS name, or the accepted strings joined by " | "
    help: str
    required: bool = False  # physical.*: needed whenever the physical block is given
    read_by: tuple = COMMANDS

    def read(self, value):
        """``value`` cast and checked; raises ConfigError naming the key."""
        test = _CHECKS.get(self.accepts, self.accepts.split(" | ").__contains__)
        try:
            out = self.cast(value)
            ok = out != [] and all(map(test, out if isinstance(out, list) else [out]))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{self.name} must be {self.accepts}, got {value!r}", key=self.name)
        return out


#: every config key, in help order
KEYS = (
    Key("experiment", "experiment", None, _scalar, "evolve | sweep-eps | sweep-coop | steady | metrics",
        "must match the subcommand if given"),
    Key("model.tier", "tiers", "reduced", _list(str), "reduced | effective | full",
        "evolve accepts a comma list"),
    Key("model.balance", "balance", "compensated", _scalar, "compensated | raman_resonant",
        "light-shift balance"),
    Key("model.fock_cutoff", "fock_cutoff", "2", _integral, "integer >= 1", "photon states 0..cutoff per mode",
        read_by=("evolve", "sweep-eps", "sweep-coop")),
    # a sweep-eps point takes a = (a/b) b and epsilon from its axes
    Key("drive.a", "a", None, complex, "finite", "default drive.a_over_b * drive.b, else 2 * drive.b",
        read_by=("evolve", "steady")),
    Key("drive.b", "b", "1", complex, "finite", "matched Raman amplitudes a, b (reduced tier)",
        read_by=("evolve", "sweep-eps", "steady")),
    Key("drive.a_over_b", "a_over_b", None, complex, "finite", "sets drive.a = a_over_b * drive.b",
        read_by=("evolve", "steady")),
    Key("drive.epsilon", "epsilon", "1", float, "finite", "cavity coupling efficiency (reduced tier)",
        read_by=("evolve", "steady")),
    Key("drive.cross", "cross", "false", _scalar, "true | false", "swap a, b on atom 2 (psi sector)",
        read_by=("evolve", "sweep-eps", "steady")),
    Key("physical.g_2pi_MHz", "g", None, float, "finite", "atom-cavity coupling", True),
    Key("physical.kappa1_2pi_MHz", "kappa1", None, float, "finite", "cavity 1 decay", True),
    Key("physical.kappa2_2pi_MHz", "kappa2", None, float, "finite", "cavity 2 decay; default kappa1"),
    Key("physical.gamma_2pi_MHz", "gamma", None, float, "finite", "spontaneous emission", True),
    Key("physical.Delta_2pi_MHz", "Delta", None, float, "finite", "Raman detuning", True),
    Key("physical.Omega_s_2pi_MHz", "Omega_s", None, float, "finite", "Omega_r = a_over_b Omega_s", True),
    # a sweep-eps point replaces both with its axes' values
    Key("physical.a_over_b", "a_over_b", None, float, "finite", "drive ratio", True,
        read_by=("evolve", "sweep-coop", "steady")),
    Key("physical.epsilon", "epsilon", None, float, "finite", "cavity coupling efficiency", True,
        read_by=("evolve", "sweep-coop", "steady")),
    Key("time.t_max_us", "t_max_us", "10", float, "finite > 0", "end time", read_by=("evolve",)),
    Key("time.n_points", "n_points", "101", _integral, "integer >= 2", "samples", read_by=("evolve",)),
    Key("solver.rel_tol", "rel_tol", None, float, "finite > 0", "relative tolerance; default per tier",
        read_by=("evolve",)),
    Key("solver.abs_tol", "abs_tol", None, float, "finite > 0", "absolute tolerance; default per tier",
        read_by=("evolve",)),
    Key("sweep.a_over_b", "sweep_a_over_b", "1.1:4.0:0.1", _list(float), "finite", "a/b axis",
        read_by=("sweep-eps",)),
    Key("sweep.epsilon", "sweep_epsilon", "0.7:1.0:0.01", _list(float), "finite", "epsilon axis",
        read_by=("sweep-eps",)),
    Key("sweep.Y", "sweep_Y", "log:1:300:30", _list(float), "finite", "cooperativity axis",
        read_by=("sweep-coop",)),
)


def keys_read_by(command: str) -> frozenset:
    """The names of the keys ``command`` reads."""
    return frozenset(key.name for key in KEYS if command in key.read_by)


def validate_config(raw: dict, text: str = "") -> ExperimentConfig:
    """The config of a raw key -> value mapping, read through :data:`KEYS`."""
    raw = dict(raw)
    block = any(k.name in raw for k in KEYS if k.name.startswith("physical."))
    # the physical block sets the reduced drive, so no drive.* key is read next to it
    drive = [k.name for k in KEYS if k.name.startswith("drive.") and k.name in raw]
    if block and drive:
        raise ConfigError(f"{drive[0]} conflicts with the physical block: no command reads it there",
                          key=drive[0])
    if "drive.a" in raw and "drive.a_over_b" in raw:
        raise ConfigError("drive.a and drive.a_over_b both set drive.a; give one", key="drive.a_over_b")

    fields, physical = {}, {}
    for key in KEYS:
        in_block = key.name.startswith("physical.")
        if key.name in raw:
            value = key.read(raw.pop(key.name))
        elif in_block and not block:
            continue
        elif key.required:
            raise ConfigError(f"missing key {key.name}", key=key.name)
        else:
            value = None if key.default is None else key.read(parse_value(key.default))
        (physical if in_block else fields)[key.field] = value
    if raw:
        raise ConfigError(f"unknown key {min(raw)!r}", key=min(raw))
    if len(set(fields["tiers"])) < len(fields["tiers"]):
        raise ConfigError(f"model.tier lists a tier twice: {', '.join(fields['tiers'])}", key="model.tier")

    # the defaults that depend on other keys
    a_over_b, b = fields.pop("a_over_b"), fields["b"]
    if physical and physical["kappa2"] is None:
        physical["kappa2"] = physical["kappa1"]
    if a_over_b is not None:
        fields["a"] = a_over_b * b
    elif fields["a"] is None:
        fields["a"] = 2.0 * b
    return ExperimentConfig(**fields, physical=physical or None,
                            sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file (see module docstring for grammar)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(parse_config_text(text), text=text)
