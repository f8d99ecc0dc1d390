"""Run configuration: flat key = value files, CLI overrides, unit ingestion.

Precedence is defaults < config file < command-line flags.  Every value,
whether from a file line, a flag, a sweep point or a `rho_list` entry, is
checked through the one key table `_KEYS`.  Engineering units (dBm, dB) are
converted to linear exactly once, when the resolved configuration is turned
into parameter objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .monte_carlo import usable_cores
from .params import (
    DeploymentParams,
    LinkGeometry,
    SystemParams,
    _is_count,
    db_to_linear,
    dbm_to_watts,
)


class ConfigError(Exception):
    """Raised for unknown keys, missing required keys, or out-of-domain values."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    points: int
    scale: str = "linear"  # or "log"

    def values(self):
        if self.scale == "log":
            if self.start <= 0 or self.stop <= 0:
                raise ConfigError("log sweep endpoints must be positive")
            return np.geomspace(self.start, self.stop, self.points)
        # a span that overflows gives non-finite points, which the key check rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linspace(self.start, self.stop, self.points)


def parse_sweep(text: str) -> SweepSpec:
    """Parse AXIS:MIN:MAX:POINTS[:log]."""
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ConfigError(f"sweep must be AXIS:MIN:MAX:POINTS[:log], got {text!r}")
    axis = parts[0]
    try:
        start, stop = float(parts[1]), float(parts[2])
        points = int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"non-numeric sweep bounds in {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep bounds must be finite, got {text!r}")
    if points < 1:
        raise ConfigError("sweep needs at least one point")
    scale = "linear"
    if len(parts) == 5:
        if parts[4] != "log":
            raise ConfigError(f"unknown sweep scale {parts[4]!r} (only 'log')")
        scale = "log"
    return SweepSpec(axis=axis, start=start, stop=stop, points=points, scale=scale)


def _positive(x: float) -> bool:
    return x > 0


def _nonneg(x: float) -> bool:
    return x >= 0


def _positive_watts(dbm: float) -> bool:
    return dbm_to_watts(dbm) > 0


# key -> (parser of its text, domain check or None, default or None for unset)
_KEYS = {
    "tx_power_dbm": (float, _positive_watts, 10.0),
    "noise_dbm": (float, _positive_watts, -80.0),
    "beta_db": (float, lambda v: db_to_linear(v) > 0, -30.0),
    "alpha_direct": (float, lambda v: v >= 2, 3.0),
    "alpha_bs_ris": (float, lambda v: v >= 2, 2.0),
    "alpha_ris_ue": (float, lambda v: 2 <= v <= 4, 2.5),
    "d_min": (float, _positive, 180.0),
    "d_max": (float, _positive, 220.0),
    "serve_radius": (float, _positive, 10.0),
    "density": (float, _positive, 0.005),
    "elements_per_ris": (int, lambda v: _is_count(v, 1), 200),
    "element_budget": (float, _positive, 10.0),
    "rho": (float, lambda v: 0 <= v <= 1, 0.0),
    "quant_bits": (int, lambda v: v >= 1, None),
    # each comma-separated entry is checked as a `rho` when the config resolves
    "rho_list": (str, None, "0.25,0.5,0.6,1"),
    "d": (float, _positive, 200.0),
    "l": (float, _positive, None),
    "r": (float, _positive, 10.0),
    "trials": (int, lambda v: v >= 1, 100_000),
    "validate_trials": (int, lambda v: v >= 1, 1_000_000),
    "seed": (int, _nonneg, 0),
    "workers": (int, lambda v: v >= 1, usable_cores()),
    "regime": (str, lambda v: v in ("high", "low", "auto"), "auto"),
    "sweep": (str, None, None),
    "out": (str, None, None),
    "n_max": (int, lambda v: v >= 1, 512),
}


def read_config_file(path: str) -> dict:
    """Parse a flat key = value file with # comments into raw typed values."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.rstrip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = _coerce(key, value, f"{path}:{lineno}")
    return raw


def _not_type(key: str, value, where: str) -> ConfigError:
    return ConfigError(f"{where}: value {value!r} for key {key!r} is not {_KEYS[key][0].__name__}")


def _coerce(key: str, value, where: str):
    """Parse `value` for `key` if it is text, then check its type and the key's domain.

    A value given in code is held to the type its text would parse to: no key
    takes a bool, an `int` key takes only an integer, and a `float` key also
    takes an integer.
    """
    parser, check, _ = _KEYS[key]
    if isinstance(value, str) and parser is not str:
        try:
            value = parser(value)
        except ValueError as exc:
            raise _not_type(key, value, where) from exc
    elif isinstance(value, (bool, np.bool_)):
        raise _not_type(key, value, where)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: value {value!r} for key {key!r} is not finite")
    if parser is int and not isinstance(value, (int, np.integer)):
        raise _not_type(key, value, where)
    try:
        ok = check is None or check(value)
    except DomainError as exc:  # a unit conversion that overflows
        raise ConfigError(f"{where}: key {key!r}: {exc}") from exc
    if not ok:
        raise ConfigError(f"{where}: value {value!r} out of domain for key {key!r}")
    return value


@dataclass
class RunConfig:
    """Fully resolved run configuration (engineering units retained for echo)."""

    values: dict = field(default_factory=dict)
    sweep: Optional[SweepSpec] = None

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def points(self, axes) -> list["RunConfig"]:
        """The configuration at each value of the sweep, whose axis must be one of `axes`.

        Each value is checked as the key it sets.  An `n_elements` value rounds to
        an element count of at least 1.
        """
        axis = self.sweep.axis
        if axis not in axes:
            raise ConfigError(f"sweep axis must be one of {axes}, got {axis!r}")
        key = "elements_per_ris" if axis == "n_elements" else axis
        where = f"sweep {self.values['sweep']!r}"
        out = []
        for value in self.sweep.values().tolist():
            if key == "elements_per_ris" and math.isfinite(value):
                value = max(1, round(value))
            values = {**self.values, key: _coerce(key, value, where)}
            out.append(RunConfig(values=values))
        return out

    def system_params(self) -> SystemParams:
        v = self.values
        return SystemParams.from_engineering(
            tx_power_dbm=v["tx_power_dbm"],
            noise_dbm=v["noise_dbm"],
            beta_db=v["beta_db"],
            alpha_direct=v["alpha_direct"],
            alpha_bs_ris=v["alpha_bs_ris"],
            alpha_ris_ue=v["alpha_ris_ue"],
            d_min=v["d_min"],
            d_max=v["d_max"],
            serve_radius=v["serve_radius"],
        )

    def deployment_params(self) -> DeploymentParams:
        v = self.values
        return DeploymentParams(density=v["density"], elements_per_ris=v["elements_per_ris"])

    def link_geometry(self) -> LinkGeometry:
        v = self.values
        return LinkGeometry(d=v["d"], l=v.get("l", v["d"]), r=v["r"])

    def linear_echo(self) -> str:
        """One-line summary of the resolved linear-unit parameters."""
        v = self.values
        pieces = [
            f"tx_power_w={dbm_to_watts(v['tx_power_dbm']):.12g}",
            f"noise_w={dbm_to_watts(v['noise_dbm']):.12g}",
            f"beta={db_to_linear(v['beta_db']):.12g}",
            f"alpha=({v['alpha_direct']:g},{v['alpha_bs_ris']:g},{v['alpha_ris_ue']:g})",
            f"annulus=({v['d_min']:g},{v['d_max']:g})",
            f"serve_radius={v['serve_radius']:g}",
            f"density={v['density']:g}",
            f"elements_per_ris={v['elements_per_ris']}",
            f"element_budget={v['element_budget']:g}",
            f"rho={v['rho']:g}",
            f"seed={v['seed']}",
            f"trials={v['trials']}",
        ]
        return " ".join(pieces)


def resolve(
    config_path: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Merge defaults, an optional config file, and CLI overrides (that order)."""
    given = read_config_file(config_path) if config_path else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        given[key] = _coerce(key, value, "command line")
    values = {key: default for key, (_, _, default) in _KEYS.items() if default is not None}
    values.update(given)
    tokens = [token.strip() for token in values["rho_list"].split(",") if token.strip()]
    if not tokens:
        raise ConfigError("rho_list is empty")
    values["rho_list"] = tuple(_coerce("rho", token, "rho_list entry") for token in tokens)
    if "quant_bits" in values:
        # quantizer bits pin rho exactly; an explicit rho must agree with them
        if "rho" in given and not math.isclose(values["rho"], 2.0 ** (-values["quant_bits"])):
            raise ConfigError(
                f"rho={values['rho']} conflicts with quant_bits={values['quant_bits']}"
            )
        values["rho"] = 2.0 ** (-values["quant_bits"])
    cfg = RunConfig(values=values)
    if values.get("sweep"):
        cfg.sweep = parse_sweep(values["sweep"])
    return cfg
