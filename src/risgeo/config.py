"""Run configuration: flat key = value files, CLI overrides, unit ingestion.

Precedence is defaults < config file < command-line flags.  Engineering
units (dBm, dB) are converted to linear exactly once, when the resolved
configuration is turned into parameter objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError
from .monte_carlo import usable_cores
from .params import DeploymentParams, LinkGeometry, SystemParams, dbm_to_watts, db_to_linear


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
        import numpy as np

        if self.points == 1:
            return np.array([self.start])
        if self.scale == "log":
            if self.start <= 0 or self.stop <= 0:
                raise ConfigError("log sweep endpoints must be positive")
            return np.geomspace(self.start, self.stop, self.points)
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


# key -> (parser, validator or None)
_SCHEMA = {
    "tx_power_dbm": (float, None),
    "noise_dbm": (float, None),
    "beta_db": (float, None),
    "alpha_direct": (float, lambda v: v >= 2),
    "alpha_bs_ris": (float, lambda v: v >= 2),
    "alpha_ris_ue": (float, lambda v: 2 <= v <= 4),
    "d_min": (float, _positive),
    "d_max": (float, _positive),
    "serve_radius": (float, _positive),
    "density": (float, _positive),
    "elements_per_ris": (int, lambda v: v >= 1),
    "element_budget": (float, _positive),
    "rho": (float, lambda v: 0 <= v <= 1),
    "quant_bits": (int, lambda v: v >= 1),
    "rho_list": (str, None),
    "d": (float, _positive),
    "l": (float, _positive),
    "r": (float, _positive),
    "trials": (int, lambda v: v >= 1),
    "validate_trials": (int, lambda v: v >= 1),
    "seed": (int, _nonneg),
    "workers": (int, lambda v: v >= 1),
    "regime": (str, lambda v: v in ("high", "low", "auto")),
    "sweep": (str, None),
    "out": (str, None),
    "n_max": (int, lambda v: v >= 1),
}

_DEFAULTS = {
    "tx_power_dbm": 10.0,
    "noise_dbm": -80.0,
    "beta_db": -30.0,
    "alpha_direct": 3.0,
    "alpha_bs_ris": 2.0,
    "alpha_ris_ue": 2.5,
    "d_min": 180.0,
    "d_max": 220.0,
    "serve_radius": 10.0,
    "density": 0.005,
    "elements_per_ris": 200,
    "element_budget": 10.0,
    "rho": 0.0,
    "rho_list": "0.25,0.5,0.6,1",
    "d": 200.0,
    "r": 10.0,
    "trials": 100_000,
    "validate_trials": 1_000_000,
    "seed": 0,
    "workers": usable_cores(),
    "regime": "auto",
    "n_max": 512,
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
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = _coerce(key, value, f"{path}:{lineno}")
    return raw


def _coerce(key: str, value, where: str):
    parser, validator = _SCHEMA[key]
    if isinstance(value, str) and parser is not str:
        try:
            value = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: value for {key!r} is not {parser.__name__}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: value {value!r} for key {key!r} is not finite")
    if validator is not None and not validator(value):
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

    @property
    def rho(self) -> float:
        if "quant_bits" in self.values:
            return 2.0 ** (-self.values["quant_bits"])
        return self.values["rho"]

    def rho_values(self) -> list[float]:
        out = []
        for token in str(self.values["rho_list"]).split(","):
            token = token.strip()
            if not token:
                continue
            rho = float(token)
            if not 0 <= rho <= 1:
                raise ConfigError(f"rho_list entry {rho} out of [0, 1]")
            out.append(rho)
        if not out:
            raise ConfigError("rho_list is empty")
        return out

    def system_params(self) -> SystemParams:
        v = self.values
        try:
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
        except DomainError as exc:
            raise ConfigError(f"invalid physical parameters: {exc}") from exc

    def deployment_params(self) -> DeploymentParams:
        v = self.values
        try:
            return DeploymentParams(
                density=v["density"], elements_per_ris=v["elements_per_ris"]
            )
        except DomainError as exc:
            raise ConfigError(f"invalid deployment parameters: {exc}") from exc

    def link_geometry(self) -> LinkGeometry:
        v = self.values
        try:
            return LinkGeometry(d=v["d"], l=v.get("l", v["d"]), r=v["r"])
        except DomainError as exc:
            raise ConfigError(f"invalid link geometry: {exc}") from exc

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
            f"rho={self.rho:g}",
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
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        given[key] = _coerce(key, value, "command line")
    values = {**_DEFAULTS, **given}
    if "quant_bits" in values and "rho" in given:
        # quantizer bits pin rho exactly; an explicit rho must agree with them
        if not math.isclose(values["rho"], 2.0 ** (-values["quant_bits"])):
            raise ConfigError(
                f"rho={values['rho']} conflicts with quant_bits={values['quant_bits']}"
            )
    cfg = RunConfig(values=values)
    if values.get("sweep"):
        cfg.sweep = parse_sweep(values["sweep"])
    return cfg
