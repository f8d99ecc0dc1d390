"""Shared parameter containers and engineering-unit conversions.

All module math runs in linear units (watts, linear gains, meters); dBm/dB
enter only through the conversion helpers and `SystemParams.from_engineering`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError


def dbm_to_watts(dbm: float) -> float:
    """Watts of a scalar dBm power; DomainError where they overflow a float."""
    try:
        return 10.0 ** ((float(dbm) - 30.0) / 10.0)
    except OverflowError as exc:
        raise DomainError(f"{dbm} dBm overflows a float in watts") from exc


def db_to_linear(db: float) -> float:
    """Linear value of a scalar dB gain; DomainError where it overflows a float."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError as exc:
        raise DomainError(f"{db} dB overflows a float in linear units") from exc


@dataclass(frozen=True)
class SystemParams:
    """Physical link parameters in linear units.

    Pathloss follows gain ~ beta_ref * distance^(-alpha) per hop, with
    separate exponents for the direct, feeder (BS-RIS) and access (RIS-UE)
    links.  The served user lies in the cell-edge annulus [d_min, d_max];
    a reflector serves only within `serve_radius` of the user.
    """

    tx_power: float
    noise_power: float
    beta_ref: float
    alpha_direct: float
    alpha_bs_ris: float
    alpha_ris_ue: float
    d_min: float
    d_max: float
    serve_radius: float

    def __post_init__(self):
        if not (self.tx_power > 0 and self.noise_power > 0 and self.beta_ref > 0):
            raise DomainError("powers and reference gain must be strictly positive")
        if not (self.alpha_direct >= 2 and self.alpha_bs_ris >= 2):
            raise DomainError("direct and feeder pathloss exponents must be >= 2")
        if not 2.0 <= self.alpha_ris_ue <= 4.0:
            raise DomainError("access pathloss exponent must lie in [2, 4]")
        if not 0 < self.d_min < self.d_max:
            raise DomainError("annulus requires 0 < d_min < d_max")
        if not self.serve_radius > 0:
            raise DomainError("serve_radius must be positive")

    @classmethod
    def from_engineering(
        cls,
        tx_power_dbm: float,
        noise_dbm: float,
        beta_db: float,
        alpha_direct: float,
        alpha_bs_ris: float,
        alpha_ris_ue: float,
        d_min: float,
        d_max: float,
        serve_radius: float,
    ) -> "SystemParams":
        return cls(
            tx_power=dbm_to_watts(tx_power_dbm),
            noise_power=dbm_to_watts(noise_dbm),
            beta_ref=db_to_linear(beta_db),
            alpha_direct=alpha_direct,
            alpha_bs_ris=alpha_bs_ris,
            alpha_ris_ue=alpha_ris_ue,
            d_min=d_min,
            d_max=d_max,
            serve_radius=serve_radius,
        )

    @property
    def snr_gain(self) -> float:
        """Transmit power over noise power (linear)."""
        return self.tx_power / self.noise_power

    def beta_direct(self, d: float) -> float:
        if not d > 0:
            raise DomainError("distance must be positive")
        return self.beta_ref * d ** (-self.alpha_direct)

    def beta_bs_ris(self, l: float) -> float:
        if not l > 0:
            raise DomainError("distance must be positive")
        return self.beta_ref * l ** (-self.alpha_bs_ris)

    def beta_ris_ue(self, r: float) -> float:
        if not r > 0:
            raise DomainError("distance must be positive")
        return self.beta_ref * r ** (-self.alpha_ris_ue)


@dataclass(frozen=True)
class LinkGeometry:
    """Fixed link distances: BS-UE (d), BS-RIS (l), RIS-UE (r), in meters."""

    d: float
    l: float
    r: float

    def __post_init__(self):
        if not (self.d > 0 and self.l > 0 and self.r > 0):
            raise DomainError("all link distances must be positive")


@dataclass(frozen=True)
class DeploymentParams:
    """Reflector deployment: density (per m^2) and elements per reflector."""

    density: float
    elements_per_ris: int

    def __post_init__(self):
        if not self.density > 0:
            raise DomainError("density must be positive")
        if not self.elements_per_ris >= 1:
            raise DomainError("elements_per_ris must be at least 1")


@dataclass(frozen=True)
class RateEstimate:
    """A rate value in bps/Hz with its provenance.

    std_error is present only for Monte-Carlo estimates; `warning` carries
    soft-precondition flags from the producing operation.
    """

    value: float
    method: str  # "closed_form" | "quadrature" | "monte_carlo"
    std_error: Optional[float] = None
    warning: Optional[str] = None

    _METHODS = ("closed_form", "quadrature", "monte_carlo")

    def __post_init__(self):
        if self.method not in self._METHODS:
            raise DomainError(f"unknown method {self.method!r}")
        if not self.value >= 0:
            raise DomainError(f"rates are nonnegative, got {self.value}")
        if self.std_error is not None and not self.std_error >= 0:
            raise DomainError("std_error must be nonnegative")
        if self.method == "monte_carlo" and self.std_error is None:
            raise DomainError("monte_carlo estimates must carry a std_error")
