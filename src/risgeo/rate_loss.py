"""Spatially averaged rate loss from imperfect phase shifts.

The loss is the array-gain term evaluated at ideal phases minus the same
term at attenuation m: association-weighted
log2(((pi^2/16) N + 1 - pi^2/16) / (m^2 N + 1 - m^2)).  For bounded errors
it saturates at log2(pi^2 / (16 m^2)) as the array grows; for fully random
phases it keeps growing like log2 N.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .phase_error import attenuation_factor
from .spatial_rate import association_probability

_IDEAL_SQ = math.pi**2 / 16.0

#: Factor quantifying "much larger / much smaller" than the crossover array
#: size 1/m^2 - 1 when classifying the loss regime.
_REGIME_MARGIN = 10.0


def rate_loss(n_elements: int, rho: float, lam: float, serve_radius: float) -> float:
    """Loss in bps/Hz relative to ideal phases at the same array size."""
    if not n_elements >= 1:
        raise DomainError("n_elements must be at least 1")
    m = attenuation_factor(rho)
    n = float(n_elements)
    ratio = (_IDEAL_SQ * n + 1.0 - _IDEAL_SQ) / (m * m * n + 1.0 - m * m)
    return association_probability(lam, serve_radius) * math.log2(ratio)


def rate_loss_asymptote(rho: float, lam: float, serve_radius: float) -> float:
    """Large-array limit of the loss; requires a nonzero attenuation factor."""
    m = attenuation_factor(rho)
    if m == 0.0:
        raise DomainError("loss does not saturate for fully random phases (rho = 1)")
    return association_probability(lam, serve_radius) * math.log2(_IDEAL_SQ / (m * m))


def rate_loss_regime(
    n_elements: int, rho: float, lam: float, serve_radius: float
) -> tuple[str, float]:
    """Classify the loss as saturating / log_growth / mixed, with its value.

    The crossover array size is 1/m^2 - 1: well above it the loss sits at its
    asymptote, well below it grows like the random-phase loss.
    """
    value = rate_loss(n_elements, rho, lam, serve_radius)
    m = attenuation_factor(rho)
    if m == 0.0:
        return "log_growth", value
    crossover = 1.0 / (m * m) - 1.0
    if n_elements >= _REGIME_MARGIN * crossover:
        return "saturating", value
    if n_elements <= crossover / _REGIME_MARGIN:
        return "log_growth", value
    return "mixed", value
