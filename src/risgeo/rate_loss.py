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
from .phase_error import LARGE_ARRAY_MARGIN, attenuation_factor, crossover_size
from .spatial_rate import _power_per_element, association_probability
from .streams import _is_index

_IDEAL_SQ = math.pi**2 / 16.0


def rate_loss(n_elements: int, rho: float, lam: float, serve_radius: float) -> float:
    """Loss in bps/Hz relative to ideal phases at the same array size."""
    if not _is_index(n_elements, 1):
        raise DomainError("n_elements must be an integer >= 1")
    m = attenuation_factor(rho)
    n = float(n_elements)
    ratio = _power_per_element(n, _IDEAL_SQ) / _power_per_element(n, m * m)
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

    Well above the crossover array size (`phase_error.crossover_size`) the
    loss sits at its asymptote, well below it grows like the random-phase
    loss; fully random phases have an infinite crossover.
    """
    value = rate_loss(n_elements, rho, lam, serve_radius)
    crossover = crossover_size(rho)
    if n_elements >= LARGE_ARRAY_MARGIN * crossover:
        return "saturating", value
    if n_elements <= crossover / LARGE_ARRAY_MARGIN:
        return "log_growth", value
    return "mixed", value
