"""Ergodic-rate bounds for a fixed user / reflector geometry.

The reflected-path bound comes from applying Jensen's inequality to the
instantaneous rate and inserting the closed-form moments of the cascaded
double-Rayleigh channel under uniform phase errors; with N elements and
attenuation factor m it reads

    log2(1 + snr * [bl*br*(m^2 N^2 + (1-m^2) N) + sqrt(pi*bl*br*bd)*m*N + bd]).

Setting rho = 0 gives the ideal benchmark (m = pi/4), rho = 1 the
random-phase benchmark (m = 0, power scaling N instead of N^2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import LinkGeometry, RateEstimate, SystemParams
from .phase_error import LARGE_ARRAY_MARGIN, attenuation_factor, crossover_size
from .streams import _is_index


def mean_power_gain(blbr, bd, m, n, out=None):
    """The bracket above: mean received power gain E|sqrt(bl*br) z + sqrt(bd) |h||^2.

    Takes the cascade gain as the product blbr = bl*br.  Elementwise over
    arrays or scalars; n is the element count as a float.  As with numpy's
    ufuncs, the bracket is written into `out` if given (it may be blbr
    itself); the cross term takes one scratch array.  At blbr = 0 the
    bracket is bd bit for bit (0 K + sqrt(0) m n + bd), so a cascade gain
    multiplied by a 0/1 mask selects between the bracket and bd alone.  At
    m = 0 the cross term is left out, not formed as sqrt(blbr pi bd) * 0,
    which is NaN at blbr = inf; for finite blbr x + 0.0 = x, so no bit moves.
    """
    gain = m * m * n * n + (1.0 - m * m) * n
    if m == 0.0:
        out = np.multiply(blbr, gain, out=out)
    else:  # the cross term comes first: `out` may be blbr itself
        cross = np.pi * blbr  # the scratch array, or a float for floats
        cross *= bd
        cross = np.sqrt(cross, out=cross if isinstance(cross, np.ndarray) else None)
        cross *= m
        cross *= n
        out = np.multiply(blbr, gain, out=out)
        out += cross
    out += bd
    return out


def rate_bound_ris(
    params: SystemParams, geom: LinkGeometry, n_elements: int, rho: float
) -> RateEstimate:
    """Upper bound on the ergodic rate of the reflector-assisted link (bps/Hz)."""
    if not _is_index(n_elements, 1):
        raise DomainError("n_elements must be an integer >= 1")
    m = attenuation_factor(rho)
    bl = params.beta_bs_ris(geom.l)
    br = params.beta_ris_ue(geom.r)
    bd = params.beta_direct(geom.d)
    inside = mean_power_gain(bl * br, bd, m, float(n_elements))
    return RateEstimate(value=math.log2(1.0 + params.snr_gain * inside), method="closed_form")


def rate_bound_direct(params: SystemParams, d: float) -> RateEstimate:
    """Upper bound on the ergodic rate of the direct-only link (bps/Hz)."""
    bd = params.beta_direct(d)
    return RateEstimate(value=math.log2(1.0 + params.snr_gain * bd), method="closed_form")


def rate_asymptotic(
    params: SystemParams, geom: LinkGeometry, n_elements: float, rho: float
) -> RateEstimate:
    """Large-array limit log2(1 + bl*br*xi), xi = m^2 N^2 snr.

    Accepts a real-valued n_elements so exact compensation scalings
    (N -> N * m0/m1) can be expressed; flags a warning when N is below
    LARGE_ARRAY_MARGIN times the validity threshold instead of failing.
    """
    if n_elements <= 0:
        raise DomainError("n_elements must be positive")
    m = attenuation_factor(rho)
    if m == 0.0:
        raise DomainError("asymptote degenerates for fully random phases (rho = 1)")
    bl = params.beta_bs_ris(geom.l)
    br = params.beta_ris_ue(geom.r)
    bd = params.beta_direct(geom.d)
    threshold = max(crossover_size(rho), math.sqrt(math.pi * bd / (bl * br)) / m)
    warning = None
    if n_elements < LARGE_ARRAY_MARGIN * threshold:
        warning = (
            f"n_elements={n_elements:g} below {LARGE_ARRAY_MARGIN:g} x the "
            f"large-array threshold {threshold:.3g}; asymptote may be loose"
        )
    xi = m * m * n_elements * n_elements * params.snr_gain
    return RateEstimate(
        value=math.log2(1.0 + bl * br * xi), method="closed_form", warning=warning
    )


def compensation(rho_from: float, rho_to: float) -> dict:
    """Element / power scalings that keep the equivalent SNR xi unchanged.

    Returns the factor by which N must grow (equivalently, the dB uplift of
    transmit power, 20*log10 of the same factor) when the error half-range
    moves from rho_from to rho_to.
    """
    if not (0.0 <= rho_from < 1.0 and 0.0 <= rho_to < 1.0):
        raise DomainError("compensation requires both rho values in [0, 1)")
    m_from = attenuation_factor(rho_from)
    m_to = attenuation_factor(rho_to)
    if m_to == 0.0:
        raise DomainError("cannot compensate into a zero attenuation factor")
    factor = m_from / m_to
    return {
        "element_factor": factor,
        "power_delta_db": 20.0 * math.log10(factor),
    }
