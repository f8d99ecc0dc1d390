"""Uniform phase-shift error model and its closed-form moments.

Per-element reflection errors are i.i.d. uniform on [-rho*pi, rho*pi]; a
b-bit uniform quantizer corresponds to rho = 2^-b and rho = 1 to fully
random phases.  The attenuation factor sin(rho*pi)/(4*rho) is the mean
per-element effective amplitude of the cascaded channel under this error law.

The array's mean power gain N (m^2 N + 1 - m^2) turns from growing like N
(the random-phase term) to growing like m^2 N^2 at the crossover array size
1/m^2 - 1.  The paper's large-array results (the bounded loss saturates, the
random-phase loss grows like log2 N) hold for N well above it: at least
LARGE_ARRAY_MARGIN times it.  "Well below" is at most 1/LARGE_ARRAY_MARGIN
of it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .streams import _is_index


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho}")


def attenuation_factor(rho: float) -> float:
    """Mean-amplitude attenuation sin(rho*pi)/(4*rho); pi/4 in the limit rho=0.

    Monotone nonincreasing in rho: pi/4 for perfect phases, 0 for random ones.
    """
    _check_rho(rho)
    if rho == 0.0:
        return math.pi / 4.0
    if rho == 1.0:
        return 0.0  # sin(pi) exactly; avoids the ~1e-16 float residue
    return math.sin(rho * math.pi) / (4.0 * rho)


#: The factor by which an array size must exceed (or fall short of) the
#: crossover size to count as well above (or well below) it.
LARGE_ARRAY_MARGIN = 10.0


def crossover_size(rho: float) -> float:
    """Array size 1/m^2 - 1 at which m^2 N overtakes 1 - m^2; inf at m = 0."""
    m = attenuation_factor(rho)
    if m == 0.0:
        return math.inf
    return 1.0 / (m * m) - 1.0


def expected_cos_diff(rho: float) -> float:
    """E{cos(t1 - t2)} for two independent uniform errors: sin^2(pi rho)/(pi rho)^2."""
    _check_rho(rho)
    if rho == 0.0:
        return 1.0
    return (math.sin(math.pi * rho) / (math.pi * rho)) ** 2


def error_difference_pdf(rho: float, z: float) -> float:
    """Triangular density of the difference of two independent uniform errors.

    Support (-2 rho pi, 2 rho pi); value 1/(2 rho pi) - |z|/(4 rho^2 pi^2)
    inside, 0 outside.
    """
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"error_difference_pdf requires rho in (0, 1], got {rho}")
    if math.isnan(z):
        raise DomainError("error_difference_pdf requires a real z")
    half_width = 2.0 * rho * math.pi
    if abs(z) >= half_width:
        return 0.0
    return 1.0 / (2.0 * rho * math.pi) - abs(z) / (4.0 * rho * rho * math.pi * math.pi)


def sample_phase_errors(
    rho: float, count: int, stream: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw i.i.d. uniform phase errors on [-rho*pi, rho*pi] from `stream`.

    `out`, a C-contiguous float64 array of `count` elements in any shape,
    receives the draws and is returned; without it they go to a new array of
    shape (count,).  The draws are `count` uniforms u from
    `Generator.random`, mapped to -rho*pi + u * (rho*pi - (-rho*pi)) in
    place: the values `Generator.uniform(-rho*pi, rho*pi, count)` gives, bit
    for bit, from the same stream positions.  Halving rho halves each draw
    exactly, since no value then falls below the normal range (for any rho
    above 1e-290).  At rho = 0 nothing is drawn and the errors are 0.
    """
    _check_rho(rho)
    if not _is_index(count, 0):
        raise DomainError("count must be a nonnegative integer")
    if out is None:
        out = np.empty(count)
    elif out.size != count:
        raise DomainError(f"out holds {out.size} elements, not count = {count}")
    if rho == 0.0:
        out.fill(0.0)
        return out
    low, high = -rho * math.pi, rho * math.pi
    stream.random(out=out)
    out *= high - low
    out += low
    return out
