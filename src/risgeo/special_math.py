"""Special functions used by every analytic rate expression.

The exponential integral Ei and the lower incomplete gamma function are thin
wrappers over `scipy.special` that take scalars or arrays and reject
arguments outside their domain; both are cross-checked against adaptive
quadrature in the test suite.  A stabilized power integral absorbs the
degenerate exponents (p -> -1) that appear in the distance-moment constants
for realistic pathloss combinations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError

#: |p + 1| below which power_integral switches to its log-limit branch.
_POWER_LIMIT_SWITCH = 1e-8


def euler_constant() -> float:
    """Euler-Mascheroni constant E0 = lim (sum 1/k - ln n)."""
    return np.euler_gamma


def exp_integral_ei(x):
    """Exponential integral Ei(x) = PV integral of e^t / t from -inf to x.

    Thin wrapper over `scipy.special.expi`; takes a scalar or an array.
    Raises DomainError at the logarithmic singularity x = 0 and at NaN.
    """
    out = special.expi(x)
    # expi is -inf exactly at x = +-0 and NaN at NaN, which min propagates
    if not out.min(initial=np.inf) > -np.inf:
        raise DomainError("Ei(x) has a logarithmic singularity at x = 0 and is undefined at NaN")
    return out


def lower_incomplete_gamma(a: float, x):
    """Lower incomplete gamma gamma(a, x) = integral of e^-t t^(a-1), 0..x.

    The regularized `scipy.special.gammainc` times Gamma(a); x may be an array.
    """
    if not a > 0.0:
        raise DomainError("lower_incomplete_gamma requires a > 0")
    if not (np.asarray(x) >= 0.0).all():
        raise DomainError("lower_incomplete_gamma requires x >= 0")
    return special.gammainc(a, x) * special.gamma(a)


def power_integral(p: float, a: float, b: float) -> float:
    """Integral of x^p over [a, b], continuous across the p = -1 degeneracy.

    For |p + 1| below the switch threshold the stable limit form
    a^(p+1) * expm1((p+1) ln(b/a)) / (p+1) is used, which tends to ln(b/a).
    """
    if a <= 0.0:
        raise DomainError("power_integral requires 0 < a")
    if b < a:
        raise DomainError("power_integral requires a <= b")
    q = p + 1.0
    if q == 0.0:
        return math.log(b / a)
    if abs(q) < _POWER_LIMIT_SWITCH:
        return math.exp(q * math.log(a)) * math.expm1(q * math.log(b / a)) / q
    return (b**q - a**q) / q
