"""Special functions used by every analytic rate expression.

The exponential integral Ei and the lower incomplete gamma function are thin
wrappers over `scipy.special` that take scalars or arrays and reject
arguments outside their domain.  The upper incomplete gamma function covers
any real order, the s <= 0 orders included, through E1 and the recurrence.
All three are cross-checked against adaptive quadrature in the test suite.
A stabilized power integral absorbs the degenerate exponents (p -> -1) that
appear in the distance-moment constants for realistic pathloss combinations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError

#: |p + 1| below which power_integral switches to its log-limit branch.
_POWER_LIMIT_SWITCH = 1e-8


def _least(x):
    """Smallest value of a scalar or an array, for domain checks.

    A float (np.float64 included) is its own smallest value, so checking one
    costs a single comparison; an array costs one reduction.  A NaN anywhere
    gives NaN, which fails every comparison, and an empty array gives inf.
    """
    if isinstance(x, float):
        return x
    return np.asarray(x, dtype=float).min(initial=np.inf)


def exp_integral_ei(x):
    """Exponential integral Ei(x) = PV integral of e^t / t from -inf to x.

    Thin wrapper over `scipy.special.expi`; takes a scalar or an array.
    Raises DomainError at the logarithmic singularity x = 0 and at NaN.
    """
    out = special.expi(x)
    # expi is -inf exactly at x = +-0 and NaN at NaN, which _least propagates
    if not _least(out) > -np.inf:
        raise DomainError("Ei(x) has a logarithmic singularity at x = 0 and is undefined at NaN")
    return out


def lower_incomplete_gamma(a: float, x):
    """Lower incomplete gamma gamma(a, x) = integral of e^-t t^(a-1), 0..x.

    The regularized `scipy.special.gammainc` times Gamma(a); x may be an array.
    """
    if not a > 0.0:
        raise DomainError("lower_incomplete_gamma requires a > 0")
    if not _least(x) >= 0.0:
        raise DomainError("lower_incomplete_gamma requires x >= 0")
    return special.gammainc(a, x) * special.gamma(a)


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for x > 0 and any real s.

    s <= 0 arises for r^-a3 with access exponents 2 <= a3 <= 4: E1 at s = 0,
    and the recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x) / s below it
    (one step for s in [-1, 0)).
    """
    if s > 0.0:
        return special.gammaincc(s, x) * special.gamma(s)
    if s == 0.0:
        return special.exp1(x)
    return (upper_incomplete_gamma(s + 1.0, x) - x**s * np.exp(-x)) / s


def power_integral(p: float, a: float, b: float) -> float:
    """Integral of x^p over [a, b], continuous across the p = -1 degeneracy.

    For |p + 1| below the switch threshold the stable limit form
    a^(p+1) * expm1((p+1) ln(b/a)) / (p+1) is used, which tends to ln(b/a).
    """
    if math.isnan(p):
        raise DomainError("power_integral requires a real exponent p")
    if not a > 0.0:
        raise DomainError("power_integral requires 0 < a")
    if not b >= a:
        raise DomainError("power_integral requires a <= b")
    q = p + 1.0
    if q == 0.0:
        return math.log(b / a)
    if abs(q) < _POWER_LIMIT_SWITCH:
        return math.exp(q * math.log(a)) * math.expm1(q * math.log(b / a)) / q
    return (b**q - a**q) / q
