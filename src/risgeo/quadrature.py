"""Fixed two-order Gauss-Legendre rule for smooth 1-D integrals.

`quad(func, a, b)` returns the same (value, error) pair as
`scipy.integrate.quad` for the integrals the package needs, without loading
`scipy.integrate` (and with it `scipy.optimize` and `scipy.linalg`).
"""

from __future__ import annotations

import numpy as np
from scipy import special

#: The two orders; the finer is the value, their difference the error.
ORDERS = (24, 32)
_X, _W = (np.concatenate(parts) for parts in zip(*(special.roots_legendre(n) for n in ORDERS)))
_SPLIT = ORDERS[0]


def quad(func, a: float, b: float) -> tuple[float, float]:
    """Integral of the vectorized `func` over [a, b]: (finer order, |finer - coarser|).

    `func` is called once, on the nodes of both orders.
    """
    half = 0.5 * (b - a)
    f = func(0.5 * (a + b) + half * _X) * _W
    coarse, fine = half * f[:_SPLIT].sum(), half * f[_SPLIT:].sum()
    return float(fine), float(abs(fine - coarse))
