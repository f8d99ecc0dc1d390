"""Fixed two-order Gauss-Legendre rules for smooth integrals.

A `Rule` holds two orders of a product Gauss-Legendre rule as one point set;
the finer order is the value and the two orders' difference its error bound.
`quad(func, a, b)` is the 1-D rule at 24 and 32 nodes and returns the same
(value, error) pair as `scipy.integrate.quad` for the integrals the package
needs.  Nodes come from numpy, so neither `scipy.integrate` nor
`scipy.linalg` is loaded.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss


class Rule:
    """Two orders of a product Gauss-Legendre rule on [-1, 1]^k.

    `coarse` and `fine` give the node count per axis.  The points are the
    coarse order's, then the fine order's, each with its first axis slowest.
    `nodes[i]` holds axis i's distinct nodes (coarse, then fine) and
    `index[i]` each point's position among them, so a factor of one axis can
    be formed on its distinct nodes and indexed out to the points; `weight`
    is each point's product weight.
    """

    def __init__(self, coarse: tuple[int, ...], fine: tuple[int, ...]):
        axes = [[np.concatenate(v) for v in zip(leggauss(c), leggauss(f))] for c, f in zip(coarse, fine)]
        grids = [np.indices(order).reshape(len(order), -1) for order in (coarse, fine)]
        self.nodes = [x for x, _ in axes]
        self.index = np.concatenate([grids[0], grids[1] + np.array(coarse)[:, None]], axis=1)
        self.weight = np.prod([w[i] for (_, w), i in zip(axes, self.index)], axis=0)
        self._split = grids[0].shape[1]

    def split(self, f):
        """Reduce weighted values on the points (last axis) to
        (finer order, |finer - coarser|)."""
        coarse = f[..., : self._split].sum(axis=-1)
        fine = f[..., self._split :].sum(axis=-1)
        return fine, np.abs(fine - coarse)


_QUAD = Rule((24,), (32,))


def quad(func, a: float, b: float) -> tuple[float, float]:
    """Integral of the vectorized `func` over [a, b]: (finer order, |finer - coarser|).

    `func` is called once, on the nodes of both orders.
    """
    half = 0.5 * (b - a)
    # in 1-D the distinct nodes are the points, in order
    fine, error = _QUAD.split(func(0.5 * (a + b) + half * _QUAD.nodes[0]) * _QUAD.weight)
    return float(half * fine), float(half * error)
