"""Deployment-density optimization under an element budget.

With a fixed number of reflecting elements per unit area (density * array
size = budget), the spatially averaged rate is maximized over the density
alone.  The density derivative of the reduced objective factors into a
strictly positive prefactor exp(-pi lam C^2)/(lam ln 2) times a slope
factor, so the slope factor's sign drives the search.  One exact slope
factor covers all four regimes.  Closed-form roots exist in three special
regimes; everywhere else a scan of the slope factor lists every local
maximum it resolves: each + to - sign change, its root found by false
position in ln lam (`_false_position`), the budget boundary eta, and the
scan floor where the slope is not positive there.  One scalar objective
call scores each, and the best wins (`optimize_density`).  The branch label
`bisection` names the candidate kind, a + to - crossing of the slope, not
the algorithm that finds its root.

One preparation per solve (`_prepare`) checks the element budget and the
regime against rho, and binds the reduced objective and its slope factor as
functions of the density; every evaluation in the solve then checks only the
densities.  A public call given no preparation makes its own.

Which evaluation paths agree bit for bit.  An array call and a scalar call of
numpy's exp, log, log1p, expm1 and log2, and of scipy's gammainc, gave the
same bits on all 20,000 points of a log-uniform test set (1e-6 to 1e2).  So
does `exp_integral_ei`, whose table runs the same coefficients through the
same operations, with numpy's exp and log, on both paths: on the 20,000
points negated, and on 6,300 more from -1e-300 to -760 that include each
table edge and its neighbours.  numpy's array `power` and Python's float `**`
differed in the last bit on 5.3% of the 20,000 points, and the low-SNR
objective uses both, so a solve scores its candidates with scalar calls
only, and reports the score of the same call path a public scalar call
takes.  The `math` functions differ from numpy's (exp on 6.4% of the points,
log1p on 3.5%), so the scalar paths stay on numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, RegimeWarning
from .params import SystemParams
from .phase_error import attenuation_factor
from .spatial_rate import (
    _array_gain,
    _disk_moment,
    _noise_residual,
    _power_per_element,
    annulus_distance_moment,
    expected_log2_d,
)
from .special_math import exp_integral_ei, lower_incomplete_gamma
from .streams import _is_index

_LN2 = math.log(2.0)

#: Scan resolution for bracketing the slope factor's sign changes.
_SCAN_POINTS = 64
_SCAN_FLOOR = 1e-12
#: The scan's exponent steps 0, 1, ..., _SCAN_POINTS - 1 (see `_scan_grid`).
_SCAN_RAMP = np.arange(_SCAN_POINTS, dtype=float)

#: The search for a bracketed root stops once the bracket ratio hi/lo falls
#: below 1 + _BISECT_REL_WIDTH, as bisection did: _LOG_WIDTH is the same stop
#: in t = ln lam.  Bisection reaches it in 33 halvings of a scan bracket, and
#: the false-position search (`_false_position`) takes at most two steps more.
_BISECT_REL_WIDTH = 1e-10
_LOG_WIDTH = math.log1p(_BISECT_REL_WIDTH)

#: A winner within this (relative) of an integer budget quotient is put on
#: it, so the side of a flat maximum the root search ended on cannot move the
#: array size; ten times the search's widest final bracket.
_SNAP_REL = 1e-9

#: A later candidate (slope root, scan floor) displaces an earlier one
#: (the eta boundary first) only if it scores higher by more than this
#: (bps/Hz); smaller wins are rounding noise on a flat maximum.
_REFINE_MIN_GAIN = 1e-9


@dataclass(frozen=True)
class OptimizerRegime:
    """SNR regime ("high" | "low") and phase regime ("bounded" | "random")."""

    snr: str
    phase: str

    def __post_init__(self):
        if self.snr not in ("high", "low"):
            raise DomainError("snr regime must be 'high' or 'low'")
        if self.phase not in ("bounded", "random"):
            raise DomainError("phase regime must be 'bounded' or 'random'")

    @classmethod
    def for_conditions(cls, snr: str, rho: float) -> "OptimizerRegime":
        return cls(snr=snr, phase="random" if rho == 1.0 else "bounded")


@dataclass(frozen=True)
class DeploymentOptimum:
    """Optimal density and array size with the branch that produced them.

    `objective` is the reduced objective at lambda_star (continuous array
    size), and `n_star` the ceiling of the budget quotient eta / lambda_star;
    `d_constant` is the lam/N-independent offset of the regime.
    """

    lambda_star: float
    n_star: int
    objective: float
    # bounded_closed_form | random_closed_form | monotone_boundary | bisection
    # | boundary_eta | scan_floor | grid
    branch: str
    d_constant: float

    def __post_init__(self):
        if not (self.lambda_star > 0 and _is_index(self.n_star, 1)):
            raise DomainError("optimum must have positive density and an integer array size >= 1")


def objective_offset(params: SystemParams, regime: OptimizerRegime) -> float:
    """Density/size-independent constant of the reduced objective (log2 domain).

    High SNR: (a1 - a2)/ln2 * annulus log bracket.  Low SNR: adds the SNR and
    feeder-exponent offsets plus the linearized direct-link correction, whose
    (2 - a1) degeneracy is absorbed by the power-integral limit branch.
    """
    bracket = expected_log2_d(params.d_min, params.d_max)  # already /ln2
    if regime.snr == "high":
        return (params.alpha_direct - params.alpha_bs_ris) * bracket
    direct_moment = annulus_distance_moment(
        -params.alpha_direct, params.d_min, params.d_max
    )
    return (
        math.log2(params.snr_gain * params.beta_ref**2)
        - params.alpha_bs_ris * bracket
        - params.snr_gain * params.beta_ref * direct_moment / _LN2
    )


@dataclass(frozen=True, slots=True)
class _Prepared:
    """One solve's objective offset, and its reduced objective and scaled
    slope factor as functions of the density alone (`_prepare`)."""

    offset: float
    objective: Callable
    slope: Callable


def _prepare(
    eta: float, params: SystemParams, rho: float, regime: OptimizerRegime
) -> _Prepared:
    """Check one solve's inputs and bind its objective and slope factor to them.

    The slope factor is lam ln2 dO/dlam, the objective's derivative scaled by
    lam ln2 (and so by exp(-pi lam C^2) against the prefactor): same sign, safe
    from exp overflow, and exact in every regime.  With x = pi lam C^2,
    N = eta / lam, pe = m^2 N + 1 - m^2, s = a3/2 + 1 and
    L = edge ln2 - a3 ln C,

        x e^-x (L + ln(N pe)) + (1 - e^-x) (a3/2 - 2 + (1 - m^2) / pe)

    plus, at low SNR, the noise residual's share

        k3 (pi lam)^(-a3/2) / (snr beta^2 N pe)
        * (x^s e^-x + (1 - a3/2 + m^2 N / pe) gamma(s, x)).

    m = 0 gives the random-phase forms.  Neither function checks lam; both
    take a scalar or an array.
    Each density-free constant is formed once, with the operations, in the
    order, of the formula written out per call, so values are bit-identical
    to it.  Likewise each evaluation forms pi lam, x = pi lam C^2, -x, e^-x
    and m^2 N + 1 - m^2 once and hands them to the `spatial_rate` cores.
    """
    if regime.phase == "random" and rho != 1.0:
        raise DomainError("random-phase regime requires rho = 1")
    if regime.phase == "bounded" and rho == 1.0:
        raise DomainError("bounded-phase regime requires rho < 1")
    if not 0 < eta < math.inf:
        raise DomainError("element budget must be positive and finite")
    m = attenuation_factor(rho)
    m2 = m * m
    c = params.serve_radius
    beta = params.beta_ref
    a3 = params.alpha_ris_ue
    high = regime.snr == "high"
    offset = objective_offset(params, regime)
    edge = offset + math.log2(beta) if high else offset  # weight of -exp(-pi lam C^2)
    ln_c2 = math.log(c * c)
    ei_coef = -a3 / (2.0 * _LN2)
    # L = edge ln2 - a3 ln C, with ln beta taken directly at high SNR
    log_base = offset * _LN2 + (math.log(beta) if high else 0.0) - a3 * math.log(c)
    coef = a3 / 2.0 - 2.0
    if not high:  # the low-SNR noise residual's constants
        k3 = annulus_distance_moment(params.alpha_bs_ris, params.d_min, params.d_max)
        snr_beta = params.snr_gain * beta
        beta_ln2 = beta * _LN2
        s = a3 / 2.0 + 1.0
        q = 1.0 - a3 / 2.0
        k3_snr = k3 / (params.snr_gain * beta**2)

    def objective(lam):
        pi_lam = np.pi * lam
        x = pi_lam * c * c
        neg_x = -x
        ex = np.exp(neg_x)
        n = eta / lam
        per_element = _power_per_element(n, m2)
        ei_part = exp_integral_ei(neg_x) - ex * ln_c2 - np.log(pi_lam)
        value = ei_coef * ei_part + _array_gain(n, per_element, -np.expm1(neg_x)) - ex * edge
        if high:
            return value
        moment = _disk_moment(a3, pi_lam, x)
        return value + _noise_residual(n, per_element, moment, k3, snr_beta, beta_ln2)

    def slope(lam):
        pi_lam = np.pi * lam
        x = pi_lam * c * c
        neg_x = -x
        ex = np.exp(neg_x)
        n = eta / lam
        per_element = _power_per_element(n, m2)
        log_arg = log_base + np.log(n) + np.log(per_element)
        value = x * ex * log_arg + (coef + (1.0 - m2) / per_element) * -np.expm1(neg_x)
        if high:
            return value
        shape = x**s * ex + (q + m2 * n / per_element) * lower_incomplete_gamma(s, x)
        return value + k3_snr * pi_lam ** -(a3 / 2.0) / (n * per_element) * shape

    return _Prepared(offset, objective, slope)


def deployment_objective(
    lam,
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
    prepared: Optional[_Prepared] = None,
):
    """Reduced objective: the density-dependent part of the spatial rate.

    `lam` may be a scalar or an array of densities in (0, eta].  The array
    size is treated as continuous here; integrality enters only through the
    final ceiling in optimize_density.  `prepared` is
    `_prepare(eta, params, rho, regime)`, built here when not given; the
    optimizer builds it once per solve, and only lam is then checked.
    """
    if prepared is None:
        prepared = _prepare(eta, params, rho, regime)
    if isinstance(lam, float):
        inside = 0.0 < lam <= eta
    else:
        values = np.asarray(lam, dtype=float)
        inside = values.min(initial=np.inf) > 0.0 and values.max(initial=-np.inf) <= eta
    if not inside:  # a NaN fails both comparisons
        lam_flat = np.ravel(lam)
        outside = ~((lam_flat > 0.0) & (lam_flat <= eta))
        raise DomainError(f"lam must lie in (0, eta], got {lam_flat[outside][0]}")
    return prepared.objective(lam)


def objective_slope(
    lam: float,
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
) -> float:
    """Sign-carrier of the objective's density derivative, exact in every
    regime (`_prepare`).

    The derivative equals exp(-pi lam C^2) / (lam ln 2) times this value.
    Raises NumericError once exp(pi*lam*C^2) overflows (pi*lam*C^2 > ~709.8);
    its estimate, copysign(inf, scaled slope), carries the sign only.
    """
    slope = _prepare(eta, params, rho, regime).slope
    if not lam > 0:
        raise DomainError("lam must be positive")
    x = math.pi * lam * params.serve_radius**2
    scaled = slope(lam)
    try:
        return math.exp(x) * scaled
    except OverflowError:
        raise NumericError(
            f"objective slope overflows at pi*lam*C^2={x:.6g}",
            estimate=math.copysign(math.inf, scaled),
        ) from None


def _scan_grid(eta: float) -> np.ndarray:
    """np.geomspace(_SCAN_FLOOR * eta, eta, _SCAN_POINTS), bit for bit.

    The same arithmetic as geomspace's: log10 of both ends, linspace's step
    times the ramp plus the lower exponent, a power of ten, and the exact
    ends (which make linspace's exact last exponent moot).  It skips
    geomspace's generic argument handling, which costs more than the
    arithmetic at this size.
    """
    lo = _SCAN_FLOOR * eta
    log_lo = np.log10(lo)
    exponents = _SCAN_RAMP * ((np.log10(eta) - log_lo) / (_SCAN_POINTS - 1)) + log_lo
    grid = np.power(10.0, exponents)
    grid[0], grid[-1] = lo, eta
    return grid


def _finish(
    lam_star: float,
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
    prepared: _Prepared,
    branch: str,
    objective: Optional[float] = None,
) -> DeploymentOptimum:
    """The optimum at lam_star, and the array size as the ceiling of the
    budget quotient.  `objective` is the value of a scalar objective call at
    lam_star, which this call would repeat bit for bit; without it, one call."""
    # Guard against 45.000000000001-type float noise before ceiling.
    n_star = max(1, math.ceil(eta / lam_star - 1e-12))
    if objective is None:
        objective = float(deployment_objective(lam_star, eta, params, rho, regime, prepared))
    return DeploymentOptimum(
        lambda_star=lam_star,
        n_star=n_star,
        objective=objective,
        branch=branch,
        d_constant=prepared.offset,
    )


def optimize_density(
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
) -> DeploymentOptimum:
    """Maximize the reduced objective over density in (0, eta].

    Dispatch: closed forms where they exist (ideal-exponent bounded branch,
    random-phase branches), otherwise a candidate search on a 64-point log
    scan of the exact slope factor.  Every local maximum the scan resolves
    is a candidate:

    - eta, the budget boundary (branch boundary_eta);
    - each + to - sign change of the slope, its root found by false
      position from the scan's slope values at the bracket ends (branch
      bisection, which names the + to - crossing, not the algorithm);
    - the scan floor _SCAN_FLOOR * eta where the slope there is not
      positive (branch scan_floor, with a RegimeWarning: the objective
      still rises toward zero density, so this is no interior optimum).

    One scalar objective call scores each, in that order, and a later
    candidate displaces the best so far only if it scores higher by more
    than _REFINE_MIN_GAIN.  The winner is put on an integer budget quotient
    within _SNAP_REL of it.  The returned array size is the ceiling of the
    budget quotient.
    """
    prepared = _prepare(eta, params, rho, regime)
    c = params.serve_radius
    beta = params.beta_ref
    offset = prepared.offset
    a3 = params.alpha_ris_ue

    if regime.snr == "high" and regime.phase == "bounded" and a3 == 4.0:
        m = attenuation_factor(rho)
        # lam1 = m * eta * C^-2 * sqrt(2^D beta), evaluated in log space
        lam1 = m * eta / (c * c) * math.exp(0.5 * (offset * _LN2 + math.log(beta)))
        return _finish(min(lam1, eta), eta, params, rho, regime, prepared, "bounded_closed_form")

    if regime.snr == "high" and regime.phase == "random" and a3 == 2.0:
        lam3 = eta / (c * c) * math.exp(offset * _LN2 + math.log(beta))
        return _finish(min(lam3, eta), eta, params, rho, regime, prepared, "random_closed_form")

    if regime.phase == "random" and 2.0 < a3 <= 4.0:
        # Monotone-increase condition: eta >= 2 C^(a3-2) / ((a3-2) pi e beta 2^D)
        log_threshold = (
            math.log(2.0)
            + (a3 - 2.0) * math.log(c)
            - math.log(a3 - 2.0)
            - math.log(math.pi)
            - 1.0
            - math.log(beta)
            - offset * _LN2
        )
        if regime.snr == "high" and math.log(eta) >= log_threshold:
            return _finish(eta, eta, params, rho, regime, prepared, "monotone_boundary")

    # Numerical branch.  Every objective call goes through the module global,
    # so a substitute or the benchmark tracer sees it, and passes the solve's
    # preparation.
    def fobj(lam):
        return float(deployment_objective(lam, eta, params, rho, regime, prepared))

    grid = _scan_grid(eta)
    signs = prepared.slope(grid)
    candidates = [
        (_false_position(prepared.slope, grid[k], grid[k + 1], signs[k], signs[k + 1], eta), "bisection")
        for k in np.flatnonzero((signs[:-1] > 0) & (signs[1:] <= 0)).tolist()
    ]
    if signs[0] <= 0:
        candidates.append((float(grid[0]), "scan_floor"))
    lam_star, f_star, branch = eta, fobj(eta), "boundary_eta"
    for lam, name in candidates:
        score = fobj(lam)
        if score > f_star + _REFINE_MIN_GAIN:
            lam_star, f_star, branch = lam, score, name
    n_near = round(eta / lam_star)
    if 0.0 < abs(eta / lam_star - n_near) <= _SNAP_REL * n_near:
        lam_star, f_star = eta / n_near, None  # _finish scores it
    if branch == "scan_floor":
        warnings.warn(
            f"lam={lam_star:.3g} is the scan floor {_SCAN_FLOOR:g} * eta: the objective "
            "still rises toward zero density there, so no interior optimum was found "
            "(is the SNR regime right for this link?)",
            RegimeWarning,
            stacklevel=2,
        )
    return _finish(lam_star, eta, params, rho, regime, prepared, branch, f_star)


def _false_position(
    slope, lo: float, hi: float, slope_lo: float, slope_hi: float, eta: float
) -> float:
    """The root of `slope` in [lo, hi], where it goes from + (slope_lo, its
    value at lo) to - (slope_hi <= 0, its value at hi); at most eta.

    Anderson-Bjorck false position (BIT 13, 1973) on t = ln lam.  Each step
    puts the root where the line through the two ends crosses zero, and
    replaces the end whose slope has the new point's sign, so the bracket
    keeps + at its left end and - at its right, as bisection's does, and
    ends on a + to - crossing.  When one end moves twice in a row, the value
    held for the other end is scaled by m = 1 - f_new / f_old (by 0.5 where
    that is not positive), so the stale end moves too.  Two guards bound the
    step:

    - it lands at least half the stopping width inside the bracket, so a
      root at one end closes the bracket on the next step;
    - it lands where, whichever end moves, the bracket left could still be
      halved below the stopping width in the steps that remain of
      bisection's count plus two.  So no root costs more slope calls than
      bisection's plus two.

    A zero counts as -, as in the scan.  The search stops at bisection's
    width, _BISECT_REL_WIDTH, and returns the geometric midpoint.
    """
    a, b = math.log(lo), math.log(hi)
    fa, fb = float(slope_lo), float(slope_hi)
    # bisection's step count: (b - a) / 2^n < _LOG_WIDTH <= (b - a) / 2^(n - 1)
    steps = math.frexp((b - a) / _LOG_WIDTH)[1] + 2
    # after each step the bracket is at most cap, which the steps left can
    # still halve below _LOG_WIDTH
    cap = math.ldexp(_LOG_WIDTH, steps)
    inset = 0.5 * _LOG_WIDTH
    moved = 0  # +1 after a step that moved a, -1 after one that moved b
    for _ in range(steps):
        cap *= 0.5
        t = b - fb * (b - a) / (fb - fa)
        t = min(max(t, a + inset, b - cap), b - inset, a + cap)
        f = float(slope(math.exp(t)))
        if f > 0:
            if moved > 0:
                m = 1.0 - f / fa
                fb *= m if m > 0 else 0.5
            a, fa, moved = t, f, 1
        else:
            if moved < 0:
                m = 1.0 - f / fb if fb else 0.5
                fa *= m if m > 0 else 0.5
            b, fb, moved = t, f, -1
        if b - a < _LOG_WIDTH:
            break
    return min(math.exp(0.5 * (a + b)), eta)


def grid_search_oracle(
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
    n_max: int,
) -> DeploymentOptimum:
    """Exhaustive maximization over integer array sizes 1..n_max.

    Independent of the dispatch logic above; one objective evaluation over
    all sizes, and ties break toward the smallest array size (np.argmax
    returns the first maximum).
    """
    if not _is_index(n_max, 1):
        raise DomainError("n_max must be an integer >= 1")
    prepared = _prepare(eta, params, rho, regime)
    fvals = deployment_objective(eta / np.arange(1, n_max + 1), eta, params, rho, regime, prepared)
    best_n = int(np.argmax(fvals)) + 1
    return DeploymentOptimum(
        lambda_star=eta / best_n,
        n_star=best_n,
        objective=float(fvals[best_n - 1]),
        branch="grid",
        d_constant=prepared.offset,
    )
