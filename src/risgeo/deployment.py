"""Deployment-density optimization under an element budget.

With a fixed number of reflecting elements per unit area (density * array
size = budget), the spatially averaged rate is maximized over the density
alone.  The density derivative of the reduced objective factors into a
strictly positive prefactor exp(-pi lam C^2)/(lam ln 2) times a slope
factor, so the slope factor's sign drives the search.  Closed-form roots
exist in three special regimes; everywhere else a scan-and-bisect on the
slope factor is used, guarded by a direct scan of the objective itself and
by the budget boundary, because outside its derivation regime the objective
can be bimodal.

One preparation per solve (`_prepare`) checks the element budget and the
regime against rho, and binds the reduced objective and its slope factor as
functions of the density; every evaluation in the solve then checks only the
densities.  A public call given no preparation makes its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, RegimeWarning
from .params import SystemParams
from .phase_error import LARGE_ARRAY_MARGIN, attenuation_factor, crossover_size
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

#: Scan resolution for bracketing the root of J.
_SCAN_POINTS = 64
_SCAN_FLOOR = 1e-12

#: Bisection of the bracketed root stops after this many halvings, or once
#: the bracket ratio hi/lo falls below 1 + _BISECT_REL_WIDTH.
_BISECT_MAX_STEPS = 500
_BISECT_REL_WIDTH = 1e-10

#: The zoom refining the objective scan's argmax rescans 64 log-spaced points
#: per round until hi/lo < 1 + _ZOOM_REL_WIDTH, about sqrt(machine eps): no
#: finer location of a flat maximum survives rounding.
_ZOOM_STEPS = np.linspace(0.0, 1.0, _SCAN_POINTS)
_ZOOM_REL_WIDTH = 1e-8

#: Rounding leaves a flat maximum up to ~1e-7 (relative) to either side of
#: the true one; a zoom result this close to an integer budget quotient is put
#: on it, so the side it fell on cannot move the array size.
_ZOOM_SNAP_REL = 1e-6

#: A later candidate (eta boundary, bisected root, zoom refinement) displaces
#: an earlier one only if it scores higher by more than this (bps/Hz); smaller
#: wins are rounding noise on a flat maximum.
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
    branch: str  # bounded_closed_form | random_closed_form | monotone_boundary | bisection | boundary_eta | grid
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

    The slope factor is scaled by exp(-pi lam C^2): same sign, safe from exp
    overflow.  Neither function checks lam; both take a scalar or an array.
    Each density-free constant is formed once, with the operations, in the
    order, of the formula written out per call, so values are bit-identical
    to it.  Likewise each evaluation forms pi lam, x = pi lam C^2, -x, e^-x
    and m^2 N + 1 - m^2 once and hands them to the `spatial_rate` cores.
    """
    if regime.phase == "random" and rho != 1.0:
        raise DomainError("random-phase regime requires rho = 1")
    if regime.phase == "bounded" and rho == 1.0:
        raise DomainError("bounded-phase regime requires rho < 1")
    if not eta > 0:
        raise DomainError("element budget must be positive")
    m = attenuation_factor(rho)
    m2 = m * m
    c = params.serve_radius
    beta = params.beta_ref
    a3 = params.alpha_ris_ue
    high, random = regime.snr == "high", regime.phase == "random"
    offset = objective_offset(params, regime)
    edge = offset + math.log2(beta) if high else offset  # weight of -exp(-pi lam C^2)
    ln_c2 = math.log(c * c)
    ei_coef = -a3 / (2.0 * _LN2)
    coef = a3 / 2.0 - 1.0 if random else a3 / 2.0 - 2.0
    # the low-SNR noise residual's constants
    k3 = annulus_distance_moment(params.alpha_bs_ris, params.d_min, params.d_max)
    snr_beta = params.snr_gain * beta
    beta_ln2 = beta * _LN2

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

    if high:
        log_base = offset * _LN2 + math.log(beta) - a3 * math.log(c)

        def slope(lam):
            x = np.pi * lam * c * c
            neg_x = -x
            n = eta / lam
            # log argument: 2^D * beta * C^-a3 * N * (m^2 N + 1 - m^2), in log space
            log_arg = log_base + np.log(n)
            scale = coef  # random: m = 0 collapses the bounded form to this
            if not random:
                per_element = _power_per_element(n, m2)
                log_arg += np.log(per_element)
                scale = coef + (1.0 - m2) / per_element
            return x * np.exp(neg_x) * log_arg + scale * -np.expm1(neg_x)

        return _Prepared(offset, objective, slope)

    log_base = offset * _LN2 - a3 * math.log(c)
    s = a3 / 2.0 + 1.0
    snr_beta_sq = params.snr_gain * beta**2
    if random:
        q = 1.0 - a3 / 2.0
        extra_denom = snr_beta_sq * math.pi ** (a3 / 2.0) * eta
    else:
        q = 2.0 - a3 / 2.0
        extra_denom = snr_beta_sq * math.pi ** (a3 / 2.0) * m * m * eta**2

    def slope(lam):
        x = np.pi * lam * c * c
        neg_x = -x
        n = eta / lam
        ex = np.exp(neg_x)
        gam = lower_incomplete_gamma(s, x)
        log_arg = log_base + np.log(n if random else m2 * n * n)
        extra = (x**s * ex + q * gam) * k3 * lam**q / extra_denom
        return x * ex * log_arg + coef * -np.expm1(neg_x) + extra

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
    """Sign-carrier of the objective's density derivative.

    The derivative equals exp(-pi lam C^2) / (lam ln 2) times this value.

    Exact for both high-SNR branches and the low-SNR random branch; the
    low-SNR bounded branch assumes an array size eta / lam well above the
    crossover size (`phase_error.crossover_size`), and both bounded branches
    warn (RegimeWarning) below that.  Raises NumericError once
    exp(pi*lam*C^2) overflows (pi*lam*C^2 > ~709.8); its estimate,
    copysign(inf, scaled slope), carries the sign only.
    """
    slope = _prepare(eta, params, rho, regime).slope
    if not lam > 0:
        raise DomainError("lam must be positive")
    if regime.phase == "bounded":
        # the array size eta / lam must sit well above the crossover size
        cap = eta / (LARGE_ARRAY_MARGIN * crossover_size(rho))
        if lam > cap:
            warnings.warn(
                f"lam={lam:.3g} outside the bounded-branch regime "
                f"(lam <= {cap:.3g}); slope is a regime approximation there",
                RegimeWarning,
                stacklevel=2,
            )
    x = math.pi * lam * params.serve_radius**2
    scaled = slope(lam)
    try:
        return math.exp(x) * scaled
    except OverflowError:
        raise NumericError(
            f"objective slope overflows at pi*lam*C^2={x:.6g}",
            estimate=math.copysign(math.inf, scaled),
        ) from None


def _zoom_max(f, grid: np.ndarray, fvals: np.ndarray) -> tuple[float, float]:
    """(lam, f(lam)) at the argmax of a log-spaced scan, refined by rescanning
    between the argmax's neighbours with one array call of f per round."""
    k = int(np.argmax(fvals))
    while True:
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        if hi / lo < 1.0 + _ZOOM_REL_WIDTH:
            return float(grid[k]), float(fvals[k])
        grid = lo * (hi / lo) ** _ZOOM_STEPS
        grid[0], grid[-1] = lo, hi  # exact ends: no point may pass eta
        fvals = f(grid)
        k = int(np.argmax(fvals))


def _finish(
    lam_star: float,
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
    prepared: _Prepared,
    branch: str,
) -> DeploymentOptimum:
    """The optimum at lam_star: one objective call, and the array size as the
    ceiling of the budget quotient."""
    # Guard against 45.000000000001-type float noise before ceiling.
    n_star = max(1, math.ceil(eta / lam_star - 1e-12))
    return DeploymentOptimum(
        lambda_star=lam_star,
        n_star=n_star,
        objective=float(deployment_objective(lam_star, eta, params, rho, regime, prepared)),
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
    random-phase branches), otherwise a 64-point log scan of the slope
    factor bisected at its first sign change, cross-checked against the eta
    boundary and a direct scan of the objective, whose argmax is refined by
    zooming in with one array call per round and put on an integer budget
    quotient within the zoom's resolution of it.  The returned array size is
    the ceiling of the budget quotient.
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

    # Numerical branch: scan, bisect the first sign change of the slope, and guard
    # with a direct objective scan plus the eta boundary (the single-crossing
    # structure can fail outside the closed-form derivation regimes).  Every
    # objective call goes through the module global, so a substitute or the
    # benchmark tracer sees it, and passes the solve's preparation.
    def fobj(lam):
        return deployment_objective(lam, eta, params, rho, regime, prepared)

    grid = np.geomspace(_SCAN_FLOOR * eta, eta, _SCAN_POINTS)
    signs = prepared.slope(grid)
    fvals = fobj(grid)

    root = None
    crossings = np.nonzero((signs[:-1] > 0) & (signs[1:] <= 0))[0]
    if crossings.size:
        lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
        for _ in range(_BISECT_MAX_STEPS):
            mid = math.sqrt(lo * hi)
            if prepared.slope(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi / lo < 1.0 + _BISECT_REL_WIDTH:
                break
        root = min(math.sqrt(lo * hi), eta)
    refined, f_refined = _zoom_max(fobj, grid, fvals)
    n_near = round(eta / refined)
    if 0.0 < abs(eta / refined - n_near) <= _ZOOM_SNAP_REL * n_near:
        refined = eta / n_near
        f_refined = float(fobj(refined))
    f_root = -math.inf if root is None else float(fobj(root))
    if f_refined > f_root + _REFINE_MIN_GAIN:
        root, f_root = refined, f_refined
    if f_root > fvals[-1] + _REFINE_MIN_GAIN:  # the scan ends at eta itself
        return _finish(root, eta, params, rho, regime, prepared, "bisection")
    return _finish(eta, eta, params, rho, regime, prepared, "boundary_eta")


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
