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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeWarning
from .params import SystemParams
from .phase_error import attenuation_factor
from .spatial_rate import (
    annulus_distance_moment,
    annulus_moment,
    array_gain_term,
    expected_log2_d,
    noise_residual_term,
)
from .special_math import exp_integral_ei, lower_incomplete_gamma

_LN2 = math.log(2.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Bounded-error branches drop a term that is small only when
#: lam << attenuation^2 * budget / (1 - attenuation^2); flag beyond this fraction.
_BOUNDED_REGIME_FRACTION = 0.1

#: Scan resolution for bracketing the root of J.
_SCAN_POINTS = 64
_SCAN_FLOOR = 1e-12

#: Bisection of the bracketed root stops after this many halvings, or once
#: the bracket ratio hi/lo falls below 1 + _BISECT_REL_WIDTH.
_BISECT_MAX_STEPS = 500
_BISECT_REL_WIDTH = 1e-10

#: The golden-section refinement of the objective scan replaces the bisected
#: root only if it scores higher by more than this (bps/Hz); on a flat maximum
#: it locates lambda* only to about sqrt(machine eps), so smaller wins are
#: rounding noise.
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


def _check_regime(regime: OptimizerRegime, rho: float) -> None:
    if regime.phase == "random" and rho != 1.0:
        raise DomainError("random-phase regime requires rho = 1")
    if regime.phase == "bounded" and rho == 1.0:
        raise DomainError("bounded-phase regime requires rho < 1")


@dataclass(frozen=True)
class DeploymentOptimum:
    """Optimal density and array size with the branch that produced them.

    `objective` is the reduced objective at lambda_star (continuous array
    size); `d_constant` is the lam/N-independent offset of the regime.
    `floor_scores_higher` diagnoses when rounding the budget quotient down
    instead of up would have scored better.
    """

    lambda_star: float
    n_star: int
    objective: float
    branch: str  # bounded_closed_form | random_closed_form | monotone_boundary | bisection | boundary_eta | grid
    d_constant: float
    floor_scores_higher: bool = False

    def __post_init__(self):
        if self.lambda_star <= 0 or self.n_star < 1:
            raise DomainError("optimum must have positive density and array size")


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


def deployment_objective(
    lam,
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
):
    """Reduced objective: the density-dependent part of the spatial rate.

    `lam` may be a scalar or an array of densities in (0, eta].  The array
    size is treated as continuous here; integrality enters only through the
    final ceiling in optimize_density.
    """
    _check_regime(regime, rho)
    if eta <= 0:
        raise DomainError("element budget must be positive")
    lam_flat = np.ravel(lam)
    outside = ~((lam_flat > 0.0) & (lam_flat <= eta))
    if outside.any():
        raise DomainError(f"lam must lie in (0, eta], got {lam_flat[outside][0]}")
    c = params.serve_radius
    x = np.pi * lam * c * c
    n = eta / lam
    ei_part = (
        exp_integral_ei(-x)
        - np.exp(-x) * math.log(c * c)
        - np.log(np.pi * lam)
    )
    offset = objective_offset(params, regime)
    h = array_gain_term(n, rho, lam, c)
    common = -params.alpha_ris_ue / (2.0 * _LN2) * ei_part + h
    if regime.snr == "high":
        return common - np.exp(-x) * (offset + math.log2(params.beta_ref))
    return common - np.exp(-x) * offset + noise_residual_term(n, rho, lam, params)


def _slope_scaled(
    lam,
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
):
    """Slope factor scaled by exp(-pi lam C^2): same sign, safe from exp overflow.

    `lam` may be a scalar or an array.
    """
    m = attenuation_factor(rho)
    c = params.serve_radius
    a3 = params.alpha_ris_ue
    x = np.pi * lam * c * c
    ex = np.exp(-x)
    grow = -np.expm1(-x)  # 1 - e^{-x}
    offset = objective_offset(params, regime)
    n = eta / lam
    if regime.snr == "high":
        # log argument: 2^D * beta * C^-a3 * N * (m^2 N + 1 - m^2), in log space
        log_arg = offset * _LN2 + math.log(params.beta_ref) - a3 * math.log(c) + np.log(n)
        if regime.phase == "random":
            coef = a3 / 2.0 - 1.0  # m = 0 collapses the bounded form to this
        else:
            log_arg += np.log(m * m * n + 1.0 - m * m)
            coef = a3 / 2.0 - 2.0 + (1.0 - m * m) / (m * m * n + 1.0 - m * m)
        return x * ex * log_arg + coef * grow
    k3 = annulus_moment(3, params)
    gam = lower_incomplete_gamma(a3 / 2.0 + 1.0, x)
    snr_beta_sq = params.snr_gain * params.beta_ref**2
    if regime.phase == "random":
        log_arg = offset * _LN2 - a3 * math.log(c) + np.log(n)
        coef = a3 / 2.0 - 1.0
        extra = (
            (x ** (a3 / 2.0 + 1.0) * ex + (1.0 - a3 / 2.0) * gam)
            * k3
            * lam ** (1.0 - a3 / 2.0)
            / (snr_beta_sq * math.pi ** (a3 / 2.0) * eta)
        )
    else:
        log_arg = offset * _LN2 - a3 * math.log(c) + np.log(m * m * n * n)
        coef = a3 / 2.0 - 2.0
        extra = (
            (x ** (a3 / 2.0 + 1.0) * ex + (2.0 - a3 / 2.0) * gam)
            * k3
            * lam ** (2.0 - a3 / 2.0)
            / (snr_beta_sq * math.pi ** (a3 / 2.0) * m * m * eta**2)
        )
    return x * ex * log_arg + coef * grow + extra


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
    low-SNR bounded branch assumes a moderate-to-large array (lam well below
    attenuation^2 * eta).  May overflow to inf for extreme pi*lam*C^2; use
    the sign only in that case.
    """
    _check_regime(regime, rho)
    if lam <= 0 or eta <= 0:
        raise DomainError("lam and eta must be positive")
    if regime.phase == "bounded":
        m = attenuation_factor(rho)
        cap = _BOUNDED_REGIME_FRACTION * m * m * eta / max(1.0 - m * m, 1e-300)
        if lam > cap:
            warnings.warn(
                f"lam={lam:.3g} outside the bounded-branch regime "
                f"(lam <= {cap:.3g}); slope is a regime approximation there",
                RegimeWarning,
                stacklevel=2,
            )
    x = math.pi * lam * params.serve_radius**2
    return math.exp(x) * _slope_scaled(lam, eta, params, rho, regime)


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> float:
    # Golden-section maximization on a log axis.
    a, b = math.log(lo), math.log(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(math.exp(d))
    return math.exp(0.5 * (a + b))


def _ceil_quotient(eta: float, lam: float) -> int:
    # Guard against 45.000000000001-type float noise before ceiling.
    q = eta / lam
    return max(1, math.ceil(q - 1e-12))


def _finish(
    lam_star: float,
    eta: float,
    params: SystemParams,
    rho: float,
    regime: OptimizerRegime,
    branch: str,
) -> DeploymentOptimum:
    n_star = _ceil_quotient(eta, lam_star)
    floor_n = max(1, n_star - 1)
    floor_better = False
    if floor_n != n_star:
        f_ceil = deployment_objective(eta / n_star, eta, params, rho, regime)
        f_floor = deployment_objective(eta / floor_n, eta, params, rho, regime)
        floor_better = bool(f_floor > f_ceil)
    return DeploymentOptimum(
        lambda_star=lam_star,
        n_star=n_star,
        objective=float(deployment_objective(lam_star, eta, params, rho, regime)),
        branch=branch,
        d_constant=objective_offset(params, regime),
        floor_scores_higher=floor_better,
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
    factor bisected at its first sign change, cross-checked against a direct
    scan of the objective and the eta boundary.  The returned array size is
    the ceiling of the budget quotient.
    """
    _check_regime(regime, rho)
    if eta <= 0:
        raise DomainError("element budget must be positive")
    c = params.serve_radius
    beta = params.beta_ref
    offset = objective_offset(params, regime)
    a3 = params.alpha_ris_ue

    if regime.snr == "high" and regime.phase == "bounded" and a3 == 4.0:
        m = attenuation_factor(rho)
        # lam1 = m * eta * C^-2 * sqrt(2^D beta), evaluated in log space
        lam1 = m * eta / (c * c) * math.exp(0.5 * (offset * _LN2 + math.log(beta)))
        return _finish(min(lam1, eta), eta, params, rho, regime, "bounded_closed_form")

    if regime.snr == "high" and regime.phase == "random" and a3 == 2.0:
        lam3 = eta / (c * c) * math.exp(offset * _LN2 + math.log(beta))
        return _finish(min(lam3, eta), eta, params, rho, regime, "random_closed_form")

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
            return _finish(eta, eta, params, rho, regime, "monotone_boundary")

    # Numerical branch: scan, bisect the first sign change of the slope, and guard
    # with a direct objective scan plus the eta boundary (the single-crossing
    # structure can fail outside the closed-form derivation regimes).
    def fobj(lam):
        return deployment_objective(lam, eta, params, rho, regime)

    def jsc(lam):
        return _slope_scaled(lam, eta, params, rho, regime)

    grid = np.geomspace(_SCAN_FLOOR * eta, eta, _SCAN_POINTS)
    signs = jsc(grid)
    fvals = fobj(grid)

    candidates = {"boundary_eta": eta}
    crossings = np.nonzero((signs[:-1] > 0) & (signs[1:] <= 0))[0]
    if crossings.size:
        lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
        for _ in range(_BISECT_MAX_STEPS):
            mid = math.sqrt(lo * hi)
            if jsc(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi / lo < 1.0 + _BISECT_REL_WIDTH:
                break
        candidates["bisection"] = min(math.sqrt(lo * hi), eta)
    k = int(np.argmax(fvals))
    scan_lo = grid[max(k - 1, 0)]
    scan_hi = grid[min(k + 1, len(grid) - 1)]
    # clamp: exp/log round-tripping at the eta edge can exceed it by 1 ulp
    refined = min(_golden_max(lambda l: fobj(min(l, eta)), scan_lo, scan_hi), eta)
    root = candidates.get("bisection")
    if root is None or fobj(refined) > fobj(root) + _REFINE_MIN_GAIN:
        candidates["bisection"] = refined

    branch, lam_star = max(candidates.items(), key=lambda kv: fobj(kv[1]))
    return _finish(lam_star, eta, params, rho, regime, branch)


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
    _check_regime(regime, rho)
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    fvals = deployment_objective(eta / np.arange(1, n_max + 1), eta, params, rho, regime)
    best_n = int(np.argmax(fvals)) + 1
    return DeploymentOptimum(
        lambda_star=eta / best_n,
        n_star=best_n,
        objective=float(fvals[best_n - 1]),
        branch="grid",
        d_constant=objective_offset(params, regime),
    )
