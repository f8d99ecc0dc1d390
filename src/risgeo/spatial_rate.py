"""Rate averaged over random reflector positions and user cell-edge position.

Reflectors form a homogeneous Poisson process of density `lam`; the user
associates with the nearest one within the serving radius C and falls back to
the direct link otherwise.  Averaging the fixed-geometry rate bounds over the
nearest-reflector distance (Rayleigh-type density 2 pi lam r exp(-pi lam r^2))
and the annulus position density f_d ~ d gives

  * an exact integral form (all SNRs, 2-D quadrature for the residual term),
    the reference, and
  * one closed form, an upper bound on it at every SNR,

each reported as a component breakdown that re-sums to the total.

On a served disk r <= R the rate splits exactly as log2(snr A) + log2(1 + y),
with A = beta^2 d^-a2 r^-a3 N (m^2 N + 1 - m^2) the array-gain SNR and y the
cascaded-link and noise residual.  The first piece has an exact closed form.
The closed form bounds the second by Jensen's inequality,
P log2(1 + E{y ; r <= R} / P) with P = P(r <= R), which needs only the gamma
moments of r; the paper's linearization E{y ; r <= R} / ln 2 is larger still
and stays available as `cascade_residual_term` / `noise_residual_term`.  The
direct branch is bounded the same way, (1 - P) log2(1 + snr beta E{d^-a1}).

Where snr A is small the log split is loose, so the closed form cuts the
serving disk at r0 = min(C, (snr beta^2 E{d^-a2} N (m^2 N + 1 - m^2))^(1/a3)),
the radius where the mean array-gain SNR crosses 1.  Inside r0 the log split
is kept; on r0 < r <= C Jensen bounds the whole rate.  Every piece is an
upper bound for any r0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import integrate, special

from .errors import DomainError, NumericError
from .params import DeploymentParams, SystemParams
from .phase_error import attenuation_factor
from .special_math import (
    euler_constant,
    exp_integral_ei,
    lower_incomplete_gamma,
    power_integral,
)

_LN2 = math.log(2.0)

#: Soft-precondition thresholds for the closed form.
_LOW_SNR_EDGE_MAX = 0.5     # direct-link SNR at the near annulus edge
_MIN_CLOSED_FORM_N = 8      # "moderate-to-large" array size

#: Absolute and relative targets of the exact form's quadratures.
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-10


def nearest_ris_pdf(lam: float, r: float) -> float:
    """Density of the nearest-reflector distance: 2 pi lam r exp(-pi lam r^2)."""
    if lam <= 0:
        raise DomainError("density must be positive")
    if r < 0:
        raise DomainError("distance must be nonnegative")
    return 2.0 * math.pi * lam * r * math.exp(-math.pi * lam * r * r)


def association_probability(lam, serve_radius: float):
    """Probability that the nearest reflector lies within the serving radius.

    `lam` may be an array of densities.
    """
    if np.any(np.asarray(lam) <= 0):
        raise DomainError("density must be positive")
    if serve_radius < 0:
        raise DomainError("serve_radius must be nonnegative")
    return -np.expm1(-np.pi * lam * serve_radius * serve_radius)


def expected_log2_d(d_min: float, d_max: float) -> float:
    """E{log2 d} for d drawn from the annulus density f_d = 2d/(d_max^2-d_min^2)."""
    if not 0 < d_min < d_max:
        raise DomainError("requires 0 < d_min < d_max")
    bracket = (
        (d_max**2 * math.log(d_max) - d_min**2 * math.log(d_min))
        / (d_max**2 - d_min**2)
        - 0.5
    )
    return bracket / _LN2


def expected_log2_r_truncated(lam: float, serve_radius: float) -> float:
    """Partial expectation E{log2 r ; r <= C} under the nearest-distance density.

    This is the integral over [0, C] only (weighted by the association
    probability), not the conditional expectation.
    """
    if lam <= 0 or serve_radius <= 0:
        raise DomainError("density and radius must be positive")
    x = math.pi * lam * serve_radius * serve_radius
    bracket = (
        exp_integral_ei(-x)
        - math.exp(-x) * math.log(serve_radius**2)
        - math.log(math.pi * lam)
        - euler_constant()
    )
    return bracket / (2.0 * _LN2)


def annulus_distance_moment(p: float, d_min: float, d_max: float) -> float:
    """E{d^p} over the annulus density, continuous in p across degeneracies."""
    if not 0 < d_min < d_max:
        raise DomainError("requires 0 < d_min < d_max")
    return 2.0 * power_integral(p + 1.0, d_min, d_max) / (d_max**2 - d_min**2)


def annulus_moment(which: int, params: SystemParams) -> float:
    """The three annulus distance constants of the closed forms.

    which=1: E{d^((a2-a1)/2)}, which=2: E{d^(a2-a1)}, which=3: E{d^a2};
    degenerate exponents are handled by the log-limit branch of the power
    integral.
    """
    exponents = {
        1: (params.alpha_bs_ris - params.alpha_direct) / 2.0,
        2: params.alpha_bs_ris - params.alpha_direct,
        3: params.alpha_bs_ris,
    }
    if which not in exponents:
        raise DomainError("which must be 1, 2 or 3")
    return annulus_distance_moment(exponents[which], params.d_min, params.d_max)


@dataclass(frozen=True)
class SpatialRateBreakdown:
    """Spatially averaged rate with its labeled components (all bps/Hz).

    total = baseline_term + h_term + g_bar_term + (g_bar_low_term or 0)
            + direct_term.

    The first three terms cover the disk r <= R on which the served rate is
    split as log2(snr A) + log2(1 + y); R = C for the integral form and
    R = r0 for the closed form (see the module docstring).

    * baseline_term: E{log2(snr beta^2 d^-a2 r^-a3) ; r <= R}, the SNR and
      geometry offset weighted by the disk mass P(r <= R).
    * h_term: the array gain P(r <= R) log2(N (m^2 N + 1 - m^2)).
    * g_bar_term: the residual E{log2(1 + y) ; r <= R}; exact quadrature with
      the noise term for the integral form, the Jensen bound without the
      noise term for the closed form.
    * g_bar_low_term: None for the integral form.  For the closed form, what
      the noise term adds to the Jensen residual on r <= r0, plus the Jensen
      bound on the whole served rate over r0 < r <= C; always positive.
    * direct_term: users served by the direct link only (r > C); exact for
      the integral form, the Jensen bound for the closed form.
    """

    total: float
    assoc_probability: float
    h_term: float
    g_bar_term: float
    direct_term: float
    baseline_term: float
    g_bar_low_term: Optional[float] = None
    method: str = "closed_form"
    warning: Optional[str] = None

    def component_sum(self) -> float:
        low = self.g_bar_low_term if self.g_bar_low_term is not None else 0.0
        return self.baseline_term + self.h_term + self.g_bar_term + low + self.direct_term


def _upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for x > 0 and any real s.

    s <= 0 arises for r^-a3 with access exponents 2 <= a3 <= 4: E1 at s = 0,
    and the recurrence Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x) / s below it
    (one step for s in [-1, 0)).
    """
    if s > 0.0:
        return special.gammaincc(s, x) * special.gamma(s)
    if s == 0.0:
        return special.exp1(x)
    return (_upper_gamma(s + 1.0, x) - x**s * np.exp(-x)) / s


def _radial_moment(p: float, lam, inner: float, outer: float):
    """Partial moment E{r^p ; inner < r <= outer} of the nearest-reflector distance.

    Equals [Gamma(p/2+1, pi lam inner^2) - Gamma(p/2+1, pi lam outer^2)]
    / (pi lam)^(p/2); on a disk (inner = 0) the lower incomplete gamma
    gamma(p/2+1, pi lam outer^2) is used, which requires p > -2.  `lam` may
    be an array.
    """
    s = p / 2.0 + 1.0
    x_outer = np.pi * lam * outer * outer
    if inner == 0.0:
        gam = lower_incomplete_gamma(s, x_outer)
    else:
        gam = _upper_gamma(s, np.pi * lam * inner * inner) - _upper_gamma(s, x_outer)
    return gam / (np.pi * lam) ** (p / 2.0)


def array_gain_term(n_elements, rho: float, lam, serve_radius: float):
    """Association-weighted array gain: P(served) * log2(N (m^2 N + 1 - m^2)).

    `n_elements` and `lam` may be arrays of matching shape.
    """
    m = attenuation_factor(rho)
    n = n_elements
    return association_probability(lam, serve_radius) * np.log2(
        n * (m * m * n + 1.0 - m * m)
    )


def cascade_residual_term(
    n_elements: float,
    rho: float,
    lam: float,
    params: SystemParams,
) -> float:
    """Linearized bound on the cascaded-link residual of the served branch.

    Decreasing in N; negligible against the array-gain term only for large
    arrays (the crossover depends strongly on density and serving radius).
    """
    m = attenuation_factor(rho)
    n = float(n_elements)
    c = params.serve_radius
    k1 = annulus_moment(1, params)
    k2 = annulus_moment(2, params)
    denom = m * m * n + 1.0 - m * m
    t1 = (
        k1
        * math.sqrt(math.pi * params.beta_ref)
        * m
        * _radial_moment(params.alpha_ris_ue / 2.0, lam, 0.0, c)
        / denom
    )
    t2 = k2 * _radial_moment(params.alpha_ris_ue, lam, 0.0, c) / (n * denom)
    return (t1 + t2) / (params.beta_ref * _LN2)


def noise_residual_term(n_elements, rho: float, lam, params: SystemParams):
    """Linearized noise-to-signal residual of the served branch (low-SNR objective).

    `n_elements` and `lam` may be arrays of matching shape.
    """
    m = attenuation_factor(rho)
    n = n_elements
    k3 = annulus_moment(3, params)
    denom = (
        params.snr_gain
        * params.beta_ref
        * n
        * (m * m * n + 1.0 - m * m)
    )
    return (
        k3
        * _radial_moment(params.alpha_ris_ue, lam, 0.0, params.serve_radius)
        / denom
        / (params.beta_ref * _LN2)
    )


def _baseline_term(params: SystemParams, lam: float) -> float:
    # Association-weighted SNR/geometry offsets common to both forms.
    assoc = association_probability(lam, params.serve_radius)
    return assoc * (
        math.log2(params.snr_gain * params.beta_ref**2)
        - params.alpha_bs_ris * expected_log2_d(params.d_min, params.d_max)
    ) - params.alpha_ris_ue * expected_log2_r_truncated(lam, params.serve_radius)


def _direct_term_exact(params: SystemParams, lam: float) -> float:
    snr_beta = params.snr_gain * params.beta_ref
    a1 = params.alpha_direct
    d1, d2 = params.d_min, params.d_max
    norm = 2.0 / (d2**2 - d1**2)

    def integrand(d):
        return math.log2(1.0 + snr_beta * d ** (-a1)) * norm * d

    val, _ = integrate.quad(integrand, d1, d2, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL)
    return math.exp(-math.pi * lam * params.serve_radius**2) * val


def _jensen_log2(mass: float, mean: float) -> float:
    """Jensen's bound mass * log2(1 + mean / mass) on E{log2(1 + X) ; event}.

    `mass` is P(event) and `mean` is E{X ; event}; an empty event gives 0.
    """
    return mass * math.log1p(mean / mass) / _LN2 if mass > 0.0 else 0.0


def _direct_term_jensen(params: SystemParams, lam: float) -> float:
    # (1 - P) log2(1 + snr beta E{d^-a1}) over the unserved users r > C
    mass = math.exp(-math.pi * lam * params.serve_radius**2)
    mean_snr = (
        params.snr_gain
        * params.beta_ref
        * annulus_distance_moment(-params.alpha_direct, params.d_min, params.d_max)
    )
    return _jensen_log2(mass, mass * mean_snr)


def _served_branch(
    params: SystemParams, n_elements: float, rho: float, lam: float
) -> tuple[float, float, float, float]:
    """Served-branch terms on the disk r <= params.serve_radius.

    Returns (baseline, h, g, g_noise): the exact log2(snr A) pieces, the
    Jensen residual without the noise term, and what adding the noise term
    raises it by.  The Jensen residual reuses the moments of the paper's
    linearized terms: E{y ; r <= C} = ln 2 * term.
    """
    mass = association_probability(lam, params.serve_radius)
    baseline = _baseline_term(params, lam)
    h = array_gain_term(n_elements, rho, lam, params.serve_radius)
    cascade_mean = cascade_residual_term(n_elements, rho, lam, params) * _LN2
    noise_mean = noise_residual_term(n_elements, rho, lam, params) * _LN2
    g = _jensen_log2(mass, cascade_mean)
    return baseline, h, g, _jensen_log2(mass, cascade_mean + noise_mean) - g


def _outer_annulus_term(
    params: SystemParams, n_elements: float, rho: float, lam: float, inner: float
) -> float:
    """Jensen bound on the whole served rate over inner < r <= C.

    E{snr * inside ; inner < r <= C} with inside the bracket of
    `rate_bound_ris`: beta^2 d^-a2 r^-a3 N (m^2 N + 1 - m^2)
    + sqrt(pi beta^3) d^-(a1+a2)/2 r^-a3/2 m N + beta d^-a1.
    """
    c = params.serve_radius
    if inner >= c:
        return 0.0
    m = attenuation_factor(rho)
    a1, a2, a3 = params.alpha_direct, params.alpha_bs_ris, params.alpha_ris_ue
    beta = params.beta_ref
    d1, d2 = params.d_min, params.d_max
    mass = math.exp(-math.pi * lam * inner * inner) - math.exp(-math.pi * lam * c * c)
    array = _mean_array_snr(params, n_elements, rho) * _radial_moment(-a3, lam, inner, c)
    cross = (
        math.sqrt(math.pi * beta**3)
        * annulus_distance_moment(-(a1 + a2) / 2.0, d1, d2)
        * m
        * n_elements
        * _radial_moment(-a3 / 2.0, lam, inner, c)
    )
    direct = beta * annulus_distance_moment(-a1, d1, d2) * mass
    return _jensen_log2(mass, array + params.snr_gain * (cross + direct))


def _mean_array_snr(params: SystemParams, n_elements: float, rho: float) -> float:
    """snr E_d{A} r^a3: the annulus-averaged array-gain SNR at r = 1."""
    m = attenuation_factor(rho)
    n = float(n_elements)
    return (
        params.snr_gain
        * params.beta_ref**2
        * annulus_distance_moment(-params.alpha_bs_ris, params.d_min, params.d_max)
        * n
        * (m * m * n + 1.0 - m * m)
    )


def _split_radius(params: SystemParams, n_elements: float, rho: float) -> float:
    """r0 = min(C, r*), where the mean array-gain SNR snr E_d{A} falls to 1."""
    r_star = _mean_array_snr(params, n_elements, rho) ** (1.0 / params.alpha_ris_ue)
    return min(params.serve_radius, r_star)


def _residual_integral(
    params: SystemParams, n_elements: int, rho: float, lam: float
) -> float:
    """2-D quadrature of the exact served-branch residual over (r, d)."""
    m = attenuation_factor(rho)
    n = float(n_elements)
    a1, a2, a3 = params.alpha_direct, params.alpha_bs_ris, params.alpha_ris_ue
    beta = params.beta_ref
    inv_snr_beta = 1.0 / (params.snr_gain * beta)
    denom = beta * (m * m * n * n + (1.0 - m * m) * n)
    d1, d2 = params.d_min, params.d_max
    d_norm = 2.0 / (d2**2 - d1**2)
    c = params.serve_radius

    def integrand(r, d):
        da = d ** (a2 - a1)
        ra = r**a3
        num = math.sqrt(math.pi * beta * da * ra) * m * n + da * ra + inv_snr_beta * d**a2 * ra
        weight = 2.0 * math.pi * lam * r * math.exp(-math.pi * lam * r * r) * d_norm * d
        return math.log2(1.0 + num / denom) * weight

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.dblquad(
                integrand,
                d1,
                d2,
                0.0,
                c,
                epsabs=_QUAD_EPSABS,
                epsrel=_QUAD_EPSREL,
            )
        except integrate.IntegrationWarning as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, err = integrate.dblquad(integrand, d1, d2, 0.0, c)
            raise NumericError(
                f"residual quadrature did not reach tolerance: {exc}",
                estimate=val,
                error_bound=err,
            ) from exc
    return val


def _closed_form_preconditions(params: SystemParams, dep: DeploymentParams) -> Optional[str]:
    notes = []
    edge_snr = params.snr_gain * params.beta_direct(params.d_min)
    if edge_snr > _LOW_SNR_EDGE_MAX:
        notes.append(
            f"direct-link SNR at the near edge is {edge_snr:.3g}; "
            "the Jensen residual of the closed form loosens as the SNR grows"
        )
    if dep.elements_per_ris < _MIN_CLOSED_FORM_N:
        notes.append(
            f"elements_per_ris={dep.elements_per_ris} is below the "
            "moderate-to-large array regime; the Jensen residual may be loose"
        )
    return "; ".join(notes) if notes else None


def spatial_rate_integral(
    params: SystemParams,
    dep: DeploymentParams,
    rho: float,
) -> SpatialRateBreakdown:
    """Exact spatial average of the fixed-geometry rate bounds (all SNRs)."""
    lam = dep.density
    n = dep.elements_per_ris
    baseline = _baseline_term(params, lam)
    h = array_gain_term(n, rho, lam, params.serve_radius)
    g = _residual_integral(params, n, rho, lam)
    direct = _direct_term_exact(params, lam)
    total = baseline + h + g + direct
    return SpatialRateBreakdown(
        total=total,
        assoc_probability=association_probability(lam, params.serve_radius),
        h_term=h,
        g_bar_term=g,
        direct_term=direct,
        baseline_term=baseline,
        method="quadrature",
    )


def spatial_rate_closed_form(
    params: SystemParams, dep: DeploymentParams, rho: float
) -> SpatialRateBreakdown:
    """Closed-form upper bound: log split with the noise term on r <= r0,
    Jensen on the whole rate over r0 < r <= C, Jensen direct branch."""
    lam = dep.density
    n = dep.elements_per_ris
    r0 = _split_radius(params, n, rho)
    baseline, h, g, g_noise = _served_branch(replace(params, serve_radius=r0), n, rho, lam)
    g_low = g_noise + _outer_annulus_term(params, n, rho, lam, r0)
    direct = _direct_term_jensen(params, lam)
    return SpatialRateBreakdown(
        total=baseline + h + g + g_low + direct,
        assoc_probability=association_probability(lam, params.serve_radius),
        h_term=h,
        g_bar_term=g,
        direct_term=direct,
        baseline_term=baseline,
        g_bar_low_term=g_low,
        method="closed_form",
        warning=_closed_form_preconditions(params, dep),
    )


# Former names of the closed form, kept because bench/tracer.py and
# bench/workloads.py look them up.
spatial_rate_high_snr = spatial_rate_low_snr = spatial_rate_closed_form
