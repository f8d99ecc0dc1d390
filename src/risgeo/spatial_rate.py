"""Rate averaged over random reflector positions and user cell-edge position.

Reflectors form a homogeneous Poisson process of density `lam`; the user
associates with the nearest one within the serving radius C and falls back to
the direct link otherwise.  Averaging the fixed-geometry rate bounds over the
nearest-reflector distance (Rayleigh-type density 2 pi lam r exp(-pi lam r^2))
and the annulus position density f_d ~ d gives

  * an exact integral form (all SNRs), the reference, and
  * one closed form, an upper bound on it at every SNR,

each reported as a component breakdown that re-sums to the total.

The integral form's residual term is a fixed product Gauss-Legendre rule
(`quadrature.Rule`), vectorized over arrays of density and array size:
ln(pi lam r^2) on the radial axis, ln d^2 on the annulus axis.  Each call
evaluates two orders, 64 x 8 and 96 x 12 nodes (r x d), returns the finer and
reports their difference as its error bound.  Adaptive `dblquad` checks the
rule in `validation`.

The integral form's direct term, exp(-pi lam C^2) E_d{log2(1 + snr beta
d^-a1)}, is the 1-D rule `quadrature.quad` over ln d^2, at 24 and 32 nodes;
its value is the finer order, and the orders' difference adds to the
breakdown's error bound.  Adaptive `quad` checks it in `validation`.  Either
rule raises NumericError when its orders differ by more than `_RULE_TOL`.  No
production path imports `scipy.integrate`.

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
the radius where the mean array-gain SNR crosses 1.  It thus has three bands
of r: on r <= r0 the log split with the noise term, on r0 < r <= C Jensen on
the whole served rate, and on r > C Jensen on the direct branch.  Every piece
is an upper bound for any r0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# Bound under the name `integrate` because bench/tracer.py patches
# `spatial_rate.integrate` to span the direct rule and count its integrand
# calls, which bench/selftest.py requires.
from . import quadrature as integrate
from .errors import DomainError, NumericError
from .params import DeploymentParams, SystemParams
from .phase_error import attenuation_factor
from .special_math import (
    _least,
    exp_integral_ei,
    lower_incomplete_gamma,
    power_integral,
    upper_incomplete_gamma,
)

_LN2 = math.log(2.0)

#: The closed form's soft precondition: direct-link SNR at the near annulus edge.
_LOW_SNR_EDGE_MAX = 0.5


def nearest_ris_pdf(lam: float, r: float) -> float:
    """Density of the nearest-reflector distance: 2 pi lam r exp(-pi lam r^2)."""
    if not lam > 0:
        raise DomainError("density must be positive")
    if not r >= 0:
        raise DomainError("distance must be nonnegative")
    return 2.0 * math.pi * lam * r * math.exp(-math.pi * lam * r * r)


def association_probability(lam, serve_radius: float):
    """Probability that the nearest reflector lies within the serving radius.

    `lam` may be an array of densities.
    """
    if not _least(lam) > 0:
        raise DomainError("density must be positive")
    if not serve_radius >= 0:
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
        - np.euler_gamma
    )
    return bracket / (2.0 * _LN2)


def annulus_distance_moment(p: float, d_min: float, d_max: float) -> float:
    """E{d^p} over the annulus density, continuous in p across degeneracies."""
    if not 0 < d_min < d_max:
        raise DomainError("requires 0 < d_min < d_max")
    return 2.0 * power_integral(p + 1.0, d_min, d_max) / (d_max**2 - d_min**2)


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
    * g_bar_term: the residual E{log2(1 + y) ; r <= R}; the Gauss rule with
      the noise term for the integral form, the Jensen bound without the
      noise term for the closed form.
    * g_bar_low_term: None for the integral form.  For the closed form, what
      the noise term adds to the Jensen residual on r <= r0, plus the Jensen
      bound on the whole served rate over r0 < r <= C; always positive.
    * direct_term: users served by the direct link only (r > C); exact for
      the integral form, the Jensen bound for the closed form.

    error_bound is the sum of the residual rule's and the direct rule's
    two-order differences for the integral form, and None for the closed form.
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
    error_bound: Optional[float] = None

    def component_sum(self) -> float:
        low = self.g_bar_low_term if self.g_bar_low_term is not None else 0.0
        return self.baseline_term + self.h_term + self.g_bar_term + low + self.direct_term


def _radial_moment(p: float, lam, inner: float, outer: float):
    """Partial moment E{r^p ; inner < r <= outer} of the nearest-reflector distance.

    Equals [Gamma(p/2+1, pi lam inner^2) - Gamma(p/2+1, pi lam outer^2)]
    / (pi lam)^(p/2); on a disk (inner = 0) the lower incomplete gamma
    gamma(p/2+1, pi lam outer^2) is used, which requires p > -2.  `lam` may
    be an array.
    """
    pi_lam = np.pi * lam
    x_outer = pi_lam * outer * outer
    if inner == 0.0:
        return _disk_moment(p, pi_lam, x_outer)
    s = p / 2.0 + 1.0
    x_inner = pi_lam * inner * inner
    gam = upper_incomplete_gamma(s, x_inner) - upper_incomplete_gamma(s, x_outer)
    return gam / pi_lam ** (p / 2.0)


def _disk_moment(p: float, pi_lam, x):
    """Core of _radial_moment on a disk r <= R from pi_lam = pi lam and
    x = pi lam R^2: gamma(p/2+1, x) / (pi lam)^(p/2)."""
    return lower_incomplete_gamma(p / 2.0 + 1.0, x) / pi_lam ** (p / 2.0)


def _check_elements(n_elements) -> None:
    """Raise DomainError unless every element count in `n_elements` (a scalar
    or an array) is positive and converts to a finite float.

    A Python number costs one conversion and two comparisons, an array one
    conversion and two reductions; a NaN fails both comparisons.
    """
    try:
        if isinstance(n_elements, (int, float)):
            n = float(n_elements)
            inside = 0.0 < n < math.inf
        else:
            n = np.asarray(n_elements, dtype=float)
            inside = n.min(initial=np.inf) > 0.0 and n.max(initial=-np.inf) < np.inf
    except OverflowError:  # an integer beyond the float range
        inside = False
    if not inside:
        raise DomainError("n_elements must be positive and finite")


def array_gain_term(n_elements, rho: float, lam, serve_radius: float):
    """Association-weighted array gain: P(served) * log2(N (m^2 N + 1 - m^2)).

    `n_elements` and `lam` may be arrays of matching shape.
    """
    _check_elements(n_elements)
    m = attenuation_factor(rho)
    return _array_gain(
        n_elements, _power_per_element(n_elements, m * m), association_probability(lam, serve_radius)
    )


def _power_per_element(n, m2: float):
    """m^2 N + 1 - m^2 from m2 = m^2: the array's mean power gain
    N (m^2 N + 1 - m^2) over N."""
    return m2 * n + 1.0 - m2


def _array_gain(n, per_element, assoc):
    """Core of array_gain_term from per_element = m^2 N + 1 - m^2 and
    assoc = P(served); no checks."""
    return assoc * np.log2(n * per_element)


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
    _check_elements(n_elements)
    m = attenuation_factor(rho)
    n = float(n_elements)
    c = params.serve_radius
    a1, a2 = params.alpha_direct, params.alpha_bs_ris
    k1 = annulus_distance_moment((a2 - a1) / 2.0, params.d_min, params.d_max)
    k2 = annulus_distance_moment(a2 - a1, params.d_min, params.d_max)
    denom = _power_per_element(n, m * m)
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
    _check_elements(n_elements)
    m = attenuation_factor(rho)
    moment = _radial_moment(params.alpha_ris_ue, lam, 0.0, params.serve_radius)
    return _noise_residual(
        n_elements,
        _power_per_element(n_elements, m * m),
        moment,
        annulus_distance_moment(params.alpha_bs_ris, params.d_min, params.d_max),
        params.snr_gain * params.beta_ref,
        params.beta_ref * _LN2,
    )


def _noise_residual(n, per_element, moment, k3: float, snr_beta: float, beta_ln2: float):
    """Core of noise_residual_term from per_element = m^2 N + 1 - m^2, the disk
    moment E{r^a3 ; r <= C}, k3 = E{d^a2}, snr_beta = snr beta and
    beta_ln2 = beta ln 2."""
    return k3 * moment / (snr_beta * n * per_element) / beta_ln2


def _baseline_term(params: SystemParams, lam: float) -> float:
    # Association-weighted SNR/geometry offsets common to both forms.
    assoc = association_probability(lam, params.serve_radius)
    return assoc * (
        math.log2(params.snr_gain * params.beta_ref**2)
        - params.alpha_bs_ris * expected_log2_d(params.d_min, params.d_max)
    ) - params.alpha_ris_ue * expected_log2_r_truncated(lam, params.serve_radius)


#: Largest two-order difference (bps/Hz) accepted by either rule.  The
#: residual rule's worst measured over P -10..45 dBm, N 1..1e4, C 1..30,
#: lambda 1e-3..50, rho 0..1, a3 2..4 and annuli d_min 10..180 m with
#: d_max/d_min 1.22..5 is 1.6e-8; at d_max/d_min 6 it is 3.0e-8 and at 8
#: up to 1.4e-7.  Over 9000 seeded draws of a wider box (P -20..60 dBm,
#: d_min 10..200 m, d_max - d_min 1..100 m, C 0.3..100, lambda 1e-5..30,
#: N 1..3e4, all three exponents 2..4), 4 raise, all at d_max/d_min 6.3..7.5
#: with a1 or a2 above 3.5 (see CHANGES.md).  The direct rule's worst
#: over the box of validation's `direct_rule_vs_quad` row, annuli
#: d_max/d_min up to 501 included, is 3.7e-9.
_RULE_TOL = 1e-7


def _checked(rule: str, value, bound):
    """(value, bound), or NumericError carrying the worst element's value and
    bound when any two-order difference exceeds `_RULE_TOL`."""
    if not np.asarray(bound <= _RULE_TOL).all():
        worst = np.argmax(bound)
        estimate, error = float(np.ravel(value)[worst]), float(np.ravel(bound)[worst])
        message = f"{rule} rule orders differ by {error:.3g} > {_RULE_TOL:g}"
        raise NumericError(message, estimate=estimate, error_bound=error)
    return value, bound


def _direct_term_exact(params: SystemParams, lam: float) -> tuple[float, float]:
    """Exact direct branch exp(-pi lam C^2) E_d{log2(1 + snr beta d^-a1)} and
    its error bound, the two-order difference of the rule over t = ln q with
    q = d^2 uniform on [d_min^2, d_max^2]; raises NumericError, carrying both,
    when that difference exceeds `_RULE_TOL`."""
    snr_beta = params.snr_gain * params.beta_ref
    half_a1 = 0.5 * params.alpha_direct
    q1, q2 = params.d_min**2, params.d_max**2
    norm = 1.0 / ((q2 - q1) * _LN2)

    def integrand(t):
        return np.log1p(snr_beta * np.exp(-half_a1 * t)) * np.exp(t) * norm

    val, err = integrate.quad(integrand, math.log(q1), math.log(q2))
    mass = math.exp(-math.pi * lam * params.serve_radius**2)
    return _checked("direct", mass * val, mass * err)


def _jensen_log2(mass: float, mean: float) -> float:
    """Jensen's bound mass * log2(1 + mean / mass) on E{log2(1 + X) ; event}.

    `mass` is P(event) and `mean` is E{X ; event}; an empty event gives 0.
    """
    return mass * math.log1p(mean / mass) / _LN2 if mass > 0.0 else 0.0


#: The residual's two orders (r x d nodes), one point set; see `quadrature.Rule`.
_RESIDUAL_RULE = integrate.Rule((64, 8), (96, 12))
#: The radial rule runs over ln u, u = pi lam r^2, from ln(_U_FLOOR * U) to
#: ln(min(U, _U_CAP)) with U = pi lam C^2.  Below the floor r < 1e-7 C and
#: log2(1 + y) vanishes; above the cap the mass e^-u is below 5e-18.
_U_FLOOR = 1e-14
_U_CAP = 40.0


def _residual_integral(params: SystemParams, n_elements, rho: float, lam):
    """Exact served-branch residual E{log2(1 + y) ; r <= C} and its error bound.

    The radial variable is t = ln u with u = pi lam r^2, weight u e^-u dt; the
    annulus variable is v = ln q with q = d^2 uniform on [d_min^2, d_max^2],
    weight q dv / (d_max^2 - d_min^2).  `n_elements` and `lam` broadcast
    against each other.  Returns the fine-order values and the two-order
    differences, arrays of the broadcast shape; raises NumericError, carrying
    the worst element's fine value and difference, when any difference
    exceeds `_RULE_TOL`.
    """
    m = attenuation_factor(rho)
    n = np.asarray(n_elements, dtype=float)
    lam = np.asarray(lam, dtype=float)
    a1, a2, a3 = params.alpha_direct, params.alpha_bs_ris, params.alpha_ris_ue
    beta = params.beta_ref
    i_r, i_q = _RESIDUAL_RULE.index
    # y of the split log2(snr A) + log2(1 + y) is (s cross N + s^2 array) / denom
    # with s = r^(a3/2); cross, array and the weight's q dv depend on d only,
    # so they are formed on the rule's distinct d nodes
    q1, q2 = params.d_min**2, params.d_max**2
    v1, v2 = math.log(q1), math.log(q2)
    q = np.exp(0.5 * (v2 + v1) + 0.5 * (v2 - v1) * _RESIDUAL_RULE.nodes[1])
    da = q ** ((a2 - a1) / 2.0)
    cross = (np.sqrt(np.pi * beta * da) * m)[i_q]
    array = (da + q ** (a2 / 2.0) / (params.snr_gain * beta))[i_q]
    weight = _RESIDUAL_RULE.weight * (q * (0.5 * (v2 - v1) / (q2 - q1)))[i_q]
    denom = beta * n * _power_per_element(n, m * m)

    u_max = np.pi * lam * params.serve_radius**2
    lo = np.log(_U_FLOOR * u_max)
    half = 0.5 * (np.log(np.minimum(u_max, _U_CAP)) - lo)
    t = (lo + half)[..., None] + half[..., None] * _RESIDUAL_RULE.nodes[0][i_r]
    u = np.exp(t)
    s = np.exp((a3 / 4.0) * (t - np.log(np.pi * lam)[..., None]))  # (u / pi lam)^(a3/4)
    y = s * (cross * n[..., None] + s * array) / denom[..., None]
    fine, bound = _RESIDUAL_RULE.split(np.log1p(y) * (u * np.exp(-u)) * weight)
    scale = half / _LN2
    return _checked("residual", scale * fine, scale * bound)


def _closed_form_preconditions(params: SystemParams) -> Optional[str]:
    edge_snr = params.snr_gain * params.beta_direct(params.d_min)
    if edge_snr > _LOW_SNR_EDGE_MAX:
        return (
            f"direct-link SNR at the near edge is {edge_snr:.3g}; "
            "the Jensen residual of the closed form loosens as the SNR grows"
        )
    return None


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
    g, bound = map(float, _residual_integral(params, n, rho, lam))
    direct, direct_bound = _direct_term_exact(params, lam)
    total = baseline + h + g + direct
    return SpatialRateBreakdown(
        total=total,
        assoc_probability=association_probability(lam, params.serve_radius),
        h_term=h,
        g_bar_term=g,
        direct_term=direct,
        baseline_term=baseline,
        method="quadrature",
        error_bound=bound + direct_bound,
    )


def spatial_rate_closed_form(
    params: SystemParams, dep: DeploymentParams, rho: float
) -> SpatialRateBreakdown:
    """Closed-form upper bound, band by band: the log split with the noise
    term on r <= r0, Jensen on the whole served rate over r0 < r <= C, and
    Jensen on the direct branch over r > C (see the module docstring)."""
    lam = dep.density
    n = float(dep.elements_per_ris)
    m = attenuation_factor(rho)
    a1, a2, a3 = params.alpha_direct, params.alpha_bs_ris, params.alpha_ris_ue
    beta, c = params.beta_ref, params.serve_radius
    d1, d2 = params.d_min, params.d_max
    k_direct = annulus_distance_moment(-a1, d1, d2)  # E{d^-a1}
    per_element = _power_per_element(n, m * m)
    # snr E_d{A} r^a3, the annulus-averaged array-gain SNR at r = 1, falls to
    # 1 at r* = array_snr^(1/a3)
    array_snr = params.snr_gain * beta**2 * annulus_distance_moment(-a2, d1, d2) * n * per_element
    r0 = min(c, array_snr ** (1.0 / a3))

    # r <= r0: the exact log2(snr A) pieces, and Jensen on the residual
    # E{y ; r <= r0} = ln 2 * (the paper's linearized terms), without and
    # with the noise term
    inner = replace(params, serve_radius=r0)
    mass = association_probability(lam, r0)
    baseline = _baseline_term(inner, lam)
    h = _array_gain(n, per_element, mass)
    cascade_mean = cascade_residual_term(n, rho, lam, inner) * _LN2
    noise_mean = noise_residual_term(n, rho, lam, inner) * _LN2
    g = _jensen_log2(mass, cascade_mean)
    g_low = _jensen_log2(mass, cascade_mean + noise_mean) - g

    # r0 < r <= C: Jensen on snr times the bracket of `rate_bound_ris`,
    # beta^2 d^-a2 r^-a3 N (m^2 N + 1 - m^2)
    # + sqrt(pi beta^3) d^-(a1+a2)/2 r^-a3/2 m N + beta d^-a1
    if r0 < c:
        mass = math.exp(-math.pi * lam * r0 * r0) - math.exp(-math.pi * lam * c * c)
        array = array_snr * _radial_moment(-a3, lam, r0, c)
        cross = (
            math.sqrt(math.pi * beta**3)
            * annulus_distance_moment(-(a1 + a2) / 2.0, d1, d2)
            * m
            * n
            * _radial_moment(-a3 / 2.0, lam, r0, c)
        )
        g_low += _jensen_log2(mass, array + params.snr_gain * (cross + beta * k_direct * mass))

    # r > C: Jensen on the direct link, (1 - P) log2(1 + snr beta E{d^-a1})
    mass = math.exp(-math.pi * lam * c**2)
    direct = _jensen_log2(mass, mass * (params.snr_gain * beta * k_direct))
    return SpatialRateBreakdown(
        total=baseline + h + g + g_low + direct,
        assoc_probability=association_probability(lam, c),
        h_term=h,
        g_bar_term=g,
        direct_term=direct,
        baseline_term=baseline,
        g_bar_low_term=g_low,
        method="closed_form",
        warning=_closed_form_preconditions(params),
    )


# Former names of the closed form, kept because bench/tracer.py and
# bench/workloads.py look them up.
spatial_rate_high_snr = spatial_rate_low_snr = spatial_rate_closed_form
