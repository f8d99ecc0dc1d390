"""One table of named checks behind `risgeo validate` and the acceptance suite.

Each row recomputes a closed form against an independent oracle (quadrature,
exhaustive grid, or Monte-Carlo at 3-sigma) and returns its pass/fail parts.
A row may belong to one of the ten acceptance criteria in `CRITERIA`;
`tests/test_acceptance.py` runs each criterion's rows at its pinned seed and
trial count (`run_criterion`), and `validate` runs every row (`run_all`) at
the requested seed, capping each Monte-Carlo row at its criterion's count.
Rows marked statistical can flake at roughly the 3-sigma rate; the report
labels them so a single flake is distinguishable from a hard failure.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from . import deployment, monte_carlo, phase_error, rate_bounds, spatial_rate
from .config import resolve
from .rate_loss import rate_loss, rate_loss_asymptote
from .params import DeploymentParams, LinkGeometry, SystemParams
from .special_math import exp_integral_ei, lower_incomplete_gamma, power_integral
from .streams import substream

Part = tuple[bool, str]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    statistical: bool
    detail: str


@dataclass(frozen=True)
class Check:
    """A named row: `run(trials, seed)` returns its (ok, detail) parts."""

    check_id: str
    statistical: bool
    criterion: Optional[int]
    run: Callable[[int, int], list[Part]]


@dataclass(frozen=True)
class Criterion:
    """An acceptance criterion's name, runtime budget and pinned draws.

    `trials` is 0 for criteria that draw nothing.
    """

    name: str
    budget_s: float
    seed: int = 0
    trials: int = 0


CRITERIA = {
    1: Criterion("budget optimum", 1.0),
    2: Criterion("association probabilities", 5.0, seed=2024, trials=10**6),
    3: Criterion("compensation invariance", 1.0),
    4: Criterion("rate-loss saturation", 1.0),
    5: Criterion("fixed-geometry bound tightness", 30.0, seed=55, trials=100_000),
    6: Criterion("closed-form triangle at high SNR", 120.0, seed=66, trials=1_000_000),
    7: Criterion("closed form vs MC at low SNR", 120.0, seed=77, trials=1_000_000),
    8: Criterion("optimizer cross-validation", 60.0),
    9: Criterion("reflection moments", 60.0, seed=99, trials=1_000_000),
    10: Criterion("special-function fidelity", 10.0),
}


def _default_params(**overrides) -> SystemParams:
    return resolve(None, overrides).system_params()


# Disk arguments -pi*lam*C^2 reachable in the operating box (lam in
# [0.005, 0.05], C in [3, 20]), and unit-scale arguments with the
# association argument -pi*0.005*12^2.
_EI_DISK_ARGS = (-0.14, -0.5, -1.5708, -2.262, -6.28, -15.708, -22.6, -62.8)
_EI_UNIT_ARGS = (-0.1, -1.0, -2.261946711, -8.0, -16.0)
_GAMMA_BOX_GRID = ((1.625, 2.25, 3.0), (0.14, 1.5708, 15.708, 62.8))
_GAMMA_UNIT_GRID = ((0.5, 1.625, 2.25, 4.0), (0.25, 1.5708, 6.0, 15.708))


def _check_ei(trials: int, seed: int) -> list[Part]:
    def quad(x):
        return integrate.quad(
            lambda u: math.exp(-u) / u, -x, np.inf, epsabs=1e-13, epsrel=1e-13
        )[0]

    def worst(xs):
        return max(abs(exp_integral_ei(x) + quad(x)) for x in xs)

    disk, unit = worst(_EI_DISK_ARGS), worst(_EI_UNIT_ARGS)
    return [
        (disk <= 1e-9, f"max Ei gap={disk:.2e}"),
        (unit <= 1e-9, f"max Ei gap at unit-scale x={unit:.2e}"),
    ]


def _check_gamma(trials: int, seed: int) -> list[Part]:
    def quad(a, x):
        return integrate.quad(
            lambda t: math.exp(-t) * t ** (a - 1.0), 0.0, x, epsabs=1e-14, epsrel=1e-13
        )[0]

    def worst(grid):
        pairs = itertools.product(*grid)
        return max(abs(lower_incomplete_gamma(a, x) - quad(a, x)) for a, x in pairs)

    box, unit = worst(_GAMMA_BOX_GRID), worst(_GAMMA_UNIT_GRID)
    return [
        (box <= 1e-9, f"max gamma gap={box:.2e}"),
        (unit <= 1e-9, f"max gamma gap on the unit grid={unit:.2e}"),
    ]


def _check_power_integral(trials: int, seed: int) -> list[Part]:
    def worst(ranges):
        return max(
            abs(power_integral(-1.0 + eps, a, b) - math.log(b / a))
            for a, b in ranges
            for eps in (1e-9, -1e-9)
        )

    box, extra = worst(((180.0, 220.0), (1.0, 20.0))), worst(((1.0, 3.0), (0.5, 40.0)))
    return [
        (box <= 1e-6, f"power-integral continuity gap={box:.2e}"),
        (extra <= 1e-6, f"power-integral gap on (1, 3), (0.5, 40)={extra:.2e}"),
    ]


def _check_euler(trials: int, seed: int) -> list[Part]:
    worst = 0.0
    for eps in (1e-6, 1e-7, 1e-8):
        worst = max(worst, abs(exp_integral_ei(-eps) + math.log(1.0 / eps) - np.euler_gamma))
    ok = worst < 1e-5 and 0.5 < np.euler_gamma < 0.6
    return [(ok, f"limit residual {worst:.3e}")]


def _check_attenuation(trials: int, seed: int) -> list[Part]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rho in rng.uniform(1e-6, 1.0, 100):
        m = phase_error.attenuation_factor(rho)
        worst = max(worst, abs(4.0 * rho * m - math.sin(rho * math.pi)))
        worst = max(
            worst,
            abs(phase_error.expected_cos_diff(rho) - 16.0 * m * m / math.pi**2),
        )
    return [(worst <= 1e-12, f"max residual {worst:.3e}")]


def _check_diff_density(trials: int, seed: int) -> list[Part]:
    worst = 0.0
    for rho in (0.1, 0.4, 1.0):
        total, _ = integrate.quad(
            lambda z: phase_error.error_difference_pdf(rho, z),
            -2 * rho * math.pi,
            2 * rho * math.pi,
            epsabs=1e-12,
        )
        worst = max(worst, abs(total - 1.0))
    return [(worst <= 1e-9, f"max |int - 1| = {worst:.3e}")]


def _check_association(trials: int, seed: int) -> list[Part]:
    p12 = spatial_rate.association_probability(0.005, 12.0)
    p16 = spatial_rate.association_probability(0.005, 16.0)
    quad12, _ = integrate.quad(lambda r: spatial_rate.nearest_ris_pdf(0.005, r), 0, 12.0)
    return [
        (round(p12, 3) == 0.896, f"P(r<12)={p12:.4f}"),
        (round(p16, 3) == 0.982, f"P(r<16)={p16:.4f}"),
        (abs(p12 - quad12) < 1e-9, f"|P(r<12) - quad|={abs(p12 - quad12):.2e}"),
    ]


def _check_nearest(trials: int, seed: int) -> list[Part]:
    r = monte_carlo.sample_nearest_distance(0.005, substream(seed, 0), trials)
    parts = []
    for radius in (12.0, 16.0):
        p = spatial_rate.association_probability(0.005, radius)
        frac = float(np.mean(r <= radius))
        se = math.sqrt(p * (1.0 - p) / trials)
        parts.append((abs(frac - p) <= 3 * se, f"mc(r<{radius:.0f})={frac:.4f}"))
    return parts


def _check_log_moments(trials: int, seed: int) -> list[Part]:
    worst = 0.0
    for lam, c in ((0.005, 10.0), (0.05, 10.0), (0.005, 30.0)):
        oracle, _ = integrate.quad(
            lambda r: math.log2(r) * spatial_rate.nearest_ris_pdf(lam, r),
            1e-12,
            c,
            epsabs=1e-13,
            limit=200,
        )
        worst = max(worst, abs(spatial_rate.expected_log2_r_truncated(lam, c) - oracle))
    for d1, d2 in ((180.0, 220.0), (50.0, 300.0)):
        worst = max(worst, abs(spatial_rate.expected_log2_d(d1, d2) - _log2_d_oracle(d1, d2)))
    return [(worst <= 1e-8, f"max gap {worst:.3e}")]


def _log2_d_oracle(d1: float, d2: float) -> float:
    """E{log2 d} for d uniform in area on the annulus d1..d2, by adaptive quadrature."""
    value, _ = integrate.quad(
        lambda d: math.log2(d) * 2 * d / (d2**2 - d1**2), d1, d2, epsabs=1e-13
    )
    return value


def _check_annulus_moments(trials: int, seed: int) -> list[Part]:
    params = _default_params()
    worst = 0.0
    a1, a2 = params.alpha_direct, params.alpha_bs_ris
    for exponent, p in (((a2 - a1) / 2.0, -0.5), (a2 - a1, -1.0), (a2, 2.0)):
        oracle, _ = integrate.quad(
            lambda d: d**p * 2 * d / (params.d_max**2 - params.d_min**2),
            params.d_min,
            params.d_max,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        got = spatial_rate.annulus_distance_moment(exponent, params.d_min, params.d_max)
        worst = max(worst, abs(got - oracle) / abs(oracle))
    return [(worst <= 1e-9, f"max rel gap {worst:.3e}")]


def _check_breakdown(trials: int, seed: int) -> list[Part]:
    params = _default_params(tx_power_dbm=20.0)
    dep = DeploymentParams(density=0.005, elements_per_ris=200)
    worst = 0.0
    for fn in (spatial_rate.spatial_rate_closed_form, spatial_rate.spatial_rate_integral):
        br = fn(params, dep, 0.25)
        worst = max(worst, abs(br.total - br.component_sum()))
        worst = max(
            worst,
            abs(br.assoc_probability - (1 - math.exp(-math.pi * 0.005 * 100.0))),
        )
    return [(worst <= 1e-9, f"max residual {worst:.3e}")]


def _check_rate_loss(trials: int, seed: int) -> list[Part]:
    lam, c = 0.05, 10.0
    limit = spatial_rate.association_probability(lam, c) * math.log2(math.pi**2 / 4.0)
    got = rate_loss(10**4, 0.5, lam, c)
    asym = rate_loss_asymptote(0.5, lam, c)
    parts = [
        (
            abs(got - limit) < 1e-3 and abs(limit - 1.303) <= 1e-3,
            f"loss(1e4,0.5)={got:.6f} limit={limit:.6f}",
        ),
        (abs(asym - limit) < 1e-12, f"asymptote={asym:.6f}"),
    ]
    # desk-scale curve: full closed-form loss (array-gain + residual)
    params = _default_params(tx_power_dbm=15.0, serve_radius=c)
    for rho, n, quoted in ((0.25, 40, 0.3), (0.5, 120, 1.2), (0.6, 160, 1.8)):
        dep = DeploymentParams(density=lam, elements_per_ris=n)
        ideal = spatial_rate.spatial_rate_closed_form(params, dep, 0.0)
        impaired = spatial_rate.spatial_rate_closed_form(params, dep, rho)
        loss = ideal.total - impaired.total
        parts.append((abs(loss - quoted) <= 0.1, f"loss(N={n},rho={rho})={loss:.3f} vs {quoted}"))
    return parts


def _check_invariance(trials: int, seed: int) -> list[Part]:
    """Compensation factors from `compensation()` and as pi/2, pi^2/4.

    Both routes keep xi = m^2 N^2 snr, so the large-array asymptote is
    exact.  Element compensation is exact on the full bound too; power
    compensation is not, since the cross and direct terms do not scale with
    xi, and holds only inside the asymptote's regime.
    """
    params = _default_params()
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    comp = rate_bounds.compensation(0.0, 0.5)
    factor = comp["element_factor"]
    boosted = _default_params(tx_power_dbm=10.0 + comp["power_delta_db"])
    boosted_linear = replace(params, tx_power=params.tx_power * math.pi**2 / 4.0)

    def asym(p, n, rho):
        return rate_bounds.rate_asymptotic(p, geom, n, rho)

    base_asym = asym(params, 200.0, 0.0)
    via_p = asym(boosted, 200.0, 0.5)
    gap_n = max(
        abs(asym(params, 200.0 * n_factor, 0.5).value - base_asym.value)
        for n_factor in (factor, math.pi / 2.0)
    )
    gap_p = max(
        abs(via_p.value - base_asym.value),
        abs(asym(boosted_linear, 200.0, 0.5).value - base_asym.value),
    )
    parts = [
        (gap_n < 1e-12, f"asymptote N-route gap={gap_n:.2e}"),
        (gap_p < 1e-12, f"asymptote P-route gap={gap_p:.2e}"),
    ]

    # At N = 200 the asymptote flags the point as below its threshold.
    base_full = rate_bounds.rate_bound_ris(params, geom, 200, 0.0).value
    full_n = rate_bounds.rate_bound_ris(params, geom, round(200 * factor), 0.5).value
    full_p = rate_bounds.rate_bound_ris(boosted, geom, 200, 0.5).value
    gap_full_n = abs(full_n - base_full)
    parts.append((gap_full_n <= 0.05, f"full-bound N-route gap={gap_full_n:.4f}"))
    flagged = base_asym.warning is not None and via_p.warning is not None
    parts.append(
        (
            flagged,
            f"N=200 full-bound P-route gap={abs(full_p - base_full):.4f} "
            f"(asymptote flags N=200: {flagged})",
        )
    )

    # Inside the asymptote's regime the power route holds on the full bound:
    # 10x the first N at which neither operating point is flagged.  A wrong
    # power factor leaves a constant log2 offset there too.
    n_first = next(
        n
        for n in itertools.count(1)
        if asym(params, n, 0.0).warning is None and asym(boosted, n, 0.5).warning is None
    )
    n_deep = 10 * n_first
    gap_deep = abs(
        rate_bounds.rate_bound_ris(boosted, geom, n_deep, 0.5).value
        - rate_bounds.rate_bound_ris(params, geom, n_deep, 0.0).value
    )
    parts.append((gap_deep <= 0.05, f"N={n_deep} full-bound P-route gap={gap_deep:.4f}"))
    return parts


def _check_optimizer_anchor(trials: int, seed: int) -> list[Part]:
    regime = deployment.OptimizerRegime(snr="high", phase="random")

    def solve(a3):
        params = _default_params(alpha_ris_ue=a3, serve_radius=3.0, tx_power_dbm=15.0)
        return deployment.optimize_density(10.0, params, 1.0, regime)

    opt, opt25, opt3 = solve(2.0), solve(2.5), solve(3.0)
    return [
        (opt.n_star == 45, f"n_star={opt.n_star} (want 45, branch={opt.branch})"),
        (opt25.n_star == 1, f"N*(a3=2.5)={opt25.n_star}"),
        (opt3.n_star == 1, f"monotone random-phase case: n_star={opt3.n_star}"),
    ]


def _optimizer_instances():
    """A hand-picked high/bounded spot, then 20 seeded draws per regime."""
    yield (
        deployment.OptimizerRegime(snr="high", phase="bounded"),
        10.0,
        0.25,
        _default_params(tx_power_dbm=30.0, serve_radius=6.0, alpha_ris_ue=3.0),
        lambda n_star: max(64, 4 * n_star),
    )
    rng = np.random.default_rng(2718)
    for snr, phase in itertools.product(("high", "low"), ("bounded", "random")):
        regime = deployment.OptimizerRegime(snr=snr, phase=phase)
        for _ in range(20):
            if snr == "high":
                a3 = rng.uniform(2.1, 3.9)
                c = rng.uniform(2.0, 12.0)
                eta = rng.uniform(1.0, 20.0)
                p_dbm = rng.uniform(25.0, 40.0)
                rho = 1.0 if phase == "random" else rng.uniform(0.0, 0.8)
            else:
                a3 = rng.uniform(2.1, 3.5)
                c = rng.uniform(2.0, 4.0)
                eta = rng.uniform(5.0, 20.0)
                p_dbm = rng.uniform(0.0, 6.0)
                rho = 1.0 if phase == "random" else rng.uniform(0.0, 0.5)
            params = _default_params(
                tx_power_dbm=p_dbm,
                beta_db=-rng.uniform(25.0, 35.0),
                alpha_ris_ue=a3,
                serve_radius=c,
            )
            yield regime, eta, rho, params, lambda n_star: min(max(64, 2 * n_star), 4096)


def _check_optimizer_grid(trials: int, seed: int) -> list[Part]:
    worst = -np.inf
    for regime, eta, rho, params, n_max in _optimizer_instances():
        opt = deployment.optimize_density(eta, params, rho, regime)
        oracle = deployment.grid_search_oracle(eta, params, rho, regime, n_max(opt.n_star))
        worst = max(worst, oracle.objective - opt.objective)
    return [(worst <= 0.02, f"max (grid - dispatched) objective gap = {worst:.4f}")]


def _check_optimizer_product(trials: int, seed: int) -> list[Part]:
    params = _default_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0)
    regime = deployment.OptimizerRegime(snr="high", phase="bounded")
    eta = 10.0
    opt = deployment.optimize_density(eta, params, 0.25, regime)
    # the high-SNR offset D = (a1 - a2) E{log2 d}, free of the optimizer's own
    offset = (params.alpha_direct - params.alpha_bs_ris) * _log2_d_oracle(
        params.d_min, params.d_max
    )
    m = phase_error.attenuation_factor(0.25)
    scale = math.exp(0.5 * (offset * math.log(2.0) + math.log(params.beta_ref)))
    # lambda* = m eta s / C^2 gives back the budget, and N* = ceil(C^2 / (m s)) = ceil(78.991)
    product = opt.lambda_star * params.serve_radius**2 / (m * scale)
    return [
        (opt.branch == "bounded_closed_form", f"branch={opt.branch}"),
        (math.isclose(opt.d_constant, offset, rel_tol=1e-12),
         f"d_constant={opt.d_constant!r} (quadrature {offset!r})"),
        (math.isclose(product, eta, rel_tol=1e-12), f"lambda_star C^2/(m s)={product!r}"),
        (opt.n_star == 79, f"n_star={opt.n_star}"),
    ]


def _check_determinism(trials: int, seed: int) -> list[Part]:
    params = _default_params()
    dep = DeploymentParams(density=0.005, elements_per_ris=32)
    runs = [
        monte_carlo.simulate_spatial_bound(
            params, dep, 0.5, monte_carlo.McConfig(trials=9000, master_seed=seed, workers=w)
        )
        for w in (1, 2, 8)
    ]
    ok = all(r.value == runs[0].value and r.std_error == runs[0].std_error for r in runs)
    return [(ok, f"values={[r.value for r in runs]}")]


def _check_jensen(trials: int, seed: int) -> list[Part]:
    params = _default_params()
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    mc = monte_carlo.McConfig(trials=trials, master_seed=seed)
    parts = []
    for n, rhos in ((200, (0.0, 0.25, 0.5)), (64, (0.0, 0.5, 1.0))):
        for rho in rhos:
            bound = rate_bounds.rate_bound_ris(params, geom, n, rho).value
            est = monte_carlo.simulate_fixed_rate(params, geom, n, rho, mc)
            below = est.value <= bound + 3 * est.std_error
            tight = bound - est.value <= 0.3
            parts.append(
                (
                    below and tight,
                    f"N={n} rho={rho}: bound={bound:.4f} mc={est.value:.4f} "
                    f"gap={bound - est.value:.4f}",
                )
            )
    return parts


_SPATIAL_POINTS = tuple(itertools.product((20, 200), (0.0, 0.5)))


def _check_spatial_integral(trials: int, seed: int) -> list[Part]:
    params = _default_params(tx_power_dbm=20.0)
    parts = []
    for n, rho in _SPATIAL_POINTS:
        dep = DeploymentParams(density=0.005, elements_per_ris=n)
        quad = spatial_rate.spatial_rate_integral(params, dep, rho).total
        closed = spatial_rate.spatial_rate_closed_form(params, dep, rho).total
        gap = abs(quad - closed)
        parts.append((gap <= 0.1, f"N={n} rho={rho}: |int-closed|={gap:.3f}"))
    return parts


def dblquad_residual(params: SystemParams, n_elements: int, rho: float, lam: float) -> float:
    """Adaptive 2-D quadrature of the served-branch residual over (r, d).

    The oracle of `spatial_rate`'s fixed rule: E{log2(1 + y) ; r <= C} in the
    original variables, to absolute 1e-12 and relative 1e-10.
    """
    m = phase_error.attenuation_factor(rho)
    n = float(n_elements)
    a1, a2, a3 = params.alpha_direct, params.alpha_bs_ris, params.alpha_ris_ue
    beta = params.beta_ref
    inv_snr_beta = 1.0 / (params.snr_gain * beta)
    denom = beta * (m * m * n * n + (1.0 - m * m) * n)
    d1, d2 = params.d_min, params.d_max
    d_norm = 2.0 / (d2**2 - d1**2)

    def integrand(r, d):
        da = d ** (a2 - a1)
        ra = r**a3
        num = math.sqrt(math.pi * beta * da * ra) * m * n + da * ra + inv_snr_beta * d**a2 * ra
        weight = 2.0 * math.pi * lam * r * math.exp(-math.pi * lam * r * r) * d_norm * d
        return math.log2(1.0 + num / denom) * weight

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(
            integrand, d1, d2, 0.0, params.serve_radius, epsabs=1e-12, epsrel=1e-10
        )
    return val


#: (P dBm, C m, lambda, N, rho, a3) at which tests/ and the rows above evaluate
#: the exact integral, plus dense deployments lambda in {0.5, 5} at C = 10, 20.
_INTEGRAL_POINTS = (
    [(p, 10.0, 0.005, n, rho, 2.5) for p in (3.0, 20.0) for n in (20, 200) for rho in (0.0, 0.5)]
    + [
        (20.0, 10.0, 0.005, 200, 0.25, 2.5),
        (30.0, 10.0, 0.05, 200, 0.0, 2.5),
        (40.0, 10.0, 0.005, 400, 0.0, 2.5),
        (30.0, 10.0, 0.05, 400, 0.0, 2.5),
        (3.0, 3.0, 0.005, 200, 0.0, 2.5),
        (3.0, 3.0, 0.005, 400, 0.0, 2.5),
        (3.0, 2.0, 0.005, 100, 0.0, 2.5),
        (-10.0, 10.0, 0.005, 2, 0.0, 2.5),
        (45.0, 10.0, 0.05, 2, 1.0, 4.0),
        (45.0, 20.0, 0.005, 1000, 1.0, 4.0),
        (-150.0, 10.0, 0.005, 200, 0.0, 2.5),
        (20.0, 1e-4, 0.005, 200, 0.0, 2.5),
        (3.0, 10.0, 0.005, 20, 0.0, 2.0),
        (3.0, 10.0, 0.005, 20, 0.0, 4.0),
        (3.0, 10.0, 0.005, 200, 0.0, 4.0),
    ]
    + [(20.0, c, 0.005, 200, 0.0, 2.5) for c in (12.0, 16.0, 20.0)]
    + [(20.0, c, lam, n, 0.5, 2.5) for c in (10.0, 20.0) for lam in (0.5, 5.0) for n in (1, 8)]
)


#: Wide annuli, (P dBm, d_min m, d_max m, lambda, N, rho) at C = 10 m:
#: d_max/d_min = 3, where the annulus axis over ln d^2 keeps the two orders
#: within 1e-13 of each other.
_WIDE_ANNULUS_POINTS = [(p, 100.0, 300.0, 0.005, 200, 0.5) for p in (-10.0, 3.0, 20.0, 45.0)]
_WIDE_ANNULUS_POINTS += [(36.0, 40.0, 120.0, lam, 200, 0.0) for lam in (0.005, 0.05)]


def _check_residual_rule(trials: int, seed: int) -> list[Part]:
    # (P dBm, C, lambda, N, rho, a3, d_min, d_max), on the default annulus or a wide one
    points = [(*point, 180.0, 220.0) for point in _INTEGRAL_POINTS]
    points += [(p, 10.0, lam, n, rho, 2.5, d1, d2) for p, d1, d2, lam, n, rho in _WIDE_ANNULUS_POINTS]
    worst = 0.0
    for p, c, lam, n, rho, a3, d1, d2 in points:
        params = _default_params(tx_power_dbm=p, serve_radius=c, alpha_ris_ue=a3, d_min=d1, d_max=d2)
        rule, _ = spatial_rate._residual_integral(params, n, rho, lam)
        worst = max(worst, abs(float(rule) - dblquad_residual(params, n, rho, lam)))
    return [(worst <= 1e-9, f"max |rule - dblquad| = {worst:.2e} over {len(points)} points")]


def quad_direct(params: SystemParams) -> float:
    """Adaptive quadrature of the direct branch's E_d{log2(1 + snr beta d^-a1)}.

    The oracle of `spatial_rate`'s fixed direct rule, in the original
    variable d, to absolute 1e-12 and relative 1e-10.
    """
    snr_beta = params.snr_gain * params.beta_ref
    a1, d1, d2 = params.alpha_direct, params.d_min, params.d_max
    norm = 2.0 / (d2**2 - d1**2)
    val, _ = integrate.quad(
        lambda d: math.log2(1.0 + snr_beta * d**-a1) * norm * d, d1, d2, epsabs=1e-12, epsrel=1e-10
    )
    return val


def _direct_points():
    """200 seeded (P dBm, a1, d_min, d_max) for the direct rule.

    The box, on the default link otherwise: d_min 1..200 m, d_max - d_min
    1..500 m (d_max/d_min up to 501), P -20..60 dBm, a1 2..4.  The rule's
    worst gap to `quad_direct` is 3.7e-11 and its two-order difference at
    most 3.7e-9, both at d_min near 1 m with d_max/d_min above 240; 2000
    draws of the same stream reach neither further.
    """
    rng = np.random.default_rng(4242)
    for _ in range(200):
        d_min = rng.uniform(1.0, 200.0)
        yield rng.uniform(-20.0, 60.0), rng.uniform(2.0, 4.0), d_min, d_min + rng.uniform(1.0, 500.0)


def _check_direct_rule(trials: int, seed: int) -> list[Part]:
    worst = 0.0
    points = list(_direct_points())
    for p_dbm, a1, d_min, d_max in points:
        params = _default_params(tx_power_dbm=p_dbm, alpha_direct=a1, d_min=d_min, d_max=d_max)
        # lam = 0 leaves the exp(-pi lam C^2) factor at 1
        rule, _ = spatial_rate._direct_term_exact(params, 0.0)
        worst = max(worst, abs(rule - quad_direct(params)))
    return [(worst <= 1e-10, f"max |rule - quad| = {worst:.2e} over {len(points)} points")]


def _closed_form_vs_mc(tx_power_dbm: float, trials: int, seed: int) -> list[Part]:
    params = _default_params(tx_power_dbm=tx_power_dbm)
    mc = monte_carlo.McConfig(trials=trials, master_seed=seed)
    parts = []
    for n, rho in _SPATIAL_POINTS:
        dep = DeploymentParams(density=0.005, elements_per_ris=n)
        closed = spatial_rate.spatial_rate_closed_form(params, dep, rho).total
        est = monte_carlo.simulate_spatial_bound(params, dep, rho, mc)
        gap = abs(closed - est.value)
        tol = max(3 * est.std_error, 0.1)
        parts.append((gap <= tol, f"N={n} rho={rho}: |closed-mc|={gap:.3f} (tol {tol:.3f})"))
    return parts


def _z_score(gap: float, stderr: float) -> float:
    return abs(gap) / stderr if stderr > 0 else (0.0 if gap == 0 else math.inf)


def _check_cosine(trials: int, seed: int) -> list[Part]:
    rng = substream(seed, 12345)
    worst = 0.0
    for rho in (0.25, 0.5, 1.0):
        t1 = rng.uniform(-rho * math.pi, rho * math.pi, trials)
        t2 = rng.uniform(-rho * math.pi, rho * math.pi, trials)
        vals = np.cos(t1 - t2)
        gap = vals.mean() - phase_error.expected_cos_diff(rho)
        worst = max(worst, _z_score(gap, vals.std(ddof=1) / math.sqrt(trials)))
    detail = f"pairwise cosine moment: worst |gap|/stderr={worst:.2f} (bound 3)"
    return [(worst <= 3.0, detail)]


def _check_moments(trials: int, seed: int) -> list[Part]:
    mc = monte_carlo.McConfig(trials=trials, master_seed=seed)
    parts = []
    worst = 0.0
    for rho in (0.25, 0.5, 1.0):
        m = phase_error.attenuation_factor(rho)
        s2 = math.sin(rho * math.pi) ** 2 / (16.0 * rho * rho)
        for n in (1, 16, 64):
            got = monte_carlo.estimate_reflection_moments(n, rho, mc)
            gap_re = got.mean_re_z - m * n
            gap_abs = got.mean_abs_z_sq - (n + s2 * n * (n - 1))
            ok_re = abs(gap_re) <= 3 * got.stderr_re_z + 1e-12
            ok_abs = abs(gap_abs) <= 3 * got.stderr_abs_z_sq
            worst = max(
                worst,
                _z_score(gap_re, got.stderr_re_z),
                _z_score(gap_abs, got.stderr_abs_z_sq),
            )
            if not (ok_re and ok_abs):
                parts.append((False, f"moment mismatch at rho={rho}, N={n}"))
    parts.append((not parts, f"aggregate moments: worst |gap|/stderr={worst:.2f} (bound 3)"))
    return parts


def _check_sampler_ks(trials: int, seed: int) -> list[Part]:
    from scipy import stats  # ~0.4 s to import; only this row needs it

    lam = 0.02
    n = min(trials, 30000)
    rng = substream(seed, 31)
    direct = monte_carlo.sample_nearest_distance(lam, rng, n)
    radius = monte_carlo.hppp_window_radius(lam, 10.0)
    scatter = []
    rng2 = substream(seed, 32)
    while len(scatter) < n:
        s = monte_carlo.sample_hppp_nearest(lam, radius, rng2)
        if s is not None:
            scatter.append(s)
    stat = stats.ks_2samp(direct, np.asarray(scatter)).statistic
    crit = 1.628 * math.sqrt(2.0 / n)  # 1% two-sample critical value
    return [(stat < crit, f"KS={stat:.4f} crit(1%)={crit:.4f}")]


CHECKS = [
    Check("ei_quadrature_agreement", False, 10, _check_ei),
    Check("gamma_quadrature_agreement", False, 10, _check_gamma),
    Check("power_integral_continuity", False, 10, _check_power_integral),
    Check("euler_constant_limit", False, None, _check_euler),
    Check("attenuation_identities", False, None, _check_attenuation),
    Check("diff_density_normalization", False, None, _check_diff_density),
    Check("association_probability_values", False, 2, _check_association),
    Check("log_moment_quadrature", False, None, _check_log_moments),
    Check("annulus_moment_quadrature", False, None, _check_annulus_moments),
    Check("breakdown_resum", False, None, _check_breakdown),
    Check("rate_loss_saturation", False, 4, _check_rate_loss),
    Check("compensation_invariance", False, 3, _check_invariance),
    Check("optimizer_anchor_points", False, 1, _check_optimizer_anchor),
    Check("optimizer_grid_spot", False, 8, _check_optimizer_grid),
    Check("optimizer_closed_form_product", False, 8, _check_optimizer_product),
    Check("mc_worker_determinism", False, None, _check_determinism),
    Check("jensen_bound_dominance", True, 5, _check_jensen),
    Check("spatial_closed_vs_integral", False, 6, _check_spatial_integral),
    Check("residual_rule_vs_dblquad", False, None, _check_residual_rule),
    Check("direct_rule_vs_quad", False, None, _check_direct_rule),
    Check("spatial_closed_vs_mc_high_snr", True, 6, lambda t, s: _closed_form_vs_mc(20.0, t, s)),
    Check("spatial_closed_vs_mc_low_snr", True, 7, lambda t, s: _closed_form_vs_mc(3.0, t, s)),
    Check("pairwise_cosine_3sigma", True, 9, _check_cosine),
    Check("reflection_moments_3sigma", True, 9, _check_moments),
    Check("nearest_distance_probability", True, 2, _check_nearest),
    Check("sampler_ks_agreement", True, None, _check_sampler_ks),
]


def run_criterion(number: int) -> list[Part]:
    """The parts of one acceptance criterion's rows at its pinned draws."""
    crit = CRITERIA[number]
    return [
        part
        for check in CHECKS
        if check.criterion == number
        for part in check.run(crit.trials, crit.seed)
    ]


def run_all(trials: int, seed: int) -> list[CheckResult]:
    """Every row; a Monte-Carlo row runs min(trials, its criterion's count)."""
    results = []
    for check in CHECKS:
        pinned = CRITERIA[check.criterion].trials if check.criterion else 0
        try:
            parts = check.run(min(trials, pinned) if pinned else trials, seed)
        except Exception as exc:  # a crashed check is a failed check
            results.append(
                CheckResult(check.check_id, False, False, f"raised {type(exc).__name__}: {exc}")
            )
            continue
        ok = all(p[0] for p in parts)
        detail = "; ".join(p[1] for p in parts)
        results.append(CheckResult(check.check_id, ok, check.statistical, detail))
    return results
