"""Named self-checks behind the `validate` command.

Each check recomputes a closed form against an independent oracle
(quadrature, exhaustive grid, or Monte-Carlo at 3-sigma).  Checks marked
statistical can flake at roughly the 3-sigma rate; the report labels them
so a single flake is distinguishable from a hard failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, stats

from . import deployment, monte_carlo, phase_error, rate_bounds, spatial_rate
from .rate_loss import rate_loss, rate_loss_asymptote
from .params import DeploymentParams, LinkGeometry, SystemParams
from .special_math import euler_constant, exp_integral_ei, lower_incomplete_gamma, power_integral
from .streams import substream


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    statistical: bool
    detail: str


def _default_params(**overrides) -> SystemParams:
    base = dict(
        tx_power_dbm=10.0,
        noise_dbm=-80.0,
        beta_db=-30.0,
        alpha_direct=3.0,
        alpha_bs_ris=2.0,
        alpha_ris_ue=2.5,
        d_min=180.0,
        d_max=220.0,
        serve_radius=10.0,
    )
    base.update(overrides)
    return SystemParams.from_engineering(**base)


def _ei_oracle(x: float) -> float:
    val, _ = integrate.quad(lambda u: math.exp(-u) / u, -x, np.inf, epsabs=1e-13, epsrel=1e-12)
    return -val


def _check_ei(trials: int, seed: int) -> CheckResult:
    worst = 0.0
    for x in (-0.1, -0.5, -1.0, -2.261946711, -8.0, -16.0):
        worst = max(worst, abs(exp_integral_ei(x) - _ei_oracle(x)))
    return CheckResult(
        "ei_quadrature_agreement", worst <= 1e-9, False, f"max |Ei - quad| = {worst:.3e}"
    )


def _check_gamma(trials: int, seed: int) -> CheckResult:
    worst = 0.0
    for a in (0.5, 1.625, 2.25, 4.0):
        for x in (0.25, 1.5708, 6.0, 15.708):
            oracle, _ = integrate.quad(
                lambda t: math.exp(-t) * t ** (a - 1.0), 0.0, x, epsabs=1e-13, epsrel=1e-12
            )
            worst = max(worst, abs(lower_incomplete_gamma(a, x) - oracle))
    return CheckResult(
        "gamma_quadrature_agreement", worst <= 1e-9, False, f"max |gamma - quad| = {worst:.3e}"
    )


def _check_power_integral(trials: int, seed: int) -> CheckResult:
    worst = 0.0
    for a, b in ((180.0, 220.0), (1.0, 3.0), (0.5, 40.0)):
        ref = math.log(b / a)
        for eps in (1e-9, -1e-9):
            worst = max(worst, abs(power_integral(-1.0 + eps, a, b) - ref))
    return CheckResult(
        "power_integral_continuity", worst <= 1e-6, False, f"max gap at p=-1: {worst:.3e}"
    )


def _check_euler(trials: int, seed: int) -> CheckResult:
    worst = 0.0
    for eps in (1e-6, 1e-7, 1e-8):
        worst = max(worst, abs(exp_integral_ei(-eps) + math.log(1.0 / eps) - euler_constant()))
    ok = worst < 1e-5 and 0.5 < euler_constant() < 0.6
    return CheckResult("euler_constant_limit", ok, False, f"limit residual {worst:.3e}")


def _check_attenuation(trials: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rho in rng.uniform(1e-6, 1.0, 100):
        m = phase_error.attenuation_factor(rho)
        worst = max(worst, abs(4.0 * rho * m - math.sin(rho * math.pi)))
        worst = max(
            worst,
            abs(phase_error.expected_cos_diff(rho) - 16.0 * m * m / math.pi**2),
        )
    return CheckResult("attenuation_identities", worst <= 1e-12, False, f"max residual {worst:.3e}")


def _check_diff_density(trials: int, seed: int) -> CheckResult:
    worst = 0.0
    for rho in (0.1, 0.4, 1.0):
        total, _ = integrate.quad(
            lambda z: phase_error.error_difference_pdf(rho, z),
            -2 * rho * math.pi,
            2 * rho * math.pi,
            epsabs=1e-12,
        )
        worst = max(worst, abs(total - 1.0))
    return CheckResult("diff_density_normalization", worst <= 1e-9, False, f"max |int - 1| = {worst:.3e}")


def _check_association(trials: int, seed: int) -> CheckResult:
    p12 = spatial_rate.association_probability(0.005, 12.0)
    p16 = spatial_rate.association_probability(0.005, 16.0)
    quad12, _ = integrate.quad(lambda r: spatial_rate.nearest_ris_pdf(0.005, r), 0, 12.0)
    ok = (
        round(p12, 3) == 0.896
        and round(p16, 3) == 0.982
        and abs(p12 - quad12) < 1e-9
    )
    return CheckResult(
        "association_probability_values", ok, False, f"P(r<12)={p12:.4f} P(r<16)={p16:.4f}"
    )


def _check_log_moments(trials: int, seed: int) -> CheckResult:
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
        oracle, _ = integrate.quad(
            lambda d: math.log2(d) * 2 * d / (d2**2 - d1**2), d1, d2, epsabs=1e-13
        )
        worst = max(worst, abs(spatial_rate.expected_log2_d(d1, d2) - oracle))
    return CheckResult("log_moment_quadrature", worst <= 1e-8, False, f"max gap {worst:.3e}")


def _check_annulus_moments(trials: int, seed: int) -> CheckResult:
    params = _default_params()
    worst = 0.0
    for which, p in ((1, -0.5), (2, -1.0), (3, 2.0)):
        oracle, _ = integrate.quad(
            lambda d: d**p * 2 * d / (params.d_max**2 - params.d_min**2),
            params.d_min,
            params.d_max,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        got = spatial_rate.annulus_moment(which, params)
        worst = max(worst, abs(got - oracle) / abs(oracle))
    return CheckResult("annulus_moment_quadrature", worst <= 1e-9, False, f"max rel gap {worst:.3e}")


def _check_breakdown(trials: int, seed: int) -> CheckResult:
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
    return CheckResult("breakdown_resum", worst <= 1e-9, False, f"max residual {worst:.3e}")


def _check_jensen(trials: int, seed: int) -> CheckResult:
    params = _default_params()
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    mc = monte_carlo.McConfig(trials=min(trials, 20000), master_seed=seed)
    worst = -np.inf
    for rho in (0.0, 0.5, 1.0):
        bound = rate_bounds.rate_bound_ris(params, geom, 64, rho).value
        est = monte_carlo.simulate_fixed_rate(params, geom, 64, rho, mc)
        worst = max(worst, est.value - 3 * est.std_error - bound)
    return CheckResult(
        "jensen_bound_dominance", worst <= 0.0, True, f"max (mc - 3se - bound) = {worst:.4f}"
    )


def _check_moments(trials: int, seed: int) -> CheckResult:
    mc = monte_carlo.McConfig(trials=min(trials, 200000), master_seed=seed + 1)
    fails = []
    for rho in (0.25, 0.5, 1.0):
        for n in (1, 16):
            m = phase_error.attenuation_factor(rho)
            got = monte_carlo.estimate_reflection_moments(n, rho, mc)
            want_re = m * n
            s2 = math.sin(rho * math.pi) ** 2 / (16 * rho * rho)
            want_abs = n + s2 * n * (n - 1)
            if abs(got.mean_re_z - want_re) > 3 * got.stderr_re_z + 1e-12:
                fails.append(f"Re(z) rho={rho} N={n}")
            if abs(got.mean_abs_z_sq - want_abs) > 3 * got.stderr_abs_z_sq + 1e-12:
                fails.append(f"|z|^2 rho={rho} N={n}")
    return CheckResult(
        "reflection_moments_3sigma", not fails, True, "; ".join(fails) or "all within 3 sigma"
    )


def _check_nearest(trials: int, seed: int) -> CheckResult:
    rng = substream(seed, 977)
    n = min(trials, 1_000_000)
    r = monte_carlo.sample_nearest_distance(0.005, rng, n)
    frac = float(np.mean(r <= 12.0))
    p = spatial_rate.association_probability(0.005, 12.0)
    se = math.sqrt(p * (1 - p) / n)
    ok = abs(frac - p) <= 3 * se
    return CheckResult(
        "nearest_distance_probability", ok, True, f"empirical {frac:.4f} vs {p:.4f} (3se={3*se:.2e})"
    )


def _check_sampler_ks(trials: int, seed: int) -> CheckResult:
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
    return CheckResult(
        "sampler_ks_agreement", stat < crit, True, f"KS={stat:.4f} crit(1%)={crit:.4f}"
    )


def _check_optimizer_anchor(trials: int, seed: int) -> CheckResult:
    params = _default_params(alpha_ris_ue=2.0, serve_radius=3.0, tx_power_dbm=15.0)
    regime = deployment.OptimizerRegime(snr="high", phase="random")
    opt = deployment.optimize_density(10.0, params, 1.0, regime)
    params25 = _default_params(alpha_ris_ue=2.5, serve_radius=3.0, tx_power_dbm=15.0)
    opt25 = deployment.optimize_density(10.0, params25, 1.0, regime)
    ok = opt.n_star == 45 and opt25.n_star == 1
    return CheckResult(
        "optimizer_anchor_points", ok, False, f"N*(a3=2)={opt.n_star} N*(a3=2.5)={opt25.n_star}"
    )


def _check_optimizer_grid(trials: int, seed: int) -> CheckResult:
    params = _default_params(tx_power_dbm=30.0, serve_radius=6.0, alpha_ris_ue=3.0)
    regime = deployment.OptimizerRegime(snr="high", phase="bounded")
    opt = deployment.optimize_density(10.0, params, 0.25, regime)
    oracle = deployment.grid_search_oracle(
        10.0, params, 0.25, regime, n_max=max(64, 4 * opt.n_star)
    )
    gap = oracle.objective - opt.objective
    return CheckResult("optimizer_grid_spot", gap <= 0.02, False, f"grid - dispatched = {gap:.4f}")


def _check_determinism(trials: int, seed: int) -> CheckResult:
    params = _default_params()
    dep = DeploymentParams(density=0.005, elements_per_ris=32)
    runs = [
        monte_carlo.simulate_spatial_bound(
            params, dep, 0.5, monte_carlo.McConfig(trials=9000, master_seed=seed, workers=w)
        )
        for w in (1, 2, 8)
    ]
    ok = all(r.value == runs[0].value and r.std_error == runs[0].std_error for r in runs)
    return CheckResult("mc_worker_determinism", ok, False, f"values={[r.value for r in runs]}")


def _check_invariance(trials: int, seed: int) -> CheckResult:
    params = _default_params()
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    base = rate_bounds.rate_asymptotic(params, geom, 200.0, 0.0).value
    scaled_n = rate_bounds.rate_asymptotic(params, geom, 200.0 * math.pi / 2.0, 0.5).value
    boosted = SystemParams(
        tx_power=params.tx_power * math.pi**2 / 4.0,
        noise_power=params.noise_power,
        beta_ref=params.beta_ref,
        alpha_direct=params.alpha_direct,
        alpha_bs_ris=params.alpha_bs_ris,
        alpha_ris_ue=params.alpha_ris_ue,
        d_min=params.d_min,
        d_max=params.d_max,
        serve_radius=params.serve_radius,
    )
    scaled_p = rate_bounds.rate_asymptotic(boosted, geom, 200.0, 0.5).value
    worst = max(abs(base - scaled_n), abs(base - scaled_p))
    return CheckResult("compensation_invariance", worst <= 1e-12, False, f"max gap {worst:.3e}")


def _check_rate_loss(trials: int, seed: int) -> CheckResult:
    asym = rate_loss_asymptote(0.5, 0.05, 10.0)
    big = rate_loss(10**4, 0.5, 0.05, 10.0)
    alt = spatial_rate.association_probability(0.05, 10.0) * math.log2(
        math.pi**2 * 0.25 / math.sin(math.pi * 0.5) ** 2
    )
    ok = abs(asym - big) < 1e-3 and abs(asym - alt) < 1e-12
    return CheckResult(
        "rate_loss_saturation", ok, False, f"loss(1e4)={big:.6f} asym={asym:.6f}"
    )


_CHECKS: list[Callable[[int, int], CheckResult]] = [
    _check_ei,
    _check_gamma,
    _check_power_integral,
    _check_euler,
    _check_attenuation,
    _check_diff_density,
    _check_association,
    _check_log_moments,
    _check_annulus_moments,
    _check_breakdown,
    _check_rate_loss,
    _check_invariance,
    _check_optimizer_anchor,
    _check_optimizer_grid,
    _check_determinism,
    _check_jensen,
    _check_moments,
    _check_nearest,
    _check_sampler_ks,
]


def run_all(trials: int, seed: int) -> list[CheckResult]:
    results = []
    for check in _CHECKS:
        try:
            results.append(check(trials, seed))
        except Exception as exc:  # a crashed check is a failed check
            name = check.__name__.lstrip("_")
            results.append(CheckResult(name, False, False, f"raised {type(exc).__name__}: {exc}"))
    return results
