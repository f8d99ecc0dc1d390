"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; criteria
carry their stated tolerances and runtime budgets.  Criteria 6 and 7 hold the
one Jensen-tightened spatial closed form to the integral and to Monte-Carlo at
20 and 3 dBm, a 10 m serving radius and N = 20 and 200.  Criterion 3 checks the compensation
factors of `compensation()`: both routes are exact on the large-array
asymptote, element compensation on the full bound at N = 200, and power
compensation on the full bound only inside the asymptote's regime; the
N = 200 power-route gap is printed, and the asymptote must flag that point.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
from scipy import integrate

from risgeo.deployment import (
    OptimizerRegime,
    deployment_objective,
    grid_search_oracle,
    optimize_density,
)
from risgeo.errors import RegimeWarning
from risgeo.monte_carlo import (
    McConfig,
    estimate_reflection_moments,
    sample_nearest_distance,
    simulate_fixed_rate,
    simulate_spatial_bound,
)
from risgeo.params import DeploymentParams, LinkGeometry, SystemParams
from risgeo.phase_error import attenuation_factor
from risgeo.rate_bounds import compensation, rate_asymptotic, rate_bound_ris
from risgeo.rate_loss import rate_loss
from risgeo.spatial_rate import (
    association_probability,
    spatial_rate_closed_form,
    spatial_rate_integral,
)
from risgeo.special_math import exp_integral_ei, lower_incomplete_gamma, power_integral
from risgeo.streams import substream


def baseline_params(**overrides):
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


def report(number, name, parts, budget_s, elapsed):
    ok = all(p[0] for p in parts) and elapsed <= budget_s
    detail = "; ".join(p[1] for p in parts)
    line = (
        f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.1f}s/{budget_s:.0f}s) {detail}"
    )
    print(line)
    assert ok, line


def test_criterion_01_budget_optimum():
    start = time.perf_counter()
    params = baseline_params(
        tx_power_dbm=15.0, alpha_ris_ue=2.0, serve_radius=3.0
    )
    opt = optimize_density(10.0, params, 1.0, OptimizerRegime(snr="high", phase="random"))
    parts = [(opt.n_star == 45, f"n_star={opt.n_star} (want 45, branch={opt.branch})")]
    report(1, "budget optimum", parts, 1.0, time.perf_counter() - start)


def test_criterion_02_association_probabilities():
    start = time.perf_counter()
    parts = []
    p12 = association_probability(0.005, 12.0)
    p16 = association_probability(0.005, 16.0)
    parts.append((round(p12, 3) == 0.896, f"P(r<12)={p12:.4f}"))
    parts.append((round(p16, 3) == 0.982, f"P(r<16)={p16:.4f}"))
    n = 10**6
    r = sample_nearest_distance(0.005, substream(2024, 0), n)
    for radius, p in ((12.0, p12), (16.0, p16)):
        frac = float(np.mean(r <= radius))
        se = math.sqrt(p * (1.0 - p) / n)
        parts.append((abs(frac - p) <= 3 * se, f"mc(r<{radius:.0f})={frac:.4f}"))
    report(2, "association probabilities", parts, 5.0, time.perf_counter() - start)


def test_criterion_03_compensation_invariance():
    start = time.perf_counter()
    parts = []
    params = baseline_params()
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    comp = compensation(0.0, 0.5)
    factor = comp["element_factor"]
    boosted = baseline_params(tx_power_dbm=10.0 + comp["power_delta_db"])

    # Both routes keep xi = m^2 N^2 snr, so the large-array asymptote is exact.
    base_asym = rate_asymptotic(params, geom, 200.0, 0.0)
    via_p = rate_asymptotic(boosted, geom, 200.0, 0.5)
    gap_n = abs(rate_asymptotic(params, geom, 200.0 * factor, 0.5).value - base_asym.value)
    gap_p = abs(via_p.value - base_asym.value)
    parts.append((gap_n < 1e-12, f"asymptote N-route gap={gap_n:.2e}"))
    parts.append((gap_p < 1e-12, f"asymptote P-route gap={gap_p:.2e}"))

    # Element compensation is exact on the full bound; power compensation is
    # not, since the cross and direct terms do not scale with xi.  At N = 200
    # the asymptote flags the point as below its large-array threshold.
    base_full = rate_bound_ris(params, geom, 200, 0.0).value
    full_n = rate_bound_ris(params, geom, round(200 * factor), 0.5).value
    full_p = rate_bound_ris(boosted, geom, 200, 0.5).value
    parts.append((abs(full_n - base_full) <= 0.05, f"full-bound N-route gap={abs(full_n-base_full):.4f}"))
    flagged = base_asym.warning is not None and via_p.warning is not None
    parts.append((flagged, f"N=200 full-bound P-route gap={abs(full_p-base_full):.4f} (asymptote flags N=200: {flagged})"))

    # Inside the asymptote's regime the power route holds on the full bound:
    # 10x the first N at which neither operating point is flagged.  A wrong
    # power factor leaves a constant log2 offset there too.
    n_first = next(
        n for n in itertools.count(1)
        if rate_asymptotic(params, geom, n, 0.0).warning is None
        and rate_asymptotic(boosted, geom, n, 0.5).warning is None
    )
    n_deep = 10 * n_first
    gap_deep = abs(
        rate_bound_ris(boosted, geom, n_deep, 0.5).value
        - rate_bound_ris(params, geom, n_deep, 0.0).value
    )
    parts.append((gap_deep <= 0.05, f"N={n_deep} full-bound P-route gap={gap_deep:.4f}"))
    report(3, "compensation invariance", parts, 1.0, time.perf_counter() - start)


def test_criterion_04_rate_loss_saturation():
    start = time.perf_counter()
    parts = []
    lam, c = 0.05, 10.0
    assoc = association_probability(lam, c)
    limit = assoc * math.log2(math.pi**2 / 4.0)
    got = rate_loss(10**4, 0.5, lam, c)
    parts.append(
        (abs(got - limit) <= 1e-3 and abs(limit - 1.303) <= 1e-3,
         f"loss(1e4,0.5)={got:.6f} limit={limit:.6f}")
    )
    # desk-scale curve: full closed-form loss (array-gain + residual)
    params = baseline_params(tx_power_dbm=15.0, serve_radius=c)
    for rho, n, quoted in ((0.25, 40, 0.3), (0.5, 120, 1.2), (0.6, 160, 1.8)):
        dep = DeploymentParams(density=lam, elements_per_ris=n)
        ideal = spatial_rate_closed_form(params, dep, 0.0)
        impaired = spatial_rate_closed_form(params, dep, rho)
        loss = ideal.total - impaired.total
        parts.append(
            (abs(loss - quoted) <= 0.1, f"loss(N={n},rho={rho})={loss:.3f} vs {quoted}")
        )
    report(4, "rate-loss saturation", parts, 1.0, time.perf_counter() - start)


def test_criterion_05_fixed_bound_tightness():
    start = time.perf_counter()
    parts = []
    params = baseline_params()
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    mc = McConfig(trials=100_000, master_seed=55)
    for rho in (0.0, 0.25, 0.5):
        bound = rate_bound_ris(params, geom, 200, rho).value
        est = simulate_fixed_rate(params, geom, 200, rho, mc)
        below = est.value <= bound + 3 * est.std_error
        tight = bound - est.value <= 0.3
        parts.append(
            (below and tight, f"rho={rho}: bound={bound:.4f} mc={est.value:.4f} gap={bound-est.value:.4f}")
        )
    report(5, "fixed-geometry bound tightness", parts, 30.0, time.perf_counter() - start)


def test_criterion_06_spatial_high_snr_triangle():
    start = time.perf_counter()
    parts = []
    params = baseline_params(tx_power_dbm=20.0)
    mc = McConfig(trials=1_000_000, master_seed=66)
    for n in (20, 200):
        for rho in (0.0, 0.5):
            dep = DeploymentParams(density=0.005, elements_per_ris=n)
            quad = spatial_rate_integral(params, dep, rho).total
            closed = spatial_rate_closed_form(params, dep, rho).total
            mcb = simulate_spatial_bound(params, dep, rho, mc)
            gap_ic = abs(quad - closed)
            gap_cm = abs(closed - mcb.value)
            tol_cm = max(3 * mcb.std_error, 0.1)
            parts.append(
                (gap_ic <= 0.1, f"N={n} rho={rho}: |int-closed|={gap_ic:.3f}")
            )
            parts.append(
                (gap_cm <= tol_cm, f"N={n} rho={rho}: |closed-mc|={gap_cm:.3f} (tol {tol_cm:.3f})")
            )
    report(6, "closed-form triangle at high SNR", parts, 120.0, time.perf_counter() - start)


def test_criterion_07_spatial_low_snr_vs_mc():
    start = time.perf_counter()
    parts = []
    params = baseline_params(tx_power_dbm=3.0)
    mc = McConfig(trials=1_000_000, master_seed=77)
    for n in (20, 200):
        for rho in (0.0, 0.5):
            dep = DeploymentParams(density=0.005, elements_per_ris=n)
            closed = spatial_rate_closed_form(params, dep, rho).total
            mcb = simulate_spatial_bound(params, dep, rho, mc)
            gap = abs(closed - mcb.value)
            tol = max(3 * mcb.std_error, 0.1)
            parts.append(
                (gap <= tol, f"N={n} rho={rho}: |closed-mc|={gap:.3f} (tol {tol:.3f})")
            )
    report(7, "closed form vs MC at low SNR", parts, 120.0, time.perf_counter() - start)


def test_criterion_08_optimizer_cross_validation():
    start = time.perf_counter()
    parts = []
    rng = np.random.default_rng(2718)
    regimes = (
        (OptimizerRegime(snr="high", phase="bounded"), "bounded"),
        (OptimizerRegime(snr="high", phase="random"), "random"),
        (OptimizerRegime(snr="low", phase="bounded"), "bounded"),
        (OptimizerRegime(snr="low", phase="random"), "random"),
    )
    worst = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for regime, mode in regimes:
            for _ in range(20):
                if regime.snr == "high":
                    a3 = rng.uniform(2.1, 3.9)
                    c = rng.uniform(2.0, 12.0)
                    eta = rng.uniform(1.0, 20.0)
                    p_dbm = rng.uniform(25.0, 40.0)
                    rho = 1.0 if mode == "random" else rng.uniform(0.0, 0.8)
                else:
                    a3 = rng.uniform(2.1, 3.5)
                    c = rng.uniform(2.0, 4.0)
                    eta = rng.uniform(5.0, 20.0)
                    p_dbm = rng.uniform(0.0, 6.0)
                    rho = 1.0 if mode == "random" else rng.uniform(0.0, 0.5)
                params = baseline_params(
                    tx_power_dbm=p_dbm,
                    beta_db=-rng.uniform(25.0, 35.0),
                    alpha_ris_ue=a3,
                    serve_radius=c,
                )
                opt = optimize_density(eta, params, rho, regime)
                n_max = min(max(64, 2 * opt.n_star), 4096)
                oracle = grid_search_oracle(eta, params, rho, regime, n_max)
                worst = max(worst, oracle.objective - opt.objective)
        parts.append((worst <= 0.02, f"max (grid - dispatched) objective gap = {worst:.4f}"))

        mono_params = baseline_params(tx_power_dbm=15.0, alpha_ris_ue=3.0, serve_radius=3.0)
        o3 = optimize_density(10.0, mono_params, 1.0, OptimizerRegime(snr="high", phase="random"))
        parts.append((o3.n_star == 1, f"monotone random-phase case: n_star={o3.n_star}"))

        ideal_exp = baseline_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0)
        o1 = optimize_density(10.0, ideal_exp, 0.25, OptimizerRegime(snr="high", phase="bounded"))
        m = attenuation_factor(0.25)
        scale = math.exp(0.5 * (o1.d_constant * math.log(2.0) + math.log(ideal_exp.beta_ref)))
        product = (m * 10.0 / 25.0 * scale) * (25.0 / (m * scale))
        parts.append(
            (math.isclose(product, 10.0, rel_tol=1e-12), f"closed-form product={product!r}")
        )
    report(8, "optimizer cross-validation", parts, 60.0, time.perf_counter() - start)


def test_criterion_09_reflection_moments():
    start = time.perf_counter()
    parts = []
    mc = McConfig(trials=1_000_000, master_seed=99)
    rng = substream(99, 12345)
    ok_cos = True
    for rho in (0.25, 0.5, 1.0):
        t1 = rng.uniform(-rho * math.pi, rho * math.pi, 10**6)
        t2 = rng.uniform(-rho * math.pi, rho * math.pi, 10**6)
        vals = np.cos(t1 - t2)
        want = (math.sin(math.pi * rho) / (math.pi * rho)) ** 2
        se = vals.std(ddof=1) / 1e3
        ok_cos &= abs(vals.mean() - want) <= 3 * se
    parts.append((ok_cos, "pairwise cosine moment within 3 sigma"))
    for rho in (0.25, 0.5, 1.0):
        m = attenuation_factor(rho)
        s2 = math.sin(rho * math.pi) ** 2 / (16.0 * rho * rho)
        for n in (1, 16, 64):
            got = estimate_reflection_moments(n, rho, mc)
            ok_re = abs(got.mean_re_z - m * n) <= 3 * got.stderr_re_z + 1e-12
            want_abs = n + s2 * n * (n - 1)
            ok_abs = abs(got.mean_abs_z_sq - want_abs) <= 3 * got.stderr_abs_z_sq
            if not (ok_re and ok_abs):
                parts.append((False, f"moment mismatch at rho={rho}, N={n}"))
    parts.append((True, "aggregate moments within 3 sigma at all rho, N"))
    report(9, "reflection moments", parts, 60.0, time.perf_counter() - start)


def test_criterion_10_special_function_fidelity():
    start = time.perf_counter()
    parts = []
    # disk arguments reachable in the operating box: pi * lam * C^2 for
    # lam in [0.005, 0.05], C in [3, 20]
    worst_ei = 0.0
    for x in (-0.14, -0.5, -1.5708, -2.262, -6.28, -15.708, -22.6, -62.8):
        oracle, _ = integrate.quad(
            lambda u: math.exp(-u) / u, -x, np.inf, epsabs=1e-13, epsrel=1e-13
        )
        worst_ei = max(worst_ei, abs(exp_integral_ei(x) + oracle))
    parts.append((worst_ei <= 1e-9, f"max Ei gap={worst_ei:.2e}"))
    worst_g = 0.0
    for a in (1.625, 2.25, 3.0):
        for x in (0.14, 1.5708, 15.708, 62.8):
            oracle, _ = integrate.quad(
                lambda t: math.exp(-t) * t ** (a - 1.0), 0.0, x, epsabs=1e-14, epsrel=1e-13
            )
            worst_g = max(worst_g, abs(lower_incomplete_gamma(a, x) - oracle))
    parts.append((worst_g <= 1e-9, f"max gamma gap={worst_g:.2e}"))
    worst_p = 0.0
    for a, b in ((180.0, 220.0), (1.0, 20.0)):
        for eps in (1e-9, -1e-9):
            worst_p = max(worst_p, abs(power_integral(-1.0 + eps, a, b) - math.log(b / a)))
    parts.append((worst_p <= 1e-6, f"power-integral continuity gap={worst_p:.2e}"))
    report(10, "special-function fidelity", parts, 10.0, time.perf_counter() - start)
