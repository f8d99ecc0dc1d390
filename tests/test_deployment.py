import collections
import dataclasses
import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from risgeo import deployment
from risgeo.deployment import (
    DeploymentOptimum,
    OptimizerRegime,
    deployment_objective,
    grid_search_oracle,
    objective_offset,
    objective_slope,
    optimize_density,
)
from risgeo.errors import DomainError, NumericError, RegimeWarning
from risgeo.params import SystemParams
from risgeo.phase_error import attenuation_factor
from risgeo.spatial_rate import annulus_distance_moment, array_gain_term, noise_residual_term
from risgeo.special_math import exp_integral_ei, lower_incomplete_gamma
from risgeo.validation import OPTIMIZER_RANGES, _optimizer_instances

LN2 = math.log(2.0)


def make_params(
    tx_power_dbm=15.0,
    beta_db=-30.0,
    alpha_direct=3.0,
    alpha_bs_ris=2.0,
    alpha_ris_ue=2.0,
    serve_radius=3.0,
):
    return SystemParams.from_engineering(
        tx_power_dbm=tx_power_dbm,
        noise_dbm=-80.0,
        beta_db=beta_db,
        alpha_direct=alpha_direct,
        alpha_bs_ris=alpha_bs_ris,
        alpha_ris_ue=alpha_ris_ue,
        d_min=180.0,
        d_max=220.0,
        serve_radius=serve_radius,
    )


HIGH_RANDOM = OptimizerRegime(snr="high", phase="random")
HIGH_BOUNDED = OptimizerRegime(snr="high", phase="bounded")
LOW_RANDOM = OptimizerRegime(snr="low", phase="random")
LOW_BOUNDED = OptimizerRegime(snr="low", phase="bounded")


def prepared_slope(lam, eta, params, rho, regime, prepared=None):
    """The scaled slope factor through `prepared`, or through a fresh preparation."""
    if prepared is None:
        prepared = deployment._prepare(eta, params, rho, regime)
    return prepared.slope(lam)


def criterion8_instances():
    """Eight seeded draws per regime over the criterion-8 parameter ranges."""
    rng = np.random.default_rng(42)
    for regime in (HIGH_BOUNDED, HIGH_RANDOM, LOW_BOUNDED, LOW_RANDOM):
        box = OPTIMIZER_RANGES[regime.snr]
        for _ in range(8):
            beta_db = -rng.uniform(*box["loss_db"])
            a3, c, eta, p_dbm = (rng.uniform(*box[key]) for key in ("a3", "c", "eta", "p_dbm"))
            rho = 1.0 if regime.phase == "random" else rng.uniform(*box["rho"])
            params = make_params(
                tx_power_dbm=p_dbm,
                beta_db=beta_db,
                alpha_ris_ue=a3,
                serve_radius=c,
            )
            yield regime, rho, eta, params


def test_criterion8_instances_unchanged():
    # both instance lists read one range table, each with its own seed and
    # draw order; the digests pin every instance as drawn before they shared it
    def digest(rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def fields(params):
        return [float(v).hex() for v in dataclasses.astuple(params)]

    validated = [(regime.snr, regime.phase, float(eta).hex(), float(rho).hex(), fields(params), n_max(100))
                 for regime, eta, rho, params, n_max in _optimizer_instances()]
    tested = [(regime.snr, regime.phase, float(rho).hex(), float(eta).hex(), fields(params))
              for regime, rho, eta, params in criterion8_instances()]
    assert (len(validated), digest(validated)) == (
        81, "5792b0e39391b5d4aee4dd8df894b1ee71324791d00e664f384a446464f84118")
    assert (len(tested), digest(tested)) == (
        32, "7638f0cffaec2d46386243b47915dbfe36e00b64ae8d860f71f28ec7b9abcad3")


class TestObjectiveOffset:
    def test_matched_exponents_vanish(self):
        params = make_params(alpha_direct=2.0, alpha_bs_ris=2.0)
        assert objective_offset(params, HIGH_BOUNDED) == 0.0

    def test_annulus_value(self):
        params = make_params()
        assert objective_offset(params, HIGH_BOUNDED) == pytest.approx(
            7.646263092900027, rel=1e-12
        )

    def test_low_snr_term_assembly(self):
        params = make_params(tx_power_dbm=3.0)
        bracket = 7.646263092900027  # E[log2 d] over the annulus
        direct_moment = 2.0 * (220.0**-1 - 180.0**-1) / (-1.0 * 16000.0)
        want = (
            math.log2(params.snr_gain * params.beta_ref**2)
            - 2.0 * bracket
            - params.snr_gain * params.beta_ref * direct_moment / LN2
        )
        assert objective_offset(params, LOW_BOUNDED) == pytest.approx(want, rel=1e-12)


class TestObjectiveSlope:
    def test_vanishes_at_zero_density(self):
        params = make_params(alpha_ris_ue=2.5)
        assert abs(objective_slope(1e-12, 10.0, params, 0.25, HIGH_BOUNDED)) < 1e-6

    def test_random_phase_root_location(self):
        # with a 1/r^2 access exponent the root is 2^offset * beta * eta / C^2
        params = make_params()
        offset = objective_offset(params, HIGH_RANDOM)
        root = math.exp(offset * LN2) * params.beta_ref * 10.0 / 9.0
        assert abs(objective_slope(root, 10.0, params, 1.0, HIGH_RANDOM)) < 1e-9
        assert objective_slope(root * 0.5, 10.0, params, 1.0, HIGH_RANDOM) > 0.0
        assert objective_slope(root * 2.0, 10.0, params, 1.0, HIGH_RANDOM) < 0.0

    @pytest.mark.parametrize("c", [3.0, 10.0, 30.0, 100.0])
    def test_vanishes_at_closed_form_roots(self, c):
        # the closed forms and the numerical branch share one slope.  lam3
        # (random phases, a3 = 2) is an exact root.  lam1 (bounded phases,
        # a3 = 4) is the root of the large-array form m^2 N + 1 - m^2 ~ m^2 N,
        # so the slope there is exactly what that form drops, with
        # eps = (1 - m^2) / (m^2 N1): x e^-x ln(1 + eps) + (1 - e^-x) eps / (1 + eps).
        # At small x = pi lam1 C^2 the exact root lies within 2 eps of lam1.
        eta = 0.1
        params = make_params(tx_power_dbm=30.0, alpha_ris_ue=2.0, serve_radius=c)
        opt = optimize_density(eta, params, 1.0, HIGH_RANDOM)
        slope = deployment._prepare(eta, params, 1.0, HIGH_RANDOM).slope
        lam3 = opt.lambda_star
        assert opt.branch == "random_closed_form"
        assert abs(slope(lam3)) <= 1e-12 * slope(lam3 / 2.0)
        assert slope(lam3 * (1.0 - 1e-9)) > 0.0 > slope(lam3 * (1.0 + 1e-9))

        params = make_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=c)
        opt = optimize_density(eta, params, 0.25, HIGH_BOUNDED)
        slope = deployment._prepare(eta, params, 0.25, HIGH_BOUNDED).slope
        lam1 = opt.lambda_star
        m2 = attenuation_factor(0.25) ** 2
        eps = (1.0 - m2) / (m2 * eta / lam1)
        x = math.pi * lam1 * c * c
        assert opt.branch == "bounded_closed_form"
        assert slope(lam1) == pytest.approx(
            x * math.exp(-x) * math.log1p(eps) - math.expm1(-x) * eps / (1.0 + eps), rel=1e-9)
        root = deployment._false_position(slope, lam1, 2.0 * lam1, slope(lam1), slope(2.0 * lam1), eta)
        assert 0.0 < root / lam1 - 1.0 <= 2.0 * eps

    @pytest.mark.parametrize(
        "regime,rho",
        [(HIGH_BOUNDED, 0.25), (HIGH_RANDOM, 1.0), (LOW_BOUNDED, 0.25), (LOW_RANDOM, 1.0)],
    )
    def test_matches_finite_difference_exactly(self, regime, rho):
        # one exact slope for all four regimes: no moderate-N approximation
        rng = np.random.default_rng(5)
        params = make_params(
            tx_power_dbm=30.0 if regime.snr == "high" else 3.0, alpha_ris_ue=2.7
        )
        eta = 10.0
        checked = 0
        for _ in range(50):
            lam = 10 ** rng.uniform(-4, -0.5) * eta
            x = math.pi * lam * params.serve_radius**2
            if x > 200.0:
                continue
            j = objective_slope(lam, eta, params, rho, regime)
            h = 1e-6 * lam
            fd = (
                deployment_objective(lam + h, eta, params, rho, regime)
                - deployment_objective(lam - h, eta, params, rho, regime)
            ) / (2.0 * h)
            j_from_fd = fd * lam * LN2 * math.exp(x)
            if max(abs(j), abs(j_from_fd)) > 1e-7:
                assert j == pytest.approx(j_from_fd, rel=0.01)
                checked += 1
        assert checked >= 30

    def test_overflow_raises_numeric_error_with_signed_estimate(self):
        # pi * lam * C^2 = 1207 here, past exp's float64 range.
        params = make_params(serve_radius=7.85)
        eta = 18.72
        lam = eta / 3.0
        scaled = prepared_slope(lam, eta, params, 0.25, HIGH_BOUNDED)
        with pytest.raises(NumericError) as info:
            objective_slope(lam, eta, params, 0.25, HIGH_BOUNDED)
        assert info.value.estimate == math.copysign(math.inf, scaled)

    def test_domain(self):
        params = make_params()
        with pytest.raises(DomainError):
            objective_slope(1e-3, 10.0, params, 1.0, HIGH_BOUNDED)
        with pytest.raises(DomainError):
            objective_slope(1e-3, 10.0, params, 0.5, HIGH_RANDOM)
        with pytest.raises(DomainError):
            deployment_objective(20.0, 10.0, params, 1.0, HIGH_RANDOM)

    def test_array_domain_error_names_offending_value(self):
        params = make_params()
        cases = (
            (np.array([0.375, 12.5, 0.625]), "12.5"),
            (np.array([0.375, 0.0]), "0.0"),
            (20.0, "20.0"),
            (np.float64(20.0), "20.0"),
        )
        for lam, bad in cases:
            with pytest.raises(DomainError) as err:
                deployment_objective(lam, 10.0, params, 1.0, HIGH_RANDOM)
            message = str(err.value)
            assert message.endswith(f"got {bad}")
            assert "0.375" not in message


# One instance per regime, each off the closed-form roots; all but the high-SNR
# random one (which meets the monotone condition) run the numeric scan and
# root search.
REGIME_CASES = [
    (HIGH_BOUNDED, 0.25, dict(tx_power_dbm=30.0, alpha_ris_ue=3.0, serve_radius=6.0)),
    (HIGH_RANDOM, 1.0, dict(tx_power_dbm=30.0, alpha_ris_ue=2.5)),
    (LOW_BOUNDED, 0.25, dict(tx_power_dbm=3.0, alpha_ris_ue=2.5)),
    (LOW_RANDOM, 1.0, dict(tx_power_dbm=3.0, alpha_ris_ue=3.2)),
]


class TestArrayEvaluation:
    @pytest.mark.parametrize("regime,rho,kwargs", REGIME_CASES)
    @pytest.mark.parametrize("fn", [deployment_objective, prepared_slope])
    def test_matches_scalar_calls(self, fn, regime, rho, kwargs):
        # elementwise, not bitwise: numpy's vectorized power and Python's `**`
        # on floats (libm pow) may differ in the last bit; exp and log agree
        params = make_params(**kwargs)
        eta = 10.0
        lam = np.concatenate([np.geomspace(1e-12 * eta, eta, 64), eta / np.arange(1, 513)])
        vectorized = fn(lam, eta, params, rho, regime)
        scalar = np.array([fn(float(l), eta, params, rho, regime) for l in lam])
        np.testing.assert_allclose(vectorized, scalar, rtol=1e-14, atol=0.0)


def reference_objective(lam, eta, params, rho, regime):
    """The reduced objective written out inline on the public spatial_rate terms."""
    c = params.serve_radius
    x = np.pi * lam * c * c
    n = eta / lam
    ei_part = exp_integral_ei(-x) - np.exp(-x) * math.log(c * c) - np.log(np.pi * lam)
    offset = objective_offset(params, regime)
    common = -params.alpha_ris_ue / (2.0 * LN2) * ei_part + array_gain_term(n, rho, lam, c)
    if regime.snr == "high":
        return common - np.exp(-x) * (offset + math.log2(params.beta_ref))
    return common - np.exp(-x) * offset + noise_residual_term(n, rho, lam, params)


def reference_slope(lam, eta, params, rho, regime):
    """The exact scaled slope factor lam ln2 dO/dlam written out inline, every
    constant formed per call."""
    m = attenuation_factor(rho)
    c = params.serve_radius
    a3 = params.alpha_ris_ue
    x = np.pi * lam * c * c
    ex = np.exp(-x)
    n = eta / lam
    pe = m * m * n + 1.0 - m * m
    offset = objective_offset(params, regime)
    log_beta = math.log(params.beta_ref) if regime.snr == "high" else 0.0
    log_arg = offset * LN2 + log_beta - a3 * math.log(c) + np.log(n) + np.log(pe)
    value = x * ex * log_arg + (a3 / 2.0 - 2.0 + (1.0 - m * m) / pe) * -np.expm1(-x)
    if regime.snr == "high":
        return value
    k3 = annulus_distance_moment(params.alpha_bs_ris, params.d_min, params.d_max)
    gam = lower_incomplete_gamma(a3 / 2.0 + 1.0, x)
    shape = x ** (a3 / 2.0 + 1.0) * ex + (1.0 - a3 / 2.0 + m * m * n / pe) * gam
    noise = k3 / (params.snr_gain * params.beta_ref**2) * (np.pi * lam) ** -(a3 / 2.0) / (n * pe)
    return value + noise * shape


class TestPreparedConstants:
    @pytest.mark.parametrize("regime,rho,kwargs", REGIME_CASES)
    @pytest.mark.parametrize(
        "fn,reference",
        [(deployment_objective, reference_objective), (prepared_slope, reference_slope)],
    )
    def test_bitwise_equal_to_public_path(self, fn, reference, regime, rho, kwargs):
        # the optimizer's prepared constants must not move a single bit: same
        # operations in the same order as the formula written out per call
        params = make_params(**kwargs)
        eta = 10.0
        prepared = deployment._prepare(eta, params, rho, regime)
        # the optimizer's scan and the grid oracle's points eta / N
        lam = np.concatenate([np.geomspace(1e-12 * eta, eta, 64), eta / np.arange(1, 513)])
        want = reference(lam, eta, params, rho, regime)
        np.testing.assert_array_equal(fn(lam, eta, params, rho, regime), want)
        np.testing.assert_array_equal(fn(lam, eta, params, rho, regime, prepared), want)
        for point in lam.tolist():
            want = reference(point, eta, params, rho, regime)
            np.testing.assert_array_equal(fn(point, eta, params, rho, regime), want)
            np.testing.assert_array_equal(fn(point, eta, params, rho, regime, prepared), want)

    @pytest.mark.parametrize("regime,rho,kwargs", REGIME_CASES)
    def test_underflowed_disk_argument_still_raises(self, regime, rho, kwargs):
        # pi * lam * C^2 underflows to 0 at this radius, where Ei is singular;
        # the prepared path keeps Ei's check, so the optimizer's scan raises too
        params = make_params(**dict(kwargs, serve_radius=1e-160))
        prepared = deployment._prepare(10.0, params, rho, regime)
        assert math.pi * 1e-5 * 1e-160 * 1e-160 == 0.0
        with pytest.raises(DomainError):
            deployment_objective(1e-5, 10.0, params, rho, regime)
        with pytest.raises(DomainError):
            deployment_objective(np.array([1.0, 1e-5]), 10.0, params, rho, regime, prepared)
        if regime != HIGH_RANDOM:  # there the monotone condition holds: no scan
            with pytest.raises(DomainError):
                optimize_density(10.0, params, rho, regime)

    def test_prepared_path_checks_density(self):
        params = make_params()
        prepared = deployment._prepare(10.0, params, 1.0, HIGH_RANDOM)
        for lam in (0.0, -1.0, 10.5, math.nan, np.array([1.0, 12.5])):
            with pytest.raises(DomainError):
                deployment_objective(lam, 10.0, params, 1.0, HIGH_RANDOM, prepared)


class TestOptimizeDensity:
    @pytest.mark.parametrize("regime,rho,kwargs", REGIME_CASES)
    def test_offset_computed_once_per_solve(self, monkeypatch, regime, rho, kwargs):
        # the offset depends only on (params, regime) and the other constants
        # on (eta, params, rho, regime); the scan, root search, candidate scores
        # and finishing step all reuse one preparation
        calls, prepared = [], []
        exact = deployment.objective_offset
        exact_prepare = deployment._prepare

        def counted(*args):
            calls.append(args)
            return exact(*args)

        def counted_prepare(*args):
            prepared.append(args)
            return exact_prepare(*args)

        monkeypatch.setattr(deployment, "objective_offset", counted)
        monkeypatch.setattr(deployment, "_prepare", counted_prepare)
        params = make_params(**kwargs)
        opt = optimize_density(10.0, params, rho, regime)
        assert len(prepared) == 1
        grid = grid_search_oracle(10.0, params, rho, regime, 64)
        assert len(prepared) == 2
        assert len(calls) == 2
        assert opt.d_constant == grid.d_constant == exact(params, regime)
        assert opt.objective == deployment_objective(opt.lambda_star, 10.0, params, rho, regime)

    def test_budget_quotient_anchor(self):
        # with matched feeder/access exponents of 2 and a 3 m serving radius
        # the random-phase closed form lands on a 45-element array
        params = make_params()
        opt = optimize_density(10.0, params, 1.0, HIGH_RANDOM)
        assert opt.n_star == 45
        assert opt.branch == "random_closed_form"
        assert opt.lambda_star <= 10.0
        assert opt.n_star == math.ceil(10.0 / opt.lambda_star - 1e-12)

    @pytest.mark.parametrize("a3", [2.5, 3.0, 3.5])
    def test_monotone_random_phase_prefers_spreading(self, a3):
        params = make_params(alpha_ris_ue=a3)
        opt = optimize_density(10.0, params, 1.0, HIGH_RANDOM)
        assert opt.n_star == 1
        assert opt.lambda_star == 10.0
        assert opt.branch == "monotone_boundary"

    def test_ideal_exponent_closed_form_identity(self):
        # lambda* and the pre-ceiling array size multiply back to the budget
        params = make_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0)
        eta = 10.0
        opt = optimize_density(eta, params, 0.25, HIGH_BOUNDED)
        assert opt.branch == "bounded_closed_form"
        m = attenuation_factor(0.25)
        scale = math.exp(0.5 * (opt.d_constant * LN2 + math.log(params.beta_ref)))
        lam_formula = m * eta / 25.0 * scale
        n_formula = 25.0 / (m * scale)
        assert opt.lambda_star == pytest.approx(lam_formula, rel=1e-12)
        assert lam_formula * n_formula == pytest.approx(eta, rel=1e-12)
        assert opt.n_star == math.ceil(eta / opt.lambda_star - 1e-12)

    def test_ideal_exponent_structural_trends(self):
        # optimal array size grows with the serving radius, shrinks as the
        # attenuation factor improves
        eta = 10.0
        sizes_by_c = []
        for c in (3.0, 5.0, 8.0, 12.0):
            params = make_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=c)
            sizes_by_c.append(optimize_density(eta, params, 0.25, HIGH_BOUNDED).n_star)
        assert sizes_by_c == sorted(sizes_by_c)
        params = make_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0)
        sizes_by_rho = [
            optimize_density(eta, params, rho, HIGH_BOUNDED).n_star
            for rho in (0.6, 0.4, 0.2, 0.0)  # attenuation factor increasing
        ]
        assert sizes_by_rho == sorted(sizes_by_rho, reverse=True)

    def test_monotone_condition_implies_nonnegative_slope(self):
        params = make_params(alpha_ris_ue=2.5)
        eta = 10.0
        # monotone-increase condition holds here; the slope never goes negative
        slope = deployment._prepare(eta, params, 1.0, HIGH_RANDOM).slope
        for lam in np.geomspace(1e-9 * eta, eta, 1000):
            assert slope(lam) >= -1e-9

    def test_bisection_beats_or_matches_grid(self):
        for regime, rho, eta, params in criterion8_instances():
            opt = optimize_density(eta, params, rho, regime)
            n_max = min(max(64, 4 * opt.n_star), 8192)
            oracle = grid_search_oracle(eta, params, rho, regime, n_max)
            assert opt.objective >= oracle.objective - 0.02
            assert opt.lambda_star <= eta
            assert opt.n_star == math.ceil(eta / opt.lambda_star - 1e-12)

    def test_bisection_finds_maximum_the_scans_miss(self):
        # a low/bounded instance whose interior maximum (grid oracle 10.50746
        # at N = 156) falls between the 64 scan points, where the objective
        # peaks at N = 1 (10.47146, past the 0.02 slack): only the slope's sign
        # change finds it
        params = make_params(
            tx_power_dbm=5.4369139884055855,
            beta_db=-30.282380397753492,
            alpha_ris_ue=2.2695252965194577,
            serve_radius=3.2373459224060115,
        )
        eta, rho = 8.026833338482835, 0.07423731961667308
        opt = optimize_density(eta, params, rho, LOW_BOUNDED)
        oracle = grid_search_oracle(eta, params, rho, LOW_BOUNDED, 512)
        assert opt.branch == "bisection"
        assert opt.n_star > 1
        assert opt.objective >= oracle.objective - 0.02

    def test_objective_field_consistency(self):
        params = make_params(alpha_ris_ue=2.5, tx_power_dbm=30.0)
        opt = optimize_density(10.0, params, 0.3, HIGH_BOUNDED)
        want = deployment_objective(opt.lambda_star, 10.0, params, 0.3, HIGH_BOUNDED)
        assert opt.objective == pytest.approx(want, abs=1e-9)

    def test_root_stable_under_special_function_noise(self, monkeypatch):
        # on a flat maximum the objective scores the candidates only to
        # rounding; noise there must not displace the slope's root
        params = make_params(tx_power_dbm=30.0, alpha_ris_ue=3.0, serve_radius=6.0)
        base = optimize_density(10.0, params, 0.25, HIGH_BOUNDED)
        assert (base.branch, base.n_star) == ("bisection", 341)
        exact = deployment.exp_integral_ei
        for eps in (-1e-11, 1e-11, 1e-10):
            monkeypatch.setattr(deployment, "exp_integral_ei", lambda x, e=eps: exact(x) + e)
            opt = optimize_density(10.0, params, 0.25, HIGH_BOUNDED)
            assert (opt.branch, opt.n_star) == (base.branch, base.n_star)
            assert opt.lambda_star == pytest.approx(base.lambda_star, rel=1e-9)
            assert opt.objective == pytest.approx(base.objective, abs=1e-8)

    @pytest.mark.parametrize("p_dbm,eta", [(3.0, 1.0), (0.0, 20.0)])
    def test_boundary_maximum_returns_eta(self, p_dbm, eta):
        # the objective peaks at eta; a candidate scoring the same up to
        # rounding must not displace the boundary
        params = make_params(tx_power_dbm=p_dbm, alpha_ris_ue=2.2, serve_radius=2.0)
        opt = optimize_density(eta, params, 0.25, LOW_BOUNDED)
        assert (opt.branch, opt.lambda_star, opt.n_star) == ("boundary_eta", eta, 1)

    @pytest.mark.parametrize("rho,n_opt", [(0.25, 3), (0.5, 9)])
    @pytest.mark.parametrize("p_dbm,eta", [(0.0, 1.0), (0.0, 10.0), (3.0, 1.0), (10.0, 1.0)])
    def test_maximum_on_integer_quotient_keeps_its_size(self, rho, n_opt, p_dbm, eta):
        # the continuous optimum sits on eta / n_opt (N* = 3 (1 - m^2) / m^2
        # here) and the objective is flat to rounding over ~1e-7 around it;
        # the side the root search ends on must not round n_star up to n_opt + 1
        params = make_params(tx_power_dbm=p_dbm, alpha_ris_ue=3.5, serve_radius=10.0)
        opt = optimize_density(eta, params, rho, LOW_BOUNDED)
        assert (opt.branch, opt.n_star) == ("bisection", n_opt)
        sizes = deployment_objective(eta / np.array([n_opt, n_opt + 1]), eta, params, rho, LOW_BOUNDED)
        assert sizes[0] > sizes[1]

    @pytest.mark.parametrize(
        "regime,rho,eta,kwargs,branch,count",
        [
            (HIGH_BOUNDED, 0.25, 10.0, dict(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0),
             "bounded_closed_form", 1),
            (HIGH_RANDOM, 1.0, 10.0, dict(tx_power_dbm=15.0, alpha_ris_ue=2.0), "random_closed_form", 1),
            (HIGH_RANDOM, 1.0, 10.0, dict(tx_power_dbm=30.0, alpha_ris_ue=2.5), "monotone_boundary", 1),
            # eta and one root, and the root wins
            (HIGH_BOUNDED, 0.25, 10.0, dict(tx_power_dbm=30.0, alpha_ris_ue=3.0, serve_radius=6.0), "bisection", 2),
            (LOW_RANDOM, 1.0, 10.0, dict(tx_power_dbm=3.0, alpha_ris_ue=3.2), "bisection", 2),
            # the same, with the root put on the budget quotient 10 / 9 and scored again
            (LOW_BOUNDED, 0.5, 10.0, dict(tx_power_dbm=0.0, alpha_ris_ue=3.5, serve_radius=10.0), "bisection", 3),
            # eta and one root, and eta wins (the boundary golden CSV's solve)
            (HIGH_RANDOM, 1.0, 5.0, dict(tx_power_dbm=10.0, alpha_ris_ue=3.5, serve_radius=10.0), "boundary_eta", 2),
            # eta alone: the slope is positive across the scan
            (LOW_RANDOM, 1.0, 1.0, dict(tx_power_dbm=3.0, alpha_ris_ue=3.2, serve_radius=1.0), "boundary_eta", 1),
            # eta and the scan floor: the low-SNR objective on a high-SNR link
            (LOW_BOUNDED, 0.25, 10.0, dict(tx_power_dbm=45.0), "scan_floor", 2),
        ],
    )
    def test_objective_evaluation_budget(self, monkeypatch, regime, rho, eta, kwargs, branch, count):
        # one scalar objective call per candidate (eta, each slope root,
        # the scan floor where the slope there is not positive) and one more
        # for a winner put on an integer budget quotient; a closed form or the
        # monotone boundary is scored once.  The count goes through the module
        # global the benchmark tracer wraps.
        exact = deployment.deployment_objective
        calls = []

        def counted(*args):
            calls.append(args[0])
            return exact(*args)

        monkeypatch.setattr(deployment, "deployment_objective", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opt = optimize_density(eta, make_params(**kwargs), rho, regime)
        assert [w.category for w in caught] == [RegimeWarning] * (branch == "scan_floor")
        assert (opt.branch, len(calls)) == (branch, count)
        assert all(isinstance(lam, float) for lam in calls)
        assert opt.lambda_star in calls

    def test_domain(self):
        params = make_params()
        with pytest.raises(DomainError):
            optimize_density(0.0, params, 1.0, HIGH_RANDOM)
        with pytest.raises(DomainError):
            DeploymentOptimum(lambda_star=0.0, n_star=1, objective=0.0, branch="grid", d_constant=0.0)


SOLVE_CASES = list(criterion8_instances()) + [
    (regime, rho, 10.0, make_params(**kwargs)) for regime, rho, kwargs in REGIME_CASES
]

# optimize_density's (lambda_star, n_star, objective, branch) on SOLVE_CASES,
# the 32 criterion-8 instances and then REGIME_CASES at eta = 10, with
# lambda_star and the objective as float.hex: a faster objective or slope may
# not move a bit.
PINNED_OPTIMA = [
    ("0x1.f93f5c98d61e1p-8", 1849, "0x1.24ab92e2bd215p+3", "bisection"),
    ("0x1.31d5aba35e911p+3", 1, "0x1.1406711be7b98p+3", "boundary_eta"),
    ("0x1.9d0d0ebab3a2dp-6", 211, "0x1.03e9087744edcp+3", "bisection"),
    ("0x1.ef1a8409d3d60p+2", 1, "0x1.dcce1c1bbe47cp+2", "boundary_eta"),
    ("0x1.67079965303dep-7", 168, "0x1.8b40078a618f0p+2", "bisection"),
    ("0x1.013d4ff48690dp+3", 1, "0x1.1e5444680a530p+3", "boundary_eta"),
    ("0x1.d0cb2dd425e78p-5", 242, "0x1.18fa94ae21a92p+3", "bisection"),
    ("0x1.4f4d56e1050c5p-7", 1593, "0x1.aec1346ba06dcp+3", "bisection"),
    ("0x1.d279fccb00004p-8", 161, "0x1.34a8c253cb7eep+1", "bisection"),
    ("0x1.37055297f1d55p+3", 1, "0x1.09e5c984bc5b4p+3", "boundary_eta"),
    ("0x1.3e6d2eaacde48p+3", 1, "0x1.6e7fa6f4d5fafp+2", "monotone_boundary"),
    ("0x1.73ff79e557107p+3", 1, "0x1.0d4a4973344a1p+3", "boundary_eta"),
    ("0x1.1862aa9528242p+3", 1, "0x1.b9b635e5575d2p+2", "monotone_boundary"),
    ("0x1.a5028ffa9bdd7p+2", 1, "0x1.344895db8e938p+2", "monotone_boundary"),
    ("0x1.17154d5d98c90p+3", 1, "0x1.0c4cefe353c33p+3", "boundary_eta"),
    ("0x1.d731c9c7951a9p+3", 1, "0x1.7af716147028ep+2", "monotone_boundary"),
    ("0x1.3077839a139ddp-3", 104, "0x1.58d243301bfb3p+3", "bisection"),
    ("0x1.3476c0ce47d03p+1", 3, "0x1.35845bbe4d3e6p+3", "bisection"),
    ("0x1.5e1474cf927b7p+3", 2, "0x1.8bd340a16a078p+3", "bisection"),
    ("0x1.10b09dab47537p-3", 140, "0x1.743baa22c3bd4p+3", "bisection"),
    ("0x1.21f2866a390d6p-3", 127, "0x1.582af27f484d3p+3", "bisection"),
    ("0x1.06537ab298379p-4", 231, "0x1.69b31d1cd3b54p+3", "bisection"),
    ("0x1.6905c1273aeafp-4", 82, "0x1.1bdb494db546ap+3", "bisection"),
    ("0x1.706eaaad71d1bp-4", 114, "0x1.3b204ab38801cp+3", "bisection"),
    ("0x1.c0be918be51e8p-4", 57, "0x1.a93e0eecf4c10p+7", "bisection"),
    ("0x1.f10f95772c27fp-4", 100, "0x1.cc58220cb5e56p+4", "bisection"),
    ("0x1.628c11bbf549ap-3", 31, "0x1.66bd446976e84p+3", "bisection"),
    ("0x1.7729a061657edp-3", 37, "0x1.4636cc436b9c7p+6", "bisection"),
    ("0x1.d6c03707f8c09p-4", 144, "0x1.7f6e4689b4c42p+3", "bisection"),
    ("0x1.835a5ef6c6fcfp-2", 36, "0x1.f8d77e99e4a44p+5", "bisection"),
    ("0x1.6c34dcd97679dp-3", 109, "0x1.b750d487caaafp+5", "bisection"),
    ("0x1.b4fe53cde5932p-4", 71, "0x1.3272c974dba6ep+5", "bisection"),
    ("0x1.e0d3e96e82157p-6", 341, "0x1.4f66b29fc11f8p+3", "bisection"),
    ("0x1.4000000000000p+3", 1, "0x1.8ddfba65bcb84p+2", "monotone_boundary"),
    ("0x1.4000000000000p+3", 1, "0x1.5555652c40db2p+3", "boundary_eta"),
    ("0x1.1e999aa4a1b73p-3", 72, "0x1.65245f9a89da6p+4", "bisection"),
]


def test_optima_pinned_bit_for_bit():
    assert len(SOLVE_CASES) == len(PINNED_OPTIMA)
    got = []
    for regime, rho, eta, params in SOLVE_CASES:
        opt = optimize_density(eta, params, rho, regime)
        got.append((opt.lambda_star.hex(), opt.n_star, opt.objective.hex(), opt.branch))
    assert got == PINNED_OPTIMA


def test_scan_grid_is_geomspace_bit_for_bit():
    # the scan grid repeats np.geomspace's arithmetic without its argument
    # handling; any other rounding would move the bracket and every optimum
    rng = np.random.default_rng(32)
    for eta in (10.0 ** rng.uniform(-6.0, 6.0, 4000)).tolist() + [1e-6, 1.0, 10.0, 1e6]:
        expected = np.geomspace(deployment._SCAN_FLOOR * eta, eta, deployment._SCAN_POINTS)
        assert deployment._scan_grid(eta).tobytes() == expected.tobytes(), eta.hex()


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_reported_objective_is_the_objective_at_the_optimum(monkeypatch):
    # the solve may reuse a scalar score of its optimum instead of scoring it
    # again, but the value it reports must be what the public call gives there
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import _optimizer_instances

    # the pinned cases, both closed forms, and 50 seeded draws per regime over
    # the benchmark's optimizer ranges
    cases = SOLVE_CASES + [
        (HIGH_BOUNDED, 0.25, 10.0, make_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0)),
        (HIGH_RANDOM, 1.0, 10.0, make_params(tx_power_dbm=15.0, alpha_ris_ue=2.0)),
    ]
    for regime, eta, params, rho in _optimizer_instances(np.random.default_rng([4, 3]), 50):
        cases.append((regime, rho, eta, params))
    branches = set()
    for regime, rho, eta, params in cases:
        opt = optimize_density(eta, params, rho, regime)
        expected = deployment_objective(opt.lambda_star, eta, params, rho, regime)
        assert opt.objective.hex() == float(expected).hex(), (opt.branch, eta, rho)
        branches.add(opt.branch)
    assert branches == {"bounded_closed_form", "random_closed_form", "monotone_boundary",
                        "bisection", "boundary_eta"}


# The regime/rho pairing and the element budget are checked in one place,
# the solve's preparation, for every public entry point.
CHECKED_CALLS = [
    pytest.param(lambda eta, rho, regime: deployment_objective(0.5, eta, make_params(), rho, regime),
                 id="deployment_objective"),
    pytest.param(lambda eta, rho, regime: optimize_density(eta, make_params(), rho, regime),
                 id="optimize_density"),
    pytest.param(lambda eta, rho, regime: grid_search_oracle(eta, make_params(), rho, regime, 8),
                 id="grid_search_oracle"),
    pytest.param(lambda eta, rho, regime: objective_slope(0.5, eta, make_params(), rho, regime),
                 id="objective_slope"),
]


@pytest.mark.parametrize("call", CHECKED_CALLS)
@pytest.mark.parametrize(
    "eta,rho,regime,message",
    [
        pytest.param(10.0, 0.5, HIGH_RANDOM, "random-phase regime requires rho = 1", id="random-rho-below-1"),
        pytest.param(10.0, 1.0, HIGH_BOUNDED, "bounded-phase regime requires rho < 1", id="bounded-rho-1"),
        pytest.param(0.0, 0.5, HIGH_BOUNDED, "element budget must be positive", id="eta-zero"),
        pytest.param(math.nan, 0.5, HIGH_BOUNDED, "element budget must be positive", id="eta-nan"),
        pytest.param(math.inf, 0.5, HIGH_BOUNDED, "element budget must be positive and finite", id="eta-inf"),
    ],
)
def test_solve_inputs_checked_in_one_place(call, eta, rho, regime, message):
    with pytest.raises(DomainError, match=message):
        call(eta, rho, regime)


def golden_section_max(f, lo, hi, iters=80):
    """Reference maximizer: the scalar golden-section search on a log axis."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(math.exp(d))
    return math.exp(0.5 * (a + b))


def scan_bracket(grid, fvals):
    k = int(np.argmax(fvals))
    return grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]


class TestOptimumAgainstReferences:
    # The candidate search scores no point but eta, the slope's roots and
    # the scan floor; on every pinned solve its optimum is the one a dense
    # scan and a golden-section search of the objective find.

    @pytest.mark.parametrize("regime,rho,eta,params", SOLVE_CASES)
    def test_matches_golden_section_reference(self, regime, rho, eta, params):
        def f(lam):
            return float(deployment_objective(lam, eta, params, rho, regime))

        grid = np.geomspace(deployment._SCAN_FLOOR * eta, eta, 4097)
        lo, hi = scan_bracket(grid, deployment_objective(grid, eta, params, rho, regime))
        # clamp: exp/log round-tripping at the eta edge can exceed it by 1 ulp
        lam = min(golden_section_max(lambda l: f(min(l, eta)), lo, hi), eta)
        if f(eta) >= f(lam):
            lam = eta
        opt = optimize_density(eta, params, rho, regime)
        assert opt.n_star == math.ceil(eta / lam - 1e-12)
        assert abs(opt.objective - f(lam)) <= 1e-12

    @pytest.mark.parametrize("regime,rho,eta,params", SOLVE_CASES)
    def test_beats_dense_scan(self, regime, rho, eta, params):
        def fobj(lam):
            return deployment_objective(lam, eta, params, rho, regime)

        opt = optimize_density(eta, params, rho, regime)
        assert opt.objective >= fobj(np.geomspace(deployment._SCAN_FLOOR * eta, eta, 4097)).max() - 1e-12
        # and a fine scan between the coarse scan's neighbours of the optimum
        grid = deployment._scan_grid(eta)
        k = int(np.searchsorted(grid, opt.lambda_star))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        assert lo <= opt.lambda_star <= hi
        assert opt.objective >= fobj(np.geomspace(lo, hi, 4097)).max() - 1e-12


def wide_box_instances(count, seed):
    """Seeded draws over a box much wider than the criterion-8 ranges, the four
    regimes in turn: P -10..45 dBm, beta -20..-40 dB, every exponent 2-4,
    C 1-20 m, eta 0.3-50, d_min 10-200 m, d_max - d_min 1-100 m, and rho
    0-0.95 for bounded phases."""
    rng = np.random.default_rng(seed)
    regimes = (HIGH_BOUNDED, HIGH_RANDOM, LOW_BOUNDED, LOW_RANDOM)
    for i in range(count):
        regime = regimes[i % 4]
        d_min = rng.uniform(10.0, 200.0)
        params = SystemParams.from_engineering(
            tx_power_dbm=rng.uniform(-10.0, 45.0),
            noise_dbm=-80.0,
            beta_db=-rng.uniform(20.0, 40.0),
            alpha_direct=rng.uniform(2.0, 4.0),
            alpha_bs_ris=rng.uniform(2.0, 4.0),
            alpha_ris_ue=rng.uniform(2.0, 4.0),
            d_min=d_min,
            d_max=d_min + rng.uniform(1.0, 100.0),
            serve_radius=rng.uniform(1.0, 20.0),
        )
        rho = 1.0 if regime.phase == "random" else rng.uniform(0.0, 0.95)
        yield regime, rho, rng.uniform(0.3, 50.0), params


def test_optimum_beats_grid_on_wide_box():
    # every local maximum the scan resolves is a candidate, so no integer array
    # size up to 4096 may beat the optimum by more than rounding, in any
    # regime; a RegimeWarning comes exactly with a scan-floor optimum
    branches = collections.Counter()
    for regime, rho, eta, params in wide_box_instances(400, 2024):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opt = optimize_density(eta, params, rho, regime)
        oracle = grid_search_oracle(eta, params, rho, regime, 4096)
        assert oracle.objective <= opt.objective + 4 * np.finfo(float).eps * abs(opt.objective), (
            regime, eta, rho)
        assert [w.category for w in caught] == [RegimeWarning] * (opt.branch == "scan_floor")
        branches[regime, opt.branch] += 1
    assert {regime for regime, branch in branches if branch == "bisection"} == {
        HIGH_BOUNDED, HIGH_RANDOM, LOW_BOUNDED, LOW_RANDOM}
    assert {regime for regime, branch in branches if branch == "scan_floor"} == {LOW_BOUNDED, LOW_RANDOM}


def bisect_to_adjacent_floats(slope, lo, hi):
    """Reference root: log-bisection of a + to - bracket until no float lies
    strictly between its ends."""
    while True:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            return mid
        if slope(mid) > 0:
            lo = mid
        else:
            hi = mid


class TestFalsePosition:
    def test_roots_match_bisection_within_bound_on_wide_box(self):
        # every + to - bracket of the scan: the root agrees with a bisection
        # run to adjacent floats within half the stopping width, and costs no
        # more slope calls than bisection's 33 halvings of a scan bracket
        # (ratio 10^(12/63) down to 1 + 1e-10) plus two
        halvings, width = 0, math.log(10.0 ** (12.0 / 63.0))
        while width >= math.log1p(deployment._BISECT_REL_WIDTH):
            halvings, width = halvings + 1, width / 2.0
        assert halvings == 33
        calls, errors = [], []
        for regime, rho, eta, params in wide_box_instances(3000, 2024):
            slope = deployment._prepare(eta, params, rho, regime).slope
            grid = deployment._scan_grid(eta)
            signs = slope(grid)
            for k in np.flatnonzero((signs[:-1] > 0) & (signs[1:] <= 0)).tolist():
                counted = []

                def counting(lam):
                    counted.append(lam)
                    return slope(lam)

                root = deployment._false_position(counting, grid[k], grid[k + 1], signs[k], signs[k + 1], eta)
                want = min(bisect_to_adjacent_floats(slope, grid[k], grid[k + 1]), eta)
                calls.append(len(counted))
                errors.append(abs(root / want - 1.0))
        assert len(calls) > 2000
        assert max(calls) <= halvings + 2
        assert max(errors) <= 5e-11
        # the point of the search: far fewer slope calls than bisection (a
        # search that lets a root at one end creep in reads p99 35 here)
        assert np.percentile(calls, 99) <= 8

    @pytest.mark.parametrize(
        "roots", [(0.5, 1.5, 2.5), (0.1, 1.5, 2.9), (1.4, 1.5, 1.6), (0.01, 0.02, 2.99), (0.2, 2.8, 2.9)]
    )
    def test_keeps_plus_to_minus_orientation(self, roots):
        # a slope with three sign changes (+ - + -) in one bracket, in t = ln
        # lam: the search ends on a + to - crossing (a local maximum of the
        # objective), never on the - to + one between them (a local minimum)
        r1, r2, r3 = roots

        def slope(lam):
            t = math.log(lam)
            return -(t - r1) * (t - r2) * (t - r3)

        lo, hi = 1.0, math.exp(3.0)
        root = math.log(deployment._false_position(slope, lo, hi, slope(lo), slope(hi), hi))
        assert min(abs(root - r1), abs(root - r3)) < 1e-9
        assert slope(math.exp(root) * (1.0 - 1e-9)) > 0.0 > slope(math.exp(root) * (1.0 + 1e-9))

    @pytest.mark.parametrize("r", [0.3, 0.77])
    @pytest.mark.parametrize(
        "shape",
        [
            lambda d: d**3,  # a triple root
            lambda d: d * abs(d) ** 9,  # below 1e-10 within 0.1 of the root
            lambda d: math.expm1(40.0 * d),  # 2e17 times steeper at one end
            lambda d: -math.expm1(-40.0 * d),
            lambda d: math.tanh(1e4 * d),  # a smoothed step
        ],
        ids=["cubic", "flat", "convex", "concave", "step"],
    )
    def test_step_guard_bounds_slope_calls(self, shape, r):
        # slopes on which false position alone converges slowly or stalls
        # (unguarded, the convex and concave ones ran 500 steps without
        # closing the bracket): the guards hold every root to bisection's step
        # count on the bracket (34 halvings of ln(e / 1) = 1) plus two
        calls = []

        def slope(lam):
            calls.append(lam)
            return shape(r - math.log(lam))

        lo, hi = 1.0, math.e
        ends = slope(lo), slope(hi)
        calls.clear()
        root = deployment._false_position(slope, lo, hi, *ends, hi)
        assert len(calls) <= 34 + 2
        assert abs(math.log(root) - r) <= 0.5 * math.log1p(deployment._BISECT_REL_WIDTH)


class TestGridSearchOracle:
    def test_single_candidate(self):
        params = make_params()
        opt = grid_search_oracle(10.0, params, 1.0, HIGH_RANDOM, n_max=1)
        assert opt.n_star == 1

    def test_monotone_case_prefers_smallest(self):
        params = make_params(alpha_ris_ue=3.0)
        opt = grid_search_oracle(10.0, params, 1.0, HIGH_RANDOM, n_max=128)
        assert opt.n_star == 1

    def test_matches_objective_curve(self):
        params = make_params()
        opt = grid_search_oracle(10.0, params, 1.0, HIGH_RANDOM, n_max=128)
        vals = [
            deployment_objective(10.0 / n, 10.0, params, 1.0, HIGH_RANDOM)
            for n in range(1, 129)
        ]
        assert opt.n_star == int(np.argmax(vals)) + 1
        assert opt.n_star == 45

    @pytest.mark.parametrize("regime,rho,kwargs", REGIME_CASES)
    def test_matches_scalar_reference_loop(self, regime, rho, kwargs):
        params = make_params(**kwargs)
        eta, n_max = 10.0, 512
        best_n, best_f = 1, -math.inf
        for n in range(1, n_max + 1):
            f = deployment_objective(eta / n, eta, params, rho, regime)
            if f > best_f:
                best_n, best_f = n, f
        opt = grid_search_oracle(eta, params, rho, regime, n_max)
        assert opt.n_star == best_n
        assert opt.objective == pytest.approx(best_f, rel=1e-14)
        assert opt.lambda_star == eta / best_n

    def test_plateau_ties_go_to_smallest_size(self, monkeypatch):
        # objective rises to N = 7, stays flat through N = 12, then falls
        def plateau(lam, eta, params, rho, regime, prepared=None):
            n = np.rint(eta / lam)
            return np.minimum(n, 7.0) - np.maximum(n - 12.0, 0.0)

        monkeypatch.setattr(deployment, "deployment_objective", plateau)
        opt = grid_search_oracle(10.0, make_params(), 1.0, HIGH_RANDOM, n_max=40)
        assert (opt.n_star, opt.objective) == (7, 7.0)


class TestObjectiveContinuity:
    def test_no_jumps_on_log_grid(self):
        params = make_params(alpha_ris_ue=2.5, tx_power_dbm=30.0)
        eta = 10.0
        grid = np.geomspace(1e-6 * eta, eta, 4000)
        vals = np.array(
            [deployment_objective(l, eta, params, 0.25, HIGH_BOUNDED) for l in grid]
        )
        steps = np.abs(np.diff(vals))
        # continuous on a log grid: no step dwarfs its neighbours
        for i in range(1, len(steps) - 1):
            local = max(steps[i - 1], steps[i + 1], 1e-9)
            assert steps[i] <= 10.0 * local

    def test_random_phase_objective_monotone_in_condition(self):
        params = make_params(alpha_ris_ue=2.5)
        eta = 10.0
        grid = np.geomspace(1e-6 * eta, eta, 500)
        vals = [deployment_objective(l, eta, params, 1.0, HIGH_RANDOM) for l in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
