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
from risgeo.rate_loss import rate_loss_regime
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

    @pytest.mark.parametrize(
        "regime,rho",
        [(HIGH_BOUNDED, 0.25), (HIGH_RANDOM, 1.0), (LOW_RANDOM, 1.0)],
    )
    def test_matches_finite_difference_exactly(self, regime, rho):
        # these three branches carry no moderate-N approximation
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
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

    def test_sign_bridge_low_bounded_in_regime(self):
        # the low-SNR bounded slope assumes a moderate-to-large array; inside
        # that regime its sign still tracks the objective derivative
        rng = np.random.default_rng(6)
        params = make_params(tx_power_dbm=3.0, alpha_ris_ue=2.6)
        eta = 10.0
        rho = 0.25
        m = attenuation_factor(rho)
        cap = 0.05 * m * m * eta / (1.0 - m * m)
        for _ in range(40):
            lam = rng.uniform(0.05, 1.0) * cap
            j = objective_slope(lam, eta, params, rho, LOW_BOUNDED)
            h = 1e-6 * lam
            fd = (
                deployment_objective(lam + h, eta, params, rho, LOW_BOUNDED)
                - deployment_objective(lam - h, eta, params, rho, LOW_BOUNDED)
            ) / (2.0 * h)
            x = math.pi * lam * params.serve_radius**2
            j_from_fd = fd * lam * LN2 * math.exp(x)
            scale = max(abs(j), abs(j_from_fd))
            if scale > 1e-4 and abs(j - j_from_fd) > 0.02 * scale:
                assert np.sign(j) == np.sign(j_from_fd)

    def test_overflow_raises_numeric_error_with_signed_estimate(self):
        # pi * lam * C^2 = 1207 here, past exp's float64 range.
        params = make_params(serve_radius=7.85)
        eta = 18.72
        lam = eta / 3.0
        scaled = prepared_slope(lam, eta, params, 0.25, HIGH_BOUNDED)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            with pytest.raises(NumericError) as info:
                objective_slope(lam, eta, params, 0.25, HIGH_BOUNDED)
        assert info.value.estimate == math.copysign(math.inf, scaled)

    def test_regime_flag_outside_bounded_window(self):
        params = make_params()
        with pytest.warns(RegimeWarning):
            objective_slope(5.0, 10.0, params, 0.8, HIGH_BOUNDED)

    def test_regime_flag_agrees_with_loss_regime(self):
        # both read the one large-array rule: at lam = eta / N the slope warns
        # exactly when the rate loss is not yet saturating
        params, eta = make_params(), 0.01
        rhos = [*np.linspace(0.0, 0.99, 100), *(2.0**-b for b in range(1, 9))]
        sizes = sorted({30, *np.geomspace(1, 1e5, 28).round().astype(int).tolist()})
        for rho in rhos:
            for n in sizes:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    objective_slope(eta / n, eta, params, rho, HIGH_BOUNDED)
                saturating = rate_loss_regime(n, rho, 0.05, 10.0)[0] == "saturating"
                assert saturating == (not caught), (rho, n)

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
# bisection, and the low-SNR bounded one, whose slope is approximate, the zoom.
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
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
    """The scaled slope factor written out inline, every constant formed per call."""
    m = attenuation_factor(rho)
    c = params.serve_radius
    a3 = params.alpha_ris_ue
    x = np.pi * lam * c * c
    ex = np.exp(-x)
    grow = -np.expm1(-x)
    offset = objective_offset(params, regime)
    n = eta / lam
    if regime.snr == "high":
        log_arg = offset * LN2 + math.log(params.beta_ref) - a3 * math.log(c) + np.log(n)
        if regime.phase == "random":
            coef = a3 / 2.0 - 1.0
        else:
            log_arg += np.log(m * m * n + 1.0 - m * m)
            coef = a3 / 2.0 - 2.0 + (1.0 - m * m) / (m * m * n + 1.0 - m * m)
        return x * ex * log_arg + coef * grow
    k3 = annulus_distance_moment(params.alpha_bs_ris, params.d_min, params.d_max)
    gam = lower_incomplete_gamma(a3 / 2.0 + 1.0, x)
    snr_beta_sq = params.snr_gain * params.beta_ref**2
    if regime.phase == "random":
        log_arg = offset * LN2 - a3 * math.log(c) + np.log(n)
        coef = a3 / 2.0 - 1.0
        extra = (
            (x ** (a3 / 2.0 + 1.0) * ex + (1.0 - a3 / 2.0) * gam)
            * k3
            * lam ** (1.0 - a3 / 2.0)
            / (snr_beta_sq * math.pi ** (a3 / 2.0) * eta)
        )
    else:
        log_arg = offset * LN2 - a3 * math.log(c) + np.log(m * m * n * n)
        coef = a3 / 2.0 - 2.0
        extra = (
            (x ** (a3 / 2.0 + 1.0) * ex + (2.0 - a3 / 2.0) * gam)
            * k3
            * lam ** (2.0 - a3 / 2.0)
            / (snr_beta_sq * math.pi ** (a3 / 2.0) * m * m * eta**2)
        )
    return x * ex * log_arg + coef * grow + extra


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
        # the optimizer's scan, the grid oracle's points eta / N, and one late
        # zoom round between neighbours 5e-8 apart, built as `_zoom_max` builds it
        lo, hi = eta / 37.0, eta / 37.0 * (1.0 + 5e-8)
        zoom = lo * (hi / lo) ** deployment._ZOOM_STEPS
        zoom[0], zoom[-1] = lo, hi
        lam = np.concatenate([np.geomspace(1e-12 * eta, eta, 64), eta / np.arange(1, 513), zoom])
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
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
        # on (eta, params, rho, regime); the scan, bisection, zoom and
        # finishing step all reuse one preparation
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                opt = optimize_density(eta, params, rho, regime)
                n_max = min(max(64, 4 * opt.n_star), 8192)
                oracle = grid_search_oracle(eta, params, rho, regime, n_max)
            assert opt.objective >= oracle.objective - 0.02
            assert opt.lambda_star <= eta
            assert opt.n_star == math.ceil(eta / opt.lambda_star - 1e-12)

    def test_bisection_finds_maximum_the_scans_miss(self):
        # a low/bounded instance whose interior maximum (grid oracle 10.50746
        # at N = 156) falls between the 64 scan points: the objective scan and
        # its zoom alone settle on N = 1 at 10.47146, past the 0.02 slack
        params = make_params(
            tx_power_dbm=5.4369139884055855,
            beta_db=-30.282380397753492,
            alpha_ris_ue=2.2695252965194577,
            serve_radius=3.2373459224060115,
        )
        eta, rho = 8.026833338482835, 0.07423731961667308
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            opt = optimize_density(eta, params, rho, LOW_BOUNDED)
            oracle = grid_search_oracle(eta, params, rho, LOW_BOUNDED, 512)
        assert opt.branch == "bisection"
        assert opt.n_star > 1
        assert opt.objective >= oracle.objective - 0.02

    def test_objective_field_consistency(self):
        params = make_params(alpha_ris_ue=2.5, tx_power_dbm=30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            opt = optimize_density(10.0, params, 0.3, HIGH_BOUNDED)
            want = deployment_objective(opt.lambda_star, 10.0, params, 0.3, HIGH_BOUNDED)
        assert opt.objective == pytest.approx(want, abs=1e-9)

    def test_root_stable_under_special_function_noise(self, monkeypatch):
        # on a flat maximum the zoom refinement locates lambda* only to ~1e-8
        # relative; it must not displace the bisected root on rounding noise
        # (forced: with its exact slope this solve would skip the zoom)
        always_zoom(monkeypatch)
        params = make_params(tx_power_dbm=30.0, alpha_ris_ue=3.0, serve_radius=6.0)

        def solve():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                return optimize_density(10.0, params, 0.25, HIGH_BOUNDED)

        base = solve()
        assert (base.branch, base.n_star) == ("bisection", 341)
        exact = deployment.exp_integral_ei
        for eps in (-1e-11, 1e-11, 1e-10):
            monkeypatch.setattr(deployment, "exp_integral_ei", lambda x, e=eps: exact(x) + e)
            opt = solve()
            assert (opt.branch, opt.n_star) == (base.branch, base.n_star)
            assert opt.lambda_star == pytest.approx(base.lambda_star, rel=1e-9)
            assert opt.objective == pytest.approx(base.objective, abs=1e-8)

    @pytest.mark.parametrize("p_dbm,eta", [(3.0, 1.0), (0.0, 20.0)])
    def test_boundary_maximum_returns_eta(self, p_dbm, eta):
        # the objective peaks at eta; a refinement landing an ulp below it
        # scores the same up to rounding and must not displace the boundary
        params = make_params(tx_power_dbm=p_dbm, alpha_ris_ue=2.2, serve_radius=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            opt = optimize_density(eta, params, 0.25, LOW_BOUNDED)
        assert (opt.branch, opt.lambda_star, opt.n_star) == ("boundary_eta", eta, 1)

    @pytest.mark.parametrize("rho,n_opt", [(0.25, 3), (0.5, 9)])
    @pytest.mark.parametrize("p_dbm,eta", [(0.0, 1.0), (0.0, 10.0), (3.0, 1.0), (10.0, 1.0)])
    def test_maximum_on_integer_quotient_keeps_its_size(self, rho, n_opt, p_dbm, eta):
        # the continuous optimum sits on eta / n_opt (N* = 3 (1 - m^2) / m^2
        # here) and the objective is flat to rounding over ~1e-7 around it;
        # the side the refinement lands on must not round n_star up to n_opt + 1
        params = make_params(tx_power_dbm=p_dbm, alpha_ris_ue=3.5, serve_radius=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            opt = optimize_density(eta, params, rho, LOW_BOUNDED)
        assert (opt.branch, opt.n_star) == ("bisection", n_opt)
        sizes = deployment_objective(eta / np.array([n_opt, n_opt + 1]), eta, params, rho, LOW_BOUNDED)
        assert sizes[0] > sizes[1]

    def test_objective_evaluation_budget(self, monkeypatch):
        # scan, root score, zoom rounds and the final score are each one call;
        # the count goes through the module global the tracer wraps.  Where
        # the slope is exact and its root lies in the zoom's bracket, the
        # solve scores the scan and the root and nothing else.
        exact = deployment.deployment_objective
        calls = []

        def counted(*args):
            calls.append(args[0])
            return exact(*args)

        monkeypatch.setattr(deployment, "deployment_objective", counted)
        counts = {}
        for regime, rho, kwargs in REGIME_CASES:
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                opt = optimize_density(10.0, make_params(**kwargs), rho, regime)
            if opt.branch in ("bisection", "boundary_eta"):
                counts[regime] = len(calls)
        assert counts[HIGH_BOUNDED] == counts[LOW_RANDOM] == 2
        assert counts[LOW_BOUNDED] <= 14
        # an exact slope rising into eta settles the boundary as well: the
        # scan, the root's score if there is a root, and the score at eta
        boundary_cases = [  # the first is the boundary golden CSV's solve
            (HIGH_RANDOM, 1.0, 5.0, dict(tx_power_dbm=10.0, alpha_ris_ue=3.5, serve_radius=10.0), True),
            (LOW_RANDOM, 1.0, 1.0, dict(tx_power_dbm=3.0, alpha_ris_ue=3.2, serve_radius=1.0), False),
        ]
        for regime, rho, eta, kwargs, has_root in boundary_cases:
            calls.clear()
            opt = optimize_density(eta, make_params(**kwargs), rho, regime)
            assert (opt.branch, opt.n_star) == ("boundary_eta", 1)
            assert isinstance(calls[0], np.ndarray) and calls[-1] == eta
            assert len(calls) == 2 + has_root
            # with no objective small enough for rounding to count as a tie,
            # the same solve zooms
            with monkeypatch.context() as patch:
                patch.setattr(deployment, "_ROUNDING_SAFE_OBJECTIVE", 0.0)
                calls.clear()
                assert optimize_density(eta, make_params(**kwargs), rho, regime) == opt
                assert len(calls) > 2 + has_root
        # a closed form scores its optimum once, whatever the array size
        calls.clear()
        params = make_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0)
        opt = optimize_density(10.0, params, 0.25, HIGH_BOUNDED)
        assert (opt.branch, opt.n_star > 1, len(calls)) == ("bounded_closed_form", True, 1)

    def test_domain(self):
        params = make_params()
        with pytest.raises(DomainError):
            optimize_density(0.0, params, 1.0, HIGH_RANDOM)
        with pytest.raises(DomainError):
            DeploymentOptimum(lambda_star=0.0, n_star=1, objective=0.0, branch="grid", d_constant=0.0)


# optimize_density's (lambda_star, n_star, objective, branch) on the 32
# criterion-8 instances, then on REGIME_CASES at eta = 10, with lambda_star and
# the objective as float.hex: a faster objective or slope may not move a bit.
PINNED_OPTIMA = [
    ("0x1.f93f5c991e051p-8", 1849, "0x1.24ab92e2bd215p+3", "bisection"),
    ("0x1.31d5aba35e911p+3", 1, "0x1.1406711be7b98p+3", "boundary_eta"),
    ("0x1.9d0d0eba8cbdcp-6", 211, "0x1.03e9087744eddp+3", "bisection"),
    ("0x1.ef1a8409d3d60p+2", 1, "0x1.dcce1c1bbe47cp+2", "boundary_eta"),
    ("0x1.67079965563d9p-7", 168, "0x1.8b40078a618efp+2", "bisection"),
    ("0x1.013d4ff48690dp+3", 1, "0x1.1e5444680a530p+3", "boundary_eta"),
    ("0x1.d0cb2dd4394eep-5", 242, "0x1.18fa94ae21a93p+3", "bisection"),
    ("0x1.4f4d56e13e6a6p-7", 1593, "0x1.aec1346ba06d9p+3", "bisection"),
    ("0x1.d279fccab3ceep-8", 161, "0x1.34a8c253cb7f0p+1", "bisection"),
    ("0x1.37055297f1d55p+3", 1, "0x1.09e5c984bc5b4p+3", "boundary_eta"),
    ("0x1.3e6d2eaacde48p+3", 1, "0x1.6e7fa6f4d5fafp+2", "monotone_boundary"),
    ("0x1.73ff79e557107p+3", 1, "0x1.0d4a4973344a1p+3", "boundary_eta"),
    ("0x1.1862aa9528242p+3", 1, "0x1.b9b635e5575d2p+2", "monotone_boundary"),
    ("0x1.a5028ffa9bdd7p+2", 1, "0x1.344895db8e938p+2", "monotone_boundary"),
    ("0x1.17154d5d98c90p+3", 1, "0x1.0c4cefe353c33p+3", "boundary_eta"),
    ("0x1.d731c9c7951a9p+3", 1, "0x1.7af716147028ep+2", "monotone_boundary"),
    ("0x1.30778329e9ce0p-3", 104, "0x1.58d243301bfb5p+3", "bisection"),
    ("0x1.3476c031d93f0p+1", 3, "0x1.35845bbe4d3e7p+3", "bisection"),
    ("0x1.5e14743a42562p+3", 2, "0x1.8bd340a16a07ap+3", "bisection"),
    ("0x1.10b09d75f5989p-3", 140, "0x1.743baa22c3bd5p+3", "bisection"),
    ("0x1.21f2869ff2a0ep-3", 127, "0x1.582af27f484d4p+3", "bisection"),
    ("0x1.06537a24dbbd0p-4", 231, "0x1.69b31d1cd3b55p+3", "bisection"),
    ("0x1.6905c0e698c77p-4", 82, "0x1.1bdb494db546bp+3", "bisection"),
    ("0x1.706eaa20d0435p-4", 114, "0x1.3b204ab38801ep+3", "bisection"),
    ("0x1.c0be918c391e4p-4", 57, "0x1.a93e0eecf4c10p+7", "bisection"),
    ("0x1.f10f9577790a6p-4", 100, "0x1.cc58220cb5e56p+4", "bisection"),
    ("0x1.628c11bc31d2dp-3", 31, "0x1.66bd446976e83p+3", "bisection"),
    ("0x1.7729a0619e8d3p-3", 37, "0x1.4636cc436b9c6p+6", "bisection"),
    ("0x1.d6c03707b6942p-4", 144, "0x1.7f6e4689b4c42p+3", "bisection"),
    ("0x1.835a5ef70a9dfp-2", 36, "0x1.f8d77e99e4a44p+5", "bisection"),
    ("0x1.6c34dcd99a61cp-3", 109, "0x1.b750d487caab0p+5", "bisection"),
    ("0x1.b4fe53ce2b8ebp-4", 71, "0x1.3272c974dba70p+5", "bisection"),
    ("0x1.e0d3e96ec1169p-6", 341, "0x1.4f66b29fc11f7p+3", "bisection"),
    ("0x1.4000000000000p+3", 1, "0x1.8ddfba65bcb84p+2", "monotone_boundary"),
    ("0x1.4000000000000p+3", 1, "0x1.5555652c40db2p+3", "boundary_eta"),
    ("0x1.1e999aa48f8f3p-3", 72, "0x1.65245f9a89da5p+4", "bisection"),
]


def test_optima_pinned_bit_for_bit():
    cases = list(criterion8_instances())
    cases += [(regime, rho, 10.0, make_params(**kwargs)) for regime, rho, kwargs in REGIME_CASES]
    assert len(cases) == len(PINNED_OPTIMA)
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for regime, rho, eta, params in cases:
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
    # the benchmark's optimizer ranges; under this seed both an unsnapped zoom
    # point and the scan's eta point score differently in an array call than
    # in a scalar call at some low-SNR bounded draw
    cases = REFINEMENT_CASES + [
        (HIGH_BOUNDED, 0.25, 10.0, make_params(tx_power_dbm=30.0, alpha_ris_ue=4.0, serve_radius=5.0)),
        (HIGH_RANDOM, 1.0, 10.0, make_params(tx_power_dbm=15.0, alpha_ris_ue=2.0)),
    ]
    for regime, eta, params, rho in _optimizer_instances(np.random.default_rng([4, 3]), 50):
        cases.append((regime, rho, eta, params))
    branches = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
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
    """Reference maximizer: the scalar golden-section search on a log axis
    that the zoom refinement replaced."""
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


REFINEMENT_CASES = list(criterion8_instances()) + [
    (regime, rho, 10.0, make_params(**kwargs)) for regime, rho, kwargs in REGIME_CASES
]


def always_zoom(monkeypatch):
    """Make every numerical solve zoom, exact slope or not."""
    exact_prepare = deployment._prepare
    monkeypatch.setattr(
        deployment,
        "_prepare",
        lambda *args: dataclasses.replace(exact_prepare(*args), exact_slope=False),
    )


class TestZoomRefinement:
    @pytest.mark.parametrize("regime,rho,eta,params", REFINEMENT_CASES)
    def test_matches_golden_section_reference(self, monkeypatch, regime, rho, eta, params):
        always_zoom(monkeypatch)  # else an exact-slope solve skips the zoom in both runs

        def golden_refinement(f, grid, fvals):
            # clamp: exp/log round-tripping at the eta edge can exceed it by 1 ulp
            lo, hi = scan_bracket(grid, fvals)
            lam = min(golden_section_max(lambda l: f(min(l, eta)), lo, hi), eta)
            return lam, float(f(lam))

        def solve():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                return optimize_density(eta, params, rho, regime)

        opt = solve()
        monkeypatch.setattr(deployment, "_zoom_max", golden_refinement)
        reference = solve()
        assert opt.n_star == reference.n_star
        assert abs(opt.objective - reference.objective) <= 1e-12

    @pytest.mark.parametrize("regime,rho,eta,params", REFINEMENT_CASES)
    def test_beats_dense_scan_of_bracket(self, regime, rho, eta, params):
        def fobj(lam):
            return deployment_objective(lam, eta, params, rho, regime)

        grid = np.geomspace(deployment._SCAN_FLOOR * eta, eta, deployment._SCAN_POINTS)
        fvals = fobj(grid)
        lam, f_lam = deployment._zoom_max(fobj, grid, fvals)
        lo, hi = scan_bracket(grid, fvals)
        assert lo <= lam <= hi
        assert f_lam == pytest.approx(fobj(lam), rel=1e-14)
        assert f_lam >= fobj(np.geomspace(lo, hi, 4097)).max() - 1e-12


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


def test_zoom_skip_moves_no_optimum(monkeypatch):
    # A solve skips the zoom where the slope is exact and has settled the
    # zoom's bracket, with a score small enough that rounding stays below
    # _REFINE_MIN_GAIN: a root skip has its root in the bracket, a boundary
    # skip has the scan peak at eta with the slope positive at both ends of
    # the last interval.  Wherever it skips, the zoom run on its scan may not
    # beat the candidates it compares by more than that; in the exact regimes
    # only a large score makes a solve that would skip zoom; and every optimum
    # is the one a solve that always zooms returns, bit for bit.
    exact_objective, exact_zoom = deployment.deployment_objective, deployment._zoom_max
    calls, zooms = [], []

    def recorded(*args):
        value = exact_objective(*args)
        calls.append((args[0], value))
        return value

    def counted(*args):
        zooms.append(args)
        return exact_zoom(*args)

    def solve_all(check):
        optima = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            for regime, rho, eta, params in cases:
                calls.clear()
                zooms.clear()
                opt = optimize_density(eta, params, rho, regime)
                optima.append((opt.lambda_star.hex(), opt.n_star, opt.objective.hex(), opt.branch))
                if check and opt.branch in ("bisection", "boundary_eta"):
                    check_premise(regime, rho, eta, params)
        return optima

    def check_premise(regime, rho, eta, params):
        grid, fvals = calls[0]  # the scan; the root's score follows it if there is a root
        signs = prepared_slope(grid, eta, params, rho, regime)
        has_root = bool(np.any((signs[:-1] > 0) & (signs[1:] <= 0)))
        root, f_root = calls[1] if has_root else (None, -math.inf)
        k, lo, hi = deployment._bracket(grid, fvals)
        exact = regime != LOW_BOUNDED
        root_settled = exact and has_root and lo <= root <= hi
        boundary_settled = exact and k == len(grid) - 1 and signs[-2] > 0 and signs[-1] > 0
        if zooms:
            if root_settled:
                assert abs(f_root) >= deployment._ROUNDING_SAFE_OBJECTIVE
                guarded[regime] += 1
            if boundary_settled:
                assert abs(fvals[-1]) >= deployment._ROUNDING_SAFE_OBJECTIVE
                guarded[regime] += 1
            return
        assert root_settled or boundary_settled, (regime, eta, rho)

        def fobj(lam):
            return exact_objective(lam, eta, params, rho, regime)

        _, f_refined, _ = deployment._zoom_candidate(fobj, grid, fvals, eta)
        if root_settled:
            root_skips[regime] += 1
            assert f_refined <= f_root + deployment._REFINE_MIN_GAIN, (regime, eta, rho)
        else:
            boundary_skips[regime] += 1
            assert f_refined <= max(f_root, fvals[-1]) + deployment._REFINE_MIN_GAIN, (regime, eta, rho)

    monkeypatch.setattr(deployment, "deployment_objective", recorded)
    monkeypatch.setattr(deployment, "_zoom_max", counted)
    cases = list(wide_box_instances(400, 2024))
    root_skips, boundary_skips, guarded = (collections.Counter() for _ in range(3))
    optima = solve_all(check=True)
    exact_regimes = {HIGH_BOUNDED, HIGH_RANDOM, LOW_RANDOM}
    assert set(root_skips) == set(boundary_skips) == exact_regimes
    assert sum(root_skips.values()) >= 100
    assert sum(guarded.values()) >= 1
    always_zoom(monkeypatch)
    assert solve_all(check=False) == optima


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
