import math
import warnings

import numpy as np
import pytest

from risgeo import deployment
from risgeo.deployment import (
    DeploymentOptimum,
    _slope_scaled,
    OptimizerRegime,
    deployment_objective,
    grid_search_oracle,
    objective_offset,
    objective_slope,
    optimize_density,
)
from risgeo.errors import DomainError, RegimeWarning
from risgeo.params import SystemParams
from risgeo.phase_error import attenuation_factor

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

    def test_regime_flag_outside_bounded_window(self):
        params = make_params()
        with pytest.warns(RegimeWarning):
            objective_slope(5.0, 10.0, params, 0.8, HIGH_BOUNDED)

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
        for lam, bad in (([0.375, 12.5, 0.625], "12.5"), ([0.375, 0.0], "0.0")):
            with pytest.raises(DomainError) as err:
                deployment_objective(np.array(lam), 10.0, params, 1.0, HIGH_RANDOM)
            message = str(err.value)
            assert message.endswith(f"got {bad}")
            assert "0.375" not in message


# One instance per regime, each off its closed-form branches, so the numeric
# scan and bisection run on it.
REGIME_CASES = [
    (HIGH_BOUNDED, 0.25, dict(tx_power_dbm=30.0, alpha_ris_ue=3.0, serve_radius=6.0)),
    (HIGH_RANDOM, 1.0, dict(tx_power_dbm=30.0, alpha_ris_ue=2.5)),
    (LOW_BOUNDED, 0.25, dict(tx_power_dbm=3.0, alpha_ris_ue=2.5)),
    (LOW_RANDOM, 1.0, dict(tx_power_dbm=3.0, alpha_ris_ue=3.2)),
]


class TestArrayEvaluation:
    @pytest.mark.parametrize("regime,rho,kwargs", REGIME_CASES)
    @pytest.mark.parametrize("fn", [deployment_objective, _slope_scaled])
    def test_matches_scalar_calls(self, fn, regime, rho, kwargs):
        # elementwise, not bitwise: vectorized exp/log loops may differ by an ulp
        params = make_params(**kwargs)
        eta = 10.0
        lam = np.concatenate([np.geomspace(1e-12 * eta, eta, 64), eta / np.arange(1, 513)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            vectorized = fn(lam, eta, params, rho, regime)
            scalar = np.array([fn(float(l), eta, params, rho, regime) for l in lam])
        np.testing.assert_allclose(vectorized, scalar, rtol=1e-14, atol=0.0)


class TestOptimizeDensity:
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
        for lam in np.geomspace(1e-9 * eta, eta, 1000):
            assert _slope_scaled(lam, eta, params, 1.0, HIGH_RANDOM) >= -1e-9

    def test_bisection_beats_or_matches_grid(self):
        rng = np.random.default_rng(42)
        for regime, rho_mode in (
            (HIGH_BOUNDED, "bounded"),
            (HIGH_RANDOM, "random"),
            (LOW_BOUNDED, "bounded"),
            (LOW_RANDOM, "random"),
        ):
            for _ in range(8):
                beta_db = -rng.uniform(25.0, 35.0)
                if regime.snr == "high":
                    a3 = rng.uniform(2.1, 3.9)
                    c = rng.uniform(2.0, 12.0)
                    eta = rng.uniform(1.0, 20.0)
                    p_dbm = rng.uniform(25.0, 40.0)
                    rho = 1.0 if rho_mode == "random" else rng.uniform(0.0, 0.8)
                else:
                    a3 = rng.uniform(2.1, 3.5)
                    c = rng.uniform(2.0, 4.0)
                    eta = rng.uniform(5.0, 20.0)
                    p_dbm = rng.uniform(0.0, 6.0)
                    rho = 1.0 if rho_mode == "random" else rng.uniform(0.0, 0.5)
                params = make_params(
                    tx_power_dbm=p_dbm,
                    beta_db=beta_db,
                    alpha_ris_ue=a3,
                    serve_radius=c,
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RegimeWarning)
                    opt = optimize_density(eta, params, rho, regime)
                    n_max = min(max(64, 4 * opt.n_star), 8192)
                    oracle = grid_search_oracle(eta, params, rho, regime, n_max)
                assert opt.objective >= oracle.objective - 0.02
                assert opt.lambda_star <= eta
                assert opt.n_star == math.ceil(eta / opt.lambda_star - 1e-12)

    def test_objective_field_consistency(self):
        params = make_params(alpha_ris_ue=2.5, tx_power_dbm=30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            opt = optimize_density(10.0, params, 0.3, HIGH_BOUNDED)
            want = deployment_objective(opt.lambda_star, 10.0, params, 0.3, HIGH_BOUNDED)
        assert opt.objective == pytest.approx(want, abs=1e-9)

    def test_root_stable_under_special_function_noise(self, monkeypatch):
        # on a flat maximum the golden-section refinement wanders by ~1e-8
        # relative; it must not displace the bisected root on rounding noise
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

    def test_domain(self):
        params = make_params()
        with pytest.raises(DomainError):
            optimize_density(0.0, params, 1.0, HIGH_RANDOM)
        with pytest.raises(DomainError):
            DeploymentOptimum(lambda_star=0.0, n_star=1, objective=0.0, branch="grid", d_constant=0.0)


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
        def plateau(lam, eta, params, rho, regime):
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
