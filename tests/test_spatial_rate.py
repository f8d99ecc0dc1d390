import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_legendre

from risgeo import spatial_rate, validation
from risgeo.errors import DomainError, NumericError
from risgeo.monte_carlo import McConfig, sample_nearest_distance, simulate_spatial_bound
from risgeo.params import DeploymentParams, SystemParams
from risgeo.phase_error import attenuation_factor
from risgeo.spatial_rate import (
    _radial_moment,
    annulus_distance_moment,
    association_probability,
    cascade_residual_term,
    expected_log2_d,
    expected_log2_r_truncated,
    nearest_ris_pdf,
    noise_residual_term,
    spatial_rate_closed_form,
    spatial_rate_integral,
)
from risgeo.streams import substream
from risgeo.validation import dblquad_residual, quad_direct


def make_params(tx_power_dbm=20.0, serve_radius=10.0, alpha_ris_ue=2.5, alpha_bs_ris=2.0):
    return SystemParams.from_engineering(
        tx_power_dbm=tx_power_dbm,
        noise_dbm=-80.0,
        beta_db=-30.0,
        alpha_direct=3.0,
        alpha_bs_ris=alpha_bs_ris,
        alpha_ris_ue=alpha_ris_ue,
        d_min=180.0,
        d_max=220.0,
        serve_radius=serve_radius,
    )


class TestNearestRisPdf:
    def test_vanishes_at_origin(self):
        assert nearest_ris_pdf(0.005, 0.0) == 0.0

    def test_normalization(self):
        total, _ = integrate.quad(lambda r: nearest_ris_pdf(0.005, r), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mode_location(self):
        lam = 0.005
        grid = np.linspace(0.01, 30.0, 20000)
        vals = [nearest_ris_pdf(lam, r) for r in grid]
        mode = grid[int(np.argmax(vals))]
        assert mode == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * lam), abs=5e-3)


class TestAssociationProbability:
    def test_reference_radii(self):
        assert round(association_probability(0.005, 12.0), 3) == 0.896
        assert round(association_probability(0.005, 16.0), 3) == 0.982

    def test_zero_radius(self):
        assert association_probability(0.005, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            association_probability(0.0, 12.0)
        with pytest.raises(DomainError):
            association_probability(np.array([0.005, np.nan, -0.005]), 12.0)
        with pytest.raises(DomainError):
            association_probability(0.005, -1.0)

    def test_monte_carlo_agreement(self):
        n = 10**6
        r = sample_nearest_distance(0.005, substream(21, 0), n)
        p = association_probability(0.005, 12.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(float(np.mean(r <= 12.0)) - p) < 3 * se


class TestGeometricExpectations:
    def test_log_distance_closed_form(self):
        got = expected_log2_d(180.0, 220.0)
        assert got == pytest.approx(7.646263092900027, abs=1e-12)
        oracle, _ = integrate.quad(
            lambda d: math.log2(d) * 2 * d / 16000.0, 180.0, 220.0, epsabs=1e-13
        )
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_log_distance_degenerate_annulus(self):
        assert expected_log2_d(200.0, 200.0001) == pytest.approx(math.log2(200.0), abs=1e-6)

    def test_log_distance_sampling(self):
        rng = substream(8, 0)
        n = 10**6
        d = np.sqrt(180.0**2 + rng.random(n) * 16000.0)
        vals = np.log2(d)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - expected_log2_d(180.0, 220.0)) < 3 * se

    @pytest.mark.parametrize("lam,c", [(0.005, 10.0), (0.05, 10.0), (0.005, 30.0)])
    def test_truncated_log_radius_vs_quadrature(self, lam, c):
        oracle, _ = integrate.quad(
            lambda r: math.log2(r) * nearest_ris_pdf(lam, r), 1e-14, c, epsabs=1e-13, limit=300
        )
        assert expected_log2_r_truncated(lam, c) == pytest.approx(oracle, abs=1e-8)

    def test_truncated_log_radius_full_range_limit(self):
        got = expected_log2_r_truncated(1.0 / math.pi, 1e5)
        assert got == pytest.approx(-np.euler_gamma / (2.0 * math.log(2.0)), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_log2_d(220.0, 180.0)
        with pytest.raises(DomainError):
            expected_log2_r_truncated(-1.0, 10.0)


class TestAnnulusMoments:
    def test_equal_exponents_give_unity(self):
        params = make_params(alpha_bs_ris=3.0)  # feeder exponent equals direct
        p = params.alpha_bs_ris - params.alpha_direct
        assert annulus_distance_moment(p, 180.0, 220.0) == pytest.approx(1.0, abs=1e-14)

    def test_cascade_moment_value(self):
        params = make_params()
        k1 = annulus_distance_moment(
            (params.alpha_bs_ris - params.alpha_direct) / 2.0, 180.0, 220.0
        )
        assert k1 == pytest.approx(0.07068115988519326, rel=1e-12)
        oracle, _ = integrate.quad(
            lambda d: d**-0.5 * 2 * d / 16000.0, 180.0, 220.0, epsabs=1e-14, epsrel=1e-13
        )
        assert k1 == pytest.approx(oracle, rel=1e-9)

    def test_noise_moment_value(self):
        k3 = annulus_distance_moment(make_params().alpha_bs_ris, 180.0, 220.0)
        assert k3 == pytest.approx(40400.0, rel=1e-12)
        oracle, _ = integrate.quad(
            lambda d: d**2 * 2 * d / 16000.0, 180.0, 220.0, epsrel=1e-13
        )
        assert k3 == pytest.approx(oracle, rel=1e-9)

    def test_degenerate_exponent_continuity(self):
        # feeder-direct exponent difference of exactly -2 hits the log branch
        assert annulus_distance_moment(-2.0, 180.0, 220.0) == pytest.approx(
            annulus_distance_moment(-2.0 + 1e-9, 180.0, 220.0), rel=1e-6
        )


class TestSpatialRateForms:
    def test_components_resum(self):
        params = make_params()
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        for fn in (spatial_rate_integral, spatial_rate_closed_form):
            br = fn(params, dep, 0.25)
            assert br.total == pytest.approx(br.component_sum(), abs=1e-9)
            assert br.assoc_probability == pytest.approx(
                1.0 - math.exp(-math.pi * 0.005 * 100.0), abs=1e-12
            )

    def test_low_snr_has_extra_component(self):
        params = make_params(tx_power_dbm=3.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        closed = spatial_rate_closed_form(params, dep, 0.0)
        assert closed.g_bar_low_term is not None and closed.g_bar_low_term > 0.0
        assert spatial_rate_integral(params, dep, 0.0).g_bar_low_term is None

    def test_vanishing_power(self):
        params = make_params(tx_power_dbm=-150.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        assert spatial_rate_integral(params, dep, 0.0).total == pytest.approx(0.0, abs=1e-4)

    def test_serving_radius_collapse(self):
        # C -> 0 removes the served branch entirely
        params = make_params(serve_radius=1e-4)
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        br = spatial_rate_integral(params, dep, 0.0)
        assert br.assoc_probability < 1e-9
        assert abs(br.h_term) < 1e-7
        assert br.total == pytest.approx(br.direct_term, abs=1e-6)

    def test_integral_matches_bound_average(self):
        params = make_params()
        mc = McConfig(trials=400_000, master_seed=13)
        for n in (20, 200):
            dep = DeploymentParams(density=0.005, elements_per_ris=n)
            quad_total = spatial_rate_integral(params, dep, 0.5).total
            est = simulate_spatial_bound(params, dep, 0.5, mc)
            assert abs(quad_total - est.value) <= 3.0 * est.std_error

    @pytest.mark.parametrize(
        "p_dbm,lam,n",
        [(30.0, 0.05, 200), (40.0, 0.005, 400), (30.0, 0.05, 400)],
    )
    def test_high_snr_closure_in_regime(self, p_dbm, lam, n):
        # the Jensen-residual closure is tight once the array is large and the
        # direct link is genuinely high-SNR across the annulus
        params = make_params(tx_power_dbm=p_dbm)
        dep = DeploymentParams(density=lam, elements_per_ris=n)
        gap = abs(
            spatial_rate_integral(params, dep, 0.0).total
            - spatial_rate_closed_form(params, dep, 0.0).total
        )
        assert gap <= 0.1

    @pytest.mark.parametrize("c,n", [(3.0, 200), (3.0, 400), (2.0, 100)])
    def test_low_snr_closure_in_regime(self, c, n):
        # with a small serving disk the residuals are genuinely small and the
        # low-SNR closure matches the exact integral and the bound average
        params = make_params(tx_power_dbm=3.0, serve_radius=c)
        dep = DeploymentParams(density=0.005, elements_per_ris=n)
        quad_total = spatial_rate_integral(params, dep, 0.0).total
        closed_total = spatial_rate_closed_form(params, dep, 0.0).total
        assert abs(quad_total - closed_total) <= 0.1
        est = simulate_spatial_bound(params, dep, 0.0, McConfig(trials=300_000, master_seed=9))
        assert abs(closed_total - est.value) <= max(3 * est.std_error, 0.1)

    def test_residual_small_against_array_gain(self):
        # residual-to-gain ratio below 2% for arrays of 256+ elements, and
        # decreasing with the array size
        params = make_params()
        for lam in (0.005, 0.05):
            ratios = []
            for n in (256, 512, 1024):
                br = spatial_rate_closed_form(params, DeploymentParams(density=lam, elements_per_ris=n), 0.0)
                ratios.append(br.g_bar_term / br.h_term)
            assert ratios[0] <= 0.02
            assert ratios[0] > ratios[1] > ratios[2]

    def test_saturation_in_serving_radius(self):
        # association saturates, so widening the serving disk past the point
        # where nearly every user is covered stops paying
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        totals = {}
        for c in (12.0, 16.0, 20.0):
            totals[c] = spatial_rate_integral(make_params(serve_radius=c), dep, 0.0).total
        assert totals[16.0] >= totals[12.0]
        assert totals[20.0] >= totals[16.0]
        assert totals[20.0] - totals[16.0] <= 0.05

    def test_full_coverage_limit(self):
        # dense deployment: association -> 1 and the direct-only branch dies off
        params = make_params()
        dep = DeploymentParams(density=5.0, elements_per_ris=64)
        br = spatial_rate_closed_form(params, dep, 0.0)
        assert br.assoc_probability == pytest.approx(1.0, abs=1e-12)
        assert abs(br.direct_term) < 1e-12

    def test_soft_precondition_flags(self):
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        assert spatial_rate_closed_form(make_params(tx_power_dbm=-10.0), dep, 0.0).warning is None
        assert spatial_rate_closed_form(make_params(tx_power_dbm=20.0), dep, 0.0).warning
        small = DeploymentParams(density=0.005, elements_per_ris=2)
        assert "moderate-to-large" in spatial_rate_closed_form(
            make_params(tx_power_dbm=45.0), small, 0.0
        ).warning


#: (P dBm, C m, lambda, N, rho) at which the closed form is held to account:
#: the criterion-6 / criterion-7 points and the in-regime closure points above.
_HIGH_POINTS = [(20.0, 10.0, 0.005, n, rho) for n in (20, 200) for rho in (0.0, 0.5)] + [
    (30.0, 10.0, 0.05, 200, 0.0),
    (40.0, 10.0, 0.005, 400, 0.0),
    (30.0, 10.0, 0.05, 400, 0.0),
]
_LOW_POINTS = [(3.0, 10.0, 0.005, n, rho) for n in (20, 200) for rho in (0.0, 0.5)] + [
    (3.0, 3.0, 0.005, 200, 0.0),
    (3.0, 3.0, 0.005, 400, 0.0),
    (3.0, 2.0, 0.005, 100, 0.0),
]
#: (P dBm, C m, lambda, N, rho, a3) at the SNR extremes, where a closed form
#: without the split radius missed the integral by -6.81, +2.27 and +1.81 bps/Hz.
_EXTREME_POINTS = [
    (-10.0, 10.0, 0.005, 2, 0.0, 2.5),
    (45.0, 10.0, 0.05, 2, 1.0, 4.0),
    (45.0, 20.0, 0.005, 1000, 1.0, 4.0),
]


class TestTightenedClosedForms:
    @pytest.mark.parametrize("p_dbm,c,lam,n,rho", _HIGH_POINTS + _LOW_POINTS)
    def test_residual_below_linearized(self, p_dbm, c, lam, n, rho):
        params = make_params(tx_power_dbm=p_dbm, serve_radius=c)
        br = spatial_rate_closed_form(params, DeploymentParams(density=lam, elements_per_ris=n), rho)
        paper = cascade_residual_term(n, rho, lam, params) + noise_residual_term(n, rho, lam, params)
        assert 0.0 < br.g_bar_term <= cascade_residual_term(n, rho, lam, params)
        assert br.g_bar_low_term > 0.0
        assert br.g_bar_term + br.g_bar_low_term <= paper

    @pytest.mark.parametrize(
        "p_dbm,c,lam,n,rho,a3",
        [(*pt, 2.5) for pt in _HIGH_POINTS + _LOW_POINTS] + _EXTREME_POINTS,
    )
    def test_low_snr_bounds_integral(self, p_dbm, c, lam, n, rho, a3):
        # every piece of the closed form is an upper bound, at any SNR
        params = make_params(tx_power_dbm=p_dbm, serve_radius=c, alpha_ris_ue=a3)
        dep = DeploymentParams(density=lam, elements_per_ris=n)
        closed = spatial_rate_closed_form(params, dep, rho)
        assert closed.total >= spatial_rate_integral(params, dep, rho).total - 1e-9
        assert closed.total == pytest.approx(closed.component_sum(), abs=1e-9)

    @pytest.mark.parametrize("alpha_ris_ue,n", [(2.0, 20), (4.0, 20), (4.0, 200)])
    def test_low_snr_integer_gamma_exponents(self, alpha_ris_ue, n):
        # a3 = 2 and 4 put the outer-annulus moment E{r^-a3} on Gamma(0, .)
        # and Gamma(-1, .); the split radius must leave an outer annulus:
        # r* = (snr beta^2 E{d^-a2} N (m^2 N + 1 - m^2))^(1/a3) < C, m = 1
        params = make_params(tx_power_dbm=3.0, alpha_ris_ue=alpha_ris_ue)
        dep = DeploymentParams(density=0.005, elements_per_ris=n)
        moment = annulus_distance_moment(-params.alpha_bs_ris, params.d_min, params.d_max)
        r_star = (params.snr_gain * params.beta_ref**2 * moment * n * n) ** (1.0 / alpha_ris_ue)
        assert r_star < params.serve_radius
        quad_total = spatial_rate_integral(params, dep, 0.0).total
        closed_total = spatial_rate_closed_form(params, dep, 0.0).total
        assert quad_total - 1e-9 <= closed_total <= quad_total + 0.05

    @pytest.mark.parametrize("p", [-4.0, -3.0, -2.0, -1.0, 1.25, 2.5])
    def test_annulus_radial_moment_vs_quadrature(self, p):
        lam, inner, outer = 0.005, 1.1, 10.0
        oracle, _ = integrate.quad(
            lambda r: r**p * nearest_ris_pdf(lam, r), inner, outer, epsabs=1e-14, epsrel=1e-12
        )
        assert _radial_moment(p, lam, inner, outer) == pytest.approx(oracle, rel=1e-9)


def reference_rule(params, n, rho, lam, n_r, n_d):
    """One order of the residual rule, summed node by node in (ln u, ln d^2)."""
    m = attenuation_factor(rho)
    a1, a2, a3 = params.alpha_direct, params.alpha_bs_ris, params.alpha_ris_ue
    beta = params.beta_ref
    u_max = math.pi * lam * params.serve_radius**2
    lo, hi = math.log(1e-14 * u_max), math.log(min(u_max, 40.0))
    q1, q2 = params.d_min**2, params.d_max**2
    v1, v2 = math.log(q1), math.log(q2)
    total = 0.0
    for x_r, w_r in zip(*roots_legendre(n_r)):
        u = math.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * x_r)
        r = math.sqrt(u / (math.pi * lam))
        for x_q, w_q in zip(*roots_legendre(n_d)):
            q = math.exp(0.5 * (v1 + v2) + 0.5 * (v2 - v1) * x_q)
            d = math.sqrt(q)
            a = beta**2 * d**-a2 * r**-a3 * n * (m * m * n + 1.0 - m * m)
            inside = a + math.sqrt(math.pi * beta**3) * d ** (-(a1 + a2) / 2) * r ** (-a3 / 2) * m * n
            inside += beta * d**-a1 + 1.0 / params.snr_gain
            annulus = 0.5 * (v2 - v1) * q / (q2 - q1)
            total += w_r * w_q * annulus * u * math.exp(-u) * math.log2(inside / a)
    return 0.5 * (hi - lo) * total


class TestResidualRule:
    @pytest.mark.parametrize(
        "p_dbm,c,lam,n,rho,a3",
        [
            (-10.0, 10.0, 0.005, 2, 0.0, 2.5),
            (3.0, 10.0, 0.005, 20, 0.5, 2.0),
            (20.0, 20.0, 0.05, 200, 1.0, 4.0),
            (45.0, 10.0, 0.5, 8, 0.25, 3.0),
        ],
    )
    def test_matches_adaptive_quadrature(self, p_dbm, c, lam, n, rho, a3):
        params = make_params(tx_power_dbm=p_dbm, serve_radius=c, alpha_ris_ue=a3)
        rule, _ = spatial_rate._residual_integral(params, n, rho, lam)
        assert abs(float(rule) - dblquad_residual(params, n, rho, lam)) <= 1e-9

    @pytest.mark.parametrize("p_dbm,d_min,d_max,lam,n,rho", validation._WIDE_ANNULUS_POINTS)
    def test_wide_annulus_orders_agree(self, p_dbm, d_min, d_max, lam, n, rho):
        params = validation._default_params(tx_power_dbm=p_dbm, d_min=d_min, d_max=d_max)
        fine, bound = spatial_rate._residual_integral(params, n, rho, lam)
        assert float(bound) <= 1e-12
        assert float(fine) == pytest.approx(reference_rule(params, n, rho, lam, 96, 12), rel=1e-13)

    def test_very_wide_annulus_still_raises(self):
        # d_max/d_min = 247: the 8- and 12-node annulus orders differ by 6.3e-5,
        # yet the carried fine estimate is within that bound of dblquad
        params = validation._default_params(d_min=1.1, d_max=272.0)
        with pytest.raises(NumericError, match="residual rule") as caught:
            spatial_rate._residual_integral(params, 20, 0.5, 0.005)
        assert caught.value.error_bound > spatial_rate._RULE_TOL
        gap = abs(caught.value.estimate - dblquad_residual(params, 20, 0.5, 0.005))
        assert gap <= caught.value.error_bound

    def test_breakdown_carries_the_two_order_bound(self):
        params = make_params()
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        fine, bound = spatial_rate._residual_integral(params, 200, 0.5, 0.005)
        direct, direct_bound = spatial_rate._direct_term_exact(params, 0.005)
        br = spatial_rate_integral(params, dep, 0.5)
        assert br.g_bar_term == float(fine)
        assert br.direct_term == direct
        assert br.error_bound == float(bound) + direct_bound
        assert float(bound) > 0.0 and direct_bound > 0.0
        assert spatial_rate_closed_form(params, dep, 0.5).error_bound is None

    def test_orders_apart_raise_with_the_fine_estimate(self, monkeypatch):
        # the worst point of the two-order grid: its orders differ by 1.6e-8
        params = make_params(tx_power_dbm=45.0, serve_radius=30.0, alpha_ris_ue=4.0)
        dep = DeploymentParams(density=0.02, elements_per_ris=2)
        fine = reference_rule(params, 2, 1.0, 0.02, 96, 12)
        gap = abs(fine - reference_rule(params, 2, 1.0, 0.02, 64, 8))
        assert 1e-8 < gap < spatial_rate._RULE_TOL
        monkeypatch.setattr(spatial_rate, "_RULE_TOL", gap / 2.0)
        with pytest.raises(NumericError) as caught:
            spatial_rate_integral(params, dep, 1.0)
        assert math.isfinite(caught.value.estimate)
        assert caught.value.estimate == pytest.approx(fine, rel=1e-13)
        assert caught.value.error_bound == pytest.approx(gap, rel=1e-5)

    def test_array_form_matches_scalar_calls(self):
        params = make_params(tx_power_dbm=10.0, alpha_ris_ue=3.0)
        lam = np.array([0.003, 0.05, 0.5, 5.0])[:, None]
        n = np.array([1, 8, 64, 1000])
        fine, bound = spatial_rate._residual_integral(params, n, 0.5, lam)
        assert fine.shape == bound.shape == (4, 4)
        for i, j in np.ndindex(fine.shape):
            one, one_bound = spatial_rate._residual_integral(params, int(n[j]), 0.5, float(lam[i, 0]))
            assert fine[i, j] == pytest.approx(float(one), rel=1e-15, abs=0.0)
            assert bound[i, j] == pytest.approx(float(one_bound), abs=1e-15 * abs(float(one)))


# A wide annulus (d_max/d_min = 239) whose direct rule orders differ by
# 3.7e-9, and a serving radius small enough that the residual rule's differ
# by only 4e-15: the worst point of the `direct_rule_vs_quad` box.
WIDE_DIRECT = dict(tx_power_dbm=2.245285588638364, alpha_direct=3.7745326165172672,
                   d_min=1.135448701075434, d_max=271.7066039814535, serve_radius=1e-3)


class TestDirectRule:
    def test_matches_adaptive_quadrature_on_wide_annuli(self):
        # the validate row; its box and measured worst case are at _direct_points
        [(ok, detail)] = validation._check_direct_rule(0, 0)
        assert ok, detail

    def test_density_enters_only_as_the_unserved_mass(self):
        params = make_params(tx_power_dbm=30.0)
        unit, unit_bound = spatial_rate._direct_term_exact(params, 0.0)
        for lam in (0.001, 0.05, 0.5):
            mass = math.exp(-math.pi * lam * params.serve_radius**2)
            value, bound = spatial_rate._direct_term_exact(params, lam)
            assert value == pytest.approx(mass * unit, rel=1e-15)
            assert bound == pytest.approx(mass * unit_bound, rel=1e-15)

    def test_error_bound_includes_the_direct_rule_difference(self):
        params = validation._default_params(**WIDE_DIRECT)
        dep = DeploymentParams(density=0.005, elements_per_ris=8)
        _, residual_bound = spatial_rate._residual_integral(params, 8, 0.5, 0.005)
        _, direct_bound = spatial_rate._direct_term_exact(params, 0.005)
        assert 1e-9 < direct_bound < spatial_rate._RULE_TOL
        assert float(residual_bound) < 1e-14
        br = spatial_rate_integral(params, dep, 0.5)
        assert br.error_bound == float(residual_bound) + direct_bound
        # the bound covers the rule's actual gap to adaptive quadrature
        mass = math.exp(-math.pi * 0.005 * params.serve_radius**2)
        assert abs(br.direct_term - mass * quad_direct(params)) <= br.error_bound

    def test_orders_apart_raise_with_the_estimate(self, monkeypatch):
        params = validation._default_params(**WIDE_DIRECT)
        dep = DeploymentParams(density=0.005, elements_per_ris=8)
        value, bound = spatial_rate._direct_term_exact(params, 0.005)
        monkeypatch.setattr(spatial_rate, "_RULE_TOL", bound / 2.0)
        with pytest.raises(NumericError, match="direct rule") as caught:
            spatial_rate_integral(params, dep, 0.5)
        assert caught.value.estimate == value
        assert caught.value.error_bound == bound
