import math

import numpy as np
import pytest
from scipy import integrate

from risgeo.errors import DomainError
from risgeo.monte_carlo import McConfig, sample_nearest_distance, simulate_spatial_bound
from risgeo.params import DeploymentParams, SystemParams
from risgeo.spatial_rate import (
    _radial_moment,
    _split_radius,
    annulus_distance_moment,
    annulus_moment,
    association_probability,
    cascade_residual_term,
    expected_log2_d,
    expected_log2_r_truncated,
    nearest_ris_pdf,
    noise_residual_term,
    spatial_rate_closed_form,
    spatial_rate_integral,
)
from risgeo.special_math import euler_constant
from risgeo.streams import substream


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
        assert got == pytest.approx(-euler_constant() / (2.0 * math.log(2.0)), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            expected_log2_d(220.0, 180.0)
        with pytest.raises(DomainError):
            expected_log2_r_truncated(-1.0, 10.0)


class TestAnnulusMoments:
    def test_equal_exponents_give_unity(self):
        params = make_params(alpha_bs_ris=3.0)  # feeder exponent equals direct
        assert annulus_moment(2, params) == pytest.approx(1.0, abs=1e-14)

    def test_cascade_moment_value(self):
        params = make_params()
        assert annulus_moment(1, params) == pytest.approx(0.07068115988519326, rel=1e-12)
        oracle, _ = integrate.quad(
            lambda d: d**-0.5 * 2 * d / 16000.0, 180.0, 220.0, epsabs=1e-14, epsrel=1e-13
        )
        assert annulus_moment(1, params) == pytest.approx(oracle, rel=1e-9)

    def test_noise_moment_value(self):
        params = make_params()
        assert annulus_moment(3, params) == pytest.approx(40400.0, rel=1e-12)
        oracle, _ = integrate.quad(
            lambda d: d**2 * 2 * d / 16000.0, 180.0, 220.0, epsrel=1e-13
        )
        assert annulus_moment(3, params) == pytest.approx(oracle, rel=1e-9)

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
        # and Gamma(-1, .); the split radius must leave an outer annulus
        params = make_params(tx_power_dbm=3.0, alpha_ris_ue=alpha_ris_ue)
        dep = DeploymentParams(density=0.005, elements_per_ris=n)
        assert _split_radius(params, n, 0.0) < params.serve_radius
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
