import math

import numpy as np
import pytest
from scipy import integrate, stats

from risgeo.errors import DomainError
from risgeo.monte_carlo import (
    McConfig,
    _cascade,
    estimate_reflection_moments,
    hppp_window_radius,
    sample_hppp_nearest,
    sample_nearest_distance,
    simulate_fixed_rate,
    simulate_spatial_bound,
    simulate_spatial_exact,
)
from risgeo.params import DeploymentParams, LinkGeometry, SystemParams
from risgeo.phase_error import sample_phase_errors
from risgeo.rate_bounds import rate_bound_ris
from risgeo.streams import substream


def make_params(tx_power_dbm=10.0):
    return SystemParams.from_engineering(
        tx_power_dbm=tx_power_dbm,
        noise_dbm=-80.0,
        beta_db=-30.0,
        alpha_direct=3.0,
        alpha_bs_ris=2.0,
        alpha_ris_ue=2.5,
        d_min=180.0,
        d_max=220.0,
        serve_radius=10.0,
    )


GEOM = LinkGeometry(d=200.0, l=200.0, r=10.0)


class TestStreams:
    def test_substreams_independent_and_reproducible(self):
        a1 = substream(7, 0).standard_normal(8)
        a2 = substream(7, 0).standard_normal(8)
        b = substream(7, 1).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestNearestDistanceSampler:
    def test_association_fraction(self):
        n = 10**6
        r = sample_nearest_distance(0.005, substream(3, 0), n)
        p = 1.0 - math.exp(-math.pi * 0.005 * 144.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(float(np.mean(r <= 12.0)) - p) <= 3 * se

    def test_mean_distance(self):
        # mean of the nearest-distance law is 1 / (2 sqrt(lam))
        lam = 0.02
        n = 10**6
        r = sample_nearest_distance(lam, substream(3, 1), n)
        want = 1.0 / (2.0 * math.sqrt(lam))
        quad, _ = integrate.quad(
            lambda x: x * 2 * math.pi * lam * x * math.exp(-math.pi * lam * x * x), 0, np.inf
        )
        assert want == pytest.approx(quad, abs=1e-9)
        se = r.std(ddof=1) / math.sqrt(n)
        assert abs(r.mean() - want) <= 3 * se

    def test_dense_deployment_always_covered(self):
        r = sample_nearest_distance(50.0, substream(3, 2), 10**5)
        assert np.all(r <= 10.0)


class TestHpppSampler:
    def test_distributional_agreement_with_inverse_cdf(self):
        lam = 0.02
        n = 30000
        direct = sample_nearest_distance(lam, substream(5, 0), n)
        radius = hppp_window_radius(lam, 10.0)
        rng = substream(5, 1)
        scatter = []
        while len(scatter) < n:
            s = sample_hppp_nearest(lam, radius, rng)
            if s is not None:
                scatter.append(s)
        stat = stats.ks_2samp(direct, np.asarray(scatter)).statistic
        assert stat < 1.628 * math.sqrt(2.0 / n)  # 1% critical value

    def test_mostly_empty_when_sparse(self):
        # mean count 0.01 -> ~99% of windows hold no reflector at all
        lam = 0.01 / (math.pi * 1.0)
        rng = substream(5, 2)
        n = 4000
        empty = sum(sample_hppp_nearest(lam, 1.0, rng) is None for _ in range(n))
        p_empty = math.exp(-0.01)
        se = math.sqrt(p_empty * (1 - p_empty) / n)
        assert abs(empty / n - p_empty) <= 3 * se + 1e-6

    def test_window_radius_covers_serving_disk(self):
        assert hppp_window_radius(0.005, 10.0) >= 30.0
        lam = 0.005
        r = hppp_window_radius(lam, 10.0)
        assert math.exp(-math.pi * lam * r * r) < 1e-9


class TestCascadeKernel:
    # cos/sin against exp(1j*tau) differ by a few ulp and the summation order
    # differs, so float64 agreement is about N * 2^-52 * sum|a| (~1e-14 at
    # N = 64); a wrong draw would be off by O(sum|a|)
    REL_TOL = 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 64])
    def test_matches_complex_reference(self, n, rho):
        size = 1000
        re, im, h_abs = _cascade(substream(21, n), size, n, rho)
        rng = substream(21, n)
        e = rng.standard_exponential((2, size, n))
        amp = np.sqrt(e[0] * e[1])
        tau = sample_phase_errors(rho, size * n, rng).reshape(size, n)
        direct = np.sqrt(rng.standard_exponential(size))
        want = (amp * np.exp(1j * tau)).sum(axis=1)
        assert np.all(np.abs(re + 1j * im - want) <= self.REL_TOL * amp.sum(axis=1))
        assert np.array_equal(h_abs, direct)

    def test_amplitude_law_matches_complex_gaussians(self):
        # the moment tests pin two moments; the rate depends on the whole law
        n = 20000
        amp, _, h_abs = _cascade(substream(23, 0), n, 1, 0.0)
        rng = substream(23, 1)

        def cn01(shape):  # reference CN(0,1) sampler
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

        cn01(())  # one direct-link gain, drawn first as a link realization does
        g, h = np.abs(cn01(n)), np.abs(cn01(n))
        critical = 1.628 * math.sqrt(2.0 / n)  # 1% critical value
        assert stats.ks_2samp(amp, g * h).statistic < critical
        assert stats.ks_2samp(h_abs, g).statistic < critical


class TestSimulateFixedRate:
    def test_worker_determinism(self):
        params = make_params()
        runs = [
            simulate_fixed_rate(
                params, GEOM, 32, 0.5, McConfig(trials=10000, master_seed=4, workers=w)
            )
            for w in (1, 2, 8)
        ]
        assert runs[0].value == runs[1].value == runs[2].value
        assert runs[0].std_error == runs[1].std_error == runs[2].std_error

    def test_direct_only_reduction(self):
        # zero reflecting elements must reproduce the direct-link ergodic rate
        params = make_params()
        est = simulate_fixed_rate(params, GEOM, 0, 0.0, McConfig(trials=200000, master_seed=9))
        snr_bd = params.snr_gain * params.beta_direct(200.0)
        oracle, _ = integrate.quad(
            lambda t: math.log2(1.0 + snr_bd * t) * math.exp(-t), 0.0, np.inf
        )
        assert abs(est.value - oracle) <= 3 * est.std_error

    def test_below_bound(self):
        params = make_params()
        mc = McConfig(trials=20000, master_seed=2)
        for rho in (0.0, 0.5, 1.0):
            bound = rate_bound_ris(params, GEOM, 96, rho).value
            est = simulate_fixed_rate(params, GEOM, 96, rho, mc)
            assert est.value - 3 * est.std_error <= bound

    def test_doubling_elements_recovers_phase_error_loss(self):
        # at the moderate-error operating point, a 2x array closes the gap
        params = make_params()
        mc = McConfig(trials=60000, master_seed=6)
        impaired = simulate_fixed_rate(params, GEOM, 400, 0.6, mc)
        clean = simulate_fixed_rate(params, GEOM, 200, 0.0, mc)
        tol = 0.2 + 3 * (impaired.std_error + clean.std_error)
        assert abs(impaired.value - clean.value) <= tol


class TestSimulateSpatial:
    def test_bound_estimator_determinism_and_policy(self):
        params = make_params(tx_power_dbm=20.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=64)
        a = simulate_spatial_bound(params, dep, 0.5, McConfig(trials=50000, master_seed=1))
        b = simulate_spatial_bound(params, dep, 0.5, McConfig(trials=50000, master_seed=1, workers=4))
        assert a.value == b.value
        # the explicit-scatter window policy estimates the same quantity
        c = simulate_spatial_bound(
            params,
            dep,
            0.5,
            McConfig(trials=200000, master_seed=2, window_policy="full_hppp"),
        )
        assert abs(a.value - c.value) <= 3 * (a.std_error + c.std_error)

    def test_exact_worker_determinism(self):
        params = make_params(tx_power_dbm=20.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=32)
        runs = [
            simulate_spatial_exact(
                params, dep, 0.5, McConfig(trials=10000, master_seed=4, workers=w)
            )
            for w in (1, 2, 8)
        ]
        assert runs[0].value == runs[1].value == runs[2].value
        assert runs[0].std_error == runs[1].std_error == runs[2].std_error

    def test_exact_below_bound_and_gap_small(self):
        params = make_params(tx_power_dbm=20.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        mc = McConfig(trials=150000, master_seed=8)
        bound = simulate_spatial_bound(params, dep, 0.0, mc)
        exact = simulate_spatial_exact(params, dep, 0.0, mc)
        assert exact.value <= bound.value + 3 * (exact.std_error + bound.std_error)
        assert bound.value - exact.value <= 0.3

    def test_tiny_serving_radius_is_direct_only(self):
        params = SystemParams.from_engineering(
            20.0, -80.0, -30.0, 3.0, 2.0, 2.5, 180.0, 220.0, 1e-4
        )
        dep = DeploymentParams(density=0.005, elements_per_ris=64)
        mc = McConfig(trials=100000, master_seed=12)
        est = simulate_spatial_bound(params, dep, 0.0, mc)
        snr_beta = params.snr_gain * params.beta_ref
        oracle, _ = integrate.quad(
            lambda d: math.log2(1.0 + snr_beta * d**-3.0) * 2 * d / 16000.0, 180.0, 220.0
        )
        assert abs(est.value - oracle) <= 3 * est.std_error


class TestReflectionMoments:
    def test_worker_determinism(self):
        runs = [
            estimate_reflection_moments(16, 0.5, McConfig(trials=10000, master_seed=4, workers=w))
            for w in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_single_element_ideal(self):
        got = estimate_reflection_moments(1, 0.0, McConfig(trials=400000, master_seed=3))
        assert abs(got.mean_re_z - math.pi / 4.0) <= 3 * got.stderr_re_z
        assert abs(got.mean_abs_z_sq - 1.0) <= 3 * got.stderr_abs_z_sq

    def test_random_phase_power_scales_linearly(self):
        got = estimate_reflection_moments(64, 1.0, McConfig(trials=300000, master_seed=5))
        assert abs(got.mean_abs_z_sq - 64.0) <= 3 * got.stderr_abs_z_sq

    def test_one_bit_mixed_moment(self):
        # N + sin^2(pi/2)/(16/4) N(N-1) = 16 + 60 = 76 at 16 elements
        got = estimate_reflection_moments(16, 0.5, McConfig(trials=400000, master_seed=7))
        assert abs(got.mean_abs_z_sq - 76.0) <= 3 * got.stderr_abs_z_sq

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(trials=0)
        with pytest.raises(DomainError):
            McConfig(trials=10, window_policy="nope")
