import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from risgeo.errors import DomainError
from risgeo.monte_carlo import McConfig, simulate_fixed_rate
from risgeo.params import LinkGeometry, SystemParams
from risgeo.phase_error import attenuation_factor
from risgeo.rate_bounds import (
    compensation,
    mean_power_gain,
    rate_asymptotic,
    rate_bound_direct,
    rate_bound_ris,
)


def make_params(tx_power_dbm=10.0, alpha_direct=3.0, alpha_ris_ue=2.5):
    return SystemParams.from_engineering(
        tx_power_dbm=tx_power_dbm,
        noise_dbm=-80.0,
        beta_db=-30.0,
        alpha_direct=alpha_direct,
        alpha_bs_ris=2.0,
        alpha_ris_ue=alpha_ris_ue,
        d_min=180.0,
        d_max=220.0,
        serve_radius=10.0,
    )


GEOM = LinkGeometry(d=200.0, l=200.0, r=10.0)


class TestMeanPowerGain:
    """The bracket the spatial bound estimator selects by a 0/1 mask on blbr."""

    BD = np.geomspace(1e-300, 1e3, 607)

    @pytest.mark.parametrize("n", [1.0, 64.0, 1e4])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_zero_cascade_gain_gives_direct_gain_bit_for_bit(self, rho, n):
        m = attenuation_factor(rho)
        with np.errstate(all="raise"):
            for bd in self.BD.tolist():
                assert mean_power_gain(0.0, bd, m, n) == bd
            np.testing.assert_array_equal(mean_power_gain(np.zeros_like(self.BD), self.BD, m, n), self.BD)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_infinite_cascade_gain_stays_infinite(self, rho):
        # a served trial at area 0; at rho = 1 (m = 0) there is no cross term
        # to form as sqrt(inf) * 0, which would make the bracket NaN
        m = attenuation_factor(rho)
        assert mean_power_gain(np.inf, 1e-9, m, 64.0) == np.inf
        got = mean_power_gain(np.array([np.inf, 0.0]), np.array([1e-9, 1e-9]), m, 64.0)
        assert got.tolist() == [np.inf, 1e-9]

    def test_out_matches_fresh_array_and_scalars(self):
        rng = np.random.default_rng(3)
        blbr, bd = 10.0 ** rng.uniform(-20, 0, (2, 4, 256))
        m = attenuation_factor(0.3)
        want = np.array([mean_power_gain(a, b, m, 32.0) for a, b in zip(blbr.ravel().tolist(), bd.ravel().tolist())])
        fresh = mean_power_gain(blbr, bd, m, 32.0)
        in_place = blbr.copy()
        assert mean_power_gain(in_place, bd, m, 32.0, out=in_place) is in_place
        np.testing.assert_array_equal(fresh.ravel(), want)
        np.testing.assert_array_equal(in_place, fresh)


class TestRateBoundRis:
    def test_random_phase_benchmark(self):
        # rho = 1 collapses to log2(1 + snr (bl br N + bd)) exactly
        params = make_params()
        n = 128
        got = rate_bound_ris(params, GEOM, n, 1.0).value
        bl = params.beta_bs_ris(200.0)
        br = params.beta_ris_ue(10.0)
        bd = params.beta_direct(200.0)
        want = math.log2(1.0 + params.snr_gain * (bl * br * n + bd))
        assert got == pytest.approx(want, abs=1e-14)

    def test_ideal_phase_benchmark(self):
        params = make_params()
        n = 128
        got = rate_bound_ris(params, GEOM, n, 0.0).value
        bl = params.beta_bs_ris(200.0)
        br = params.beta_ris_ue(10.0)
        bd = params.beta_direct(200.0)
        q = math.pi**2 / 16.0
        inside = (
            bl * br * (q * n * n + (1.0 - q) * n)
            + math.sqrt(bl * br * bd) * math.pi**1.5 / 4.0 * n
            + bd
        )
        assert got == pytest.approx(math.log2(1.0 + params.snr_gain * inside), abs=1e-14)

    def test_tight_against_exact_rate(self):
        # the Jensen bound sits above but close to the simulated exact rate
        params = make_params()
        mc = McConfig(trials=30000, master_seed=5)
        bound = rate_bound_ris(params, GEOM, 200, 0.0).value
        est = simulate_fixed_rate(params, GEOM, 200, 0.0, mc)
        assert est.value <= bound + 3 * est.std_error
        assert bound - est.value <= 0.3

    def test_rho_ordering(self):
        params = make_params()
        for rho in (0.1, 0.35, 0.7, 0.95):
            top = rate_bound_ris(params, GEOM, 64, 0.0).value
            mid = rate_bound_ris(params, GEOM, 64, rho).value
            bot = rate_bound_ris(params, GEOM, 64, 1.0).value
            assert top >= mid >= bot

    @given(
        n=st.integers(min_value=1, max_value=400),
        rho=st.floats(min_value=0.0, max_value=1.0),
        p_dbm=st.floats(min_value=-20.0, max_value=50.0),
    )
    def test_monotone_in_size_and_power(self, n, rho, p_dbm):
        params = make_params(tx_power_dbm=p_dbm)
        up_n = rate_bound_ris(params, GEOM, n + 16, rho).value
        base = rate_bound_ris(params, GEOM, n, rho).value
        assert up_n >= base - 1e-12
        stronger = make_params(tx_power_dbm=p_dbm + 2.0)
        assert rate_bound_ris(stronger, GEOM, n, rho).value >= base - 1e-12

    def test_jensen_dominance_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            d = rng.uniform(50.0, 500.0)
            r = rng.uniform(1.0, 40.0)
            n = int(rng.integers(1, 128))
            rho = rng.uniform(0.0, 1.0)
            p_dbm = rng.uniform(-10.0, 40.0)
            params = make_params(tx_power_dbm=p_dbm)
            geom = LinkGeometry(d=d, l=d, r=r)
            bound = rate_bound_ris(params, geom, n, rho).value
            est = simulate_fixed_rate(params, geom, n, rho, McConfig(trials=4000, master_seed=17))
            assert est.value - 3.0 * est.std_error <= bound

    def test_domain(self):
        params = make_params()
        with pytest.raises(DomainError):
            rate_bound_ris(params, GEOM, 0, 0.5)
        with pytest.raises(DomainError):
            LinkGeometry(d=-1.0, l=200.0, r=10.0)


class TestRateBoundDirect:
    def test_cell_edge_value(self):
        # snr * beta * 200^-3 = 0.125 at 10 dBm / -80 dBm / -30 dB
        params = make_params()
        assert rate_bound_direct(params, 200.0).value == pytest.approx(
            math.log2(1.125), abs=1e-12
        )

    def test_vanishing_power(self):
        params = make_params(tx_power_dbm=-200.0)
        assert rate_bound_direct(params, 200.0).value == pytest.approx(0.0, abs=1e-8)

    def test_pathloss_slope(self):
        # doubling distance at exponent 2 costs exactly 6.02 dB of SNR
        params = make_params(alpha_direct=2.0)
        near = params.snr_gain * params.beta_direct(100.0)
        far = params.snr_gain * params.beta_direct(200.0)
        assert 10.0 * math.log10(near / far) == pytest.approx(
            20.0 * math.log10(2.0), abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_bound_direct(make_params(), 0.0)


class TestRateAsymptotic:
    def test_element_compensation_exact(self):
        params = make_params()
        base = rate_asymptotic(params, GEOM, 200.0, 0.0).value
        scaled = rate_asymptotic(params, GEOM, 200.0 * math.pi / 2.0, 0.5).value
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_power_compensation_exact(self):
        params = make_params()
        base = rate_asymptotic(params, GEOM, 200.0, 0.0).value
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
        assert rate_asymptotic(boosted, GEOM, 200.0, 0.5).value == pytest.approx(
            base, abs=1e-12
        )

    def test_doubling_elements_adds_six_db(self):
        params = make_params()
        bl = params.beta_bs_ris(200.0)
        br = params.beta_ris_ue(10.0)
        m = attenuation_factor(0.0)
        xi_1 = m * m * 200.0**2 * params.snr_gain * bl * br
        xi_2 = m * m * 400.0**2 * params.snr_gain * bl * br
        assert 10.0 * math.log10(xi_2 / xi_1) == pytest.approx(6.0206, abs=1e-3)

    def test_agrees_with_full_bound_when_dominant(self):
        # dropped terms are each below 1/100 of the leading one at this size
        params = make_params()
        geom = LinkGeometry(d=200.0, l=200.0, r=2.0)
        m = attenuation_factor(0.0)
        bl = params.beta_bs_ris(200.0)
        br = params.beta_ris_ue(2.0)
        bd = params.beta_direct(200.0)
        n = int(100.0 * max(1.0 / m**2 - 1.0, math.sqrt(math.pi * bd / (bl * br)) / m)) + 1
        asym = rate_asymptotic(params, geom, float(n), 0.0)
        full = rate_bound_ris(params, geom, n, 0.0)
        assert asym.warning is None
        assert abs(asym.value - full.value) <= 0.05

    def test_warning_below_threshold(self):
        params = make_params()
        est = rate_asymptotic(params, GEOM, 4.0, 0.0)
        assert est.warning is not None

    def test_random_phase_rejected(self):
        with pytest.raises(DomainError):
            rate_asymptotic(make_params(), GEOM, 100.0, 1.0)


class TestCompensation:
    def test_two_bit_case(self):
        out = compensation(0.0, 0.25)
        assert out["element_factor"] == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), abs=1e-12)
        assert out["power_delta_db"] == pytest.approx(0.912, abs=1e-3)

    def test_one_bit_case(self):
        out = compensation(0.0, 0.5)
        assert out["element_factor"] == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert out["power_delta_db"] == pytest.approx(3.922, abs=1e-3)

    @given(rho=st.floats(min_value=0.0, max_value=0.99))
    def test_identity(self, rho):
        out = compensation(rho, rho)
        assert out["element_factor"] == 1.0
        assert out["power_delta_db"] == 0.0

    def test_preserves_asymptote(self):
        params = make_params()
        out = compensation(0.1, 0.6)
        base = rate_asymptotic(params, GEOM, 300.0, 0.1).value
        moved = rate_asymptotic(params, GEOM, 300.0 * out["element_factor"], 0.6).value
        assert moved == pytest.approx(base, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            compensation(0.0, 1.0)
        with pytest.raises(DomainError):
            compensation(1.0, 0.5)
