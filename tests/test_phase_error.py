import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from risgeo.errors import DomainError
from risgeo.phase_error import (
    attenuation_factor,
    crossover_size,
    error_difference_pdf,
    expected_cos_diff,
    sample_phase_errors,
)
from risgeo.streams import substream


class TestAttenuationFactor:
    def test_anchor_values(self):
        assert attenuation_factor(0.0) == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert attenuation_factor(0.5) == pytest.approx(0.5, abs=1e-15)
        assert attenuation_factor(1.0) == 0.0
        assert attenuation_factor(0.25) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
        assert attenuation_factor(0.25) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(0.0, 1.0, 200)
        vals = [attenuation_factor(r) for r in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= math.pi / 4.0 + 1e-15 for v in vals)

    @given(rho=st.floats(min_value=1e-9, max_value=1.0))
    def test_sine_identity(self, rho):
        assert 4.0 * rho * attenuation_factor(rho) == pytest.approx(
            math.sin(rho * math.pi), abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            attenuation_factor(-0.1)
        with pytest.raises(DomainError):
            attenuation_factor(1.1)


class TestExpectedCosDiff:
    def test_limits(self):
        assert expected_cos_diff(0.0) == 1.0
        assert expected_cos_diff(0.5) == pytest.approx(4.0 / math.pi**2, abs=1e-15)

    @given(rho=st.floats(min_value=1e-12, max_value=1.0))
    def test_cross_identity_with_attenuation(self, rho):
        # sin^2(pi rho)/(pi rho)^2 == 16 m^2 / pi^2
        m = attenuation_factor(rho)
        assert expected_cos_diff(rho) == pytest.approx(16.0 * m * m / math.pi**2, abs=1e-12)
        assert 0.0 <= expected_cos_diff(rho) <= 1.0

    def test_sampling_oracle(self):
        rng = substream(42, 0)
        n = 10**6
        for rho in (0.25, 0.3, 0.5, 0.75, 1.0):
            t1 = sample_phase_errors(rho, n, rng)
            t2 = sample_phase_errors(rho, n, rng)
            vals = np.cos(t1 - t2)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - expected_cos_diff(rho)) < 3 * se + 1e-9


class TestErrorDifferencePdf:
    @pytest.mark.parametrize("rho", [0.1, 0.4, 1.0])
    def test_center_and_edges(self, rho):
        assert error_difference_pdf(rho, 0.0) == pytest.approx(
            1.0 / (2.0 * rho * math.pi), abs=1e-15
        )
        assert error_difference_pdf(rho, 2.0 * rho * math.pi) == 0.0
        assert error_difference_pdf(rho, -2.0 * rho * math.pi) == 0.0

    def test_normalization(self):
        rho = 0.4
        total, _ = integrate.quad(
            lambda z: error_difference_pdf(rho, z),
            -0.8 * math.pi,
            0.8 * math.pi,
            epsabs=1e-12,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(
        rho=st.floats(min_value=0.01, max_value=1.0),
        z=st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_symmetry_and_sign(self, rho, z):
        assert error_difference_pdf(rho, z) == error_difference_pdf(rho, -z)
        assert error_difference_pdf(rho, z) >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            error_difference_pdf(0.0, 0.1)


class TestSampling:
    def test_zero_rho_all_zero(self):
        rng = substream(1, 0)
        assert np.all(sample_phase_errors(0.0, 1000, rng) == 0.0)

    def test_full_range_mean_cos(self):
        rng = substream(7, 0)
        tau = sample_phase_errors(1.0, 10**6, rng)
        vals = np.cos(tau)
        se = vals.std(ddof=1) / 1e3
        assert abs(vals.mean()) < 3 * se  # E cos = sin(pi)/pi = 0

    def test_half_range_mean_cos(self):
        rng = substream(7, 1)
        tau = sample_phase_errors(0.5, 10**6, rng)
        vals = np.cos(tau)
        se = vals.std(ddof=1) / 1e3
        assert abs(vals.mean() - 2.0 / math.pi) < 3 * se

    def test_support(self):
        rng = substream(3, 0)
        tau = sample_phase_errors(0.3, 10**5, rng)
        assert np.all(np.abs(tau) <= 0.3 * math.pi)


class TestCrossoverSize:
    def test_anchor_values(self):
        assert crossover_size(0.0) == pytest.approx(16.0 / math.pi**2 - 1.0, rel=1e-15)
        assert crossover_size(0.5) == 3.0
        assert crossover_size(1.0) == math.inf
