import math

import numpy as np
import pytest

from risgeo.errors import DomainError
from risgeo.phase_error import attenuation_factor
from risgeo.rate_loss import rate_loss, rate_loss_asymptote, rate_loss_regime
from risgeo.spatial_rate import array_gain_term, association_probability

ASSOC = association_probability(0.05, 10.0)  # essentially 1 at these values


class TestRateLoss:
    def test_ideal_phases_lose_nothing(self):
        assert rate_loss(500, 0.0, 0.05, 10.0) == 0.0

    def test_random_phase_formula(self):
        q = math.pi**2 / 16.0
        for n in (1, 10, 1000):
            want = ASSOC * math.log2(q * n + 1.0 - q)
            assert rate_loss(n, 1.0, 0.05, 10.0) == pytest.approx(want, abs=1e-12)

    def test_one_bit_saturation_level(self):
        # converges to assoc * log2(pi^2/4) ~ 1.303 by N = 1e4
        want = ASSOC * math.log2(math.pi**2 / 4.0)
        assert rate_loss(10**4, 0.5, 0.05, 10.0) == pytest.approx(want, abs=1e-3)
        assert want == pytest.approx(1.303, abs=1e-3)

    def test_nonnegative_and_monotone(self):
        for n in (1, 10, 100, 1000):
            losses = [rate_loss(n, rho, 0.05, 10.0) for rho in np.linspace(0.0, 1.0, 21)]
            assert all(v >= -1e-15 for v in losses)
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))
        for rho in (0.2, 0.5, 0.9):
            losses = [rate_loss(n, rho, 0.05, 10.0) for n in (1, 4, 16, 64, 256, 1024)]
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_matches_array_gain_difference(self):
        ideal = array_gain_term(144, 0.0, 0.05, 10.0)
        for rho in (0.25, 0.5, 1.0):
            actual = array_gain_term(144, rho, 0.05, 10.0)
            assert rate_loss(144, rho, 0.05, 10.0) == pytest.approx(ideal - actual, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            rate_loss(0, 0.5, 0.05, 10.0)


class TestAsymptote:
    def test_one_bit_value(self):
        assert rate_loss_asymptote(0.5, 0.05, 10.0) == pytest.approx(
            ASSOC * math.log2(math.pi**2 / 4.0), abs=1e-14
        )

    def test_vanishes_for_small_errors(self):
        assert rate_loss_asymptote(1e-9, 0.05, 10.0) == pytest.approx(0.0, abs=1e-9)

    def test_two_bit_convergence(self):
        gap = abs(rate_loss(10**6, 0.25, 0.05, 10.0) - rate_loss_asymptote(0.25, 0.05, 10.0))
        assert gap < 1e-4

    def test_upper_bounds_loss(self):
        for rho in (0.2, 0.5, 0.8):
            asym = rate_loss_asymptote(rho, 0.05, 10.0)
            for n in (1, 10, 100, 10**4, 10**6):
                assert rate_loss(n, rho, 0.05, 10.0) <= asym + 1e-12

    def test_equivalent_closed_forms(self):
        # assoc * log2(pi^2 rho^2 / sin^2(pi rho)) is the same constant
        for rho in (0.2, 0.5, 0.77):
            alt = ASSOC * math.log2(
                math.pi**2 * rho**2 / math.sin(math.pi * rho) ** 2
            )
            assert rate_loss_asymptote(rho, 0.05, 10.0) == pytest.approx(alt, abs=1e-12)

    def test_random_phase_rejected(self):
        with pytest.raises(DomainError):
            rate_loss_asymptote(1.0, 0.05, 10.0)


class TestRegimeClassification:
    def test_random_phase_always_grows(self):
        for n in (1, 100, 10**6):
            label, _ = rate_loss_regime(n, 1.0, 0.05, 10.0)
            assert label == "log_growth"

    def test_one_bit_large_array_saturates(self):
        label, value = rate_loss_regime(10**4, 0.5, 0.05, 10.0)
        assert label == "saturating"
        assert value == pytest.approx(rate_loss(10**4, 0.5, 0.05, 10.0))

    def test_mixed_zone(self):
        # crossover for rho=0.5 sits at 1/m^2 - 1 = 3 elements
        label, _ = rate_loss_regime(3, 0.5, 0.05, 10.0)
        assert label == "mixed"

    def test_small_array_tracks_random_phase_loss(self):
        # far below the crossover the loss is indistinguishable from rho = 1
        rho = 0.99
        m = attenuation_factor(rho)
        crossover = 1.0 / (m * m) - 1.0
        n = 100
        assert n <= crossover / 10.0
        label, value = rate_loss_regime(n, rho, 0.05, 10.0)
        assert label == "log_growth"
        assert value == pytest.approx(rate_loss(n, 1.0, 0.05, 10.0), rel=0.05)

    def test_doubling_increment_for_random_phases(self):
        # log2 growth: doubling the array adds one association-weighted bit
        for k in (10, 12, 14, 16):
            inc = rate_loss(2 ** (k + 1), 1.0, 0.05, 10.0) - rate_loss(2**k, 1.0, 0.05, 10.0)
            assert inc == pytest.approx(ASSOC, abs=0.01)
