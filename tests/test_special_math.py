import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special

from risgeo import special_math
from risgeo.errors import DomainError
from risgeo.special_math import (
    exp_integral_ei,
    lower_incomplete_gamma,
    power_integral,
    upper_incomplete_gamma,
)

#: Every table edge and underflow cutoff of exp_integral_ei, as x < 0.
EI_EDGES = -np.array(special_math._E1_EDGES + (special_math._E1_UNDERFLOW,))


def ei_quadrature(x):
    # Ei(x) = -int_{-x}^inf e^{-u}/u du for x < 0
    val, _ = integrate.quad(lambda u: math.exp(-u) / u, -x, np.inf, epsabs=1e-13, epsrel=1e-13)
    return -val


def ulps(got, want):
    """|got - want| for an mpmath want, in units in the last place of float(want)."""
    return float(abs(float(got) - want) / math.ulp(float(want)))


def fit_e1_row(mp, f, lo, hi, degree):
    """One row of the E1 table: interpolate f at the degree + 1 Chebyshev points
    of [lo, hi], expand the interpolant in powers of v = var - mid and round;
    returns (mid, a_degree, ..., a_0) as doubles."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    n = degree + 1
    angles = [mp.pi * (2 * j + 1) / (2 * n) for j in range(n)]
    values = [f(mid + half * mp.cos(a)) for a in angles]
    cheb = [2 * mp.fsum(y * mp.cos(k * a) for y, a in zip(values, angles)) / n for k in range(n)]
    cheb[0] /= 2
    basis = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]  # T_k in powers of u = v / half
    while len(basis) < n:
        nxt = [mp.mpf(0)] + [2 * c for c in basis[-1]]
        for i, c in enumerate(basis[-2]):
            nxt[i] -= c
        basis.append(nxt)
    power = [mp.fsum(cheb[k] * basis[k][i] for k in range(i, n)) for i in range(n)]
    return (float(mid), *(float(power[i] / half**i) for i in reversed(range(n))))


def gamma_quadrature(a, x):
    # substitution u = t^a removes the integrable endpoint singularity for a < 1
    if x == 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda u: math.exp(-(u ** (1.0 / a))), 0.0, x**a, epsabs=1e-13, epsrel=1e-13, limit=200
    )
    return val / a


class TestExpIntegral:
    def test_minus_one(self):
        # frozen from the quadrature oracle, stable to 1e-10
        assert exp_integral_ei(-1.0) == pytest.approx(-0.2193839343955203, abs=1e-10)

    def test_deep_negative_tail(self):
        assert abs(exp_integral_ei(-50.0)) < 1e-20

    def test_serving_disk_argument(self):
        # argument arising from density 0.005 and radius 12
        x = -math.pi * 0.005 * 12.0**2
        assert exp_integral_ei(x) == pytest.approx(ei_quadrature(x), abs=1e-9)

    @pytest.mark.parametrize("x", [-0.05, -0.5, -2.0, -7.9, -8.1, -16.0, -30.0, -62.8])
    def test_quadrature_agreement_negative_axis(self, x):
        assert exp_integral_ei(x) == pytest.approx(ei_quadrature(x), abs=1e-9)

    def test_negative_axis_shape(self):
        # Ei < 0 on the negative axis with derivative e^x/x < 0, so the
        # magnitude |Ei| shrinks monotonically as x -> -inf.
        rng = np.random.default_rng(11)
        for x in rng.uniform(-20.0, -0.01, 20):
            assert exp_integral_ei(x) < 0.0
            h = 1e-6 * abs(x)
            slope = (exp_integral_ei(x + h) - exp_integral_ei(x - h)) / (2 * h)
            assert slope < 0.0
            assert abs(exp_integral_ei(x - 0.5)) < abs(exp_integral_ei(x))

    def test_singularity_raises(self):
        with pytest.raises(DomainError):
            exp_integral_ei(0.0)
        with pytest.raises(DomainError):
            exp_integral_ei(np.array([-1.0, 0.0, -2.0]))

    @pytest.mark.parametrize("x", [5e-324, 1e-300, 0.5, 1.0, 40.0, 800.0, np.inf])
    @pytest.mark.parametrize(
        "form",
        [float, np.float64, np.array, lambda v: np.array([-1.0, v])],
        ids=["float", "float64", "0d-array", "array"],
    )
    def test_positive_axis_raises(self, x, form):
        # no rate expression reaches x > 0, so the table covers x < 0 only
        with pytest.raises(DomainError):
            exp_integral_ei(form(x))

    def test_minus_infinity_is_zero(self):
        assert exp_integral_ei(-np.inf) == 0.0
        np.testing.assert_array_equal(exp_integral_ei(np.array([-np.inf, -800.0])), [0.0, 0.0])

    def test_signed_zero_raises(self):
        # -0.0 == 0.0: the singularity check must not read the sign bit
        with pytest.raises(DomainError):
            exp_integral_ei(-0.0)
        with pytest.raises(DomainError):
            exp_integral_ei(np.array([np.nan, -1.0, -0.0]))

    def test_array_matches_scalar(self):
        # each table edge and the floats on either side of it pick neighbouring rows
        edges = np.concatenate([np.nextafter(EI_EDGES, 0.0), EI_EDGES, np.nextafter(EI_EDGES, -np.inf)])
        tiny = [-5e-324, -1e-310, -np.inf]
        x = np.concatenate([-np.geomspace(1e-300, 1e-3, 100), -np.geomspace(1e-3, 800.0, 2000), edges, tiny])
        scalar = [exp_integral_ei(float(v)) for v in x]
        np.testing.assert_array_equal(exp_integral_ei(x), scalar)
        np.testing.assert_array_equal(np.signbit(exp_integral_ei(x)), np.signbit(scalar))

    def test_within_four_ulp_of_mpmath(self):
        mp = pytest.importorskip("mpmath")
        # the underflow to 0 starts near x = -737.8, where E1 falls below 2^-1075
        x = np.concatenate([-np.geomspace(1e-300, 745.0, 6000), -np.linspace(736.0, 760.0, 200)])
        got = exp_integral_ei(x)
        with mp.workdps(30):
            worst = max(ulps(g, -mp.e1(-mp.mpf(v))) for g, v in zip(got, x))
        assert worst <= 4.0

    def test_agrees_with_scipy_expi(self):
        # normal results only: below 2.2e-308 a relative tolerance counts subnormal ulps
        x = -np.geomspace(1e-300, 700.0, 4000)
        np.testing.assert_allclose(exp_integral_ei(x), special.expi(x), rtol=2e-15, atol=0.0)

    def test_table_rebuilds_from_mpmath(self):
        # the method stated at special_math._E1_ROWS, rerun from its edges
        mp = pytest.importorskip("mpmath")
        edges = special_math._E1_EDGES
        degree = len(special_math._E1_ROWS[0]) - 2
        with mp.workdps(40):

            def scaled(t):  # t e^t E1(t)
                return t * mp.exp(t) * mp.e1(t)

            rows = [fit_e1_row(mp, lambda t: mp.e1(t) + mp.log(t), 0, edges[0], degree)]
            rows += [fit_e1_row(mp, scaled, lo, hi, degree) for lo, hi in zip(edges, edges[1:])]
            rows.append(fit_e1_row(mp, lambda s: scaled(1 / s), 0, 1 / mp.mpf(edges[-1]), degree))
        assert len(rows) == len(special_math._E1_ROWS)
        for rebuilt, committed in zip(rows, special_math._E1_ROWS):
            assert len(rebuilt) == len(committed)
            for r, c in zip(rebuilt, committed):
                assert abs(r - c) <= math.ulp(c)


class TestLowerIncompleteGamma:
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 4.0, 12.0])
    def test_a_equals_one(self, x):
        assert lower_incomplete_gamma(1.0, x) == pytest.approx(
            -math.expm1(-x), abs=1e-13
        )

    def test_zero_limit(self):
        assert lower_incomplete_gamma(2.25, 0.0) == 0.0

    def test_access_exponent_case(self):
        got = lower_incomplete_gamma(2.25, 1.5)
        assert got == pytest.approx(gamma_quadrature(2.25, 1.5), abs=1e-10)

    @given(
        a=st.floats(min_value=0.05, max_value=5.0),  # transform oracle is smooth down to small a
        x=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_quadrature_agreement(self, a, x):
        got = lower_incomplete_gamma(a, x)
        want = gamma_quadrature(a, x)
        assert abs(got - want) <= max(5e-11, 1e-9 * abs(want) + 1e-11)

    def test_bounded_by_gamma_and_monotone(self):
        a = 1.625
        prev = 0.0
        for x in np.linspace(0.0, 25.0, 40):
            val = lower_incomplete_gamma(a, x)
            assert 0.0 <= val <= math.gamma(a) + 1e-15
            assert val >= prev - 1e-15
            prev = val

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(-2.0, 1.0)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(1.0, -0.5)
        with pytest.raises(DomainError):
            lower_incomplete_gamma(1.0, np.array([0.5, -0.5]))
        with pytest.raises(DomainError):
            lower_incomplete_gamma(1.0, np.array([np.nan, 0.5, -0.5]))

    @pytest.mark.parametrize("a", [0.5, 1.625, 2.25, 4.0])
    def test_array_matches_scalar(self, a):
        x = np.concatenate([[0.0], np.geomspace(1e-6, 60.0, 40)])
        np.testing.assert_allclose(
            lower_incomplete_gamma(a, x),
            [lower_incomplete_gamma(a, float(v)) for v in x],
            rtol=1e-15,
            atol=0.0,
        )


class TestUpperIncompleteGamma:
    """Gamma(s, x) for the orders s = p/2 + 1 of the partial radial moments,
    the s <= 0 branches (E1 at s = 0, one recurrence step below) included."""

    @pytest.mark.parametrize("x", [0.05, 0.7, 3.0, 12.0])
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 1.25])
    def test_quadrature_agreement(self, s, x):
        ref, _ = integrate.quad(
            lambda t: t ** (s - 1.0) * math.exp(-t), x, np.inf, epsabs=0.0, epsrel=1e-13
        )
        assert upper_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-12)


class TestPowerIntegral:
    def test_flat(self):
        assert power_integral(0.0, 1.0, 3.0) == pytest.approx(2.0, abs=1e-15)

    def test_log_branch_annulus(self):
        assert power_integral(-1.0, 180.0, 220.0) == pytest.approx(
            math.log(220.0 / 180.0), abs=1e-15
        )

    def test_linear(self):
        assert power_integral(1.0, 180.0, 220.0) == pytest.approx(8000.0, rel=1e-14)

    @given(
        a=st.floats(min_value=0.1, max_value=100.0),
        width=st.floats(min_value=0.1, max_value=400.0),
        eps=st.floats(min_value=-1e-9, max_value=1e-9),
    )
    def test_continuous_at_degenerate_exponent(self, a, width, eps):
        b = a + width
        assert abs(power_integral(-1.0 + eps, a, b) - math.log(b / a)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            power_integral(2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            power_integral(2.0, 2.0, 1.0)


class TestEulerConstant:
    @pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
    def test_small_argument_link(self, eps):
        # Ei(-eps) = E0 + ln(eps) + O(eps), so Ei(-eps) + ln(1/eps) -> +E0
        assert exp_integral_ei(-eps) + math.log(1.0 / eps) == pytest.approx(
            np.euler_gamma, abs=1e-5
        )
