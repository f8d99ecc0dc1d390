import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats
from scipy.stats import sampling

from risgeo import config, monte_carlo, streams
from risgeo.errors import DomainError
from risgeo.monte_carlo import (
    McConfig,
    _cascade,
    _poisson_counts,
    _SpatialGeometry,
    estimate_reflection_moments,
    hppp_window_radius,
    sample_hppp_nearest,
    sample_nearest_distance,
    simulate_fixed_rate,
    simulate_spatial_bound,
    simulate_spatial_exact,
)
from risgeo.params import DeploymentParams, LinkGeometry, SystemParams
from risgeo.phase_error import attenuation_factor, sample_phase_errors
from risgeo.rate_bounds import mean_power_gain, rate_bound_direct, rate_bound_ris
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
FULL = McConfig(trials=1, window_policy="full_hppp")


def spatial_geometry(lam, serve_radius, mc=FULL):
    return _SpatialGeometry(dataclasses.replace(make_params(), serve_radius=serve_radius), lam, mc)


def recorded_sample(geometry, rng, size):
    """The one-chunk block geometry.sample([rng], size), and the (q, e) it
    passed to its losses map (copied: the map works in place), all as rows."""
    seen = []
    losses = geometry.losses

    def recording_losses(q, e):
        seen.append((q[0].copy(), e[0].copy()))
        return losses(q, e)

    geometry.losses = recording_losses
    try:
        out = geometry.sample([rng], size)
    finally:
        del geometry.losses
    (q, e), = seen
    return tuple(row for row, in out), q, e


def spawned_pcg64(seed, index):
    """numpy's own generator for spawn key (index,) of `seed`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def annulus_sq(params, u):
    """Squared BS-UE distance of each annulus uniform u, by the estimators' formula."""
    return params.d_min**2 + u * (params.d_max**2 - params.d_min**2)


class TestStreams:
    def test_substreams_independent_and_reproducible(self):
        a1 = substream(7, 0).standard_normal(8)
        a2 = substream(7, 0).standard_normal(8)
        b = substream(7, 1).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    @pytest.mark.parametrize("index", [0, 3, 255, 256, 2**32 - 1, 2**32, 2**40])
    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 7])
    def test_substream_is_spawned_pcg64(self, seed, index):
        # seeds of 1, 1, 1, 2, 3 and 6 words; indices either side of a
        # 256-chunk batch and of the spawn key's second word
        expected = spawned_pcg64(seed, index)
        got = substream(seed, index)
        assert got.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(got.integers(0, 2**63, 64), expected.integers(0, 2**63, 64))
        assert np.array_equal(got.standard_exponential(64), expected.standard_exponential(64))

    @given(seed=st.integers(0, 2**200 - 1), index=st.integers(0, 2**48 - 1))
    def test_substream_state_is_numpy_spawn(self, seed, index):
        assert substream(seed, index).bit_generator.state == spawned_pcg64(seed, index).bit_generator.state

    def test_seeds_beyond_64_bits_do_not_alias(self):
        assert not np.array_equal(substream(2**64, 0).random(8), substream(0, 0).random(8))


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

    def test_inverse_cdf_bits(self):
        # the distance is the square root of the serving area draw, with the
        # inverse-CDF formula's own floating-point operations
        lam, n = 0.02, 4096
        r = sample_nearest_distance(lam, substream(3, 3), n)
        u = substream(3, 3).random(n)
        np.testing.assert_array_equal(r, np.sqrt(-np.log1p(-u) / (math.pi * lam)))

    def test_draw_order_is_annulus_then_inverse_cdf(self):
        # a spatial chunk under `direct_nearest`: one uniform per trial for
        # q = d^2, then one per trial for the serving area -ln(1 - U), bit
        # for bit; the losses are those of (q, e)
        lam, n = 0.02, 4096
        geometry = spatial_geometry(lam, 10.0, McConfig(trials=1))
        out, q, e = recorded_sample(geometry, substream(3, 3), n)
        u = substream(3, 3).random(2 * n)
        np.testing.assert_array_equal(q, annulus_sq(make_params(), u[:n]))
        np.testing.assert_array_equal(e, -np.log1p(-u[n:]))
        for got, want in zip(out, geometry.losses(q.copy(), e.copy())):
            np.testing.assert_array_equal(got, want)

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


class TestFullScatterWindow:
    """The vectorized full-scatter draw used by the spatial estimators."""

    def test_nearest_distance_matches_inverse_cdf(self):
        # at the ln(1e9) floor of the window's mean count, where one count more
        # or less shifts the nearest distance by ~2.5%
        lam, n = 0.005, 30000
        direct = sample_nearest_distance(lam, substream(9, 0), n)
        _, _, area = recorded_sample(spatial_geometry(lam, 10.0), substream(9, 1), n)
        scatter = np.sqrt(area[np.isfinite(area)] / (math.pi * lam))
        m = scatter.size
        assert m > n - 5  # an empty window has probability 1e-9
        stat = stats.ks_2samp(direct, scatter).statistic
        assert stat < 1.628 * math.sqrt((n + m) / (n * m))  # 1% critical value

    @pytest.mark.parametrize(
        "lam,serve_radius",
        [
            (0.005, 10.0),  # mean count at the ln(1e9) floor, ~20.7
            (0.01, 15.0),  # window set by 3C, mean count ~63.6
        ],
    )
    def test_window_counts_are_poisson(self, lam, serve_radius):
        geometry = spatial_geometry(lam, serve_radius)
        mu = lam * math.pi * hppp_window_radius(lam, serve_radius) ** 2
        assert geometry.mean_count == mu
        n = 200000
        counts, _ = geometry.counts(substream(10, 0).random(n))
        # bins 0..hi, with both tails folded into the end bins so that every
        # bin expects at least 5 counts
        lo = int(stats.poisson.ppf(5.0 / n, mu))
        hi = int(stats.poisson.isf(5.0 / n, mu))
        k = np.arange(lo, hi + 1)
        expected = n * stats.poisson.pmf(k, mu)
        expected[0] += n * stats.poisson.cdf(lo - 1, mu)
        expected[-1] += n * stats.poisson.sf(hi, mu)
        observed = np.bincount(np.clip(counts, lo, hi) - lo, minlength=k.size)
        assert observed.sum() == n
        assert stats.chisquare(observed, expected).pvalue > 0.01

    def test_count_table_stops_below_uniform_resolution(self):
        # mean counts 20.7, 63.6 and 190.9; scipy's poisson.isf alone stops one
        # count short at the last
        for lam, serve_radius in ((0.005, 10.0), (0.01, 15.0), (0.03, 15.0)):
            geometry = spatial_geometry(lam, serve_radius)
            mu = geometry.mean_count
            top = geometry.counts._cum.size - 1  # last count in the table
            assert stats.poisson.sf(top, mu) < 2.0**-53 <= stats.poisson.sf(top - 1, mu)

    def test_draw_order_is_count_uniform_then_min_uniform(self):
        # after the annulus uniforms, one uniform per count, inverted through
        # the table, then one per trial for the minimum; all from the chunk's
        # own stream.  The area is the window's mean count times the minimum,
        # bit for bit
        lam, n = 0.005, 4096
        geometry = spatial_geometry(lam, 10.0)
        out, q, area = recorded_sample(geometry, substream(11, 0), n)
        u = substream(11, 0).random(3 * n)
        counts, _ = geometry.counts(u[n:2 * n])
        want = geometry.mean_count * -np.expm1(np.log1p(-u[2 * n:]) / counts)
        np.testing.assert_array_equal(q, annulus_sq(make_params(), u[:n]))
        np.testing.assert_array_equal(area, np.where(counts > 0, want, np.inf))
        for got, want in zip(out, geometry.losses(q.copy(), area.copy())):
            np.testing.assert_array_equal(got, want)


class StubGenerator:
    """Stands in for a chunk's generator: each `random(out=...)` call fills
    its row with the next prescribed uniforms."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, out):
        out[...] = self.draws.pop(0)
        return out


class TestCountTableOracle:
    """The numpy count table against UNU.RAN's guide table, which it replaces:
    same cut, same pmf, same count from every uniform."""

    # window mean counts 20.7, 63.6, 190.9 and 5654.9 (lambda = 2, C = 10)
    WINDOWS = [(0.005, 10.0), (0.01, 15.0), (0.03, 15.0), (2.0, 10.0)]

    @staticmethod
    def reference_top(mu):
        """scipy's last count: isf, stepped up while sf >= 2^-53."""
        top = int(stats.poisson.isf(2.0**-53, mu))
        while stats.poisson.sf(top, mu) >= 2.0**-53:
            top += 1
        return top

    @staticmethod
    def assert_codes(table):
        """A slot's code is its left edge's searched count where its two
        edges agree, and -1 exactly where they differ or the count is 0."""
        m = table._slots
        edges = np.searchsorted(table._cum, np.arange(m + 1) / m * table._total)
        left, agree = edges[:-1], edges[:-1] == edges[1:]
        codes = table._codes
        assert codes.dtype == np.int32 and codes.shape == (m,)
        np.testing.assert_array_equal(codes < 0, ~agree | (left == 0))
        np.testing.assert_array_equal(codes[codes >= 0], left[codes >= 0])
        assert codes.min() >= -1

    @pytest.fixture(params=WINDOWS, ids=lambda w: f"lam={w[0]},C={w[1]}")
    def tables(self, request):
        lam, serve_radius = request.param
        geometry = spatial_geometry(lam, serve_radius)
        mu = geometry.mean_count
        pmf = stats.poisson.pmf(np.arange(self.reference_top(mu) + 1), mu)
        return geometry.counts, sampling.DiscreteGuideTable(pmf)

    def test_draws_match_on_shared_streams(self, tables):
        table, reference = tables
        for index in range(16):
            counts, empty = table(substream(21, index).random(4096))
            np.testing.assert_array_equal(counts, reference.rvs(4096, random_state=substream(21, index)))
            np.testing.assert_array_equal(empty, np.flatnonzero(counts == 0))

    def test_counts_match_at_edges_and_on_grid(self, tables):
        table, reference = tables
        n = table._cum.size
        m = table._slots
        # the edges of the old guide's n slots and of the table's m slots, and
        # the doubles either side of each
        j = np.concatenate([np.arange(n) / n, np.arange(m + 1) / m])
        u = np.concatenate([
            j, np.nextafter(j, 0.0), np.nextafter(j, 1.0), np.linspace(0.0, 1.0, 10001),
            1.0 - 2.0**-53 * np.arange(1, 65),  # the last 64 doubles below 1
            [5e-324, 2.0**-53, np.nextafter(table._cum[0] / table._total, 0.0)],
        ])
        u = u[(u > 0.0) & (u < 1.0)]  # `Generator.random` never returns 1
        counts, empty = table(u)
        np.testing.assert_array_equal(counts, reference.ppf(u))
        np.testing.assert_array_equal(empty, np.flatnonzero(counts == 0))
        # a uniform of 0 draws count 0 (scipy's ppf reports -1 there, the
        # support convention a - 1, not a draw); empty windows are flat indices
        counts, empty = table(np.array([[0.0, 0.5], [0.0, 0.0]]))
        assert counts.tolist() == [[0, reference.ppf(0.5)], [0, 0]]
        assert empty.tolist() == [0, 2, 3]
        # m is a power of two
        assert m & (m - 1) == 0 and (m >= 32 * n or m == monte_carlo._MAX_SLOTS)
        self.assert_codes(table)

    def test_slot_edges_of_sums_beside_edge_targets(self):
        # running sums on, or one double either side of, the target
        # (j / M) * total of a slot edge, where rounding cum / step alone can
        # land on the neighbouring edge.  Count 0 spans one slot or more, or
        # has no mass
        rng = np.random.default_rng(5)
        for i in range(200):
            total = rng.uniform(0.5, 2.0)
            targets = np.sort(rng.choice(np.arange(1, 256), 5, replace=False)) * (total / 256)
            cum = np.maximum.accumulate(targets + rng.choice([-1, 0, 1], 5) * np.spacing(targets))
            pmf = np.diff(cum, prepend=0.0, append=total)
            table = monte_carlo._CountTable(np.concatenate([[0.0], pmf]) if i % 2 else pmf)
            assert table._slots == 256
            self.assert_codes(table)

    def test_large_window_table_is_capped(self):
        # lambda = 50, C = 10: a window mean count of 1.4e5 over ~1.4e5 counts
        table = spatial_geometry(50.0, 10.0).counts
        assert table._cum.size > 1.4e5
        assert table._slots == monte_carlo._MAX_SLOTS == 2**20
        assert table._codes.dtype == np.int32
        assert table._codes.nbytes <= 4 * 2**20
        u = substream(22, 0).random(10**5)
        counts, empty = table(u)
        np.testing.assert_array_equal(counts, np.searchsorted(table._cum, u * table._total))
        assert empty.size == 0

    def test_cut_and_pmf_match_over_means(self):
        for mu in np.geomspace(0.5, 1e4, 600):
            top = self.reference_top(mu)
            table = _poisson_counts(mu)
            assert table._cum.size - 1 == top, mu
            pmf = stats.poisson.pmf(np.arange(top + 1), mu)
            np.testing.assert_array_equal(table._cum, np.cumsum(pmf))

    def test_empty_windows_get_the_direct_gain_alone(self, monkeypatch):
        # u = 0 and the double just below pmf[0] / total on the count axis
        # both draw an empty window, whatever the minimum's uniform: e = inf,
        # unserved, and the bound estimate is the direct-only rate
        lam = 0.005
        geometry = spatial_geometry(lam, 10.0)
        table = geometry.counts
        below = np.nextafter(table._cum[0] / table._total, 0.0)
        draws = (np.array([0.0, 0.25, 0.5, 0.75]), np.array([0.0, below, below, 0.0]), np.array([0.0, 0.3, 0.0, 0.7]))
        assert np.searchsorted(table._cum, draws[1] * table._total).tolist() == [0, 0, 0, 0]
        (ln_cascade, ln_bd, served), q, e = recorded_sample(geometry, StubGenerator(*draws), 4)
        assert e.tolist() == [np.inf] * 4
        assert not served.any() and ln_cascade.tolist() == [-np.inf] * 4
        params = make_params()
        monkeypatch.setattr(monte_carlo, "substream", lambda seed, index: StubGenerator(*draws))
        mc = McConfig(trials=4, window_policy="full_hppp", workers=1)
        rates = np.log2(1.0 + params.snr_gain * np.exp(ln_bd))
        direct = [rate_bound_direct(params, math.sqrt(d2)).value for d2 in q.tolist()]
        for rho in (0.0, 0.5, 1.0):
            got = simulate_spatial_bound(params, DeploymentParams(lam, 64), rho, mc)
            assert got.value == np.add.accumulate(rates)[-1] / 4
            assert got.value == pytest.approx(np.mean(direct), rel=1e-13)


def _loaded_after(code: str, prefixes: tuple[str, ...]) -> str:
    """Run `code` in a fresh interpreter; the modules it left loaded under `prefixes`."""
    code += f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_full_scatter_cold_start_leaves_scipy_stats_unloaded():
    # scipy.stats adds ~0.5 s to a cold start; only validation's KS row loads it
    code = (
        "from risgeo import cli\n"
        "from risgeo.monte_carlo import McConfig, simulate_spatial_bound\n"
        "from risgeo.params import DeploymentParams, SystemParams\n"
        "params = SystemParams.from_engineering(\n"
        "    20.0, -80.0, -30.0, 3.0, 2.0, 2.5, 180.0, 220.0, 10.0)\n"
        "mc = McConfig(trials=2 * 4096, window_policy='full_hppp', workers=1)\n"
        "simulate_spatial_bound(params, DeploymentParams(0.005, 32), 0.5, mc)\n"
    )
    assert _loaded_after(code, ("scipy.stats",)) == "[]"


def test_cli_cold_start_leaves_scipy_integrate_optimize_stats_and_linalg_unloaded():
    # scipy.integrate (which loads scipy.optimize) costs ~0.4 s and ~20 MB
    # at start-up; only `risgeo validate`'s oracles load it.  scipy.linalg
    # (~7 MB) is what scipy.special.roots_legendre would load for rule nodes.
    code = (
        "import os\n"
        "from risgeo import cli\n"
        "for argv in (['rate-spatial', '--sweep', 'density:0.005:0.05:2', '--trials', '4096'],\n"
        "             ['optimize']):\n"
        "    assert cli.main(argv + ['--out', os.devnull]) == 0\n"
    )
    prefixes = ("scipy.integrate", "scipy.optimize", "scipy.stats", "scipy.linalg")
    assert _loaded_after(code, prefixes) == "[]"


class TestLogPathLoss:
    """The log-domain path losses of the spatial estimators against the linear
    formula beta d^-a, with d = sqrt(q) and r = sqrt(e / (pi lam))."""

    # ln(bl br) is a sum of terms up to ~40 in magnitude, so its exp carries
    # a relative error of a few times 40 * 2^-53; a wrong exponent or constant
    # is off by O(1)
    REL_TOL = 1e-13
    LAM = 0.01

    @staticmethod
    def params(a1, a3):
        return SystemParams.from_engineering(20.0, -80.0, -30.0, a1, 2.0, a3, 180.0, 220.0, 10.0)

    def linear_losses(self, params, q, e):
        d = np.sqrt(q)
        r = np.sqrt(e / (math.pi * self.LAM))
        beta = params.beta_ref
        bl = beta * d ** (-params.alpha_bs_ris)
        br = beta * r ** (-params.alpha_ris_ue)
        return bl * br, beta * d ** (-params.alpha_direct)

    @staticmethod
    def bound_gain(m, n, cascade, bd, served):
        """The bound estimator's mean power gain: the Jensen bracket where
        served, the direct gain elsewhere."""
        return np.where(served, mean_power_gain(cascade, bd, m, n), bd)

    @pytest.mark.parametrize("n", [1, 2000])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_matches_linear_formula(self, rho, n):
        m = attenuation_factor(rho)
        size = 4096
        for a1 in (2.0, 2.7, 3.3, 4.0):
            for a3 in (2.0, 2.5, 3.1, 4.0):
                params = self.params(a1, a3)
                rng = substream(41, 0)
                q = annulus_sq(params, rng.random(size))
                e = -np.log1p(-rng.random(size))
                geometry = _SpatialGeometry(params, self.LAM, McConfig(trials=1))
                ln_cascade, ln_bd, served = geometry.losses(q.copy(), e.copy())
                np.testing.assert_array_equal(served, e <= math.pi * self.LAM * params.serve_radius**2)
                assert 0 < served.sum() < size
                cascade, bd = self.linear_losses(params, q, e)
                np.testing.assert_allclose(np.exp(ln_cascade), cascade, rtol=self.REL_TOL, atol=0)
                np.testing.assert_allclose(np.exp(ln_bd), bd, rtol=self.REL_TOL, atol=0)
                got = self.bound_gain(m, float(n), np.exp(ln_cascade), np.exp(ln_bd), served)
                want = self.bound_gain(m, float(n), cascade, bd, served)
                np.testing.assert_allclose(got, want, rtol=self.REL_TOL, atol=0)

    def test_edge_areas(self):
        # an empty window (e = inf) gives the direct gain alone, an area of 0
        # an infinite gain, and an area of exactly pi lam C^2 is served
        params = self.params(3.0, 2.5)
        geometry = _SpatialGeometry(params, self.LAM, McConfig(trials=1))
        m, n = attenuation_factor(0.5), 64.0
        q = np.full(3, 200.0**2)
        e = np.array([np.inf, 0.0, math.pi * self.LAM * params.serve_radius**2])
        with np.errstate(all="raise"):
            ln_cascade, ln_bd, served = geometry.losses(q, e)
            bd = np.exp(ln_bd)
            got = self.bound_gain(m, n, np.exp(ln_cascade), bd, served)
        assert served.tolist() == [False, True, True]
        assert got[0] == bd[0]
        assert got[0] == pytest.approx(params.beta_direct(200.0), rel=self.REL_TOL)
        assert got[1] == np.inf
        at_edge = LinkGeometry(d=200.0, l=200.0, r=params.serve_radius)
        bound = rate_bound_ris(params, at_edge, int(n), 0.5).value
        assert got[2] > got[0]
        assert math.log2(1.0 + params.snr_gain * got[2]) == pytest.approx(bound, rel=self.REL_TOL)


class TestCascadeKernel:
    # the half-angle rotation (1 - t^2, 2t) / (1 + t^2), t = tan(tau/2), and
    # exp(1j*tau) differ by a few ulp and the summation order differs, so
    # float64 agreement is about N * 2^-52 * sum|a| (~5e-14 at N = 200); a
    # wrong draw would be off by O(sum|a|)
    REL_TOL = 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 64, 200])
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

    def test_edge_phases_match_cos_sin(self, monkeypatch):
        # the ends of uniform(-pi, pi) and the phases where cos or sin is 0
        # or tiny; tan(-pi/2) is large but finite, so tau = -pi gives cos -1
        edges = np.array(
            [-math.pi, -math.pi / 2, -1e-10, 0.0, 5e-324, math.pi / 2, math.pi * (1 - 2.0**-53)]
        )
        size, n = 3, edges.size
        monkeypatch.setattr(
            monte_carlo, "sample_phase_errors", lambda rho, count, rng: np.tile(edges, size)
        )
        re, im, _ = _cascade(substream(29, 0), size, n, 1.0)
        e = substream(29, 0).standard_exponential((2, size, n))
        amp = np.sqrt(e[0] * e[1])
        tol = 4 * np.finfo(float).eps * amp.sum(axis=1)
        assert np.all(np.abs(re - amp @ np.cos(edges)) <= tol)
        assert np.all(np.abs(im - amp @ np.sin(edges)) <= tol)

    @staticmethod
    def one_shot(rng, size, n, rho):
        """The kernel drawing and reducing a whole chunk at once, in three
        size x n arrays: the reference the blocked kernel must match bit for bit."""
        amp, other = rng.standard_exponential((2, size, n))
        amp *= other
        np.sqrt(amp, out=amp)
        if rho == 0.0:
            re = amp.sum(axis=1)
            im = np.zeros(size)
        else:
            tau = sample_phase_errors(rho, size * n, rng).reshape(size, n)
            t = np.tan(np.multiply(tau, 0.5, out=tau), out=tau)
            w = np.multiply(t, t, out=other)
            w += 1.0
            amp /= w
            re = np.einsum("ij,ij->i", amp, np.subtract(2.0, w, out=w))
            im = 2.0 * np.einsum("ij,ij->i", amp, t)
        h_abs = np.sqrt(rng.standard_exponential(size))
        return re, im, h_abs

    # a block of the wide rows would hold one row: it holds two, and a lone
    # last row joins the block before it (sizes 3 and 5); einsum sums a lone
    # row of over 8192 elements another way than a row of a taller block
    WIDE = monte_carlo._CASCADE_BLOCK + 1
    ROWS_9000 = monte_carlo._CASCADE_BLOCK // 9000
    CASES = [(size, n) for size in (1, 1000, 4095, 4096) for n in (0, 1, 200)]
    CASES += [(1, WIDE), (2, WIDE), (3, WIDE), (5, WIDE), (2 * ROWS_9000 + 1, 9000)]

    @pytest.mark.parametrize("rho", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("size, n", CASES)
    def test_matches_one_shot_kernel(self, size, n, rho):
        got = _cascade(substream(37, n), size, n, rho)
        want = self.one_shot(substream(37, n), size, n, rho)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_blocks_cover_partial_last_block(self):
        # the (4096, 200) cases above end on a partial block, and fit none
        rows = monte_carlo._CASCADE_BLOCK // 200
        assert 1 < rows < 4096 and 4096 % rows > 1

    def test_peak_memory_one_array_and_block_buffers(self):
        # the amplitudes are the one size x n array; the second exponentials
        # and the phases take a block at a time, beside O(size) vectors
        size, n = 4096, 200
        tracemalloc.start()
        try:
            _cascade(substream(31, 0), size, n, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * size * n * 8

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

    @staticmethod
    def runs_under_thread_switches(simulate, policy):
        """Estimates at 1, 2 and 8 workers, switching threads every
        microsecond, each starting from an empty seed cache."""
        params = make_params(tx_power_dbm=20.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runs = []
        try:
            for w in (1, 2, 8):
                streams._seed_batch.cache_clear()
                mc = McConfig(trials=9 * 4096 + 17, master_seed=4, window_policy=policy, workers=w)
                runs.append(simulate(params, dep, 0.5, mc))
        finally:
            sys.setswitchinterval(interval)
        return runs

    @pytest.mark.parametrize("simulate", [simulate_spatial_bound, simulate_spatial_exact])
    def test_full_scatter_worker_determinism(self, simulate):
        # every chunk's threads share one count table and the seed cache; with
        # more workers than cores and frequent thread switches, a draw taken
        # from another chunk's stream would change the estimate
        runs = self.runs_under_thread_switches(simulate, "full_hppp")
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("simulate", [simulate_spatial_bound, simulate_spatial_exact])
    def test_direct_nearest_worker_determinism(self, simulate):
        # the worker threads share the seed cache under this policy too
        runs = self.runs_under_thread_switches(simulate, "direct_nearest")
        assert runs[0] == runs[1] == runs[2]

    def test_exact_below_bound_and_gap_small(self):
        params = make_params(tx_power_dbm=20.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=200)
        mc = McConfig(trials=150000, master_seed=8)
        bound = simulate_spatial_bound(params, dep, 0.0, mc)
        exact = simulate_spatial_exact(params, dep, 0.0, mc)
        assert exact.value <= bound.value + 3 * (exact.std_error + bound.std_error)
        assert bound.value - exact.value <= 0.3

    @pytest.mark.parametrize("policy", ["direct_nearest", "full_hppp"])
    def test_bound_and_exact_share_geometry(self, policy, monkeypatch):
        # for one McConfig, every chunk of both estimators draws the same
        # (ln bl br, ln bd, served): the exact estimator's fading comes after
        params = make_params(tx_power_dbm=20.0)
        dep = DeploymentParams(density=0.005, elements_per_ris=8)
        mc = McConfig(trials=2 * 4096 + 17, master_seed=5, window_policy=policy, workers=1)
        sample = _SpatialGeometry.sample
        seen = []

        def recording_sample(self, rngs, size):
            out = sample(self, rngs, size)
            # one entry per chunk, copied: the bound maps its block in place
            seen.extend(zip(*(np.copy(a) for a in out)))
            return out

        monkeypatch.setattr(_SpatialGeometry, "sample", recording_sample)
        simulate_spatial_bound(params, dep, 0.5, mc)
        bound = seen[:]
        seen.clear()
        simulate_spatial_exact(params, dep, 0.5, mc)
        assert len(bound) == len(seen) == 3
        for chunk_bound, chunk_exact in zip(bound, seen):
            for got, want in zip(chunk_exact, chunk_bound):
                np.testing.assert_array_equal(got, want)

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


class TestBlockReduction:
    """The spatial bound estimator maps full chunks in blocks of rows; its
    estimates must be those of a reference that takes one chunk at a time
    and selects each trial's gain with `np.where`."""

    PARAMS = make_params(tx_power_dbm=20.0)
    DEP = DeploymentParams(density=0.005, elements_per_ris=64)
    RHO = 0.5

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def reference(policy, trials, serve_radius, seed=3):
        """(value, std_error) by the module's documented formulas: chunk i of
        4096 trials draws from substream(seed, i) the annulus uniforms, then
        the serving draws; each chunk's sums are added in chunk order."""
        params = dataclasses.replace(TestBlockReduction.PARAMS, serve_radius=serve_radius)
        dep = TestBlockReduction.DEP
        lam = dep.density
        m, n = attenuation_factor(TestBlockReduction.RHO), float(dep.elements_per_ris)
        ln_beta = math.log(params.beta_ref)
        cascade0 = 2.0 * ln_beta + 0.5 * params.alpha_ris_ue * math.log(math.pi * lam)
        mean_count = lam * math.pi * hppp_window_radius(lam, params.serve_radius) ** 2
        count_of = _poisson_counts(mean_count)
        total = total_sq = 0.0
        for index in range(-(-trials // 4096)):
            size = min(4096, trials - 4096 * index)
            rng = substream(seed, index)
            q = annulus_sq(params, rng.random(size))
            if policy == "direct_nearest":
                e = -np.log1p(-rng.random(size))
            else:
                counts, _ = count_of(rng.random(size))
                with np.errstate(divide="ignore", invalid="ignore"):
                    min_u = -np.expm1(np.log1p(-rng.random(size)) / counts)
                e = np.where(counts > 0, mean_count * min_u, np.inf)
            ln_q = np.log(q)
            with np.errstate(divide="ignore"):
                ln_blbr = np.log(e) * -(0.5 * params.alpha_ris_ue) + cascade0 - 0.5 * params.alpha_bs_ris * ln_q
            bd = np.exp(ln_q * -(0.5 * params.alpha_direct) + ln_beta)
            served = e <= math.pi * lam * params.serve_radius**2
            gain = np.where(served, mean_power_gain(np.exp(ln_blbr), bd, m, n), bd)
            rate = np.log2(1.0 + params.snr_gain * gain)
            total += rate.sum()
            total_sq += (rate * rate).sum()
        mean = total / trials
        if trials == 1:
            return mean, 0.0
        return mean, math.sqrt(max(total_sq - trials * (mean * mean), 0.0) / (trials - 1) / trials)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 5 * 4096 + 3, 9 * 4096])
    @pytest.mark.parametrize("policy", ["direct_nearest", "full_hppp"])
    # served fractions 0.32, 0.79 and 1 - 7e-7: mixed masks, and one that is
    # all ones in every chunk here
    @pytest.mark.parametrize("serve_radius", [5.0, 10.0, 30.0])
    def test_matches_one_chunk_at_a_time(self, serve_radius, policy, trials, workers):
        mc = McConfig(trials=trials, master_seed=3, window_policy=policy, workers=workers)
        params = dataclasses.replace(self.PARAMS, serve_radius=serve_radius)
        got = simulate_spatial_bound(params, self.DEP, self.RHO, mc)
        value, std_error = self.reference(policy, trials, serve_radius)
        assert got.value == value
        assert got.std_error == std_error

    def test_one_block_runs_on_calling_thread(self, monkeypatch):
        # a single block starts no thread pool, and the estimates stay those of one worker
        fixed = functools.partial(simulate_fixed_rate, self.PARAMS, GEOM, 64, self.RHO)
        spatial = functools.partial(simulate_spatial_bound, self.PARAMS, self.DEP, self.RHO)
        want = [simulate(McConfig(trials=4096, master_seed=3, workers=1)) for simulate in (fixed, spatial)]

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started for one block")

        monkeypatch.setattr(monte_carlo, "ThreadPoolExecutor", no_pool)
        got = [simulate(McConfig(trials=4096, master_seed=3, workers=2)) for simulate in (fixed, spatial)]
        assert got == want

    @pytest.mark.parametrize(
        "trials, workers, blocks",
        [
            (20000, 1, [(4, 4096), (1, 3616)]),  # 4 full chunks and a partial one
            (20000, 2, [(2, 4096), (2, 4096), (1, 3616)]),  # [4, 1] would idle a worker
            (3 * 4096, 8, [(1, 4096)] * 3),
            (100000, 2, [(6, 4096)] * 4 + [(1, 1696)]),  # not [8, 8, 8]: 16 chunks on one worker
            (20 * 4096, 1, [(6, 4096), (7, 4096), (7, 4096)]),  # near-equal rows
            (256 * 4096, 1, [(8, 4096)] * 32),
        ],
    )
    def test_blocks_never_fewer_than_workers(self, trials, workers, blocks, monkeypatch):
        # (rows, trials per row) of every block the estimator maps
        sample = _SpatialGeometry.sample
        seen = []

        def recording_sample(self, rngs, size):
            seen.append((len(rngs), size))
            return sample(self, rngs, size)

        monkeypatch.setattr(_SpatialGeometry, "sample", recording_sample)
        simulate_spatial_bound(self.PARAMS, self.DEP, self.RHO, McConfig(trials=trials, workers=workers))
        assert sorted(seen) == sorted(blocks)


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

    def test_workers_default_to_usable_cores(self):
        cores = len(os.sched_getaffinity(0))
        assert McConfig(trials=1).workers == cores
        assert config.resolve()["workers"] == cores

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(trials=0)
        with pytest.raises(DomainError):
            McConfig(trials=10, window_policy="nope")
