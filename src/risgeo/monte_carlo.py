"""Monte-Carlo oracle for every analytic expression in the package.

Geometry draws (nearest-reflector distance, annulus position), Rayleigh /
double-Rayleigh fading, uniform phase errors, exact instantaneous rates and
spatial averaging all live here.  Trials are processed in fixed-size chunks
whose substreams are keyed by (master_seed, chunk_index); partial sums are
reduced in chunk order, so estimates are bit-identical for any worker count.

The three fading estimators share one real-arithmetic cascade kernel.  The
squared magnitude of a CN(0,1) gain is Exp(1), so each per-element amplitude
product |g||h| is drawn as sqrt(E1*E2) from two standard exponentials, and
the direct amplitude |h_d| as sqrt(E).  The cascade z = sum |g||h| e^{j tau}
is summed as its real and imaginary parts, sum a*cos(tau) and sum a*sin(tau);
with perfect phases (rho = 0) it is the plain sum of the amplitudes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .params import DeploymentParams, LinkGeometry, RateEstimate, SystemParams
from .phase_error import attenuation_factor, sample_phase_errors
from .rate_bounds import mean_power_gain
from .streams import substream

#: Trials per substream chunk.  Fixed: changing it changes the draws.
_CHUNK = 4096

#: Residual nearest-miss probability targeted when auto-sizing the
#: simulation window of the full point-process policy.
_WINDOW_MISS_PROB = 1e-9


@dataclass(frozen=True)
class McConfig:
    """Simulation size, seeding and geometry-window policy."""

    trials: int
    master_seed: int = 0
    window_policy: str = "direct_nearest"  # or "full_hppp"
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.window_policy not in ("direct_nearest", "full_hppp"):
            raise DomainError(f"unknown window_policy {self.window_policy!r}")
        if self.workers < 1:
            raise DomainError("workers must be at least 1")


@dataclass(frozen=True)
class ReflectionMoments:
    """Empirical first/second moments of the aggregated reflection coefficient."""

    mean_re_z: float
    mean_abs_z_sq: float
    stderr_re_z: float
    stderr_abs_z_sq: float


def hppp_window_radius(lam: float, serve_radius: float) -> float:
    """Disk radius making a beyond-window nearest reflector negligible."""
    if lam <= 0 or serve_radius <= 0:
        raise DomainError("density and serve_radius must be positive")
    return max(
        3.0 * serve_radius,
        math.sqrt(math.log(1.0 / _WINDOW_MISS_PROB) / (math.pi * lam)),
    )


def sample_nearest_distance(lam: float, stream: np.random.Generator, size=None):
    """Nearest-reflector distance via the inverse CDF sqrt(-ln U / (pi lam))."""
    if lam <= 0:
        raise DomainError("density must be positive")
    u = stream.random(size)
    return np.sqrt(-np.log1p(-u) / (math.pi * lam))


def sample_hppp_nearest(
    lam: float, radius: float, stream: np.random.Generator
) -> Optional[float]:
    """Nearest distance from an explicit Poisson scatter in a disk; None if empty."""
    if lam <= 0 or radius <= 0:
        raise DomainError("density and disk radius must be positive")
    count = stream.poisson(lam * math.pi * radius**2)
    if count == 0:
        return None
    return float(radius * math.sqrt(stream.random(count).min()))


def _sample_annulus_distance(params: SystemParams, rng: np.random.Generator, size) -> np.ndarray:
    u = rng.random(size)
    return np.sqrt(params.d_min**2 + u * (params.d_max**2 - params.d_min**2))


def _sample_serving_distance(
    lam: float, serve_radius: float, mc: McConfig, rng: np.random.Generator, size
) -> np.ndarray:
    """Nearest-reflector distance per trial under the configured window policy."""
    if mc.window_policy == "direct_nearest":
        return sample_nearest_distance(lam, rng, size)
    # auto-sized so that a nearest reflector beyond the window is negligible
    radius = hppp_window_radius(lam, serve_radius)
    counts = rng.poisson(lam * math.pi * radius**2, size)
    v = rng.random(size)
    with np.errstate(divide="ignore", invalid="ignore"):
        min_u = -np.expm1(np.log1p(-v) / counts)  # min of `counts` uniforms
    r = radius * np.sqrt(min_u)
    return np.where(counts > 0, r, np.inf)


def _cascade(
    rng: np.random.Generator, size: int, n_elements: int, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re z, Im z of z = sum |g||h| e^{j tau} over n_elements, and the direct |h|.

    Draws, in order: 2 * size * n_elements standard exponentials for the
    amplitude products, the phase errors (none at rho = 0), and size
    exponentials for the direct link.  n_elements = 0 gives z = 0.
    """
    amp, other = rng.standard_exponential((2, size, n_elements))
    amp *= other
    np.sqrt(amp, out=amp)
    if rho == 0.0:
        re = amp.sum(axis=1)
        im = np.zeros(size)
    else:
        tau = sample_phase_errors(rho, size * n_elements, rng).reshape(size, n_elements)
        trig = np.cos(tau)
        re = np.einsum("ij,ij->i", amp, trig)
        im = np.einsum("ij,ij->i", amp, np.sin(tau, out=trig))
    h_abs = np.sqrt(rng.standard_exponential(size))
    return re, im, h_abs


def _received_power(bl, br, bd, re, im, h_abs):
    """|sqrt(bl*br) z + sqrt(bd) |h_d||^2: reflections co-phased with the direct link."""
    cascade = np.sqrt(bl * br)
    return (cascade * re + np.sqrt(bd) * h_abs) ** 2 + (cascade * im) ** 2


def _accumulate(
    chunk_fn: Callable[[int, int], np.ndarray],
    trials: int,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunk-ordered reduction of per-trial statistics to means and stderrs."""
    n_chunks = (trials + _CHUNK - 1) // _CHUNK
    sizes = [(i, min(_CHUNK, trials - i * _CHUNK)) for i in range(n_chunks)]

    def run(args):
        index, size = args
        values = np.atleast_2d(np.asarray(chunk_fn(index, size), dtype=float))
        if values.shape[0] != size:
            values = values.T
        return values.sum(axis=0), (values**2).sum(axis=0)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, sizes))
    else:
        partials = [run(s) for s in sizes]

    total = partials[0][0].copy()
    total_sq = partials[0][1].copy()
    for s, s2 in partials[1:]:
        total += s
        total_sq += s2
    mean = total / trials
    if trials > 1:
        var = np.maximum(total_sq - trials * mean**2, 0.0) / (trials - 1)
        stderr = np.sqrt(var / trials)
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def simulate_fixed_rate(
    params: SystemParams,
    geom: LinkGeometry,
    n_elements: int,
    rho: float,
    mc: McConfig,
) -> RateEstimate:
    """Exact ergodic rate of the fixed-geometry link, averaged over fading
    and phase error.  n_elements = 0 degenerates to the direct-only link."""
    if n_elements < 0:
        raise DomainError("n_elements must be nonnegative")
    snr = params.snr_gain
    bl = params.beta_bs_ris(geom.l)
    br = params.beta_ris_ue(geom.r)
    bd = params.beta_direct(geom.d)

    def chunk(index: int, size: int) -> np.ndarray:
        rng = substream(mc.master_seed, index)
        re, im, h_abs = _cascade(rng, size, n_elements, rho)
        return np.log2(1.0 + snr * _received_power(bl, br, bd, re, im, h_abs))

    mean, stderr = _accumulate(chunk, mc.trials, mc.workers)
    return RateEstimate(
        value=float(mean[0]), method="monte_carlo", std_error=float(stderr[0])
    )


def _bound_values(
    params: SystemParams, n_elements: int, rho: float, d: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Fixed-geometry rate bound per sampled (d, r), with the feeder length tied to d."""
    m = attenuation_factor(rho)
    n = float(n_elements)
    snr = params.snr_gain
    beta = params.beta_ref
    bl = beta * d ** (-params.alpha_bs_ris)
    br = beta * r ** (-params.alpha_ris_ue)
    bd = beta * d ** (-params.alpha_direct)
    served = r <= params.serve_radius
    inside = np.where(served, mean_power_gain(bl, br, bd, m, n), bd)
    return np.log2(1.0 + snr * inside)


def simulate_spatial_bound(
    params: SystemParams, dep: DeploymentParams, rho: float, mc: McConfig
) -> RateEstimate:
    """Monte-Carlo average of the fixed-geometry bounds over random positions.

    Estimates exactly the quantity `spatial_rate_integral` computes.
    """
    def chunk(index: int, size: int) -> np.ndarray:
        rng = substream(mc.master_seed, index)
        d = _sample_annulus_distance(params, rng, size)
        r = _sample_serving_distance(dep.density, params.serve_radius, mc, rng, size)
        return _bound_values(params, dep.elements_per_ris, rho, d, r)

    mean, stderr = _accumulate(chunk, mc.trials, mc.workers)
    return RateEstimate(
        value=float(mean[0]), method="monte_carlo", std_error=float(stderr[0])
    )


def simulate_spatial_exact(
    params: SystemParams, dep: DeploymentParams, rho: float, mc: McConfig
) -> RateEstimate:
    """Spatial average of the exact fading-averaged rate (no Jensen step).

    Reported alongside the bound average to quantify its gap; positions and
    fading are drawn jointly, which leaves the mean unchanged.
    """
    n_el = dep.elements_per_ris
    snr = params.snr_gain
    beta = params.beta_ref

    def chunk(index: int, size: int) -> np.ndarray:
        rng = substream(mc.master_seed, index)
        d = _sample_annulus_distance(params, rng, size)
        r = _sample_serving_distance(dep.density, params.serve_radius, mc, rng, size)
        re, im, h_abs = _cascade(rng, size, n_el, rho)
        bl = beta * d ** (-params.alpha_bs_ris)
        with np.errstate(divide="ignore"):
            br = beta * r ** (-params.alpha_ris_ue)
        bd = beta * d ** (-params.alpha_direct)
        served = r <= params.serve_radius
        power = np.where(
            served, _received_power(bl, br, bd, re, im, h_abs), bd * h_abs**2
        )
        return np.log2(1.0 + snr * power)

    mean, stderr = _accumulate(chunk, mc.trials, mc.workers)
    return RateEstimate(
        value=float(mean[0]), method="monte_carlo", std_error=float(stderr[0])
    )


def estimate_reflection_moments(
    n_elements: int, rho: float, mc: McConfig
) -> ReflectionMoments:
    """Empirical E{Re z} and E{|z|^2} of z = sum |g||h| e^{j tau}."""
    if n_elements < 1:
        raise DomainError("n_elements must be at least 1")

    def chunk(index: int, size: int) -> np.ndarray:
        rng = substream(mc.master_seed, index)
        re, im, _ = _cascade(rng, size, n_elements, rho)
        return np.column_stack([re, re**2 + im**2])

    mean, stderr = _accumulate(chunk, mc.trials, mc.workers)
    return ReflectionMoments(
        mean_re_z=float(mean[0]),
        mean_abs_z_sq=float(mean[1]),
        stderr_re_z=float(stderr[0]),
        stderr_abs_z_sq=float(stderr[1]),
    )
