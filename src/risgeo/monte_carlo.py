"""Monte-Carlo oracle for every analytic expression in the package.

Geometry draws (nearest-reflector distance, annulus position), Rayleigh /
double-Rayleigh fading, uniform phase errors, exact instantaneous rates and
spatial averaging all live here.  Trials are processed in fixed-size chunks,
chunk i drawing from the substream spawned from (master_seed, i).  Workers
take consecutive full chunks in blocks of rows, one chunk per row and each row
on its own substream, and map a whole block with one numpy call per step; a
partial last chunk is a block of its own.  The spatial bound estimator, a few
scalars per trial, runs blocks of several rows; the estimators that draw
fading, whose chunk arrays are trials x elements already, one row.  A block
returns rows x size values, or rows x k x size for k statistics, so each
statistic of a chunk is one contiguous row, summed pairwise.  Row sums are
reduced in chunk order, so estimates are bit-identical for any block size
and worker count.

Both spatial estimators draw a trial's geometry through `_SpatialGeometry`,
built once per estimate.  A chunk, one row of a block, draws, in order: one
uniform per trial for the squared BS-UE distance q = d^2 on the annulus, then
the serving draw, which yields the normalized area e = pi lam r^2 of the
nearest-reflector disk.  Under the `direct_nearest` policy that is one
uniform per trial through the inverse nearest-distance CDF, e = -ln(1 - U).
Under `full_hppp` it is one uniform per trial for the reflector count in
the simulation window, mapped to a Poisson count by inverting its running
pmf sum through an exact slot table (`_CountTable`), then one uniform per
trial for the minimum of that many uniform squared radii, scaled by the
window's mean count.  The table is one int32 code per slot: the slot's
count, or -1 where a count boundary falls inside it or the count is 0.
One gather thus codes every draw, only the draws coded -1 are searched,
and the empty windows (count 0, e = inf) are found among those alone.  The
count table leaves out the upper tail below 2^-53, the resolution of the
uniforms, and a uniform of exactly 0 maps to count 0.  No distance is ever
formed: the path losses are taken in the log domain from ln q and ln e, and
a trial is served when e <= pi lam C^2.  The exact estimator draws its
fading after the geometry, so for one McConfig both estimators see the
same geometry.

The bound estimator gives a served trial the Jensen bracket of
`rate_bounds.mean_power_gain` and any other trial the direct gain bd.  It
selects by multiplying the cascade gain by the served mask, not by a
branchy `np.where`: at a cascade gain of 0 the bracket is bd bit for bit.
The bracket is computed in the block's own buffers, with one scratch array.

The three fading estimators share one real-arithmetic cascade kernel.  The
squared magnitude of a CN(0,1) gain is Exp(1), so each per-element amplitude
product |g||h| is drawn as sqrt(E1*E2) from two standard exponentials, and
the direct amplitude |h_d| as sqrt(E).  The cascade z = sum |g||h| e^{j tau}
is summed as its real and imaginary parts, sum a*cos(tau) and sum a*sin(tau),
with the rotation evaluated from the half-angle tangent t = tan(tau/2):
cos(tau) = (1 - t^2)/(1 + t^2) and sin(tau) = 2t/(1 + t^2).  With perfect
phases (rho = 0) z is the plain sum of the amplitudes.  A chunk of `size`
trials over N elements draws, in order: size x N exponentials, size x N more,
size x N phase errors (none at rho = 0), then size exponentials for the direct
links.  Only the first exponentials, held as the amplitudes, make a size x N
array.  The second exponentials and the phases pass through blocks of rows of
about `_CASCADE_BLOCK` elements (512 KB), each drawn into a block buffer,
reused from block to block, and folded into its rows, so a chunk at N = 200
peaks at about 1.2 times its amplitude array, not 3 times.  The phases are
drawn as half-angles, `sample_phase_errors(rho / 2)`: scaling a uniform draw
by a power of two is exact, so these are the draws at rho, halved.  Each
generator fills its output in stream order and each row sum reads one row, so
the draws and the values are those of the whole chunk taken at once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .params import DeploymentParams, LinkGeometry, RateEstimate, SystemParams, _is_count
from .phase_error import attenuation_factor, sample_phase_errors
from .rate_bounds import mean_power_gain
from .streams import _is_index, substream

#: Trials per substream chunk.  Fixed: changing it changes the draws.
_CHUNK = 4096

#: Most full chunks the spatial bound estimator maps at once, one per row.  Any
#: value gives the same estimates.  Against 4 rows, in-process on a 2-core
#: host with a 2 MB L2: 8 rows took 0.94x the time on the benchmark's
#: spatial grid (median of 20 paired passes, 13 lower) and 0.93-0.98x per
#: trial at 2^20 trials, workers 1, over both policies and three serving
#: radii; at workers 2, 0.73x at 2^20 trials and 0.98x at 10^5.  16 rows
#: took 1.04x the time of 8.
_BLOCK_ROWS = 8

#: Elements (trials x reflecting elements) in one block of the cascade
#: kernel's second exponentials and phases; a chunk that fits runs as one block.
_CASCADE_BLOCK = 2**16

#: Residual nearest-miss probability targeted when auto-sizing the
#: simulation window of the full point-process policy.
_WINDOW_MISS_PROB = 1e-9

#: Upper-tail mass of the window count left out of its inversion table: below
#: the 2^-53 resolution of `Generator.random`'s uniforms.
_COUNT_TAIL = 2.0**-53

#: Slots of a count table per count, rounded up to a power of two and capped
#: at _MAX_SLOTS (4 MB of int32 codes).  At 32, about 1% of the draws or
#: fewer land in a slot that holds a boundary and are searched.
_SLOTS_PER_COUNT = 32
_MAX_SLOTS = 2**20


def usable_cores() -> int:
    """CPUs this process may run on: the default number of chunk workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class McConfig:
    """Simulation size, seeding, geometry-window policy and worker threads.

    Estimates are bit-identical for any worker count, so `workers` defaults
    to every usable core.
    """

    trials: int
    master_seed: int = 0
    window_policy: str = "direct_nearest"  # or "full_hppp"
    workers: int = field(default_factory=usable_cores)

    def __post_init__(self):
        for name, low in (("trials", 1), ("master_seed", 0), ("workers", 1)):
            if not _is_index(getattr(self, name), low):
                raise DomainError(f"{name} must be an integer >= {low}")
        if self.window_policy not in ("direct_nearest", "full_hppp"):
            raise DomainError(f"unknown window_policy {self.window_policy!r}")


@dataclass(frozen=True)
class ReflectionMoments:
    """Empirical first/second moments of the aggregated reflection coefficient."""

    mean_re_z: float
    mean_abs_z_sq: float
    stderr_re_z: float
    stderr_abs_z_sq: float


def hppp_window_radius(lam: float, serve_radius: float) -> float:
    """Disk radius making a beyond-window nearest reflector negligible."""
    if not (lam > 0 and serve_radius > 0):
        raise DomainError("density and serve_radius must be positive")
    return max(
        3.0 * serve_radius,
        math.sqrt(math.log(1.0 / _WINDOW_MISS_PROB) / (math.pi * lam)),
    )


def _nearest_area(u: np.ndarray) -> np.ndarray:
    """Normalized nearest-reflector area pi lam r^2 of each uniform u via the
    inverse CDF -ln(1 - u), in place."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def sample_nearest_distance(lam: float, stream: np.random.Generator, size=None):
    """Nearest-reflector distance via the inverse CDF sqrt(-ln(1 - U) / (pi lam))."""
    if not lam > 0:
        raise DomainError("density must be positive")
    if not (size is None or _is_index(size, 0)):
        raise DomainError("size must be None or a nonnegative integer")
    return np.sqrt(_nearest_area(np.asarray(stream.random(size))) / (math.pi * lam))


def sample_hppp_nearest(
    lam: float, radius: float, stream: np.random.Generator
) -> Optional[float]:
    """Nearest distance from an explicit Poisson scatter in a disk; None if empty.

    A scalar oracle independent of the vectorized full-scatter draw: it keeps
    numpy's own Poisson sampler for the count.
    """
    if not (lam > 0 and radius > 0):
        raise DomainError("density and disk radius must be positive")
    count = stream.poisson(lam * math.pi * radius**2)
    if count == 0:
        return None
    return float(radius * math.sqrt(stream.random(count).min()))


class _CountTable:
    """Inversion of a finite probability vector over the counts 0..n-1 by an
    exact slot table.

    A uniform u gives the smallest count k with cum[k] >= u * cum[-1], cum
    being the running sum of the vector: `searchsorted` of u * cum[-1], so
    u = 0 gives count 0.  That count never falls as u grows.  The table
    splits [0, 1) into M slots [j / M, (j + 1) / M), M a power of two so that
    floor(u M) is exact.  A slot whose two edges give the same count k > 0
    gives it to every uniform inside, and its int32 code is k.  A slot whose
    edges differ holds a boundary, and a slot of count 0 holds an empty
    window; both have code -1, and only their draws are searched, so one
    gather serves every draw and the empty windows are found among the
    searched draws alone.  Every draw is thus the `searchsorted` count.
    The table holds no per-call state, so worker threads share it.
    UNU.RAN's guide-table method (`scipy.stats.sampling.DiscreteGuideTable`)
    inverts the same running sum to the same count, so the draws are its
    draws bit for bit.
    """

    def __init__(self, pmf: np.ndarray):
        cum = self._cum = np.cumsum(pmf)
        self._total = cum[-1]
        self._slots = min(_MAX_SLOTS, 1 << (_SLOTS_PER_COUNT * cum.size - 1).bit_length())
        # slot edge j maps to the target (j / M) * total = j * step exactly,
        # M being a power of two.  cum[k] reaches the edges 0..j with
        # j * step <= cum[k]; that last j is within one of cum[k] / step
        # rounded down, and two exact comparisons settle it
        step = self._total / self._slots
        last = np.floor(cum / step)
        reached = np.zeros(cum.size + 1)  # edges reached by cum[k - 1]; none before k = 0
        np.add(last, last * step <= cum, out=reached[1:])
        last += 1.0
        reached[1:] += last * step <= cum
        # edge j's count is the first k whose cum reaches it
        widths = (reached[1:] - reached[:-1]).astype(np.intp)
        edges = np.repeat(np.arange(cum.size, dtype=np.int32), widths)
        codes = self._codes = edges[:-1]
        codes[(codes != edges[1:]) | (codes == 0)] = -1

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Count of each uniform u in [0, 1), in u's shape, and the flat
        indices of the uniforms whose count is 0; u = 0 gives count 0."""
        shape = np.shape(u)
        u = np.ravel(u)
        k = np.take(self._codes, (u * self._slots).astype(np.intp))
        searched = np.flatnonzero(k < 0)
        found = np.searchsorted(self._cum, u[searched] * self._total)
        k[searched] = found
        return k.reshape(shape), searched[found == 0]


def _poisson_counts(mu: float) -> _CountTable:
    """Count table of Poisson(mu), cut at the first count whose upper tail is
    below 2^-53, the resolution of `Generator.random`, so the cut tail is below
    what any uniform resolves.  The pmf is poisson.pmf's exp(xlogy(k, mu) -
    gammaln(k + 1) - mu), and a uniform draws the count UNU.RAN's guide table
    on that pmf draws, bit for bit (see `_CountTable`).
    """
    from scipy import special  # only the full-scatter policy needs it

    # poisson.isf(tail, mu): the inverse CDF at 1 - tail, one count lower when
    # the CDF reaches 1 - tail there; then stepped up, as isf is loose this far out
    p = 1.0 - _COUNT_TAIL
    k_max = math.ceil(special.pdtrik(p, mu))
    if k_max > 0 and special.pdtr(k_max - 1, mu) >= p:
        k_max -= 1
    while special.pdtrc(k_max, mu) >= _COUNT_TAIL:
        k_max += 1
    k = np.arange(k_max + 1)
    return _CountTable(np.exp(special.xlogy(k, mu) - special.gammaln(k + 1) - mu))


class _SpatialGeometry:
    """Geometry of one spatial estimate: draws a block of chunks' trials in
    the order the module docstring states and maps them to log-domain path
    losses.

    With q = d^2, e = pi lam r^2 and the feeder length tied to d,

        ln(bl br) = 2 ln beta + (a3/2) ln(pi lam) - (a2/2) ln q - (a3/2) ln e,
        ln bd     = ln beta - (a1/2) ln q,

    so a trial costs two logarithms here and two exponentials in its caller,
    with no square root or power.  The constants, and under `full_hppp` the
    window's mean count and count table, are built once per estimate.
    """

    def __init__(self, params: SystemParams, lam: float, mc: McConfig):
        pi_lam = math.pi * lam
        self._serve_area = pi_lam * params.serve_radius**2
        self._q_min = params.d_min**2
        self._q_span = params.d_max**2 - params.d_min**2
        self.counts = None
        if mc.window_policy == "full_hppp":
            self.mean_count = lam * math.pi * hppp_window_radius(lam, params.serve_radius) ** 2
            self.counts = _poisson_counts(self.mean_count)
        self._ln_beta = math.log(params.beta_ref)
        self._cascade0 = 2.0 * self._ln_beta + 0.5 * params.alpha_ris_ue * math.log(pi_lam)
        self._half_direct = 0.5 * params.alpha_direct
        self._half_feeder = 0.5 * params.alpha_bs_ris
        self._half_access = 0.5 * params.alpha_ris_ue

    def sample(self, rngs: list[np.random.Generator], size: int):
        """ln(bl br), ln bd and the served mask of a block of chunks, each a
        len(rngs) x size array.  Row i holds the `size` trials of one chunk,
        drawn from rngs[i], that chunk's own substream, in the documented
        order straight into the row (`Generator.random(out=...)`); the block
        is then mapped in place.  No row's values depend on another row, so
        the estimates are unchanged for any block size and worker count."""
        rows = len(rngs)
        u = np.empty((2 if self.counts is None else 3, rows, size))
        for i, rng in enumerate(rngs):
            for draw in u[:, i]:
                rng.random(out=draw)
        q, e = u[0], u[-1]
        q *= self._q_span
        q += self._q_min
        if self.counts is None:
            return self.losses(q, _nearest_area(e))
        counts, empty = self.counts(u[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            # min of `counts` uniforms -expm1(ln(1 - U) / counts), times the mean count
            np.negative(e, out=e)
            np.log1p(e, out=e)
            e /= counts
            np.expm1(e, out=e)
        e *= -self.mean_count
        np.put(e, empty, np.inf)
        return self.losses(q, e)

    def losses(self, q: np.ndarray, e: np.ndarray):
        """ln(bl br), ln bd and the served mask e <= pi lam C^2 per squared
        distance q and area e, computed in place: e becomes ln(bl br) and q
        ln bd.  e = 0 gives an infinite cascade gain, e = inf (an empty
        window) a zero one."""
        served = e <= self._serve_area
        ln_q = np.log(q, out=q)
        with np.errstate(divide="ignore"):
            ln_cascade = np.log(e, out=e)
        ln_cascade *= -self._half_access
        ln_cascade += self._cascade0
        ln_cascade -= self._half_feeder * ln_q
        ln_q *= -self._half_direct
        ln_q += self._ln_beta
        return ln_cascade, ln_q, served


def _cascade(
    rng: np.random.Generator, size: int, n_elements: int, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re z, Im z of z = sum |g||h| e^{j tau} over n_elements, and the direct |h|.

    Draws, in order: 2 * size * n_elements standard exponentials for the
    amplitude products, the phase errors (none at rho = 0), and size
    exponentials for the direct link.  n_elements = 0 gives z = 0.

    The rotation e^{j tau} is evaluated from one half-angle tangent
    t = tan(tau/2) rather than from cos and sin: 1/(1 + t^2) is folded into
    the amplitudes, so Re z = sum a (1 - t^2) / (1 + t^2) and
    Im z = 2 sum a t / (1 + t^2).  This is accurate at every tau, including
    tau = -pi (t is large but finite, giving cos = -1).

    Works in one size x n_elements array, the amplitudes, plus two buffers
    of one block of rows, each reused across blocks: _CASCADE_BLOCK //
    n_elements rows but at least two, so the whole chunk if it fits, and a
    lone last row joins the block before it.  A first pass draws each block's
    second exponentials into one buffer and folds them in; at rho > 0 a
    second pass draws each block's half-angles tau/2 into the other as
    `sample_phase_errors(rho / 2)`, which halves each draw at rho exactly,
    and folds in the rotation.  The values are bit for bit those of one pass
    over the chunk.
    """
    amp = rng.standard_exponential((size, n_elements))
    rows = max(2, _CASCADE_BLOCK // max(n_elements, 1))
    bounds = [*range(0, size, rows), size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        # einsum sums a lone row of over 8192 elements in another order than
        # a row of a taller block, so a last row joins the block before it
        del bounds[-2]
    blocks = [slice(first, stop) for first, stop in zip(bounds, bounds[1:])]
    buf = np.empty((max(b.stop - b.start for b in blocks), n_elements))
    re = np.empty(size)
    for block in blocks:
        a = amp[block]
        a *= rng.standard_exponential(out=buf[: len(a)])
        np.sqrt(a, out=a)
        if rho == 0.0:
            a.sum(axis=1, out=re[block])
    if rho == 0.0:
        return re, np.zeros(size), np.sqrt(rng.standard_exponential(size))
    im = np.empty(size)
    half = np.empty_like(buf)
    for block in blocks:
        a = amp[block]
        # tau/2 drawn as a phase error at rho/2, then tan(tau/2) in place
        t = sample_phase_errors(rho / 2, a.size, rng, out=half[: len(a)])
        np.tan(t, out=t)
        w = np.multiply(t, t, out=buf[: len(a)])
        w += 1.0
        a /= w
        np.einsum("ij,ij->i", a, np.subtract(2.0, w, out=w), out=re[block])
        np.einsum("ij,ij->i", a, t, out=im[block])
    del half, t  # else they outlive the loop, beside the direct-link draw
    im *= 2.0
    return re, im, np.sqrt(rng.standard_exponential(size))


def _received_power(cascade, bd, re, im, h_abs):
    """|cascade z + sqrt(bd) |h_d||^2, cascade = sqrt(bl*br): reflections
    co-phased with the direct link."""
    return (cascade * re + np.sqrt(bd) * h_abs) ** 2 + (cascade * im) ** 2


def _accumulate(
    block_fn: Callable[[list[np.random.Generator], int], np.ndarray],
    mc: McConfig,
    max_rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Chunk-ordered reduction of per-trial statistics to means and stderrs.

    Chunk i draws from `substream(mc.master_seed, i)`.  Consecutive full
    chunks run in blocks of up to `max_rows` rows, one chunk per row: a block
    calls `block_fn(rngs, size)` with one generator per row, in chunk order,
    and gets back a rows x size array of per-trial values, or a rows x k x
    size one for k statistics.  Each statistic of a chunk is thus one
    contiguous row of `size` values, summed (and its squares summed) by
    numpy's pairwise sum; a rows x size x k layout would be summed along a
    strided axis, one value after another, and several times slower.  A
    partial last chunk is a block of its own, and workers take whole blocks;
    a lone block runs on the calling thread.  Row sums are added one chunk
    at a time in chunk order, so the estimates are the same for any block
    size and worker count.
    """
    trials, workers = mc.trials, mc.workers
    full, rest = divmod(trials, _CHUNK)
    # the fewest blocks of at most max_rows rows, rounded up to a multiple of
    # workers but at most one per chunk, with row counts that differ by at most
    # one, so the workers share the full chunks evenly
    count = -(-full // max_rows)
    count = min(full, -(-count // workers) * workers)
    starts = [full * i // count for i in range(count)] + [full]
    blocks = [(first, end - first, _CHUNK) for first, end in zip(starts, starts[1:])]
    if rest:
        blocks.append((full, 1, rest))

    def run(block):
        first, count, size = block
        # `substream` is read from this module at call time, where tracing patches it
        rngs = [substream(mc.master_seed, first + i) for i in range(count)]
        values = np.asarray(block_fn(rngs, size), dtype=float).reshape(count, -1, size)
        sums = values.sum(axis=2)
        return sums, np.square(values, out=values).sum(axis=2)

    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            partials = list(pool.map(run, blocks))
    else:
        partials = [run(b) for b in blocks]

    # add.accumulate runs left to right: one chunk's sums at a time
    total = np.add.accumulate(np.concatenate([s for s, _ in partials]))[-1]
    total_sq = np.add.accumulate(np.concatenate([s2 for _, s2 in partials]))[-1]
    mean = total / trials
    if trials > 1:
        var = np.maximum(total_sq - trials * mean**2, 0.0) / (trials - 1)
        stderr = np.sqrt(var / trials)
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def _rate_estimate(
    block_fn: Callable[[list[np.random.Generator], int], np.ndarray],
    mc: McConfig,
    max_rows: int,
) -> RateEstimate:
    mean, stderr = _accumulate(block_fn, mc, max_rows=max_rows)
    return RateEstimate(value=float(mean[0]), method="monte_carlo", std_error=float(stderr[0]))


def simulate_fixed_rate(
    params: SystemParams,
    geom: LinkGeometry,
    n_elements: int,
    rho: float,
    mc: McConfig,
) -> RateEstimate:
    """Exact ergodic rate of the fixed-geometry link, averaged over fading
    and phase error.  n_elements = 0 degenerates to the direct-only link."""
    if not _is_count(n_elements, 0):
        raise DomainError("n_elements must be an integer >= 0 that converts to a finite float")
    snr = params.snr_gain
    cascade = math.sqrt(params.beta_bs_ris(geom.l) * params.beta_ris_ue(geom.r))
    bd = params.beta_direct(geom.d)

    def chunk(rngs: list[np.random.Generator], size: int) -> np.ndarray:
        (rng,) = rngs  # the cascade estimators run one chunk per block
        re, im, h_abs = _cascade(rng, size, n_elements, rho)
        return np.log2(1.0 + snr * _received_power(cascade, bd, re, im, h_abs))

    return _rate_estimate(chunk, mc, max_rows=1)


def simulate_spatial_bound(
    params: SystemParams, dep: DeploymentParams, rho: float, mc: McConfig
) -> RateEstimate:
    """Monte-Carlo average of the fixed-geometry bounds over random positions.

    Estimates exactly the quantity `spatial_rate_integral` computes: the
    Jensen bracket where served, the direct gain bd elsewhere.
    """
    snr = params.snr_gain
    m = attenuation_factor(rho)
    n = float(dep.elements_per_ris)
    geometry = _SpatialGeometry(params, dep.density, mc)

    def block(rngs: list[np.random.Generator], size: int) -> np.ndarray:
        ln_cascade, ln_bd, served = geometry.sample(rngs, size)
        bd = np.exp(ln_bd, out=ln_bd)
        # an unserved trial's cascade gain, finite as its area is positive,
        # times 0 turns its bracket into bd bit for bit
        blbr = np.exp(ln_cascade, out=ln_cascade)
        blbr *= served
        power = mean_power_gain(blbr, bd, m, n, out=blbr)
        power *= snr
        power += 1.0
        return np.log2(power, out=power)

    return _rate_estimate(block, mc, max_rows=_BLOCK_ROWS)


def simulate_spatial_exact(
    params: SystemParams, dep: DeploymentParams, rho: float, mc: McConfig
) -> RateEstimate:
    """Spatial average of the exact fading-averaged rate (no Jensen step).

    Reported alongside the bound average to quantify its gap; positions and
    fading are drawn jointly, which leaves the mean unchanged.
    """
    n_el = dep.elements_per_ris
    snr = params.snr_gain
    geometry = _SpatialGeometry(params, dep.density, mc)

    def chunk(rngs: list[np.random.Generator], size: int) -> np.ndarray:
        ln_cascade, ln_bd, served = geometry.sample(rngs, size)
        (rng,) = rngs  # the fading comes after the geometry on the chunk's stream
        re, im, h_abs = _cascade(rng, size, n_el, rho)
        bd = np.exp(ln_bd)
        cascade = np.exp(0.5 * ln_cascade)  # sqrt(bl*br)
        power = np.where(served, _received_power(cascade, bd, re, im, h_abs), bd * h_abs**2)
        return np.log2(1.0 + snr * power)

    return _rate_estimate(chunk, mc, max_rows=1)


def estimate_reflection_moments(
    n_elements: int, rho: float, mc: McConfig
) -> ReflectionMoments:
    """Empirical E{Re z} and E{|z|^2} of z = sum |g||h| e^{j tau}."""
    if not _is_count(n_elements, 1):
        raise DomainError("n_elements must be an integer >= 1 that converts to a finite float")

    def chunk(rngs: list[np.random.Generator], size: int) -> np.ndarray:
        (rng,) = rngs
        re, im, _ = _cascade(rng, size, n_elements, rho)
        return np.stack([re, re**2 + im**2])

    mean, stderr = _accumulate(chunk, mc, max_rows=1)
    return ReflectionMoments(
        mean_re_z=float(mean[0]),
        mean_abs_z_sq=float(mean[1]),
        stderr_re_z=float(stderr[0]),
        stderr_abs_z_sq=float(stderr[1]),
    )
