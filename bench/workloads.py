"""The benchmark's three workloads: seeded inputs, warm-up, one pass of ops.

Each workload is one closed-loop caller: an op is issued only after the
previous one has returned.  An op is one Monte-Carlo estimate, one
spatial-rate evaluation, one optimizer solve or one in-process CLI call.  A
pass runs a fixed list of ops whose sizes (trials, array sizes, grid sizes,
scan lengths) do not depend on the seed; the seed only moves parameter values
and Monte-Carlo seeds, so every seed costs about the same.

Reference values that are not themselves part of a workload (fixed-geometry
bounds, moment closed forms, the quadrature behind the spatial Jensen check)
are computed once while the workload is built, so they count in set-up time,
not in the timed passes.

Host sensitivity s: when other tenants slow the host, a workload's ops slow
by the calibration kernel's slowdown (see run.py) to the power s.  Scalar
scipy and interpreter code slows more than the kernel, large numpy arrays
less.  Each value is fitted from ten 20-second runs with s = 1: across them,
log(pass time) rises against log(passes completed) with slope (1 - s) / s.

Package functions are always looked up as module attributes at call time
(``monte_carlo.simulate_fixed_rate``), so the tracer's wrappers on those names
see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import time
import warnings
from pathlib import Path

import numpy as np

from risgeo import cli, config, deployment, monte_carlo, phase_error, rate_bounds, spatial_rate
from risgeo.deployment import OptimizerRegime
from risgeo.errors import RegimeWarning
from risgeo.monte_carlo import McConfig
from risgeo.params import DeploymentParams, LinkGeometry, SystemParams

# `risgeo.rate_loss` as a package attribute is the function, not the module.
rate_loss = importlib.import_module("risgeo.rate_loss")

#: Oracle width for Monte-Carlo checks.  Wider than the tests' 3 sigma so that a
#: correct redraw of the samplers does not fail an op by chance.
SIGMAS = 5.0
#: Optimizer objective may trail the integer-grid oracle by this much (bps/Hz).
OPT_SLACK = 0.02
#: A breakdown's components must re-sum to its total within this.
RESUM_TOL = 1e-9
#: Integer array sizes the grid oracle scans.  Fixed, not 2 * n_star as in the
#: acceptance test, so the oracle's cost does not depend on the seed.
GRID_N_MAX = 512


def baseline_params(**overrides) -> SystemParams:
    """The package's default link parameters, in engineering units."""
    base = dict(
        tx_power_dbm=10.0,
        noise_dbm=-80.0,
        beta_db=-30.0,
        alpha_direct=3.0,
        alpha_bs_ris=2.0,
        alpha_ris_ue=2.5,
        d_min=180.0,
        d_max=220.0,
        serve_radius=10.0,
    )
    base.update(overrides)
    return SystemParams.from_engineering(**base)


class Pass:
    """Results of one pass: op start times and latencies, failed ops by label,
    accuracy figures.  `between`, if given, is called after each op, outside
    its timing."""

    def __init__(self, between=None):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failed: dict[str, str] = {}
        self.stderr_max = 0.0
        self.gap_max = 0.0
        self.csv_bytes = 0
        self._between = between

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def op(self, label: str, fn, *args):
        """Time one op; an op that raises is counted as failed and returns None."""
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # the loop must go on; the failure is reported
            self.failed.setdefault(label, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.latencies.append(time.perf_counter() - start)
            self.starts.append(start)
            if self._between is not None:
                self._between()

    def expect(self, ok: bool, label: str, detail: str) -> None:
        if not ok:
            self.failed.setdefault(label, detail)

    def mc_rate(self, label: str, est, reference: float, exact: bool) -> None:
        """Check an MC rate estimate against a reference: equal within
        SIGMAS (exact) or not above it by more (Jensen dominance)."""
        self.stderr_max = max(self.stderr_max, est.std_error)
        slack = SIGMAS * est.std_error
        if exact:
            self.expect(abs(est.value - reference) <= slack, label,
                        f"|mc {est.value:.5f} - ref {reference:.5f}| > {SIGMAS:g} sigma")
        else:
            self.expect(est.value <= reference + slack, label,
                        f"mc {est.value:.5f} above bound {reference:.5f} + {SIGMAS:g} sigma")

    def breakdown(self, label: str, b) -> None:
        resum = abs(b.component_sum() - b.total)
        self.expect(resum <= RESUM_TOL, label, f"components re-sum off by {resum:.3g}")

    def cli(self, label: str, argv: list[str], expected_rows) -> None:
        """One in-process CLI call: exit code 0 and `expected_rows(text)` lines."""
        result = self.op(label, _call_cli, argv)
        if result is None:
            return
        code, text = result
        self.csv_bytes += len(text.encode())
        rows = len(text.splitlines())
        want = expected_rows(text) if code == 0 else None
        self.expect(code == 0 and rows == want, label, f"exit {code}, {rows} rows (want {want})")


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argument vector this way
        code = exc.code
    return code, out.getvalue()


def _write_config(path: Path, values: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()), encoding="utf-8")
    config.resolve(str(path))  # the CLI would reject a bad file the same way
    return str(path)


def _latin_grid(rng: np.random.Generator, levels: dict, points: int) -> list[dict]:
    """`points` parameter sets; each axis visits its levels equally often in a
    seeded order, and each value is jittered within its level."""
    axes = {}
    for axis, (values, jitter) in levels.items():
        order = rng.permutation(np.resize(np.arange(len(values)), points))
        axes[axis] = [jitter(rng, values[i]) for i in order]
    return [{axis: axes[axis][i] for axis in axes} for i in range(points)]


#: (P dBm, C m, lambda 1/m^2, N, rho) levels of the spatial grids.  Each power
#: level names the closed form the acceptance criteria hold it to: low-SNR at
#: 3 dBm (criterion 7), high-SNR at 10 and 20 dBm (criteria 4 and 6).  Both
#: forms run at every point, but closed_form_gap_max counts only the named one,
#: so the known out-of-regime gaps of criteria 6 and 7 stay visible without a
#: form applied at the opposite SNR extreme swamping them.
_SPATIAL_LEVELS = {
    "power": (((3.0, "low"), (10.0, "high"), (20.0, "high")),
              lambda rng, v: (v[0] + rng.uniform(-1.0, 1.0), v[1])),
    "serve_radius": ((5.0, 10.0, 15.0), lambda rng, v: v * rng.uniform(0.9, 1.1)),
    "density": ((0.003, 0.005, 0.01), lambda rng, v: v * rng.uniform(0.9, 1.1)),
    "n": ((20, 64, 200), lambda rng, v: int(round(v * rng.uniform(0.9, 1.1)))),
    "rho": ((0.0, 0.25, 0.5), lambda rng, v: v + rng.uniform(0.0, 0.05)),
}


def _spatial_point(rng: np.random.Generator, points: int):
    for pt in _latin_grid(rng, _SPATIAL_LEVELS, points):
        tx_power_dbm, form = pt["power"]
        params = baseline_params(tx_power_dbm=tx_power_dbm, serve_radius=pt["serve_radius"])
        dep = DeploymentParams(density=pt["density"], elements_per_ris=pt["n"])
        label = (f"P={tx_power_dbm:.2f} C={pt['serve_radius']:.2f} "
                 f"lam={pt['density']:.4g} N={pt['n']} rho={pt['rho']:.3f}")
        yield label, params, dep, pt["rho"], form


def _spatial_forms(p: Pass, label: str, params, dep, rho, form: str):
    """Quadrature plus both closed forms at one point; returns the quadrature total.

    `form` ("high" or "low") is the closed form whose gap to the quadrature counts.
    """
    quad = p.op(f"integral {label}", spatial_rate.spatial_rate_integral, params, dep, rho)
    closed = {
        "high": p.op(f"high_snr {label}", spatial_rate.spatial_rate_high_snr, params, dep, rho),
        "low": p.op(f"low_snr {label}", spatial_rate.spatial_rate_low_snr, params, dep, rho),
    }
    for name, b in (("integral", quad), ("high_snr", closed["high"]), ("low_snr", closed["low"])):
        if b is not None:
            p.breakdown(f"{name} {label}", b)
    if quad is None:
        return None
    if closed[form] is not None:
        p.gap_max = max(p.gap_max, abs(closed[form].total - quad.total))
    return quad.total


class FadingMc:
    """Cascade kernel and its Gaussian draws: fixed-geometry rates over an N
    sweep, spatial exact rates, reflection moments and one rate-fixed CLI sweep.
    Single-threaded; no quadrature, special functions or optimizer run in a pass.
    """

    name = "fading_mc"
    workers = 1
    host_sensitivity = 0.75
    trials = 4096  # one substream chunk per estimate
    n_sweep = (1, 4, 16, 64, 200)
    rhos = (0.0, 0.5, 1.0)
    exact_n = (64, 200)
    moment_n = (1, 16, 64)
    moment_rhos = (0.25, 0.5, 1.0)
    cli_sweep = "n_elements:8:64:3"

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 1])
        self.params = baseline_params()
        d = float(rng.uniform(180.0, 220.0))
        self.geom = LinkGeometry(d=d, l=d, r=float(rng.uniform(5.0, 15.0)))
        self.mc = McConfig(trials=self.trials, master_seed=int(rng.integers(2**31)),
                           workers=self.workers)
        self.bounds = {
            (n, rho): rate_bounds.rate_bound_ris(self.params, self.geom, n, rho).value
            for n in self.n_sweep for rho in self.rhos
        }
        self.exact_rho = float(rng.uniform(0.0, 0.5))
        self.exact_deps = [
            DeploymentParams(density=float(rng.uniform(0.003, 0.01)), elements_per_ris=n)
            for n in self.exact_n
        ]
        self.exact_refs = [
            spatial_rate.spatial_rate_integral(self.params, dep, self.exact_rho).total
            for dep in self.exact_deps
        ]
        self.cli_seed = int(rng.integers(2**31))
        self.cfg = _write_config(out_dir / f"{self.name}-{seed}.cfg", {
            "tx_power_dbm": float(rng.uniform(5.0, 15.0)),
            "d": d,
            "r": self.geom.r,
            "workers": self.workers,
        })

    def warm_up(self) -> None:
        n = max(self.n_sweep)
        monte_carlo.simulate_fixed_rate(self.params, self.geom, n, 0.5, self.mc)
        monte_carlo.simulate_spatial_exact(self.params, self.exact_deps[-1], 0.5, self.mc)
        monte_carlo.estimate_reflection_moments(max(self.moment_n), 0.5, self.mc)
        _call_cli(["rate-fixed", "--config", self.cfg, "--sweep", "n_elements:8:8:1",
                   "--trials", "64", "--seed", "0"])

    def run_pass(self, p: Pass) -> None:
        for n in self.n_sweep:
            for rho in self.rhos:
                label = f"fixed_rate N={n} rho={rho:g}"
                est = p.op(label, monte_carlo.simulate_fixed_rate,
                           self.params, self.geom, n, rho, self.mc)
                if est is not None:
                    p.mc_rate(label, est, self.bounds[n, rho], exact=False)
        for dep, ref in zip(self.exact_deps, self.exact_refs):
            label = f"spatial_exact N={dep.elements_per_ris} rho={self.exact_rho:.3f}"
            est = p.op(label, monte_carlo.simulate_spatial_exact,
                       self.params, dep, self.exact_rho, self.mc)
            if est is not None:
                p.mc_rate(label, est, ref, exact=False)
        for n in self.moment_n:
            for rho in self.moment_rhos:
                label = f"moments N={n} rho={rho:g}"
                got = p.op(label, monte_carlo.estimate_reflection_moments, n, rho, self.mc)
                if got is None:
                    continue
                m = phase_error.attenuation_factor(rho)
                d_re = abs(got.mean_re_z - m * n)
                d_sq = abs(got.mean_abs_z_sq - (n + m * m * n * (n - 1)))
                p.expect(d_re <= SIGMAS * got.stderr_re_z + 1e-12
                         and d_sq <= SIGMAS * got.stderr_abs_z_sq,
                         label, f"moment off by {d_re:.4g} / {d_sq:.4g}")
        points = int(self.cli_sweep.split(":")[3])
        p.cli("cli rate-fixed",
              ["rate-fixed", "--config", self.cfg, "--sweep", self.cli_sweep,
               "--trials", str(self.trials), "--seed", str(self.cli_seed)],
              lambda text: 2 + points)


class SpatialMc:
    """Rate-spatial triangle without fading: both window policies of the spatial
    bound sampler, the exact integral and both closed forms.  Each trial is a
    few scalars, so geometry draws, per-chunk substreams and chunk reduction
    dominate; the cascade kernel and optimizer do not run.  Single-threaded:
    with workers=2, load that other tenants put on the host's second core
    slowed whole runs by up to 1.5x, beyond what the calibration sees, so
    thread fan-out is left untimed (the self-test still checks that workers=1
    and workers=2 give identical estimates).
    """

    name = "spatial_mc"
    workers = 1
    host_sensitivity = 1.0
    trials = 256 * 4096
    points = 9

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 2])
        self.grid = list(_spatial_point(rng, self.points))
        self.mcs = [
            McConfig(trials=self.trials, master_seed=int(rng.integers(2**31)),
                     window_policy=policy, workers=self.workers)
            for policy in ("direct_nearest", "full_hppp")
        ]

    def warm_up(self) -> None:
        _, params, dep, rho, form = self.grid[0]
        for mc in self.mcs:
            monte_carlo.simulate_spatial_bound(params, dep, rho, dataclasses.replace(mc, trials=2 * 4096))
        _spatial_forms(Pass(), "warm-up", params, dep, rho, form)

    def run_pass(self, p: Pass) -> None:
        for label, params, dep, rho, form in self.grid:
            quad = _spatial_forms(p, label, params, dep, rho, form)
            for mc in self.mcs:
                mc_label = f"spatial_bound {mc.window_policy} {label}"
                est = p.op(mc_label, monte_carlo.simulate_spatial_bound, params, dep, rho, mc)
                if est is not None and quad is not None:
                    p.mc_rate(mc_label, est, quad, exact=True)


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """k uniform draws on [lo, hi], one in each of k equal strata, in seeded order.

    Python floats, not numpy scalars: the package's scalar code runs on them."""
    return (lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k).tolist()


#: Parameter ranges of the acceptance-criterion-8 optimizer instances.
_OPTIMIZER_RANGES = {
    "high": {"a3": (2.1, 3.9), "c": (2.0, 12.0), "eta": (1.0, 20.0),
             "p_dbm": (25.0, 40.0), "rho": (0.0, 0.8), "loss_db": (25.0, 35.0)},
    "low": {"a3": (2.1, 3.5), "c": (2.0, 4.0), "eta": (5.0, 20.0),
            "p_dbm": (0.0, 6.0), "rho": (0.0, 0.5), "loss_db": (25.0, 35.0)},
}


def _optimizer_instances(rng: np.random.Generator, per_regime: int):
    """Criterion-8 instances in all four regimes.  Each range is sampled by
    stratified draws, so the mix of optimizer branches, and with it the cost
    of a pass, barely moves with the seed."""
    for snr, phase in (("high", "bounded"), ("high", "random"), ("low", "bounded"), ("low", "random")):
        regime = OptimizerRegime(snr=snr, phase=phase)
        draws = {key: _stratified(rng, lo, hi, per_regime)
                 for key, (lo, hi) in _OPTIMIZER_RANGES[snr].items()}
        for i in range(per_regime):
            params = baseline_params(tx_power_dbm=draws["p_dbm"][i], beta_db=-draws["loss_db"][i],
                                     alpha_ris_ue=draws["a3"][i], serve_radius=draws["c"][i])
            rho = 1.0 if phase == "random" else draws["rho"][i]
            yield regime, draws["eta"][i], params, rho


class Analytic:
    """Analytic stack, no Monte-Carlo: spatial integral and closed forms over a
    grid, optimizer solves against the integer-grid oracle in all four regimes,
    a rate-loss sweep, and in-process optimize and rate-loss CLI calls.
    """

    name = "analytic"
    workers = 1
    host_sensitivity = 1.3
    spatial_points = 9
    per_regime = 20
    loss_n = tuple(int(n) for n in np.unique(np.round(np.geomspace(1, 1e4, 40))))
    loss_rhos = (0.25, 0.5, 0.6, 1.0)
    loss_sweep = "n_elements:1:1000:20:log"

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng([seed, 3])
        self.grid = list(_spatial_point(rng, self.spatial_points))
        self.instances = list(_optimizer_instances(rng, self.per_regime))
        self.loss_geometry = (float(rng.uniform(0.003, 0.05)), float(rng.uniform(3.0, 15.0)))
        self.cfg = _write_config(out_dir / f"{self.name}-{seed}.cfg", {
            "tx_power_dbm": float(rng.uniform(25.0, 40.0)),
            "alpha_ris_ue": float(rng.uniform(2.1, 3.9)),
            "serve_radius": float(rng.uniform(2.0, 12.0)),
            "element_budget": float(rng.uniform(1.0, 20.0)),
            "density": self.loss_geometry[0],
            "n_max": GRID_N_MAX,
        })

    def warm_up(self) -> None:
        _spatial_forms(Pass(), "warm-up", *self.grid[0][1:])
        for regime, eta, params, rho in self.instances[:: self.per_regime]:
            deployment.optimize_density(eta, params, rho, regime)
            deployment.grid_search_oracle(eta, params, rho, regime, 8)
        self._loss_sweep()
        _call_cli(["optimize", "--config", self.cfg])
        _call_cli(["rate-loss", "--config", self.cfg, "--sweep", "n_elements:1:10:2"])

    def _loss_sweep(self) -> str | None:
        """Loss curves; returns a description of the first violated property.

        The loss grows with N toward its saturation level for bounded errors.
        """
        lam, c = self.loss_geometry
        for rho in self.loss_rhos:
            losses = [rate_loss.rate_loss(n, rho, lam, c) for n in self.loss_n]
            regimes = [rate_loss.rate_loss_regime(n, rho, lam, c)[0] for n in self.loss_n]
            if min(losses) < 0 or any(b < a for a, b in zip(losses, losses[1:])):
                return f"loss not nonnegative and nondecreasing at rho={rho}"
            if rho < 1.0 and losses[-1] > rate_loss.rate_loss_asymptote(rho, lam, c):
                return f"loss above its asymptote at rho={rho}"
            if rho == 1.0 and set(regimes) != {"log_growth"}:
                return "random phases not classified log_growth"
        return None

    def run_pass(self, p: Pass) -> None:
        for point in self.grid:
            _spatial_forms(p, *point)
        for i, (regime, eta, params, rho) in enumerate(self.instances):
            label = f"#{i} {regime.snr}/{regime.phase} eta={eta:.3f} rho={rho:.3f}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                opt = p.op(f"optimize {label}", deployment.optimize_density,
                           eta, params, rho, regime)
                grid = p.op(f"grid {label}", deployment.grid_search_oracle,
                            eta, params, rho, regime, GRID_N_MAX)
            if opt is not None and grid is not None:
                p.expect(opt.objective >= grid.objective - OPT_SLACK, f"optimize {label}",
                         f"objective {opt.objective:.5f} < grid {grid.objective:.5f} - {OPT_SLACK}")
        problem = p.op("rate_loss sweep", self._loss_sweep)
        p.expect(problem is None, "rate_loss sweep", str(problem))
        p.cli("cli optimize", ["optimize", "--config", self.cfg], _optimize_rows)
        points = int(self.loss_sweep.split(":")[3])
        p.cli("cli rate-loss", ["rate-loss", "--config", self.cfg, "--sweep", self.loss_sweep],
              lambda text: 2 + points)


def _optimize_rows(text: str) -> int:
    # `optimize` prints three header lines, then N = 1..min(n_max, max(64, 4 n_star));
    # the analytic workload's config sets n_max = GRID_N_MAX.
    n_star = int(text.split("n_star=", 1)[1].split()[0])
    return 3 + min(GRID_N_MAX, max(64, 4 * n_star))


WORKLOADS = {cls.name: cls for cls in (FadingMc, SpatialMc, Analytic)}
