"""Per-layer tracing of the risgeo package from outside it.

The tracer wraps the module-level names that each layer's callers look up
(``monte_carlo.substream``, ``spatial_rate.exp_integral_ei``,
``deployment.deployment_objective``, the public entry points, ...) and restores
them afterwards.  Nothing inside the package changes, and the wrappers only
observe: they return the wrapped function's own result, so traced and untraced
runs draw exactly the same numbers.

A span records name, start, end, parent span and thread id.  Spans are kept in
memory; a layer's self time is its spans' durations minus the part of each
interval that its child spans cover.  Work fanned out to worker threads has no
open span on its own thread, so its parent is the innermost open span of the
thread that installed the tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from risgeo import cli, deployment, monte_carlo, rate_bounds, spatial_rate
from risgeo.errors import NumericError, RegimeWarning
from risgeo.monte_carlo import McConfig

rate_loss = importlib.import_module("risgeo.rate_loss")

#: Generator methods the benchmarked code draws with.
_DRAW_METHODS = ("standard_normal", "random", "uniform", "poisson", "standard_exponential")

#: Branch names `optimize_density` can return; one per-layer count each.
BRANCHES = ("bounded_closed_form", "random_closed_form", "monotone_boundary",
            "bisection", "boundary_eta")

NAME, START, END, PARENT, THREAD, ERROR = range(6)

#: Unit of every per-layer metric the traced run reports.
UNITS = {
    "streams.substreams": "count",
    "streams.substream_s": "s",
    "streams.rng_variates": "count",
    "streams.rng_draw_s": "s",
    "streams.rng_bytes": "B",
    "phase_error.samples": "count",
    "phase_error.sample_s": "s",
    "monte_carlo.estimates": "count",
    "monte_carlo.busy_s": "s",
    "monte_carlo.self_s": "s",
    "monte_carlo.trials_per_s": "1/s",
    "monte_carlo.cpu_per_wall": "s/s",
    "rate_bounds.calls": "count",
    "rate_bounds.busy_s": "s",
    "special_math.ei_calls": "count",
    "special_math.ei_s": "s",
    "special_math.gammainc_calls": "count",
    "special_math.gammainc_s": "s",
    "spatial_rate.evals": "count",
    "spatial_rate.busy_s": "s",
    "spatial_rate.quad_calls": "count",
    "spatial_rate.quad_s": "s",
    "spatial_rate.integrand_evals": "count",
    "spatial_rate.quad_err_max": "bps/Hz",
    "spatial_rate.numeric_errors": "count",
    "deployment.solves": "count",
    "deployment.solve_s": "s",
    "deployment.objective_evals": "count",
    "deployment.objective_evals_per_solve": "count",
    "deployment.grid_s": "s",
    **{"deployment.branch." + branch: "count" for branch in BRANCHES},
    "deployment.regime_warnings": "count",
    "rate_loss.calls": "count",
    "rate_loss.busy_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller_stack: list[int] = []
        self._caller = threading.get_ident()
        self._patches: list[tuple] = []

    # --- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._caller:
            return self._caller_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._caller_stack[-1] if self._caller_stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident(), None])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.spans[index][ERROR] = type(exc).__name__
            raise
        finally:
            stack.pop()
            self.spans[index][END] = time.perf_counter()

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    # --- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a spanned call; `after(args, result)` may count."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for attr in ("simulate_fixed_rate", "simulate_spatial_bound",
                     "simulate_spatial_exact", "estimate_reflection_moments"):
            self._patch(monte_carlo, attr, self._mc_entry(getattr(monte_carlo, attr)))
        self._patch(monte_carlo, "substream", self._substream(monte_carlo.substream))
        self.wrap(monte_carlo, "sample_phase_errors", "phase_error.sample",
                  lambda args, out: self.count("phase_error.samples", np.size(out)))
        for attr in ("rate_bound_ris", "rate_bound_direct", "rate_asymptotic"):
            self.wrap(rate_bounds, attr, "rate_bounds." + attr)
        for owner in (spatial_rate, deployment):
            self.wrap(owner, "exp_integral_ei", "special_math.ei")
            self.wrap(owner, "lower_incomplete_gamma", "special_math.gammainc")
        self._patch(spatial_rate, "integrate", _CountingIntegrate(spatial_rate.integrate, self))
        for owner in (spatial_rate, cli):
            for attr in ("spatial_rate_integral", "spatial_rate_high_snr", "spatial_rate_low_snr"):
                self.wrap(owner, attr, "spatial_rate." + attr)
        self.wrap(deployment, "deployment_objective", "deployment.objective")
        for owner in (deployment, cli):
            self.wrap(owner, "optimize_density", "deployment.optimize",
                      lambda args, opt: self.count("deployment.branch." + opt.branch))
        self.wrap(deployment, "grid_search_oracle", "deployment.grid")
        self._patch(deployment, "warnings", _CountingWarnings(self))
        for attr in ("rate_loss", "rate_loss_asymptote", "rate_loss_regime"):
            self.wrap(rate_loss, attr, "rate_loss." + attr)
        for attr in ("rate_loss", "rate_loss_asymptote"):
            self.wrap(cli, attr, "rate_loss." + attr)
        self.wrap(cli, "main", "cli.main")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _mc_entry(self, original):
        name = "monte_carlo." + original.__name__

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cpu = time.process_time()
            try:
                return self.call(name, original, *args, **kwargs)
            finally:
                self.count("monte_carlo.cpu_s", time.process_time() - cpu)
                mc = next(a for a in (*args, *kwargs.values()) if isinstance(a, McConfig))
                self.count("monte_carlo.trials", mc.trials)

        return wrapper

    def _substream(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return _CountingGenerator(self.call("streams.substream", original, *args, **kwargs), self)

        return wrapper

    # --- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, thread, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread, "error": error}) + "\n")


class _CountingGenerator:
    """Stands in for a numpy Generator; each draw is a span, and its variates
    and their bytes (computed from the returned arrays) are counted."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, attr):
        method = getattr(self._generator, attr)
        if attr not in _DRAW_METHODS:
            return method
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = tracer.call("streams.rng_draw", method, *args, **kwargs)
            tracer.count("streams.rng_variates", np.size(out))
            tracer.count("streams.rng_bytes", np.asarray(out).nbytes)
            return out

        return draw


class _CountingIntegrate:
    """Stands in for `scipy.integrate` inside spatial_rate: spans each quad or
    dblquad call, counts integrand calls and keeps the largest error estimate."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def _integrate(self, routine, func, *args, **kwargs):
        calls = 0

        def counted(*x):
            nonlocal calls
            calls += 1
            return func(*x)

        try:
            value, error = self._tracer.call("spatial_rate.quad", routine, counted, *args, **kwargs)
        finally:
            self._tracer.count("spatial_rate.integrand_evals", calls)
        self._tracer.maximum("spatial_rate.quad_err_max", error)
        return value, error

    def quad(self, func, *args, **kwargs):
        return self._integrate(self._module.quad, func, *args, **kwargs)

    def dblquad(self, func, *args, **kwargs):
        return self._integrate(self._module.dblquad, func, *args, **kwargs)


class _CountingWarnings:
    """Stands in for the `warnings` module inside deployment; counts RegimeWarnings."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(warnings, attr)

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is RegimeWarning:
            self._tracer.count("deployment.regime_warnings")
        warnings.warn(message, category, stacklevel + 1, **kwargs)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and the self time of each span name."""
    spans = tracer.spans
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    for i, span in enumerate(spans):
        kind = span[NAME]
        dur = span[END] - span[START]
        calls[kind] += 1
        busy[kind] += dur
        kids = [(spans[k][START], spans[k][END]) for k in children[i]]
        self_s[kind] += dur - _covered(kids, span[START], span[END])

    def outer(prefix):
        # spans of these names not nested in another of them (rate_loss_regime
        # calls rate_loss, for one), so each caller-visible call counts once
        return [s for s in spans if s[NAME].startswith(prefix)
                and (s[PARENT] is None or not spans[s[PARENT]][NAME].startswith(prefix))]

    def total(prefix):
        return sum(s[END] - s[START] for s in outer(prefix))

    def n(prefix):
        return len(outer(prefix))

    def under_solve(i):
        parent = spans[i][PARENT]
        while parent is not None:
            if spans[parent][NAME] == "deployment.optimize":
                return True
            parent = spans[parent][PARENT]
        return False

    c = tracer.counts
    mc_busy = total("monte_carlo.")
    solves = calls["deployment.optimize"]
    objective_in_solves = sum(
        1 for i, span in enumerate(spans) if span[NAME] == "deployment.objective" and under_solve(i)
    )
    out = {
        "streams.substreams": calls["streams.substream"],
        "streams.substream_s": busy["streams.substream"],
        "streams.rng_variates": c["streams.rng_variates"],
        "streams.rng_draw_s": busy["streams.rng_draw"],
        "streams.rng_bytes": c["streams.rng_bytes"],
        "phase_error.samples": c["phase_error.samples"],
        "phase_error.sample_s": busy["phase_error.sample"],
        "monte_carlo.estimates": n("monte_carlo."),
        "monte_carlo.busy_s": mc_busy,
        "monte_carlo.self_s": sum(v for k, v in self_s.items() if k.startswith("monte_carlo.")),
        "monte_carlo.trials_per_s": c["monte_carlo.trials"] / mc_busy if mc_busy else 0.0,
        "monte_carlo.cpu_per_wall": c["monte_carlo.cpu_s"] / mc_busy if mc_busy else 0.0,
        "rate_bounds.calls": n("rate_bounds."),
        "rate_bounds.busy_s": total("rate_bounds."),
        "special_math.ei_calls": calls["special_math.ei"],
        "special_math.ei_s": busy["special_math.ei"],
        "special_math.gammainc_calls": calls["special_math.gammainc"],
        "special_math.gammainc_s": busy["special_math.gammainc"],
        "spatial_rate.evals": n("spatial_rate.spatial_rate_"),
        "spatial_rate.busy_s": total("spatial_rate.spatial_rate_"),
        "spatial_rate.quad_calls": calls["spatial_rate.quad"],
        "spatial_rate.quad_s": busy["spatial_rate.quad"],
        "spatial_rate.integrand_evals": c["spatial_rate.integrand_evals"],
        "spatial_rate.quad_err_max": tracer.maxima["spatial_rate.quad_err_max"],
        "spatial_rate.numeric_errors": sum(
            1 for s in spans
            if s[NAME].startswith("spatial_rate.spatial_rate_") and s[ERROR] == NumericError.__name__
        ),
        "deployment.solves": solves,
        "deployment.solve_s": busy["deployment.optimize"],
        "deployment.objective_evals": objective_in_solves,
        "deployment.objective_evals_per_solve": objective_in_solves / solves if solves else 0.0,
        "deployment.grid_s": busy["deployment.grid"],
        "deployment.regime_warnings": c["deployment.regime_warnings"],
        "rate_loss.calls": n("rate_loss."),
        "rate_loss.busy_s": total("rate_loss."),
        "cli.calls": calls["cli.main"],
        "cli.self_s": self_s["cli.main"],
        "trace.spans": len(spans),
    }
    for branch in BRANCHES:
        out["deployment.branch." + branch] = c["deployment.branch." + branch]
    return out, dict(self_s)

