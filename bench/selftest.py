"""Fast self-test of the benchmark harness.

Run from the repository root (about half a minute):

    python3 bench/selftest.py

It checks that
  1. a short run of each workload, untraced and traced, prints every metric
     BENCHMARK.json names, and the three printed-only end-to-end figures, each
     with its unit, and that no op fails;
  2. tracing does not perturb draws: estimates made with the tracer installed
     are bit-identical to those made without it, and uninstalling restores
     every wrapped name;
  3. the spatial_mc sampler gives the same value at workers=2 as at workers=1.

Exits 1, after listing them, if any check fails.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run  # first: pins the thread variables before numpy is imported

PRINTED_ONLY = {"failed_ratio": "failed/attempted", "mc_stderr_max": "bps/Hz",
                "closed_form_gap_max": "bps/Hz"}
SEED = 3

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics(spec: dict) -> None:
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(workloads.WORKLOADS), "BENCHMARK.json lists every workload")
    run.SETUP_PROBES = 1
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                                 "--trace", str(trace)])
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            tag = f"{name} --trace {trace}"
            check(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: exit 0 and a result line")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{tag}: {result['failed']} of {result['attempted']} ops failed")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{tag}: JSON metrics and units match BENCHMARK.json")
            printed = dict(wanted, **PRINTED_ONLY) if trace == 0 else wanted
            missing = [m for m, unit in printed.items()
                       if not any(line.split()[:1] == [m] and unit in line.split() for line in lines)]
            check(not missing, f"{tag}: every metric printed with its unit {missing or ''}")


def check_trace_identity() -> None:
    import tracer as tracing
    import workloads
    from risgeo import monte_carlo, spatial_rate, streams
    from risgeo.monte_carlo import McConfig

    fading = workloads.FadingMc(SEED, run.OUT)
    spatial = workloads.SpatialMc(SEED, run.OUT)
    mc = McConfig(trials=2 * 4096, master_seed=11)
    _, params, dep, rho, _ = spatial.grid[0]
    small = [dataclasses.replace(m, trials=4 * 4096) for m in spatial.mcs]
    cases = [
        lambda: monte_carlo.simulate_fixed_rate(fading.params, fading.geom, 16, 0.5, mc),
        lambda: monte_carlo.simulate_spatial_exact(fading.params, fading.exact_deps[0], 0.3, mc),
        lambda: monte_carlo.estimate_reflection_moments(16, 0.25, mc),
        lambda: monte_carlo.simulate_spatial_bound(params, dep, rho, small[0]),
        lambda: monte_carlo.simulate_spatial_bound(params, dep, rho, small[1]),
        lambda: spatial_rate.spatial_rate_integral(params, dep, rho),
    ]
    plain = [case() for case in cases]
    tracer = tracing.Tracer().install()
    try:
        traced = [case() for case in cases]
    finally:
        tracer.uninstall()
    check(tracer.counts["streams.rng_variates"] > 0 and tracer.counts["spatial_rate.integrand_evals"] > 0,
          "tracer saw the draws and the integrand calls")
    check(plain == traced, "traced and untraced estimates are bit-identical")
    check(monte_carlo.substream is streams.substream
          and not isinstance(spatial_rate.integrate, tracing._CountingIntegrate),
          "uninstall restores the wrapped names")


def check_workers() -> None:
    import workloads
    from risgeo import monte_carlo

    spatial = workloads.SpatialMc(SEED, run.OUT)
    same = True
    for _, params, dep, rho, _ in spatial.grid[:3]:
        for mc in spatial.mcs:
            one, two = (dataclasses.replace(mc, trials=8 * 4096, workers=w) for w in (1, 2))
            same &= (monte_carlo.simulate_spatial_bound(params, dep, rho, one)
                     == monte_carlo.simulate_spatial_bound(params, dep, rho, two))
    check(same, "spatial_mc estimates are identical at workers=1 and workers=2")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (run.SRC / "risgeo" / "__init__.py").is_file():
        print("selftest: package source not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    print("selftest: metrics and units")
    check_metrics(spec)
    print("selftest: tracing does not perturb draws")
    check_trace_identity()
    print("selftest: worker-count invariance")
    check_workers()
    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'all checks passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
