"""Benchmark of the risgeo Monte-Carlo and analytic stacks.

Run from the repository root:

    python3 bench/run.py --workload fading_mc --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): fading_mc, spatial_mc, analytic.  Each is one
closed-loop caller in this process that repeats a fixed pass of ops for
`--seconds` seconds and checks every op against an oracle.  Set-up is timed
separately, in fresh interpreters.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (per pass, median over passes) plus the tracing
overhead; the spans of the last traced pass go to .bench_out/spans-<workload>.jsonl.

Times are in reference seconds.  The host's speed drifts by up to about 1.5x
over seconds to minutes when other tenants load its cores, and every
statistic of raw wall time inherits that drift.  So a fixed calibration kernel
that runs no package code is timed between ops, at most every CAL_INTERVAL_S,
and before and after each set-up probe.  Each op's latency is scaled by
(CAL_REF_S / kernel time interpolated to the op's midpoint) ** s, where s is
the workload's host sensitivity (see workloads.py); set-up uses s = 1.  A
change in the package's own speed passes through unchanged.  Raw figures and
the speed factors are printed too.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# Only the package's own `workers` threads may run: pin every BLAS / OpenMP
# pool to one thread before numpy is first imported, here and in the set-up
# probes, which inherit this environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
#: op_tail_ms is the latency with this many ops beyond it.
TAIL_OPS = 10
#: Calibration kernel time, in seconds, at reference speed (the 2-vCPU Xeon
#: host this benchmark was written on, when its cores are not contended).
CAL_REF_S = 0.0035
CAL_REPEATS = 2
#: Around a set-up probe, which lasts about a second, a longer sample is cheap.
SETUP_CAL_REPEATS = 8
#: Longest gap between two host-speed samples during a pass.
CAL_INTERVAL_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class PassRecord:
    wall: float  # raw seconds
    ref_wall: float  # reference seconds
    ref_latencies: list  # reference seconds, one per op
    result: object  # workloads.Pass
    layer: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """Reference seconds per raw second over the pass."""
        return self.ref_wall / self.wall


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in this fresh interpreter, print the ready time, exit")
    return parser.parse_args(argv)


def calibrate(repeats: int = CAL_REPEATS) -> float:
    """Best-of-`repeats` seconds of a fixed Python-loop plus numpy kernel."""
    import numpy as np

    def kernel():
        start = time.perf_counter()
        total = 0.0
        for i in range(20_000):
            total += math.sqrt(i)
        a = np.random.Generator(np.random.Philox(key=7)).standard_normal((512, 64))
        (np.abs(a) * np.exp(1j * a)).sum(axis=1)
        return time.perf_counter() - start

    return min(kernel() for _ in range(repeats))


class SpeedClock:
    """Host speed (reference seconds per raw second) sampled over time, for work
    that slows by the kernel's slowdown to the power `sensitivity`."""

    def __init__(self, sensitivity: float = 1.0):
        self.sensitivity = sensitivity
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0  # raw seconds spent calibrating

    def sample(self, force: bool = True, repeats: int = CAL_REPEATS) -> None:
        start = time.perf_counter()
        if not force and self.times and start - self.times[-1] < CAL_INTERVAL_S:
            return
        kernel = calibrate(repeats)
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.speeds.append((CAL_REF_S / kernel) ** self.sensitivity)
        self.spent += end - start

    def between_ops(self) -> None:
        self.sample(force=False)

    def at(self, t: float) -> float:
        import numpy as np

        return float(np.interp(t, self.times, self.speeds))


def prepare(name: str, seed: int):
    """Import the CLI and the workload's layers, build its inputs (resolving its
    CLI config) and warm every layer it uses."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT)
    workload.warm_up()
    return workload


def probe_setup(name: str, seed: int) -> float:
    """Raw seconds from starting a fresh interpreter until `prepare` has returned in it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    start = time.monotonic()  # CLOCK_MONOTONIC: comparable across processes
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=PROBE_TIMEOUT_S, check=False)
    lines = child.stdout.split()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed ({child.returncode}): {child.stderr.strip()}")
    return float(lines[-1]) - start


def timed_setups(name: str, seed: int) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of SETUP_PROBES fresh-interpreter set-ups."""
    clock = SpeedClock()
    clock.sample(repeats=SETUP_CAL_REPEATS)
    out = []
    for _ in range(SETUP_PROBES):
        raw = probe_setup(name, seed)
        clock.sample(repeats=SETUP_CAL_REPEATS)
        out.append((raw, 0.5 * (clock.speeds[-2] + clock.speeds[-1])))
    return out


def measure(workload, seconds: float, trace: bool):
    """Repeat the workload's pass for `seconds`; with `trace`, every other pass is traced.

    Returns (untraced passes, traced passes, tracer of the last traced pass).
    """
    import tracer as tracing
    import workloads

    plain, traced, last = [], [], None
    clock = SpeedClock(workload.host_sensitivity)
    clock.sample()
    deadline = time.perf_counter() + seconds
    while True:
        p = workloads.Pass(between=clock.between_ops)
        tracer = tracing.Tracer().install() if trace and len(traced) < len(plain) else None
        try:
            spent, start = clock.spent, time.perf_counter()
            workload.run_pass(p)
            end = time.perf_counter()
            wall = end - start - (clock.spent - spent)
        finally:
            if tracer is not None:
                tracer.uninstall()
        clock.sample()
        ref = [lat * clock.at(t + 0.5 * lat) for t, lat in zip(p.starts, p.latencies)]
        # time outside ops (checks, loop overhead) at the pass's mean speed
        outside = wall - sum(p.latencies)
        ref_wall = sum(ref) + outside * clock.at(0.5 * (start + end))
        record = PassRecord(wall, ref_wall, ref, p)
        if tracer is None:
            plain.append(record)
        else:
            record.layer, record.self_s = tracing.layer_metrics(tracer)
            traced.append(record)
            last = tracer
        if time.perf_counter() >= deadline and (traced or not trace):
            return plain, traced, last


def end_to_end(setups, plain):
    """End-to-end metrics in reference units, and a note on each."""
    latencies = sorted(lat for r in plain for lat in r.ref_latencies)
    n = len(latencies)
    tail = latencies[-TAIL_OPS - 1] if n > TAIL_OPS else latencies[-1]
    metrics = {
        "setup_s": median(raw * speed for raw, speed in setups),
        "wall_s": median(r.ref_wall for r in plain),
        "op_p50_ms": 1e3 * median(latencies),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                   + ", ".join(f"{raw:.3f}" for raw, _ in setups),
        "wall_s": f"median of {len(plain)} passes; raw median {median(r.wall for r in plain):.4f}",
        "op_p50_ms": f"median of {n} ops",
        "op_tail_ms": f"p{100.0 * (1.0 - TAIL_OPS / n):.1f}: "
                      f"{min(TAIL_OPS, n - 1)} of {n} ops beyond it",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def machine_info() -> dict:
    """nproc, CPU model, cache sizes, interpreter and library versions, thread pins."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
    }


def layer_report(traced, untraced_wall: float) -> dict:
    """Per-layer metrics per traced pass (median over passes), in reference units."""
    import tracer as tracing

    per_pass = []
    for r in traced:
        m = dict(r.layer, **{"cli.csv_bytes": r.result.csv_bytes,
                             "trace.overhead_s": r.ref_wall - untraced_wall})
        for name, unit in tracing.UNITS.items():
            if unit == "s" and name != "trace.overhead_s":
                m[name] *= r.speed
            elif unit == "1/s":
                m[name] /= r.speed
        per_pass.append(m)
    return {name: median(m[name] for m in per_pass) for name in tracing.UNITS}


def report(args, workload, setups, plain, traced, last_tracer) -> dict:
    import tracer as tracing

    passes = plain + traced
    attempted = sum(r.result.attempted for r in passes)
    failed = sum(len(r.result.failed) for r in passes)
    failures = {}
    for r in passes:
        failures.update(r.result.failed)
    speeds = [r.speed for r in passes] + [speed for _, speed in setups]

    print(f"# risgeo benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} workers={workload.workers} "
          f"ops/pass={plain[0].result.attempted} passes={len(plain)} untraced + "
          f"{len(traced)} traced")
    print(f"# {' '.join(workload.__doc__.split())}")
    print(f"# machine: {json.dumps(machine_info())}")
    print(f"# host speed: reference s per raw s, min {min(speeds):.3f} "
          f"median {median(speeds):.3f} max {max(speeds):.3f}")
    metrics, notes = end_to_end(setups, plain)
    print("# end-to-end metrics, tracing off (times in reference units):")
    for name, value in metrics.items():
        print(f"  {name:22s} {value:14.6g} {END_TO_END_UNITS[name]:10s} {notes[name]}")
    print(f"  {'failed_ratio':22s} {failed / attempted:14.6g} {'failed/attempted':10s} "
          f"{failed} of {attempted} ops")
    stderr_max = max(r.result.stderr_max for r in passes)
    gap_max = max(r.result.gap_max for r in passes)
    print(f"  {'mc_stderr_max':22s} {stderr_max:14.6g} {'bps/Hz':10s} "
          + ("largest MC rate std error" if stderr_max else "no MC rate estimates in this workload"))
    print(f"  {'closed_form_gap_max':22s} {gap_max:14.6g} {'bps/Hz':10s} "
          + ("largest |closed form - quadrature|" if gap_max
             else "no closed form and quadrature at one point in this workload"))
    for label, reason in sorted(failures.items()):
        print(f"  FAILED op {label}: {reason}")

    units = END_TO_END_UNITS
    if args.trace:
        metrics, units = layer_report(traced, metrics["wall_s"]), tracing.UNITS
        print(f"# per-layer metrics, per traced pass (median of {len(traced)}):")
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")
        print("# self time per traced pass, by span (reference s):")
        names = {k for r in traced for k in r.self_s}
        self_s = {k: median(r.self_s.get(k, 0.0) * r.speed for r in traced) for k in names}
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {value:14.6g} s")
        last_tracer.write(OUT / f"spans-{workload.name}.jsonl")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "risgeo" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args.workload, args.seed)
        print(time.monotonic(), flush=True)
        return 0
    setups = timed_setups(args.workload, args.seed)
    workload = prepare(args.workload, args.seed)
    plain, traced, last_tracer = measure(workload, args.seconds, bool(args.trace))
    result = report(args, workload, setups, plain, traced, last_tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
