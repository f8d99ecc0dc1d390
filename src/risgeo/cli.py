"""Command-line interface: figure-style CSV sweeps, optimization, validation.

Subcommands: rate-fixed, rate-spatial, optimize, rate-loss, validate; the
table `_COMMANDS` gives each its handler and the config keys its flags set.
Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numeric error.  All engineering-unit conversion happens at this boundary;
every CSV starts with a comment line echoing the resolved linear parameters.
The argument parser is built once per process and shared by every `main`
call, so an in-process call pays only for its own work.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

import numpy as np

from . import deployment, monte_carlo, rate_bounds
from .rate_loss import rate_loss, rate_loss_asymptote
from .config import ConfigError, RunConfig, resolve
from .deployment import OptimizerRegime, optimize_density
from .errors import DomainError, NumericError
from .spatial_rate import spatial_rate_closed_form, spatial_rate_integral

# Former names of the closed form; bench/tracer.py wraps them on this module.
from .spatial_rate import spatial_rate_high_snr, spatial_rate_low_snr  # noqa: F401

_FIXED_AXES = ("n_elements", "tx_power_dbm", "rho", "r", "d")
_SPATIAL_AXES = ("serve_radius", "density", "tx_power_dbm", "n_elements", "rho")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _emit(lines: list[str], out_path: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sweep(cfg: RunConfig, axes, columns, row) -> list[str]:
    """Figure-style CSV over `cfg.sweep`: the params echo, the header, then per
    sweep point the axis cell and `row(point_cfg)`, whose None is an empty cell."""
    axis = cfg.sweep.axis
    points = cfg.points(axes)
    lines = [f"# params: {cfg.linear_echo()}", ",".join([axis, *columns])]
    for point in points:
        cell = str(point["elements_per_ris"]) if axis == "n_elements" else _fmt(point[axis])
        cells = ("" if x is None else "%.12g" % x for x in row(point))
        lines.append(",".join([cell, *cells]))
    return lines


def _mc_config(cfg: RunConfig) -> monte_carlo.McConfig:
    return monte_carlo.McConfig(
        trials=cfg["trials"], master_seed=cfg["seed"], workers=cfg["workers"]
    )


def cmd_rate_fixed(cfg: RunConfig) -> tuple[list[str], int]:
    mc = _mc_config(cfg)

    def row(point: RunConfig):
        params, geom = point.system_params(), point.link_geometry()
        n, rho = point["elements_per_ris"], point["rho"]
        bound = rate_bounds.rate_bound_ris(params, geom, n, rho)
        est = monte_carlo.simulate_fixed_rate(params, geom, n, rho, mc)
        return bound.value, est.value, est.std_error

    columns = ("bound_bpshz", "mc_mean_bpshz", "mc_stderr_bpshz")
    return _sweep(cfg, _FIXED_AXES, columns, row), 0


def cmd_rate_spatial(cfg: RunConfig) -> tuple[list[str], int]:
    mc = _mc_config(cfg)

    def row(point: RunConfig):
        params, dep, rho = point.system_params(), point.deployment_params(), point["rho"]
        quad = spatial_rate_integral(params, dep, rho)
        closed = spatial_rate_closed_form(params, dep, rho)
        mc_bound = monte_carlo.simulate_spatial_bound(params, dep, rho, mc)
        mc_exact = monte_carlo.simulate_spatial_exact(params, dep, rho, mc)
        return (closed.total, quad.total, mc_bound.value, mc_bound.std_error,
                mc_exact.value, mc_exact.std_error)

    columns = ("closed_form_bpshz", "quadrature_bpshz", "mc_bound_bpshz", "mc_bound_stderr",
               "mc_exact_bpshz", "mc_exact_stderr")
    return _sweep(cfg, _SPATIAL_AXES, columns, row), 0


def cmd_optimize(cfg: RunConfig) -> tuple[list[str], int]:
    params = cfg.system_params()
    rho = cfg["rho"]
    snr_regime = cfg["regime"]
    if snr_regime == "auto":
        edge_snr = params.snr_gain * params.beta_direct(params.d_max)
        snr_regime = "high" if edge_snr >= 1.0 else "low"
    regime = OptimizerRegime.for_conditions(snr_regime, rho)
    eta = cfg["element_budget"]
    opt = optimize_density(eta, params, rho, regime)
    lines = [
        f"# params: {cfg.linear_echo()}",
        f"# optimum: lambda_star={_fmt(opt.lambda_star)} n_star={opt.n_star} "
        f"branch={opt.branch} objective={_fmt(opt.objective)} "
        f"d_constant={_fmt(opt.d_constant)} regime={snr_regime}",
        "n_elements,objective_bpshz",
    ]
    n_max = min(cfg["n_max"], max(64, 4 * opt.n_star))
    lams = eta / np.arange(1, n_max + 1)
    values = deployment.deployment_objective(lams, eta, params, rho, regime)
    lines.extend("%d,%.12g" % row for row in enumerate(values.tolist(), start=1))
    return lines, 0


def cmd_rate_loss(cfg: RunConfig) -> tuple[list[str], int]:
    rhos = cfg["rho_list"]

    def row(point: RunConfig):
        n, lam, c = point["elements_per_ris"], point["density"], point["serve_radius"]
        losses = [rate_loss(n, rho, lam, c) for rho in rhos]
        # fully random phases (rho = 1) have no saturation level
        return losses + [None if rho == 1.0 else rate_loss_asymptote(rho, lam, c) for rho in rhos]

    columns = [f"{name}_rho{rho:g}" for name in ("loss", "asymptote") for rho in rhos]
    return _sweep(cfg, ("n_elements",), columns, row), 0


def cmd_validate(cfg: RunConfig) -> tuple[list[str], int]:
    # validation's oracles load scipy.integrate; no other subcommand needs it
    from . import validation

    results = validation.run_all(cfg["validate_trials"], cfg["seed"])
    lines = []
    hard_fail = flake = 0
    for res in results:
        if res.ok:
            status = "PASS"
        elif res.statistical:
            status = "FAIL(statistical)"
            flake += 1
        else:
            status = "FAIL"
            hard_fail += 1
        lines.append(f"{status:18s} {res.check_id:32s} {res.detail}")
    lines.append(
        f"# summary: {len(results)} checks, {hard_fail} hard failures, "
        f"{flake} statistical failures"
    )
    return lines, 1 if (hard_fail or flake) else 0


#: config key -> (flag, metavar, help) of every key a subcommand's flags can set
_KEY_FLAGS = {
    "seed": ("--seed", "N", "master seed for all Monte-Carlo draws"),
    "trials": ("--trials", "N", "Monte-Carlo trials per estimate"),
    "validate_trials": ("--trials", "N", "Monte-Carlo trials per row, capped by its criterion"),
    "sweep": ("--sweep", "AXIS:MIN:MAX:POINTS[:log]", "the sweep axis and its points"),
    "regime": ("--regime", "{high,low,auto}", "SNR regime of the objective"),
    "out": ("--out", "PATH", "write the CSV or report here instead of stdout"),
}

#: subcommand -> (handler, help, the config keys its flags set); each handler
#: returns its output lines and exit code.  Every subcommand also takes
#: --config and --dump-linear.
_COMMANDS = {
    "rate-fixed": (cmd_rate_fixed, "fixed-geometry rate bound vs Monte-Carlo over a sweep",
                   ("seed", "trials", "sweep", "out")),
    "rate-spatial": (cmd_rate_spatial,
                     "spatially averaged rate: closed form, quadrature, Monte-Carlo",
                     ("seed", "trials", "sweep", "out")),
    "optimize": (cmd_optimize, "optimal density / array size under an element budget",
                 ("regime", "out")),
    "rate-loss": (cmd_rate_loss, "phase-error rate loss and its saturation levels vs array size",
                  ("sweep", "out")),
    "validate": (cmd_validate, "run the self-check suite", ("seed", "validate_trials", "out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's shared parser, built on the first call; every `main` call
    parses against it, so callers must not change it.  Parsing leaves it as it
    was: each call reads its flags into a new namespace.  Flag values stay text
    here; `config.resolve` parses and checks each one."""
    parser = argparse.ArgumentParser(
        prog="risgeo",
        description="Rate analysis and deployment optimization for reflector-assisted "
        "downlink networks with random reflector placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", metavar="PATH", help="flat key = value configuration file")
        for key in keys:
            flag, metavar, flaghelp = _KEY_FLAGS[key]
            p.add_argument(flag, dest=key, metavar=metavar, help=flaghelp)
        p.add_argument(
            "--dump-linear",
            action="store_true",
            help="print the resolved linear-unit parameters and exit",
        )
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # the chosen subcommand's usage lists the flags it does take
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    command, _, keys = _COMMANDS[args.command]
    try:
        cfg = resolve(args.config, {key: getattr(args, key) for key in keys})
        if "sweep" in keys and cfg.sweep is None:
            raise ConfigError("missing required key 'sweep'")
        if args.dump_linear:
            print(cfg.linear_echo())
            return 0
        lines, code = command(cfg)
        _emit(lines, cfg.get("out"))
        return code
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
