"""Command-line interface: figure-style CSV sweeps, optimization, validation.

Subcommands: rate-fixed, rate-spatial, optimize, rate-loss, validate.
Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numeric error.  All engineering-unit conversion happens at this boundary;
every CSV starts with a comment line echoing the resolved linear parameters.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import monte_carlo, rate_bounds, validation
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


def _with_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    values = dict(cfg.values)
    if axis == "n_elements":
        values["elements_per_ris"] = max(1, int(round(value)))
    elif axis == "rho":
        values["rho"] = float(value)
        values.pop("quant_bits", None)
    else:
        values[axis] = float(value)
    return RunConfig(values=values)


def _sweep(cfg: RunConfig, axes, columns, row) -> list[str]:
    """Figure-style CSV over `cfg.sweep`: the params echo, the header, then per
    sweep value the axis cell and `row(point_cfg)`, whose None is an empty cell."""
    axis = cfg.sweep.axis
    if axis not in axes:
        raise ConfigError(f"sweep axis must be one of {axes}, got {axis!r}")
    lines = [f"# params: {cfg.linear_echo()}", ",".join([axis, *columns])]
    for value in cfg.sweep.values():
        point = _with_axis(cfg, axis, value)
        cell = str(point["elements_per_ris"]) if axis == "n_elements" else _fmt(value)
        cells = ("" if x is None else _fmt(x) for x in row(point))
        lines.append(",".join([cell, *cells]))
    return lines


def _mc_config(cfg: RunConfig) -> monte_carlo.McConfig:
    return monte_carlo.McConfig(
        trials=cfg["trials"], master_seed=cfg["seed"], workers=cfg["workers"]
    )


def cmd_rate_fixed(cfg: RunConfig) -> list[str]:
    mc = _mc_config(cfg)

    def row(point: RunConfig):
        params, geom = point.system_params(), point.link_geometry()
        n, rho = point["elements_per_ris"], point.rho
        bound = rate_bounds.rate_bound_ris(params, geom, n, rho)
        est = monte_carlo.simulate_fixed_rate(params, geom, n, rho, mc)
        return bound.value, est.value, est.std_error

    columns = ("bound_bpshz", "mc_mean_bpshz", "mc_stderr_bpshz")
    return _sweep(cfg, _FIXED_AXES, columns, row)


def cmd_rate_spatial(cfg: RunConfig) -> list[str]:
    mc = _mc_config(cfg)

    def row(point: RunConfig):
        params, dep, rho = point.system_params(), point.deployment_params(), point.rho
        quad = spatial_rate_integral(params, dep, rho)
        closed = spatial_rate_closed_form(params, dep, rho)
        mc_bound = monte_carlo.simulate_spatial_bound(params, dep, rho, mc)
        mc_exact = monte_carlo.simulate_spatial_exact(params, dep, rho, mc)
        return (closed.total, quad.total, mc_bound.value, mc_bound.std_error,
                mc_exact.value, mc_exact.std_error)

    columns = ("closed_form_bpshz", "quadrature_bpshz", "mc_bound_bpshz", "mc_bound_stderr",
               "mc_exact_bpshz", "mc_exact_stderr")
    return _sweep(cfg, _SPATIAL_AXES, columns, row)


def cmd_optimize(cfg: RunConfig) -> list[str]:
    params = cfg.system_params()
    rho = cfg.rho
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
    from .deployment import deployment_objective

    n_max = min(cfg["n_max"], max(64, 4 * opt.n_star))
    values = deployment_objective(eta / np.arange(1, n_max + 1), eta, params, rho, regime)
    lines.extend(f"{n},{_fmt(value)}" for n, value in enumerate(values, start=1))
    return lines


def cmd_rate_loss(cfg: RunConfig) -> list[str]:
    rhos = cfg.rho_values()

    def row(point: RunConfig):
        n, lam, c = point["elements_per_ris"], point["density"], point["serve_radius"]
        losses = [rate_loss(n, rho, lam, c) for rho in rhos]
        # fully random phases (rho = 1) have no saturation level
        return losses + [None if rho == 1.0 else rate_loss_asymptote(rho, lam, c) for rho in rhos]

    columns = [f"{name}_rho{rho:g}" for name in ("loss", "asymptote") for rho in rhos]
    return _sweep(cfg, ("n_elements",), columns, row)


def cmd_validate(cfg: RunConfig) -> tuple[list[str], int]:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risgeo",
        description="Rate analysis and deployment optimization for reflector-assisted "
        "downlink networks with random reflector placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("rate-fixed", "fixed-geometry rate bound vs Monte-Carlo over a sweep"),
        ("rate-spatial", "spatially averaged rate: closed form, quadrature, Monte-Carlo"),
        ("optimize", "optimal density / array size under an element budget"),
        ("rate-loss", "phase-error rate loss and its saturation levels vs array size"),
        ("validate", "run the self-check suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help="master seed for all Monte-Carlo draws")
        p.add_argument("--trials", type=int, help="Monte-Carlo trials per estimate")
        p.add_argument("--out", help="write the CSV or report here instead of stdout")
        p.add_argument("--sweep", help="AXIS:MIN:MAX:POINTS[:log]")
        p.add_argument(
            "--regime",
            choices=("high", "low", "auto"),
            help="SNR regime of the optimize objective (optimize only)",
        )
        p.add_argument(
            "--dump-linear",
            action="store_true",
            help="print the resolved linear-unit parameters and exit",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "out": args.out,
        "sweep": args.sweep,
        "regime": args.regime,
    }
    if args.command == "validate" and args.trials is not None:
        overrides["validate_trials"] = args.trials
    try:
        cfg = resolve(args.config, overrides)
        if cfg.sweep is None and args.command in ("rate-fixed", "rate-spatial", "rate-loss"):
            raise ConfigError("missing required key 'sweep'")
        if args.dump_linear:
            print(cfg.linear_echo())
            return 0
        if args.command == "validate":
            lines, code = cmd_validate(cfg)
        else:
            command = {
                "rate-fixed": cmd_rate_fixed,
                "rate-spatial": cmd_rate_spatial,
                "optimize": cmd_optimize,
                "rate-loss": cmd_rate_loss,
            }[args.command]
            lines, code = command(cfg), 0
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
