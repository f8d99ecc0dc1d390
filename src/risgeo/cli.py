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
from .spatial_rate import (
    spatial_rate_high_snr,
    spatial_rate_integral,
    spatial_rate_low_snr,
)

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


def _element_count(value: float) -> int:
    return max(1, int(round(value)))


def _with_axis(cfg: RunConfig, axis: str, value: float) -> dict:
    values = dict(cfg.values)
    if axis == "n_elements":
        values["elements_per_ris"] = _element_count(value)
    elif axis == "rho":
        values["rho"] = float(value)
        values.pop("quant_bits", None)
    else:
        key = {"density": "density", "serve_radius": "serve_radius"}.get(axis, axis)
        values[key] = float(value)
    return values


def _axis_echo(axis: str, value: float):
    if axis == "n_elements":
        return _element_count(value)
    return value


def cmd_rate_fixed(cfg: RunConfig) -> list[str]:
    axis = cfg.sweep.axis
    if axis not in _FIXED_AXES:
        raise ConfigError(f"rate-fixed sweep axis must be one of {_FIXED_AXES}, got {axis!r}")
    lines = [f"# params: {cfg.linear_echo()}", f"{axis},bound_bpshz,mc_mean_bpshz,mc_stderr_bpshz"]
    for value in cfg.sweep.values():
        sub = RunConfig(values=_with_axis(cfg, axis, value))
        params = sub.system_params()
        geom = sub.link_geometry()
        n = sub["elements_per_ris"]
        rho = sub.rho
        bound = rate_bounds.rate_bound_ris(params, geom, n, rho)
        mc = monte_carlo.McConfig(
            trials=sub["trials"], master_seed=sub["seed"], workers=sub["workers"]
        )
        est = monte_carlo.simulate_fixed_rate(params, geom, n, rho, mc)
        lines.append(
            ",".join(
                [
                    _fmt(_axis_echo(axis, value)),
                    _fmt(bound.value),
                    _fmt(est.value),
                    _fmt(est.std_error),
                ]
            )
        )
    return lines


def _closed_form_branch(cfg: RunConfig, params, dep, rho):
    regime = cfg["regime"]
    if regime == "auto":
        edge_snr = params.snr_gain * params.beta_direct(params.d_max)
        if edge_snr >= 10.0:
            regime = "high"
        elif edge_snr <= 0.1:
            regime = "low"
        else:
            regime = "integral"
    if regime == "high":
        return spatial_rate_high_snr(params, dep, rho)
    if regime == "low":
        return spatial_rate_low_snr(params, dep, rho)
    return None  # integral: caller reuses the quadrature value


def cmd_rate_spatial(cfg: RunConfig) -> list[str]:
    axis = cfg.sweep.axis
    if axis not in _SPATIAL_AXES:
        raise ConfigError(f"rate-spatial sweep axis must be one of {_SPATIAL_AXES}, got {axis!r}")
    lines = [
        f"# params: {cfg.linear_echo()}",
        f"{axis},closed_form_bpshz,quadrature_bpshz,mc_bound_bpshz,mc_bound_stderr,"
        "mc_exact_bpshz,mc_exact_stderr",
    ]
    for value in cfg.sweep.values():
        sub = RunConfig(values=_with_axis(cfg, axis, value))
        params = sub.system_params()
        dep = sub.deployment_params()
        rho = sub.rho
        quad = spatial_rate_integral(params, dep, rho)
        closed = _closed_form_branch(sub, params, dep, rho)
        closed_value = closed.total if closed is not None else quad.total
        mc = monte_carlo.McConfig(
            trials=sub["trials"], master_seed=sub["seed"], workers=sub["workers"]
        )
        mc_bound = monte_carlo.simulate_spatial_bound(params, dep, rho, mc)
        mc_exact = monte_carlo.simulate_spatial_exact(params, dep, rho, mc)
        lines.append(
            ",".join(
                [
                    _fmt(_axis_echo(axis, value)),
                    _fmt(closed_value),
                    _fmt(quad.total),
                    _fmt(mc_bound.value),
                    _fmt(mc_bound.std_error),
                    _fmt(mc_exact.value),
                    _fmt(mc_exact.std_error),
                ]
            )
        )
    return lines


def cmd_optimize(cfg: RunConfig) -> list[str]:
    params = cfg.system_params()
    rho = cfg.rho
    snr_regime = cfg["regime"]
    if snr_regime == "auto":
        edge_snr = params.snr_gain * params.beta_direct(params.d_max)
        snr_regime = "high" if edge_snr >= 1.0 else "low"
    if snr_regime == "integral":
        raise ConfigError("optimize requires regime high, low, or auto")
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
    axis = cfg.sweep.axis
    if axis != "n_elements":
        raise ConfigError("rate-loss sweeps over n_elements only")
    rhos = cfg.rho_values()
    header = ["n_elements"]
    for rho in rhos:
        header.append(f"loss_rho{rho:g}")
    for rho in rhos:
        header.append(f"asymptote_rho{rho:g}")
    lines = [f"# params: {cfg.linear_echo()}", ",".join(header)]
    lam = cfg["density"]
    c = cfg["serve_radius"]
    for value in cfg.sweep.values():
        n = _element_count(value)
        row = [str(n)]
        for rho in rhos:
            row.append(_fmt(rate_loss(n, rho, lam, c)))
        for rho in rhos:
            if rho == 1.0:
                row.append("")  # no saturation level for fully random phases
            else:
                row.append(_fmt(rate_loss_asymptote(rho, lam, c)))
        lines.append(",".join(row))
    return lines


def cmd_validate(cfg: RunConfig) -> int:
    results = validation.run_all(cfg["validate_trials"], cfg["seed"])
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
        print(f"{status:18s} {res.check_id:32s} {res.detail}")
    print(
        f"# summary: {len(results)} checks, {hard_fail} hard failures, "
        f"{flake} statistical failures"
    )
    return 1 if (hard_fail or flake) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risgeo",
        description="Rate analysis and deployment optimization for reflector-assisted "
        "downlink networks with random reflector placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("rate-fixed", "fixed-geometry rate bound vs Monte-Carlo over a sweep"),
        ("rate-spatial", "spatially averaged rate: closed forms, quadrature, Monte-Carlo"),
        ("optimize", "optimal density / array size under an element budget"),
        ("rate-loss", "phase-error rate loss and its saturation levels vs array size"),
        ("validate", "run the self-check suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help="master seed for all Monte-Carlo draws")
        p.add_argument("--trials", type=int, help="Monte-Carlo trials per estimate")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.add_argument("--sweep", help="AXIS:MIN:MAX:POINTS[:log]")
        p.add_argument(
            "--regime", choices=("high", "low", "auto", "integral"), help="closed-form branch"
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
    needs_sweep = args.command in ("rate-fixed", "rate-spatial", "rate-loss")
    try:
        cfg = resolve(args.config, overrides, require=("sweep",) if needs_sweep else ())
        if needs_sweep and cfg.sweep is None:
            raise ConfigError("missing required key 'sweep'")
        if args.dump_linear:
            print(cfg.linear_echo())
            return 0
        if args.command == "validate":
            return cmd_validate(cfg)
        command = {
            "rate-fixed": cmd_rate_fixed,
            "rate-spatial": cmd_rate_spatial,
            "optimize": cmd_optimize,
            "rate-loss": cmd_rate_loss,
        }[args.command]
        _emit(command(cfg), cfg.get("out"))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
