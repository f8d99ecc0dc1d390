"""The benchmark tracer wraps package names by attribute; a rename must fail here."""

import sys
import warnings
from pathlib import Path

import pytest

from risgeo import deployment, monte_carlo, spatial_rate
from risgeo.deployment import OptimizerRegime
from risgeo.errors import RegimeWarning
from risgeo.monte_carlo import McConfig
from risgeo.params import DeploymentParams, SystemParams

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    return tracer


def test_install_finds_and_uninstall_restores_every_name(tracer):
    t = tracer.Tracer()
    try:
        t.install()
        patched = list(t._patches)
    finally:
        t.uninstall()
    assert t._patches == []
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    names = {(owner, attr) for owner, attr, _ in patched}
    for owner, attr in (
        (deployment, "exp_integral_ei"),
        (deployment, "lower_incomplete_gamma"),
        (spatial_rate, "exp_integral_ei"),
        (spatial_rate, "lower_incomplete_gamma"),
        (deployment, "deployment_objective"),
    ):
        assert (owner, attr) in names


def test_objective_spans_nest_under_solve_and_count_every_call(tracer, monkeypatch):
    # the optimizer must reach the objective through the module global, inside
    # its own span, for objective_evals_per_solve to count its work
    calls = []
    exact = deployment.deployment_objective

    def counted(*args):
        calls.append(args[0])
        return exact(*args)

    monkeypatch.setattr(deployment, "deployment_objective", counted)
    params = SystemParams.from_engineering(
        tx_power_dbm=30.0, noise_dbm=-80.0, beta_db=-30.0, alpha_direct=3.0,
        alpha_bs_ris=2.0, alpha_ris_ue=3.0, d_min=180.0, d_max=220.0, serve_radius=6.0,
    )
    t = tracer.Tracer()
    try:
        t.install()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            opt = deployment.optimize_density(10.0, params, 0.25, OptimizerRegime("high", "bounded"))
    finally:
        t.uninstall()
    assert opt.branch == "bisection"
    spans = t.spans
    objective = [s for s in spans if s[tracer.NAME] == "deployment.objective"]
    assert all(spans[s[tracer.PARENT]][tracer.NAME] == "deployment.optimize" for s in objective)
    assert len(objective) == len(calls)
    metrics, _ = tracer.layer_metrics(t)
    assert metrics["deployment.solves"] == 1
    assert metrics["deployment.objective_evals_per_solve"] == len(calls)


def test_full_scatter_draws_are_all_counted(tracer):
    # a full-scatter spatial trial draws three uniforms (annulus, window count,
    # nearest of the count), all through the chunk's generator
    params = SystemParams.from_engineering(
        tx_power_dbm=20.0, noise_dbm=-80.0, beta_db=-30.0, alpha_direct=3.0,
        alpha_bs_ris=2.0, alpha_ris_ue=2.5, d_min=180.0, d_max=220.0, serve_radius=10.0,
    )
    trials = 2 * 4096 + 5
    mc = McConfig(trials=trials, master_seed=1, window_policy="full_hppp", workers=1)
    t = tracer.Tracer()
    try:
        t.install()
        monte_carlo.simulate_spatial_bound(params, DeploymentParams(0.005, 32), 0.5, mc)
    finally:
        t.uninstall()
    metrics, _ = tracer.layer_metrics(t)
    assert metrics["streams.substreams"] == 3
    assert metrics["streams.rng_variates"] == 3 * trials
    assert metrics["streams.rng_bytes"] == 24 * trials
