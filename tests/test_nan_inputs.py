"""Every public entry point rejects a NaN argument with DomainError.

An ordered comparison with NaN is False, so a check written as `x <= 0`
would let NaN through and build a wrong object or return NaN; the checks
are written as `not x > 0` instead.
"""

import dataclasses
import math

import numpy as np
import pytest

from risgeo.errors import DomainError
from risgeo.monte_carlo import hppp_window_radius, sample_hppp_nearest, sample_nearest_distance
from risgeo.params import DeploymentParams, LinkGeometry, RateEstimate, SystemParams
from risgeo.rate_loss import rate_loss
from risgeo.spatial_rate import association_probability
from risgeo.special_math import exp_integral_ei, lower_incomplete_gamma
from risgeo.streams import substream

NAN = math.nan

PARAMS = SystemParams(
    tx_power=0.01,
    noise_power=1e-11,
    beta_ref=1e-3,
    alpha_direct=3.0,
    alpha_bs_ris=2.0,
    alpha_ris_ue=2.5,
    d_min=180.0,
    d_max=220.0,
    serve_radius=10.0,
)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
def test_system_params(field):
    with pytest.raises(DomainError):
        dataclasses.replace(PARAMS, **{field: NAN})


@pytest.mark.parametrize("field", ["density", "elements_per_ris"])
def test_deployment_params(field):
    dep = DeploymentParams(density=0.01, elements_per_ris=64)
    with pytest.raises(DomainError):
        dataclasses.replace(dep, **{field: NAN})


@pytest.mark.parametrize("field", ["d", "l", "r"])
def test_link_geometry(field):
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    with pytest.raises(DomainError):
        dataclasses.replace(geom, **{field: NAN})


@pytest.mark.parametrize("field", ["value", "std_error"])
def test_rate_estimate(field):
    est = RateEstimate(value=1.0, method="monte_carlo", std_error=0.01)
    with pytest.raises(DomainError):
        dataclasses.replace(est, **{field: NAN})


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: hppp_window_radius(NAN, 10.0), id="hppp_window_radius-lam"),
        pytest.param(lambda: hppp_window_radius(0.01, NAN), id="hppp_window_radius-radius"),
        pytest.param(lambda: sample_nearest_distance(NAN, substream(0, 0), 4), id="sample_nearest_distance"),
        pytest.param(lambda: sample_hppp_nearest(NAN, 1.0, substream(0, 0)), id="sample_hppp_nearest"),
        pytest.param(lambda: PARAMS.beta_direct(NAN), id="beta_direct"),
        pytest.param(lambda: PARAMS.beta_bs_ris(NAN), id="beta_bs_ris"),
        pytest.param(lambda: PARAMS.beta_ris_ue(NAN), id="beta_ris_ue"),
        pytest.param(lambda: association_probability(NAN, 10.0), id="association_probability-lam"),
        pytest.param(
            lambda: association_probability(np.array([0.01, NAN]), 10.0),
            id="association_probability-lam-array",
        ),
        pytest.param(lambda: association_probability(0.01, NAN), id="association_probability-radius"),
        pytest.param(lambda: exp_integral_ei(NAN), id="exp_integral_ei"),
        pytest.param(lambda: exp_integral_ei(np.array([-1.0, NAN])), id="exp_integral_ei-array"),
        pytest.param(lambda: lower_incomplete_gamma(NAN, 1.0), id="lower_incomplete_gamma-a"),
        pytest.param(lambda: lower_incomplete_gamma(1.5, NAN), id="lower_incomplete_gamma-x"),
        pytest.param(
            lambda: lower_incomplete_gamma(1.5, np.array([0.5, NAN])),
            id="lower_incomplete_gamma-x-array",
        ),
        pytest.param(lambda: rate_loss(NAN, 0.5, 0.01, 10.0), id="rate_loss-n"),
        pytest.param(lambda: rate_loss(64, NAN, 0.01, 10.0), id="rate_loss-rho"),
        pytest.param(lambda: rate_loss(64, 0.5, NAN, 10.0), id="rate_loss-lam"),
        pytest.param(lambda: rate_loss(64, 0.5, 0.01, NAN), id="rate_loss-radius"),
    ],
)
def test_function(call):
    with pytest.raises(DomainError):
        call()
