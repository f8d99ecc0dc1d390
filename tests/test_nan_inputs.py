"""Every public entry point rejects a NaN argument with DomainError, and
every integer input (an element, sample or trial count, a seed, a grid size)
a non-integer, negative or bool one.

An ordered comparison with NaN is False, so a check written as `x <= 0`
would let NaN through and build a wrong object or return NaN; the checks
are written as `not x > 0` instead.  A float count would reach numpy and
raise TypeError there, and a negative seed would alias a large key.  A bool is an int to Python
(`operator.index(True)` is 1), so it is rejected by type.  An element count
enters every formula as a float, so one too large to convert is rejected too.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from risgeo.deployment import (
    DeploymentOptimum,
    OptimizerRegime,
    deployment_objective,
    grid_search_oracle,
    objective_slope,
)
from risgeo.errors import DomainError
from risgeo.monte_carlo import (
    McConfig,
    estimate_reflection_moments,
    hppp_window_radius,
    sample_hppp_nearest,
    sample_nearest_distance,
    simulate_fixed_rate,
)
from risgeo.params import (
    DeploymentParams,
    LinkGeometry,
    RateEstimate,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
)
from risgeo.phase_error import error_difference_pdf, sample_phase_errors
from risgeo.rate_bounds import rate_bound_ris
from risgeo.rate_loss import rate_loss, rate_loss_regime
from risgeo.spatial_rate import (
    annulus_distance_moment,
    array_gain_term,
    association_probability,
    cascade_residual_term,
    nearest_ris_pdf,
    noise_residual_term,
)
from risgeo.special_math import exp_integral_ei, lower_incomplete_gamma, power_integral
from risgeo.streams import substream

NAN = math.nan
#: An integer element count that no float can hold.
HUGE = 10**400

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
GEOM = LinkGeometry(d=200.0, l=200.0, r=10.0)
HIGH_BOUNDED = OptimizerRegime(snr="high", phase="bounded")
MC = McConfig(trials=16, workers=1)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
def test_system_params(field):
    with pytest.raises(DomainError):
        dataclasses.replace(PARAMS, **{field: NAN})


# an infinite parameter would pass a positivity check and come back as a
# NaN or infinite rate (d_max = inf, density = inf, tx_power = inf)
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
def test_system_params_infinite(field):
    with pytest.raises(DomainError):
        dataclasses.replace(PARAMS, **{field: math.inf})


@pytest.mark.parametrize("field", ["density", "elements_per_ris"])
def test_deployment_params(field):
    dep = DeploymentParams(density=0.01, elements_per_ris=64)
    with pytest.raises(DomainError):
        dataclasses.replace(dep, **{field: NAN})


@pytest.mark.parametrize("field", ["density", "elements_per_ris"])
def test_deployment_params_infinite(field):
    dep = DeploymentParams(density=0.01, elements_per_ris=64)
    with pytest.raises(DomainError):
        dataclasses.replace(dep, **{field: math.inf})


@pytest.mark.parametrize("field", ["lambda_star", "n_star"])
def test_deployment_optimum(field):
    opt = DeploymentOptimum(lambda_star=0.2, n_star=50, objective=1.0, branch="grid", d_constant=0.0)
    with pytest.raises(DomainError):
        dataclasses.replace(opt, **{field: NAN})


@pytest.mark.parametrize("field", ["d", "l", "r"])
def test_link_geometry(field):
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    with pytest.raises(DomainError):
        dataclasses.replace(geom, **{field: NAN})


@pytest.mark.parametrize("field", ["d", "l", "r"])
def test_link_geometry_infinite(field):
    geom = LinkGeometry(d=200.0, l=200.0, r=10.0)
    with pytest.raises(DomainError):
        dataclasses.replace(geom, **{field: math.inf})


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
        pytest.param(lambda: rate_loss(math.inf, 0.5, 0.01, 10.0), id="rate_loss-n-inf"),
        pytest.param(lambda: rate_loss(True, 0.5, 0.01, 10.0), id="rate_loss-n-bool"),
        pytest.param(lambda: rate_loss(2.5, 0.5, 0.01, 10.0), id="rate_loss-n-fraction"),
        pytest.param(lambda: rate_loss_regime(NAN, 0.5, 0.01, 10.0), id="rate_loss_regime-n"),
        pytest.param(lambda: rate_loss_regime(math.inf, 0.5, 0.01, 10.0), id="rate_loss_regime-n-inf"),
        pytest.param(lambda: rate_loss_regime(True, 0.5, 0.01, 10.0), id="rate_loss_regime-n-bool"),
        pytest.param(lambda: rate_loss_regime(2.5, 0.5, 0.01, 10.0), id="rate_loss_regime-n-fraction"),
        pytest.param(lambda: rate_bound_ris(PARAMS, GEOM, NAN, 0.5), id="rate_bound_ris-n"),
        pytest.param(lambda: rate_bound_ris(PARAMS, GEOM, math.inf, 0.5), id="rate_bound_ris-n-inf"),
        pytest.param(lambda: rate_bound_ris(PARAMS, GEOM, True, 0.5), id="rate_bound_ris-n-bool"),
        pytest.param(lambda: rate_bound_ris(PARAMS, GEOM, 2.5, 0.5), id="rate_bound_ris-n-fraction"),
        pytest.param(lambda: nearest_ris_pdf(NAN, 1.0), id="nearest_ris_pdf-lam"),
        pytest.param(lambda: nearest_ris_pdf(0.01, NAN), id="nearest_ris_pdf-r"),
        pytest.param(lambda: annulus_distance_moment(NAN, 180.0, 220.0), id="annulus_distance_moment-p"),
        pytest.param(lambda: power_integral(NAN, 1.0, 2.0), id="power_integral-p"),
        pytest.param(lambda: power_integral(2.0, NAN, 2.0), id="power_integral-a"),
        pytest.param(lambda: power_integral(2.0, 1.0, NAN), id="power_integral-b"),
        pytest.param(lambda: array_gain_term(NAN, 0.5, 0.01, 10.0), id="array_gain_term-n"),
        pytest.param(
            lambda: array_gain_term(np.array([64.0, NAN]), 0.5, 0.01, 10.0),
            id="array_gain_term-n-array",
        ),
        pytest.param(lambda: cascade_residual_term(NAN, 0.5, 0.01, PARAMS), id="cascade_residual_term-n"),
        pytest.param(lambda: noise_residual_term(NAN, 0.5, 0.01, PARAMS), id="noise_residual_term-n"),
        pytest.param(lambda: array_gain_term(math.inf, 0.5, 0.01, 10.0), id="array_gain_term-n-inf"),
        pytest.param(
            lambda: array_gain_term(np.array([64.0, math.inf]), 0.5, 0.01, 10.0),
            id="array_gain_term-n-inf-array",
        ),
        pytest.param(
            lambda: cascade_residual_term(math.inf, 0.5, 0.01, PARAMS), id="cascade_residual_term-n-inf"
        ),
        pytest.param(lambda: noise_residual_term(math.inf, 0.5, 0.01, PARAMS), id="noise_residual_term-n-inf"),
        pytest.param(
            lambda: noise_residual_term(np.array([64.0, math.inf]), 0.5, 0.01, PARAMS),
            id="noise_residual_term-n-inf-array",
        ),
        pytest.param(lambda: array_gain_term(HUGE, 0.5, 0.01, 10.0), id="array_gain_term-n-huge"),
        pytest.param(lambda: cascade_residual_term(HUGE, 0.5, 0.01, PARAMS), id="cascade_residual_term-n-huge"),
        pytest.param(lambda: noise_residual_term(HUGE, 0.5, 0.01, PARAMS), id="noise_residual_term-n-huge"),
        pytest.param(lambda: error_difference_pdf(0.5, NAN), id="error_difference_pdf-z"),
        pytest.param(lambda: objective_slope(NAN, 10.0, PARAMS, 0.5, HIGH_BOUNDED), id="objective_slope-lam"),
        pytest.param(lambda: objective_slope(0.01, NAN, PARAMS, 0.5, HIGH_BOUNDED), id="objective_slope-eta"),
        pytest.param(
            lambda: grid_search_oracle(10.0, PARAMS, 0.5, HIGH_BOUNDED, NAN), id="grid_search_oracle-n_max"
        ),
        pytest.param(
            lambda: grid_search_oracle(10.0, PARAMS, 0.5, HIGH_BOUNDED, 2.5),
            id="grid_search_oracle-n_max-fraction",
        ),
        pytest.param(
            lambda: DeploymentOptimum(lambda_star=0.2, n_star=2.5, objective=1.0, branch="grid", d_constant=0.0),
            id="DeploymentOptimum-n_star-fraction",
        ),
        pytest.param(lambda: McConfig(trials=NAN), id="McConfig-trials"),
        pytest.param(lambda: McConfig(trials=2.5), id="McConfig-trials-fraction"),
        pytest.param(lambda: McConfig(trials=16, master_seed=NAN), id="McConfig-master_seed"),
        pytest.param(lambda: McConfig(trials=16, master_seed=2.5), id="McConfig-master_seed-fraction"),
        pytest.param(lambda: McConfig(trials=16, master_seed=-1), id="McConfig-master_seed-negative"),
        pytest.param(lambda: McConfig(trials=16, workers=2.5), id="McConfig-workers-fraction"),
        pytest.param(lambda: McConfig(trials=True), id="McConfig-trials-bool"),
        pytest.param(lambda: McConfig(trials=True, master_seed=False), id="McConfig-master_seed-bool"),
        pytest.param(lambda: McConfig(trials=16, workers=True), id="McConfig-workers-bool"),
        pytest.param(lambda: DeploymentParams(0.01, True), id="DeploymentParams-elements_per_ris-bool"),
        pytest.param(lambda: substream(0, True), id="substream-index-bool"),
        pytest.param(
            lambda: sample_phase_errors(0.5, True, substream(0, 0)), id="sample_phase_errors-count-bool"
        ),
        pytest.param(lambda: substream(NAN, 0), id="substream-master_seed"),
        pytest.param(lambda: sample_nearest_distance(0.01, substream(0, 0), NAN), id="sample_nearest_distance-size"),
        pytest.param(lambda: estimate_reflection_moments(NAN, 0.5, MC), id="estimate_reflection_moments-n"),
        pytest.param(
            lambda: estimate_reflection_moments(2.5, 0.5, MC), id="estimate_reflection_moments-n-fraction"
        ),
        pytest.param(
            lambda: simulate_fixed_rate(PARAMS, GEOM, 2.5, 0.5, MC), id="simulate_fixed_rate-n_elements-fraction"
        ),
        pytest.param(lambda: DeploymentParams(0.01, 2.5), id="DeploymentParams-elements_per_ris-fraction"),
        pytest.param(lambda: DeploymentParams(0.005, HUGE), id="DeploymentParams-elements_per_ris-huge"),
        pytest.param(lambda: rate_loss(HUGE, 0.5, 0.01, 10.0), id="rate_loss-n-huge"),
        pytest.param(lambda: rate_loss_regime(HUGE, 0.5, 0.01, 10.0), id="rate_loss_regime-n-huge"),
        pytest.param(lambda: rate_bound_ris(PARAMS, GEOM, HUGE, 0.5), id="rate_bound_ris-n-huge"),
        pytest.param(lambda: simulate_fixed_rate(PARAMS, GEOM, HUGE, 0.5, MC), id="simulate_fixed_rate-n-huge"),
        pytest.param(
            lambda: estimate_reflection_moments(HUGE, 0.5, MC), id="estimate_reflection_moments-n-huge"
        ),
        pytest.param(lambda: dbm_to_watts(NAN), id="dbm_to_watts"),
        pytest.param(lambda: db_to_linear(NAN), id="db_to_linear"),
        pytest.param(lambda: sample_phase_errors(0.5, NAN, substream(0, 0)), id="sample_phase_errors-count"),
        pytest.param(
            lambda: sample_phase_errors(0.5, 2.5, substream(0, 0)), id="sample_phase_errors-count-fraction"
        ),
        pytest.param(
            lambda: simulate_fixed_rate(PARAMS, GEOM, NAN, 0.5, MC),
            id="simulate_fixed_rate-n_elements",
        ),
    ],
)
def test_function(call):
    with pytest.raises(DomainError):
        call()


def test_largest_float_element_count_accepted():
    # the bound is the float range itself: the largest integer that converts
    # to a finite float is an element count, the next power of ten is not
    largest = int(sys.float_info.max)
    assert DeploymentParams(0.005, largest).elements_per_ris == largest
    assert DeploymentParams(0.005, np.int64(2**62)).elements_per_ris == 2**62
    with pytest.raises(DomainError, match="converts to a finite float"):
        DeploymentParams(0.005, largest * 10)


# The value checks of the analytic hot path read a float (np.float64 included)
# with one comparison and anything else with one reduction; every form of a
# value outside the domain must still raise, NaN and the domain's edges included.
VALUE_FORMS = [
    pytest.param(float, id="float"),
    pytest.param(np.float64, id="float64"),
    pytest.param(np.array, id="0d-array"),
    pytest.param(lambda v: np.array([1.0, v]), id="array"),
]


def _negated(value):
    """-value in value's own form: unary minus turns a 0-d array into np.float64."""
    return np.array(-value) if isinstance(value, np.ndarray) else -value


@pytest.mark.parametrize("form", VALUE_FORMS)
@pytest.mark.parametrize(
    "check, bad",
    [
        pytest.param(lambda x: lower_incomplete_gamma(1.5, x), (NAN, -1.0, -1e-300), id="lower_incomplete_gamma"),
        # negated in its own form, so the array form's filler 1.0 becomes the
        # in-domain -1.0 and a 0-d array stays a 0-d array
        pytest.param(lambda x: exp_integral_ei(_negated(x)), (NAN, 0.0, -0.0, -1e-300), id="exp_integral_ei"),
        pytest.param(lambda lam: association_probability(lam, 10.0), (NAN, -1.0, 0.0), id="association_probability"),
        pytest.param(
            lambda lam: deployment_objective(lam, 10.0, PARAMS, 0.5, HIGH_BOUNDED),
            (NAN, -1.0, 0.0, 10.5),
            id="deployment_objective",
        ),
    ],
)
def test_value_checks_reject_every_form(check, bad, form):
    for value in bad:
        with pytest.raises(DomainError):
            check(form(value))


@pytest.mark.parametrize("form", VALUE_FORMS)
def test_value_checks_accept_domain_edges(form):
    def last(value):
        return np.ravel(value)[-1]

    assert last(lower_incomplete_gamma(1.5, form(0.0))) == 0.0
    assert math.isfinite(last(exp_integral_ei(_negated(form(1e-300)))))
    assert last(association_probability(form(1e-300), 10.0)) >= 0.0
    assert math.isfinite(last(deployment_objective(form(10.0), 10.0, PARAMS, 0.5, HIGH_BOUNDED)))
