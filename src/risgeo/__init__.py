"""Rate analysis for downlink networks aided by randomly placed reflecting surfaces.

Closed-form ergodic-rate bounds under uniform phase errors, their spatial
averages over a Poisson field of reflectors, deployment optimization under a
per-area element budget, and a seeded Monte-Carlo oracle validating all of it.
"""

from .deployment import (
    DeploymentOptimum,
    OptimizerRegime,
    deployment_objective,
    grid_search_oracle,
    objective_offset,
    objective_slope,
    optimize_density,
)
from .errors import DomainError, NumericError, RegimeWarning
from .monte_carlo import (
    McConfig,
    ReflectionMoments,
    estimate_reflection_moments,
    hppp_window_radius,
    sample_hppp_nearest,
    sample_nearest_distance,
    simulate_fixed_rate,
    simulate_spatial_bound,
    simulate_spatial_exact,
)
from .params import (
    DeploymentParams,
    LinkGeometry,
    RateEstimate,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
)
from .phase_error import (
    attenuation_factor,
    error_difference_pdf,
    expected_cos_diff,
    sample_phase_errors,
)
from .rate_bounds import (
    compensation,
    rate_asymptotic,
    rate_bound_direct,
    rate_bound_ris,
)
from .rate_loss import rate_loss, rate_loss_asymptote, rate_loss_regime
from .spatial_rate import (
    SpatialRateBreakdown,
    annulus_distance_moment,
    array_gain_term,
    association_probability,
    cascade_residual_term,
    expected_log2_d,
    expected_log2_r_truncated,
    nearest_ris_pdf,
    noise_residual_term,
    spatial_rate_closed_form,
    spatial_rate_integral,
)
from .special_math import (
    exp_integral_ei,
    lower_incomplete_gamma,
    power_integral,
)
from .streams import substream

__version__ = "0.1.0"

__all__ = [
    "DeploymentOptimum",
    "DeploymentParams",
    "DomainError",
    "LinkGeometry",
    "McConfig",
    "NumericError",
    "OptimizerRegime",
    "RateEstimate",
    "ReflectionMoments",
    "RegimeWarning",
    "SpatialRateBreakdown",
    "SystemParams",
    "annulus_distance_moment",
    "array_gain_term",
    "association_probability",
    "attenuation_factor",
    "cascade_residual_term",
    "compensation",
    "db_to_linear",
    "dbm_to_watts",
    "deployment_objective",
    "error_difference_pdf",
    "estimate_reflection_moments",
    "exp_integral_ei",
    "expected_cos_diff",
    "expected_log2_d",
    "expected_log2_r_truncated",
    "grid_search_oracle",
    "hppp_window_radius",
    "lower_incomplete_gamma",
    "nearest_ris_pdf",
    "noise_residual_term",
    "objective_offset",
    "objective_slope",
    "optimize_density",
    "power_integral",
    "rate_asymptotic",
    "rate_bound_direct",
    "rate_bound_ris",
    "rate_loss",
    "rate_loss_asymptote",
    "rate_loss_regime",
    "sample_hppp_nearest",
    "sample_nearest_distance",
    "sample_phase_errors",
    "simulate_fixed_rate",
    "simulate_spatial_bound",
    "simulate_spatial_exact",
    "spatial_rate_closed_form",
    "spatial_rate_integral",
    "substream",
]
