"""Spatially averaged rate over random reflector positions.

Reflectors are dropped as a Poisson process; the user talks to the nearest
one within the serving radius and falls back to the direct link otherwise.
Three routes to the same number are compared along a serving-radius sweep:

  * exact integral form (quadrature),
  * closed form (an upper bound on the integral at every SNR),
  * Monte-Carlo average of the per-position bounds.

The rate saturates once nearly every user has a reflector in range.

Run:  python demos/02_spatial_rate.py
"""

import risgeo as rg


def make_params(serve_radius):
    return rg.SystemParams.from_engineering(
        tx_power_dbm=20.0,
        noise_dbm=-80.0,
        beta_db=-30.0,
        alpha_direct=3.0,
        alpha_bs_ris=2.0,
        alpha_ris_ue=2.5,
        d_min=180.0,
        d_max=220.0,
        serve_radius=serve_radius,
    )


dep = rg.DeploymentParams(density=0.005, elements_per_ris=200)
mc = rg.McConfig(trials=300_000, master_seed=2)

print(f"{'C [m]':>6} {'P(served)':>10} {'integral':>9} {'closed':>9} {'mc_bound':>9}")
for c in (4.0, 8.0, 12.0, 16.0, 20.0):
    params = make_params(c)
    quad = rg.spatial_rate_integral(params, dep, rho=0.0)
    closed = rg.spatial_rate_closed_form(params, dep, rho=0.0)
    est = rg.simulate_spatial_bound(params, dep, 0.0, mc)
    print(
        f"{c:6.1f} {quad.assoc_probability:10.3f} {quad.total:9.3f} "
        f"{closed.total:9.3f} {est.value:9.3f}"
    )

# Component view at one operating point: the array-gain term dominates, the
# cascaded-link residual is a small correction for large arrays.
params = make_params(10.0)
br = rg.spatial_rate_integral(params, dep, rho=0.0)
print()
print("component breakdown at C=10:")
for name in ("baseline_term", "h_term", "g_bar_term", "direct_term", "total"):
    print(f"  {name:14s} {getattr(br, name):9.3f} bps/Hz")

# The exact-rate average (no bounding step) sits a little below the bound
# average; close enough that the bound is a faithful design proxy.
exact = rg.simulate_spatial_exact(params, dep, 0.0, mc)
bound = rg.simulate_spatial_bound(params, dep, 0.0, mc)
print()
print(f"mc exact {exact.value:.3f} vs mc bound {bound.value:.3f} (gap {bound.value - exact.value:.3f})")
