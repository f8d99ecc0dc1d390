"""Rate cost of imperfect phase shifts as the array grows.

For a bounded error range the loss saturates at a constant set only by the
attenuation factor; fully random phases keep losing one association-weighted
bit per array doubling.  A 1-bit quantizer tops out near 1.3 bps/Hz.

Run:  python demos/04_phase_error_rate_loss.py
"""

import risgeo as rg

LAM, C = 0.05, 10.0

print(f"{'N':>6}", end="")
for rho in (0.25, 0.5, 0.6, 1.0):
    print(f"  rho={rho:<5}", end="")
print()
for n in (10, 40, 120, 160, 640, 10_000):
    print(f"{n:6d}", end="")
    for rho in (0.25, 0.5, 0.6, 1.0):
        print(f"  {rg.rate_loss(n, rho, LAM, C):8.3f}", end="")
    print()

print("\nsaturation levels (large-array limits):")
for rho in (0.25, 0.5, 0.6):
    level = rg.rate_loss_asymptote(rho, LAM, C)
    label, _ = rg.rate_loss_regime(10_000, rho, LAM, C)
    print(f"  rho={rho}: {level:.3f} bps/Hz ({label} by N=1e4)")

# Quantizer view: each extra bit halves the error range and shrinks the
# asymptotic loss fast; 3 bits already cost under 0.1 bps/Hz.
print("\nquantizer resolution vs asymptotic loss:")
for bits in (1, 2, 3, 4):
    rho = 2.0 ** -bits
    print(f"  {bits} bit: rho={rho:<7g} loss -> {rg.rate_loss_asymptote(rho, LAM, C):.4f} bps/Hz")
