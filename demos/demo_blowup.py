"""The headline experiment in miniature: A_0 at a fixed interior point
grows like log(1/eps) while the transverse potentials and the spinor
modulus stay tame.

A short epsilon ladder (down to 10^-2.5, so the whole script takes a few
seconds) is enough to see the slope; the acceptance suite pushes the
same ladder to 10^-3.5.  The Gauss-law pairing at the end shows where
the log comes from: the charge integral against 1/sqrt(eps^2 + x^2).
"""

import numpy as np

from maxdirac1d.experiments import (
    SweepPlan,
    a0_lower_bound,
    check_claim1,
    check_claim2,
    check_claim3,
    gauss_divergence,
    run_sweep,
)

probe = (0.04, 0.0)  # (t, x), inside the light cone
plan = SweepPlan(
    dim=2,
    M=0.0,
    eps_list=(1e-1, 10**-1.5, 1e-2, 10**-2.5),
    T=0.05,
    h_over_eps=8.0,
    probes=(probe,),
)
print("running sweep:", ", ".join(f"{e:.3e}" for e in plan.eps_list))
results = run_sweep(plan)

fit = check_claim3(results, plan)
print()
print(f"A_0 at probe (t, x) = {probe}:")
print(f"{'eps':>10} {'measured':>10} {'closed form':>12}")
for j, eps in enumerate(fit["eps"]):
    bound = a0_lower_bound(probe[0], probe[1], eps)
    print(f"{eps:>10.3e} {fit['a0'][0][j]:>10.5f} {bound:>12.5f}")
print(f"fitted slope vs log(1/eps): {fit['slopes'][0]:.5f} "
      f"(required at least (x + t)/8 = {fit['slope_bounds'][0]:.5f})")
print(f"implied constant A_0 / |log eps| at the finest eps: {fit['implied_c']:.5f}")

print()
print("meanwhile, per eps:")
for v1, v2 in zip(check_claim1(results, plan), check_claim2(results, plan)):
    print(f"  eps = {v1['eps']:.3e}: sup |A_2| = {v1['sup']:.4f} (bound 1), "
          f"modulus floor ratio = {v2['min_ratio']:.4f} (needs {v2['floor_factor']:.4f})")

# the mechanism, reduced to a quadrature: pairing the regularized charge
# density against the Coulomb-type kernel diverges logarithmically
def bump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, np.cos(0.5 * np.pi * x) ** 2, 0.0)

div = gauss_divergence((1e-2, 1e-3, 1e-4), bump)
print()
print(f"gauss pairing log-slope: {div['slope']:.4f} (expected {div['expected_slope']:.1f} "
      "for a profile with phi(0) != 0)")
