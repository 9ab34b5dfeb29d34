"""Norms of the concentrating datum chi(x) f_eps(x) as eps shrinks.

The point of the family: the L^1 and H^-1/2 norms of the profile stay
bounded, the L^2 norm grows like sqrt(log(1/eps)), and the total charge
int |chi f_eps|^2 grows like log(1/eps).  That last growth is what feeds
the logarithmic blow-up of A_0, while the bounded norms keep the data
inside the charge class.  Midpoint samples dodge the node at x = 0, so
the table can include very small eps.
"""

import numpy as np

from maxdirac1d.initial_data import GridSpec, chi, f_eps, hs_norm, lp_norm, sample_midpoints

grid = GridSpec(L=2.56, n=16384, t_max=0.16)
eps_list = [10.0**k for k in (-1, -1.5, -2, -2.5, -3, -3.5, -4)]

print(f"grid: h = {grid.h}, n = {grid.n}")
print(f"{'eps':>10} {'L1':>10} {'L2':>10} {'H^-1/2':>10} {'charge':>10}")
samples = {}
for eps in eps_list:
    vals = sample_midpoints(lambda x: chi(x) * f_eps(x, eps), grid)
    samples[eps] = vals
    l1 = lp_norm(vals, 1, grid)
    l2 = lp_norm(vals, 2, grid)
    hm = hs_norm(vals, -0.5, grid)
    charge = lp_norm(vals**2, 1, grid)
    print(f"{eps:>10.2e} {l1:>10.4f} {l2:>10.4f} {hm:>10.4f} {charge:>10.4f}")

charges = [lp_norm(samples[e] ** 2, 1, grid) for e in eps_list]
logs = [np.log(1.0 / e) for e in eps_list]
slope = np.polyfit(logs, charges, 1)[0]
print()
print(f"charge vs log(1/eps): fitted slope {slope:.4f} (log growth, not bounded)")

# differences between consecutive family members shrink in H^-1/2 even
# though their L2 distance does not: the family is Cauchy only in the
# weaker topology
print()
print("family differences (eps vs next smaller):")
for hi, lo in zip(eps_list[:4], eps_list[1:5]):
    d = samples[lo] - samples[hi]
    print(f"  {hi:.2e} -> {lo:.2e}: |d|_L2 = {lp_norm(d, 2, grid):.4f}, "
          f"|d|_H^-1/2 = {hs_norm(d, -0.5, grid):.4f}")
