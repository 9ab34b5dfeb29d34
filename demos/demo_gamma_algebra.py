"""Print the u-v coupling that the transport kernels apply, per dimension.

The reduced transport equations

    (dt + dx) u = i(A_0 + A_1) u + C v,   (dt - dx) v = i(A_0 - A_1) v + D u

couple u and v through `coupling(dim, A, M)`: the maps C and D on node rows,
and k2.  On a sample row of the marched potentials, (A_0, A_1) in dim 1 and
(A_0, A_1, A_T) in dims 2 and 3, the script prints what C and D multiply a
row by, and checks numerically that D = -C^dagger (the coupling is
anti-hermitian, which conserves the charge) and that DC = -k2.
"""

import numpy as np

from maxdirac1d import coupling

M = 1.0
x = np.linspace(-0.8, 0.8, 5)
rng = np.random.default_rng(0)
w = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)  # a sample half-spinor row
rows = [np.cos(x), 0.5 * x, np.sin(np.pi * x)]  # A_0, A_1, A_T

for dim in (1, 2, 3):
    C, D, k2 = coupling(dim, rows[: 2 if dim == 1 else 3], M)
    c, d = C(np.ones(x.size)), D(np.ones(x.size))
    print(f"d = {dim}: C multiplies by {np.round(c, 3)}")
    print(f"       D multiplies by {np.round(d, 3)}")
    print(f"       sup |D + C^dagger| = {np.abs(d + np.conj(c)).max():.1e}, "
          f"sup |DCw + k2 w| = {np.abs(D(C(w)) + k2 * w).max():.1e}")
