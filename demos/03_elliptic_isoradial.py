"""Elliptic weights on isoradial grids and the near-critical regime.

Conductances sc(theta|k) and elliptic masses m^2(.|k) make the Laplacian
Z-invariant; the discrete massive exponential is an explicit positive
massive harmonic family.  With the nome tied to the mesh, q = M delta / 2,
masses scale like delta^2 and the drifted conductances acquire a drift of
strength M in direction u.
"""

import math

import numpy as np

from massiveforests.elliptic import (
    complete_integrals,
    mass_value,
    near_critical_modulus,
    verify_near_critical_asymptotics,
)
from massiveforests.doob import check_massive_harmonic
from massiveforests.isoradial import (
    build_square_grid,
    drift_field_and_conductances,
    z_invariant_weights,
)

mod = complete_integrals(0.6)
print(f"k = 0.6: K = {mod.K:.12f}, E = {mod.E:.12f}, nome q = {mod.q:.6f}")
legendre = mod.E * mod.Kprime + mod.Eprime * mod.K - mod.K * mod.Kprime
print(f"Legendre combination - pi/2 = {legendre - math.pi / 2:.2e}")
print(f"squared mass of a square-lattice vertex at k=0.6: "
      f"{mass_value([math.pi / 4] * 4, mod):.8f}")

M, d = 1.0, 1e-3
nc = near_critical_modulus(M, d)
print(f"\nnear-critical at M=1, delta=1e-3: k^2 = {nc.k ** 2:.8f} "
      f"(prediction {8 * M * d - 32 * (M * d) ** 2:.8f})")
for row in verify_near_critical_asymptotics(M, [1e-2, 1e-3, 1e-4]):
    print(f"  delta {row[0]:.0e}: k2 residual/d^3 = {row[1]:.3g}, "
          f"angle = {row[2]:.3g}, sc = {row[3]:.3g}")

grid = build_square_grid(1e-2, 20)
mod2 = near_critical_modulus(1.0, 1e-2)
ambient = z_invariant_weights(grid, mod2)
field, tilde = drift_field_and_conductances(grid, mod2, u_bar=0.8,
                                            ambient=ambient)
lam = {x: field.primal[x] for x in range(grid.n)}
resid = check_massive_harmonic(ambient, lam, grid.bulk_vertices())
print(f"\nexponential drift field on a 20-track grid: positivity "
      f"{bool(np.all(field.primal > 0))}, harmonicity residual {resid:.2e}")

eid = grid.edges_at(grid.bulk_vertices()[0])[0]
x, y = grid.edge_tail[eid], grid.edge_head[eid]
print(f"a tilted bulk conductance: {tilde.edge_conductance(x, y):.6f} "
      f"(critical value 1, drift correction at order 2 sqrt(2) M delta)")
