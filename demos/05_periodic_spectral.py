"""Periodic graphs: Bloch matrices and the translated spectral curve.

The massive Laplacian restricted to (z, w)-periodic functions is a finite
matrix whose determinant is a Laurent polynomial P(z, w).  A Perron
eigenvector at the point z0 where the killed kernel's top eigenvalue
crosses 1 gives a positive periodic massive harmonic function; tilting by
it translates the polynomial: P~(z/z0, w/w0) = P(z, w).
"""

import numpy as np

from massiveforests.periodic import (
    assemble_bloch,
    charpoly,
    harmonicity_on_window,
    perron_search,
    spectral_probe,
    square_lattice,
    tilted_periodic_graph,
    verify_translation,
)

pg = square_lattice(0.5)  # Z^2, conductance 1, mass 1/2
ev = charpoly(pg)
print("Laurent coefficients of P(z, w):")
for (a, b), c in sorted(ev.coeffs.items()):
    print(f"  z^{a:+d} w^{b:+d}: {c:+.6f}")
print(f"Newton polygon: {ev.newton_polygon()}")

z0, vec, beta = perron_search(pg)
print(f"\nPerron point z0 = ({z0[0]:.12f}, {z0[1]:.0f}) "
      f"with beta = {beta:.12f}")
print(f"  (s + 1/s = {z0[0] + 1 / z0[0]:.12f}; the scalar equation gives "
      f"s = 2)")
print(f"unrolled harmonicity residual: "
      f"{harmonicity_on_window(pg, z0, vec):.2e}")

gap = verify_translation(pg, z0, vec)
print(f"translation identity max gap over 20 random points: {gap:.2e}")

z, w = 2.0, 1.0 + 1.0j
pk = np.linalg.det(assemble_bloch(pg, z, w))
tilde = tilted_periodic_graph(pg, z0, vec)
pt = np.linalg.det(assemble_bloch(tilde, z / z0[0], w / z0[1]))
print(f"P(2, 1+i) = {pk:.10f},  P~(1, (1+i)/1) = {pt:.10f}")

rows = spectral_probe(square_lattice(1.0))
print("\nspectral probe on the positive quadrant (realness diagnostic):")
for (x, y, re, im) in rows[:4]:
    print(f"  P({x:.3f}, {y:.3f}) = {re:+.6f} (imag {im:.1e})")
