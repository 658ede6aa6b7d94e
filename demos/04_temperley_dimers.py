"""From trees to dimers on the double graph.

Superimposing a collapsed window with its dual puts a white vertex on
every edge; trees rooted at the outer vertex biject with perfect
matchings.  With a harmonic field lambda, the drifted weights make
|det K| equal the forest partition function, and the killed gauge turns
K^dagger K block diagonal with the massive Laplacian in the vertex block.
"""

from fractions import Fraction

from massiveforests.dimers import (
    check_kasteleyn_property,
    drifted_weights,
    partition_check,
    resolve_tree,
    temperley_forward,
    temperley_inverse,
    verify_block_identity,
    verify_det_relation,
)
from massiveforests.graphs import (
    collapse_boundary,
    grid_graph,
    wired_restriction,
)
from massiveforests.linalg import (
    assemble_massive_laplacian_exact,
    determinant_exact,
)
from massiveforests.planar import build_dual_and_double
from massiveforests.walks import rng_stream, wilson_sample


# ambient Z^2 patch with mass 9/4, where lambda = 4^x is massive harmonic
ambient = grid_graph(4, 4, m=Fraction(9, 4))
subset = [ambient.positions.tolist().index([float(i), float(j)])
          for j in (1, 2) for i in (1, 2)]
col = collapse_boundary(ambient, subset)
window = wired_restriction(ambient, subset)
faces, dg = build_dual_and_double(col, ambient.positions)
print(f"double graph: {dg.n_white} whites, {dg.n_black} blacks "
      f"(balance {dg.counts_balanced()})")
print(f"Kasteleyn property violations: {len(check_kasteleyn_property(dg))}")

lam = {v: Fraction(4) ** int(round(ambient.positions[v][0]))
       for v in range(ambient.n)}
ws = drifted_weights(dg, lam)
det, z, gap = partition_check(dg, ws, exact=True)
z_forest = determinant_exact(assemble_massive_laplacian_exact(window))
print(f"\nZ_dim = {z},  det Delta^k of the window = {z_forest}, "
      f"|det K|^2 - Z^2 = {gap}")

rng = rng_stream(4)
from massiveforests.dimers import _tilted_window

tw = _tilted_window(dg, lam)
forest = wilson_sample(tw, rng)
tree = resolve_tree(dg, forest.outgoing, rng=rng)
matching, dual_tree = temperley_forward(dg, tree)
back, _ = temperley_inverse(dg, matching)
print(f"Temperley round trip on one Wilson sample: identity = "
      f"{back == tree}")

lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
off, v_off, dual_dev, v_diag = verify_block_identity(dg, lam, lam_star,
                                                     window)
print(f"\n(K^k)^dag K^k: off-block {off:.1e}, V-block off-diag "
      f"{v_off:.1e}, dual block {dual_dev:.1e}, diagonal defect "
      f"{v_diag:.1e}")
log_detK, log_rhs, dgap = verify_det_relation(dg, lam, lam_star, window)
print(f"log|det K^k| = {log_detK:.10f} vs log(C det Delta^k) = "
      f"{log_rhs:.10f} (gap {dgap:.1e})")
