"""Near-critical Monte Carlo: Girsanov ratios, crossings and exit laws.

With q = M delta / 2, the killed walk dies at rate ~ 2 M^2 delta^2 per
step while the tilted walk drifts toward e^{iu}; path-probability ratios
converge to exp(2M <e^{iu}, y - x>).  Crossing estimates and exit arcs are
the desk-scale stand-ins for the continuum statements.
"""

import math

from massiveforests.nearcrit import (
    CrossingSpec,
    conditioned_branch_sampler,
    crossing_probability,
    exit_law_brownian,
    exit_law_continuum,
    exit_law_walk,
    girsanov_ratio_check,
    total_variation,
)

print("Girsanov ratio along the straight east path of the unit disk:")
for u_bar in (0.0, math.pi / 3):
    rows = girsanov_ratio_check(1.0, u_bar, [1 / 16, 1 / 32, 1 / 64])
    print(f"  drift angle {u_bar:.3f}:")
    for (d, ratio, target, err) in rows:
        print(f"    delta = 1/{round(1 / d):>3}: ratio {ratio:.5f}, "
              f"target {target:.5f}, error {err:.2e}")

print("\ncrossing probability of the 3:1 rectangle (enter the far ball "
      "before leaving or dying):")
for M in (0.0, 1.0):
    spec = CrossingSpec(r=0.3)
    est, se = crossing_probability(spec, 0.3 / 48, M, 20000, seed=6)
    print(f"  M = {M:.0f}: {est:.4f} +- {se:.4f}")

print("\nexit law from the disk center (16 arcs):")
n = 20000
cw, _ = exit_law_walk(1.0, 0.0, 1 / 32, n, seed=7)
cb, _ = exit_law_brownian(1.0, 0.0, 1 / 32, n, seed=8)
print(f"  drifted walk:           {cw.tolist()}")
print(f"  exact drifted BM draws: {cb.tolist()}")
print(f"  total variation:        {total_variation(cw, cb):.4f}")
print(f"  TV of the walk against the exact von Mises law: "
      f"{total_variation(cw, exit_law_continuum(1.0, 0.0)):.4f}")

paths, acc = conditioned_branch_sampler(1.0, 1 / 16, target_arc=0,
                                        n_accepted=25, seed=9, radius=0.5)
lengths = [len(p) for p in paths]
print(f"\nconditioned killed LERW branches to arc 0: acceptance "
      f"{acc:.3f}, path lengths {min(lengths)}..{max(lengths)}")
