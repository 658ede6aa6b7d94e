"""Doob transform of killed walks and the matching tree/forest identities.

A positive function lambda on the ambient vertices tilts the conductances,
c~_(x,y) = lambda(y)/lambda(x) c_(x,y).  When lambda is massive harmonic on
a window, the tilted walk restricted to the window is a plain walk killed
at the boundary, and the forest model on the window matches the tree model
on the collapsed graph, determinant for determinant.  The tilt and the
harmonicity gate are array expressions over the graph's edges.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .graphs import (
    WeightedGraph,
    _values,
    _window,
    collapse_boundary,
    forest_partition_function,
    tree_partition_function,
    wired_restriction,
)
from .linalg import (
    assemble_massive_laplacian,
    assemble_massive_laplacian_exact,
    determinant_exact,
    log_determinant,
    potential,
    transfer_current,
)

HARMONICITY_GATE = 1e-8


def _lambda_at(lam, vertices):
    """lam at each of `vertices`, as `graphs._values` makes an array."""
    return _values(list(map(lam.__getitem__, vertices.tolist())))


def doob_conductances(ambient: WeightedGraph, lam) -> WeightedGraph:
    """Tilted graph: c~_(x,y) = lambda(y)/lambda(x) c_(x,y), masses dropped.

    One array expression over the edges; Fraction data and lambda give
    Fraction tilts."""
    lam = _lambda_at(lam, np.arange(ambient.n))
    if not np.all(lam > 0):
        raise ValueError("lambda must be positive everywhere")
    cond = ambient.cond_a * lam[ambient.head] / lam[ambient.tail]
    zero = Fraction(0) if ambient.is_exact() else 0.0
    return WeightedGraph(ambient.n, (ambient.tail, ambient.head, cond),
                         [zero] * ambient.n, positions=ambient.positions,
                         check=False)


def massive_laplacian_apply(g: WeightedGraph, f, x):
    """(Delta^k f)(x) for a function given on x and its neighbours."""
    val = g.masses[x] * f[x]
    for eid in g.out_edges[x]:
        y = int(g.head[eid])
        if y == x:
            continue
        val = val + g.cond[eid] * (f[x] - f[y])
    return val


def check_massive_harmonic(ambient: WeightedGraph, lam, subset):
    """Max relative harmonicity residual |(Delta^k lam)(x)| / (c^k(x) lam(x))
    over `subset`, inf as soon as one residual is not finite; each residual
    adds up as in `massive_laplacian_apply`.  A lambda <= 0 at a vertex of
    `subset` is refused: the residual is read relative to it.
    """
    xs, index, eids, _ = _window(ambient, subset)
    lx = _lambda_at(lam, xs)
    if np.any(lx <= 0):
        raise ValueError("lambda must be positive on the checked vertices")
    eids = eids[ambient.tail[eids] != ambient.head[eids]]
    row = index[ambient.tail[eids]]
    ly = _lambda_at(lam, ambient.head[eids])
    with np.errstate(invalid="ignore", over="ignore"):
        r = ambient.masses_a[xs] * lx
        terms = ambient.cond_a[eids] * (lx[row] - ly)
        r = r.astype(np.result_type(r, terms))
        np.add.at(r, row, terms)
        rel = np.abs(r.astype(float)) / (ambient.ck_f[xs] * lx.astype(float))
    if not np.all(np.isfinite(rel)):
        return math.inf
    return float(rel.max(initial=0.0))


def require_massive_harmonic(ambient: WeightedGraph, lam, subset):
    """Refuse a lambda whose harmonicity residual on `subset` exceeds
    `HARMONICITY_GATE`: only a massive harmonic tilt is a Doob transform."""
    resid = check_massive_harmonic(ambient, lam, subset)
    if resid > HARMONICITY_GATE:
        raise ValueError(
            f"lambda is not massive harmonic "
            f"(residual {resid:.3e} > {HARMONICITY_GATE:.0e})")


def verify_gauge_identity(ambient: WeightedGraph, lam, subset):
    """sup-norm of Delta~_V - Lambda^-1 Delta^k_V Lambda on the window."""
    subset = sorted(subset)
    window = wired_restriction(ambient, subset)
    tilde_window = wired_restriction(doob_conductances(ambient, lam), subset)
    Lk = assemble_massive_laplacian(window).toarray()
    Lt = assemble_massive_laplacian(tilde_window).toarray()
    lam_v = np.array([float(lam[x]) for x in subset])
    gauge = (Lk * lam_v[None, :]) / lam_v[:, None]
    return float(np.max(np.abs(Lt - gauge)))


def verify_partition_equality(ambient: WeightedGraph, subset, lam,
                              exact=False, enumerate_cap=None):
    """Z_RSF on the wired window vs Z_RST rooted at o on the tilted graph.

    Returns (z_forest, z_tree, relative gap).  In float mode the partition
    functions are `log_determinant` pairs (sign, log|Z|), which stay finite
    on windows where Z itself overflows, and the gap is
    |expm1(log Z_tree - log Z_forest)|, inf when the signs differ.  Refuses
    when lambda fails the harmonicity gate on the window.
    """
    subset = sorted(subset)
    require_massive_harmonic(ambient, lam, subset)
    window = wired_restriction(ambient, subset)
    tilde = doob_conductances(ambient, lam)
    tilde_window = wired_restriction(tilde, subset)
    if exact:
        z_forest = determinant_exact(
            assemble_massive_laplacian_exact(window))
        z_tree = determinant_exact(
            assemble_massive_laplacian_exact(tilde_window))
        gap = abs(z_forest - z_tree)
    else:
        z_forest = log_determinant(assemble_massive_laplacian(window))
        z_tree = log_determinant(assemble_massive_laplacian(tilde_window))
        (s_forest, ld_forest), (s_tree, ld_tree) = z_forest, z_tree
        gap = abs(math.expm1(ld_tree - ld_forest)) \
            if s_forest == s_tree != 0 else math.inf
    if enumerate_cap is not None:
        # independent enumeration arm: trees of G^o vs forests of the window
        col = collapse_boundary(tilde, subset)
        go = col.as_weighted_graph()
        z_tree_enum = tree_partition_function(go, col.o, cap=enumerate_cap)
        z_forest_enum = forest_partition_function(window, cap=enumerate_cap)
        return z_forest, z_tree, gap, z_forest_enum, z_tree_enum
    return z_forest, z_tree, gap


def tilted_transfer(window: WeightedGraph, lam_window, pot=None, exact=False):
    """Tilted transfer currents from the untilted potential.

    H~_{e,f} = (lam(y)/lam(w)) V(w,y)/c^k(y) - (lam(y)/lam(x)) V(x,y)/c^k(y)
    for e = (w, x), f = (y, z); entries for edges inside the window.
    `lam_window` is indexed by window vertices.
    """
    if pot is None:
        pot = potential(window, exact=exact)
    zero = Fraction(0) if exact else 0.0

    def entry(e, f):
        from .graphs import ROOT

        w, x = e
        y, z = f
        if y == ROOT:
            return zero
        ly = lam_window[y]
        t1 = zero if w == ROOT else \
            (ly / lam_window[w]) * pot.continuous(w, y)
        t2 = zero if x == ROOT else \
            (ly / lam_window[x]) * pot.continuous(x, y)
        return t1 - t2

    return entry


def tilted_transfer_direct(ambient: WeightedGraph, subset, lam, exact=False):
    """Transfer currents of the tilted window computed the long way."""
    subset = sorted(subset)
    tilde_window = wired_restriction(doob_conductances(ambient, lam), subset)
    pot = potential(tilde_window, exact=exact)
    return transfer_current(tilde_window, pot)


def martin_kernel_ratio(window: WeightedGraph, x, x0, z_sequence,
                        exact=False):
    """Killed Martin kernel ratios V(x, z)/V(x0, z) along a vertex sequence."""
    pot = potential(window, exact=exact)
    return [pot.value(x, z) / pot.value(x0, z) for z in z_sequence]
