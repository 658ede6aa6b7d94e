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
    ROOT,
    CollapsedGraph,
    WeightedGraph,
    _values,
    _window,
    collapse_boundary,
    forest_partition_function,
    tree_partition_function,
)
from .linalg import (
    assemble_massive_laplacian,
    assemble_massive_laplacian_exact,
    determinant_exact,
    log_determinant,
    potential,
)

HARMONICITY_GATE = 1e-8


def _lambda_at(lam, vertices):
    """lam at each of `vertices`, as `graphs._values` makes an array."""
    return _values(list(map(lam.__getitem__, vertices.tolist())))


def _tilt(cond, tail, head, lam):
    """c lambda(head) / lambda(tail) per edge, reading lambda once at each
    end and refusing lambda <= 0 there; Fractions give Fraction tilts."""
    ends, at = np.unique(np.r_[tail, head], return_inverse=True)
    lam = _lambda_at(lam, ends)
    if not np.all(lam > 0):
        raise ValueError("lambda must be positive at every edge end")
    lam_tail, lam_head = np.split(lam[at], 2)
    return cond * lam_head / lam_tail


def doob_conductances(ambient: WeightedGraph, lam) -> WeightedGraph:
    """Tilted graph: c~_(x,y) = lambda(y)/lambda(x) c_(x,y), masses dropped."""
    cond = _tilt(ambient.cond, ambient.tail, ambient.head, lam)
    zero = Fraction(0) if ambient.is_exact() else 0.0
    return WeightedGraph(ambient.n, (ambient.tail, ambient.head, cond),
                         [zero] * ambient.n, positions=ambient.positions,
                         check=False)


def _tilted_collapse(col: CollapsedGraph, lam) -> CollapsedGraph:
    """`col` with its edge and spoke conductances tilted by lambda, as
    `doob_conductances` tilts them, and its masses dropped: lambda is read
    at the window vertices and the spoke targets only."""
    ids = np.asarray(col.ambient_ids, dtype=int)
    (x, y, c), (sx, sc, target) = col.edges, col.spokes
    cond = _tilt(np.r_[c, sc], ids[np.r_[x, sx]], np.r_[ids[y], target], lam)
    return CollapsedGraph(col.n, (x, y, cond[:len(x)]),
                          (sx, cond[len(x):], target), col.masses * 0,
                          col.positions, col.ambient_ids)


def massive_laplacian_at(g: WeightedGraph, f, xs):
    """(sorted xs, f at xs, Delta^k f at xs) for a function f given on xs
    and their neighbours: m(x) f(x), then c (f(x) - f(y)) added for each
    loop-free out-edge of x in edge order, in the data's own arithmetic."""
    xs, index, eids, _ = _window(g, xs)
    fx = _lambda_at(f, xs)
    eids = eids[g.tail[eids] != g.head[eids]]
    row = index[g.tail[eids]]
    with np.errstate(invalid="ignore", over="ignore"):
        r = g.masses[xs] * fx
        terms = g.cond[eids] * (fx[row] - _lambda_at(f, g.head[eids]))
        r = r.astype(np.result_type(r, terms))
        np.add.at(r, row, terms)
    return xs, fx, r


def check_massive_harmonic(ambient: WeightedGraph, lam, subset):
    """Max relative harmonicity residual |(Delta^k lam)(x)| / (c^k(x) lam(x))
    over `subset` (`massive_laplacian_at`), inf as soon as one residual is
    not finite.  A lambda <= 0 at a vertex of `subset` is refused: the
    residual is read relative to it.
    """
    xs, lx, r = massive_laplacian_at(ambient, lam, subset)
    if np.any(lx <= 0):
        raise ValueError("lambda must be positive on the checked vertices")
    with np.errstate(invalid="ignore", over="ignore"):
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
    """sup-norm of Delta~_V - Lambda^-1 Delta^k_V Lambda on the window,
    reading lambda on the window and its neighbours only."""
    col = collapse_boundary(ambient, subset)
    Lk, Lt = (assemble_massive_laplacian(w.wired).toarray()
              for w in (col, _tilted_collapse(col, lam)))
    lam_v = np.array([float(lam[x]) for x in col.ambient_ids])
    gauge = (Lk * lam_v[None, :]) / lam_v[:, None]
    return float(np.max(np.abs(Lt - gauge)))


def verify_partition_equality(ambient: WeightedGraph, subset, lam,
                              exact=False, enumerate_cap=None):
    """Z_RSF on the wired window vs Z_RST rooted at o on the tilted graph.

    Returns (z_forest, z_tree, relative gap).  In float mode the partition
    functions are `log_determinant` pairs (sign, log|Z|), which stay finite
    on windows where Z itself overflows, and the gap is
    |expm1(log Z_tree - log Z_forest)|, inf when the signs differ.  The
    wired window, the tilted window and G^o come from one collapse, so
    lambda is read on the window and its neighbours only; a lambda that
    fails the harmonicity gate on the window is refused.
    """
    require_massive_harmonic(ambient, lam, subset)
    col = collapse_boundary(ambient, subset)
    window, tilde = col.wired, _tilted_collapse(col, lam)
    if exact:
        z_forest, z_tree = (determinant_exact(assemble_massive_laplacian_exact(
            w)) for w in (window, tilde.wired))
        gap = abs(z_forest - z_tree)
    else:
        z_forest, z_tree = (log_determinant(assemble_massive_laplacian(w))
                            for w in (window, tilde.wired))
        (s_forest, ld_forest), (s_tree, ld_tree) = z_forest, z_tree
        gap = abs(math.expm1(ld_tree - ld_forest)) \
            if s_forest == s_tree != 0 else math.inf
    if enumerate_cap is not None:
        # independent enumeration arm: trees of G^o vs forests of the window
        z_tree_enum = tree_partition_function(tilde.as_weighted_graph(),
                                              tilde.o, cap=enumerate_cap)
        z_forest_enum = forest_partition_function(window, cap=enumerate_cap)
        return z_forest, z_tree, gap, z_forest_enum, z_tree_enum
    return z_forest, z_tree, gap


def tilted_transfer(window: WeightedGraph, lam_window, exact=False):
    """Tilted transfer currents from the untilted potential.

    H~_{e,f} = (lam(y)/lam(w)) V(w,y)/c^k(y) - (lam(y)/lam(x)) V(x,y)/c^k(y)
    for e = (w, x), f = (y, z); entries for edges inside the window.
    `lam_window` is indexed by window vertices.
    """
    pot = potential(window, exact=exact)
    zero = Fraction(0) if exact else 0.0

    def entry(e, f):
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


def martin_kernel_ratio(window: WeightedGraph, x, x0, z_sequence,
                        exact=False):
    """Killed Martin kernel ratios V(x, z)/V(x0, z) along a vertex sequence."""
    pot = potential(window, exact=exact)
    return [pot.value(x, z) / pot.value(x0, z) for z in z_sequence]
