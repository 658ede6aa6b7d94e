"""Isoradial grids, Z-invariant weights and discrete massive exponentials.

Grids are generated from two transversal train-track angle sequences: the
diamond lattice has corners p(i, j) = delta * (P_phi[i] + P_psi[j]), with
P_phi and P_psi the prefix sums of e^{i phi_k} and e^{i psi_l}; even parity
of i + j gives the primal vertices, odd parity the dual ones, and every
lozenge (i, j) carries one primal edge (its primal diagonal) crossing one
dual edge.  The grid is built from arrays: one parity mask numbers the
corners and gives every lozenge's ends, duals and rays, and every
per-vertex quantity (the fan of half-angles, the masses) is one
`np.bincount` over the (tail, head) incidences in edge order, so each
vertex sums its edges in the order `edges_at` lists them.

The discrete massive exponential is multiplicative along diamond steps with
the positive factor dn((u - gamma)/2 | k)/sqrt(k'), which makes the drift
field and its dual-vertex companion cheap prefix products.
"""

from __future__ import annotations

import math

import numpy as np

from .elliptic import (
    EllipticModulus,
    exponential_edge_factor,
    exponential_step_factor,
    mass_term,
    sc,
)
from .graphs import WeightedGraph, both_ways


def full_fan_vertices(n, ends, half_angles):
    """The bulk: vertices of 0..n-1 whose full fan is present, i.e. whose
    incident half-angles (`half_angles[k]` at vertex `ends[k]`) sum to pi."""
    fan = np.bincount(ends, weights=half_angles, minlength=n)
    return np.flatnonzero(np.abs(fan - math.pi) < 1e-9).tolist()


class IsoradialGrid:
    """Finite patch of a rhombic isoradial lattice.  Vertices are numbered
    in row-major order of their corners (flat indices `primal_corners`,
    `dual_corners`), edges in row-major order of their lozenges."""

    def __init__(self, delta, phis, psis):
        delta = float(delta)
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"mesh delta = {delta} must be finite and > 0")
        self.delta = delta
        self.phis = [float(a) for a in phis]
        self.psis = [float(a) for a in psis]
        self.I = len(self.phis)
        self.J = len(self.psis)
        self._check_angles()
        self._build()

    def _check_angles(self):
        phis, psis = np.array(self.phis), np.array(self.psis)
        tb = 0.5 * ((psis[None, :] - phis[:, None]) % (2 * math.pi))
        bad = np.argwhere(~((0 < tb) & (tb < math.pi / 2)))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"rhombus angle out of range: "
                             f"phi={self.phis[i]}, psi={self.psis[j]}")

    def _build(self):
        I, J = self.I, self.J
        # corners from prefix sums of e^{i phi}, e^{i psi}, added in sequence
        p, q = (np.cumsum([0j] + [complex(math.cos(a), math.sin(a))
                                  for a in angles])
                for angles in (self.phis, self.psis))
        z = (p[:, None] + q[None, :]).ravel()
        corners = self.delta * np.stack([z.real, z.imag], axis=1)
        i, j = np.indices((I + 1, J + 1))
        even = ((i + j) % 2 == 0).ravel()
        self.primal_corners = np.flatnonzero(even)
        self.dual_corners = np.flatnonzero(~even)
        self.positions = corners[self.primal_corners]
        self.dual_positions = corners[self.dual_corners]
        self.n = len(self.primal_corners)
        vid = np.where(even, np.cumsum(even), np.cumsum(~even)) - 1
        vid = vid.reshape(I + 1, J + 1)

        # one primal edge per lozenge, (i, j) -> (i+1, j+1) on an even one
        # and (i+1, j) -> (i, j+1) on an odd one, crossing the other diagonal
        c00, c11 = vid[:-1, :-1].ravel(), vid[1:, 1:].ravel()
        c10, c01 = vid[1:, :-1].ravel(), vid[:-1, 1:].ravel()
        li, lj = np.indices((I, J)).reshape(2, -1)
        on_even = (li + lj) % 2 == 0
        phi, psi = np.array(self.phis)[li], np.array(self.psis)[lj]
        self.edge_tail = np.where(on_even, c00, c10)
        self.edge_head = np.where(on_even, c11, c01)
        self.edge_duals = np.stack([np.where(on_even, c10, c00),
                                    np.where(on_even, c01, c11)], axis=1)
        # rays (phi, psi) or (psi, phi + pi), ordered: beta - alpha in (0, pi)
        a = np.where(on_even, phi, psi)
        b = np.where(on_even, psi, phi + math.pi)
        gap = (b - a) % (2 * math.pi)
        ordered = (0 < gap) & (gap < math.pi)
        self.edge_alpha = np.where(ordered, a, b)
        self.edge_beta = np.where(ordered, a + gap, b + (a - b) % (2 * math.pi))
        self.half_angles = 0.5 * (self.edge_beta - self.edge_alpha)
        self.m_edges = len(self.edge_tail)

        # (tail, head) incidences in edge order, and edges_at as CSR
        self._ends = np.stack([self.edge_tail, self.edge_head], axis=1).ravel()
        self._edge_ids = np.argsort(self._ends, kind="stable") // 2
        self._edge_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self._ends, minlength=self.n))])

    # -- queries -------------------------------------------------------------

    def half_angle(self, eid):
        return self.half_angles[eid]

    def edges_at(self, x):
        return self._edge_ids[self._edge_ptr[x]:self._edge_ptr[x + 1]]

    def incident_sums(self, per_edge):
        """Per-vertex sums of a per-edge array over each vertex's edges,
        added in edge order."""
        return np.bincount(self._ends, weights=np.repeat(per_edge, 2),
                           minlength=self.n)

    def rays(self, eid, tail):
        """(alpha, beta) of the edge oriented out of `tail`."""
        a, b = self.edge_alpha[eid], self.edge_beta[eid]
        if tail == self.edge_tail[eid]:
            return a, b
        return a + math.pi, b + math.pi

    def bulk_vertices(self):
        """Vertices with their full fan: incident half-angles sum to pi."""
        return full_fan_vertices(self.n, self._ends,
                                 np.repeat(self.half_angles, 2))

    def base_vertex(self):
        """Lexicographically smallest primal vertex (x, then y)."""
        order = np.lexsort((self.positions[:, 1], self.positions[:, 0]))
        return int(order[0])

    def rectangle_window(self, x0, x1, y0, y1):
        px, py = self.positions[:, 0], self.positions[:, 1]
        return np.flatnonzero(
            (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)).tolist()


def build_square_grid(delta, size) -> IsoradialGrid:
    """Square-lattice patch: all half-angles pi/4, primal spacing sqrt(2)*delta.

    `size` counts train tracks per family; the primal patch is the diamond
    {0 <= i, j <= size, i + j even}.
    """
    return IsoradialGrid(delta, [-math.pi / 4] * size, [math.pi / 4] * size)


def build_rhombic_grid(delta, phis, psis) -> IsoradialGrid:
    """General rhombic patch from two angle sequences."""
    return IsoradialGrid(delta, phis, psis)


RHOMBIC_ANGLE_MARGIN = 0.3


def random_rhombic_angles(rng, size):
    """Admissible random train-track angles around 0 and pi/2, each
    within (pi/2 - 2 RHOMBIC_ANGLE_MARGIN) / 2 of its axis."""
    spread = (math.pi / 2 - 2 * RHOMBIC_ANGLE_MARGIN) / 2
    phis = rng.uniform(-spread, spread, size=size)
    psis = math.pi / 2 + rng.uniform(-spread, spread, size=size)
    return phis.tolist(), psis.tolist()


def z_invariant_weights(grid: IsoradialGrid,
                        modulus: EllipticModulus) -> WeightedGraph:
    """Graph over the patch with c = sc(theta|k) and elliptic masses.

    Masses sum the per-edge mass terms over incident edges, so they equal
    m^2(.|k) at bulk vertices; boundary vertices of the patch carry the
    incomplete-star value and windows should be taken strictly inside.
    """
    tb = grid.half_angles
    edges = both_ways(grid.edge_tail, grid.edge_head,
                      sc(modulus.abstract_angle(tb), modulus))
    masses = grid.incident_sums(mass_term(tb, modulus))
    return WeightedGraph(grid.n, edges, masses, positions=grid.positions,
                         check=False)


def mass_value_via_star(grid, modulus, x):
    """m^2(x|k) from massive harmonicity of the drift-0 exponential at x.

    An oracle for bulk vertices only: at a boundary vertex of the patch
    the star sum is not the sum of the per-edge mass terms.
    """
    total = 0.0
    for eid in grid.edges_at(x):
        a, b = grid.rays(eid, x)
        tb = grid.half_angle(eid)
        f = exponential_edge_factor(a, b, 0.0, modulus)
        total += sc(modulus.abstract_angle(tb), modulus) * (f - 1.0)
    return total


class ExponentialField:
    """Shifted discrete massive exponential on primal and dual vertices.

    Values are e_(x0, .), x0 the grid's base vertex, evaluated at
    u - 2K - 2iK' for real drift u; primal values are the Doob field, and
    the dual companion is the reciprocal of the diamond extension, which is
    the normalization that makes the killed dimer model self-dual.
    """

    def __init__(self, grid: IsoradialGrid, modulus: EllipticModulus, u_bar):
        self.grid = grid
        self.modulus = modulus
        self.u_bar = float(u_bar)
        self.x0 = grid.base_vertex()

        f_phi = exponential_step_factor(np.array(grid.phis), u_bar, modulus)
        f_psi = exponential_step_factor(np.array(grid.psis), u_bar, modulus)
        pre_phi = np.cumprod(np.r_[1.0, f_phi])
        pre_psi = np.cumprod(np.r_[1.0, f_psi])

        raw = np.outer(pre_phi, pre_psi).ravel()
        raw_primal = raw[grid.primal_corners]
        raw_dual = raw[grid.dual_corners]
        base = raw_primal[self.x0]
        self.primal = raw_primal / base
        self.dual = base / raw_dual  # reciprocal: self-duality normalization

    def edge_factor(self, eid):
        """e along the directed edge tail -> head."""
        a, b = self.grid.edge_alpha[eid], self.grid.edge_beta[eid]
        return exponential_edge_factor(a, b, self.u_bar, self.modulus)


def discrete_exponential(grid, modulus, u_bar) -> ExponentialField:
    return ExponentialField(grid, modulus, u_bar)


def drift_field_and_conductances(grid, modulus, u_bar, ambient=None):
    """(lambda^u on the patch, tilted graph) for the drifted tree model."""
    from .doob import doob_conductances, require_massive_harmonic

    if ambient is None:
        ambient = z_invariant_weights(grid, modulus)
    field = discrete_exponential(grid, modulus, u_bar)
    lam = dict(enumerate(field.primal))
    require_massive_harmonic(ambient, lam, grid.bulk_vertices())
    tilde = doob_conductances(ambient, lam)
    return field, tilde


def drift_field_from_rays(g: WeightedGraph, modulus, u_bar):
    """(bulk, lambda^u) on a graph carrying per-edge rays `g.edge_rays`,
    an (m, 2) array of (alpha, beta) in edge order.

    This is the drift field of a grid file, which keeps its rays but not
    its train tracks.  The bulk is every vertex whose full fan is present
    (incident half-angles sum to pi); lambda is 1 at the first bulk vertex
    and multiplies `exponential_edge_factor` down the breadth-first tree
    from there, one level at a time (`planar.tree_product`).  The step
    factor is evaluated once per distinct ray angle, in one array call.
    Refuses, through `doob.require_massive_harmonic` on the bulk, a
    modulus that does not make lambda massive harmonic for the file's
    weights.
    """
    from .doob import require_massive_harmonic
    from .planar import tree_product

    alpha, beta = g.edge_rays.T
    bulk = full_fan_vertices(g.n, g.tail, 0.5 * (beta - alpha))
    if not bulk:
        raise ValueError("no bulk vertices in the grid window")
    angles, which = np.unique(np.r_[alpha, beta], return_inverse=True)
    step = exponential_step_factor(angles, u_bar, modulus)[which]
    factor = step[:g.m_edges] * step[g.m_edges:]
    out = g.out_order
    order, prod = tree_product(g.n, g.tail[out], g.head[out], factor[out],
                               bulk[0])
    lam = dict(zip(order.tolist(), prod[order].tolist()))
    require_massive_harmonic(g, lam, bulk)
    return bulk, lam
