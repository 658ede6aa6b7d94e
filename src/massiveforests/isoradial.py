"""Isoradial grids, Z-invariant weights and discrete massive exponentials.

Grids are generated from two transversal train-track angle sequences: the
diamond lattice has vertices p(i, j) = delta * (sum of e^{i phi_k}, k < i)
+ delta * (sum of e^{i psi_l}, l < j); even parity of i + j gives the primal
vertices, odd parity the dual ones, and every lozenge (i, j) carries one
primal edge (its primal diagonal) crossing one dual edge.

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
from .graphs import WeightedGraph


class IsoradialGrid:
    """Finite patch of a rhombic isoradial lattice."""

    def __init__(self, delta, phis, psis):
        self.delta = float(delta)
        self.phis = [float(a) for a in phis]
        self.psis = [float(a) for a in psis]
        self.I = len(self.phis)
        self.J = len(self.psis)
        self._check_angles()
        self._build()

    def _check_angles(self):
        for a in self.phis:
            for b in self.psis:
                tb = 0.5 * ((b - a) % (2 * math.pi))
                if not 0 < tb < math.pi / 2:
                    raise ValueError(
                        f"rhombus angle out of range: phi={a}, psi={b}")

    # -- construction -------------------------------------------------------

    def _diamond_pos(self, i, j):
        x = sum(math.cos(a) for a in self.phis[:i]) + \
            sum(math.cos(b) for b in self.psis[:j])
        y = sum(math.sin(a) for a in self.phis[:i]) + \
            sum(math.sin(b) for b in self.psis[:j])
        return self.delta * x, self.delta * y

    def _build(self):
        self.primal_id = {}
        self.dual_id = {}
        primal_pos, dual_pos = [], []
        for i in range(self.I + 1):
            for j in range(self.J + 1):
                if (i + j) % 2 == 0:
                    self.primal_id[(i, j)] = len(primal_pos)
                    primal_pos.append(self._diamond_pos(i, j))
                else:
                    self.dual_id[(i, j)] = len(dual_pos)
                    dual_pos.append(self._diamond_pos(i, j))
        self.positions = np.array(primal_pos)
        self.dual_positions = np.array(dual_pos)
        self.n = len(primal_pos)

        # one primal edge per lozenge, with its rays and crossing duals
        self.edge_tail = []
        self.edge_head = []
        self.edge_alpha = []
        self.edge_beta = []
        self.edge_duals = []
        self._edges_at = [[] for _ in range(self.n)]
        for i in range(self.I):
            for j in range(self.J):
                phi, psi = self.phis[i], self.psis[j]
                if (i + j) % 2 == 0:
                    x = self.primal_id[(i, j)]
                    y = self.primal_id[(i + 1, j + 1)]
                    rays = (phi, psi)
                    duals = (self.dual_id[(i + 1, j)],
                             self.dual_id[(i, j + 1)])
                else:
                    x = self.primal_id[(i + 1, j)]
                    y = self.primal_id[(i, j + 1)]
                    rays = (psi, phi + math.pi)
                    duals = (self.dual_id[(i, j)],
                             self.dual_id[(i + 1, j + 1)])
                a, b = self._order_rays(*rays)
                eid = len(self.edge_tail)
                self.edge_tail.append(x)
                self.edge_head.append(y)
                self.edge_alpha.append(a)
                self.edge_beta.append(b)
                self.edge_duals.append(duals)
                self._edges_at[x].append(eid)
                self._edges_at[y].append(eid)
        self.m_edges = len(self.edge_tail)

    @staticmethod
    def _order_rays(a, b):
        """Order so that beta - alpha lies in (0, pi)."""
        gap = (b - a) % (2 * math.pi)
        if 0 < gap < math.pi:
            return a, a + gap
        gap = (a - b) % (2 * math.pi)
        return b, b + gap

    # -- queries -------------------------------------------------------------

    def half_angle(self, eid):
        return 0.5 * (self.edge_beta[eid] - self.edge_alpha[eid])

    def edges_at(self, x):
        return self._edges_at[x]

    def rays(self, eid, tail):
        """(alpha, beta) of the edge oriented out of `tail`."""
        a, b = self.edge_alpha[eid], self.edge_beta[eid]
        if tail == self.edge_tail[eid]:
            return a, b
        return a + math.pi, b + math.pi

    def is_bulk(self, x):
        """Full fan: incident half-angles sum to pi."""
        tot = sum(self.half_angle(eid) for eid in self._edges_at[x])
        return abs(tot - math.pi) < 1e-9

    def bulk_vertices(self):
        return [x for x in range(self.n) if self.is_bulk(x)]

    def base_vertex(self):
        """Lexicographically smallest primal vertex (x, then y)."""
        order = np.lexsort((self.positions[:, 1], self.positions[:, 0]))
        return int(order[0])

    def rectangle_window(self, x0, x1, y0, y1):
        px, py = self.positions[:, 0], self.positions[:, 1]
        return [int(v) for v in
                np.nonzero((px >= x0) & (px <= x1) & (py >= y0) & (py <= y1))[0]]


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
    half_angles = np.array([grid.half_angle(e) for e in range(grid.m_edges)])
    conds = sc(modulus.abstract_angle(half_angles), modulus).tolist()
    terms = mass_term(half_angles, modulus).tolist()
    edges = []
    for x, y, c in zip(grid.edge_tail, grid.edge_head, conds):
        edges.append((x, y, c))
        edges.append((y, x, c))
    masses = [sum(terms[e] for e in grid.edges_at(x)) for x in range(grid.n)]
    g = WeightedGraph(grid.n, edges, masses, positions=grid.positions,
                      check=False)
    g.grid = grid
    return g


def lazy_walk_graph(grid, modulus):
    """Z-invariant graph with per-vertex holding loops.

    The loop conductance at x is ((T(x) - T)/T) * sum_y sc(theta_xy|k) where
    T(x) = sum sin(2 theta bar)/sum tan(theta bar) and T is its minimum over
    the grid; jump-time trajectories of the lazy killed walk have the law of
    the plain killed walk.
    """
    g = z_invariant_weights(grid, modulus)
    T_x = np.empty(g.n)
    for x in range(g.n):
        s_sin = sum(np.sin(2 * grid.half_angle(e)) for e in grid.edges_at(x))
        s_tan = sum(np.tan(grid.half_angle(e)) for e in grid.edges_at(x))
        T_x[x] = s_sin / s_tan
    T = float(T_x.min())
    if T <= 0:
        raise ValueError("nonpositive speed floor; bounded-angle violated")
    edges = [(int(g.tail[i]), int(g.head[i]), g.cond[i])
             for i in range(g.m_edges)]
    for x in range(g.n):
        l_x = (T_x[x] - T) / T * float(g.total_conductance(x))
        if l_x > 0:
            edges.append((x, x, l_x))
    lazy = WeightedGraph(g.n, edges, list(g.masses), positions=g.positions,
                         check=False)
    holding = np.array([
        float(sum(lazy.cond_f[eid] for eid in lazy.out_edges[x]
                  if lazy.head[eid] == x)) / float(lazy.total_conductance(x))
        for x in range(lazy.n)])
    return lazy, holding


def mass_value_via_star(grid, modulus, x, u_bar=0.0):
    """m^2(x|k) from massive harmonicity of the exponential at x.

    An oracle for bulk vertices only: at a boundary vertex of the patch
    the star sum is not the sum of the per-edge mass terms.
    """
    total = 0.0
    for eid in grid.edges_at(x):
        a, b = grid.rays(eid, x)
        tb = grid.half_angle(eid)
        f = exponential_edge_factor(a, b, u_bar, modulus)
        total += sc(modulus.abstract_angle(tb), modulus) * (f - 1.0)
    return total


class ExponentialField:
    """Shifted discrete massive exponential on primal and dual vertices.

    Values are e_(x0, .) evaluated at u - 2K - 2iK' for real drift u; primal
    values are the Doob field, and the dual companion is the reciprocal of
    the diamond extension, which is the normalization that makes the killed
    dimer model self-dual.
    """

    def __init__(self, grid: IsoradialGrid, modulus: EllipticModulus, u_bar,
                 x0=None):
        self.grid = grid
        self.modulus = modulus
        self.u_bar = float(u_bar)
        self.x0 = grid.base_vertex() if x0 is None else x0

        f_phi = [exponential_step_factor(a, u_bar, modulus)
                 for a in grid.phis]
        f_psi = [exponential_step_factor(b, u_bar, modulus)
                 for b in grid.psis]
        pre_phi = np.cumprod([1.0] + f_phi)
        pre_psi = np.cumprod([1.0] + f_psi)

        raw_primal = np.empty(grid.n)
        raw_dual = np.empty(len(grid.dual_id))
        for (i, j), vid in grid.primal_id.items():
            raw_primal[vid] = pre_phi[i] * pre_psi[j]
        for (i, j), vid in grid.dual_id.items():
            raw_dual[vid] = pre_phi[i] * pre_psi[j]

        base = raw_primal[self.x0]
        self.primal = raw_primal / base
        self.dual = base / raw_dual  # reciprocal: self-duality normalization

    def edge_factor(self, eid):
        """e along the directed edge tail -> head."""
        a, b = self.grid.edge_alpha[eid], self.grid.edge_beta[eid]
        return exponential_edge_factor(a, b, self.u_bar, self.modulus)


def discrete_exponential(grid, modulus, u_bar, x0=None) -> ExponentialField:
    return ExponentialField(grid, modulus, u_bar, x0=x0)


def drift_field_and_conductances(grid, modulus, u_bar, ambient=None):
    """(lambda^u on the patch, tilted graph) for the drifted tree model."""
    from .doob import doob_conductances, require_massive_harmonic

    if ambient is None:
        ambient = z_invariant_weights(grid, modulus)
    field = discrete_exponential(grid, modulus, u_bar)
    lam = {x: field.primal[x] for x in range(grid.n)}
    require_massive_harmonic(ambient, lam, grid.bulk_vertices())
    tilde = doob_conductances(ambient, lam)
    return field, tilde


def drift_field_from_rays(g: WeightedGraph, modulus, u_bar):
    """(bulk, lambda^u) on a graph carrying per-edge rays `g.edge_rays`.

    This is the drift field of a grid file, which keeps its rays but not
    its train tracks.  The bulk is every vertex whose full fan is present
    (incident half-angles sum to pi); lambda is 1 at the first bulk vertex
    and multiplies `exponential_edge_factor` along a depth-first spanning
    tree.  Refuses, through `doob.require_massive_harmonic` on the bulk, a
    modulus that does not make lambda massive harmonic for the file's
    weights.
    """
    from .doob import require_massive_harmonic

    def fan(x):
        total = 0.0
        for eid in g.out_edges[x]:
            a, b = g.edge_rays[(x, int(g.head[eid]))]
            total += 0.5 * (b - a)
        return total

    bulk = [x for x in range(g.n) if abs(fan(x) - math.pi) < 1e-9]
    if not bulk:
        raise ValueError("no bulk vertices in the grid window")
    lam = {bulk[0]: 1.0}
    stack = [bulk[0]]
    while stack:
        x = stack.pop()
        for eid in g.out_edges[x]:
            y = int(g.head[eid])
            if y in lam:
                continue
            a, b = g.edge_rays[(x, y)]
            lam[y] = lam[x] * exponential_edge_factor(a, b, u_bar, modulus)
            stack.append(y)
    require_massive_harmonic(g, lam, bulk)
    return bulk, lam


def drifted_conductance_asymptotic(grid, eid, M, u_bar):
    """(1+2Md) tan(tb) (1 + 4Md cos(tb) cos(u - (a+b)/2)), the d -> 0 form."""
    d = grid.delta
    a, b = grid.edge_alpha[eid], grid.edge_beta[eid]
    tb = 0.5 * (b - a)
    return (1 + 2 * M * d) * math.tan(tb) * (
        1 + 4 * M * d * math.cos(tb) * math.cos(u_bar - 0.5 * (a + b)))
