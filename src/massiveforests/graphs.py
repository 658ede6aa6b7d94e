"""Weighted directed graphs with vertex masses.

The basic object is a finite connected graph with positive conductances on
directed edges and nonnegative masses on vertices.  Parallel edges are kept
as distinct edge ids and loops are allowed.  Conductances and masses may be
floats or exact `fractions.Fraction` values; exact values survive through
the enumeration and rational linear algebra routines.

A graph holds its incidence once, as arrays (the out-edges as one CSR,
the float c(x) and c^k(x)), which every layer reads; `ck`,
`edge_conductance` and the enumerations stay as per-vertex oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

ROOT = -1  # pseudo-target for "no outgoing edge" / cemetery in edge tuples


def _is_exact(v):
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _values(v):
    """v as an array, float64 for float data and else the values as
    objects, so that its arithmetic is theirs."""
    a = np.asarray(v)
    return a if a.dtype == np.float64 else np.asarray(v, dtype=object)


def csr_rows(values, ptr):
    """The rows values[ptr[i]:ptr[i + 1]] of a CSR, as Python lists."""
    ptr = ptr.tolist()
    return list(map(values.tolist().__getitem__, map(slice, ptr, ptr[1:])))


def _one_component(n, tail, head):
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    adj = coo_array((np.ones(len(tail)), (tail, head)), shape=(n, n))
    return connected_components(adj, directed=False)[0] == 1


class WeightedGraph:
    """Finite directed graph with conductances and masses.

    Vertices are dense integers 0..n-1.  `edges` is a sequence of
    (tail, head, conductance) triples, or the tuple of the three columns
    (tail, head, cond) as numpy arrays; for every edge (x, y) with x != y the
    reverse (y, x) must also be present (possibly with a different
    conductance).  Loops (x, x) are allowed and count as their own reverse.
    `linalg` keeps the factors of a graph's Laplacian for as long as the
    graph lives, so a graph must not be mutated once it has been queried.
    """

    def __init__(self, n, edges, masses, positions=None, check=True):
        self.n = int(n)
        columns = isinstance(edges, tuple) and len(edges) == 3 and \
            isinstance(edges[0], np.ndarray)
        tail, head, cond = edges if columns else \
            tuple(zip(*edges)) or ((), (), ())
        self.tail = np.array(tail, dtype=int)
        self.head = np.array(head, dtype=int)
        self.cond_a, self.masses_a = _values(cond), _values(masses)
        self.cond, self.masses = self.cond_a.tolist(), self.masses_a.tolist()
        self.positions = None if positions is None else np.asarray(positions, float)
        self.m_edges = len(self.tail)

        if check:
            self._validate()

        # out-edges as CSR: edge ids sorted stably by tail
        self.out_order = np.argsort(self.tail, kind="stable")
        self.out_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.tail, minlength=self.n))))

        # float views; c(x) and c^k(x) add x's out-edges in edge order
        # from 0, as `ck` does, exactly on exact data
        self.cond_f = np.asarray(self.cond_a, dtype=float)
        self.masses_f = np.asarray(self.masses_a, dtype=float)
        c = np.zeros(self.n, self.cond_a.dtype)
        np.add.at(c, self.tail, self.cond_a)
        self.c_f = c.astype(float)
        self.ck_f = (c + self.masses_a).astype(float)

    # -- validation -------------------------------------------------------

    def _validate(self):
        if len(self.masses) != self.n:
            raise ValueError("need one mass per vertex")
        if not np.all(self.cond_a > 0):
            raise ValueError("conductances must be strictly positive")
        if np.any(self.masses_a < 0):
            raise ValueError("masses must be nonnegative")
        code = self.tail * self.n + self.head
        lone = np.flatnonzero(~np.isin(self.head * self.n + self.tail, code))
        if lone.size:
            x, y = self.tail[lone[0]], self.head[lone[0]]
            raise ValueError(f"directed edge ({x},{y}) has no reverse")
        if self.n > 1 and not _one_component(self.n, self.tail, self.head):
            raise ValueError("graph must be connected")

    @cached_property
    def out_edges(self):
        """Row x: x's out-edge ids in edge order, as a list."""
        return csr_rows(self.out_order, self.out_ptr)

    # -- basic quantities ---------------------------------------------------

    def is_exact(self):
        return all(_is_exact(c) for c in self.cond) and all(
            _is_exact(m) for m in self.masses
        )

    def total_conductance(self, x):
        """c(x): total conductance of edges leaving x (loops included)."""
        return sum(self.cond[eid] for eid in self.out_edges[x])

    def ck(self, x):
        """c(x) + m(x), the total rate out of x for the killed walk."""
        return self.total_conductance(x) + self.masses[x]

    def edge_conductance(self, x, y):
        """Sum of conductances of all parallel edges x -> y (0 if none)."""
        tot = 0
        for eid in self.out_edges[x]:
            if self.head[eid] == y:
                tot = tot + self.cond[eid]
        return tot

    def neighbours(self, x):
        return sorted({int(self.head[eid]) for eid in self.out_edges[x]})

    def directed_edge_set(self):
        """Distinct (tail, head) pairs, loops included."""
        return sorted({(int(t), int(h)) for t, h in zip(self.tail, self.head)})


def symmetric_graph(n, und_edges, masses, positions=None):
    """Build a WeightedGraph from undirected (x, y, c) triples."""
    edges = []
    for x, y, c in und_edges:
        if x == y:
            edges.append((x, y, c))
        else:
            edges.append((x, y, c))
            edges.append((y, x, c))
    return WeightedGraph(n, edges, masses, positions=positions)


def grid_graph(nx, ny, c=Fraction(1), m=Fraction(0)):
    """nx-by-ny unit square grid: conductance c, mass m, vertex j nx + i
    at position (i, j)."""
    def vid(i, j):
        return j * nx + i

    edges = []
    for j in range(ny):
        for i in range(nx):
            if i + 1 < nx:
                edges.append((vid(i, j), vid(i + 1, j), c))
            if j + 1 < ny:
                edges.append((vid(i, j), vid(i, j + 1), c))
    pos = [(float(i), float(j)) for j in range(ny) for i in range(nx)]
    return symmetric_graph(nx * ny, edges, [m] * (nx * ny), positions=pos)


class CemeteryGraph:
    """The graph extended by a cemetery vertex absorbing the masses.

    The cemetery is a fresh vertex `rho` with an incoming edge (x, rho) of
    conductance m(x) for every x with positive mass; rho has no outgoing
    edges, so the (non-massive) Laplacian of the extension restricted to the
    base vertices is the massive Laplacian of the base.
    """

    def __init__(self, base: WeightedGraph):
        self.base = base
        self.rho = base.n
        self.cemetery_edges = [
            (x, self.rho, base.masses[x])
            for x in range(base.n)
            if base.masses[x] > 0
        ]

    @property
    def has_cemetery(self):
        return len(self.cemetery_edges) > 0

    def tree_to_forest(self, tree):
        """Drop the (x, rho) edges of a spanning tree rooted at rho."""
        return RootedForest(
            self.base.n,
            {x: (y if y != self.rho else ROOT) for x, y in tree.items()},
        )

    def forest_to_tree(self, forest):
        """Add an (x, rho) edge at every root of the forest."""
        out = {}
        for x in range(self.base.n):
            y = forest.outgoing[x]
            out[x] = self.rho if y == ROOT else y
        return out


def cemetery_extension(g: WeightedGraph) -> CemeteryGraph:
    return CemeteryGraph(g)


class RootedForest:
    """Outgoing-edge assignment: vertex -> head vertex or ROOT.

    Forests are stored over (tail, head) pairs rather than edge ids; the
    weight of a forest on a multigraph sums the parallel conductances, which
    matches the Boltzmann measure of the edge-id configuration space.
    """

    def __init__(self, n, outgoing):
        self.n = n
        self.outgoing = {int(x): int(outgoing[x]) for x in range(n)}

    def roots(self):
        return sorted(x for x, y in self.outgoing.items() if y == ROOT)

    def edges(self):
        return sorted((x, y) for x, y in self.outgoing.items() if y != ROOT)

    def is_acyclic(self):
        color = [0] * self.n  # 0 unseen, 1 on path, 2 done
        for start in range(self.n):
            x = start
            path = []
            while x != ROOT and color[x] == 0:
                color[x] = 1
                path.append(x)
                x = self.outgoing[x]
            if x != ROOT and color[x] == 1:
                return False
            for v in path:
                color[v] = 2
        return True

    def key(self):
        return tuple(sorted(self.outgoing.items()))

    def __eq__(self, other):
        return isinstance(other, RootedForest) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def weight(self, g: WeightedGraph):
        """Boltzmann weight: product of conductances and root masses."""
        w = Fraction(1) if g.is_exact() else 1.0
        for x, y in self.outgoing.items():
            if y == ROOT:
                w = w * g.masses[x]
            else:
                w = w * g.edge_conductance(x, y)
        return w


class CollapsedGraph:
    """The window with all outside vertices identified to an outer vertex o.

    Vertices 0..n-1 are the window vertices (reindexed); `o` is the extra
    vertex.  Every ambient edge leaving the window becomes its own parallel
    edge (x, o); `ambient_target` remembers the ambient head vertex, which
    the killed dimer weights need.
    """

    def __init__(self, n, edges, o_edges, positions, ambient_ids):
        self.n = n
        self.o = n
        self.edges = edges            # window (x, y, c) with both ends kept
        self.o_edges = o_edges        # (x, c, ambient_target)
        self.positions = positions
        self.ambient_ids = ambient_ids

    def as_weighted_graph(self):
        """The collapsed graph itself as a WeightedGraph on n+1 vertices.

        Edges to o get reverses (o, x) with equal conductance so the object
        passes validation; the Boltzmann measures used here never leave o.
        """
        edges = list(self.edges)
        for x, c, _ in self.o_edges:
            edges.append((x, self.o, c))
            edges.append((self.o, x, c))
        masses = [0] * (self.n + 1)
        return WeightedGraph(self.n + 1, edges, masses, check=False)


def _window(ambient: WeightedGraph, subset):
    """The sorted vertices of `subset`, the window index of each ambient
    vertex (-1 outside), the ambient edges out of the window in subset
    order then out-edge order, and which of them stay inside."""
    subset = np.unique(np.array(list(subset), dtype=int))
    index = np.full(ambient.n, -1)
    index[subset] = np.arange(len(subset))
    out = ambient.out_order[index[ambient.tail[ambient.out_order]] >= 0]
    return subset, index, out, index[ambient.head[out]] >= 0


def collapse_boundary(ambient: WeightedGraph, subset) -> CollapsedGraph:
    """Identify everything outside `subset` to a single outer vertex."""
    subset, index, out, stays = _window(ambient, subset)
    x, y, c = index[ambient.tail[out]], ambient.head[out], ambient.cond_a[out]
    edges = list(zip(x[stays].tolist(), index[y[stays]].tolist(),
                     c[stays].tolist()))
    o_edges = list(zip(x[~stays].tolist(), c[~stays].tolist(),
                       y[~stays].tolist()))
    positions = None if ambient.positions is None else \
        ambient.positions[subset]
    return CollapsedGraph(len(subset), edges, o_edges, positions,
                          subset.tolist())


def wired_restriction(ambient: WeightedGraph, subset) -> WeightedGraph:
    """Restrict to `subset` with wired boundary conditions.

    Conductances restrict, and every conductance leaving the subset (an
    o-edge of `collapse_boundary`) is added to the mass of its tail vertex,
    after the ambient mass and in edge order, so the massive Laplacian of
    the result is the restriction of the ambient massive Laplacian.  The
    window inherits the ambient graph's validity; only its connectivity is
    checked.
    """
    subset, index, out, stays = _window(ambient, subset)
    x, y, c = index[ambient.tail[out]], ambient.head[out], ambient.cond_a[out]
    masses = ambient.masses_a[subset].astype(np.result_type(
        ambient.masses_a, c))
    np.add.at(masses, x[~stays], c[~stays])
    positions = None if ambient.positions is None else \
        ambient.positions[subset]
    g = WeightedGraph(len(subset), (x[stays], index[y[stays]], c[stays]),
                      masses, positions=positions, check=False)
    if g.n > 1 and not _one_component(g.n, g.tail, g.head):
        raise ValueError("subset induces a disconnected subgraph")
    return g


# -- exhaustive enumeration oracles ---------------------------------------

def enumerate_forests(g: WeightedGraph, cap=8):
    """All rooted spanning forests with their exact Boltzmann weights.

    Every vertex independently picks ROOT or an out-neighbour (loops are
    never part of a forest); configurations with a directed cycle are
    discarded.  Weights are Fractions when the graph data is rational.
    Forests with a zero-weight choice (a root at a zero-mass vertex) are
    skipped.
    """
    if g.n > cap:
        raise ValueError(f"enumeration capped at {cap} vertices")
    choices = []
    for x in range(g.n):
        opts = [ROOT] + [y for y in g.neighbours(x) if y != x]
        choices.append(opts)

    exact = g.is_exact()
    out = {}
    results = []

    def weight_factor(x, y):
        if y == ROOT:
            return g.masses[x]
        return g.edge_conductance(x, y)

    def rec(x, w):
        if x == g.n:
            forest = RootedForest(g.n, dict(out))
            if forest.is_acyclic():
                results.append((forest, w))
            return
        for y in choices[x]:
            f = weight_factor(x, y)
            if f == 0:
                continue
            out[x] = y
            rec(x + 1, w * f)
        del out[x]

    rec(0, Fraction(1) if exact else 1.0)
    return results


def forest_partition_function(g: WeightedGraph, cap=8):
    total = Fraction(0) if g.is_exact() else 0.0
    for _, w in enumerate_forests(g, cap=cap):
        total = total + w
    return total


def enumerate_trees_rooted_at(g: WeightedGraph, root, cap=9):
    """All directed spanning trees rooted at `root`, with weights."""
    if g.n > cap:
        raise ValueError(f"enumeration capped at {cap} vertices")
    exact = g.is_exact()
    results = []
    out = {}
    order = [x for x in range(g.n) if x != root]

    def rec(i, w):
        if i == len(order):
            assign = dict(out)
            assign[root] = ROOT
            forest = RootedForest(g.n, assign)
            if forest.is_acyclic():
                results.append((forest, w))
            return
        x = order[i]
        for y in g.neighbours(x):
            if y == x:
                continue
            out[x] = y
            rec(i + 1, w * g.edge_conductance(x, y))
        del out[x]

    rec(0, Fraction(1) if exact else 1.0)
    return results


def tree_partition_function(g: WeightedGraph, root, cap=9):
    exact = g.is_exact()
    total = Fraction(0) if exact else 0.0
    for _, w in enumerate_trees_rooted_at(g, root, cap=cap):
        total = total + w
    return total
