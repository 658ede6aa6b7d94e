"""Weighted directed graphs with vertex masses.

The basic object is a finite connected graph with positive conductances on
directed edges and nonnegative masses on vertices.  Parallel edges are kept
as distinct edge ids and loops are allowed.  Conductances and masses may be
floats or exact `fractions.Fraction` values; exact values survive through
the enumeration and rational linear algebra routines.

A graph holds its incidence once and each value once, as arrays that
every layer reads: the out-edges as one CSR, the conductances and masses
(`cond`, `masses`: float64 for float data, else the input's own values
as objects), c(x) and c^k(x) summed in that type, and float views of
all four, which on float data are the arrays themselves.

Each edge decision has one owner here.  `edge_columns` takes a graph's
edges as tuples or as columns.  `both_ways` turns undirected edges into
directed ones: undirected edge k gives x -> y, then y -> x, so that with
no loop before it they are edges 2k and 2k + 1, and a loop is kept once;
every builder of a symmetric graph goes through it.  `reverse_edges`
finds each edge's reverse, the first in edge order, by one stable sort of
integer edge codes and one binary search; validation, the file loader,
periodic graphs and the planar pairing read it.
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


def check_values(cond, masses):
    """ValueError unless the conductances are positive and the masses
    nonnegative, all finite; exact values compare exactly."""
    if not np.all(cond > 0):
        raise ValueError("conductances must be positive")
    if np.any(masses < 0):
        raise ValueError("masses must be nonnegative")
    if not np.isfinite(np.r_[cond, masses].astype(float)).all():
        raise ValueError("conductances and masses must be finite")


def edge_columns(edges, width):
    """`edges` as `width` columns: a tuple of `width` numpy arrays is taken
    as it is, a sequence of `width`-tuples is transposed."""
    if isinstance(edges, tuple) and len(edges) == width and \
            isinstance(edges[0], np.ndarray):
        return edges
    return tuple(zip(*edges)) or ((),) * width


def both_ways(x, y, c, c_back=None):
    """Directed columns (tail, head, cond) of undirected edges: x[k] -> y[k]
    with c[k], then y[k] -> x[k] with c_back[k] (c[k] if None), except
    that a loop x[k] = y[k] is kept once, with c[k]."""
    x, y, c = np.asarray(x, dtype=int), np.asarray(y, dtype=int), _values(c)
    back = c if c_back is None else _values(c_back)
    keep = np.stack([np.ones(len(x), bool), x != y], axis=1).ravel()
    return tuple(np.stack(pair, axis=1).ravel()[keep]
                 for pair in ((x, y), (y, x), (c, back)))


def reverse_edges(n, tail, head, off=None):
    """Each edge's reverse: the id of the first edge head -> tail in edge
    order, at -off for a periodic graph with (m, 2) integer offsets `off`,
    or -1 if there is none.  Edges compare by integer codes, offsets as
    digits in a balanced base, through one stable sort of the codes and
    one binary search."""
    code, rcode = tail * n + head, head * n + tail
    if off is not None:
        b = 2 * int(np.abs(off).max(initial=0)) + 1
        code = (code * b + off[:, 0]) * b + off[:, 1]
        rcode = (rcode * b - off[:, 0]) * b - off[:, 1]
    order = np.argsort(code, kind="stable")
    at = order[np.minimum(np.searchsorted(code[order], rcode),
                          len(code) - 1)]
    return np.where(code[at] == rcode, at, -1)


class WeightedGraph:
    """Finite directed graph with conductances and masses.

    Vertices are dense integers 0..n-1.  `edges` is a sequence of
    (tail, head, conductance) triples, or the tuple of the three columns
    (tail, head, cond) as numpy arrays (`edge_columns`); for every edge
    (x, y) with x != y the reverse (y, x) must also be present (possibly
    with a different conductance).  Loops (x, x) are allowed and count as
    their own reverse.
    `linalg` keeps the factors of a graph's Laplacian for as long as the
    graph lives, so a graph must not be mutated once it has been queried.
    """

    def __init__(self, n, edges, masses, positions=None, check=True):
        self.n = int(n)
        tail, head, cond = edge_columns(edges, 3)
        self.tail = np.array(tail, dtype=int)
        self.head = np.array(head, dtype=int)
        self.cond, self.masses = _values(cond), _values(masses)
        self.positions = None if positions is None else np.asarray(positions, float)
        self.m_edges = len(self.tail)

        if check:
            self._validate()

        # out-edges as CSR: edge ids sorted stably by tail
        self.out_order = np.argsort(self.tail, kind="stable")
        self.out_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.tail, minlength=self.n))))

        # c(x), c^k(x): x's out-edges added in edge order from 0, in the
        # data's type (exact 0 without out-edges, unless all data is float)
        self._c = np.zeros(self.n, np.result_type(self.cond, self.masses))
        np.add.at(self._c, self.tail, self.cond)
        self._ck = self._c + self.masses
        self.cond_f, self.masses_f, self.c_f, self.ck_f = (
            a.astype(float, copy=False)
            for a in (self.cond, self.masses, self._c, self._ck))

    # -- validation -------------------------------------------------------

    def _validate(self):
        if len(self.masses) != self.n:
            raise ValueError("need one mass per vertex")
        check_values(self.cond, self.masses)
        lone = np.flatnonzero(reverse_edges(self.n, self.tail, self.head) < 0)
        if lone.size:
            x, y = self.tail[lone[0]], self.head[lone[0]]
            raise ValueError(f"directed edge ({x},{y}) has no reverse")
        if self.n > 1 and self.components.any():
            raise ValueError("graph must be connected")

    @cached_property
    def components(self):
        """The label of each vertex's connected component, labels numbered
        in order of their least vertex; computed once, by validation or
        on first use."""
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components

        adj = coo_array((np.ones(self.m_edges), (self.tail, self.head)),
                        shape=(self.n, self.n))
        return connected_components(adj, directed=False)[1]

    # -- basic quantities ---------------------------------------------------

    def is_exact(self):
        return all(map(_is_exact, self.cond)) and \
            all(map(_is_exact, self.masses))

    def total_conductance(self, x):
        """c(x): total conductance of edges leaving x (loops included)."""
        return self._c[x]

    def ck(self, x):
        """c(x) + m(x), the total rate out of x for the killed walk."""
        return self._ck[x]

    def _out(self, x):
        """x's out-edge ids in edge order, a CSR slice; x must be a vertex."""
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} is not in 0..{self.n - 1}")
        return self.out_order[self.out_ptr[x]:self.out_ptr[x + 1]]

    def edge_conductance(self, x, y):
        """Sum of the parallel conductances x -> y, in edge order from 0."""
        e = self._out(x)
        return sum(self.cond[e[self.head[e] == y]], 0)

    def neighbours(self, x):
        """The sorted heads of x's out-edges."""
        return sorted(set(self.head[self._out(x)].tolist()))


def symmetric_graph(n, und_edges, masses, positions=None):
    """Build a WeightedGraph from undirected (x, y, c) triples, or their
    columns, each edge both ways."""
    return WeightedGraph(n, both_ways(*edge_columns(und_edges, 3)), masses,
                         positions=positions)


def grid_graph(nx, ny, c=Fraction(1), m=Fraction(0)):
    """nx-by-ny unit square grid: conductance c, mass m, vertex j nx + i
    at position (i, j); each vertex's edge to the right, then its edge
    up, both ways."""
    v = np.arange(nx * ny)
    i, j = v % nx, v // nx
    keep = np.stack([i + 1 < nx, j + 1 < ny], axis=1).ravel()
    x = np.repeat(v, 2)[keep]
    y = np.stack([v + 1, v + nx], axis=1).ravel()[keep]
    return WeightedGraph(nx * ny, both_ways(x, y, [c] * len(x)),
                         [m] * (nx * ny), positions=np.stack([i, j], axis=1))


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
            w = w * (g.masses[x] if y == ROOT else g.edge_conductance(x, y))
        return w


class CollapsedGraph:
    """The window with all outside vertices identified to an outer vertex o.

    Vertices 0..n-1 are the window vertices (reindexed); `o` is the extra
    vertex.  `edges` holds the window edges with both ends kept as the
    columns (tail, head, cond); every ambient edge leaving the window is its
    own spoke (x, o), and `spokes` holds them as the columns (tail, cond,
    ambient target), the target being the ambient head vertex, which the
    killed dimer weights need.  Both are in subset order, then out-edge
    order.
    """

    def __init__(self, n, edges, spokes, positions, ambient_ids):
        self.n = n
        self.o = n
        self.edges = edges
        self.spokes = spokes
        self.positions = positions
        self.ambient_ids = ambient_ids

    def as_weighted_graph(self):
        """The collapsed graph itself as a WeightedGraph on n+1 vertices.

        The window edges are followed by each spoke (x, o) both ways, the
        reverse (o, x) with equal conductance so the object passes
        validation; the Boltzmann measures used here never leave o.
        """
        x, c, _ = self.spokes
        spokes = both_ways(x, np.full_like(x, self.o), c)
        return WeightedGraph(self.n + 1, tuple(
            np.r_[a, b] for a, b in zip(self.edges, spokes)),
            [0] * (self.n + 1), check=False)


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
    x, y, c = index[ambient.tail[out]], ambient.head[out], ambient.cond[out]
    positions = None if ambient.positions is None else \
        ambient.positions[subset]
    return CollapsedGraph(
        len(subset), (x[stays], index[y[stays]], c[stays]),
        (x[~stays], c[~stays], y[~stays]), positions, subset.tolist())


def wired_restriction(ambient: WeightedGraph, subset) -> WeightedGraph:
    """Restrict to `subset` with wired boundary conditions.

    Conductances restrict, and every conductance leaving the subset (a
    spoke of `collapse_boundary`) is added to the mass of its tail vertex,
    after the ambient mass and in edge order, so the massive Laplacian of
    the result is the restriction of the ambient massive Laplacian.  The
    window inherits the ambient graph's validity; only its connectivity is
    checked.
    """
    subset, index, out, stays = _window(ambient, subset)
    x, y, c = index[ambient.tail[out]], ambient.head[out], ambient.cond[out]
    masses = ambient.masses[subset].astype(np.result_type(
        ambient.masses, c))
    np.add.at(masses, x[~stays], c[~stays])
    positions = None if ambient.positions is None else \
        ambient.positions[subset]
    g = WeightedGraph(len(subset), (x[stays], index[y[stays]], c[stays]),
                      masses, positions=positions, check=False)
    if g.n > 1 and g.components.any():
        raise ValueError("subset induces a disconnected subgraph")
    return g


# -- exhaustive enumeration oracles ---------------------------------------

def _steps(g: WeightedGraph, x):
    """(y, c_(x,y)) for each out-neighbour y != x of x, in sorted order."""
    return [(y, g.edge_conductance(x, y)) for y in g.neighbours(x) if y != x]


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
    choices = [[(y, f) for y, f in [(ROOT, g.masses[x])] + _steps(g, x)
                if f != 0] for x in range(g.n)]

    exact = g.is_exact()
    out = {}
    results = []

    def rec(x, w):
        if x == g.n:
            forest = RootedForest(g.n, dict(out))
            if forest.is_acyclic():
                results.append((forest, w))
            return
        for y, f in choices[x]:
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
    choices = [_steps(g, x) for x in order]

    def rec(i, w):
        if i == len(order):
            assign = dict(out)
            assign[root] = ROOT
            forest = RootedForest(g.n, assign)
            if forest.is_acyclic():
                results.append((forest, w))
            return
        x = order[i]
        for y, c in choices[i]:
            out[x] = y
            rec(i + 1, w * c)
        del out[x]

    rec(0, Fraction(1) if exact else 1.0)
    return results


def tree_partition_function(g: WeightedGraph, root, cap=9):
    exact = g.is_exact()
    total = Fraction(0) if exact else 0.0
    for _, w in enumerate_trees_rooted_at(g, root, cap=cap):
        total = total + w
    return total
