import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from massiveforests.graphs import (
    ROOT,
    RootedForest,
    WeightedGraph,
    collapse_boundary,
    enumerate_forests,
    enumerate_trees_rooted_at,
    forest_partition_function,
    grid_graph,
    reverse_edges,
    symmetric_graph,
    tree_partition_function,
    wired_restriction,
)
from massiveforests.doob import (
    check_massive_harmonic,
    doob_conductances,
    massive_laplacian_at,
)
from massiveforests.linalg import (
    assemble_massive_laplacian_exact,
    determinant_exact,
)
from massiveforests.walks import TransitionTable


def path_ab(c=Fraction(1), m=Fraction(1)):
    return symmetric_graph(2, [(0, 1, c)], [m, m])


def z_line(lo, hi, c=Fraction(1), m=Fraction(0)):
    """Path graph on integer points lo..hi inclusive."""
    n = hi - lo + 1
    edges = [(i, i + 1, c) for i in range(n - 1)]
    pos = [(float(i), 0.0) for i in range(lo, hi + 1)]
    return symmetric_graph(n, edges, [m] * n, positions=pos)


def random_rational_graph(rng, n_max=6, allow_loops=True, allow_parallel=True,
                          force_mass=True):
    """Connected random graph with small rational conductances and masses."""
    n = rng.integers(2, n_max + 1)
    und = []
    # random spanning tree to force connectivity
    for v in range(1, n):
        u = int(rng.integers(0, v))
        und.append((u, v))
    extra = rng.integers(0, n)
    for _ in range(int(extra)):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            und.append((int(u), int(v)))
        elif allow_loops:
            und.append((int(u), int(u)))
    if allow_parallel and len(und) > 0 and rng.random() < 0.5:
        und.append(und[int(rng.integers(0, len(und)))])

    def q():
        return Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))

    edges = []
    for u, v in und:
        if u == v:
            edges.append((u, v, q()))
        else:
            edges.append((u, v, q()))
            edges.append((v, u, q()))
    masses = [Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
              for _ in range(n)]
    if force_mass and all(m == 0 for m in masses):
        masses[0] = Fraction(1)
    return WeightedGraph(int(n), edges, masses)


def directed_edge_set(g):
    """Distinct (tail, head) pairs, loops included."""
    return sorted({(int(t), int(h)) for t, h in zip(g.tail, g.head)})


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
        x = np.flatnonzero(base.masses > 0)
        self.cemetery_edges = list(zip(x.tolist(), [self.rho] * len(x),
                                       base.masses[x].tolist()))

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


class TestConstruction:
    def test_missing_reverse_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, 1)], [0, 0])

    def test_nonpositive_conductance_rejected(self):
        with pytest.raises(ValueError):
            symmetric_graph(2, [(0, 1, 0)], [0, 0])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            symmetric_graph(2, [(0, 1, 1)], [-1, 0])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(4, [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)],
                          [0] * 4)

    def test_loop_allowed(self):
        g = WeightedGraph(1, [(0, 0, 2)], [1])
        assert g.total_conductance(0) == 2
        assert g.ck(0) == 3


class TestCemetery:
    def test_single_vertex(self):
        g = WeightedGraph(1, [], [2])
        cg = cemetery_extension(g)
        assert cg.cemetery_edges == [(0, 1, 2)]

    def test_zero_mass_is_identity(self):
        g = path_ab(m=Fraction(0))
        cg = cemetery_extension(g)
        assert not cg.has_cemetery

    def test_bijection_preserves_weights(self):
        g = path_ab()
        cg = cemetery_extension(g)
        forests = enumerate_forests(g)
        assert len(forests) == 3
        for forest, w in forests:
            tree = cg.forest_to_tree(forest)
            # tree weight on G^rho with conductances c^k
            tw = Fraction(1)
            for x, y in tree.items():
                if y == cg.rho:
                    tw *= g.masses[x]
                else:
                    tw *= g.edge_conductance(x, y)
            assert tw == w
            assert cg.tree_to_forest(tree) == forest


class TestWiredRestriction:
    def test_z_line_window(self):
        amb = z_line(-2, 3)
        g = wired_restriction(amb, [2, 3])  # ambient vertices 0 and 1
        assert typed(g.masses) == typed([Fraction(1), Fraction(1)])
        assert g.edge_conductance(0, 1) == 1

    def test_full_subset_identity(self):
        g = path_ab()
        h = wired_restriction(g, [0, 1])
        assert typed(h.masses) == typed(g.masses)

    def test_grid_interior_masses(self):
        amb = grid_graph(5, 5)
        subset = [amb.positions.tolist().index([float(i), float(j)])
                  for j in (1, 2, 3) for i in (1, 2, 3)]
        g = wired_restriction(amb, subset)
        counts = sorted(int(m) for m in g.masses)
        assert counts == [0, 1, 1, 1, 1, 2, 2, 2, 2]

    def test_disconnected_subset_rejected(self):
        for amb in (z_line(0, 4), grid_graph(5, 1)):
            with pytest.raises(ValueError,
                               match="subset induces a disconnected"):
                wired_restriction(amb, [0, 3])

    @pytest.mark.parametrize("subset, bad", [
        ([-1, 5, 2], -1), ([-1, 8, 5], -1), ([0, 9], 9), ([4, 12, -3], 12)])
    def test_subset_outside_refused(self, subset, bad):
        # neither a negative id, which numpy would read from the end, nor
        # one past n - 1 is a vertex
        amb = grid_graph(3, 3, c=1.0, m=0.5)
        lam = np.ones(9)
        for window in (lambda: wired_restriction(amb, subset),
                       lambda: collapse_boundary(amb, subset),
                       lambda: massive_laplacian_at(amb, lam, subset)):
            with pytest.raises(ValueError,
                               match=rf"^vertex {bad} is not in 0\.\.8$"):
                window()


class TestCollapse:
    def test_z_line_window(self):
        amb = z_line(-2, 3)
        col = collapse_boundary(amb, [2, 3])
        assert sorted((x, c) for x, c, _ in zip(*col.spokes)) == [
            (0, Fraction(1)), (1, Fraction(1))]

    def test_full_subset(self):
        g = path_ab()
        col = collapse_boundary(g, [0, 1])
        assert all(len(a) == 0 for a in col.spokes)

    def test_square_block(self):
        amb = grid_graph(4, 4)
        subset = [amb.positions.tolist().index([float(i), float(j)])
                  for j in (1, 2) for i in (1, 2)]
        col = collapse_boundary(amb, subset)
        per_vertex = {}
        for x, c, _ in zip(*col.spokes):
            per_vertex[x] = per_vertex.get(x, 0) + c
        assert sorted(per_vertex.values()) == [2, 2, 2, 2]

    def test_consistency_with_wired_trees(self):
        # RST of G^o rooted at o = RSF of the wired window, weight by weight
        amb = grid_graph(3, 3, m=Fraction(0))
        subset = [0, 1, 3, 4]
        g = wired_restriction(amb, subset)
        col = collapse_boundary(amb, subset)
        go = col.as_weighted_graph()
        z_forest = forest_partition_function(g)
        z_tree = tree_partition_function(go, col.o)
        assert z_forest == z_tree


class TestEnumeration:
    def test_single_vertex(self):
        g = WeightedGraph(1, [], [Fraction(2)])
        forests = enumerate_forests(g)
        assert len(forests) == 1
        forest, w = forests[0]
        assert forest.roots() == [0] and w == 2

    def test_path_three_forests(self):
        forests = enumerate_forests(path_ab())
        assert sorted(w for _, w in forests) == [1, 1, 1]
        assert forest_partition_function(path_ab()) == 3

    def test_triangle_trees(self):
        g = symmetric_graph(3, [(0, 1, Fraction(1)), (1, 2, Fraction(1)),
                                (0, 2, Fraction(1))], [0, 0, 0])
        trees = enumerate_trees_rooted_at(g, 0)
        assert len(trees) == 3
        assert tree_partition_function(g, 0) == 3

    def test_cap(self):
        g = grid_graph(3, 3)
        with pytest.raises(ValueError):
            enumerate_forests(g, cap=8)

    def test_loop_edges_never_in_forest(self):
        g = WeightedGraph(2, [(0, 1, 1), (1, 0, 1), (0, 0, 5)],
                          [Fraction(1), Fraction(1)])
        for forest, _ in enumerate_forests(g):
            assert (0, 0) not in forest.edges()

    @pytest.mark.parametrize("edges", [[], [(0, 0, Fraction(1))]])
    def test_massless_vertex_has_no_forest(self, edges):
        # its only choices (a root of mass 0, a loop) weigh nothing
        g = WeightedGraph(1, edges, [Fraction(0)])
        assert enumerate_forests(g) == []
        z = forest_partition_function(g)
        assert z == 0 and isinstance(z, Fraction)

    def test_vertex_without_steps_has_no_tree(self):
        g = WeightedGraph(2, [], [1, 1], check=False)
        assert enumerate_trees_rooted_at(g, 0) == []
        z = tree_partition_function(g, 0)
        assert z == 0 and isinstance(z, Fraction)

    @pytest.mark.parametrize("root", [-1, 3])
    def test_root_outside_refused(self, root):
        g = z_line(0, 2)
        with pytest.raises(ValueError, match=r"not in 0\.\.2"):
            enumerate_trees_rooted_at(g, root)
        with pytest.raises(ValueError, match=r"not in 0\.\.2"):
            tree_partition_function(g, root)


class TestMatrixForest:
    def test_random_family_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = random_rational_graph(rng)
            det = determinant_exact(assemble_massive_laplacian_exact(g))
            assert det == forest_partition_function(g)

    def test_forest_is_acyclic_detector(self):
        bad = RootedForest(2, {0: 1, 1: 0})
        assert not bad.is_acyclic()
        good = RootedForest(2, {0: 1, 1: ROOT})
        assert good.is_acyclic()


# -- the array-built graph core against per-vertex loops ----------------------


def random_float_graph(rng):
    """`random_rational_graph`'s shape (parallel edges, loops, zero masses)
    with float data that rounds, so that summation order shows."""
    g = random_rational_graph(rng)
    edges = [(int(t), int(h), float(c) + rng.random())
             for t, h, c in zip(g.tail, g.head, g.cond)]
    return WeightedGraph(g.n, edges, [float(m) * (0.5 + rng.random())
                                      for m in g.masses])


def connected_subset(rng, g):
    """A random connected vertex set, grown out of a random vertex."""
    subset = {int(rng.integers(g.n))}
    for _ in range(int(rng.integers(0, g.n))):
        frontier = sorted({y for x in subset for y in g.neighbours(x)}
                          - subset)
        if frontier:
            subset.add(frontier[int(rng.integers(len(frontier)))])
    return sorted(subset)


def loop_out_edges(g):
    return [[e for e in range(g.m_edges) if g.tail[e] == x]
            for x in range(g.n)]


def loop_collapse(g, subset):
    index, cond = {v: i for i, v in enumerate(subset)}, g.cond.tolist()
    edges, o_edges = [], []
    for v in subset:
        for e in loop_out_edges(g)[v]:
            y = int(g.head[e])
            if y in index:
                edges.append((index[v], index[y], cond[e]))
            else:
                o_edges.append((index[v], cond[e], y))
    return edges, o_edges


def loop_wired_masses(g, subset):
    masses = [g.masses.tolist()[v] for v in subset]
    for x, c, _ in loop_collapse(g, subset)[1]:
        masses[x] = masses[x] + c
    return masses


def loop_table(g):
    targets, cum = [], []
    for x, out in enumerate(loop_out_edges(g)):
        heads = [int(g.head[e]) for e in out]
        probs = [float(g.cond[e]) for e in out]
        if float(g.masses[x]) > 0:
            heads.append(ROOT)
            probs.append(float(g.masses[x]))
        ckx = float(sum(g.cond[e] for e in out) + g.masses[x])
        row = []
        for p in probs:
            row.append(p / ckx if not row else row[-1] + p / ckx)
        row[-1] = 1.0
        targets.append(heads)
        cum.append(row)
    return targets, cum


def typed(values):
    """(type, value) of each element of a list, or of an array as its
    `tolist` gives it: Python floats for float64, else the objects held."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return [(type(v), v) for v in values]


def same_graph(g, ref):
    """g and ref hold the same tail, head, cond, masses and positions,
    element for element and type for type."""
    assert g.n == ref.n
    assert g.tail.tolist() == ref.tail.tolist()
    assert g.head.tolist() == ref.head.tolist()
    assert typed(g.cond) == typed(ref.cond)
    assert typed(g.masses) == typed(ref.masses)
    assert g.cond.dtype == ref.cond.dtype
    assert g.masses.dtype == ref.masses.dtype
    assert (g.positions is None) == (ref.positions is None)
    if g.positions is not None:
        assert g.positions.shape == ref.positions.shape
        assert g.positions.tolist() == ref.positions.tolist()


def loop_symmetric_graph(n, und_edges, masses, positions=None):
    """`symmetric_graph` as one loop over the edges: each edge both ways,
    a loop once."""
    edges = []
    for x, y, c in und_edges:
        if x == y:
            edges.append((x, y, c))
        else:
            edges.append((x, y, c))
            edges.append((y, x, c))
    return WeightedGraph(n, edges, masses, positions=positions)


def loop_grid_graph(nx, ny, c=Fraction(1), m=Fraction(0)):
    """`grid_graph` as one loop over the vertices."""
    edges = []
    for j in range(ny):
        for i in range(nx):
            if i + 1 < nx:
                edges.append((j * nx + i, j * nx + i + 1, c))
            if j + 1 < ny:
                edges.append((j * nx + i, (j + 1) * nx + i, c))
    pos = [(float(i), float(j)) for j in range(ny) for i in range(nx)]
    return loop_symmetric_graph(nx * ny, edges, [m] * (nx * ny),
                                positions=pos)


def loop_laplacian_apply(g, f, x):
    """(Delta^k f)(x) for a function given on x and its neighbours, one
    out-edge at a time."""
    val = g.masses[x] * f[x]
    for eid in loop_out_edges(g)[x]:
        y = int(g.head[eid])
        if y == x:
            continue
        val = val + g.cond[eid] * (f[x] - f[y])
    return val


def loop_harmonicity(g, lam, subset):
    return max((abs(float(loop_laplacian_apply(g, lam, x)))
                / (float(g.ck(x)) * float(lam[x])) for x in subset),
               default=0.0)


def loop_steps(g, x):
    return [(y, g.edge_conductance(x, y)) for y in g.neighbours(x) if y != x]


def loop_enumerate_forests(g):
    """The forest recursion with its own (vertex -> head) dict; it raises
    KeyError at a vertex with no nonzero choice."""
    choices = [[(y, f) for y, f in [(ROOT, g.masses[x])] + loop_steps(g, x)
                if f != 0] for x in range(g.n)]
    out, results = {}, []

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

    rec(0, Fraction(1) if g.is_exact() else 1.0)
    return results


def loop_enumerate_trees(g, root):
    """The tree recursion over the vertices but the root, which it sets to
    ROOT at the end."""
    out, results = {}, []
    order = [x for x in range(g.n) if x != root]
    choices = [loop_steps(g, x) for x in order]

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

    rec(0, Fraction(1) if g.is_exact() else 1.0)
    return results


def loop_total(weighted, g):
    total = Fraction(0) if g.is_exact() else 0.0
    for _, w in weighted:
        total = total + w
    return total


def keyed(weighted):
    """(forest key, weight type, weight) of each enumerated forest."""
    return [(f.key(), type(w), w) for f, w in weighted]


class TestArrayCoreMatchesLoops:
    """Every array quantity of the graph core equals, with ==, the
    per-vertex loop it replaces: rational and float data, parallel edges,
    loops and zero-mass vertices."""

    @pytest.fixture(params=["rational", "float"])
    def cases(self, request):
        rng = np.random.default_rng(2024 if request.param == "rational"
                                    else 2025)
        out = []
        for _ in range(40):
            g = random_rational_graph(rng) if request.param == "rational" \
                else random_float_graph(rng)
            lam = {x: Fraction(int(rng.integers(1, 9)),
                               int(rng.integers(1, 5)))
                   for x in range(g.n)}
            if request.param == "float" or rng.random() < 0.3:
                lam = {x: float(v) + rng.random() for x, v in lam.items()}
            out.append((g, lam, connected_subset(rng, g)))
        return out

    def test_out_edges_and_sums(self, cases):
        for g, _, _ in cases:
            out = loop_out_edges(g)
            assert [g.out_order[g.out_ptr[x]:g.out_ptr[x + 1]].tolist()
                    for x in range(g.n)] == out
            c = [float(sum(g.cond[e] for e in row)) for row in out]
            ck = [float(sum(g.cond[e] for e in row) + g.masses[x])
                  for x, row in enumerate(out)]
            assert g.c_f.tolist() == c and g.ck_f.tolist() == ck
            assert [float(g.ck(x)) for x in range(g.n)] == ck

    def test_lookups(self, cases):
        # the parallel conductances added in edge order from 0, type for
        # type: numpy floats on float data, the held objects otherwise
        for g, _, _ in cases:
            for x, row in enumerate(loop_out_edges(g)):
                heads = [int(g.head[e]) for e in row]
                assert g.neighbours(x) == sorted(set(heads))
                for y in range(g.n):
                    cxy = 0
                    for e, h in zip(row, heads):
                        if h == y:
                            cxy = cxy + g.cond[e]
                    assert typed([g.edge_conductance(x, y)]) == typed([cxy])

    def test_massive_laplacian_at(self, cases):
        for g, lam, subset in cases:
            xs, fx, r = massive_laplacian_at(g, lam, subset)
            assert xs.tolist() == subset
            assert fx.tolist() == [lam[x] for x in subset]
            assert r.tolist() == [loop_laplacian_apply(g, lam, x)
                                  for x in subset]

    def test_window(self, cases):
        for g, _, subset in cases:
            col = collapse_boundary(g, subset)
            edges, o_edges = loop_collapse(g, subset)
            assert list(zip(*(a.tolist() for a in col.edges))) == edges
            assert list(zip(*(a.tolist() for a in col.spokes))) == o_edges
            w = wired_restriction(g, subset)
            assert list(zip(w.tail.tolist(), w.head.tolist(),
                            w.cond.tolist())) == edges
            assert typed(w.masses) == typed(loop_wired_masses(g, subset))
            # the collapsed graph: each spoke (x, o), then (o, x)
            o = len(subset)
            same_graph(col.as_weighted_graph(), WeightedGraph(
                o + 1, edges + [e for x, c, _ in o_edges
                                for e in ((x, o, c), (o, x, c))],
                [0] * (o + 1), check=False))

    def test_doob_tilt(self, cases):
        for g, lam, _ in cases:
            t = doob_conductances(g, lam)
            assert typed(t.cond) == typed([
                g.cond.tolist()[e] * lam[int(g.head[e])]
                / lam[int(g.tail[e])] for e in range(g.m_edges)])
            assert t.tail.tolist() == g.tail.tolist()
            assert t.head.tolist() == g.head.tolist()
            assert all(m == 0 for m in t.masses)

    def test_transition_table(self, cases):
        for g, _, _ in cases:
            table = TransitionTable(g)
            targets, cum = loop_table(g)
            assert table.targets == targets and table.cum == cum

    def test_harmonicity(self, cases):
        for g, lam, subset in cases:
            assert check_massive_harmonic(g, lam, subset) == \
                loop_harmonicity(g, lam, subset)
            assert check_massive_harmonic(g, lam, range(g.n)) == \
                loop_harmonicity(g, lam, range(g.n))

    def test_enumerations(self, cases):
        # forest for forest, in the same order, weights type for type
        for g, _, _ in cases:
            runs = [(enumerate_forests(g), forest_partition_function(g),
                     loop_enumerate_forests(g))]
            runs += [(enumerate_trees_rooted_at(g, r),
                      tree_partition_function(g, r),
                      loop_enumerate_trees(g, r)) for r in range(g.n)]
            for got, z, ref in runs:
                assert keyed(got) == keyed(ref)
                assert typed([z]) == typed([loop_total(ref, g)])


class TestLookups:
    """`edge_conductance` and `neighbours` read x's one slice of the CSR."""

    @pytest.mark.parametrize("x", [-2, -1, 9])
    def test_vertex_outside_refused(self, x):
        # -2 must not alias vertex 7's row, nor 9 fail with an IndexError
        g = grid_graph(3, 3, m=0.5)
        with pytest.raises(ValueError, match=r"not in 0\.\.8"):
            g.edge_conductance(x, 6)
        with pytest.raises(ValueError, match=r"not in 0\.\.8"):
            g.neighbours(x)

    def test_first_lookup_builds_no_rows(self):
        # a list of out-edge ids per vertex would take ~26 MB here
        g = grid_graph(300, 300)
        tracemalloc.start()
        try:
            assert g.edge_conductance(5, 6) == 1
            assert g.neighbours(5) == [4, 6, 305]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


VALUES = {"fraction": lambda k: Fraction(k, 3), "int": lambda k: k,
          "float": lambda k: k / 3}


class TestBuildersMatchLoops:
    """The column builders give what one loop over the edges gave."""

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_symmetric_graph(self, kind):
        value, rng = VALUES[kind], np.random.default_rng(7)
        cases = [(1, [], [value(1)]), (1, [(0, 0, value(2))], [value(0)]),
                 (2, [(0, 1, value(1)), (1, 1, value(4)), (0, 1, value(2))],
                  [value(1), value(0)])]
        for _ in range(30):
            n = int(rng.integers(2, 7))
            und = [(int(rng.integers(v)), v) for v in range(1, n)]
            und += [tuple(map(int, rng.integers(0, n, size=2)))
                    for _ in range(int(rng.integers(0, 2 * n)))]
            und += und[:int(rng.integers(0, 2))]  # a parallel edge
            cases.append((n, [(x, y, value(int(rng.integers(1, 9))))
                              for x, y in und],
                          [value(int(rng.integers(0, 4))) for _ in range(n)]))
        for n, und, masses in cases:
            same_graph(symmetric_graph(n, und, masses),
                       loop_symmetric_graph(n, und, masses))
        positions = [(0.0, 0.0), (1.0, 0.5)]
        same_graph(symmetric_graph(2, [(0, 1, value(1))], [value(1)] * 2,
                                   positions=positions),
                   loop_symmetric_graph(2, [(0, 1, value(1))],
                                        [value(1)] * 2, positions=positions))

    @pytest.mark.parametrize("kind", sorted(VALUES))
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (4, 1), (3, 5)])
    def test_grid_graph(self, kind, nx, ny):
        c, m = VALUES[kind](2), VALUES[kind](1)
        same_graph(grid_graph(nx, ny, c, m), loop_grid_graph(nx, ny, c, m))
        same_graph(grid_graph(nx, ny), loop_grid_graph(nx, ny))


def isin_lone_edges(n, tail, head, off=None):
    """The edges without a reverse, found by hashing the edge codes."""
    code, rcode = tail * n + head, head * n + tail
    if off is not None:
        b = 2 * int(np.abs(off).max(initial=0)) + 1
        code = (code * b + off[:, 0]) * b + off[:, 1]
        rcode = (rcode * b - off[:, 0]) * b - off[:, 1]
    return np.flatnonzero(~np.isin(rcode, code))


class TestReverseEdges:
    """The sorted lookup finds each edge's first reverse in edge order, and
    the same lone edges as hashing, on random multigraphs with parallel
    edges, loops and edges without a reverse."""

    @pytest.mark.parametrize("periodic", [False, True],
                             ids=["plain", "periodic"])
    def test_random_multigraphs(self, periodic):
        rng = np.random.default_rng(11 + periodic)
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(0, 25))
            tail, head = rng.integers(0, n, size=(2, m))
            off = rng.integers(-2, 3, size=(m, 2)) if periodic else None
            def reverses(e):
                return [r for r in range(m) if tail[r] == head[e] and
                        head[r] == tail[e] and
                        (off is None or (off[r] == -off[e]).all())]

            rev = reverse_edges(n, tail, head, off)
            assert rev.tolist() == [(reverses(e) or [-1])[0]
                                    for e in range(m)]
            assert np.flatnonzero(rev < 0).tolist() == \
                isin_lone_edges(n, tail, head, off).tolist()


class TestValuesHeldOnce:
    """A graph holds its conductances and masses once, as arrays: float64
    for float data, else the input's own values as objects.  c(x), c^k(x)
    and the parallel sums equal a loop over the input edges, added in edge
    order from 0, type for type (np.float64 on float data), and the edge
    counter's pairs equal the per-edge construction."""

    KINDS = ["fraction", "int", "float", "mixed"]

    @staticmethod
    def data(rng, kind, n):
        """One random value of `kind` for each of n slots; mixed data takes
        Fractions, ints and floats in turn."""
        def one(i):
            a, b = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            k = kind if kind != "mixed" else ("fraction", "int", "float")[i % 3]
            return {"fraction": Fraction(a, b), "int": a,
                    "float": a / b + rng.random()}[k]
        return [one(i) for i in range(n)]

    def cases(self):
        rng = np.random.default_rng(42)
        for kind in self.KINDS:
            for _ in range(15):
                n = int(rng.integers(1, 6))
                und = [(int(rng.integers(0, v)), v) for v in range(1, n)]
                # parallel edges and loops
                und += [tuple(map(int, rng.integers(0, n, 2)))
                        for _ in range(int(rng.integers(0, 2 * n)))]
                c = self.data(rng, kind, len(und))
                edges = [e for (x, y), v in zip(und, c)
                         for e in ([(x, y, v)] if x == y else
                                   [(x, y, v), (y, x, v)])]
                masses = self.data(rng, kind, n)
                masses[0] = 0 * masses[0]  # a massless vertex
                yield kind, edges, masses, WeightedGraph(n, edges, masses)
            # no edges at all
            masses = self.data(rng, kind, 1)
            yield kind, [], masses, WeightedGraph(1, [], masses)

    def test_arrays_hold_the_input_types(self):
        for kind, edges, masses, g in self.cases():
            for held, given in ((g.cond, [c for _, _, c in edges]),
                                (g.masses, masses)):
                # no values at all make an empty float64 array
                assert isinstance(held, np.ndarray)
                assert held.dtype == (np.float64 if kind == "float" or
                                      not given else object)
                if kind == "float":
                    assert held.tolist() == given
                else:
                    assert typed(held) == typed(given)

    def test_sums_equal_a_loop_type_for_type(self):
        def same(value, want, all_float):
            assert value == want
            assert type(value) is (np.float64 if all_float else type(want))

        for kind, edges, masses, g in self.cases():
            all_float = kind == "float"
            for x in range(g.n):
                c = 0
                for t, _, v in edges:
                    if t == x:
                        c = c + v
                same(g.total_conductance(x), c, all_float)
                same(g.ck(x), c + masses[x], all_float)
                for y in range(g.n):
                    cxy = 0
                    for t, h, v in edges:
                        if (t, h) == (x, y):
                            cxy = cxy + v
                    if cxy:
                        same(g.edge_conductance(x, y), cxy, all_float)
                    else:
                        assert typed([g.edge_conductance(x, y)]) == \
                            typed([0])

    def test_edge_counter_pairs(self):
        from massiveforests.walks import WilsonEdgeCounter

        tiny = Fraction(1, 10 ** 400)  # positive, but 0.0 as a float
        graphs = [g for _, _, _, g in self.cases()
                  if (g.masses > 0).any()]
        graphs.append(symmetric_graph(3, [(0, 1, Fraction(1)),
                                          (1, 2, Fraction(2))],
                                      [tiny, Fraction(0), Fraction(1)]))
        assert float(graphs[-1].masses[0]) == 0.0
        for g in graphs:
            masses = g.masses.tolist()
            want = directed_edge_set(g) + [
                (x, ROOT) for x in range(g.n) if masses[x] > 0]
            pairs = WilsonEdgeCounter(g).pairs
            assert pairs == want
            assert {type(v) for p in pairs for v in p} == {int}
        assert (0, ROOT) in pairs
