from fractions import Fraction

import numpy as np
import pytest

from massiveforests.graphs import (
    ROOT,
    CemeteryGraph,
    RootedForest,
    WeightedGraph,
    cemetery_extension,
    collapse_boundary,
    enumerate_forests,
    enumerate_trees_rooted_at,
    forest_partition_function,
    grid_graph,
    symmetric_graph,
    tree_partition_function,
    wired_restriction,
)
from massiveforests.doob import (
    check_massive_harmonic,
    doob_conductances,
    massive_laplacian_apply,
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
        assert g.masses == [Fraction(1), Fraction(1)]
        assert g.edge_conductance(0, 1) == 1

    def test_full_subset_identity(self):
        g = path_ab()
        h = wired_restriction(g, [0, 1])
        assert h.masses == g.masses

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


class TestCollapse:
    def test_z_line_window(self):
        amb = z_line(-2, 3)
        col = collapse_boundary(amb, [2, 3])
        assert sorted((x, c) for x, c, _ in col.o_edges) == [
            (0, Fraction(1)), (1, Fraction(1))]

    def test_full_subset(self):
        g = path_ab()
        col = collapse_boundary(g, [0, 1])
        assert col.o_edges == []

    def test_square_block(self):
        amb = grid_graph(4, 4)
        subset = [amb.positions.tolist().index([float(i), float(j)])
                  for j in (1, 2) for i in (1, 2)]
        col = collapse_boundary(amb, subset)
        per_vertex = {}
        for x, c, _ in col.o_edges:
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
    index = {v: i for i, v in enumerate(subset)}
    edges, o_edges = [], []
    for v in subset:
        for e in loop_out_edges(g)[v]:
            y = int(g.head[e])
            if y in index:
                edges.append((index[v], index[y], g.cond[e]))
            else:
                o_edges.append((index[v], g.cond[e], y))
    return edges, o_edges


def loop_wired_masses(g, subset):
    masses = [g.masses[v] for v in subset]
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


def loop_harmonicity(g, lam, subset):
    return max((abs(float(massive_laplacian_apply(g, lam, x)))
                / (float(g.ck(x)) * float(lam[x])) for x in subset),
               default=0.0)


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
            assert [list(map(int, g.out_edges[x])) for x in range(g.n)] == out
            c = [float(sum(g.cond[e] for e in row)) for row in out]
            ck = [float(sum(g.cond[e] for e in row) + g.masses[x])
                  for x, row in enumerate(out)]
            assert g.c_f.tolist() == c and g.ck_f.tolist() == ck
            assert [float(g.ck(x)) for x in range(g.n)] == ck

    def test_window(self, cases):
        for g, _, subset in cases:
            col = collapse_boundary(g, subset)
            edges, o_edges = loop_collapse(g, subset)
            assert col.edges == edges and col.o_edges == o_edges
            w = wired_restriction(g, subset)
            assert list(zip(w.tail.tolist(), w.head.tolist(), w.cond)) \
                == edges
            assert w.masses == loop_wired_masses(g, subset)

    def test_doob_tilt(self, cases):
        for g, lam, _ in cases:
            t = doob_conductances(g, lam)
            assert t.cond == [g.cond[e] * lam[int(g.head[e])]
                              / lam[int(g.tail[e])]
                              for e in range(g.m_edges)]
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
