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
from massiveforests.linalg import (
    assemble_massive_laplacian_exact,
    determinant_exact,
)


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
        amb = z_line(0, 4)
        with pytest.raises(ValueError):
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
