from fractions import Fraction

import numpy as np
import pytest

from massiveforests.graphs import collapse_boundary, symmetric_graph
from massiveforests.planar import build_dual_and_double, extract_faces

from test_graphs import grid_graph


def grid_window(nx_amb, ny_amb, cols, rows, c=Fraction(1)):
    """Collapsed window of a grid: subset given by column/row index lists."""
    amb = grid_graph(nx_amb, ny_amb, c=c)
    subset = [amb.positions.tolist().index([float(i), float(j)])
              for j in rows for i in cols]
    col = collapse_boundary(amb, subset)
    return amb, col


def white_dicts(dg):
    """The per-white dicts the double graph once kept, rebuilt from its
    edges and faces as a reference independent of the white table."""
    return [{"edge": e, "x": e.x, "y": e.y,
             "left": dg.structure.left_face(e.halves[0]),
             "right": dg.structure.left_face(e.halves[0].twin)}
            for e in dg.edges]


def ambient_ends(dg):
    """The ambient vertices behind each white's x and y, a spoke's ambient
    target standing in for o, rebuilt as `white_dicts` is."""
    ids = dg.col.ambient_ids
    return [(ids[e.x], e.ambient_target if e.y == "o" else ids[e.y])
            for e in dg.edges]


class TestFaces:
    def test_single_vertex_four_spokes(self):
        amb, col = grid_window(3, 3, [1], [1])
        structure, edges = extract_faces(col, amb.positions)
        assert len(edges) == 4
        assert len(structure.faces) == 4
        assert all(len(walk) == 2 for walk in structure.faces)

    def test_degenerate_single_spoke(self):
        # one vertex with one boundary edge: a single face, used twice
        amb = symmetric_graph(2, [(0, 1, 1)], [0, 0],
                              positions=[(0, 0), (1, 0)])
        col = collapse_boundary(amb, [0])
        structure, edges = extract_faces(col, amb.positions)
        assert len(edges) == 1
        assert len(structure.faces) == 1

    def test_block_2x2_euler(self):
        amb, col = grid_window(4, 4, [1, 2], [1, 2])
        structure, edges = extract_faces(col, amb.positions)
        # V=5 (4+o), E=4+8=12, F=9 on the sphere
        assert len(edges) == 12
        assert len(structure.faces) == 9
        inner = [f for f in range(9) if f not in structure.o_faces]
        assert len(inner) == 1
        assert structure.degree(inner[0]) == 4

    def test_every_half_edge_in_one_face(self):
        amb, col = grid_window(5, 5, [1, 2, 3], [1, 2])
        structure, edges = extract_faces(col, amb.positions)
        seen = set()
        for walk in structure.faces:
            for h in walk:
                assert h.uid not in seen
                seen.add(h.uid)
        assert len(seen) == 2 * len(edges)


class TestDoubleGraph:
    def test_counts_balanced_family(self):
        cases = [
            ((3, 3), [1], [1]),
            ((4, 3), [1, 2], [1]),
            ((4, 4), [1, 2], [1, 2]),
            ((5, 4), [1, 2, 3], [1, 2]),
            ((5, 5), [1, 2, 3], [1, 2, 3]),
        ]
        for (nx, ny), cols, rows in cases:
            amb, col = grid_window(nx, ny, cols, rows)
            structure, dg = build_dual_and_double(col, amb.positions)
            assert dg.counts_balanced(), (cols, rows)

    def test_single_edge_window(self):
        amb, col = grid_window(4, 3, [1, 2], [1])
        structure, dg = build_dual_and_double(col, amb.positions)
        assert dg.n_white == 7  # 1 inner edge + 6 spokes
        assert dg.n_white == dg.n_black

    def test_white_records_both_edges(self):
        amb, col = grid_window(4, 4, [1, 2], [1, 2])
        _, dg = build_dual_and_double(col, amb.positions)
        for w, info in enumerate(white_dicts(dg)):
            assert info["left"] != info["right"]
            assert {k for (_, k, _) in dg.white_neighbours(w)} <= \
                {"primal", "dual"}

    def test_degenerate_single_white(self):
        amb = symmetric_graph(2, [(0, 1, 1)], [0, 0],
                              positions=[(0, 0), (1, 0)])
        col = collapse_boundary(amb, [0])
        _, dg = build_dual_and_double(col, amb.positions)
        assert dg.n_white == 1 and dg.n_black == 1
        # the only neighbour left is the primal vertex
        assert dg.white_neighbours(0) == [(0, "primal", 0)]

    def test_r_must_be_boundary(self):
        amb, col = grid_window(4, 4, [1, 2], [1, 2])
        structure, edges = extract_faces(col, amb.positions)
        inner = [f for f in range(len(structure.faces))
                 if f not in structure.o_faces][0]
        from massiveforests.planar import DoubleGraph
        with pytest.raises(ValueError):
            DoubleGraph(col, structure, edges, r=inner)

    def test_bipartite_structure(self):
        amb, col = grid_window(5, 5, [1, 2, 3], [1, 2, 3])
        _, dg = build_dual_and_double(col, amb.positions)
        # whites only ever neighbour blacks (by construction); each white
        # has at most 4 neighbours and interior whites exactly 4
        for w in range(dg.n_white):
            nb = dg.white_neighbours(w)
            assert 1 <= len(nb) <= 4
