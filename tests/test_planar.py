import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from massiveforests import planar
from massiveforests.graphs import (
    ROOT,
    CollapsedGraph,
    collapse_boundary,
    symmetric_graph,
)
from massiveforests.planar import DoubleGraph, extract_faces

from test_graphs import grid_graph


def grid_window(nx_amb, ny_amb, cols, rows, c=Fraction(1)):
    """Collapsed window of a grid: subset given by column/row index lists."""
    amb = grid_graph(nx_amb, ny_amb, c=c)
    subset = [amb.positions.tolist().index([float(i), float(j)])
              for j in rows for i in cols]
    col = collapse_boundary(amb, subset)
    return amb, col


# -- the object extraction the array layer replaced, as the loop reference ---


class HalfEdge:
    __slots__ = ("uid", "edge", "tail", "head", "angle", "twin")

    def __init__(self, uid, edge, tail, head, angle):
        self.uid = uid
        self.edge = edge
        self.tail = tail  # vertex id or 'o'
        self.head = head
        self.angle = angle  # direction angle at tail (None at o)
        self.twin = None


class UndirectedEdge:
    """One undirected edge of G^o; spokes carry their ambient endpoint."""

    __slots__ = ("uid", "x", "y", "cond", "ambient_target", "direction",
                 "halves")

    def __init__(self, uid, x, y, cond, ambient_target=None, direction=None):
        self.uid = uid
        self.x = x
        self.y = y  # 'o' for spokes
        self.cond = cond
        self.ambient_target = ambient_target
        self.direction = direction
        self.halves = []


def loop_edges(col, ambient_positions=None):
    """Pair the directed window edges into undirected ones, plus spokes."""
    pos = col.positions
    if pos is None:
        raise ValueError("planar constructions need vertex coordinates")
    pairs = {}
    for (x, y, c) in zip(*(a.tolist() for a in col.edges)):
        key = (min(x, y), max(x, y))
        pairs.setdefault(key, []).append((x, y, c))
    edges = []
    for (a, b), items in sorted(pairs.items()):
        fwd = [it for it in items if it[0] == a]
        bwd = [it for it in items if it[0] == b]
        if len(fwd) != len(bwd):
            raise ValueError("unpaired directed edges in window")
        for (x, y, c), (_, _, c2) in zip(fwd, bwd):
            if abs(float(c) - float(c2)) > 1e-12 * max(1.0, abs(float(c))):
                raise ValueError(
                    "double-graph constructions need symmetric conductances")
            edges.append(UndirectedEdge(len(edges), x, y, c))
    for (a, b), items in sorted(pairs.items()):
        if len(items) > 2:
            ids = col.ambient_ids
            raise ValueError(
                f"parallel edges between window vertices {a} and {b} "
                f"(ambient {ids[a]} and {ids[b]}) have no planar embedding")
    for (x, c, target) in zip(*(a.tolist() for a in col.spokes)):
        if ambient_positions is not None:
            d = np.asarray(ambient_positions[target], float) - pos[x]
        else:
            d = None
        edges.append(UndirectedEdge(len(edges), x, "o", c,
                                    ambient_target=target, direction=d))
    return edges


def loop_faces(col, ambient_positions=None):
    """(faces, face_of_half, o_faces, edges) of G^o by object walks."""
    pos = col.positions
    edges = loop_edges(col, ambient_positions)

    halves = []
    out_at = [[] for _ in range(col.n)]
    for e in edges:
        if e.y == "o":
            if e.direction is None:
                raise ValueError("spokes need ambient directions")
            ang = math.atan2(e.direction[1], e.direction[0])
            h1 = HalfEdge(len(halves), e, e.x, "o", ang)
            halves.append(h1)
            h2 = HalfEdge(len(halves), e, "o", e.x, None)
            halves.append(h2)
        else:
            d = pos[e.y] - pos[e.x]
            ang = math.atan2(d[1], d[0])
            h1 = HalfEdge(len(halves), e, e.x, e.y, ang)
            halves.append(h1)
            h2 = HalfEdge(len(halves), e, e.y, e.x,
                          math.atan2(-d[1], -d[0]))
            halves.append(h2)
        h1.twin, h2.twin = h2, h1
        e.halves = [h1, h2]
        out_at[h1.tail].append(h1)
        if h2.tail != "o":
            out_at[h2.tail].append(h2)

    for x in range(col.n):
        for h in out_at[x]:
            if h.head == h.tail:
                raise ValueError("loop edges are not supported in G^o")
        out_at[x].sort(key=lambda h: h.angle)

    def cw_next(h):
        ring = out_at[h.tail]
        i = ring.index(h)
        return ring[(i - 1) % len(ring)]

    def next_half(h):
        if h.head == "o":
            return h.twin
        return cw_next(h.twin)

    visited = [False] * len(halves)
    orbits = []
    for h in halves:
        if visited[h.uid]:
            continue
        orbit = []
        cur = h
        while not visited[cur.uid]:
            visited[cur.uid] = True
            orbit.append(cur)
            cur = next_half(cur)
        orbits.append(orbit)

    faces = []
    for orbit in orbits:
        cuts = [i for i, h in enumerate(orbit) if h.head == "o"]
        if not cuts:
            faces.append(orbit)
            continue
        for a, b in zip(cuts, cuts[1:] + [cuts[0] + len(orbit)]):
            faces.append([orbit[(i + 1) % len(orbit)] for i in range(a, b)])

    face_of_half, o_faces = {}, []
    for fid, walk in enumerate(faces):
        for h in walk:
            face_of_half[h.uid] = fid
        if any(h.head == "o" for h in walk):
            o_faces.append(fid)
    n_v = col.n + (1 if len(col.spokes[0]) else 0)
    if n_v - len(edges) + len(faces) != 2:
        raise ValueError(
            f"face extraction failed Euler's relation: V={n_v} "
            f"E={len(edges)} F={len(faces)}")
    return faces, face_of_half, o_faces, edges


# each double graph built here keeps its loop reference beside it
REFERENCE = weakref.WeakKeyDictionary()


def build_dual_and_double(col, ambient_positions=None):
    """`planar.build_dual_and_double`, with the loop reference of the same
    window kept for `white_dicts` and `ambient_ends`."""
    structure, dg = planar.build_dual_and_double(col, ambient_positions)
    REFERENCE[dg] = loop_faces(col, ambient_positions)
    return structure, dg


def white_dicts(dg):
    """The per-white dicts the double graph once kept, rebuilt from the
    loop reference as a reference independent of the white table."""
    _, face_of_half, _, edges = REFERENCE[dg]
    return [{"edge": e, "x": e.x, "y": e.y,
             "left": face_of_half[e.halves[0].uid],
             "right": face_of_half[e.halves[1].uid]}
            for e in edges]


def ambient_ends(dg):
    """The ambient vertices behind each white's x and y, a spoke's ambient
    target standing in for o, rebuilt as `white_dicts` is."""
    ids = dg.col.ambient_ids
    return [(ids[e.x], e.ambient_target if e.y == "o" else ids[e.y])
            for e in REFERENCE[dg][3]]


class TestFaces:
    def test_single_vertex_four_spokes(self):
        amb, col = grid_window(3, 3, [1], [1])
        structure = extract_faces(col, amb.positions)
        assert len(structure.x) == 4
        assert len(structure.faces) == 4
        assert all(len(walk) == 2 for walk in structure.faces)

    def test_degenerate_single_spoke(self):
        # one vertex with one boundary edge: a single face, used twice
        amb = symmetric_graph(2, [(0, 1, 1)], [0, 0],
                              positions=[(0, 0), (1, 0)])
        col = collapse_boundary(amb, [0])
        structure = extract_faces(col, amb.positions)
        assert len(structure.x) == 1
        assert len(structure.faces) == 1

    def test_block_2x2_euler(self):
        amb, col = grid_window(4, 4, [1, 2], [1, 2])
        structure = extract_faces(col, amb.positions)
        # V=5 (4+o), E=4+8=12, F=9 on the sphere
        assert len(structure.x) == 12
        assert len(structure.faces) == 9
        inner = [f for f in range(9) if f not in structure.o_faces]
        assert len(inner) == 1
        assert len(structure.faces[inner[0]]) == 4

    def test_every_half_edge_in_one_face(self):
        amb, col = grid_window(5, 5, [1, 2, 3], [1, 2])
        structure = extract_faces(col, amb.positions)
        seen = set()
        for walk in structure.faces:
            for h in walk.tolist():
                assert h not in seen
                seen.add(h)
        assert len(seen) == 2 * len(structure.x)


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
        structure = extract_faces(col, amb.positions)
        inner = [f for f in range(len(structure.faces))
                 if f not in structure.o_faces][0]
        with pytest.raises(ValueError):
            DoubleGraph(col, structure, r=inner)

    def test_bipartite_structure(self):
        amb, col = grid_window(5, 5, [1, 2, 3], [1, 2, 3])
        _, dg = build_dual_and_double(col, amb.positions)
        # whites only ever neighbour blacks (by construction); each white
        # has at most 4 neighbours and interior whites exactly 4
        for w in range(dg.n_white):
            nb = dg.white_neighbours(w)
            assert 1 <= len(nb) <= 4


# -- the array layer against the loop reference, array for array ------------


def parallel_spoke_window(exact, extra=((1, 5),)):
    """A 2x2 block of the 4x4 grid whose corner vertex 5 has a second
    spoke parallel to its spoke to 1: equal angles, tied in half order.
    Conductances vary edge by edge, exact when `exact`."""
    grid = grid_graph(4, 4)
    und = [(x, y) for x, y in zip(grid.tail.tolist(), grid.head.tolist())
           if x < y] + list(extra)
    value = Fraction if exact else float
    amb = symmetric_graph(16, [(x, y, value(1 + k % 3) / 2)
                               for k, (x, y) in enumerate(und)],
                          [value(0)] * 16, positions=grid.positions)
    return amb, collapse_boundary(amb, [5, 6, 9, 10])


def bulk_window(kind, seed, size, margin):
    """A rectangle of bulk vertices of a seeded square or rhombic grid."""
    from massiveforests.elliptic import complete_integrals
    from massiveforests.isoradial import (
        build_rhombic_grid,
        build_square_grid,
        random_rhombic_angles,
        z_invariant_weights,
    )

    rng = np.random.default_rng(seed)
    if kind == "square":
        grid = build_square_grid(0.5, size)
    else:
        grid = build_rhombic_grid(0.5, *random_rhombic_angles(rng, size))
    amb = z_invariant_weights(grid, complete_integrals(0.45))
    cx, cy = grid.positions.mean(axis=0) + rng.uniform(-0.3, 0.3, 2)
    bulk = set(grid.bulk_vertices())
    subset = [v for v in grid.rectangle_window(cx - margin, cx + margin,
                                               cy - margin, cy + margin)
              if v in bulk]
    return amb, collapse_boundary(amb, subset)


def one_spoke_window():
    amb = symmetric_graph(2, [(0, 1, 1)], [0, 0], positions=[(0, 0), (1, 0)])
    return amb, collapse_boundary(amb, [0])


def whole_grid_window():
    amb = grid_graph(3, 3)
    return amb, collapse_boundary(amb, range(9))


WINDOWS = {
    "one-vertex": lambda: grid_window(3, 3, [1], [1]),
    "one-spoke": one_spoke_window,
    "edge": lambda: grid_window(4, 3, [1, 2], [1]),
    "block-2x2": lambda: grid_window(4, 4, [1, 2], [1, 2]),
    "block-3x2": lambda: grid_window(5, 5, [1, 2, 3], [1, 2]),
    "block-3x3": lambda: grid_window(5, 5, [1, 2, 3], [1, 2, 3]),
    "whole-grid": whole_grid_window,
    "parallel-spokes": lambda: parallel_spoke_window(False),
    "parallel-spokes-exact": lambda: parallel_spoke_window(True),
    **{f"{kind}-bulk-{seed}": (
        lambda kind=kind, seed=seed, size=size, margin=margin:
        bulk_window(kind, seed, size, margin))
       for kind in ("square", "rhombic")
       for seed, (size, margin) in enumerate(
           [(10, 1.0), (14, 2.0), (24, 4.0), (40, 9.0)])},
}


def window_case(name):
    amb, col = WINDOWS[name]()
    structure, dg = build_dual_and_double(col, amb.positions)
    return col, structure, dg


def loop_white_arrays(dg):
    """Every white-table array, rebuilt from the white dicts one white at a
    time (faces after r shift down by one; r's own entry is n + r)."""
    n, r = dg.col.n, dg.r
    rows = []
    for info, (ax, ay) in zip(white_dicts(dg), ambient_ends(dg)):
        x, y, left, right = info["x"], info["y"], info["left"], info["right"]
        y = n if y == "o" else y
        rows.append({
            "x": x, "y": y, "ax": ax, "ay": ay, "left": left,
            "right": right, "c": info["edge"].cond,
            "mask": [True, left != r, y != n, right != r],
            "black": [x, n + left - (left > r), y, n + right - (right > r)],
        })
    return {k: [row[k] for row in rows] for k in rows[0]}


def loop_quads(dg):
    """(corner, w1, face, w2) of every face corner, o as col.o."""
    faces = REFERENCE[dg][0]
    return [(dg.col.o if h.head == "o" else h.head, h.edge.uid, f,
             h2.edge.uid)
            for f, walk in enumerate(faces)
            for h, h2 in zip(walk, walk[1:] + walk[:1])]


def loop_quad_adjacency(dg):
    """(quads, entries (src, dst, white, black), signs), step by step."""
    faces, _, o_faces, _ = REFERENCE[dg]
    infos, pos = white_dicts(dg), dg.col.positions
    boundary = set(o_faces) | {dg.r}
    quads = sorted({(c, f) for c, _, f, _ in loop_quads(dg)
                    if c != dg.col.o and f not in boundary})
    if not quads:
        raise ValueError("window has no interior double-graph faces")
    ids = {q: i for i, q in enumerate(quads)}
    centroid = {q: 0.5 * (pos[q[0]] + np.mean(
        [pos[h.tail] for h in faces[q[1]]], axis=0)) for q in quads}
    sides = {}  # face -> (white, face across it), whites in order
    for w, info in enumerate(infos):
        sides.setdefault(info["left"], []).append((w, info["right"]))
        sides.setdefault(info["right"], []).append((w, info["left"]))
    for row in sides.values():
        row.sort(key=lambda side: side[0])
    entries, order, seen = [], [0], {0}
    for i in order:
        corner, f = quads[i]
        for w, across in sides[f]:
            x, y = infos[w]["x"], infos[w]["y"]
            if corner not in (x, y):
                continue
            for q2, b in (((corner, across), corner),
                          ((x if y == corner else y, f),
                           dg.col.n + f - (f > dg.r))):
                if q2 in ids:
                    j = ids[q2]
                    if j not in seen:
                        seen.add(j)
                        order.append(j)
                    entries.append((i, j, w, b))
    if len(seen) != len(quads):
        raise ValueError("interior double-graph faces are disconnected")
    signs = []
    for i, j, w, _ in entries:
        info = infos[w]
        step = centroid[quads[j]] - centroid[quads[i]]
        mid = 0.5 * (pos[info["x"]] + pos[info["y"]]) - centroid[quads[i]]
        signs.append(1 if step[0] * mid[1] - step[1] * mid[0] > 0 else -1)
    return quads, entries, signs


class TestArrayLayerMatchesLoops:
    @pytest.mark.parametrize("name", list(WINDOWS))
    def test_faces(self, name):
        col, s, dg = window_case(name)
        faces, face_of_half, o_faces, edges = REFERENCE[dg]
        assert [walk.tolist() for walk in s.faces] == \
            [[h.uid for h in walk] for walk in faces]
        assert s.o_faces == o_faces
        assert s.face.tolist() == [face_of_half[h]
                                   for h in range(2 * len(edges))]
        assert s.walk.tolist() == [h.uid for walk in faces for h in walk]
        assert s.tail.tolist() == [col.o if h.tail == "o" else h.tail
                                   for e in edges for h in e.halves]

    @pytest.mark.parametrize("name", list(WINDOWS))
    def test_white_table(self, name):
        col, s, dg = window_case(name)
        t, ref = dg.white_table, loop_white_arrays(dg)
        for key, want in ref.items():
            got = getattr(t, key)
            assert got.tolist() == want, key
        # numpy's own dtype for the conductances, as a per-edge list gives
        assert t.c.dtype == np.array(ref["c"]).dtype

    @pytest.mark.parametrize("name", list(WINDOWS))
    def test_temperley_plan(self, name):
        col, s, dg = window_case(name)
        plan, whites, arcs = dg.temperley_plan, {}, []
        for w, info in enumerate(white_dicts(dg)):
            x, y = info["x"], info["y"]
            for pair in [(x, ROOT)] if y == "o" else [(x, y), (y, x)]:
                whites.setdefault(pair, []).append(w)
            arcs += [(info["left"], w, 0, info["right"]),
                     (info["right"], w, 1, info["left"])]
        arcs.sort()
        assert plan.whites == whites
        assert plan.arc_tail.tolist() == [a[0] for a in arcs]
        assert plan.arc_white.tolist() == [a[1] for a in arcs]
        assert plan.arc_head.tolist() == [a[3] for a in arcs]

    @pytest.mark.parametrize("name", list(WINDOWS))
    def test_quads(self, name):
        col, s, dg = window_case(name)
        assert dg.quad_faces().tolist() == [
            list(q) for q in loop_quads(dg) if q[0] != col.o and q[2] != dg.r]
        try:
            adj = dg.quad_adjacency
        except ValueError as exc:  # no interior quads, or disconnected
            with pytest.raises(ValueError) as err:
                loop_quad_adjacency(dg)
            assert str(err.value) == str(exc)
            return
        quads, entries, signs = loop_quad_adjacency(dg)
        assert adj.quads == quads
        # the same entries and signs, grouped by the quad they leave
        got = list(zip(zip(adj.src.tolist(), adj.dst.tolist(),
                           adj.white.tolist(), adj.black.tolist()),
                       adj.sign.tolist()))
        assert sorted(got) == sorted(zip(entries, signs))
        assert np.all(np.diff(adj.src) >= 0)

    def test_windows_cover_the_cases(self):
        # ties in the rotation, exact conductances, spokeless windows and
        # windows of several hundred vertices are all exercised
        sizes = {name: window_case(name)[0].n for name in WINDOWS}
        assert sizes["one-vertex"] == 1 and sizes["whole-grid"] == 9
        assert max(sizes.values()) > 100
        _, s, _ = window_case("parallel-spokes")
        spokes_at_5 = np.flatnonzero((s.x == 0) & (s.y == 4))
        assert len(spokes_at_5) == 3  # two parallel, one to 4
        assert window_case("parallel-spokes-exact")[2].white_table \
            .c.dtype == object


def errors(col, positions):
    """The ValueError messages of the array and the loop extraction."""
    out = []
    for extract in (extract_faces, loop_faces):
        with pytest.raises(ValueError) as err:
            extract(col, positions)
        out.append(str(err.value))
    return out


class TestErrorsMatchLoops:
    POS = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    NO_SPOKES = (np.zeros(0, int), np.zeros(0), np.zeros(0, int))

    def col(self, n, edges, spokes=None, positions=POS):
        tail, head, cond = (np.array(a) for a in zip(*edges))
        return CollapsedGraph(n, (tail, head, cond.astype(float)),
                              spokes or self.NO_SPOKES, np.zeros(n),
                              None if positions is None else positions[:n],
                              list(range(n)))

    @pytest.mark.parametrize("case, message", [
        ("coordinates", "planar constructions need vertex coordinates"),
        ("unpaired", "unpaired directed edges in window"),
        ("unbalanced", "unpaired directed edges in window"),
        ("asymmetric",
         "double-graph constructions need symmetric conductances"),
        ("spoke", "spokes need ambient directions"),
        ("loop", "loop edges are not supported in G^o"),
        ("euler", "face extraction failed Euler's relation: V=4 E=2 F=2"),
    ])
    def test_same_message(self, case, message):
        both = [(0, 1, 1.0), (1, 0, 1.0)]
        col = {
            "coordinates": lambda: self.col(2, both, positions=None),
            "unpaired": lambda: self.col(2, [(0, 1, 1.0)]),
            # every edge has a reverse, but 0 -> 1 twice and 1 -> 0 once
            "unbalanced": lambda: self.col(2, both + [(0, 1, 1.0)]),
            "asymmetric": lambda: self.col(2, [(0, 1, 1.0), (1, 0, 2.0)]),
            "spoke": lambda: self.col(2, both, spokes=(
                np.array([0]), np.array([1.0]), np.array([7]))),
            "loop": lambda: self.col(2, both + [(1, 1, 1.0)]),
            "euler": lambda: self.col(4, both + [(2, 3, 1.0), (3, 2, 1.0)]),
        }[case]()
        assert errors(col, None) == [message, message]

    def test_parallel_window_edges_refused(self):
        # both ends of a window edge and its parallel twin tie in angle,
        # which no planar rotation orders: refused before any face walk
        amb, col = parallel_spoke_window(False, extra=[(5, 6)])
        message = ("parallel edges between window vertices 0 and 1 "
                   "(ambient 5 and 6) have no planar embedding")
        assert errors(col, amb.positions) == [message, message]


class TestBreadthFirst:
    # 0 -> 3, 0 -> 1, 1 -> 2, 2 -> 0, 3 -> 2; 4 -> 5 is cut off from 0
    TAIL = np.array([0, 0, 1, 2, 3, 4])
    HEAD = np.array([3, 1, 2, 0, 2, 5])

    def test_order_and_predecessors(self):
        order, pred = planar.breadth_first(6, self.TAIL, self.HEAD, 0)
        assert order.tolist() == [0, 3, 1, 2]
        assert pred[[1, 2, 3]].tolist() == [0, 3, 0]
        # the root and the unreached nodes 4 and 5
        assert np.all(pred[[0, 4, 5]] < 0)
        assert order.dtype == pred.dtype == np.int64

    def test_neighbours_in_arc_order(self):
        # with 0 -> 1 listed before 0 -> 3, node 2 is reached from 1
        order, pred = planar.breadth_first(
            6, self.TAIL, np.array([1, 3, 2, 0, 2, 5]), 0)
        assert order.tolist() == [0, 1, 3, 2]
        assert pred[2] == 1

    def test_unreached_nodes_absent(self):
        order, pred = planar.breadth_first(6, self.TAIL, self.HEAD, 4)
        assert order.tolist() == [4, 5]
        assert pred[5] == 4
        assert np.all(np.delete(pred, 5) < 0)

    def test_strided_and_int32_arcs(self):
        # csgraph refuses index arrays that are not C-contiguous
        arcs = np.stack([self.TAIL, self.HEAD], axis=1).astype(np.int32)
        order, pred = planar.breadth_first(6, arcs.T[0], arcs.T[1], 0)
        assert order.tolist() == [0, 3, 1, 2]
        assert pred.dtype == np.int64

    def test_tree_levels(self):
        # order [0, 3, 1, 2]: root 0, then 3 and 1, then 2 (from 3)
        order, pred = planar.breadth_first(6, self.TAIL, self.HEAD, 0)
        assert planar.tree_levels(order, pred).tolist() == [0, 1, 3, 4]
        order, pred = planar.breadth_first(6, self.TAIL, self.HEAD, 4)
        assert planar.tree_levels(order, pred).tolist() == [0, 1, 2]
        # a lone root: node 5 has no arcs out
        order, pred = planar.breadth_first(6, self.TAIL, self.HEAD, 5)
        assert order.tolist() == [5]
        assert planar.tree_levels(order, pred).tolist() == [0, 1]

    def test_tree_product_matches_ancestor_pairs(self):
        # the reference multiplies each node's factors from the node up,
        # over every (node, ancestor) pair of the tree; tree_product
        # multiplies from the root down, so they agree to rounding
        g = grid_graph(100, 100)
        out = g.out_order
        tail, head = g.tail[out], g.head[out]
        factor = np.random.default_rng(11).uniform(0.5, 2.0, len(tail))
        order, prod = planar.tree_product(g.n, tail, head, factor, 0)
        pred = planar.breadth_first(g.n, tail, head, 0)[1]
        step, tree = np.ones(g.n), pred[head] == tail
        step[head[tree]] = factor[tree]
        want, node = np.ones(g.n), np.flatnonzero(pred >= 0)
        up = node
        while len(up):
            np.multiply.at(want, node, step[up])
            live = pred[up] != 0
            node, up = node[live], pred[up[live]]
        assert len(order) == g.n
        assert np.max(np.abs(prod / want - 1)) <= 1e-14

    @pytest.mark.parametrize("name", list(WINDOWS))
    def test_quad_tree(self, name):
        col, s, dg = window_case(name)
        try:
            adj = dg.quad_adjacency
        except ValueError:
            return
        dst, src, entry = adj.tree.T
        # the tree reaches every quad but the first once, in breadth-first
        # order, each along an entry that steps from its parent to it
        assert sorted(dst.tolist()) == list(range(1, len(adj.quads)))
        assert np.array_equal(adj.src[entry], src)
        assert np.array_equal(adj.dst[entry], dst)
        # rows levels[k]:levels[k + 1] hang from the quads at depth k,
        # and the levels cover the rows in order
        levels = adj.levels
        assert levels[0] == 0 and levels[-1] == len(adj.tree)
        assert np.all(np.diff(levels) > 0)
        depth = np.full(len(adj.quads), -1)
        depth[0] = 0
        for k, (a, b) in enumerate(zip(levels[:-1], levels[1:])):
            assert np.all(depth[src[a:b]] == k)
            depth[dst[a:b]] = k + 1
        assert np.all(np.diff(depth[np.r_[0, dst]]) >= 0)
