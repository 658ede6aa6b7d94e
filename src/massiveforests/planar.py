"""Planar faces of collapsed graphs and the Temperleyan double graph.

Faces of G^o are extracted by half-edge rotation at the window vertices;
the outer vertex o is handled by cutting the whisker walk at each spoke, so
the face structure is that of the sphere embedding with o at infinity.
Every edge of G^o crosses one dual edge and carries one white vertex; the
double graph has blacks V + faces - {r} and exactly |W| = |B| when the
window is simply connected.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .graphs import CollapsedGraph


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


class PlanarFaceStructure:
    """Faces of G^o as cyclic half-edge walks; face ids are dual vertices."""

    def __init__(self, faces, face_of_half, o_faces):
        self.faces = faces                # list of lists of HalfEdge
        self.face_of_half = face_of_half  # half uid -> face id
        self.o_faces = o_faces            # ids of faces whose walk passes o

    def left_face(self, half):
        return self.face_of_half[half.uid]

    def degree(self, fid):
        return len(self.faces[fid])


def _build_edges(col: CollapsedGraph, ambient_positions=None):
    """Pair the directed window edges into undirected ones, plus spokes."""
    pos = col.positions
    if pos is None:
        raise ValueError("planar constructions need vertex coordinates")
    pairs = {}
    for (x, y, c) in col.edges:
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
    for (x, c, target) in col.o_edges:
        if ambient_positions is not None:
            d = np.asarray(ambient_positions[target], float) - pos[x]
        else:
            d = None
        edges.append(UndirectedEdge(len(edges), x, "o", c,
                                    ambient_target=target, direction=d))
    return edges


def extract_faces(col: CollapsedGraph, ambient_positions=None):
    """(PlanarFaceStructure, edges) for the sphere embedding of G^o."""
    pos = col.positions
    edges = _build_edges(col, ambient_positions)

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

    # counterclockwise rotation at each window vertex; loops would need a
    # finer rule and are rejected here
    for x in range(col.n):
        for h in out_at[x]:
            if h.head == h.tail:
                raise ValueError("loop edges are not supported in G^o")
        out_at[x].sort(key=lambda h: h.angle)

    def cw_next(h):
        """Outgoing half-edge at h.tail just clockwise of h."""
        ring = out_at[h.tail]
        i = ring.index(h)
        return ring[(i - 1) % len(ring)]

    def next_half(h):
        # faces on the left of each directed half-edge
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

    # split orbits at spokes: each passage through o starts a new face
    faces = []
    for orbit in orbits:
        cuts = [i for i, h in enumerate(orbit) if h.head == "o"]
        if not cuts:
            faces.append(orbit)
            continue
        for a, b in zip(cuts, cuts[1:] + [cuts[0] + len(orbit)]):
            seg = [orbit[(i + 1) % len(orbit)] for i in range(a, b)]
            faces.append(seg)

    face_of_half = {}
    o_faces = []
    for fid, walk in enumerate(faces):
        passes_o = False
        for h in walk:
            face_of_half[h.uid] = fid
            if h.head == "o":
                passes_o = True
        if passes_o:
            o_faces.append(fid)
    structure = PlanarFaceStructure(faces, face_of_half, o_faces)
    _check_euler(col, edges, structure)
    return structure, edges


def _check_euler(col, edges, structure):
    n_v = col.n + (1 if col.o_edges else 0)
    n_e = len(edges)
    n_f = len(structure.faces)
    if n_v - n_e + n_f != 2:
        raise ValueError(
            f"face extraction failed Euler's relation: V={n_v} E={n_e} "
            f"F={n_f}")


class DoubleGraph:
    """The double graph of G^o with o and r removed.

    Whites sit on the edges of G^o.  Blacks are the window vertices followed
    by the kept dual vertices.  Each white records its primal endpoints
    (x, y), its dual endpoints (left and right faces of the canonical
    direction x -> y) and which neighbours survive the removal of o and r.
    x is always a window vertex; y is 'o' on spokes.  `ambient_ends[w]`
    holds the ambient vertices behind x and y, the spoke's ambient target
    standing in for o.
    """

    def __init__(self, col: CollapsedGraph, structure: PlanarFaceStructure,
                 edges, r=None):
        self.col = col
        self.structure = structure
        self.edges = edges
        if r is None:
            if structure.o_faces:
                r = min(structure.o_faces)
            else:
                r = 0
        if structure.o_faces and r not in structure.o_faces:
            raise ValueError("r must be a dual vertex on the boundary")
        self.r = r

        self.dual_ids = [f for f in range(len(structure.faces)) if f != r]
        self.dual_index = {f: i for i, f in enumerate(self.dual_ids)}
        self.n_black = col.n + len(self.dual_ids)

        self.whites = []
        self.ambient_ends = []
        for e in edges:
            h = e.halves[0]  # canonical direction x -> y
            left = structure.left_face(h)
            right = structure.left_face(h.twin)
            self.whites.append({
                "edge": e,
                "x": e.x,
                "y": e.y,
                "left": left,
                "right": right,
            })
            self.ambient_ends.append((
                col.ambient_ids[e.x],
                e.ambient_target if e.y == "o" else col.ambient_ids[e.y]))
        self.n_white = len(self.whites)

    def black_of_vertex(self, x):
        return x

    def black_of_face(self, f):
        return self.col.n + self.dual_index[f]

    def white_neighbours(self, w):
        """Surviving (black id, kind, phase slot) around white w.

        Slots follow the clockwise order x, left, y, right used by the
        phase rule.
        """
        t = self.white_table
        return [(b, "dual" if slot % 2 else "primal", slot)
                for slot, (b, keep) in enumerate(zip(t.black[w].tolist(),
                                                     t.mask[w].tolist()))
                if keep]

    def quad_faces(self, surviving_only=True):
        """Quads (corner black b, white w1, dual f, white w2).

        One quad per (face, corner) incidence; w1 and w2 are the whites of
        the edges meeting at the corner along the face walk (white w sits
        on edge w).
        """
        quads = []
        for fid, walk in enumerate(self.structure.faces):
            L = len(walk)
            for i in range(L):
                h_in = walk[i]
                h_out = walk[(i + 1) % L]
                corner = h_in.head
                if corner == "o" and surviving_only:
                    continue
                if fid == self.r and surviving_only:
                    continue
                quads.append((corner, h_in.edge.uid, fid, h_out.edge.uid))
        return quads

    def counts_balanced(self):
        return self.n_white == self.n_black

    @functools.cached_property
    def white_table(self):
        """Per-white index arrays, built on first use."""
        return WhiteTable(self)

    @functools.cached_property
    def dual_adjacency(self):
        """Face -> [(adjacent face, white between them)] over every white,
        in white order, built on first use."""
        adj = {}
        for w, info in enumerate(self.whites):
            a, b = info["left"], info["right"]
            adj.setdefault(a, []).append((b, w))
            adj.setdefault(b, []).append((a, w))
        return adj

    @functools.cached_property
    def primal_adjacency(self):
        """Window vertex -> [(adjacent vertex, white between them)] over
        the whites off o, in white order, built on first use."""
        adj = {}
        for w, info in enumerate(self.whites):
            x, y = info["x"], info["y"]
            if y != "o":
                adj.setdefault(x, []).append((y, w))
                adj.setdefault(y, []).append((x, w))
        return adj

    @functools.cached_property
    def quad_adjacency(self):
        """Interior quads and their adjacencies, built on first use."""
        return QuadAdjacency(self)


class WhiteTable:
    """The whites' endpoints as integer arrays in white order.

    `x` and `y` are the window endpoints (a spoke's y is col.o), `left`
    and `right` the faces on either side of x -> y.  Row w of `black`
    holds the blacks of slots x, left, y, right, and row w of `mask`
    says which of them survive the removal of o and r.
    """

    def __init__(self, dg: DoubleGraph):
        n, r = dg.col.n, dg.r
        self.x, self.y, self.left, self.right = np.array(
            [(info["x"], n if info["y"] == "o" else info["y"], info["left"],
              info["right"]) for info in dg.whites],
            dtype=np.int64).reshape(-1, 4).T
        self.mask = np.stack([np.ones(dg.n_white, bool), self.left != r,
                              self.y != n, self.right != r], axis=1)
        # black_of_face per face; r's entry is masked out wherever it is read
        face_black = n + np.arange(len(dg.structure.faces))
        face_black[r + 1:] -= 1
        self.black = np.stack([self.x, face_black[self.left], self.y,
                               face_black[self.right]], axis=1)


class QuadAdjacency:
    """Geometry that heights are integrated over, fixed per double graph.

    Interior quads are the faces of the double graph once o, r and their
    edges are removed; everything else merges into one outer region.
    `quads` lists them sorted as (corner, face).  Adjacency entry e steps
    from quad src[e] to quad dst[e] across the half-edge (white[e],
    black[e]); sign[e] is +1 when that white lies to the left of the step.
    `tree` holds (dst, src, entry) for the quads in the order a depth-first
    search from quads[0] reaches them.
    """

    def __init__(self, dg: DoubleGraph):
        pos = dg.col.positions
        boundary_faces = set(dg.structure.o_faces) | {dg.r}
        quads = sorted({(corner, f) for (corner, w1, f, w2)
                        in dg.quad_faces() if f not in boundary_faces})
        if not quads:
            raise ValueError("window has no interior double-graph faces")
        quad_ids = {q: i for i, q in enumerate(quads)}
        face_centroid = {f: np.mean([pos[h.tail]
                                     for h in dg.structure.faces[f]], axis=0)
                         for f in {f for _, f in quads}}
        centroid = [0.5 * (pos[corner] + face_centroid[f])
                    for corner, f in quads]
        white_pos = {}
        for w, info in enumerate(dg.whites):
            if info["y"] == "o":
                white_pos[w] = pos[info["x"]] + 0.5 * np.asarray(
                    info["edge"].direction, float)
            else:
                white_pos[w] = 0.5 * (pos[info["x"]] + pos[info["y"]])

        # spokes border only faces through o, which hold no interior quad,
        # so the whites off o at a corner are all a step can cross there
        def neighbours(q):
            corner, f = q
            out = []
            for _, w in dg.primal_adjacency.get(corner, []):
                info = dg.whites[w]
                a, b = info["left"], info["right"]
                other = b if f == a else (a if f == b else None)
                if other is not None and (corner, other) in quad_ids:
                    out.append(((corner, other), w,
                                dg.black_of_vertex(corner)))
            for _, w in dg.dual_adjacency.get(f, []):
                info = dg.whites[w]
                xx, yy = info["x"], info["y"]
                other = yy if corner == xx else (xx if corner == yy else None)
                if other is not None and (other, f) in quad_ids:
                    out.append(((other, f), w, dg.black_of_face(f)))
            return out

        entries, tree = [], []
        reached = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for (q2, w, b) in neighbours(quads[i]):
                j = quad_ids[q2]
                step = centroid[j] - centroid[i]
                wvec = white_pos[w] - centroid[i]
                sign = 1.0 if step[0] * wvec[1] - step[1] * wvec[0] > 0 \
                    else -1.0
                if j not in reached:
                    reached.add(j)
                    tree.append((j, i, len(entries)))
                    stack.append(j)
                entries.append((i, j, w, b, sign))
        if len(reached) != len(quads):
            raise ValueError("interior double-graph faces are disconnected")
        self.quads = quads
        self.tree = tree
        table = np.array(entries, dtype=float).reshape(-1, 5)
        self.src, self.dst, self.white, self.black = \
            table[:, :4].astype(np.int64).T
        self.sign = table[:, 4]


def build_dual_and_double(col: CollapsedGraph, ambient_positions=None):
    """(PlanarFaceStructure, DoubleGraph) of a collapsed window."""
    structure, edges = extract_faces(col, ambient_positions)
    return structure, DoubleGraph(col, structure, edges)
