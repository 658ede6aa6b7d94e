"""Planar faces of collapsed windows and the Temperleyan double graph.

The layer is built from arrays, from the collapsed window's columns to the
white table.  The window edges are paired into undirected edges by the
graph core's reverse lookup, in (x, y) order, and the spokes to the outer
vertex o follow them; edge k has halves 2k (along x -> y) and 2k + 1, and
the twin of half h is h ^ 1.  Each window vertex's counterclockwise
rotation comes from one lexsort on (tail, angle).  The next half after h
is its twin if h runs into o, else the half just clockwise of its twin;
the faces are the orbits of that permutation, cut after every half that
runs into o, so the face structure is that of the sphere embedding with o
at infinity.  Every edge of G^o crosses one dual edge and carries one
white vertex; the double graph has blacks V + faces - {r} and exactly
|W| = |B| when the window is simply connected.  One breadth-first
search, `breadth_first`, finds every spanning tree of this layer and of
`dimers`, and `tree_levels` cuts such a tree into its levels, so that a
product or a sum runs down it one array step per level: `tree_product`
multiplies edge factors down it, which is how both `dimers` and
`isoradial` build lambda, and `dimers` sums heights down the quad tree.
"""

from __future__ import annotations

import functools

import numpy as np

from .graphs import ROOT, CollapsedGraph, reverse_edges


class PlanarFaceStructure:
    """The edges of G^o as columns and its faces as half-edge walks.

    Edge k runs from window vertex x[k] to y[k] (y = col.o for a spoke)
    with conductance c[k] (numpy's own dtype for the values: an object
    array for Fractions); ay[k] is the ambient vertex behind y[k], a
    spoke's ambient target.  The window edges come first, x < y in (x, y)
    order, then the spokes in the window's order.  tail[h] is the tail of
    half h, so its head is tail[h ^ 1].  Face f's walk is
    walk[ptr[f]:ptr[f + 1]], also kept as the half-id array faces[f];
    face[h] is the face on the left of half h and o_faces lists the faces
    whose walk passes o.  Faces are numbered by orbit, orbits by their
    least half id, then by segment from the orbit's first cut at o.
    """

    def __init__(self, x, y, c, ay, walk, ptr, o_faces):
        self.x, self.y, self.c, self.ay = x, y, c, ay
        self.tail = np.stack([x, y], axis=1).ravel()
        self.walk, self.ptr, self.o_faces = walk, ptr, o_faces
        self.faces = [walk[a:b] for a, b in zip(ptr[:-1], ptr[1:])]
        self.face = np.empty(len(walk), np.int64)
        self.face[walk] = np.repeat(np.arange(len(self.faces)), np.diff(ptr))


def _paired_edges(col: CollapsedGraph):
    """The window edges x < y in (x, y) order as ids into `col.edges`, each
    paired with its reverse by `graphs.reverse_edges`.  Every (x, y) needs
    as many edges as (y, x).  Parallel edges between two window vertices
    are refused: they tie in angle at both ends, which no planar rotation
    orders."""
    tail, head, cond = col.edges
    rev = reverse_edges(col.n, tail, head)  # a loop is its own reverse
    if np.any(rev < 0):
        raise ValueError("unpaired directed edges in window")
    first = rev[rev]  # the first edge with each edge's (tail, head)
    count = np.bincount(first, minlength=len(rev))
    if np.any(count[first] != count[rev]):
        raise ValueError("unpaired directed edges in window")
    up, code = tail < head, tail * col.n + head
    own = first == np.arange(len(rev))
    fwd = np.flatnonzero(up & own)
    c, c2 = cond[fwd].astype(float), cond[rev[fwd]].astype(float)
    if np.any(np.abs(c - c2) > 1e-12 * np.maximum(1.0, np.abs(c))):
        raise ValueError(
            "double-graph constructions need symmetric conductances")
    twins = np.flatnonzero(up & ~own)
    if len(twins):
        t = twins[np.argmin(code[twins])]
        a, b = tail[t], head[t]
        ids = col.ambient_ids
        raise ValueError(
            f"parallel edges between window vertices {a} and {b} (ambient "
            f"{ids[a]} and {ids[b]}) have no planar embedding")
    return fwd[np.argsort(code[fwd])]


def extract_faces(col: CollapsedGraph, ambient_positions=None):
    """The PlanarFaceStructure of the sphere embedding of G^o."""
    pos, n = col.positions, col.n
    if pos is None:
        raise ValueError("planar constructions need vertex coordinates")
    (tail, head, cond), (sx, sc, target) = col.edges, col.spokes
    fwd = _paired_edges(col)
    far = pos[head[fwd]]  # the far end of each edge, of a spoke its target
    if len(sx):
        if ambient_positions is None:
            raise ValueError("spokes need ambient directions")
        far = np.r_[far, np.asarray(ambient_positions, float)[target]]
    if np.any(tail == head):
        raise ValueError("loop edges are not supported in G^o")
    x, y = np.r_[tail[fwd], sx], np.r_[head[fwd], np.full_like(sx, n)]
    ay = np.r_[np.asarray(col.ambient_ids)[head[fwd]], target]
    c = np.array(np.r_[cond[fwd], sc].tolist())
    # half 2k points along d, half 2k + 1 against it (unused at o)
    d = far - pos[x]
    angle = np.stack([np.arctan2(d[:, 1], d[:, 0]),
                      np.arctan2(-d[:, 1], -d[:, 0])], axis=1).ravel()
    ends = np.stack([x, y], axis=1).ravel()

    # counterclockwise rotation at each window vertex, ties in half order;
    # cw[h] is the half just clockwise of h at its tail
    ring = np.flatnonzero(ends < n)
    ring = ring[np.lexsort((angle[ring], ends[ring]))]
    ring_ptr = np.searchsorted(ends[ring], np.arange(n + 1))
    lo, hi = ring_ptr[ends[ring]], ring_ptr[ends[ring] + 1]
    cw = np.zeros(len(ends), np.int64)
    cw[ring] = ring[lo + (np.arange(len(ring)) - lo - 1) % (hi - lo)]
    # faces lie on the left of each half
    twin = np.arange(len(ends)) ^ 1
    into_o = ends[twin] == n
    nxt = np.where(into_o, twin, cw[twin]).tolist()

    walk, first, seen = [], [], bytearray(len(ends))
    for h0 in range(len(ends)):
        if seen[h0]:
            continue
        first.append(len(walk))
        h = h0
        while not seen[h]:
            seen[h] = 1
            walk.append(h)
            h = nxt[h]

    # rotate each orbit to start just after its first cut at o, then cut
    # after every half into o: each passage through o starts a new face
    walk, first = np.array(walk, np.int64), np.array(first, np.int64)
    size = np.diff(np.r_[first, len(walk)])
    orbit = np.repeat(np.arange(len(first)), size)
    at = np.arange(len(walk)) - first[orbit]
    cuts = np.flatnonzero(into_o[walk])
    has_cut, first_cut = np.unique(orbit[cuts], return_index=True)
    shift = np.zeros(len(first), np.int64)
    shift[has_cut] = at[cuts[first_cut]] + 1
    rotated = np.empty_like(walk)
    rotated[first[orbit] + (at - shift[orbit]) % size[orbit]] = walk
    new_face = np.zeros(len(walk), bool)
    new_face[first] = True
    new_face[1:] |= into_o[rotated[:-1]]
    ptr = np.r_[np.flatnonzero(new_face), len(walk)]
    o_faces = np.unique(np.cumsum(new_face)[into_o[rotated]] - 1).tolist()
    n_v, n_f = n + (len(sx) > 0), len(ptr) - 1  # o counts once it has spokes
    if n_v - len(x) + n_f != 2:
        raise ValueError(f"face extraction failed Euler's relation: "
                         f"V={n_v} E={len(x)} F={n_f}")
    return PlanarFaceStructure(x, y, c, ay, rotated, ptr, o_faces)


class DoubleGraph:
    """The double graph of G^o with o and r removed.

    Whites sit on the edges of G^o: white w on edge w.  Blacks are the
    window vertices followed by the kept dual vertices.  `white_table`
    is the one per-white record: primal and ambient ends, faces on either
    side, conductance, and which neighbours survive the removal of o and r.
    """

    def __init__(self, col: CollapsedGraph, structure: PlanarFaceStructure,
                 r=None):
        self.col = col
        self.structure = structure
        if r is None:
            r = min(structure.o_faces, default=0)
        if structure.o_faces and r not in structure.o_faces:
            raise ValueError("r must be a dual vertex on the boundary")
        self.r = r

        self.dual_ids = [f for f in range(len(structure.faces)) if f != r]
        self.n_black = col.n + len(self.dual_ids)
        self.n_white = len(structure.x)

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

    def quad_faces(self):
        """Quads (corner black b, white w1, dual f, white w2) as the rows
        of a (k, 4) array, one per (face, corner) incidence along the face
        walks, corners at o and the face r left out; w1 and w2 are the
        whites of the edges meeting at the corner (white w sits on edge w).
        """
        s = self.structure
        fid = s.face[s.walk]
        step = np.arange(len(s.walk)) + 1  # along each face walk, cyclic
        step[s.ptr[1:] - 1] = s.ptr[:-1]
        h_in, h_out = s.walk, s.walk[step]
        corner = s.tail[h_in ^ 1]
        keep = (corner != self.col.o) & (fid != self.r)
        return np.stack([corner, h_in >> 1, fid, h_out >> 1], axis=1)[keep]

    def counts_balanced(self):
        return self.n_white == self.n_black

    @functools.cached_property
    def white_table(self):
        """Per-white index arrays, built on first use."""
        return WhiteTable(self)

    @functools.cached_property
    def temperley_plan(self):
        """Lookups and dual arcs for Temperley's map, built on first use."""
        return TemperleyPlan(self)

    @functools.cached_property
    def quad_adjacency(self):
        """Interior quads and their adjacencies, built on first use."""
        return QuadAdjacency(self)


class WhiteTable:
    """The one per-white record: arrays in white order, white w on edge w.

    `x` and `y` are the window endpoints (a spoke's y is col.o), `left`
    and `right` the faces on either side of x -> y, `c` the conductance
    (an object array when the conductances are Fractions) and `ax`, `ay`
    the ambient vertices behind x and y (a spoke's `ay` is its ambient
    target, standing in for o).  Row w of `black` holds the blacks of
    slots x, left, y, right, and row w of `mask` says which of them
    survive the removal of o and r.
    """

    def __init__(self, dg: DoubleGraph):
        s, n, r = dg.structure, dg.col.n, dg.r
        self.x, self.y, self.c, self.ay = s.x, s.y, s.c, s.ay
        self.ax = np.asarray(dg.col.ambient_ids)[s.x]
        # edge w's halves are 2w (along x -> y) and 2w + 1
        self.left, self.right = s.face[0::2], s.face[1::2]
        self.mask = np.stack([np.ones(dg.n_white, bool), self.left != r,
                              self.y != n, self.right != r], axis=1)
        # each face's black n + f - (f > r); r's entry is masked out
        # wherever it is read
        face_black = n + np.arange(len(s.faces))
        face_black[r + 1:] -= 1
        self.black = np.stack([self.x, face_black[self.left], self.y,
                               face_black[self.right]], axis=1)


def _choice_cdf(weights):
    """Cumulative law of `weights`, built as `rng.choice(k, p=p)` builds
    it (p.cumsum() over its last value), so `bisect_right(cdf, u)` is the
    index `rng.choice` picks from the same uniform u."""
    cdf = (weights / weights.sum()).cumsum()
    return (cdf / cdf[-1]).tolist()


class TemperleyPlan:
    """What Temperley's bijection reads of one window.  `whites[(x, head)]`
    lists the whites from window vertex x to head (ROOT for o), `laws` their
    conductance cdf where there are several (e.g. spokes to o).  The dual
    arcs `arc_tail` -> `arc_head` across `arc_white`, both ways across each
    white, are sorted by tail face, then white.
    """

    def __init__(self, dg: DoubleGraph):
        t, n, self.whites = dg.white_table, dg.col.n, {}
        for w, (x, y) in enumerate(zip(t.x.tolist(), t.y.tolist())):
            for pair in [(x, ROOT)] if y == n else [(x, y), (y, x)]:
                self.whites.setdefault(pair, []).append(w)
        self.laws = {pair: _choice_cdf(t.c[ws].astype(float))
                     for pair, ws in self.whites.items() if len(ws) > 1}
        arcs = np.array([np.r_[t.left, t.right], np.r_[t.right, t.left],
                         np.tile(np.arange(dg.n_white), 2)], dtype=np.int32)
        self.arc_tail, self.arc_head, self.arc_white = arcs[
            :, np.lexsort(arcs[[2, 0]])]


def breadth_first(n, tail, head, root):
    """(order, pred) of one breadth-first search from `root` over the arcs
    tail[k] -> head[k] of an n-node graph, sorted by tail, each node's
    arcs followed in their order.  `order` lists the nodes reached, root
    first; pred[v] is the node v was reached from, negative at root and at
    the nodes not reached, so the tree arcs are those with pred[head] ==
    tail.  Both come as int64 (csgraph's int32, widened)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    # indptr in head's dtype, so that scipy copies neither index array
    head = np.ascontiguousarray(head)
    indptr = np.concatenate(([0], np.bincount(tail, minlength=n).cumsum()))
    graph = csr_array((np.ones(len(head)), head, indptr.astype(head.dtype)),
                      shape=(n, n))
    return tuple(a.astype(np.int64) for a in breadth_first_order(graph, root))


def tree_levels(order, pred):
    """Level bounds of the breadth-first tree `pred` in its `order`: level
    k is order[bounds[k]:bounds[k + 1]], the root alone at level 0.
    Parents are dequeued in order, so the ranks of the parents of
    order[1:] never decrease, and each level ends where the parents
    leave the level before it: one `searchsorted` per level."""
    rank = np.empty(len(pred), np.int64)
    rank[order] = np.arange(len(order))
    up, bounds = rank[pred[order[1:]]], [0, 1]
    while bounds[-1] < len(order):
        bounds.append(1 + int(np.searchsorted(up, bounds[-1])))
    return np.array(bounds)


def tree_product(n, tail, head, factor, root):
    """(order, prod): the nodes that `breadth_first` reaches from `root`
    over the arcs tail[k] -> head[k], sorted by tail, and at each node
    the product of the factors of the tree arcs on its path from root,
    multiplied from root down one level at a time (1 at root and at the
    nodes not reached)."""
    order, pred = breadth_first(n, tail, head, root)
    step, tree = np.ones(n), pred[head] == tail
    step[head[tree]] = factor[tree]
    prod, bounds = np.ones(n), tree_levels(order, pred)
    for a, b in zip(bounds[1:-1], bounds[2:]):
        v = order[a:b]
        prod[v] = prod[pred[v]] * step[v]
    return order, prod


class QuadAdjacency:
    """Geometry that heights are integrated over, fixed per double graph.

    Interior quads are the faces of the double graph once o, r and their
    edges are removed; everything else merges into one outer region.
    `quads` lists them sorted as (corner, face).  Adjacency entry e steps
    from quad src[e] to quad dst[e] across the half-edge (white[e],
    black[e]); sign[e] is +1 when that white lies to the left of the step,
    else -1.  Entries are sorted by src.  `tree` holds the rows (dst, src,
    entry) of the breadth-first tree from quads[0], in breadth-first
    order, and rows levels[k]:levels[k + 1] are the quads at depth k + 1,
    so a sum down the tree takes one array step per level.
    """

    def __init__(self, dg: DoubleGraph):
        pos, s, t, n = dg.col.positions, dg.structure, dg.white_table, dg.col.n
        n_faces = len(s.faces)
        q = dg.quad_faces()
        corner, w1, f, w2 = q[~np.isin(q[:, 2], [*s.o_faces, dg.r])].T
        keys = np.unique(corner * n_faces + f)
        if not len(keys):
            raise ValueError("window has no interior double-graph faces")
        self.quads = list(zip(*(a.tolist() for a in divmod(keys, n_faces))))
        # each corner's two whites step across to their other face at the
        # corner (black the corner) or along to their other end in the face
        # (black the face; never a spoke: spokes border only faces via o)
        w = np.stack([w1, w1, w2, w2], axis=1).ravel()
        c, f = np.repeat(corner, 4), np.repeat(f, 4)
        across = np.tile([True, False], 2 * len(corner))
        to = np.where(across, c * n_faces + t.left[w] + t.right[w] - f,
                      (t.x[w] + t.y[w] - c) * n_faces + f)
        src = np.searchsorted(keys, c * n_faces + f)
        dst = np.minimum(np.searchsorted(keys, to), len(keys) - 1)
        e = np.flatnonzero(keys[dst] == to)
        e = e[np.argsort(src[e], kind="stable")]
        self.src, self.dst, self.white = src[e], dst[e], w[e]
        self.black = np.where(across, c, n + f - (f > dg.r))[e]

        order, pred = breadth_first(len(keys), self.src, self.dst, 0)
        if len(order) != len(keys):
            raise ValueError("interior double-graph faces are disconnected")
        # the first entry along its tree arc into each quad but quads[0]
        tree = np.flatnonzero(pred[self.dst] == self.src)
        entry = np.r_[0, tree[np.unique(self.dst[tree], return_index=True)[1]]]
        self.tree = np.stack([order, pred[order], entry[order]], axis=1)[1:]
        self.levels = tree_levels(order, pred)[1:] - 1

        # a quad's centroid is halfway from its corner to its face's mean
        # tail (o, on boundary faces only, stands at 0); a white sits at
        # its edge's midpoint
        tails = np.r_[pos, np.zeros((1, 2))][s.tail[s.walk]]
        face_mean = np.add.reduceat(tails, s.ptr[:-1]) / \
            np.diff(s.ptr)[:, None]
        centroid = 0.5 * (pos[keys // n_faces] + face_mean[keys % n_faces])
        move, wvec = centroid[self.dst] - centroid[self.src], 0.5 * (
            pos[t.x[self.white]] + pos[t.y[self.white]]) - centroid[self.src]
        self.sign = np.where(
            move[:, 0] * wvec[:, 1] - move[:, 1] * wvec[:, 0] > 0, 1, -1)


def build_dual_and_double(col: CollapsedGraph, ambient_positions=None):
    """(PlanarFaceStructure, DoubleGraph) of a collapsed window."""
    structure = extract_faces(col, ambient_positions)
    return structure, DoubleGraph(col, structure)
