"""Kasteleyn machinery on the double graph.

Phases, drifted and killed weight systems, Temperley's bijection in both
directions, local statistics, the block identity (K^k)^dagger K^k and the
determinant relation det K^k = C det Delta^k, plus matching sampling and
the height field.  Weights, K, the dual operator and the other per-white
quantities are array expressions over the double graph's `white_table`;
K and the dual operator are CSC matrices from `linalg`'s one triplet
summation (`.toarray()` where a dense one is needed).  The same triplets
give the real form of K whose exact determinant is |det K|^2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from .graphs import ROOT, WeightedGraph, collapse_boundary
from .linalg import (
    _csc_from_triplets,
    assemble_massive_laplacian,
    determinant_exact,
    log_determinant,
)
from .planar import (
    DoubleGraph,
    breadth_first,
    build_dual_and_double,
    tree_paths,
)
from .walks import (
    WILSON_STEP_CAP,
    TransitionTable,
    UniformReader,
    _check_rooted,
    _wilson_successors,
    rng_stream,
    tasks,
)

PHASES = (1, 1j, -1, -1j)  # slots: x, left dual, y, right dual


def kasteleyn_phases(dg: DoubleGraph):
    """Phases as an (n_white, 4) array over the slots x, left, y, right:
    1, i, -1, -i clockwise from the tail."""
    return np.tile(np.array(PHASES), (dg.n_white, 1))


def check_kasteleyn_property(dg: DoubleGraph, phases=None):
    """Alternating product around every surviving quad must be -1: the
    (corner, w1, face, w2, product) rows of the quads where it is not."""
    phases = kasteleyn_phases(dg) if phases is None else phases
    t, (corner, w1, fid, w2) = dg.white_table, dg.quad_faces().T
    # each white meets the corner at x or y, the face at left or right
    c1, c2 = (np.where(t.x[w] == corner, 0, 2) for w in (w1, w2))
    f1, f2 = (np.where(t.left[w] == fid, 1, 3) for w in (w1, w2))
    prod = phases[w1, c1] * phases[w2, f2] / (phases[w2, c2] * phases[w1, f1])
    bad = np.abs(prod + 1) > 1e-12
    return list(zip(*(a[bad].tolist() for a in (corner, w1, fid, w2, prod))))


class WeightSystem:
    """Weights nu on the half-edges of the double graph.

    `values` is one (n_white, 4) array over the slots x, left, y, right;
    slots removed with o and r hold 0.
    """

    def __init__(self, dg: DoubleGraph, values):
        self.dg = dg
        self.values = values

    def weight(self, w, slot):
        return self.values[w, slot]


def _weight_system(dg: DoubleGraph, *slots):
    """WeightSystem from the four slot columns, arrays or scalars."""
    values = np.stack(np.broadcast_arrays(*slots), axis=1)
    values[~dg.white_table.mask] = 0
    return WeightSystem(dg, values)


def _white_ends(dg: DoubleGraph, lam_ambient):
    """(c, lambda(x), lambda(y)) as three arrays over the whites.

    lambda is read at the white table's ambient ends `ax` and `ay` (a
    spoke's y at o reads its ambient target); Fractions make object
    arrays, so exact weights stay exact."""
    t = dg.white_table
    if isinstance(lam_ambient, np.ndarray):
        return t.c, lam_ambient[t.ax], lam_ambient[t.ay]
    return t.c, *(np.array([lam_ambient[a] for a in ends.tolist()])
                  for ends in (t.ax, t.ay))


def _float_ends(dg: DoubleGraph, lam_ambient):
    return tuple(a.astype(float) for a in _white_ends(dg, lam_ambient))


def _vertex_values(dg: DoubleGraph, lam_ambient):
    """lambda at the window vertices, as floats."""
    return np.array([float(lam_ambient[a]) for a in dg.col.ambient_ids])


def _face_values(dg: DoubleGraph, lam_star):
    """lambda* over the faces of G^o as floats, NaN at the removed r."""
    ls = np.full(len(dg.structure.faces), np.nan)
    ls[dg.dual_ids] = [float(lam_star[f]) for f in dg.dual_ids]
    return ls


def drifted_weights(dg: DoubleGraph, lam_ambient) -> WeightSystem:
    """Dual half-edges weigh 1; the half-edge at x weighs c~_(x, y)."""
    c, lx, ly = _white_ends(dg, lam_ambient)
    fwd = c * ly / lx
    one = Fraction(1) if fwd.dtype == object else 1.0
    return _weight_system(dg, fwd, one, c * lx / ly, one)


def killed_weights(dg: DoubleGraph, lam_ambient, lam_star) -> WeightSystem:
    """nu^k: primal (c lambda(y))^1/2 lambda(x)^-1/2, dual the inverse root.

    lam_star is indexed by faces of G^o (dual vertices); the r column is
    removed so its value is never read.
    """
    t = dg.white_table
    c, lx, ly = _float_ends(dg, lam_ambient)
    ls = _face_values(dg, lam_star)
    root = np.sqrt(c * lx * ly)
    return _weight_system(dg, np.sqrt(c * ly / lx),
                          1.0 / (ls[t.left] * root), np.sqrt(c * lx / ly),
                          1.0 / (ls[t.right] * root))


def killed_drifted_gauge(dg: DoubleGraph, lam_ambient, lam_star):
    """Gauge functions (phi on whites, psi on blacks) with K^k = Phi K^d Psi."""
    c, lx, ly = _float_ends(dg, lam_ambient)
    psi = np.concatenate([_vertex_values(dg, lam_ambient),
                          1.0 / _face_values(dg, lam_star)[dg.dual_ids]])
    return 1.0 / np.sqrt(c * lx * ly), psi


def _kasteleyn_triplets(dg: DoubleGraph, weights: WeightSystem):
    """(white, black, phase slot, weight) of every surviving half-edge.

    Whites come in order and each white's half-edges clockwise (x, left,
    y, right), so summing the triplets in order adds the terms of each
    entry of K in the same order as a loop over `white_neighbours` would.
    The weights stay as given (Fractions for the exact determinant).
    """
    t = dg.white_table
    whites, slots = np.nonzero(t.mask)
    return (whites, t.black[whites, slots], slots,
            weights.values[whites, slots])


def kasteleyn_matrix(dg: DoubleGraph, weights: WeightSystem):
    """K as a scipy CSC matrix, whites by blacks, with entries zeta * nu."""
    whites, blacks, slots, nu = _kasteleyn_triplets(dg, weights)
    return _csc_from_triplets(whites, blacks,
                              np.array(PHASES)[slots] * nu.astype(float),
                              (dg.n_white, dg.n_black))


def _require_square(n_white, n_black):
    if n_white != n_black:
        raise ValueError("Kasteleyn matrix must be square (|W| = |B|)")


def kasteleyn_determinant(K):
    """Float determinant of a dense K."""
    _require_square(*K.shape)
    return complex(np.linalg.det(K))


def kasteleyn_abs2_exact(dg: DoubleGraph, weights: WeightSystem):
    """|det K|^2 as a Fraction (the weights must be rational).

    With K = A + iB for real A and B, det [[A, -B], [B, A]] = |det K|^2, so
    `determinant_exact` of that real 2n x 2n matrix gives it without
    complex arithmetic.
    """
    _require_square(dg.n_white, dg.n_black)
    n = dg.n_white
    M = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for w, b, slot, v in zip(*_kasteleyn_triplets(dg, weights)):
        zeta = PHASES[slot]
        re, im = int(zeta.real) * Fraction(v), int(zeta.imag) * Fraction(v)
        M[w][b] += re
        M[w][n + b] -= im
        M[n + w][b] += im
        M[n + w][n + b] += re
    return determinant_exact(M)


def enumerate_matchings(dg: DoubleGraph, weights: WeightSystem,
                        cap_whites=14, exact=False):
    """All perfect matchings with weights (oracle; capped size)."""
    if dg.n_white > cap_whites:
        raise ValueError(f"matching enumeration capped at {cap_whites}")
    neigh = [dg.white_neighbours(w) for w in range(dg.n_white)]
    used_black = set()
    matching = {}
    results = []
    one = Fraction(1) if exact else 1.0

    def rec(w, weight):
        if w == dg.n_white:
            if len(used_black) == dg.n_black:
                results.append((dict(matching), weight))
            return
        for (b, kind, slot) in neigh[w]:
            if b in used_black:
                continue
            used_black.add(b)
            matching[w] = (b, slot)
            wt = weights.weight(w, slot)
            rec(w + 1, weight * (Fraction(wt) if exact else float(wt)))
            used_black.discard(b)
            del matching[w]

    rec(0, one)
    return results


def partition_check(dg: DoubleGraph, weights: WeightSystem, exact=False,
                    cap_whites=14):
    """(|det K|, sum over matchings, relative gap), or in exact mode
    (|det K|^2, sum over matchings, |det K|^2 - sum^2)."""
    if exact:
        det2 = kasteleyn_abs2_exact(dg, weights)
        matchings = enumerate_matchings(dg, weights, cap_whites=cap_whites,
                                        exact=True)
        z = sum((wt for _, wt in matchings), Fraction(0))
        return det2, z, det2 - z * z
    K = kasteleyn_matrix(dg, weights).toarray()
    det = abs(kasteleyn_determinant(K))
    matchings = enumerate_matchings(dg, weights, cap_whites=cap_whites)
    z = float(sum(wt for _, wt in matchings))
    gap = abs(det - z) / max(abs(z), 1e-300)
    return det, z, gap


# -- Temperley bijection ----------------------------------------------------


def _resolve(dg: DoubleGraph, successors, reader):
    """The white of each (vertex, head) pair of `successors`, head ROOT for
    o.  Parallel whites (e.g. spokes to o) are drawn proportionally to
    conductance, one uniform of `reader` each in the order of `successors`,
    or resolved to the first without a reader."""
    plan, out = dg.temperley_plan, []
    for x, y in successors:
        whites, cdf = plan.whites.get((x, y)), plan.laws.get((x, y))
        if whites is None:
            raise ValueError("no double-graph edge for tree edge " + (
                f"{x}->o" if y == ROOT else f"{x}->{y}"))
        out.append(whites[0] if cdf is None or reader is None else
                   whites[bisect_right(cdf, reader.next())])
    return out


def resolve_tree(dg: DoubleGraph, assignment, rng=None):
    """Vertex -> head map (head col.o or ROOT for o) into vertex ->
    white map.  Parallel edges are drawn proportionally to conductance with
    `rng`, one uniform each (the one `rng.choice` would read), or resolved
    to their first white without it."""
    reader = None if rng is None else UniformReader(rng, shared=True)
    out = _resolve(dg, [(x, ROOT if y == dg.col.o else y)
                        for x, y in assignment.items()], reader)
    if reader is not None:
        reader.hand_back()
    return dict(zip(assignment, out))


def _temperley_map(dg: DoubleGraph, whites):
    """Temperley's bijection on each row of `whites` (S, n), the tree white
    out of every window vertex: the (S, n_black) whites matched to the
    blacks.  A vertex takes its tree white, a kept face the unused white on
    its edge toward r in the dual tree; one breadth-first search from a
    node joined to every sample's copy of r orients the S dual trees."""
    t, plan, (S, n), F = (dg.white_table, dg.temperley_plan, whites.shape,
                          len(dg.structure.faces))
    if not ((t.x[whites] == np.arange(n)) | (t.y[whites] == np.arange(n))
            ).all():
        raise ValueError("tree edge does not start at its vertex")
    unused = np.ones((S, dg.n_white), bool)
    unused[np.arange(S)[:, None], whites] = False
    # sample s's copy of face f is node s F + f, and node S F leads to the
    # copies of r; the kept arcs stay sorted by tail node
    top, keep = S * F, unused[:, plan.arc_white]
    shift = np.arange(0, top, F, dtype=np.int32)[:, None]
    tails, heads = ((a + shift)[keep] for a in (plan.arc_tail, plan.arc_head))
    pred = breadth_first(top + 1, np.append(tails, np.full(S, top, np.int32)),
                         np.append(heads, dg.r + shift), top)[1]
    if (pred[:top] < 0).any():
        raise ValueError("dual complement is not spanning: input was "
                         "not a tree rooted at o")
    if np.count_nonzero(unused) != S * (dg.n_white - n):
        raise ValueError("Temperley image is not perfect")
    # each face but r takes the white of the arc it was reached along
    down, matched = pred[heads] == tails, np.empty(top, np.int64)
    matched[heads[down]] = np.tile(plan.arc_white, (S, 1))[keep][down]
    m = matched.reshape(S, F)  # the kept faces: all but r
    return np.concatenate([whites, m[:, :dg.r], m[:, dg.r + 1:]], axis=1)


def _matching(dg: DoubleGraph, matched):
    """{white: (black, slot)} in black order from one row of whites matched
    to the blacks; the slot is the first surviving one at that black."""
    t, blacks = dg.white_table, np.arange(dg.n_black)
    slots = np.argmax((t.black[matched] == blacks[:, None]) & t.mask[matched],
                      axis=1)
    return dict(zip(matched.tolist(), zip(blacks.tolist(), slots.tolist())))


def temperley_forward(dg: DoubleGraph, tree_whites):
    """Tree rooted at o -> perfect matching (with its dual tree).

    `tree_whites` maps every window vertex to the white of its outgoing
    edge.  The dual tree, the unique spanning tree of the dual graph on the
    unused whites oriented toward r, is a face -> white map."""
    matched = _temperley_map(dg, np.array(
        [[tree_whites[x] for x in range(dg.col.n)]], dtype=np.int64))[0]
    return (_matching(dg, matched),
            dict(zip(dg.dual_ids, matched[dg.col.n:].tolist())))


def temperley_inverse(dg: DoubleGraph, matching):
    """Matching -> (primal tree as vertex->white, dual tree as face->white).

    Refuses a matching that uses a half-edge the double graph lacks or
    does not use each black exactly once, and one whose primal part does
    not flow into o.
    """
    t, n = dg.white_table, dg.col.n
    w, b, slot = np.array([(w, b, slot) for w, (b, slot) in matching.items()],
                          dtype=np.int64).reshape(-1, 3).T
    if not (np.all((w >= 0) & (w < dg.n_white) & (slot >= 0) & (slot < 4))
            and np.all(t.mask[w, slot])
            and np.array_equal(t.black[w, slot], b)):
        raise ValueError("not a Temperley matching: a half-edge is not in "
                         "the double graph")
    if not np.array_equal(np.sort(b), np.arange(dg.n_black)):
        raise ValueError("matching does not use each black exactly once")
    primal = slot % 2 == 0
    tree = dict(zip(b[primal].tolist(), w[primal].tolist()))
    faces = np.where(slot == 1, t.left[w], t.right[w])
    dual_tree = dict(zip(faces[~primal].tolist(), w[~primal].tolist()))
    # primal part must be a forest flowing into o: 2^k steps along the
    # tree from any vertex reach o once 2^k > n
    head = np.full(n + 1, n)
    head[b[primal]] = np.where(slot == 0, t.y[w], t.x[w])[primal]
    for _ in range(n.bit_length()):
        head = head[head]
    if np.any(head != n):
        raise ValueError("matching decodes to a cyclic primal part")
    return tree, dual_tree


def tree_weight(dg: DoubleGraph, tree_whites, lam_ambient):
    """Product of tilted conductances over the tree's directed edges: the
    drifted weights of their half-edges at x or at y."""
    nu, t = drifted_weights(dg, lam_ambient), dg.white_table
    return math.prod(nu.weight(w, 0 if t.x[w] == x else 2)
                     for x, w in tree_whites.items())


def matching_weight(dg: DoubleGraph, weights: WeightSystem, matching,
                    exact=False):
    return math.prod((Fraction if exact else float)(weights.weight(w, slot))
                     for w, (_, slot) in matching.items())


class TemperleySampler:
    """Drifted-model matchings of one double graph, prepared once.

    Holds the tilted window with its transition table; the lookups, the
    parallel-white cdfs (`laws`) and the dual arcs are the window's one
    `temperley_plan`.  A sample reads one uniform per Wilson step, then one
    per tree edge with parallel whites, in vertex order, from one
    `walks.UniformReader`.  `sample` opens it on the caller's generator and
    hands it back, reading the stream as `_tilted_window`, `wilson_sample`,
    `resolve_tree` and `temperley_forward` do one after the other.
    `batches` carries one reader through a task's trees, then maps its
    (S, n) tree whites to matchings and heights as arrays; `samples` reads
    them as dicts.
    """

    PER_TASK = 256

    def __init__(self, dg: DoubleGraph, lam_ambient):
        self.dg = dg
        self.window = _tilted_window(dg, lam_ambient)
        _check_rooted(self.window, ())
        self.table = TransitionTable(self.window)
        self.laws = dg.temperley_plan.laws

    @classmethod
    def on_window(cls, ambient: WeightedGraph, subset, lam_ambient):
        """Sampler on the double graph of `subset` collapsed in `ambient`."""
        col = collapse_boundary(ambient, subset)
        _, dg = build_dual_and_double(col, ambient.positions)
        return cls(dg, lam_ambient)

    def _draw(self, reader):
        """The tree white out of each window vertex of one sample."""
        heads = _wilson_successors(self.table, reader, range(self.window.n),
                                   (), WILSON_STEP_CAP)
        return _resolve(self.dg, enumerate(heads), reader)

    def sample(self, rng):
        reader = UniformReader(rng, shared=True)
        whites = np.array([self._draw(reader)])
        reader.hand_back()
        return _matching(self.dg, _temperley_map(self.dg, whites)[0])

    def batches(self, n, seed):
        """Iterator over each task's (blacks, heights): the (S, n_white)
        black matched to each white and the (S, n_quads) heights of its S
        samples, in `quad_adjacency.quads` order.  Task t draws its PER_TASK
        samples from one reader on rng_stream(seed, t).  Too many samples
        for the task streams raise TaskRangeError here."""
        runs, dg = tasks(n, self.PER_TASK), self.dg

        def draws():
            # argsort inverts each row, a permutation: whites per black ->
            # blacks per white
            ref = np.argsort(_temperley_map(dg, _reference_tree(dg)))[0]
            for task, size in runs:
                reader = UniformReader(rng_stream(seed, task))
                whites = np.array([self._draw(reader) for _ in range(size)])
                blacks = np.argsort(_temperley_map(dg, whites))
                yield blacks, _height_map(dg, ref, blacks)
        return draws()

    def samples(self, n, seed):
        """Iterator over n (matching, height) dict pairs of `batches`."""
        return ((_matching(self.dg, m),
                 dict(zip(self.dg.quad_adjacency.quads, h)))
                for blacks, heights in self.batches(n, seed)
                for m, h in zip(np.argsort(blacks), heights.tolist()))


def sample_matching(dg: DoubleGraph, lam_ambient, rng):
    """Sample a drifted-model matching through Wilson + Temperley."""
    return TemperleySampler(dg, lam_ambient).sample(rng)


def _tilted_window(dg: DoubleGraph, lam_ambient):
    """Wired window with tilted conductances matching the drifted model."""
    col, t = dg.col, dg.white_table
    c, lx, ly = _float_ends(dg, lam_ambient)
    fwd = c * ly / lx
    spoke = ~t.mask[:, 2]
    masses = np.bincount(t.x[spoke], weights=fwd[spoke], minlength=col.n)
    # each window edge x -> y, then its reverse, in white order
    off = ~spoke
    edges = (np.stack([t.x, t.y], axis=1)[off].ravel(),
             np.stack([t.y, t.x], axis=1)[off].ravel(),
             np.stack([fwd, c * lx / ly], axis=1)[off].ravel())
    return WeightedGraph(col.n, edges, masses, positions=col.positions,
                         check=False)


# -- determinantal identities ------------------------------------------------


def local_statistics(dg: DoubleGraph, K, half_edges, Kinv=None):
    """P(half-edges in the matching) = prod K[w,b] det K^-1[b_i, w_j]."""
    if Kinv is None:
        Kinv = np.linalg.inv(K)
    coeff = 1.0 + 0.0j
    for (w, b) in half_edges:
        coeff *= K[w, b]
    minor = np.array([[Kinv[b_i, w_j] for (w_j, _) in half_edges]
                      for (_, b_i) in half_edges])
    return (coeff * np.linalg.det(minor)).real


def verify_block_identity(dg: DoubleGraph, lam_ambient, lam_star, window):
    """Blocks of (K^k)^dagger K^k against Delta^k_V and the dual operator.

    `window` is the wired restriction of the ambient graph on the same
    vertex order as the collapse.  Returns (max off-block entry, max
    V-block off-diagonal gap, max dual-block gap, max V-block diagonal
    gap); the last is the harmonicity defect of lambda and vanishes when
    lambda is massive harmonic on the window.
    """
    weights = killed_weights(dg, lam_ambient, lam_star)
    K = kasteleyn_matrix(dg, weights).toarray()
    A = K.conj().T @ K
    n = dg.col.n

    off = float(max(np.max(np.abs(A[:n, n:]), initial=0.0),
                    np.max(np.abs(A[n:, :n]), initial=0.0)))

    Lk = assemble_massive_laplacian(window).toarray()
    v_block = A[:n, :n].real
    diff = v_block - Lk
    v_offdiag = float(np.max(np.abs(diff - np.diag(np.diag(diff)))))
    v_diag_defect = float(np.max(np.abs(np.diag(diff))))

    dual = A[n:, n:].real
    dual_ref = dual_operator(dg, lam_ambient, lam_star).toarray()
    dual_dev = float(np.max(np.abs(dual - dual_ref), initial=0.0))
    return off, v_offdiag, dual_dev, v_diag_defect


def dual_operator(dg: DoubleGraph, lam_ambient, lam_star):
    """Delta~* on the kept dual vertices as a scipy CSC matrix: each white
    adds c~* / lambda*(f)^2 at each kept face f beside it, c~* = 1 / (c
    lambda(x) lambda(y)), and -c~* / (lambda*(left) lambda*(right)) off the
    diagonal when both faces are kept and distinct."""
    t = dg.white_table
    c, lx, ly = _float_ends(dg, lam_ambient)
    ls = _face_values(dg, lam_star)
    ct = 1.0 / (c * lx * ly)
    off = -(ct / (ls[t.left] * ls[t.right]))
    pair = t.mask[:, 1] & t.mask[:, 3] & (t.left != t.right)
    a, b = t.black[:, 1] - dg.col.n, t.black[:, 3] - dg.col.n
    keep = np.stack([t.mask[:, 1], t.mask[:, 3], pair, pair], axis=1)
    rows = np.stack([a, b, a, b], axis=1)[keep]
    cols = np.stack([a, b, b, a], axis=1)[keep]
    vals = np.stack([ct / ls[t.left] ** 2, ct / ls[t.right] ** 2, off, off],
                    axis=1)[keep]
    nd = len(dg.dual_ids)
    return _csc_from_triplets(rows, cols, vals, (nd, nd))


def recover_fields_from_weights(dg: DoubleGraph, weights: WeightSystem):
    """Reciprocal direction: weights passing the block test come from fields.

    Recovers (lambda on window vertices, lambda* on kept faces) up to one
    global factor from a killed weight system; returns maps normalized so
    lambda = 1 at the smallest window vertex.
    """
    # lambda ratios along window edges: nu_wx / nu_wy = lam(y)/lam(x),
    # multiplied up the breadth-first tree of the window from vertex 0
    t, nu, n = dg.white_table, weights.values.astype(float), dg.col.n
    off = np.flatnonzero(t.mask[:, 2])
    by = np.lexsort((np.r_[off, off], np.r_[t.x[off], t.y[off]]))
    tail, head = np.r_[t.x[off], t.y[off]][by], np.r_[t.y[off], t.x[off]][by]
    ratio = np.r_[nu[off, 0] / nu[off, 2], nu[off, 2] / nu[off, 0]][by]
    pred, step = breadth_first(n, tail, head, 0)[1], np.ones(n)
    tree = pred[head] == tail
    step[head[tree]] = ratio[tree]
    lam_v = np.append(np.ones(n), np.nan)  # NaN at o
    node, up = tree_paths(pred, 0)
    np.multiply.at(lam_v, node, step[up])
    lam = dict(enumerate(lam_v[:n].tolist()))
    # a spoke's sqrt(c lam(x) lam(z)) is nu_wx lam(x): no outside value
    root = np.where(t.mask[:, 2], np.sqrt(
        nu[:, 0] * nu[:, 2] * lam_v[t.x] * lam_v[t.y]), nu[:, 0] * lam_v[t.x])
    w, right = np.nonzero(t.mask[:, [1, 3]])  # white order, left first
    faces = np.where(right, t.right[w], t.left[w])
    lam_star = 1.0 / (nu[w, 1 + 2 * right] * root[w])
    # the later whites of a face overwrite the earlier ones
    return lam, dict(zip(faces.tolist(), lam_star.tolist()))


def _log_det_relation_constant(dg: DoubleGraph, lam_ambient, lam_star):
    t = dg.white_table
    n = dg.col.n
    c, _, ly = _float_ends(dg, lam_ambient)
    spoke = ~t.mask[:, 2]
    # whites at each window vertex; a spoke's y is o, counted at n and cut
    deg = np.bincount(np.concatenate([t.x, t.y]), minlength=n + 1)[:n]
    logc = np.sum((1.0 - 0.5 * deg) * np.log(_vertex_values(dg, lam_ambient)))
    logc -= 0.5 * (np.sum(np.log(c)) + np.sum(np.log(ly[spoke])))
    # dual columns of K^k scale as 1/lambda*, hence the inverse product
    logc -= np.sum(np.log(_face_values(dg, lam_star)[dg.dual_ids]))
    return float(logc)


def det_relation_constant(dg: DoubleGraph, lam_ambient, lam_star):
    """C(c, lambda, lambda*) of the determinant identity."""
    return math.exp(_log_det_relation_constant(dg, lam_ambient, lam_star))


def verify_det_relation(dg: DoubleGraph, lam_ambient, lam_star, window):
    """(log|det K^k|, log(C det Delta^k_V), relative gap).

    Log-magnitudes stay finite on windows whose determinants overflow; the
    gap is |expm1(log|det K^k| - log(C det Delta^k_V))|, inf when
    det Delta^k_V is not positive.
    """
    _, log_det_k = log_determinant(
        kasteleyn_matrix(dg, killed_weights(dg, lam_ambient, lam_star)))
    sign_l, log_det_l = log_determinant(assemble_massive_laplacian(window))
    log_rhs = _log_det_relation_constant(dg, lam_ambient, lam_star) + \
        log_det_l
    gap = abs(math.expm1(log_det_k - log_rhs)) if sign_l > 0 else math.inf
    return log_det_k, log_rhs, gap


def self_duality_residuals(dg: DoubleGraph, lam_ambient, lam_star):
    """|lam(x) lam(y) lam*(left) lam*(right) - 1| per interior quad white."""
    t = dg.white_table
    _, lx, ly = _float_ends(dg, lam_ambient)
    ls = _face_values(dg, lam_star)
    boundary = [*dg.structure.o_faces, dg.r]
    quad = np.flatnonzero(t.mask[:, 2] & ~np.isin(t.left, boundary)
                          & ~np.isin(t.right, boundary))
    res = np.abs(lx * ly * ls[t.left] * ls[t.right] - 1.0)
    return list(zip(quad.tolist(), res[quad].tolist()))


def dual_block_vs_inverse_conductances(dg: DoubleGraph, lam_ambient,
                                       lam_star):
    """Off-diagonal of the dual block against -1/c_xy (self-dual form).

    Returns (max off-diagonal gap over interior dual pairs, implied dual
    masses); self-duality demands the masses be nonnegative (and ~0 at
    criticality).
    """
    t = dg.white_table
    D = dual_operator(dg, lam_ambient, lam_star)
    nd = len(dg.dual_ids)
    pair = t.mask[:, 1] & t.mask[:, 3] & (t.left != t.right)
    faces = t.black[pair][:, [1, 3]] - dg.col.n  # dual indices (a, b)
    inv_c = 1.0 / _float_ends(dg, lam_ambient)[0][pair]
    # 1/c at (a, b) and at (b, a) of each such white, in white order
    cstar = _csc_from_triplets(faces.ravel(), faces[:, ::-1].ravel(),
                               np.repeat(inv_c, 2), (nd, nd))
    gap = (D + cstar).tocoo()
    interior = ~np.isin(dg.dual_ids, dg.structure.o_faces)
    inside = interior[gap.row] & interior[gap.col] & (gap.row != gap.col)
    off_gap = float(np.max(np.abs(gap.data[inside]), initial=0.0))
    return off_gap, D.diagonal() - np.asarray(cstar.sum(axis=1)).ravel()


# -- height field -------------------------------------------------------------


def _reference_tree(dg: DoubleGraph):
    """(1, n) tree whites of the breadth-first tree of the collapsed window
    from o, neighbours in sorted order: each vertex takes its first white
    to o or to the vertex it was reached from."""
    t, n = dg.white_table, dg.col.n
    # every white both ways (o is node n), by tail, then head, then white
    tail, head = np.r_[t.x, t.y], np.r_[t.y, t.x]
    white = np.tile(np.arange(dg.n_white), 2)
    by = np.lexsort((white, head, tail))
    pred = breadth_first(n + 1, tail[by], head[by], n)[1]
    if (pred[:n] < 0).any():
        raise ValueError("window has vertices with no route to o")
    tree = by[pred[head[by]] == tail[by]]
    return white[tree[np.unique(head[tree], return_index=True)[1]]][None]


def reference_matching(dg: DoubleGraph):
    """Deterministic matching from a BFS tree of the collapsed window."""
    return _matching(dg, _temperley_map(dg, _reference_tree(dg))[0])


def height_function(dg: DoubleGraph, matching, reference=None):
    """Height of `matching` relative to the deterministic reference, as a
    (corner, face) -> height dict over the interior quads in their sorted
    order, zero at the first quad (`_height_map` of one sample)."""
    if reference is None:
        reference = reference_matching(dg)
    ref, cur = (np.array([m[w][0] for w in range(dg.n_white)])
                for m in (reference, matching))
    return dict(zip(dg.quad_adjacency.quads,
                    _height_map(dg, ref, cur[None])[0].tolist()))


def _height_map(dg: DoubleGraph, ref, blacks):
    """(S, n_quads) heights of the rows of `blacks`, the black matched to
    each white, against the reference's `ref`.  The difference flow of two
    matchings is divergence-free at every surviving vertex, so its dual
    potential is well-defined on the quads: its increments are summed along
    the quads' spanning tree (one integer product with `paths`), and
    closure (curl-freeness) is asserted on every adjacency of every row."""
    adj = dg.quad_adjacency
    dh = (adj.black == ref[adj.white]).astype(np.int8) - \
        (adj.black == blacks[:, adj.white])
    dh *= adj.sign
    h = (adj.paths @ dh.T).T
    if np.any(h[:, adj.dst] - h[:, adj.src] != dh):
        raise ValueError("height increments have curl")
    return h.astype(float)
