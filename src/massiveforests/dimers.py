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
    _lu_diagonal,
    assemble_massive_laplacian,
    determinant_exact,
    log_determinant,
)
from .planar import DoubleGraph, build_dual_and_double
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
    """Phase per (white, slot): 1, i, -1, -i clockwise from the tail."""
    return {(w, slot): PHASES[slot]
            for w in range(dg.n_white)
            for slot in range(4)}


def check_kasteleyn_property(dg: DoubleGraph, phases=None):
    """Alternating product around every surviving quad must be -1."""
    if phases is None:
        phases = kasteleyn_phases(dg)
    t = dg.white_table
    bad = []
    for (corner, w1, fid, w2) in dg.quad_faces():
        # each white meets the corner at x or y, the face at left or right
        s1c, s2c = (0 if t.x[w] == corner else 2 for w in (w1, w2))
        s1f, s2f = (1 if t.left[w] == fid else 3 for w in (w1, w2))
        prod = (phases[(w1, s1c)] * phases[(w2, s2f)]) / \
            (phases[(w2, s2c)] * phases[(w1, s1f)])
        if abs(prod + 1) > 1e-12:
            bad.append((corner, w1, fid, w2, prod))
    return bad


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

    lambda is read at the ambient vertices behind the white's ends (a
    spoke's y at o reads its ambient target); Fractions make object
    arrays, so exact weights stay exact."""
    c = np.array([info["edge"].cond for info in dg.whites])
    lx = np.array([lam_ambient[ax] for ax, _ in dg.ambient_ends])
    ly = np.array([lam_ambient[ay] for _, ay in dg.ambient_ends])
    return c, lx, ly


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


def _white_pairs(dg: DoubleGraph):
    """Whites per (x, y) endpoint pair.

    Tree edges start at window vertices, so pairs starting at o are left
    out.
    """
    whites = {}
    for w, info in enumerate(dg.whites):
        whites.setdefault((info["x"], info["y"]), []).append(w)
        if info["y"] != "o":
            whites.setdefault((info["y"], info["x"]), []).append(w)
    return whites


def _choice_cdf(weights):
    """Cumulative law of `weights`, built as `rng.choice(k, p=p)` builds
    it (p.cumsum() over its last value), so `bisect_right(cdf, u)` is the
    index `rng.choice` picks from the same uniform u."""
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _resolve(dg: DoubleGraph, whites, laws, successors, reader):
    """Parallel edges (several whites between the same endpoints, e.g.
    spokes to o) are drawn proportionally to conductance, one uniform of
    `reader` each; `successors` yields (vertex, head) pairs, and `laws`
    keeps the cdf of each pair once computed."""
    out = {}
    for x, y in successors:
        y = "o" if y == dg.col.o or y == ROOT else y
        cands = whites.get((x, y))
        if cands is None:
            raise ValueError(f"no double-graph edge for tree edge {x}->{y}")
        if len(cands) == 1 or reader is None:
            out[x] = cands[0]
            continue
        cdf = laws.get((x, y))
        if cdf is None:
            cdf = laws[(x, y)] = _choice_cdf(np.array(
                [float(dg.whites[w]["edge"].cond) for w in cands]))
        out[x] = cands[bisect_right(cdf, reader.next())]
    return out


def resolve_tree(dg: DoubleGraph, assignment, rng=None):
    """Vertex -> head map into vertex -> white map, resolving parallels.

    Parallel edges are drawn proportionally to conductance with `rng`, one
    uniform each (the one `rng.choice` would read), or resolved to their
    first white without it.
    """
    reader = None if rng is None else UniformReader(rng, shared=True)
    out = _resolve(dg, _white_pairs(dg), {}, assignment.items(), reader)
    if reader is not None:
        reader.hand_back()
    return out


def temperley_forward(dg: DoubleGraph, tree_whites):
    """Tree rooted at o -> perfect matching (with its dual tree).

    `tree_whites` maps every window vertex to the white of its outgoing
    edge.  The dual tree is the unique spanning tree of the dual graph on
    the unused whites, oriented toward r.
    """
    col = dg.col
    matching = {}
    used = set()
    for x in range(col.n):
        w = tree_whites[x]
        info = dg.whites[w]
        if info["x"] != x and info["y"] != x:
            raise ValueError("tree edge does not start at its vertex")
        matching[w] = (dg.black_of_vertex(x), 0 if info["x"] == x else 2)
        used.add(w)

    # depth-first search from r over the dual edges of the unused whites
    adj = dg.dual_adjacency
    seen = {dg.r}
    stack = [dg.r]
    dual_tree = {}
    while stack:
        f = stack.pop()
        for (g2, w) in adj.get(f, ()):
            if w in used or g2 in seen:
                continue
            seen.add(g2)
            dual_tree[g2] = w
            stack.append(g2)
    for f in dg.dual_ids:
        if f not in dual_tree:
            raise ValueError("dual complement is not spanning: input was "
                             "not a tree rooted at o")
        w = dual_tree[f]
        info = dg.whites[w]
        slot = 1 if info["left"] == f else 3
        matching[w] = (dg.black_of_face(f), slot)
    if len(matching) != dg.n_white:
        raise ValueError("Temperley image is not perfect")
    return matching, dual_tree


def temperley_inverse(dg: DoubleGraph, matching):
    """Matching -> (primal tree as vertex->white, dual tree as face->white)."""
    tree, dual_tree = {}, {}
    for w, (b, slot) in matching.items():
        info = dg.whites[w]
        if slot in (0, 2):
            x = info["x"] if slot == 0 else info["y"]
            if x == "o" or tree.get(x) is not None:
                raise ValueError("not a Temperley matching")
            tree[x] = w
        else:
            f = info["left"] if slot == 1 else info["right"]
            dual_tree[f] = w
    if len(tree) != dg.col.n or len(dual_tree) != len(dg.dual_ids):
        raise ValueError("matching does not cover the blacks")
    # primal part must be a forest flowing into o
    head = {}
    for x, w in tree.items():
        info = dg.whites[w]
        head[x] = info["y"] if info["x"] == x else info["x"]
    color = {}
    for start in head:
        x, chain = start, []
        while x != "o" and x in head and color.get(x, 0) == 0:
            color[x] = 1
            chain.append(x)
            x = head[x]
        if x != "o" and color.get(x) == 1:
            raise ValueError("matching decodes to a cyclic primal part")
        for v in chain:
            color[v] = 2
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

    Holds the tilted window with its transition table, the whites per
    endpoint pair and the conductance cdf of each parallel pair met so
    far.  A sample reads one uniform per Wilson step, then one per tree
    edge with parallel whites, in vertex order, all from one
    `walks.UniformReader`.  `sample` opens a reader on the caller's
    generator and hands it back after the sample, so it reads the stream
    exactly as `_tilted_window`, `wilson_sample`, `resolve_tree` and
    `temperley_forward` do one after the other; `samples` carries one
    reader through each task's samples.
    """

    PER_TASK = 256

    def __init__(self, dg: DoubleGraph, lam_ambient):
        self.dg = dg
        self.window = _tilted_window(dg, lam_ambient)
        _check_rooted(self.window, ())
        self.table = TransitionTable(self.window)
        self.whites = _white_pairs(dg)
        self.laws = {}

    @classmethod
    def on_window(cls, ambient: WeightedGraph, subset, lam_ambient):
        """Sampler on the double graph of `subset` collapsed in `ambient`."""
        col = collapse_boundary(ambient, subset)
        _, dg = build_dual_and_double(col, ambient.positions)
        return cls(dg, lam_ambient)

    def _draw(self, reader):
        heads = _wilson_successors(self.table, reader, range(self.window.n),
                                   (), WILSON_STEP_CAP)
        tree = _resolve(self.dg, self.whites, self.laws, enumerate(heads),
                        reader)
        return temperley_forward(self.dg, tree)[0]

    def sample(self, rng):
        reader = UniformReader(rng, shared=True)
        matching = self._draw(reader)
        reader.hand_back()
        return matching

    def samples(self, n, seed):
        """Iterator over n (matching, height) pairs; task t draws its
        PER_TASK samples from one reader on rng_stream(seed, t).  Too many
        samples for the task streams raise TaskRangeError here."""
        batches = tasks(n, self.PER_TASK)

        def draws():
            reference = _blacks(self.dg, reference_matching(self.dg))
            for task, size in batches:
                reader = UniformReader(rng_stream(seed, task))
                for _ in range(size):
                    m = self._draw(reader)
                    yield m, _heights(self.dg, reference, m)
        return draws()


def sample_matching(dg: DoubleGraph, lam_ambient, rng):
    """Sample a drifted-model matching through Wilson + Temperley."""
    return TemperleySampler(dg, lam_ambient).sample(rng)


def _tilted_window(dg: DoubleGraph, lam_ambient):
    """Wired window with tilted conductances matching the drifted model."""
    col = dg.col
    t = dg.white_table
    c, lx, ly = _float_ends(dg, lam_ambient)
    fwd = c * ly / lx
    spoke = ~t.mask[:, 2]
    masses = np.bincount(t.x[spoke], weights=fwd[spoke], minlength=col.n)
    # each window edge x -> y, then its reverse, in white order
    off = ~spoke
    edges = zip(np.stack([t.x, t.y], axis=1)[off].ravel().tolist(),
                np.stack([t.y, t.x], axis=1)[off].ravel().tolist(),
                np.stack([fwd, c * lx / ly], axis=1)[off].ravel().tolist())
    return WeightedGraph(col.n, list(edges), masses.tolist(),
                         positions=col.positions, check=False)


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
    # lambda ratios along window edges: nu_wx / nu_wy = lam(y)/lam(x)
    lam = {0: 1.0}
    order = [0]
    seen = {0}
    adj = dg.primal_adjacency
    while order:
        x = order.pop()
        for (y, w) in adj.get(x, []):
            if y in seen:
                continue
            info = dg.whites[w]
            nu_x = float(weights.weight(w, 0 if info["x"] == x else 2))
            nu_y = float(weights.weight(w, 2 if info["x"] == x else 0))
            lam[y] = lam[x] * nu_x / nu_y
            seen.add(y)
            order.append(y)
    t, nu = dg.white_table, weights.values.astype(float)
    lam_v = np.append([lam[x] for x in range(dg.col.n)], np.nan)  # NaN at o
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
    K = kasteleyn_matrix(dg, killed_weights(dg, lam_ambient, lam_star))
    diag, _ = _lu_diagonal(K)
    with np.errstate(divide="ignore"):
        log_det_k = float(np.sum(np.log(np.abs(diag))))
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


class HeightField:
    """Height per quad of the double graph, zero at the reference quad."""

    def __init__(self, values, reference):
        self.values = values      # (corner, face) -> height
        self.reference = reference

    def __getitem__(self, quad):
        return self.values[quad]


def reference_matching(dg: DoubleGraph):
    """Deterministic matching from a BFS tree of the collapsed window."""
    col = dg.col
    # BFS toward o: boundary vertices point at a spoke, others at parents
    adj = dg.primal_adjacency
    spokes = np.flatnonzero(~dg.white_table.mask[:, 2])
    xs, first = np.unique(dg.white_table.x[spokes], return_index=True)
    tree = dict(zip(xs.tolist(), spokes[first].tolist()))
    seen = set(tree)
    frontier = list(tree)
    while frontier:
        nxt = []
        for x in frontier:
            for (y, w) in sorted(adj.get(x, [])):
                if y not in seen:
                    tree[y] = w
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(tree) != col.n:
        raise ValueError("window has vertices with no route to o")
    matching, _ = temperley_forward(dg, tree)
    return matching


def height_function(dg: DoubleGraph, matching, reference=None) -> HeightField:
    """Height of `matching` relative to the deterministic reference.

    The difference flow of the two matchings is divergence-free at every
    surviving vertex, so its dual potential is well-defined on the quads.
    It is integrated along a spanning tree of the quad adjacency, and
    closure (curl-freeness) is asserted on every adjacency.
    """
    if reference is None:
        reference = reference_matching(dg)
    return _heights(dg, _blacks(dg, reference), matching)


def _blacks(dg: DoubleGraph, matching):
    """The black matched to each white, as an array over the whites."""
    return np.array([matching[w][0] for w in range(dg.n_white)])


def _heights(dg: DoubleGraph, ref, matching) -> HeightField:
    """`height_function` against the reference's `_blacks` array."""
    adj = dg.quad_adjacency
    cur = _blacks(dg, matching)
    flow = (adj.black == ref[adj.white]).astype(float) - \
        (adj.black == cur[adj.white])
    dh = adj.sign * flow
    h = np.zeros(len(adj.quads))
    for j, i, e in adj.tree:
        h[j] = h[i] + dh[e]
    if np.any(np.abs(h[adj.dst] - (h[adj.src] + dh)) > 1e-9):
        raise ValueError("height increments have curl")
    return HeightField(dict(zip(adj.quads, h.tolist())), adj.quads[0])
