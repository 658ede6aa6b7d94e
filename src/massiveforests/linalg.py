"""Massive Laplacians, potentials and transfer currents.

One assembler builds the (row, col, value) triplets of the massive
Laplacian from the edge arrays and sums them into a sparse CSC matrix
(float) or a Fraction matrix (exact); no dense float Laplacian is built.
The same triplet summation builds the Kasteleyn and dual matrices.
Float determinants and log-determinants, of sparse matrices and of small
dense ones, and the few potential columns a determinantal query reads
come from one sparse LU (SuperLU) on one fill-reducing ordering, the
minimum degree of A^T + A; a query's columns are solved SOLVE_BLOCK at a
time.  The full float potential is one block elimination over the BFS
levels of the graph, in whose order the Laplacian is block tridiagonal;
it builds no factor.  Both write one Fortran-ordered output on its own
memory mapping, so that freeing a potential hands its pages back to the
OS.  Every exact determinant and solve is one fraction-free (Bareiss)
elimination over Python integers, on sparse rows each scaled to integers,
skipping zero entries (a graph's rows come straight from its triplets),
so that the matrix-forest and determinantal identities can be checked
bit-exactly against the enumeration oracles; Fractions are built only
for its outputs.  A graph with a massless component is refused before
any of these, read on the graph's component labels.  Each graph's
Laplacian is factored once for its queries, float and exact, and the
factors are kept while the graph lives: every later determinantal query
and exact potential on it only solves its columns (exact columns are
solved once and kept too).  The float Laplacian that
`assemble_massive_laplacian` returns is read-only and linked to its graph,
so its `determinant` and `log_determinant` read that same kept SuperLU
factor (its LU diagonal and sign are read once); any other matrix, a copy
of such a Laplacian included, is factored on every call.
"""

from __future__ import annotations

import math
import mmap
import warnings
import weakref
from fractions import Fraction

import numpy as np

from .graphs import ROOT, WeightedGraph

SOLVE_BLOCK = 64  # potential columns per SuperLU solve


class RecurrentWalkError(ValueError):
    """Raised when the massive Laplacian is singular (m == 0, finite graph)."""


def _laplacian_triplets(g: WeightedGraph, exact=False):
    """Unsummed (row, col, value) triplets of the massive Laplacian.

    Masses come first, then the loop-free edges in edge order, so summing
    the triplets in order adds the terms of each entry in the same order as
    a loop over the out-edges would.  Loops are dropped: c(x) - c_(x,x)
    cancels them.
    """
    keep = np.flatnonzero(g.tail != g.head)
    t, h = g.tail[keep], g.head[keep]
    diag = np.arange(g.n)
    rows = np.concatenate([diag, t, t])
    cols = np.concatenate([diag, t, h])
    if exact:
        c = [Fraction(g.cond[i]) for i in keep.tolist()]
        vals = [Fraction(m) for m in g.masses] + c + [-v for v in c]
    else:
        c = g.cond_f[keep]
        vals = np.concatenate([g.masses_f, c, -c])
    return rows, cols, vals


def _csc_from_triplets(rows, cols, vals, shape):
    """scipy CSC matrix of `shape` whose entry (i, j) sums the vals of the
    triplets at (i, j) in triplet order, complex vals as their real and
    imaginary parts; entries summing to exactly 0 are not stored."""
    import scipy.sparse

    n_rows, n_cols = shape
    keys = np.asarray(cols) * n_rows + rows
    # a stable sort keeps each entry's triplets in triplet order, and holds
    # fewer key-sized arrays than np.unique's inverse would
    perm = np.argsort(keys, kind="stable")
    keys, vals = keys[perm], vals[perm]
    del perm
    first = np.ones(len(keys), bool)  # the first triplet of each entry
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    entry = np.cumsum(first) - 1
    sums = np.bincount(entry, weights=vals.real).astype(vals.dtype)
    if np.iscomplexobj(vals):
        sums.imag = np.bincount(entry, weights=vals.imag)
    del entry, vals  # not held through the CSC build
    nonzero = sums != 0
    cols, rows = np.divmod(keys[nonzero], n_rows)  # keys sorted column-major
    return scipy.sparse.csc_matrix(
        (sums[nonzero], rows, np.searchsorted(cols, np.arange(n_cols + 1))),
        shape=shape)


def assemble_massive_laplacian(g: WeightedGraph):
    """Float massive Laplacian as a scipy CSC matrix: diag m(x)+c(x)-c_(x,x),
    off -c_(x,y).  Each entry sums its triplets in triplet order; entries
    summing to exactly 0.0 are not stored (the dense nonzero pattern).

    The matrix is read-only (its data, indices and indptr) and linked to g
    while both live: its `determinant` and `log_determinant` and g's
    determinantal queries share one SuperLU factor, kept with g.  Copies
    and pickles of it are writable and not linked.
    """
    L = _csc_from_triplets(*_laplacian_triplets(g), (g.n, g.n))
    for a in (L.data, L.indices, L.indptr):
        a.flags.writeable = False
    _LINKED[id(L)] = weakref.ref(g)
    weakref.finalize(L, _LINKED.pop, id(L), None)
    return L


class _Factors:
    """What is kept of one graph between queries: the factors of its
    massive Laplacian (`lu[False]` SuperLU, `lu[True]` the exact LU), the
    LU diagonal and sign of `lu[False]` once a determinant has read them,
    whether the graph passed `_require_transient`, and the exact columns
    of V solved so far (vertex -> (column, c^k)).  An exactly singular
    factor is never kept; a float one kept by a determinant may predate
    the transience check, which every query still makes first."""

    def __init__(self):
        self.lu = {}
        self.diagonal = None
        self.transient = False
        self.exact_columns = {}


# one entry per live graph, dropped with the graph; a graph must not be
# mutated once it has been queried
_FACTORS = weakref.WeakKeyDictionary()
# id of a live float Laplacian from `assemble_massive_laplacian` -> weak
# reference to its graph; an entry is dropped with its matrix, so the
# matrix itself stays picklable and copyable
_LINKED = {}


def _graph_record(g: WeightedGraph):
    """The graph's `_Factors`, made on first use."""
    f = _FACTORS.get(g)
    if f is None:
        f = _FACTORS[g] = _Factors()
    return f


def _float_factors(M):
    """A `_Factors` whose `lu[False]` is the SuperLU factor of M, absent if
    M is singular.  For a Laplacian linked to a live graph it is the
    graph's record, and M is factored only if no factor is kept there; any
    other matrix gets a fresh record, factored on every call."""
    ref = _LINKED.get(id(M))
    g = None if ref is None else ref()
    f = _Factors() if g is None else _graph_record(g)
    if False not in f.lu:
        lu = _sparse_lu(M)
        if lu is not None:
            f.lu[False] = lu
    return f


def assemble_massive_laplacian_exact(g: WeightedGraph):
    """Same matrix with Fraction entries (graph data must be rational)."""
    n = g.n
    L = [[Fraction(0)] * n for _ in range(n)]
    rows, cols, vals = _laplacian_triplets(g, exact=True)
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals):
        L[r][c] += v
    return L


def _permutation_parity(p):
    """Sign (+1.0 or -1.0) of the permutation p: a cycle of length l takes
    l - 1 swaps, so n swaps less one per cycle.  Each cycle is counted at
    its least element, found by pointer doubling: after r rounds least[i]
    is the least of i, p(i), ..., p^(2^r - 1)(i)."""
    p = np.asarray(p, dtype=np.intp)  # SuperLU's perms are int32
    n = len(p)
    least, step = np.arange(n), p
    for _ in range(max(n - 1, 0).bit_length()):
        least = np.minimum(least, least[step])
        step = step[step]
    cycles = np.count_nonzero(least == np.arange(n))
    return -1.0 if (n - cycles) % 2 else 1.0


def _sparse_lu(M):
    """SuperLU factorization of a square float or complex matrix, columns
    in minimum-degree order of A^T + A (the Laplacian's pattern is
    symmetric); None if singular.

    M is a scipy sparse matrix or a dense array; dense arrays reaching
    here are small (determinantal minors), so scipy's own conversion does.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    dtype = complex if np.iscomplexobj(M) else float
    A = scipy.sparse.csc_matrix(M, dtype=dtype)
    try:
        return scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # "Factor is exactly singular"
        if "singular" not in str(err):
            raise
        return None


def _lu_diagonal(M):
    """Diagonal of U and the permutation sign of the sparse LU of M, read
    once per kept factor (a linked Laplacian's) and then kept with it.

    A singular M shows as a zero on the diagonal.
    """
    if np.shape(M) == (0, 0):
        return np.ones(0), 1.0
    f = _float_factors(M)
    lu = f.lu.get(False)
    if lu is None:
        return np.zeros(1), 1.0
    if f.diagonal is None:
        # read once: SciPy keeps copies of L and U on lu once U is read
        diag = lu.U.diagonal()
        diag.flags.writeable = False
        f.diagonal = (diag, _permutation_parity(lu.perm_r) *
                      _permutation_parity(lu.perm_c))
    return f.diagonal


def determinant(M):
    """LU determinant of a dense or sparse float or complex matrix (0 if
    singular), complex for complex M.

    A Laplacian from `assemble_massive_laplacian` whose graph lives reads
    the graph's kept SuperLU factor, built here if no query built it
    first; any other matrix is factored on each call.  The product of the
    LU diagonal over- or underflows on large matrices (a 40x40 grid at
    mass 0.05 gives inf); a RuntimeWarning then points to
    `log_determinant`, whose value stays finite.
    """
    diag, sign = _lu_diagonal(M)
    kind = complex if np.iscomplexobj(M) else float
    if np.any(diag == 0.0):
        return kind(0.0)
    with np.errstate(over="ignore", under="ignore"):
        det = sign * kind(np.prod(diag))
    if (det == 0.0 or not np.isfinite(det)) and np.all(np.isfinite(diag)):
        warnings.warn(
            "determinant over- or underflows float64 although log|det| is "
            "finite; use log_determinant", RuntimeWarning, stacklevel=2)
    return det


def log_determinant(M):
    """(sign, log|det|) for scale-robust comparisons; (0.0, -inf) if singular.
    A complex M has a complex sign of modulus 1 (np.sign(z) is z / |z|).

    Reads the same factor as `determinant`: a linked Laplacian's is kept
    with its graph, any other matrix is factored on each call.
    """
    diag, sign = _lu_diagonal(M)
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(np.abs(diag))))
    kind = complex if np.iscomplexobj(M) else float
    return sign * kind(np.prod(np.sign(diag))), logdet


def _integer_rows(rows):
    """Rows given as (column, rational) pairs, as dicts of integers: each
    row times the lcm of its denominators, duplicate columns summed and
    zeros dropped.  Returns the rows and the row scales."""
    out, scales = [], []
    for row in rows:
        row = [(j, v if type(v) in (int, Fraction) else Fraction(v))
               for j, v in row if v]
        d = math.lcm(*[v.denominator for _, v in row])
        r = {}
        for j, v in row:
            r[j] = r.get(j, 0) + v.numerator * (d // v.denominator)
        out.append({j: v for j, v in r.items() if v})
        scales.append(d)
    return out, scales


class _ExactLU:
    """Fraction-free (Bareiss) LU over the integers of a rational matrix,
    each row scaled by the lcm of its denominators: no gcd is taken.

    Rows are dicts of their nonzeros.  Step k pivots on the first row at
    or below k with a nonzero in column k and updates the rows below with
    a nonzero there, a_ij <- (p_k a_ij - a_ik a_kj) / p_k-1 exactly; a row
    a step leaves alone is only scaled by p_k / p_k-1, done when it is next
    used.  Each step keeps its swap and its (row, multiplier) list for
    `solve`; row k keeps the entries right of its pivot `piv[k + 1]`.
    `det` is Fraction(0) for a singular matrix, of which nothing is kept.
    """

    def __init__(self, rows):
        rows, self.scales = _integer_rows(rows)
        n = len(rows)
        piv = self.piv = [1]  # piv[k]: the divisor of step k
        at = [0] * n  # the step each row's entries are current at
        self.swaps, self.mults, sign = [], [], 1
        for k in range(n):
            s = next((i for i in range(k, n) if k in rows[i]), None)
            if s is None:
                self.det = Fraction(0)
                return
            if s != k:
                rows[k], rows[s] = rows[s], rows[k]
                at[k], at[s] = at[s], at[k]
                sign = -sign
            self.swaps.append(s)
            d, top = piv[k], rows[k]
            if at[k] != k:
                f = piv[at[k]]
                for j, v in top.items():
                    top[j] = v * d // f
            p = top.pop(k)
            piv.append(p)
            rest = list(top.items())
            mults = []
            for i in range(k + 1, n):
                row = rows[i]
                a = row.pop(k, None)
                if a is None:
                    continue
                if at[i] == k:
                    new = {j: p * v for j, v in row.items()}
                else:
                    f = piv[at[i]]
                    a = a * d // f
                    new = {j: p * (v * d // f) for j, v in row.items()}
                for j, u in rest:
                    new[j] = new.get(j, 0) - a * u
                rows[i] = {j: v // d for j, v in new.items() if v}
                at[i] = k + 1
                mults.append((i, a))
            self.mults.append(mults)
        self.rows = rows
        self.det = Fraction(sign * piv[n], math.prod(self.scales))

    def solve(self, column):
        """x with M x = b, b given as (row, rational) pairs of its nonzeros,
        as a list of Fractions: b scaled to integers goes through the steps
        (each swap at its step), and back substitution gives y = piv[n] x
        over the integers."""
        n, piv = len(self.rows), self.piv
        column = [(i, Fraction(v) * self.scales[i]) for i, v in column]
        e = math.lcm(*[v.denominator for _, v in column])
        b, at = [0] * n, [0] * n
        for i, v in column:
            b[i] = v.numerator * (e // v.denominator)
        for k, (s, mults) in enumerate(zip(self.swaps, self.mults)):
            if s != k:
                b[k], b[s] = b[s], b[k]
                at[k], at[s] = at[s], at[k]
            bk = b[k]
            if not bk:
                continue
            d, p = piv[k], piv[k + 1]
            if at[k] != k:
                bk = b[k] = bk * d // piv[at[k]]
            for i, a in mults:
                bi = b[i]
                if bi and at[i] != k:
                    bi = bi * d // piv[at[i]]
                b[i] = (p * bi - a * bk) // d
                at[i] = k + 1
        det, y = piv[n], [0] * n
        for k in reversed(range(n)):
            y[k] = (det * b[k] - sum(u * y[j] for j, u in self.rows[k].items())
                    ) // piv[k + 1]
        det *= e
        return [Fraction(v, det) for v in y]


def determinant_exact(M):
    """Fraction determinant (Fraction(0) if singular, 1 for n = 0)."""
    return _ExactLU([enumerate(row) for row in M]).det


def solve_exact(M, B):
    """Solve M X = B in rational arithmetic; X is a list of Fraction rows."""
    lu = _ExactLU([enumerate(row) for row in M])
    if lu.det == 0:
        raise RecurrentWalkError("singular matrix in exact solve")
    X = [lu.solve([(i, row[c]) for i, row in enumerate(B) if row[c]])
         for c in range(len(B[0]) if len(B) else 0)]
    return [[x[i] for x in X] for i in range(len(B))]


class Potential:
    """Columns of the matrix V(x, y) of expected visits of the killed walk.

    V solves Delta^k V = D(c^k); entries are Fractions in exact mode.
    `columns` maps a vertex y to its column of V; None means all n columns
    in vertex order, and `ck[j]` is c^k of the vertex of column j.
    `continuous(x, y)` is V(x, y)/c^k(y), the quantity entering the
    transfer current.
    """

    def __init__(self, g: WeightedGraph, V, ck, exact=False, columns=None):
        self.g = g
        self.V = V
        self.ck = ck
        self.exact = exact
        self.columns = columns

    def value(self, x, y):
        if x == ROOT or y == ROOT:
            return Fraction(0) if self.exact else 0.0
        j = y if self.columns is None else self.columns[y]
        return self.V[x][j] if self.exact else self.V[x, j]

    def continuous(self, x, y):
        if x == ROOT or y == ROOT:
            return Fraction(0) if self.exact else 0.0
        j = y if self.columns is None else self.columns[y]
        return (self.V[x][j] if self.exact else self.V[x, j]) / self.ck[j]


def _require_transient(g: WeightedGraph, exact):
    """RecurrentWalkError if a connected component of g carries no mass,
    read exactly on the masses, before any factorization."""
    comp = g.components
    if g.n == 0 or not np.bincount(comp[g.masses_a != 0],
                                   minlength=comp.max() + 1).all():
        raise RecurrentWalkError(
            "m == 0 on a finite component: the walk is recurrent there and "
            "the potential diverges")
    if exact and not g.is_exact():
        raise ValueError("exact potential needs rational graph data")


def _graph_factors(g: WeightedGraph, exact):
    """The graph's kept factors, with the float or exact LU in place.

    A graph with a massless component raises, even if a determinant of
    its Laplacian kept a float factor; no singular factor is kept.
    """
    f = _graph_record(g)
    if exact not in f.lu or not f.transient:
        _require_transient(g, exact)
        f.transient = True
    if exact not in f.lu:
        if exact:
            rows = [[] for _ in range(g.n)]
            r, c, v = _laplacian_triplets(g, exact=True)
            for i, j, w in zip(r.tolist(), c.tolist(), v):
                rows[i].append((j, w))
            lu = _ExactLU(rows)
            if lu.det:
                f.lu[True] = lu
        else:
            _float_factors(assemble_massive_laplacian(g))  # kept in f
        if exact not in f.lu:
            raise RecurrentWalkError(
                "singular massive Laplacian: some component carries no mass")
    return f


def _potential_matrix(g: WeightedGraph, ys, exact=False):
    """Columns ys of V and their c^k, solved against the graph's kept
    factor; exact columns are solved once per graph and kept."""
    f = _graph_factors(g, exact)
    if exact:
        cols = f.exact_columns
        for y in ys:
            if y not in cols:
                c = Fraction(g.ck(y))
                cols[y] = (f.lu[True].solve([(y, c)]), c)
        kept = [cols[y] for y in ys]
        return [[v[x] for v, _ in kept] for x in range(g.n)], \
            [c for _, c in kept]
    ck = g.ck_f[ys].tolist()
    V = _mapped(g.n, len(ys))
    for s in range(0, len(ys), SOLVE_BLOCK):
        block = ys[s:s + SOLVE_BLOCK]
        D = np.zeros((g.n, len(block)))
        D[block, np.arange(len(block))] = ck[s:s + SOLVE_BLOCK]
        V[:, s:s + len(block)] = f.lu[False].solve(D)
    return V, ck


def _mapped(rows, cols):
    """Zeroed Fortran-ordered float array on its own private anonymous
    mapping: freed, its pages go back to the OS, where a heap block may
    stay.  The pages are faulted in at once where the platform can
    (MAP_POPULATE), not one first write at a time."""
    return np.ndarray((rows, cols), order="F", buffer=mmap.mmap(
        -1, max(8 * rows * cols, 1),
        flags=mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)))


def _level_order(A, comp):
    """The vertices in order of BFS level on the pattern of A, components
    one after another, and the level bounds.  Each component is searched
    twice, the second time from a farthest vertex of the first
    (pseudo-peripheral), so that its levels are many and narrow; only
    consecutive levels couple."""
    from scipy.sparse.csgraph import dijkstra

    starts = np.unique(comp, return_index=True)[1]
    for _ in range(2):
        d = dijkstra(abs(A), directed=False, indices=starts, unweighted=True,
                     min_only=True).astype(int)
        by_comp = np.lexsort((-d, comp))  # each component farthest first
        starts = by_comp[np.searchsorted(comp[by_comp],
                                         np.arange(len(starts)))]
    depth = d[starts] + 1  # levels per component
    level = d + (np.cumsum(depth) - depth)[comp]
    return np.argsort(level, kind="stable"), \
        np.r_[0, np.cumsum(np.bincount(level))]


def _level_inverse(A, ck, order, bounds, X):
    """Write (D^-1 A)^-T, D = diag(ck), into the C-ordered X by block
    elimination over the levels.  In level order (vertex order[j] at place
    j) T = (D^-1 A)^T is block tridiagonal with blocks `bounds`: S_i = T_ii -
    T_i,i-1 C_i-1 and C_i = S_i^-1 T_i,i+1, with no pivoting between blocks
    (D^-1 A is a nonsingular M-matrix, and so is each S_i).  The forward
    sweep on the identity writes each level's rows Y_i, and the backward
    sweep X_i = Y_i - C_i X_i+1 completes them."""
    i, rank = np.arange(len(bounds) - 1), np.argsort(order)
    lo = bounds[np.maximum(i - 1, 0)]
    width = bounds[np.minimum(i + 2, len(i))] - lo
    # block row i of T, columns lo[i]:lo[i] + width[i], dense at base[i]
    base = np.r_[0, np.cumsum(np.diff(bounds) * width)]
    A = A.tocoo()
    r, c = rank[A.col], rank[A.row]
    k = np.searchsorted(bounds, r, side="right") - 1
    band = np.zeros(base[-1])
    band[base[k] + (r - bounds[k]) * width[k] + c - lo[k]] = \
        A.data / ck[A.row]
    C, Y = [], np.zeros((0, len(order)))
    for i, (a, e) in enumerate(zip(bounds[:-1], bounds[1:])):
        low, diag, up = np.split(band[base[i]:base[i + 1]].reshape(
            e - a, width[i]), [a - lo[i], e - lo[i]], axis=1)
        S_inv = np.linalg.inv(diag - low @ C[-1] if i else diag)
        C.append(S_inv @ up)
        Y = -(S_inv @ low) @ Y  # Y_i = S_i^-1 (I_i - T_i,i-1 Y_i-1), where
        Y[:, order[a:e]] = S_inv  # Y_i-1 is 0 in the columns of I_i
        X[order[a:e]] = Y
    for i in reversed(range(len(C) - 1)):
        rows = order[bounds[i]:bounds[i + 1]]
        X[rows] = Y = X[rows] - C[i] @ Y


def potential(g: WeightedGraph, exact=False) -> Potential:
    """V = (I - Q^k)^{-1}, computed via Delta^k V = D(c^k): all n columns;
    float V by block elimination over BFS levels, with O(widest level x n)
    transient memory and no factor built or kept."""
    if exact:
        return Potential(g, *_potential_matrix(g, list(range(g.n)), True),
                         True)
    _require_transient(g, False)
    A = assemble_massive_laplacian(g)
    V = _mapped(g.n, g.n)
    # V = (D^-1 A)^-1 with D = D(c^k); V.T is C-ordered
    _level_inverse(A, g.ck_f, *_level_order(A, g.components), V.T)
    return Potential(g, V, g.ck_f.tolist())


def _potential_columns(g: WeightedGraph, ys, exact=False) -> Potential:
    """Only the columns y in `ys` of V (ROOT is skipped: V(., ROOT) = 0)."""
    ys = sorted({int(y) for y in ys} - {ROOT})
    columns = {y: j for j, y in enumerate(ys)}
    return Potential(g, *_potential_matrix(g, ys, exact), exact, columns)


def potential_walk_sum(g: WeightedGraph, n_terms=200):
    """Truncated series sum_{i<=n} (Q^k)^i, an independent oracle for V."""
    n = g.n
    Q = np.zeros((n, n))
    for x in range(n):
        ckx = float(g.ck(x))
        for eid in g.out_edges[x]:
            Q[x, g.head[eid]] += g.cond_f[eid] / ckx
    V = np.eye(n)
    P = np.eye(n)
    for _ in range(n_terms):
        P = P @ Q
        V += P
    return V


class TransferOperator:
    """H[e, f] for directed edges e=(w,x), f=(y,z), cemetery edges included.

    Edges are (tail, head) pairs with head possibly ROOT (the cemetery).
    H is zero when f points at the cemetery or e is a loop.
    """

    def __init__(self, g: WeightedGraph, pot: Potential):
        self.g = g
        self.pot = pot

    def entry(self, e, f):
        w, x = e
        y, z = f
        zero = Fraction(0) if self.pot.exact else 0.0
        if y == ROOT or w == x:
            return zero
        return self.pot.continuous(w, y) - self.pot.continuous(x, y)

    def minor(self, edges):
        return [[self.entry(e, f) for f in edges] for e in edges]


def transfer_current(g: WeightedGraph, pot: Potential) -> TransferOperator:
    return TransferOperator(g, pot)


def edge_conductance_k(g: WeightedGraph, e):
    """c^k of a directed edge; (x, ROOT) carries the mass m(x)."""
    x, y = e
    if y == ROOT:
        return g.masses[x]
    return g.edge_conductance(x, y)


def edge_probability(g: WeightedGraph, edges, exact=False):
    """Boltzmann probability that all given directed edges are present.

    Determinantal formula: det[(H_{e_i,e_j})] * prod c^k_{e_i}.  The
    minor only reads the potential columns at the tails of the edges.
    """
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edges in probability query")
    pot = _potential_columns(g, [y for y, _ in edges], exact=exact)
    minor = transfer_current(g, pot).minor(edges)
    det = determinant_exact(minor) if exact else determinant(
        np.array(minor, float))
    prob = det
    for e in edges:
        prob = prob * edge_conductance_k(g, e)
    return prob
