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
OS.  Every exact determinant and solve is one Gaussian elimination over
Fractions that skips zero entries, so that the matrix-forest and
determinantal identities can be checked bit-exactly against the
enumeration oracles.  A graph with a massless component is refused before
any of these.  Each graph's Laplacian is factored once for its queries,
float and exact, and the factors are kept while the graph lives: every
later determinantal query and exact potential on it only solves its
columns (exact columns are solved once and kept too).
"""

from __future__ import annotations

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
    summing to exactly 0.0 are not stored (the dense nonzero pattern)."""
    return _csc_from_triplets(*_laplacian_triplets(g), (g.n, g.n))


def assemble_massive_laplacian_exact(g: WeightedGraph):
    """Same matrix with Fraction entries (graph data must be rational)."""
    n = g.n
    L = [[Fraction(0)] * n for _ in range(n)]
    rows, cols, vals = _laplacian_triplets(g, exact=True)
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals):
        L[r][c] += v
    return L


def _permutation_parity(p):
    """Sign (+1.0 or -1.0) of the permutation p, one pass over its cycles."""
    p = p.tolist()
    seen = [False] * len(p)
    swaps = 0
    for i in range(len(p)):
        if not seen[i]:
            j = p[i]
            while j != i:  # a cycle of length l takes l - 1 swaps
                seen[j] = True
                j = p[j]
                swaps += 1
    return -1.0 if swaps % 2 else 1.0


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
    """Diagonal of U and the permutation sign of the sparse LU of M.

    A singular M shows as a zero on the diagonal.
    """
    if np.shape(M) == (0, 0):
        return np.ones(0), 1.0
    lu = _sparse_lu(M)
    if lu is None:
        return np.zeros(1), 1.0
    return (lu.U.diagonal(),
            _permutation_parity(lu.perm_r) * _permutation_parity(lu.perm_c))


def determinant(M):
    """LU determinant of a dense or sparse float matrix (0.0 if singular).

    The product of the LU diagonal over- or underflows on large matrices
    (a 40x40 grid at mass 0.05 gives inf); a RuntimeWarning then points to
    `log_determinant`, whose value stays finite.
    """
    diag, sign = _lu_diagonal(M)
    if np.any(diag == 0.0):
        return 0.0
    with np.errstate(over="ignore", under="ignore"):
        det = sign * float(np.prod(diag))
    if (det == 0.0 or not np.isfinite(det)) and np.all(np.isfinite(diag)):
        warnings.warn(
            "determinant over- or underflows float64 although log|det| is "
            "finite; use log_determinant", RuntimeWarning, stacklevel=2)
    return det


def log_determinant(M):
    """(sign, log|det|) for scale-robust comparisons; (0.0, -inf) if singular."""
    diag, sign = _lu_diagonal(M)
    with np.errstate(divide="ignore"):
        logdet = float(np.sum(np.log(np.abs(diag))))
    return sign * float(np.prod(np.sign(diag))), logdet


def _factor(M):
    """LU factors of M over Fractions by Gaussian elimination that skips
    zeros.

    Each row is a dict of its nonzero entries.  The pivot of column k is
    the first row at or below k with a nonzero there; only the rows below
    with a nonzero in column k are updated, and only at the pivot row's
    nonzero columns.  Each updated row keeps its multiplier at column k,
    and rows swap whole, so that row i holds L (columns < i, unit diagonal
    implied) and U (columns >= i) of P M = L U, where `perm[i]` is the row
    of M at place i.  Returns (det M, (rows, perm)), or (Fraction(0), None)
    if M is singular.
    """
    n = len(M)
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in M]
    perm = list(range(n))
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if k in rows[i]), None)
        if piv is None:
            return Fraction(0), None
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            det = -det
        p = rows[k][k]
        det *= p
        rest = [(j, v) for j, v in rows[k].items() if j > k]
        for row in rows[k + 1:]:
            a = row.get(k)
            if a is None:
                continue
            f = row[k] = a / p
            for j, v in rest:
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    return det, (rows, perm)


def _substitute(lu, B):
    """X with M X = B, from the factors (rows, perm) of M by `_factor`:
    forward substitution through L, then back substitution through U.
    B and X are lists of rows."""
    rows, perm = lu
    n = len(rows)
    X = [None] * n
    for i in range(n):
        s = [Fraction(v) for v in B[perm[i]]]
        for j, u in rows[i].items():
            if j < i:
                for c, y in enumerate(X[j]):
                    if y:
                        s[c] -= u * y
        X[i] = s
    for i in reversed(range(n)):
        row = rows[i]
        s = X[i]
        for j, u in row.items():
            if j > i:
                for c, x in enumerate(X[j]):
                    if x:
                        s[c] -= u * x
        p = row[i]
        X[i] = [v / p for v in s]
    return X


def determinant_exact(M):
    """Fraction determinant (Fraction(0) if singular, 1 for n = 0)."""
    return _factor(M)[0]


def solve_exact(M, B):
    """Solve M X = B in rational arithmetic; X is a list of Fraction rows."""
    det, lu = _factor(M)
    if det == 0:
        raise RecurrentWalkError("singular matrix in exact solve")
    return _substitute(lu, B)


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
    """g's float massive Laplacian and the label of each vertex's connected
    component; RecurrentWalkError if a component carries no mass, read
    exactly on the masses, before any factorization."""
    from scipy.sparse.csgraph import connected_components

    A = assemble_massive_laplacian(g)
    comp = connected_components(A, directed=False)[1]
    if g.n == 0 or np.setdiff1d(comp, comp[[m != 0 for m in g.masses]]).size:
        raise RecurrentWalkError(
            "m == 0 on a finite component: the walk is recurrent there and "
            "the potential diverges")
    if exact and not g.is_exact():
        raise ValueError("exact potential needs rational graph data")
    return A, comp


class _Factors:
    """What is kept of one graph between queries: the factors of its
    massive Laplacian (`lu[False]` SuperLU, `lu[True]` the exact LU) and
    the exact columns of V solved so far (vertex -> (column, c^k))."""

    def __init__(self):
        self.lu = {}
        self.exact_columns = {}


# one entry per live graph, dropped with the graph; a graph must not be
# mutated once it has been queried
_FACTORS = weakref.WeakKeyDictionary()


def _graph_factors(g: WeightedGraph, exact):
    """The graph's kept factors, with the float or exact LU in place.

    A singular Laplacian raises, and no factor is kept for it.
    """
    f = _FACTORS.get(g)
    if f is None:
        f = _FACTORS[g] = _Factors()
    if exact not in f.lu:
        A, _ = _require_transient(g, exact)
        if exact:
            lu = _factor(assemble_massive_laplacian_exact(g))[1]
        else:
            lu = _sparse_lu(A)
        if lu is None:
            raise RecurrentWalkError(
                "singular massive Laplacian: some component carries no mass")
        f.lu[exact] = lu
    return f


def _potential_matrix(g: WeightedGraph, ys, exact=False):
    """Columns ys of V and their c^k, solved against the graph's kept
    factor; exact columns are solved once per graph and kept."""
    f = _graph_factors(g, exact)
    if exact:
        cols = f.exact_columns
        new = [y for y in ys if y not in cols]
        if new:
            ck = [Fraction(g.ck(y)) for y in new]
            B = [[c if x == y else Fraction(0) for y, c in zip(new, ck)]
                 for x in range(g.n)]
            X = _substitute(f.lu[True], B)
            for j, (y, c) in enumerate(zip(new, ck)):
                cols[y] = ([row[j] for row in X], c)
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
    """Zeroed Fortran-ordered float array on its own anonymous mapping:
    freed, its pages go back to the OS, where a heap block may stay."""
    return np.ndarray((rows, cols), order="F",
                      buffer=mmap.mmap(-1, max(8 * rows * cols, 1)))


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
    A, comp = _require_transient(g, False)
    V = _mapped(g.n, g.n)
    # V = (D^-1 A)^-1 with D = D(c^k); V.T is C-ordered
    _level_inverse(A, g.ck_f, *_level_order(A, comp), V.T)
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
