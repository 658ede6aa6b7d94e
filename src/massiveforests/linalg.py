"""Massive Laplacians, potentials and transfer currents.

One assembler builds the (row, col, value) triplets of the massive
Laplacian from the edge arrays.  Every float factorization is one sparse
LU (SuperLU): determinants and log-determinants of dense or sparse
matrices, the full potential and the few potential columns a determinantal
query reads.  Every exact determinant and solve is one Gaussian
elimination over Fractions that skips zero entries, so that the
matrix-forest and determinantal identities can be checked bit-exactly
against the enumeration oracles.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from .graphs import ROOT, WeightedGraph


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


def assemble_massive_laplacian(g: WeightedGraph):
    """Dense float massive Laplacian: diag m(x)+c(x)-c_(x,x), off -c_(x,y)."""
    n = g.n
    rows, cols, vals = _laplacian_triplets(g)
    return np.bincount(rows * n + cols, weights=vals,
                       minlength=n * n).reshape(n, n)


def assemble_massive_laplacian_sparse(g: WeightedGraph):
    """Same float matrix as a scipy CSC matrix, straight from the triplets."""
    import scipy.sparse

    rows, cols, vals = _laplacian_triplets(g)
    return scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(g.n, g.n))


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
    """SuperLU factorization of a square float or complex matrix; None if
    singular.

    M is a scipy sparse matrix or a dense array.  A dense M is scanned once
    for its nonzeros, whose flat indices give the CSR arrays directly
    (the generic dense-to-sparse conversion costs more than the LU).
    """
    import scipy.sparse
    import scipy.sparse.linalg

    dtype = complex if np.iscomplexobj(M) else float
    if scipy.sparse.issparse(M):
        A = scipy.sparse.csc_matrix(M, dtype=dtype)
    else:
        M = np.ascontiguousarray(M, dtype=dtype)
        idx = np.flatnonzero(M != 0)
        rows, cols = np.divmod(idx, M.shape[1])
        indptr = np.zeros(M.shape[0] + 1, dtype=np.intc)
        np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
        A = scipy.sparse.csr_matrix(
            (M.ravel()[idx], cols.astype(np.intc), indptr),
            shape=M.shape).tocsc()
    try:
        return scipy.sparse.linalg.splu(A)
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


def _eliminate(M, B=None):
    """Gaussian elimination over Fractions on [M | B], skipping zeros.

    Each row is a dict of its nonzero entries; columns n.. hold B.  The
    pivot of column k is the first row at or below k with a nonzero there;
    only the rows below with a nonzero in column k are updated, and only at
    the pivot row's nonzero columns.  Returns (det M, X) with M X = B by
    back-substitution (X is None without B), or (Fraction(0), None) if M
    is singular.
    """
    n = len(M)
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in M]
    if B is not None:
        for row, brow in zip(rows, B):
            row.update((n + j, Fraction(v)) for j, v in enumerate(brow) if v)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if k in rows[i]), None)
        if piv is None:
            return Fraction(0), None
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        p = rows[k][k]
        det *= p
        rest = [(j, v) for j, v in rows[k].items() if j != k]
        for row in rows[k + 1:]:
            a = row.pop(k, None)
            if a is None:
                continue
            f = a / p
            for j, v in rest:
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    if B is None:
        return det, None
    m = len(B[0]) if n else 0
    X = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        s = [row.get(n + c, Fraction(0)) for c in range(m)]
        for j, u in row.items():
            if i < j < n:
                for c, x in enumerate(X[j]):
                    if x:
                        s[c] -= u * x
        p = row[i]
        X[i] = [v / p for v in s]
    return det, X


def determinant_exact(M):
    """Fraction determinant (Fraction(0) if singular, 1 for n = 0)."""
    return _eliminate(M)[0]


def solve_exact(M, B):
    """Solve M X = B in rational arithmetic; X is a list of Fraction rows."""
    det, X = _eliminate(M, B)
    if det == 0:
        raise RecurrentWalkError("singular matrix in exact solve")
    return X


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
    if all(m == 0 for m in g.masses):
        raise RecurrentWalkError(
            "m == 0 on a finite graph: the walk is recurrent and the "
            "potential diverges")
    if exact and not g.is_exact():
        raise ValueError("exact potential needs rational graph data")


def _potential_matrix(g: WeightedGraph, ys, exact=False):
    """Columns ys of V and their c^k: one factorization, a right-hand side
    per column."""
    _require_transient(g, exact)
    if exact:
        ck = [Fraction(g.ck(y)) for y in ys]
        B = [[c if x == y else Fraction(0) for y, c in zip(ys, ck)]
             for x in range(g.n)]
        return solve_exact(assemble_massive_laplacian_exact(g), B), ck
    lu = _sparse_lu(assemble_massive_laplacian_sparse(g))
    if lu is None:
        raise RecurrentWalkError(
            "singular massive Laplacian: some component carries no mass")
    ck = [float(g.ck(y)) for y in ys]
    D = np.zeros((g.n, len(ys)))
    D[ys, np.arange(len(ys))] = ck
    return lu.solve(D), ck


def potential(g: WeightedGraph, exact=False) -> Potential:
    """V = (I - Q^k)^{-1}, computed via Delta^k V = D(c^k): all n columns."""
    return Potential(g, *_potential_matrix(g, list(range(g.n)), exact), exact)


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
