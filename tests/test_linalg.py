import copy
import gc
import hashlib
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from massiveforests import linalg
from massiveforests.elliptic import near_critical_modulus
from massiveforests.graphs import (
    ROOT,
    WeightedGraph,
    collapse_boundary,
    wired_restriction,
)
from massiveforests.isoradial import (
    build_rhombic_grid,
    random_rhombic_angles,
    z_invariant_weights,
)
from massiveforests.linalg import (
    RecurrentWalkError,
    _ExactLU,
    assemble_massive_laplacian,
    assemble_massive_laplacian_exact,
    determinant,
    determinant_exact,
    edge_conductance_k,
    edge_probability,
    log_determinant,
    potential,
    transfer_current,
)
from massiveforests.graphs import enumerate_forests, forest_partition_function
from massiveforests.walks import lerw_exact_probability

from test_graphs import (
    directed_edge_set,
    grid_graph,
    path_ab,
    random_rational_graph,
)


def solve_exact(M, B):
    """Solve M X = B in rational arithmetic; X is a list of Fraction rows."""
    lu = _ExactLU([enumerate(row) for row in M])
    if lu.det == 0:
        raise RecurrentWalkError("singular matrix in exact solve")
    X = [lu.solve([(i, row[c]) for i, row in enumerate(B) if row[c]])
         for c in range(len(B[0]) if len(B) else 0)]
    return [[x[i] for x in X] for i in range(len(B))]


def potential_walk_sum(g: WeightedGraph):
    """Truncated series sum_{i<=200} (Q^k)^i, an independent oracle for V."""
    n = g.n
    Q = np.zeros((n, n))
    for x in range(n):
        ckx = float(g.ck(x))
        for eid in g.out_order[g.out_ptr[x]:g.out_ptr[x + 1]]:
            Q[x, g.head[eid]] += g.cond_f[eid] / ckx
    V = np.eye(n)
    P = np.eye(n)
    for _ in range(200):
        P = P @ Q
        V += P
    return V


def loop_laplacian(g, exact=False):
    """Reference massive Laplacian, one out-edge at a time."""
    n = g.n
    L = [[Fraction(0)] * n for _ in range(n)] if exact else np.zeros((n, n))
    for x in range(n):
        L[x][x] += Fraction(g.masses[x]) if exact else g.masses_f[x]
        for eid in g.out_order[g.out_ptr[x]:g.out_ptr[x + 1]]:
            y = int(g.head[eid])
            if y == x:
                continue
            c = Fraction(g.cond[eid]) if exact else g.cond_f[eid]
            L[x][x] += c
            L[x][y] -= c
    return L


def skewed_graph(rng, side=6):
    """Float grid with independent conductances per direction, loops,
    parallel edges and some zero masses."""
    edges = []
    for j in range(side):
        for i in range(side):
            v = j * side + i
            for w in ([v + 1] if i + 1 < side else []) + \
                    ([v + side] if j + 1 < side else []):
                edges.append((v, w, float(rng.uniform(0.2, 3.0))))
                edges.append((w, v, float(rng.uniform(0.2, 3.0))))
            if rng.random() < 0.3:
                edges.append((v, v, float(rng.uniform(0.5, 2.0))))
            if i + 1 < side and rng.random() < 0.3:
                edges.append((v, v + 1, float(rng.uniform(0.5, 2.0))))
    masses = [float(m) if m > 0.3 else 0.0
              for m in rng.uniform(0.0, 1.0, side * side)]
    return WeightedGraph(side * side, edges, masses)


def sparse_ish_matrix(rng, n):
    """Non-symmetric matrix with ~4 off-diagonal entries per row and a
    dominant diagonal of random sign, so that det is far from 0."""
    M = np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(1.5, 3.0, n))
    k = min(n * (n - 1), 4 * n)
    off = rng.choice(n * n, size=k, replace=False)
    off = off[off // n != off % n]
    M.flat[off] = rng.uniform(-1.0, 1.0, off.size)
    return M


def sparse_rational_matrix(rng, n, m=None, density=0.4):
    """Seeded n x m (default n x n) rational matrix, ~`density` nonzero."""
    return [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
             if rng.random() < density else Fraction(0)
             for _ in range(n if m is None else m)] for _ in range(n)]


def leibniz_determinant(M):
    """Sum over permutations p of sign(p) prod_i M[i][p(i)]."""
    n = len(M)
    total = Fraction(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= M[i][p[i]]
        total += term
    return total


def fraction_elimination(M):
    """Reference LU of M over Fractions: Gaussian elimination that skips
    zeros, pivoting on the first row at or below k with a nonzero in
    column k.  Row i holds L (columns < i, unit diagonal implied) and U
    (columns >= i) of P M = L U, `perm[i]` the row of M at place i.
    Returns (det M, (rows, perm)), or (Fraction(0), None) if singular."""
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


def fraction_substitute(lu, B):
    """Reference X with M X = B from `fraction_elimination`'s factors:
    forward then back substitution, B and X lists of rows."""
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
        X[i] = [v / row[i] for v in s]
    return X


def loop_parity(p):
    """Reference sign of the permutation p, one pass over its cycles."""
    p = list(p)
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


def matmul_exact(M, X):
    return [[sum((M[i][k] * X[k][j] for k in range(len(X))), Fraction(0))
             for j in range(len(X[0]))] for i in range(len(M))]


def dense_edge_probability(g, V, edges):
    """Determinantal formula on a full dense potential V."""
    def cont(x, y):
        return 0.0 if ROOT in (x, y) else V[x, y] / float(g.ck(y))

    H = [[0.0 if y == ROOT or w == x else cont(w, y) - cont(x, y)
          for (y, _) in edges] for (w, x) in edges]
    prob = np.linalg.det(np.array(H)) if edges else 1.0
    for e in edges:
        prob *= float(edge_conductance_k(g, e))
    return prob


def out_row(g, x):
    return [(x, y) for y in g.neighbours(x) if y != x] + [(x, ROOT)]


def fresh_copy(g):
    """The same graph as a new object, with nothing kept for it."""
    edges = list(zip(g.tail.tolist(), g.head.tolist(), g.cond))
    return WeightedGraph(g.n, edges, g.masses, check=False)


def shuffled_queries(rng, g, k_max=3):
    """Every 1..k_max subset of the graph's edges (cemetery edges too),
    in a seeded random order."""
    cand = [(x, y) for (x, y) in directed_edge_set(g) if x != y]
    cand += [(x, ROOT) for x in range(g.n) if g.masses[x] > 0]
    qs = [list(c) for k in range(1, k_max + 1) for c in combinations(cand, k)]
    return [qs[i] for i in rng.permutation(len(qs))]


def isolated_massless_graph():
    """Two massive vertices and an isolated zero-mass one carrying only a
    loop: its diagonal entry sums to exactly 0.0."""
    return WeightedGraph(3, [(0, 1, 1.5), (1, 0, 1.5), (2, 2, 4.0)],
                         [1.0, 0.25, 0.0], check=False)


def dets(M):
    return determinant(M), log_determinant(M)


def lapack_dets(M):
    """`dets` of the dense M read off scipy.linalg's own LU of M (getrf
    through `lu_factor`): what the dense path must give bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M)
    diag = np.diagonal(lu)
    sign = -1.0 if np.count_nonzero(piv != np.arange(len(piv))) % 2 else 1.0
    kind = complex if np.iscomplexobj(M) else float
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return sign * kind(np.prod(diag)), \
            (sign * kind(np.prod(np.sign(diag))),
             float(np.sum(np.log(np.abs(diag)))))


def assert_dets_close(a, b):
    """Two `dets` agree in sign, and in magnitude within 1e-13 relative:
    LAPACK's LU of a dense matrix against SuperLU's of the same matrix,
    whose pivots and rounding differ."""
    (d, (s, l)), (e, (t, k)) = a, b
    assert s == t if isinstance(t, float) else abs(s - t) <= 1e-13
    assert l == k or abs(l - k) <= 1e-13
    assert d == e or abs(d - e) <= 1e-13 * abs(e)


def assert_dense_dets(M):
    """The dense path: bit for bit `lapack_dets`, and close to SuperLU's
    factor of M as a CSC matrix."""
    got = dets(M)
    assert got == lapack_dets(M)
    assert_dets_close(got, dets(scipy.sparse.csc_matrix(M)))


class TestAssembly:
    def test_path(self):
        L = assemble_massive_laplacian(path_ab()).toarray()
        assert np.allclose(L, [[2, -1], [-1, 2]])

    def test_is_csc(self):
        for g in (path_ab(), grid_graph(4, 3, c=1.0, m=0.05),
                  isolated_massless_graph()):
            L = assemble_massive_laplacian(g)
            assert scipy.sparse.issparse(L) and L.format == "csc"
            assert L.shape == (g.n, g.n) and L.has_canonical_format

    def test_zero_sums_not_stored(self):
        g = isolated_massless_graph()
        L = assemble_massive_laplacian(g)
        assert np.all(L.data != 0.0)
        assert L.nnz == 4 and L[2, 2] == 0.0

    def test_single_vertex(self):
        g = WeightedGraph(1, [], [Fraction(5, 2)])
        L = assemble_massive_laplacian(g).toarray()
        assert L[0, 0] == 2.5

    def test_zero_mass_row_sums(self):
        g = grid_graph(3, 2)
        L = assemble_massive_laplacian(g).toarray()
        assert np.allclose(L.sum(axis=1), 0.0)

    def test_loop_cancels(self):
        g = WeightedGraph(2, [(0, 1, 1), (1, 0, 1), (0, 0, 7)], [1, 1])
        L = assemble_massive_laplacian(g).toarray()
        # diagonal is m + c(x) - c_(x,x): the loop contributes nothing
        assert L[0, 0] == 2.0
        Lx = assemble_massive_laplacian_exact(g)
        assert Lx[0][0] == 2

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        graphs = [skewed_graph(rng) for _ in range(3)]
        graphs += [random_rational_graph(rng) for _ in range(10)]
        assert any(g.m_edges > len(directed_edge_set(g)) for g in graphs)
        assert any((g.tail == g.head).any() for g in graphs)
        graphs.append(isolated_massless_graph())
        for g in graphs:
            # same terms summed in the same order: equal bit for bit
            L = assemble_massive_laplacian(g)
            assert np.array_equal(L.toarray(), loop_laplacian(g))
            assert assemble_massive_laplacian_exact(g) == \
                loop_laplacian(g, exact=True)
            # the stored pattern is the dense nonzero pattern, so SuperLU
            # gets the same arrays either way
            assert log_determinant(L) == \
                log_determinant(scipy.sparse.csc_matrix(L.toarray()))

    def test_no_dense_matrix_allocated(self):
        g = grid_graph(60, 60, c=1.0, m=0.05)
        assemble_massive_laplacian(g)  # scipy.sparse imported and warm
        tracemalloc.start()
        try:
            assemble_massive_laplacian(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense 3600 x 3600 float64 matrix alone was 104 MB
        assert peak < 2 * 2**20


class TestDeterminant:
    def test_hand_value(self):
        assert determinant(np.array([[2., -1.], [-1., 2.]])) == pytest.approx(3)
        assert determinant_exact([[2, -1], [-1, 2]]) == 3

    def test_identity(self):
        assert determinant(np.eye(5)) == pytest.approx(1)
        assert determinant_exact([[1, 0], [0, 1]]) == 1

    def test_singular_flagged_as_zero(self):
        assert determinant(np.ones((3, 3))) == 0.0
        assert determinant_exact([[1, 1], [1, 1]]) == 0

    def test_log_determinant(self):
        M = np.array([[2., -1.], [-1., 2.]])
        sign, logdet = log_determinant(M)
        assert sign == 1.0 and logdet == pytest.approx(np.log(3))

    def test_pivot_sign(self):
        P = np.eye(4)[[1, 0, 3, 2]] * 2.0
        Q = np.eye(3)[[1, 2, 0]]
        assert determinant(P) == 16.0
        assert log_determinant(P) == (1.0, pytest.approx(np.log(16)))
        assert determinant(Q) == 1.0
        assert determinant(-Q) == -1.0

    def test_overflow_warns(self):
        L = assemble_massive_laplacian(grid_graph(40, 40, c=1.0, m=0.05))
        with pytest.warns(RuntimeWarning, match="log_determinant"):
            assert determinant(L) == np.inf
        sign, logdet = log_determinant(L)
        assert sign == 1.0 and np.isfinite(logdet)
        with pytest.warns(RuntimeWarning, match="log_determinant"):
            assert determinant(0.01 * np.eye(400)) == 0.0

    def test_singular_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert determinant(np.ones((3, 3))) == 0.0
            assert log_determinant(np.ones((3, 3))) == (0.0, -np.inf)

    @pytest.mark.parametrize("n", [5, 8, 13, 21, 34, 55, 89, 144, 233, 300])
    def test_matches_slogdet_on_permuted_sparse(self, n):
        rng = np.random.default_rng(n)
        M = sparse_ish_matrix(rng, n)
        M = M[rng.permutation(n)][:, rng.permutation(n)]
        ref_sign, ref_ld = np.linalg.slogdet(M)
        sign, ld = log_determinant(M)
        assert sign == ref_sign != 0
        assert abs(ld - ref_ld) <= 1e-12 * max(abs(ref_ld), 1.0)
        det = determinant(M)
        assert np.sign(det) == ref_sign
        assert abs(np.log(abs(det)) - ref_ld) <= 1e-12 * max(abs(ref_ld), 1.0)

    def test_permutation_parity(self):
        rng = np.random.default_rng(60)
        for n in range(1, 61):
            P = np.eye(n)[rng.permutation(n)]
            parity = float(np.round(np.linalg.det(P)))
            assert determinant(P) == parity
            assert log_determinant(P) == (parity, 0.0)

    def test_permutation_parity_matches_loop(self):
        rng = np.random.default_rng(61)
        perms = [np.arange(0), np.arange(1), np.array([1, 0]),
                 np.arange(3600)[::-1].copy()]
        perms += [rng.permutation(int(n)) for n in rng.integers(2, 400, 60)]
        perms += [rng.permutation(3600) for _ in range(4)]
        for p in perms:
            assert linalg._permutation_parity(p) == loop_parity(p.tolist())

    def test_sparse_input_matches_dense(self):
        rng = np.random.default_rng(9)
        for n in (1, 7, 40, 120):
            M = sparse_ish_matrix(rng, n)[rng.permutation(n)]
            for fmt in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix,
                        scipy.sparse.coo_matrix):
                assert dets(fmt(M)) == dets(scipy.sparse.csc_matrix(M))
            assert_dense_dets(M)
        g = grid_graph(12, 9, c=1.0, m=0.05)
        L = assemble_massive_laplacian(g)
        assert dets(L) == dets(scipy.sparse.csc_matrix(L.toarray()))
        assert_dense_dets(L.toarray())

    def test_dense_minors_match_superlu(self):
        # dense input takes LAPACK's getrf, sparse input SuperLU
        rng = np.random.default_rng(17)
        cases = []
        for n in (1, 2, 3, 4):
            for kind in (float, complex):
                M = rng.uniform(-1, 1, (n, n)).astype(kind)
                if kind is complex:
                    M += 1j * rng.uniform(-1, 1, (n, n))
                cases += [M, M[::-1].copy(), M[rng.permutation(n)]]
        # row swaps of odd and of even parity, pivoting forced
        cases += [np.eye(3)[[1, 0, 2]] * [1.0, 2.0, 3.0],
                  np.eye(4)[[1, 0, 3, 2]] * 2.0,
                  np.array([[1e-3, 1.0], [1.0, 1.0]]),
                  np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0],
                            [4.0, 5.0, 6.0]]) * (1 + 1j)]
        for M in cases:
            assert_dense_dets(M)
        for M in (np.ones((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                  np.zeros((4, 4), complex), np.array([[0.0]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert determinant(M) == 0.0
                assert log_determinant(M) == (0.0, -np.inf)
            assert_dense_dets(M)
        for M in (np.diag([1e200, 1e200, -1.0]),
                  np.diag([1e-200, 1e-200, 1.0])[[1, 0, 2]],
                  1e-120 * (1 + 1j) * np.eye(4)):
            for A in (M, scipy.sparse.csc_matrix(M)):
                with pytest.warns(RuntimeWarning, match="log_determinant"):
                    determinant(A)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert_dense_dets(M)

    def test_dense_input_must_be_square(self):
        # nested lists take the dense path too, and getrf alone would
        # factor an m x n array
        M = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        for A in (M, np.array(M), scipy.sparse.csc_matrix(M),
                  np.arange(3.0)):
            for f in (determinant, log_determinant):
                with pytest.raises(ValueError, match="square"):
                    f(A)
        A = np.array([[0.0, 2.0], [3.0, 1.0]])
        assert dets(A.tolist()) == dets(A) == lapack_dets(A)

    def test_singular_sparse_is_silent(self):
        M = np.arange(16.0).reshape(4, 4)
        M[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for A in (scipy.sparse.csr_matrix(np.ones((3, 3))),
                      scipy.sparse.csc_matrix(M),
                      scipy.sparse.csc_matrix((5, 5))):
                assert determinant(A) == 0.0
                assert log_determinant(A) == (0.0, -np.inf)

    def test_complex_keeps_imaginary_part(self):
        # the real part alone, -1.0, used to come back with a ComplexWarning
        A = np.array([[1 + 1j, 2], [0, 1j]])
        for M in (A, scipy.sparse.csc_matrix(A)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert determinant(M) == pytest.approx(-1 + 1j, abs=1e-12)
                sign, logdet = log_determinant(M)
            assert sign == pytest.approx(np.exp(0.75j * np.pi), abs=1e-12)
            assert logdet == pytest.approx(0.5 * np.log(2), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 120])
    def test_complex_matches_numpy(self, n):
        rng = np.random.default_rng(70 + n)
        M = sparse_ish_matrix(rng, n) + 1j * sparse_ish_matrix(rng, n)
        M = M[rng.permutation(n)]
        ref_sign, ref_ld = np.linalg.slogdet(M)
        ref_det = np.linalg.det(M)
        for A in (M, scipy.sparse.csc_matrix(M)):
            sign, ld = log_determinant(A)
            assert isinstance(sign, complex)
            assert abs(sign - ref_sign) <= 1e-12
            assert abs(ld - ref_ld) <= 1e-12 * max(abs(ref_ld), 1.0)
            det = determinant(A)
            assert isinstance(det, complex)
            assert abs(det - ref_det) <= 1e-12 * abs(ref_det)

    def test_complex_singular_is_zero(self):
        M = np.ones((3, 3), complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert determinant(M) == 0j
            assert log_determinant(scipy.sparse.csc_matrix(M)) == \
                (0j, -np.inf)

    def test_grid_matches_enumeration(self):
        g = grid_graph(3, 3, m=Fraction(1))
        det = determinant_exact(assemble_massive_laplacian_exact(g))
        # 3x3 grid has 9 vertices, above the default cap; raise it
        total = forest_partition_function(g, cap=9)
        assert det == total
        detf = determinant(assemble_massive_laplacian(g))
        assert detf == pytest.approx(float(det), rel=1e-12)


class TestExactElimination:
    def test_determinant_matches_leibniz(self):
        rng = np.random.default_rng(90)
        n_singular = n_swapped = 0
        for n in range(1, 7):
            for _ in range(12):
                M = sparse_rational_matrix(rng, n)
                if rng.random() < 0.3:
                    M[0][0] = Fraction(0)  # zero leading pivot: a row swap
                if n > 1 and rng.random() < 0.2:
                    M[-1] = [2 * v for v in M[0]]  # dependent rows
                det = determinant_exact(M)
                assert isinstance(det, Fraction)
                assert det == leibniz_determinant(M)
                n_singular += det == 0
                n_swapped += M[0][0] == 0 and det != 0
        assert n_singular > 0 and n_swapped > 0
        assert determinant_exact([[0, 1], [1, 0]]) == -1
        assert determinant_exact([]) == 1

    def test_solve_exact_satisfies_system(self):
        rng = np.random.default_rng(91)
        n_solved = 0
        while n_solved < 20:
            n = int(rng.integers(1, 8))
            M = sparse_rational_matrix(rng, n, density=0.5)
            if determinant_exact(M) == 0:
                continue
            B = sparse_rational_matrix(rng, n, 3)
            X = solve_exact(M, B)
            assert all(isinstance(v, Fraction) for row in X for v in row)
            assert matmul_exact(M, X) == B
            n_solved += 1

    def test_solve_exact_on_grid_laplacian(self):
        g = grid_graph(5, 5, m=Fraction(1, 20))
        L = assemble_massive_laplacian_exact(g)
        B = [[Fraction(int(x == y)) for y in (0, 12, 24)] + [Fraction(x, 7)]
             for x in range(25)]
        assert matmul_exact(L, solve_exact(L, B)) == B

    def test_solve_exact_singular_raises(self):
        rng = np.random.default_rng(92)
        M = sparse_rational_matrix(rng, 5)
        M[3] = [Fraction(-1, 2) * v for v in M[1]]
        for A, B in (([[1, 1], [1, 1]], [[1], [2]]),
                     (M, sparse_rational_matrix(rng, 5, 2))):
            with pytest.raises(RecurrentWalkError):
                solve_exact(A, B)


def late_swaps(M):
    """Steps after the first at which the integer elimination swaps rows."""
    lu = linalg._ExactLU([enumerate(row) for row in M])
    return sum(s != k for k, s in enumerate(lu.swaps) if k)


class TestAgainstFractionElimination:
    """determinant_exact, solve_exact and the kept exact factor equal (==)
    the Fraction elimination they replace."""

    @staticmethod
    def check(M, B):
        det, lu = fraction_elimination(M)
        assert determinant_exact(M) == det
        if det == 0:
            with pytest.raises(RecurrentWalkError):
                solve_exact(M, B)
        else:
            assert solve_exact(M, B) == fraction_substitute(lu, B)
        return det

    def test_sparse_rational_with_late_swaps(self):
        rng = np.random.default_rng(93)
        n_late = n_singular = 0
        for _ in range(150):
            n = int(rng.integers(2, 9))
            M = sparse_rational_matrix(rng, n, density=0.45)
            if M[0][0] and rng.random() < 0.5:
                # the step-1 pivot vanishes after step 0
                M[1][1] = M[1][0] * M[0][1] / M[0][0]
            det = self.check(M, sparse_rational_matrix(rng, n, 3))
            n_singular += det == 0
            n_late += det != 0 and late_swaps(M) > 0
        assert n_late >= 20 and n_singular > 0

    def test_float_entries(self):
        rng = np.random.default_rng(94)
        for n in (1, 2, 5, 9):
            M = sparse_ish_matrix(rng, n)[rng.permutation(n)].tolist()
            B = rng.uniform(-2.0, 2.0, (n, 2)).tolist()
            assert self.check(M, B) != 0

    def test_singular(self):
        rng = np.random.default_rng(95)
        M = sparse_rational_matrix(rng, 6)
        M[4] = [Fraction(3, 7) * a - b for a, b in zip(M[1], M[2])]
        zero_column = [row[:2] + [Fraction(0)] + row[3:]
                       for row in sparse_rational_matrix(rng, 5)]
        for A in (M, zero_column, [[0]], [[1, 2], [2, 4]]):
            assert determinant_exact(A) == Fraction(0)
            assert self.check(A, [[Fraction(1)] for _ in A]) == 0

    def test_sizes_zero_and_one(self):
        assert determinant_exact([]) == Fraction(1)
        assert solve_exact([], []) == []
        for v, b in ((Fraction(3, 4), Fraction(1, 2)), (-2, 5), (0.5, 0)):
            self.check([[v]], [[b, 1]])
        assert solve_exact([[Fraction(3, 4)]], [[Fraction(1, 2)]]) == \
            [[Fraction(2, 3)]]

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (7, 7), (10, 10)])
    def test_grid_laplacians(self, nx, ny):
        g = grid_graph(nx, ny, m=Fraction(1, 20))
        L = assemble_massive_laplacian_exact(g)
        ys = [0, g.n // 2, g.n - 1]
        B = [[Fraction(int(x == y)) for y in ys] + [Fraction(x, 7)]
             for x in range(g.n)]
        self.check(L, B)
        # the graph's kept factor, built from its triplets
        _, lu = fraction_elimination(L)
        pot = linalg._potential_columns(g, ys, exact=True)
        want = fraction_substitute(lu, [[Fraction(g.ck(y)) if x == y else 0
                                         for y in ys] for x in range(g.n)])
        assert pot.V == want

    def test_rational_graph_potentials(self):
        rng = np.random.default_rng(96)
        for _ in range(8):
            g = random_rational_graph(rng, n_max=6)
            L = assemble_massive_laplacian_exact(g)
            _, lu = fraction_elimination(L)
            want = fraction_substitute(lu, [[Fraction(g.ck(y)) if x == y
                                             else 0 for y in range(g.n)]
                                            for x in range(g.n)])
            assert potential(g, exact=True).V == want

    def test_kasteleyn_real_form(self, monkeypatch):
        from massiveforests import dimers
        from test_dimers import pow4_lambda, window_setup

        seen = []

        def record(M):
            seen.append(M)
            return determinant_exact(M)

        monkeypatch.setattr(dimers, "determinant_exact", record)
        amb, _, _, dg = window_setup(5, 5, [1, 2, 3], [1, 2, 3],
                                     mass=Fraction(9, 4))
        ws = dimers.drifted_weights(dg, pow4_lambda(amb))
        det2 = dimers.kasteleyn_abs2_exact(dg, ws)
        (M,) = seen
        assert len(M) == 48
        rng = np.random.default_rng(97)
        assert self.check(M, sparse_rational_matrix(rng, 48, 2)) == det2

    @pytest.mark.parametrize("side", [4, 5])
    def test_exact_out_rows_sum_to_one(self, side):
        g = grid_graph(side, side, m=Fraction(1, 20))
        for x in range(g.n):
            total = sum(edge_probability(g, [e], exact=True)
                        for e in out_row(g, x))
            assert total == 1

    def test_exact_values_follow_no_labels(self):
        # exact values are Fractions, whatever order the vertices are
        # eliminated in: a seeded relabelling of the grid gives the same
        # ones, pinned here
        g = grid_graph(5, 5, m=Fraction(1, 20))
        perm = np.random.default_rng(71).permutation(g.n)
        masses = g.masses.copy()
        masses[perm] = g.masses
        h = WeightedGraph(g.n, (perm[g.tail], perm[g.head], g.cond), masses)
        edges = [(6, 7), (12, ROOT), (18, 13)]
        prob = edge_probability(g, edges, exact=True)
        assert prob == Fraction(2944365917102776400, 510083323314840938421)
        assert edge_probability(h, [(perm[x], ROOT if y == ROOT else perm[y])
                                    for x, y in edges], exact=True) == prob
        ys = [0, 12, 24]
        pg = linalg._potential_columns(g, ys, exact=True)
        assert hashlib.sha256(repr(pg.V).encode()).hexdigest() == \
            "78140625de3330878ad65f5a199d366f72286695a2fe35812a376e4104b33b06"
        ph = linalg._potential_columns(h, perm[ys], exact=True)
        assert [[ph.value(perm[x], perm[y]) for y in ys]
                for x in range(g.n)] == pg.V


class TestPotential:
    def test_path_exact(self):
        pot = potential(path_ab(), exact=True)
        assert pot.V[0][0] == Fraction(4, 3)
        assert pot.V[0][1] == Fraction(2, 3)
        assert pot.V[1][0] == Fraction(2, 3)
        assert pot.V[1][1] == Fraction(4, 3)

    def test_single_vertex_dies_immediately(self):
        g = WeightedGraph(1, [], [Fraction(3)])
        pot = potential(g, exact=True)
        assert pot.V[0][0] == 1

    def test_walk_sum_oracle(self):
        g = grid_graph(2, 2, m=Fraction(1))
        pot = potential(g)
        Vsum = potential_walk_sum(g)
        assert np.max(np.abs(pot.V - Vsum)) < 1e-8

    def test_harmonicity_residual(self):
        g = grid_graph(3, 2, m=Fraction(1, 2))
        pot = potential(g)
        L = assemble_massive_laplacian(g)
        D = np.diag([float(g.ck(x)) for x in range(g.n)])
        resid = np.max(np.abs(L @ pot.V - D))
        assert resid <= 1e-10 * max(float(g.ck(x)) for x in range(g.n))

    def test_recurrent_error(self):
        g = path_ab(m=Fraction(0))
        with pytest.raises(RecurrentWalkError):
            potential(g)
        # a massless component is recurrent even if another carries mass
        g = WeightedGraph(3, [(0, 1, 1), (1, 0, 1)], [0, 0, 1], check=False)
        with pytest.raises(RecurrentWalkError):
            potential(g)

    @pytest.mark.parametrize("graph", ["grid20", "skewed"])
    def test_matches_dense_solve(self, graph):
        g = grid_graph(20, 20, c=1.0, m=0.05) if graph == "grid20" else \
            skewed_graph(np.random.default_rng(4), side=9)
        ref = np.linalg.solve(loop_laplacian(g),
                              np.diag([float(g.ck(x)) for x in range(g.n)]))
        V = potential(g).V
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_sparse_modules_load_lazily(self):
        # importing the package must not load scipy.sparse: the first
        # factorization does
        code = (
            "import pkgutil, importlib, sys\n"
            "import massiveforests\n"
            "for m in pkgutil.iter_modules(massiveforests.__path__):\n"
            "    importlib.import_module('massiveforests.' + m.name)\n"
            "assert not any(k.startswith('scipy.sparse')\n"
            "               for k in sys.modules)\n"
            "from massiveforests.graphs import symmetric_graph\n"
            "from massiveforests.linalg import potential\n"
            "g = symmetric_graph(2, [(0, 1, 1)], [1, 1])\n"
            "V = potential(g).V\n"
            "assert abs(V[0, 0] - 4 / 3) < 1e-15\n"
            "assert abs(V[0, 1] - 2 / 3) < 1e-15\n"
            "assert 'scipy.sparse.linalg' in sys.modules\n")
        src = os.path.dirname(os.path.dirname(
            sys.modules["massiveforests"].__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)


class TestTransferCurrent:
    def test_path_value(self):
        g = path_ab()
        H = transfer_current(g, potential(g, exact=True))
        assert H.entry((0, 1), (0, 1)) == Fraction(1, 3)

    def test_cemetery_sourced_column_zero(self):
        # H_{e,f} = 0 when f = (y, z) starts at the cemetery (V(., rho) = 0)
        g = path_ab()
        H = transfer_current(g, potential(g, exact=True))
        assert H.entry((0, 1), (ROOT, 0)) == 0
        assert H.entry((0, ROOT), (ROOT, 1)) == 0
        # while f pointing at rho is the mass column used by edge statistics
        assert H.entry((0, ROOT), (0, ROOT)) == Fraction(2, 3)

    def test_loop_row_zero(self):
        g = WeightedGraph(2, [(0, 1, 1), (1, 0, 1), (0, 0, 2)],
                          [Fraction(1), Fraction(1)])
        H = transfer_current(g, potential(g, exact=True))
        assert H.entry((0, 0), (0, 1)) == 0

    def test_not_symmetric_in_general(self):
        g = WeightedGraph(
            2, [(0, 1, Fraction(2)), (1, 0, Fraction(1))],
            [Fraction(1), Fraction(3)])
        H = transfer_current(g, potential(g, exact=True))
        e, f = (0, 1), (1, 0)
        assert H.entry(e, f) != H.entry(f, e)


class TestEdgeProbability:
    def test_path_edge(self):
        assert edge_probability(path_ab(), [(0, 1)], exact=True) == \
            Fraction(1, 3)

    def test_two_cycle_zero(self):
        assert edge_probability(path_ab(), [(0, 1), (1, 0)], exact=True) == 0

    def test_cemetery_edge(self):
        assert edge_probability(path_ab(), [(0, ROOT)], exact=True) == \
            Fraction(2, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            edge_probability(path_ab(), [(0, 1), (0, 1)])

    def test_no_edges_is_certain(self):
        # the empty minor is 0 x 0, whose determinant is 1 in both modes
        g = grid_graph(3, 3, m=Fraction(1, 2))
        p = edge_probability(g, [], exact=True)
        assert p == 1 and isinstance(p, Fraction)
        p = edge_probability(g, [])
        assert p == 1.0 and isinstance(p, float)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("edges", [[(-2, 6)], [(0, 9)], [(-1, 0)],
                                       [(0, 1), (4, -3)]])
    def test_vertices_outside_refused(self, edges, exact):
        # a negative tail or head must not alias vertex n + id, nor 9 fail
        # with an IndexError; each is refused before any factorization
        g = grid_graph(3, 3, m=Fraction(1, 2))
        with pytest.raises(ValueError, match="not an edge of a graph"):
            edge_probability(g, edges, exact=exact)
        assert g not in linalg._FACTORS

    @pytest.mark.parametrize("ys", [[-2], [9], [0, 3, -5]])
    def test_potential_columns_outside_refused(self, ys):
        g = grid_graph(3, 3, m=Fraction(1, 2))
        for exact in (False, True):
            with pytest.raises(ValueError, match="outside 0..8"):
                linalg._potential_columns(g, ys, exact=exact)
        assert g not in linalg._FACTORS
        assert linalg._potential_columns(g, [ROOT, 4]).columns == {4: 0}

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            g = random_rational_graph(rng, n_max=4)
            forests = enumerate_forests(g)
            Z = sum((w for _, w in forests), Fraction(0))
            cand = [(x, y) for (x, y) in directed_edge_set(g) if x != y]
            cand += [(x, ROOT) for x in range(g.n) if g.masses[x] > 0]
            for k in (1, 2, 3):
                for edges in combinations(cand, k):
                    num = Fraction(0)
                    for forest, w in forests:
                        ok = all(
                            (forest.outgoing[x] == ROOT if y == ROOT
                             else forest.outgoing[x] == y)
                            for x, y in edges)
                        # multigraph: the forest weight already sums over
                        # parallel edges, matching the determinant side
                        if ok:
                            num += w
                    expected = num / Z
                    got = edge_probability(g, list(edges), exact=True)
                    assert got == expected

    def test_recurrent_error(self):
        for exact in (False, True):
            with pytest.raises(RecurrentWalkError):
                edge_probability(path_ab(m=Fraction(0)), [(0, 1)],
                                 exact=exact)


class TestFloatQueries:
    """Few-column sparse queries against the full dense potential."""

    @pytest.mark.parametrize("graph", ["grid20", "grid40", "skewed"])
    def test_matches_dense_reference(self, graph):
        rng = np.random.default_rng(7)
        g = {"grid20": lambda: grid_graph(20, 20, c=1.0, m=0.05),
             "grid40": lambda: grid_graph(40, 40, c=1.0, m=0.05),
             "skewed": lambda: skewed_graph(rng, side=8)}[graph]()
        L = loop_laplacian(g)
        V = np.linalg.solve(L, np.diag([float(g.ck(x)) for x in range(g.n)]))
        queries = [[(x, ROOT)] for x in range(3)]
        queries.append(out_row(g, 3)[:2])  # two edges with one tail
        for _ in range(12):
            tails = rng.choice(g.n, size=int(rng.integers(1, 4)),
                               replace=False)
            queries.append([out_row(g, int(x))[int(rng.integers(
                len(out_row(g, int(x)))))] for x in tails])
        for edges in queries:
            if len(set(edges)) < len(edges):
                continue
            got = float(edge_probability(g, edges))
            assert abs(got - dense_edge_probability(g, V, edges)) <= 1e-10

    def test_out_row_sums_to_one(self):
        g = grid_graph(60, 60, c=1.0, m=0.05)
        x = 30 * 60 + 30
        total = sum(float(edge_probability(g, [e])) for e in out_row(g, x))
        assert abs(total - 1.0) <= 1e-9


def drifted_grid(nx, ny):
    """Float grid with mass 0.05 and conductances tilted as in a Doob
    transform, c_(x,y) lambda(y)/lambda(x) with lambda = exp(0.3 i - 0.2 j):
    each edge's two directions carry different conductances."""
    g = grid_graph(nx, ny, c=1.0, m=0.05)
    lam = np.exp(g.positions @ [0.3, -0.2])
    edges = [(t, h, c * lam[h] / lam[t]) for t, h, c in
             zip(g.tail.tolist(), g.head.tolist(), g.cond_f.tolist())]
    return WeightedGraph(g.n, edges, g.masses)


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class TestBlockedSolve:
    """Float potentials, the full one by block elimination over BFS levels
    and a query's columns by one solve against the minimum-degree SuperLU
    factor, checked against dense LAPACK and each other."""

    GRAPHS = {
        "grid5x6": lambda: grid_graph(5, 6, c=1.0, m=0.05),  # one block
        # a query of all 135 columns is one solve of 135 right-hand sides
        "grid9x15": lambda: grid_graph(9, 15, c=1.0, m=0.05),
        "grid41": lambda: grid_graph(41, 41, c=1.0, m=0.05),
        "drifted": lambda: drifted_grid(12, 11),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_potential_matches_dense_solve(self, graph):
        g = self.GRAPHS[graph]()
        ref = np.linalg.solve(loop_laplacian(g),
                              np.diag([float(g.ck(x)) for x in range(g.n)]))
        V = potential(g).V
        assert V.flags.f_contiguous
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_columns_match_full_potential(self, graph):
        g = self.GRAPHS[graph]()
        V = potential(g).V
        scale = np.max(np.abs(V))
        rng = np.random.default_rng(5)
        for k in (1, 3, 65, g.n):
            ys = rng.choice(g.n, size=min(k, g.n), replace=False)
            pot = linalg._potential_columns(g, ys)
            for y in ys.tolist():
                col = pot.V[:, pot.columns[y]]
                assert np.max(np.abs(col - V[:, y])) <= 1e-12 * scale

    def test_float_determinant_of_rational_grid(self):
        g = grid_graph(5, 5, m=Fraction(1, 20))
        exact = determinant_exact(assemble_massive_laplacian_exact(g))
        S = assemble_massive_laplacian(g)
        for L in (S, S.toarray()):
            assert abs(determinant(L) - exact) <= 1e-12 * abs(exact)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads the resident set from /proc")
    def test_freed_potential_leaves_resident_set(self):
        # V of a 41x41 grid is 21.6 MB; a heap block of that size, once the
        # allocator's mmap threshold has risen past it, stays resident
        g = grid_graph(41, 41, c=1.0, m=0.05)
        edge_probability(g, [(0, ROOT)])  # the kept factor
        big = np.ones(3_000_000)
        del big  # raises glibc's mmap threshold to 24 MB
        gc.collect()
        before = rss_mb()
        for _ in range(3):
            V = potential(g).V
            del V
        gc.collect()
        assert rss_mb() - before < 8


class TestFactorCache:
    """Queries on one graph reuse its factors; results stay those of a
    graph queried for the first time."""

    def test_entry_dropped_with_graph(self):
        gc.collect()
        before = len(linalg._FACTORS)
        g = grid_graph(3, 3, m=Fraction(1, 2))
        edge_probability(g, [(0, 1)], exact=True)
        edge_probability(g, [(4, ROOT)])
        assert len(linalg._FACTORS) == before + 1
        del g
        gc.collect()
        assert len(linalg._FACTORS) == before

    def test_warm_exact_equals_fresh_copy(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            g = random_rational_graph(rng, n_max=5)
            for edges in shuffled_queries(rng, g):
                assert edge_probability(g, edges, exact=True) == \
                    edge_probability(fresh_copy(g), edges, exact=True)
            assert potential(g, exact=True).V == \
                potential(fresh_copy(g), exact=True).V

    def test_warm_float_bit_equal_to_fresh_copy(self):
        rng = np.random.default_rng(32)
        for g in (grid_graph(12, 12, c=1.0, m=0.05),
                  skewed_graph(rng, side=5)):
            queries = [[out_row(g, int(x))[int(rng.integers(
                len(out_row(g, int(x)))))] for x in rng.choice(
                    g.n, size=int(rng.integers(1, 4)), replace=False)]
                for _ in range(40)]
            for edges in queries:
                if len(set(edges)) < len(edges):
                    continue
                assert edge_probability(g, edges) == \
                    edge_probability(fresh_copy(g), edges)
            assert np.array_equal(potential(g).V,
                                  potential(fresh_copy(g)).V)

    def test_exact_and_float_do_not_collide(self):
        rng = np.random.default_rng(33)
        for _ in range(4):
            g = random_rational_graph(rng, n_max=5)
            for i, edges in enumerate(shuffled_queries(rng, g, k_max=2)):
                exact = i % 2 == 0
                got = edge_probability(g, edges, exact=exact)
                assert type(got) is (Fraction if exact else float)
                assert got == edge_probability(fresh_copy(g), edges,
                                               exact=exact)

    def test_singular_laplacian_is_not_kept(self):
        massless = path_ab(m=Fraction(0))
        # massless component beside a massive one: SuperLU finds the
        # float factor singular, the elimination the exact one
        split = split_graph()
        for g, edges in ((massless, [(0, 1)]), (split, [(2, ROOT)])):
            for exact in (False, True):
                for _ in range(2):
                    with pytest.raises(RecurrentWalkError):
                        edge_probability(g, edges, exact=exact)
            f = linalg._FACTORS.get(g)
            assert f is None or not f.lu


def count_factorizations(monkeypatch):
    """Patch counters on `linalg._sparse_lu` and on
    `linalg._dense_lu_diagonal`: a list of the shapes of the matrices
    they factor."""
    shapes = []
    for name in ("_sparse_lu", "_dense_lu_diagonal"):
        def counted(M, factor=getattr(linalg, name)):
            shapes.append(np.shape(M))
            return factor(M)

        monkeypatch.setattr(linalg, name, counted)
    return shapes


def split_graph():
    """A massless edge beside a vertex of mass 1, on integer data: SuperLU
    finds the float Laplacian exactly singular."""
    return WeightedGraph(3, [(0, 1, 1), (1, 0, 1)], [0, 0, 1], check=False)


class TestSharedFactor:
    """A float Laplacian from `assemble_massive_laplacian` and its graph's
    determinantal queries share one kept SuperLU factor."""

    EDGES = [(7, 8), (14, ROOT)]
    COLUMNS = [3, 7]
    GAMMA = [7, 8, 14]

    def queries(self, g, L):
        return {
            "logdet": lambda: log_determinant(L),
            "det": lambda: determinant(L),
            "edge": lambda: edge_probability(g, self.EDGES),
            "columns": lambda: linalg._potential_columns(
                g, self.COLUMNS).V.copy(),
            "lerw": lambda: lerw_exact_probability(g, self.GAMMA),
        }

    def test_one_factor_in_any_order(self, monkeypatch):
        shapes = count_factorizations(monkeypatch)
        for order in permutations(sorted(self.queries(None, None))):
            g = grid_graph(6, 6, c=1.0, m=0.05)
            L = assemble_massive_laplacian(g)
            queries = self.queries(g, L)
            for name in order:
                queries[name]()
            assert shapes.count((g.n, g.n)) == 1, order
            shapes.clear()

    def test_values_equal_fresh_factor(self):
        rng = np.random.default_rng(41)
        for g in (grid_graph(6, 6, c=1.0, m=0.05),
                  skewed_graph(rng, side=5)):
            L = assemble_massive_laplacian(g)
            for name in ("det", "edge", "logdet", "lerw", "columns"):
                self.queries(g, L)[name]()
            fresh = linalg._sparse_lu(L.copy())
            diag = fresh.U.diagonal()
            sign = linalg._permutation_parity(fresh.perm_r) * \
                linalg._permutation_parity(fresh.perm_c)
            assert determinant(L) == sign * float(np.prod(diag))
            assert log_determinant(L) == (
                sign * float(np.prod(np.sign(diag))),
                float(np.sum(np.log(np.abs(diag)))))
            b = rng.random((g.n, 3))
            kept = linalg._FACTORS[g].lu[False]
            assert np.array_equal(kept.solve(b), fresh.solve(b))
            other = fresh_copy(g)
            for name, value in self.queries(g, L).items():
                ref = self.queries(other, assemble_massive_laplacian(
                    other))[name]()
                assert np.array_equal(value(), ref), name

    def test_foreign_matrices_factored_every_call(self, monkeypatch):
        g = grid_graph(5, 5, c=1.0, m=0.05)
        L = assemble_massive_laplacian(g)
        determinant(L)
        shapes = count_factorizations(monkeypatch)
        foreign = [L.copy(), L * 1.0, L.toarray(), L.tocsr(),
                   scipy.sparse.csc_matrix(L.toarray()), copy.copy(L),
                   copy.deepcopy(L), pickle.loads(pickle.dumps(L))]
        for M in foreign:
            for _ in range(2):
                if scipy.sparse.issparse(M):
                    assert dets(M) == dets(L)
                else:  # LAPACK's LU, not SuperLU's
                    got = dets(M)
                    assert got == lapack_dets(M)
                    assert_dets_close(got, dets(L))
        assert len(shapes) == 4 * len(foreign)
        shapes.clear()
        minor = np.array([[2.0, -1.0], [-1.0, 2.0]])
        for _ in range(2):
            determinant(minor)
            edge_probability(g, [(6, 7), (12, ROOT)])  # a 2x2 minor
        assert shapes == [(2, 2)] * 4

    def test_laplacian_is_read_only(self):
        L = assemble_massive_laplacian(grid_graph(3, 3, c=1.0, m=0.5))
        for a in (L.data, L.indices, L.indptr):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        M = L.copy()
        M.data[0] = 1.0
        assert M.data[0] == 1.0 != L.data[0]

    def test_laplacian_outlives_graph(self, monkeypatch):
        g = grid_graph(5, 5, c=1.0, m=0.05)
        L = assemble_massive_laplacian(g)
        ref = determinant(L.copy()), log_determinant(L.copy())
        assert determinant(L) == ref[0]
        del g
        gc.collect()
        shapes = count_factorizations(monkeypatch)
        assert (determinant(L), log_determinant(L)) == ref
        assert len(shapes) == 2  # nothing is kept without the graph
        links = len(linalg._LINKED)
        del L
        gc.collect()
        assert len(linalg._LINKED) == links - 1

    def test_pickle_and_deepcopy(self):
        g = grid_graph(4, 4, c=1.0, m=0.05)
        L = assemble_massive_laplacian(g)
        for M in (pickle.loads(pickle.dumps(L)), copy.deepcopy(L)):
            assert type(M) is type(L) and M.shape == L.shape
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(M, name), getattr(L, name))
            assert determinant(M) == determinant(L)

    @pytest.mark.parametrize("determinants_first", [True, False])
    def test_singular_graph_in_both_orders(self, determinants_first):
        g = split_graph()
        L = assemble_massive_laplacian(g)

        def determinants():
            assert determinant(L) == 0.0
            assert log_determinant(L) == (0.0, -np.inf)

        if determinants_first:
            determinants()
        with pytest.raises(RecurrentWalkError):
            edge_probability(g, [(2, ROOT)])
        determinants()
        with pytest.raises(RecurrentWalkError):
            edge_probability(g, [(2, ROOT)])
        assert not linalg._FACTORS[g].lu

    @pytest.mark.parametrize("seed", [1, 2])
    def test_kept_near_singular_factor_still_raises(self, seed):
        # no exactly zero pivot: the determinants keep a float factor,
        # which must not stand in for the transience check
        g = massless_triangle(seed)
        L = assemble_massive_laplacian(g)
        determinant(L)
        log_determinant(L)
        assert False in linalg._FACTORS[g].lu
        with pytest.raises(RecurrentWalkError):
            edge_probability(g, [(0, 1)])
        with pytest.raises(RecurrentWalkError):
            linalg._potential_columns(g, [0])
        with pytest.raises(RecurrentWalkError):
            lerw_exact_probability(g, [0, 1])


def square_window(side=12, lo=2, hi=10):
    """Vertices of the square [lo, hi)^2 of a side x side grid."""
    return [j * side + i for j in range(lo, hi) for i in range(lo, hi)]


def two_components():
    """A 4x5 and a 3x3 grid side by side, both massive."""
    a, b = grid_graph(4, 5, c=1.0, m=0.05), grid_graph(3, 3, c=1.0, m=0.2)
    edges = [(t, h, c) for t, h, c in zip(a.tail.tolist(), a.head.tolist(),
                                          a.cond_f.tolist())]
    edges += [(t + a.n, h + a.n, c) for t, h, c in zip(
        b.tail.tolist(), b.head.tolist(), b.cond_f.tolist())]
    return WeightedGraph(a.n + b.n, edges, np.r_[a.masses, b.masses],
                         check=False)


def hub_window():
    """A massless window of a unit grid whose outside is collapsed to one
    hub vertex of mass 1, joined to every boundary vertex."""
    g = collapse_boundary(grid_graph(12, 12, c=1.0), square_window()
                          ).as_weighted_graph()
    edges = list(zip(g.tail.tolist(), g.head.tolist(), g.cond))
    return WeightedGraph(g.n, edges, [0] * (g.n - 1) + [1.0], check=False)


def rhombic_window():
    """Wired window on the bulk vertices of a z-invariant rhombic patch."""
    grid = build_rhombic_grid(0.1, *random_rhombic_angles(
        np.random.default_rng(0), 12))
    amb = z_invariant_weights(grid, near_critical_modulus(1.0, 0.1))
    return wired_restriction(amb, grid.bulk_vertices())


def massless_triangle(seed):
    """A massless triangle with seeded float conductances beside a vertex
    of mass 1: the Laplacian is singular, with no exactly zero pivot."""
    c = np.random.default_rng(seed).random(3).tolist()
    und = [(0, 1, c[0]), (1, 2, c[1]), (2, 0, c[2])]
    return WeightedGraph(4, und + [(y, x, w) for x, y, w in und],
                         [0, 0, 0, 1.0], check=False)


class TestLevelElimination:
    """The float full potential by block elimination over BFS levels."""

    GRAPHS = {
        "two_components": two_components,
        "wired_window": lambda: wired_restriction(
            grid_graph(12, 12, c=1.0, m=0.05), square_window()),
        "hub_window": hub_window,
        "rhombic_window": rhombic_window,
        "drifted": lambda: drifted_grid(12, 11),
        "skewed": lambda: skewed_graph(np.random.default_rng(6), side=7),
        "one_vertex": lambda: WeightedGraph(1, [], [0.7]),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_matches_dense_solve(self, graph):
        g = self.GRAPHS[graph]()
        ref = np.linalg.solve(loop_laplacian(g),
                              np.diag([float(g.ck(x)) for x in range(g.n)]))
        V = potential(g).V
        assert V.flags.f_contiguous
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_keeps_no_factor(self):
        g = grid_graph(6, 7, c=1.0, m=0.05)
        potential(g)
        assert g not in linalg._FACTORS

    def test_transient_memory_below_quarter_of_potential(self):
        # V (21.6 MB) is on its own mapping, which tracemalloc does not
        # see; an n x n temporary would
        g = grid_graph(41, 41, c=1.0, m=0.05)
        potential(g)  # lazy imports outside the trace
        tracemalloc.start()
        try:
            V = potential(g).V
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.shape == (g.n, g.n)
        assert peak < g.n ** 2 * 8 / 4

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_float_massless_component_raises(self, seed):
        g = massless_triangle(seed)
        with pytest.raises(RecurrentWalkError):
            potential(g)
        with pytest.raises(RecurrentWalkError):
            edge_probability(g, [(0, 1)])
        with pytest.raises(RecurrentWalkError):
            lerw_exact_probability(g, [0, 1])
