"""Z^2-periodic graphs: Bloch matrices, characteristic polynomials and
periodic massive harmonic functions.

The massive Laplacian acts on (z, w)-periodic functions through a finite
matrix over the fundamental domain; its determinant is the characteristic
polynomial.  A positive periodic massive harmonic function comes from a
Perron eigenvector of the killed transition kernel at the z0 where its
eigenvalue crosses 1, and tilting by it translates the polynomial.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import WeightedGraph, check_values, edge_columns, reverse_edges


class PeriodicGraph:
    """Fundamental domain with offset edges.

    `edges` is a list of (x0, y0, (i, j), conductance) tuples or the tuple
    of the columns (tail, head, off, cond) as arrays, off of shape (m, 2)
    (`graphs.edge_columns`);
    each edge x0 -> y0 needs its reverse y0 -> x0 at the negated offset.
    The graph holds the columns only, sorted stably by tail (those of x0
    are start[x0]:start[x0 + 1]), its masses as one float array, and c^k
    as the array `ck`, each mass plus its tail's conductances added in
    order from 0.
    """

    def __init__(self, n, edges, masses):
        self.n, self.masses = n, np.array(masses, dtype=float)
        tail, head, off, cond = edge_columns(edges, 4)
        order = np.argsort(np.asarray(tail), kind="stable")
        self.tail, self.head = (np.array(a, dtype=int)[order]
                                for a in (tail, head))
        self.off = np.array(off, dtype=int).reshape(-1, 2)[order]
        self.cond = np.array(cond, dtype=float)[order]
        lone = np.flatnonzero(
            reverse_edges(n, self.tail, self.head, self.off) < 0)
        if lone.size:
            e = lone[0]
            raise ValueError(f"edge {self.tail[e]} -> {self.head[e]} at "
                             f"offset {self.off[e]} has no reverse")
        check_values(self.cond, self.masses)
        self.start = np.searchsorted(self.tail, np.arange(n + 1))
        self.ck = self.masses + np.bincount(self.tail, self.cond, minlength=n)

    def max_offsets(self):
        return tuple(np.abs(self.off).max(axis=0, initial=0).tolist())

    def unroll(self, reps_i, reps_j):
        """Finite window of the periodic graph with free boundary.

        Vertices are (x0, i, j) for i in range(reps_i), j in range(reps_j)
        and keep their periodic masses; edges leaving the window are
        dropped.
        """
        index = {(x0, i, j): v for v, (i, j, x0) in enumerate(
            itertools.product(range(reps_i), range(reps_j), range(self.n)))}
        # cell after cell in index order, each with all edges in tail order
        cell = np.arange(reps_i * reps_j)[:, None]
        ti = cell // reps_j + self.off[:, 0]
        tj = cell % reps_j + self.off[:, 1]
        inside = (0 <= ti) & (ti < reps_i) & (0 <= tj) & (tj < reps_j)
        tails = cell * self.n + self.tail
        heads = (ti * reps_j + tj) * self.n + self.head
        conds = np.broadcast_to(self.cond, inside.shape)
        g = WeightedGraph(len(index), (tails[inside], heads[inside],
                                       conds[inside]),
                          np.tile(self.masses, reps_i * reps_j), check=False)
        g.periodic_index = index
        return g


def square_lattice(mass) -> PeriodicGraph:
    off = np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
    return PeriodicGraph(1, (np.zeros(4, int), np.zeros(4, int), off,
                             np.ones(4)), [mass])


def honeycomb(mass) -> PeriodicGraph:
    """Bipartite honeycomb: vertex 0 joined to vertex 1 at offsets (0, 0),
    (-1, 0) and (0, -1), unit conductances; vertex 0's edges, then their
    reverses out of vertex 1 in the same order."""
    off = np.array([(0, 0), (-1, 0), (0, -1)])
    return PeriodicGraph(2, (np.repeat([0, 1], 3), np.repeat([1, 0], 3),
                             np.r_[off, -off], np.ones(6)), [mass, mass])


def _power(z, e):
    """z ** e for z of shape (...) and e of shape (m,), a complex (..., m)
    array formed as a scalar z forms it: Python's float power for real z,
    numpy's complex power for complex z."""
    z = z[..., None]
    if np.iscomplexobj(z):
        return np.power(z, e)
    return np.power(z.astype(object), e).astype(complex)


def assemble_bloch(pg: PeriodicGraph, z, w):
    """Delta^k(z, w) over the fundamental domain, shape (..., n, n) for z
    and w broadcast to shape (...).

    Entry (x0, y0) sums, in this order, the mass of x0 on the diagonal,
    then over the edges of tail x0 sorted by head, offset and c, whatever
    their list order, c on the diagonal and -c z^i w^j at y0, all points
    in one scatter.
    """
    z, w = np.broadcast_arrays(np.asarray(z), np.asarray(w))
    if np.any(z == 0) or np.any(w == 0):
        raise ValueError("Bloch arguments must be nonzero")
    n = pg.n
    e = np.lexsort((pg.cond, *pg.off.T[::-1], pg.head, pg.tail))
    tail, head, off, cond = pg.tail[e], pg.head[e], pg.off[e], pg.cond[e]
    a, b = cond * _power(z, off[:, 0]), _power(w, off[:, 1])
    # hop = a * b rounded part by part as numpy's scalar product rounds
    # it; its array product may fuse a multiply-add (harmless for real c)
    hop = np.empty_like(a)
    hop.real = a.real * b.real - a.imag * b.imag
    hop.imag = a.real * b.imag + a.imag * b.real
    terms = np.stack(np.broadcast_arrays(cond, -hop), axis=-1)
    cells = np.stack([tail * (n + 1), tail * n + head], axis=-1)
    M = np.zeros((z.size, n * n), dtype=complex)
    M[:, ::n + 1] += pg.masses
    np.add.at(M, (slice(None), cells.ravel()), terms.reshape(z.size, -1))
    return M.reshape(z.shape + (n, n))


def bloch_kernel(pg: PeriodicGraph, z, w):
    """Q^k(z, w) = I - D(c^k)^{-1} Delta^k(z, w)."""
    return np.eye(pg.n) - assemble_bloch(pg, z, w) / pg.ck[:, None]


class CharPolyEvaluator:
    """det Delta^k(z, w) with recovered Laurent coefficients."""

    def __init__(self, pg: PeriodicGraph, coeffs):
        self.pg = pg
        self.coeffs = coeffs  # {(a, b): real coefficient}

    def evaluate(self, z, w):
        """det Delta^k at one point, or at each point of broadcast arrays."""
        det = np.linalg.det(assemble_bloch(self.pg, z, w))
        return complex(det) if np.ndim(det) == 0 else det

    def evaluate_from_coeffs(self, z, w):
        return sum(c * (z ** a) * (w ** b)
                   for (a, b), c in self.coeffs.items())

    def newton_polygon(self):
        """Convex hull of exponents with nonzero coefficients."""
        pts = [ab for ab, c in self.coeffs.items() if abs(c) > 1e-9]
        return _convex_hull(pts)


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _random_points(rng, count):
    """(z, w) arrays of `count` points, drawn point by point as
    U(0.5, 2) * exp(2 pi i U(0, 1)), z before w."""
    zw = [rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
          for _ in range(2 * count)]
    return np.array(zw[0::2]), np.array(zw[1::2])


def charpoly(pg: PeriodicGraph):
    """Recover the Laurent coefficients of det Delta^k(z, w).

    The exponents lie in [-A, A] x [-B, B] with (A, B) = n * max_offsets,
    so the determinant on the (2A+1) x (2B+1) grid of roots of unity
    fixes every coefficient through the inverse discrete Fourier
    transform.  The fit must agree with direct evaluation to 1e-9 at
    eight fresh points, or ValueError.
    """
    mi, mj = pg.max_offsets()
    A, B = pg.n * mi, pg.n * mj
    n1, n2 = 2 * A + 1, 2 * B + 1
    t1, t2 = (np.exp(2j * np.pi * np.arange(k) / k) for k in (n1, n2))
    hat = np.fft.ifft2(np.linalg.det(
        assemble_bloch(pg, t1[:, None], t2[None, :])))
    coeffs = {}
    for a, b in itertools.product(range(-A, A + 1), range(-B, B + 1)):
        if abs(hat[a % n1, b % n2]) > 1e-12:
            coeffs[(a, b)] = float(hat[a % n1, b % n2].real)
    ev = CharPolyEvaluator(pg, coeffs)
    z, w = _random_points(np.random.default_rng(0), 8)
    direct, fitted = ev.evaluate(z, w), ev.evaluate_from_coeffs(z, w)
    if np.any(abs(direct - fitted) > 1e-9 * np.maximum(abs(direct), 1.0)):
        raise ValueError("coefficient recovery failed the refit gate")
    return ev


def perron_eigen(Q):
    """(beta, eigenvector) of each real kernel in a stack Q of shape
    (..., n, n): the eigenvalue of largest real part, which for a
    nonnegative kernel is its Perron root, with its eigenvector scaled to
    1 at vertex 0."""
    lam, vecs = np.linalg.eig(Q)
    top = np.argmax(lam.real, axis=-1)[..., None]
    beta = np.take_along_axis(lam.real, top, -1)[..., 0]
    vec = np.take_along_axis(vecs.real, top[..., None], -1)[..., 0]
    # a zero at vertex 0 gives inf/nan, which perron_search refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        return beta, vec / vec[..., :1]


def perron_search(pg: PeriodicGraph, axis=0):
    """Find z0 > 1 on an axis with Perron eigenvalue beta(Q^k(z0)) = 1.

    The kernel at (1, 1) is strictly sub-Markovian when m != 0 and its
    Perron value blows up along the axis, so doubling brackets the
    crossing below 2^20 and Brent's method finds it in t = log s.
    Returns (z0 pair, eigenvector over the fundamental domain, beta at
    z0).  ValueError when that eigenvector is not positive, as on a
    fundamental domain that is not connected.
    """
    if not pg.masses.any():
        return (1.0, 1.0), np.ones(pg.n), 1.0
    from scipy.optimize import brentq

    def kernel(s):
        return bloch_kernel(pg, *((s, 1.0) if axis == 0 else (1.0, s))).real

    # one batch of kernels at 1, 2, 4, ..., 2^20
    scales = 2.0 ** np.arange(21)
    above = perron_eigen(kernel(scales))[0] >= 1.0
    if above[0]:
        raise ValueError("kernel at (1,1) is not strictly sub-Markovian")
    if not above.any():
        raise ValueError("failed to bracket beta = 1")
    hi = scales[np.argmax(above)]
    # xtol at its floor: t to the last bit, as rtol allows
    t = brentq(lambda t: perron_eigen(kernel(np.exp(t)))[0] - 1.0,
               np.log(hi / 2.0), np.log(hi), xtol=5e-324)
    s = float(np.exp(t))
    beta, vec = perron_eigen(kernel(s))
    if not np.all(vec > 0):
        raise ValueError(f"Perron vector {vec} at z0 = {s} is not positive; "
                         f"is the fundamental domain connected?")
    z0 = (s, 1.0) if axis == 0 else (1.0, s)
    return z0, vec, float(beta)


def tilted_periodic_graph(pg: PeriodicGraph, z0, vec) -> PeriodicGraph:
    """Doob tilt by the z0-periodic field; conductances stay periodic."""
    # z0 ** off by Python's float power, which numpy's array power need
    # not match to the last bit
    zi, zj = np.power(np.array(z0, dtype=object), pg.off).astype(float).T
    vec = np.asarray(vec)
    factor = vec[pg.head] * zi * zj / vec[pg.tail]
    return PeriodicGraph(pg.n, (pg.tail, pg.head, pg.off, pg.cond * factor),
                         [0.0] * pg.n)


def verify_translation(pg: PeriodicGraph, z0, vec):
    """max relative gap of P~(z/z0, w/w0) against P^k(z, w), at 20
    points drawn at seed 1."""
    tilde = tilted_periodic_graph(pg, z0, vec)
    z, w = _random_points(np.random.default_rng(1), 20)
    pk = np.linalg.det(assemble_bloch(pg, z, w)).tolist()
    pt = np.linalg.det(assemble_bloch(tilde, z / z0[0], w / z0[1])).tolist()
    return max((abs(a - b) / max(abs(a), 1.0) for a, b in zip(pk, pt)),
               default=0.0)


def harmonicity_on_window(pg: PeriodicGraph, z0, vec):
    """Residual of the unrolled field under the unrolled massive Laplacian,
    on a window of 5 x 5 cells."""
    from .doob import check_massive_harmonic

    # free boundary keeps the periodic masses, so bulk harmonicity is exact
    reps = 5
    g = pg.unroll(reps, reps)
    lam = {v: vec[x0] * (z0[0] ** i) * (z0[1] ** j)
           for (x0, i, j), v in g.periodic_index.items()}
    # interior vertices: all offsets stay inside
    mi, mj = pg.max_offsets()
    interior = [v for (x0, i, j), v in g.periodic_index.items()
                if mi <= i < reps - mi and mj <= j < reps - mj]
    return check_massive_harmonic(g, lam, interior)


def spectral_probe(pg: PeriodicGraph):
    """Realness and sign diagnostics of P^k on the positive quadrant."""
    rng = np.random.default_rng(3)
    xy = [(float(np.exp(rng.uniform(-1.5, 1.5))),
           float(np.exp(rng.uniform(-1.5, 1.5)))) for _ in range(50)]
    x, y = np.array(xy).reshape(-1, 2).T
    vals = np.linalg.det(assemble_bloch(pg, x, y)).tolist()
    return [(a, b, v.real, abs(v.imag)) for (a, b), v in zip(xy, vals)]
