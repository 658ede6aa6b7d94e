"""Z^2-periodic graphs: Bloch matrices, characteristic polynomials and
periodic massive harmonic functions.

The massive Laplacian acts on (z, w)-periodic functions through a finite
matrix over the fundamental domain; its determinant is the characteristic
polynomial.  A positive periodic massive harmonic function comes from a
Perron eigenvector of the killed transition kernel at the z0 where its
eigenvalue crosses 1, and tilting by it translates the polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import WeightedGraph


@dataclass
class PeriodicGraph:
    """Fundamental domain with offset edges.

    edges: (x0, y0, (i, j), conductance); closure under reversal with the
    negated offset is enforced.
    """

    n: int
    edges: list
    masses: list

    def __post_init__(self):
        key = {(x, y, tuple(o)): float(c) for (x, y, o, c) in self.edges}
        for (x, y, o, c) in self.edges:
            rev = (y, x, (-o[0], -o[1]))
            if rev not in key:
                raise ValueError(f"edge {(x, y, o)} has no reverse")
            if float(c) <= 0:
                raise ValueError("conductances must be positive")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")

    def ck(self, x0):
        return self.masses[x0] + sum(c for (x, _, _, c) in self.edges
                                     if x == x0)

    def max_offsets(self):
        mi = max((abs(o[0]) for (_, _, o, _) in self.edges), default=0)
        mj = max((abs(o[1]) for (_, _, o, _) in self.edges), default=0)
        return mi, mj

    def unroll(self, reps_i, reps_j):
        """Finite window of the periodic graph with free boundary.

        Vertices are (x0, i, j) for i in range(reps_i), j in range(reps_j)
        and keep their periodic masses; edges leaving the window are
        dropped.
        """
        index = {}
        for i in range(reps_i):
            for j in range(reps_j):
                for x0 in range(self.n):
                    index[(x0, i, j)] = len(index)
        edges = []
        masses = [0.0] * len(index)
        for (x0, i, j), v in index.items():
            masses[v] += float(self.masses[x0])
            for (a, b, o, c) in self.edges:
                if a != x0:
                    continue
                ti, tj = i + o[0], j + o[1]
                if (b, ti, tj) in index:
                    edges.append((v, index[(b, ti, tj)], float(c)))
        g = WeightedGraph(len(index), edges, masses, check=False)
        g.periodic_index = index
        return g


def square_lattice(mass) -> PeriodicGraph:
    edges = []
    for o in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        edges.append((0, 0, o, 1.0))
    return PeriodicGraph(1, edges, [mass])


def assemble_bloch(pg: PeriodicGraph, z, w):
    """Delta^k(z, w) over the fundamental domain."""
    if z == 0 or w == 0:
        raise ValueError("Bloch arguments must be nonzero")
    n = pg.n
    M = np.zeros((n, n), dtype=complex)
    for x0 in range(n):
        M[x0, x0] += pg.masses[x0]
        for (a, b, o, c) in pg.edges:
            if a != x0:
                continue
            M[x0, x0] += c
            M[x0, b] -= c * (z ** o[0]) * (w ** o[1])
    return M


def bloch_kernel(pg: PeriodicGraph, z, w):
    """Q^k(z, w) = I - D(c^k)^{-1} Delta^k(z, w)."""
    M = assemble_bloch(pg, z, w)
    ck = np.array([pg.ck(x0) for x0 in range(pg.n)])
    return np.eye(pg.n) - M / ck[:, None]


class CharPolyEvaluator:
    """det Delta^k(z, w) with recovered Laurent coefficients."""

    def __init__(self, pg: PeriodicGraph, coeffs, box):
        self.pg = pg
        self.coeffs = coeffs  # {(a, b): real coefficient}
        self.box = box

    def evaluate(self, z, w):
        return complex(np.linalg.det(assemble_bloch(self.pg, z, w)))

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


def charpoly(pg: PeriodicGraph):
    """Recover the Laurent coefficients of det Delta^k(z, w).

    Evaluates the determinant on a product grid of roots of unity scaled
    by 1, 1.1 or 0.9 and inverts the discrete Fourier relation, taking the
    first radius whose fit agrees with direct evaluation to 1e-9 at eight
    fresh points.
    """
    mi, mj = pg.max_offsets()
    A, B = pg.n * mi, pg.n * mj
    n1, n2 = 2 * A + 1, 2 * B + 1
    for rad in (1.0, 1.1, 0.9):
        t1 = np.exp(2j * np.pi * np.arange(n1) / n1)
        t2 = np.exp(2j * np.pi * np.arange(n2) / n2)
        vals = np.empty((n1, n2), dtype=complex)
        for i in range(n1):
            for j in range(n2):
                vals[i, j] = np.linalg.det(
                    assemble_bloch(pg, rad * t1[i], rad * t2[j]))
        hat = np.fft.ifft2(vals)
        coeffs = {}
        for a in range(-A, A + 1):
            for b in range(-B, B + 1):
                c = hat[a % n1, b % n2] / (rad ** a) / (rad ** b)
                if abs(c) > 1e-12:
                    coeffs[(a, b)] = float(c.real)
        ev = CharPolyEvaluator(pg, coeffs, (A, B))
        # refit check at fresh points
        rng = np.random.default_rng(0)
        ok = True
        for _ in range(8):
            z = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
            w = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
            direct = ev.evaluate(z, w)
            fitted = ev.evaluate_from_coeffs(z, w)
            scale = max(abs(direct), 1.0)
            if abs(direct - fitted) > 1e-9 * scale:
                ok = False
                break
        if ok:
            return ev
    raise ValueError("coefficient recovery failed the refit gate")


PERRON_TOL = 1e-14
PERRON_MAX_ITER = 20000


def perron_eigen(Q):
    """(eigenvalue, positive eigenvector) by power iteration, until the
    vector and the eigenvalue move by less than PERRON_TOL (relative for
    the eigenvalue) or PERRON_MAX_ITER iterations have run."""
    n = Q.shape[0]
    v = np.ones(n) / n
    beta = 1.0
    for it in range(PERRON_MAX_ITER):
        v2 = Q @ v
        beta2 = float(np.max(v2))
        v2 = v2 / beta2
        if np.max(np.abs(v2 - v)) < PERRON_TOL \
                and abs(beta2 - beta) < PERRON_TOL * beta2:
            ratios = (Q @ v2) / v2
            return float(np.mean(ratios)), v2
        v, beta = v2, beta2
    ratios = (Q @ v) / v
    return float(np.mean(ratios)), v


def perron_search(pg: PeriodicGraph, axis=0):
    """Find z0 > 1 on an axis with Perron eigenvalue beta(Q^k(z0)) = 1.

    The kernel at (1, 1) is strictly sub-Markovian when m != 0 and its
    Perron value blows up along the axis, so doubling brackets the
    crossing below 2^20 and bisection stops at |beta - 1| < 1e-12.
    Returns (z0 pair, eigenvector over the fundamental domain, beta at z0,
    bisection log).
    """
    if all(m == 0 for m in pg.masses):
        return (1.0, 1.0), np.ones(pg.n), 1.0, []

    def beta_at(s):
        zw = (s, 1.0) if axis == 0 else (1.0, s)
        Q = bloch_kernel(pg, *zw).real
        val, vec = perron_eigen(Q)
        return val, vec

    beta1, _ = beta_at(1.0)
    if beta1 >= 1.0:
        raise ValueError("kernel at (1,1) is not strictly sub-Markovian")
    hi = 2.0
    log = [(1.0, beta1)]
    while beta_at(hi)[0] < 1.0:
        hi *= 2.0
        if hi > 2.0**20:
            raise ValueError("failed to bracket beta = 1")
    lo = hi / 2.0 if hi > 2.0 else 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bmid, vec = beta_at(mid)
        log.append((mid, bmid))
        if abs(bmid - 1.0) < 1e-12:
            break
        if bmid < 1.0:
            lo = mid
        else:
            hi = mid
    s = mid
    beta_final, vec = beta_at(s)
    vec = vec / vec[0]
    z0 = (s, 1.0) if axis == 0 else (1.0, s)
    return z0, vec, beta_final, log


def tilted_periodic_graph(pg: PeriodicGraph, z0, vec) -> PeriodicGraph:
    """Doob tilt by the z0-periodic field; conductances stay periodic."""
    edges = []
    for (x0, y0, o, c) in pg.edges:
        factor = vec[y0] * (z0[0] ** o[0]) * (z0[1] ** o[1]) / vec[x0]
        edges.append((x0, y0, o, c * factor))
    return PeriodicGraph(pg.n, edges, [0.0] * pg.n)


def verify_translation(pg: PeriodicGraph, z0, vec, n_points=20, seed=1):
    """max relative gap of P~(z/z0, w/w0) against P^k(z, w)."""
    tilde = tilted_periodic_graph(pg, z0, vec)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        z = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        w = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        pk = complex(np.linalg.det(assemble_bloch(pg, z, w)))
        pt = complex(np.linalg.det(
            assemble_bloch(tilde, z / z0[0], w / z0[1])))
        gap = abs(pk - pt) / max(abs(pk), 1.0)
        worst = max(worst, gap)
    return worst


def harmonicity_on_window(pg: PeriodicGraph, z0, vec, reps=5):
    """Residual of the unrolled field under the unrolled massive Laplacian."""
    from .doob import check_massive_harmonic

    # free boundary keeps the periodic masses, so bulk harmonicity is exact
    g = pg.unroll(reps, reps)
    lam = {}
    for (x0, i, j), v in g.periodic_index.items():
        lam[v] = vec[x0] * (z0[0] ** i) * (z0[1] ** j)
    # interior vertices: all offsets stay inside
    mi, mj = pg.max_offsets()
    interior = [v for (x0, i, j), v in g.periodic_index.items()
                if mi <= i < reps - mi and mj <= j < reps - mj]
    return check_massive_harmonic(g, lam, interior)


def spectral_probe(pg: PeriodicGraph, n_samples=50, seed=3):
    """Realness and sign diagnostics of P^k on the positive quadrant."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_samples):
        x = float(np.exp(rng.uniform(-1.5, 1.5)))
        y = float(np.exp(rng.uniform(-1.5, 1.5)))
        val = complex(np.linalg.det(assemble_bloch(pg, x, y)))
        rows.append((x, y, val.real, abs(val.imag)))
    return rows
