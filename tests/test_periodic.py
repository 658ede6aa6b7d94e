import numpy as np
import pytest

from massiveforests.periodic import (
    PeriodicGraph,
    assemble_bloch,
    bloch_kernel,
    charpoly,
    harmonicity_on_window,
    honeycomb,
    perron_search,
    spectral_probe,
    square_lattice,
    tilted_periodic_graph,
    verify_translation,
)


def two_vertex_domain(mass0=0.5, mass1=0.25):
    # two vertices in the fundamental domain, connected inside and across
    edges = []
    for (x, y, o, c) in [
        (0, 1, (0, 0), 1.0),
        (0, 1, (1, 0), 0.5),
        (0, 0, (0, 1), 2.0),
        (1, 1, (0, 1), 1.5),
    ]:
        edges.append((x, y, o, c))
        edges.append((y, x, (-o[0], -o[1]), c))
    return PeriodicGraph(2, edges, [mass0, mass1])


def random_periodic_graph(seed):
    """1-3 vertices on a cycle plus two random edges, offsets in [-2, 2];
    the first edge crosses in i and the second in j, so the Perron search
    brackets its crossing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    pairs = [(x, (x + 1) % n) for x in range(n)]
    pairs += [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2)]
    edges = []
    for k, (x, y) in enumerate(pairs):
        o = [int(rng.integers(-2, 3)), int(rng.integers(-2, 3))]
        if k < 2 and o[k] == 0:
            o[k] = 1
        if x == y and o == [0, 0]:
            o = [0, 1]
        c = float(rng.uniform(0.5, 2.0))
        edges.append((x, y, tuple(o), c))
        edges.append((y, x, (-o[0], -o[1]), c))
    masses = [float(rng.uniform(0.1, 1.0)) for _ in range(n)]
    return PeriodicGraph(n, edges, masses)


class TestBloch:
    def test_z2_scalar(self):
        pg = square_lattice(1.0)
        M = assemble_bloch(pg, 2.0, 3.0)
        expected = 1.0 + 4.0 - 2.0 - 0.5 - 3.0 - 1.0 / 3.0
        assert M[0, 0] == pytest.approx(expected)

    def test_torus_specialization(self):
        pg = two_vertex_domain()
        M = assemble_bloch(pg, 1.0, 1.0)
        # row sums equal the masses at (1,1): constants in the kernel
        sums = np.asarray(M).sum(axis=1).real
        assert sums == pytest.approx([0.5, 0.25])

    def test_reversal_symmetry(self):
        pg = two_vertex_domain()
        z, w = 1.3 * np.exp(0.4j), 0.8 * np.exp(-1.1j)
        M = assemble_bloch(pg, z, w)
        # symmetric conductances: M(z, w)^T = M(1/z, 1/w)
        Mt = assemble_bloch(pg, 1 / z, 1 / w)
        assert np.allclose(M.T, Mt)

    def test_zero_argument_rejected(self):
        with pytest.raises(ValueError):
            assemble_bloch(square_lattice(1.0), 0.0, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: square_lattice(1.0), two_vertex_domain,
        lambda: random_periodic_graph(3), lambda: random_periodic_graph(12)],
        ids=["square", "two-vertex", "random-3", "random-12"])
    def test_edge_order_leaves_bytes(self, make):
        # the unit square lattice at mass 1 gave a (0, +-1) coefficient of
        # -0.9999999999999997 for the offsets (1,0),(0,1),(-1,0),(0,-1)
        # and -0.9999999999999998 for (1,0),(-1,0),(0,1),(0,-1)
        pg = make()
        z = 1.3 * np.exp(0.4j) * np.arange(1, 4)
        w = 0.8 * np.exp(-1.1j) / np.arange(1, 4)
        M = assemble_bloch(pg, z, w)
        coeffs = repr(charpoly(pg).coeffs)
        edges, m = (pg.tail, pg.head, pg.off, pg.cond), len(pg.tail)
        orders = [np.r_[0, 2, 1, 3:m]] + [
            np.random.default_rng(seed).permutation(m) for seed in range(6)]
        for order in orders:
            other = PeriodicGraph(pg.n, tuple(a[order] for a in edges),
                                  pg.masses)
            assert assemble_bloch(other, z, w).tobytes() == M.tobytes()
            assert repr(charpoly(other).coeffs) == coeffs


class TestCharPoly:
    def test_z2_coefficients(self):
        ev = charpoly(square_lattice(1.0))
        assert ev.coeffs[(0, 0)] == pytest.approx(5.0, abs=1e-9)
        for ab in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert ev.coeffs[ab] == pytest.approx(-1.0, abs=1e-9)

    def test_zero_mass_vanishes_at_one(self):
        ev = charpoly(square_lattice(0.0))
        assert abs(ev.evaluate(1.0, 1.0)) < 1e-12

    def test_newton_polygon(self):
        ev = charpoly(square_lattice(1.0))
        hull = ev.newton_polygon()
        assert set(hull) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_refit_round_trip(self):
        pg = two_vertex_domain()
        ev = charpoly(pg)
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
            w = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
            direct = ev.evaluate(z, w)
            fitted = ev.evaluate_from_coeffs(z, w)
            assert abs(direct - fitted) <= 1e-9 * max(abs(direct), 1.0)

    def test_coefficients_real(self):
        ev = charpoly(two_vertex_domain())
        for c in ev.coeffs.values():
            assert isinstance(c, float)


class TestPerron:
    def test_z2_half_mass(self):
        pg = square_lattice(0.5)
        z0, vec, beta = perron_search(pg)
        assert z0[0] == pytest.approx(2.0, abs=1e-10)
        assert abs(beta - 1.0) <= 1e-10
        assert np.all(vec > 0)

    def test_mass_to_zero_limit(self):
        for m, tol in ((1e-3, 0.1), (1e-5, 0.01)):
            z0, _, _ = perron_search(square_lattice(m))
            assert abs(z0[0] - 1.0) < tol

    @pytest.mark.parametrize("pg", [square_lattice(0.5), honeycomb(0.5)],
                             ids=["square", "honeycomb"])
    def test_beta_monotone(self, pg):
        z0, _, _ = perron_search(pg)
        scales = np.linspace(1.0, z0[0], 50)
        rho = np.abs(np.linalg.eigvals(bloch_kernel(pg, scales, 1.0).real))
        vals = rho.max(axis=-1)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_two_vertex_domain(self):
        pg = two_vertex_domain()
        z0, vec, beta = perron_search(pg)
        assert abs(beta - 1.0) <= 1e-10
        assert np.all(vec > 0)
        # the field is massive harmonic for the Bloch matrix at z0
        M = assemble_bloch(pg, *z0).real
        assert np.max(np.abs(M @ vec)) < 1e-9

    def test_axis_one(self):
        pg = two_vertex_domain()
        z0, vec, beta = perron_search(pg, axis=1)
        assert z0[0] == 1.0 and z0[1] > 1.0
        assert abs(beta - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "pg", [honeycomb(0.1), honeycomb(0.5)]
        + [random_periodic_graph(seed) for seed in range(20)],
        ids=["honeycomb-0.1", "honeycomb-0.5"]
        + [f"random-{seed}" for seed in range(20)])
    def test_gates(self, pg):
        # bipartite graphs (the honeycomb, random seed 12) included
        z0, vec, _ = perron_search(pg)
        beta = np.linalg.eigvals(bloch_kernel(pg, *z0).real).real.max()
        assert abs(beta - 1.0) <= 1e-12
        assert harmonicity_on_window(pg, z0, vec) <= 1e-10
        assert verify_translation(pg, z0, vec) <= 1e-10

    def test_honeycomb_closed_form(self):
        # Q(s, 1) has eigenvalues +-sqrt((2 + 1/s)(2 + s)) / (3 + m)
        for m in (0.1, 0.5):
            z0, vec, _ = perron_search(honeycomb(m))
            c = ((3 + m) ** 2 - 5) / 2
            assert z0[0] == pytest.approx((c + np.sqrt(c * c - 4)) / 2,
                                          rel=1e-14)
            assert np.all(vec > 0)

    def test_disconnected_domain_refused(self):
        # two vertices with only self-offset edges: no positive Perron vector
        edges = []
        for (x, o, c) in [(0, (1, 0), 1.0), (1, (0, 1), 1.0),
                          (1, (1, 0), 2.0)]:
            edges += [(x, x, o, c), (x, x, (-o[0], -o[1]), c)]
        pg = PeriodicGraph(2, edges, [0.5, 0.5])
        with pytest.raises(ValueError, match="not positive"):
            perron_search(pg)

    def test_harmonic_on_unrolled_window(self):
        pg = square_lattice(0.5)
        z0, vec, _ = perron_search(pg)
        assert harmonicity_on_window(pg, z0, vec) <= 1e-10


class TestUnroll:
    def test_free_boundary_window(self):
        m = 0.7
        g = square_lattice(m).unroll(4, 4)
        assert g.n == 16
        # no wiring: every vertex keeps the periodic mass
        assert g.masses.dtype == np.float64
        assert g.masses.tolist() == [m] * 16
        where = {v: (i, j) for (_, i, j), v in g.periodic_index.items()}
        pairs = set()
        for t, h, c in zip(g.tail, g.head, g.cond):
            (i, j), (k, l) = where[int(t)], where[int(h)]
            assert abs(i - k) + abs(j - l) == 1 and c == 1.0
            pairs.add((int(t), int(h)))
        # only the 2 * 4 * 3 window edges remain, in both directions
        assert len(pairs) == g.m_edges == 2 * 2 * 4 * 3


class TestTranslation:
    def test_z2_identity(self):
        pg = square_lattice(0.5)
        z0, vec, _ = perron_search(pg)
        assert verify_translation(pg, z0, vec) <= 1e-10

    def test_tilde_kills_constants(self):
        pg = square_lattice(0.5)
        z0, vec, _ = perron_search(pg)
        tilde = tilted_periodic_graph(pg, z0, vec)
        M = assemble_bloch(tilde, 1.0, 1.0)
        assert np.max(np.abs(np.asarray(M).sum(axis=1))) < 1e-10

    def test_specific_point(self):
        pg = square_lattice(0.5)
        z0, vec, _ = perron_search(pg)
        z, w = 2.0, 1.0 + 1.0j
        pk = np.linalg.det(assemble_bloch(pg, z, w))
        tilde = tilted_periodic_graph(pg, z0, vec)
        pt = np.linalg.det(assemble_bloch(tilde, z / z0[0], w / z0[1]))
        assert abs(pk - pt) <= 1e-10 * max(abs(pk), 1.0)

    def test_random_two_vertex_domains(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            edges = []
            for (x, y, o) in [(0, 1, (0, 0)), (0, 1, (1, 0)),
                              (0, 0, (0, 1)), (1, 1, (0, 1))]:
                c = float(rng.uniform(0.5, 2.0))
                edges.append((x, y, o, c))
                edges.append((y, x, (-o[0], -o[1]), c))
            pg = PeriodicGraph(2, edges, [float(rng.uniform(0.1, 1.0)),
                                          float(rng.uniform(0.1, 1.0))])
            z0, vec, beta = perron_search(pg)
            assert abs(beta - 1.0) <= 1e-9
            assert verify_translation(pg, z0, vec) <= 1e-8


class TestSpectralProbe:
    def test_positive_at_one(self):
        # P(1, 1) = mu: only the mass survives at the torus point
        pg = square_lattice(1.0)
        val = np.linalg.det(assemble_bloch(pg, 1.0, 1.0))
        assert val.real == pytest.approx(1.0)

    def test_real_on_positive_quadrant(self):
        rows = spectral_probe(square_lattice(1.0))
        for (x, y, re, im) in rows:
            assert im < 1e-10

    def test_positive_near_one(self):
        # positivity on the amoeba-complement component containing (1, 1)
        pg = square_lattice(1.0)
        for x in np.linspace(0.85, 1.2, 6):
            for y in np.linspace(0.85, 1.2, 6):
                val = np.linalg.det(assemble_bloch(pg, float(x), float(y)))
                assert val.real > 0


class TestBatchedBloch:
    def test_stack_equals_points_bit_for_bit(self):
        pg = two_vertex_domain()
        rng = np.random.default_rng(4)
        z = rng.uniform(0.5, 2.0, (3, 4)) * np.exp(2j * np.pi *
                                                   rng.random((3, 4)))
        w = rng.uniform(0.5, 2.0, 4)
        M = assemble_bloch(pg, z, w)
        assert M.shape == (3, 4, 2, 2)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(M[i, j],
                                      assemble_bloch(pg, z[i, j], w[j]))

    def test_zero_inside_array_rejected(self):
        with pytest.raises(ValueError):
            assemble_bloch(square_lattice(1.0), [1.0, 0.0], 1.0)

    def test_evaluate_stack(self):
        ev = charpoly(two_vertex_domain())
        z = np.array([0.7, 1.3j])
        vals = ev.evaluate(z, 1.1)
        assert vals.shape == (2,)
        assert [complex(v) for v in vals] == [ev.evaluate(x, 1.1) for x in z]
