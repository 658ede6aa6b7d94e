import numpy as np
import pytest

from massiveforests.periodic import (
    PeriodicGraph,
    assemble_bloch,
    bloch_kernel,
    charpoly,
    harmonicity_on_window,
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
        z0, vec, beta, log = perron_search(pg)
        assert z0[0] == pytest.approx(2.0, abs=1e-10)
        assert abs(beta - 1.0) <= 1e-10
        assert np.all(vec > 0)

    def test_mass_to_zero_limit(self):
        for m, tol in ((1e-3, 0.1), (1e-5, 0.01)):
            z0, _, _, _ = perron_search(square_lattice(m))
            assert abs(z0[0] - 1.0) < tol

    def test_beta_monotone_log(self):
        pg = square_lattice(0.5)
        _, _, _, log = perron_search(pg)
        betas = {round(s, 14): b for s, b in log}
        ss = sorted(betas)
        vals = [betas[s] for s in ss]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(vals, vals[1:]))

    def test_two_vertex_domain(self):
        pg = two_vertex_domain()
        z0, vec, beta, _ = perron_search(pg)
        assert abs(beta - 1.0) <= 1e-10
        assert np.all(vec > 0)
        # the field is massive harmonic for the Bloch matrix at z0
        M = assemble_bloch(pg, *z0).real
        assert np.max(np.abs(M @ vec)) < 1e-9

    def test_axis_one(self):
        pg = two_vertex_domain()
        z0, vec, beta, _ = perron_search(pg, axis=1)
        assert z0[0] == 1.0 and z0[1] > 1.0
        assert abs(beta - 1.0) <= 1e-10

    def test_harmonic_on_unrolled_window(self):
        pg = square_lattice(0.5)
        z0, vec, _, _ = perron_search(pg)
        assert harmonicity_on_window(pg, z0, vec, reps=5) <= 1e-10


class TestUnroll:
    def test_free_boundary_window(self):
        m = 0.7
        g = square_lattice(m).unroll(4, 4)
        assert g.n == 16
        # no wiring: every vertex keeps the periodic mass
        assert g.masses == [m] * 16
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
        z0, vec, _, _ = perron_search(pg)
        assert verify_translation(pg, z0, vec) <= 1e-10

    def test_tilde_kills_constants(self):
        pg = square_lattice(0.5)
        z0, vec, _, _ = perron_search(pg)
        tilde = tilted_periodic_graph(pg, z0, vec)
        M = assemble_bloch(tilde, 1.0, 1.0)
        assert np.max(np.abs(np.asarray(M).sum(axis=1))) < 1e-10

    def test_specific_point(self):
        pg = square_lattice(0.5)
        z0, vec, _, _ = perron_search(pg)
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
            z0, vec, beta, _ = perron_search(pg)
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
