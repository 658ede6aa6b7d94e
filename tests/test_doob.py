import warnings
from fractions import Fraction

import numpy as np
import pytest

from massiveforests.doob import (
    check_massive_harmonic,
    doob_conductances,
    martin_kernel_ratio,
    require_massive_harmonic,
    tilted_transfer,
    verify_gauge_identity,
    verify_partition_equality,
)
from massiveforests.graphs import ROOT, WeightedGraph, wired_restriction
from massiveforests.linalg import potential, transfer_current
from massiveforests.walks import wilson_edge_marginals

from test_graphs import (
    grid_graph,
    loop_laplacian_apply,
    random_rational_graph,
    typed,
    z_line,
)


def tilted_transfer_direct(ambient: WeightedGraph, subset, lam, exact=False):
    """Transfer currents of the tilted window computed the long way."""
    subset = sorted(subset)
    tilde_window = wired_restriction(doob_conductances(ambient, lam), subset)
    pot = potential(tilde_window, exact=exact)
    return transfer_current(tilde_window, pot)


def z_line_half_mass(lo, hi):
    # mass 1/2 makes 2^x massive harmonic: 1/2 + (1-2) + (1-1/2) = 0
    return z_line(lo, hi, m=Fraction(1, 2))


def lam_pow2(lo, hi):
    return {i - lo: Fraction(2) ** i for i in range(lo, hi + 1)}


class TestDoobConductances:
    def test_identity_tilt(self):
        g = z_line(0, 3)
        tilde = doob_conductances(g, {x: Fraction(1) for x in range(g.n)})
        assert typed(tilde.cond) == typed(g.cond)

    def test_pow2_tilt(self):
        g = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        tilde = doob_conductances(g, lam)
        i = 2  # ambient vertex 0
        assert tilde.edge_conductance(i, i + 1) == 2
        assert tilde.edge_conductance(i + 1, i) == Fraction(1, 2)

    def test_total_conductance_preserved_at_harmonic_vertices(self):
        g = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        tilde = doob_conductances(g, lam)
        for x in range(1, g.n - 1):  # interior: harmonic there
            assert tilde.total_conductance(x) == g.ck(x)

    def test_nonpositive_lambda_rejected(self):
        g = z_line(0, 2)
        with pytest.raises(ValueError):
            doob_conductances(g, {0: 1, 1: 0, 2: 1})


class TestMassiveHarmonic:
    def test_pow2_exact_zero(self):
        g = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        for x in range(1, g.n - 1):
            assert loop_laplacian_apply(g, lam, x) == 0
        assert check_massive_harmonic(g, lam, range(1, g.n - 1)) == 0

    def test_constant_not_harmonic(self):
        g = z_line(0, 3, m=Fraction(1))
        lam = {x: Fraction(1) for x in range(4)}
        resid = check_massive_harmonic(g, lam, [1, 2])
        # residual is m(x)/c^k(x) = 1/3 at interior vertices
        assert resid == pytest.approx(1 / 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_lambda_refused(self, value):
        # max(worst, nan) keeps worst: a NaN residual must not read as 0
        g = grid_graph(4, 4, m=Fraction(1, 2))
        lam = {x: value for x in range(g.n)}
        assert check_massive_harmonic(g, lam, range(g.n)) == np.inf
        with pytest.raises(ValueError, match="not massive harmonic"):
            require_massive_harmonic(g, lam, range(g.n))

    @pytest.mark.parametrize("lam", [
        {x: -1 for x in range(9)},
        {x: 0 if x == 4 else 1 for x in range(9)},
        {x: -2.5 if x == 4 else 1.0 for x in range(9)},
    ], ids=["all-negative", "zero", "negative-float"])
    def test_nonpositive_lambda_refused(self, lam):
        # lambda = -1 has residual 0 relative to |lambda|, yet
        # (Delta^k lambda)(4) = -1/2; a 0 used to divide by zero
        g = grid_graph(3, 3, m=Fraction(1, 2))
        for check in (check_massive_harmonic, require_massive_harmonic):
            with pytest.raises(ValueError, match="lambda must be positive"):
                check(g, lam, range(g.n))

    def test_nonpositive_lambda_off_the_checked_vertices(self):
        # only the checked vertices divide by lambda; a neighbour's value
        # just enters the residual
        g = z_line(0, 2, m=Fraction(1))
        lam = {0: Fraction(-1), 1: Fraction(1), 2: Fraction(3)}
        assert check_massive_harmonic(g, lam, [1]) == \
            abs(float(loop_laplacian_apply(g, lam, 1))) / float(g.ck(1))

    def test_potential_column_is_harmonic_off_z(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_rational_graph(rng, n_max=5)
            pot = potential(g, exact=True)
            z = g.n - 1
            lam = {x: pot.V[x][z] for x in range(g.n)}
            subset = [x for x in range(g.n) if x != z]
            for x in subset:
                assert loop_laplacian_apply(g, lam, x) == 0


class TestGaugeIdentity:
    def test_trivial(self):
        g = z_line(0, 3)
        lam = {x: Fraction(1) for x in range(4)}
        assert verify_gauge_identity(g, lam, [1, 2]) == 0

    def test_z_line_window(self):
        g = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        assert verify_gauge_identity(g, lam, [2, 3]) <= 1e-14

    def test_random_graph_potential_column(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            g = random_rational_graph(rng, n_max=5)
            pot = potential(g, exact=True)
            z = g.n - 1
            lam = {x: pot.V[x][z] for x in range(g.n)}
            subset = [x for x in range(g.n) if x != z]
            if len(subset) < 2:
                continue
            try:
                wired_restriction(g, subset)
            except ValueError:
                continue  # window disconnected; skip
            assert verify_gauge_identity(g, lam, subset) <= 1e-12


class TestPartitionEquality:
    def test_z_line_21_over_4(self):
        g = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        subset = [2, 3]  # ambient vertices 0 and 1
        zf, zt, gap, zf_enum, zt_enum = verify_partition_equality(
            g, subset, lam, exact=True, enumerate_cap=8)
        assert zf == Fraction(21, 4)
        assert zt == Fraction(21, 4)
        assert gap == 0
        assert zf_enum == Fraction(21, 4) and zt_enum == Fraction(21, 4)

    def test_single_vertex_window(self):
        g = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        zf, zt, gap = verify_partition_equality(g, [2], lam, exact=True)
        # Z = wired mass of the single vertex: 1/2 + 1 + 1 = 5/2
        assert zf == Fraction(5, 2) and zt == Fraction(5, 2)

    def test_refuses_non_harmonic(self):
        g = z_line(0, 4, m=Fraction(1))
        lam = {x: Fraction(1) for x in range(5)}
        with pytest.raises(ValueError):
            verify_partition_equality(g, [1, 2, 3], lam)

    def test_random_windows_with_potential_lambda(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 10:
            amb = grid_graph(3, 3, m=Fraction(1, 3))
            pot = potential(amb, exact=True)
            z = int(rng.integers(0, amb.n))
            lam = {x: pot.V[x][z] for x in range(amb.n)}
            others = [x for x in range(amb.n) if x != z]
            k = int(rng.integers(2, 5))
            subset = sorted(rng.choice(others, size=k, replace=False).tolist())
            try:
                wired_restriction(amb, subset)
            except ValueError:
                continue
            zf, zt, gap = verify_partition_equality(amb, subset, lam,
                                                    exact=True)
            assert gap == 0
            done += 1

    def test_float_gap_on_large_window(self):
        # both partition functions overflow float64 here (log Z ~ 1929);
        # the log-determinant gap stays finite and tiny, with no warning
        amb = grid_graph(42, 42, c=1.0, m=0.05)
        V = potential(amb).V
        lam = {x: V[x, 0] for x in range(amb.n)}
        subset = [j * 42 + i for j in range(1, 41) for i in range(1, 41)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (sf, lf), (st, lt), gap = verify_partition_equality(
                amb, subset, lam)
        assert sf == st == 1.0 and lf > 1000
        assert np.isfinite(gap) and gap <= 1e-10


class TestTiltedTransfer:
    def test_identity_lambda(self):
        g = z_line(0, 4, m=Fraction(1))
        window = wired_restriction(g, [1, 2, 3])
        lam = {x: Fraction(1) for x in range(3)}
        pot = potential(window, exact=True)
        entry = tilted_transfer(window, lam, exact=True)
        from massiveforests.linalg import transfer_current
        H = transfer_current(window, pot)
        edges = [(0, 1), (1, 0), (1, 2), (0, ROOT)]
        for e in edges:
            for f in edges:
                assert entry(e, f) == H.entry(e, f)

    def test_formula_vs_direct(self):
        amb = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        subset = [1, 2, 3, 4]
        window = wired_restriction(amb, subset)
        lam_w = {i: lam[v] for i, v in enumerate(subset)}
        entry = tilted_transfer(window, lam_w, exact=True)
        Ht = tilted_transfer_direct(amb, subset, lam, exact=True)
        edges = [(0, 1), (1, 2), (2, 3), (3, 2), (1, 0), (0, ROOT),
                 (3, ROOT)]
        for e in edges:
            for f in edges:
                assert entry(e, f) == Ht.entry(e, f)

    def test_tilde_wilson_matches_determinants(self):
        amb = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        subset = [1, 2, 3]
        window = wired_restriction(amb, subset)
        lam_w = {i: lam[v] for i, v in enumerate(subset)}
        tilde_window = wired_restriction(doob_conductances(amb, lam), subset)
        entry = tilted_transfer(window, lam_w, exact=True)
        n = 30000
        pairs, counts, total = wilson_edge_marginals(tilde_window, n, seed=77)
        from massiveforests.linalg import edge_conductance_k
        for e, c in zip(pairs, counts):
            p = float(entry(e, e) * edge_conductance_k(tilde_window, e))
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / total)
            assert abs(c / total - p) <= 4 * sigma + 1e-9


class TestGaugeCovariance:
    def test_kernel_tilt_exact(self):
        # Q~(x, y) = (lam(y)/lam(x)) Q^k(x, y) entrywise, exactly
        amb = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        subset = [1, 2, 3, 4]
        window = wired_restriction(amb, subset)
        tilde = wired_restriction(doob_conductances(amb, lam), subset)
        lam_w = [lam[v] for v in subset]
        for x in range(window.n):
            for y in range(window.n):
                q_k = window.edge_conductance(x, y) / window.ck(x)
                q_t = tilde.edge_conductance(x, y) / tilde.ck(x)
                assert q_t == (lam_w[y] / lam_w[x]) * q_k

    def test_potential_gauge_covariance(self):
        # V~(x, y) = (lam(y)/lam(x)) V^k(x, y) entrywise
        amb = z_line_half_mass(-2, 3)
        lam = lam_pow2(-2, 3)
        subset = [1, 2, 3, 4]
        window = wired_restriction(amb, subset)
        tilde = wired_restriction(doob_conductances(amb, lam), subset)
        lam_w = [lam[v] for v in subset]
        Vk = potential(window, exact=True).V
        Vt = potential(tilde, exact=True).V
        for x in range(window.n):
            for y in range(window.n):
                assert Vt[x][y] == (lam_w[y] / lam_w[x]) * Vk[x][y]


class TestMartinRatios:
    def test_same_point_ratio_one(self):
        g = grid_graph(4, 4, m=Fraction(1))
        ratios = martin_kernel_ratio(g, 5, 5, [0, 3, 15])
        assert all(r == 1 for r in ratios)

    def test_swap_gives_reciprocal(self):
        g = grid_graph(4, 4, m=Fraction(1))
        zs = [0, 3, 15]
        r1 = martin_kernel_ratio(g, 5, 6, zs, exact=True)
        r2 = martin_kernel_ratio(g, 6, 5, zs, exact=True)
        for a, b in zip(r1, r2):
            assert a * b == 1

    def test_stabilization_along_axis(self):
        # constant-mass Z^2 window: ratios along +e1 stabilize (diagnostic)
        n = 13
        g = grid_graph(n, 3, m=Fraction(1, 4))

        def vid(i, j):
            return j * n + i

        x, x0 = vid(1, 1), vid(2, 1)
        zs = [vid(i, 1) for i in (7, 9, 11)]
        ratios = martin_kernel_ratio(g, x, x0, zs)
        diffs = [abs(ratios[i + 1] - ratios[i]) for i in range(len(ratios) - 1)]
        assert diffs[1] < diffs[0]  # monotone stabilization
