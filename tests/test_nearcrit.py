import math

import numpy as np
import pytest

from massiveforests.nearcrit import (
    CrossingSpec,
    SquareLatticeKernel,
    _arc_bin,
    _circle_crossing_angle,
    _crossing_box,
    _disk_box,
    _walk,
    approximation_property_check,
    conditioned_branch_sampler,
    crossing_probability,
    exit_law_brownian,
    exit_law_continuum,
    exit_law_walk,
    girsanov_ratio_check,
    lerw_ratio_check,
    total_variation,
)

SQRT2 = math.sqrt(2.0)


class _Block:
    """A coupled uniform block of width n: row `step` is drawn afresh on
    each read, so every run that reads it sees the same rows."""

    def __init__(self, n):
        self.n = n

    def __getitem__(self, step):
        return np.random.default_rng([11, step]).random(self.n)


class TestKernel:
    def test_critical_kernel_uniform(self):
        k = SquareLatticeKernel(0.0, 1 / 32)
        assert k.p_die == 0.0
        assert np.allclose(k.p_dirs, 0.25)

    def test_killed_kernel_death_rate(self):
        M, d = 1.0, 1 / 32
        k = SquareLatticeKernel(M, d)
        # p_die ~ 2 M^2 T d^2 with T = 1 on the square lattice
        assert k.p_die == pytest.approx(2 * M * M * d * d, rel=0.2)

    def test_drifted_kernel_biased(self):
        k = SquareLatticeKernel(1.0, 1 / 32, u_bar=0.0)
        assert k.p_die == 0.0
        p_e, p_n, p_w, p_s = k.p_dirs
        assert p_e > p_w
        assert p_n == pytest.approx(p_s, rel=1e-9)

    def test_nome_guard(self):
        with pytest.raises(ValueError):
            SquareLatticeKernel(3.0, 1.0)  # q = M * delta / 2 >= 1


class TestGirsanov:
    def test_perpendicular_drift_target_one(self):
        # displacement east, drift north: exponent 0, target exactly 1
        rows = girsanov_ratio_check(1.0, math.pi / 2, [1 / 32, 1 / 64])
        for (_, ratio, target, err) in rows:
            assert target == pytest.approx(1.0)
        assert rows[1][3] < rows[0][3]

    def test_error_decreases_with_delta(self):
        for u_bar in (0.0, math.pi / 3):
            rows = girsanov_ratio_check(1.0, u_bar, [1 / 32, 1 / 64])
            errs = [r[3] for r in rows]
            assert errs[1] < errs[0] / 1.5

    def test_drift_flip_gives_reciprocal(self):
        rows_p = girsanov_ratio_check(1.0, 0.0, [1 / 64])
        rows_m = girsanov_ratio_check(1.0, math.pi, [1 / 64])
        r1, t1, e1 = rows_p[0][1], rows_p[0][2], rows_p[0][3]
        r2, t2, e2 = rows_m[0][1], rows_m[0][2], rows_m[0][3]
        assert t2 == pytest.approx(1 / t1, rel=1e-12)
        assert r1 * r2 == pytest.approx(1.0, abs=3 * (e1 / t1 + e2 * t1))


class TestLerwRatio:
    def test_single_step_to_boundary(self):
        # radius 0.2 makes (1, 0) a boundary site at delta = 1/12; the MC
        # ratio estimates the exact finite-delta ratio (one-step Doob
        # factor times the death ratio), which approaches the Girsanov
        # target only as delta -> 0
        ratio, target, stderr, exact = lerw_ratio_check(
            1.0, 0.5, 1 / 12, [(0, 0), (1, 0)], 30000, seed=5, radius=0.2)
        assert ratio > 0
        assert abs(ratio - exact) <= 4 * stderr

    def test_M_zero_ratio_one(self):
        ratio, target, stderr, exact = lerw_ratio_check(
            0.0, 1.0, 1 / 12, [(0, 0), (1, 0)], 30000, seed=6, radius=0.2)
        assert target == 1.0 and exact == pytest.approx(1.0)
        assert abs(ratio - 1.0) <= 4 * stderr

    def test_three_step_path(self):
        # ends at (2, 1), a boundary site of the radius-0.3 window
        gamma = [(0, 0), (1, 0), (1, 1), (2, 1)]
        ratio, target, stderr, exact = lerw_ratio_check(
            1.0, 0.0, 1 / 12, gamma, 60000, seed=7, radius=0.3)
        assert ratio > 0
        assert abs(ratio - exact) <= 4 * stderr

    def test_exact_ratio_approaches_target(self):
        # deterministic arm: the finite-delta ratio converges to the target
        gaps = []
        rad = 0.2
        for d in (1 / 12, 1 / 24, 1 / 48):
            s = SQRT2 * d
            k = math.ceil(rad / s) - 1  # east boundary site of the window
            gamma = [(i, 0) for i in range(k + 1)]
            _, target, _, exact = lerw_ratio_check(
                1.0, 0.3, d, gamma, 1, seed=1, radius=rad)
            assert exact > 0
            gaps.append(abs(exact - target) / target)
        assert gaps[2] < gaps[0]


class TestCrossing:
    def test_scale_invariant_positive_estimate(self):
        # the event has a small but positive scale-invariant probability
        spec = CrossingSpec(r=0.3)
        est, se = crossing_probability(spec, 0.3 / 64, 0.0, 40000, seed=8)
        assert est > 0.001
        # a second mesh agrees within errors (scale invariance at M = 0)
        est2, se2 = crossing_probability(spec, 0.3 / 48, 0.0, 40000, seed=9)
        assert abs(est - est2) <= 4 * (se + se2)

    def test_degenerate_small_rectangle(self):
        # r comparable to the mesh: direct path sampling still positive
        spec = CrossingSpec(r=0.05)
        est, se = crossing_probability(spec, 0.05 / 4, 0.0, 5000, seed=9)
        assert est > 0.0

    def test_killing_monotonicity_coupled(self):
        spec = CrossingSpec(r=0.3)
        n = 20000
        shared = _Block(n)
        est0, _ = crossing_probability(spec, 0.3 / 32, 0.0, n, seed=0,
                                       coupled_uniforms=shared)
        est2, _ = crossing_probability(spec, 0.3 / 32, 2.0, n, seed=0,
                                       coupled_uniforms=shared)
        assert est2 <= est0 + 1e-12

    def test_truncation_warns(self):
        with pytest.warns(RuntimeWarning, match="200 of 200 walkers"):
            est, _ = crossing_probability(CrossingSpec(r=0.3), 0.3 / 64,
                                          0.0, 200, seed=3, max_steps=5)
        assert est == 0.0

    def test_orientations_and_translations_positive(self):
        for horizontal in (True, False):
            for z in (0j, 1.5 - 0.25j):
                spec = CrossingSpec(r=0.2, z=z, horizontal=horizontal)
                est, se = crossing_probability(spec, 0.2 / 32, 1.0, 30000,
                                               seed=13)
                assert est > 0.0005


class TestEngine:
    def test_coupled_block_nests_successes(self):
        # one uniform block indexed by walker id: the killed walkers follow
        # the M = 0 trajectories and can only die earlier, so every M = 2
        # success is an M = 0 success
        spec = CrossingSpec(r=0.3)
        n = 20000

        wins = {}
        for M in (0.0, 2.0):
            kernel = SquareLatticeKernel(M, 0.3 / 32)
            box, target, start = _crossing_box(spec, kernel)
            w = _walk(kernel, box, start, n, None, 10**5, uniforms=_Block(n))
            assert w.truncated == 0
            wins[M] = ~w.died & target[w.final]
        assert wins[2.0].sum() > 0
        assert not np.any(wins[2.0] & ~wins[0.0])

    def test_one_step_law(self):
        # the residual split keeps the kernel's law: death with p_die,
        # direction k with p_dirs[k]
        kernel = SquareLatticeKernel(4.0, 1 / 8)
        box = _disk_box(kernel.spacing, 1.0)
        start, n = box.site(0, 0), 200000
        with pytest.warns(RuntimeWarning, match="walkers were still"):
            w = _walk(kernel, box, start, n, np.random.default_rng(3), 1)
        freq = [w.died.mean()] + [np.mean(~w.died & (w.final == start + m))
                                  for m in box.moves]
        for f, p in zip(freq, [kernel.p_die, *kernel.p_dirs]):
            assert abs(f - p) <= 5 * math.sqrt(p * (1 - p) / n)

    def test_recorded_paths_are_lattice_walks(self):
        kernel = SquareLatticeKernel(1.0, 1 / 16)
        box = _disk_box(kernel.spacing, 0.5)
        start = box.site(0, 0)
        w = _walk(kernel, box, start, 300, np.random.default_rng(2), 10**6,
                  record=True)
        steps = {0, 1, box.shape[1]}  # 0: a dead walker's last entry
        for visited, final in zip(w.paths, w.final):
            assert visited[-1] == final
            jumps = np.abs(np.diff(np.concatenate(([start], visited))))
            assert set(jumps.tolist()) <= steps


class TestExitLaw:
    def test_uniform_at_criticality(self):
        # n calibrated so the O(delta) lattice-boundary anisotropy (about
        # 5% per arc at delta = 1/64, present in the exact exit law) stays
        # below the 3 sigma statistical resolution
        n = 10000
        counts, exited = exit_law_walk(0.0, 0.0, 1 / 64, n, seed=14)
        assert exited == n
        p = 1 / 16
        sigma = math.sqrt(p * (1 - p) / n)
        for c in counts:
            assert abs(c / n - p) <= 3 * sigma + 0.05 * p

    def test_drift_shifts_mass_east(self):
        counts, exited = exit_law_walk(1.0, 0.0, 1 / 24, 30000, seed=15)
        east = counts[0] + counts[15]
        west = counts[7] + counts[8]
        assert east > 2 * west

    def test_rotation_equivariance(self):
        c0, _ = exit_law_walk(1.0, 0.0, 1 / 24, 30000, seed=16)
        c90, _ = exit_law_walk(1.0, math.pi / 2, 1 / 24, 30000, seed=17)
        rotated = np.roll(c0, 4)  # 16 arcs: quarter turn = 4 bins
        assert total_variation(rotated, c90) < 0.03

    def test_tv_against_brownian(self):
        n = 30000
        counts_w, _ = exit_law_walk(1.0, 0.0, 1 / 48, n, seed=18)
        counts_b, _ = exit_law_brownian(1.0, 0.0, 1 / 48, n, seed=19)
        assert total_variation(counts_w, counts_b) < 0.05


class TestContinuumExitLaw:
    def test_masses_sum_to_one(self):
        for M, u_bar in ((0.0, 0.0), (1.0, 0.3), (3.0, math.pi / 2),
                         (2.0, -1.0)):
            p = exit_law_continuum(M, u_bar)
            assert abs(p.sum() - 1.0) < 1e-12
            assert p.min() > 0

    def test_uniform_without_drift(self):
        assert np.allclose(exit_law_continuum(0.0, 1.2), 1 / 16,
                           rtol=0, atol=1e-15)

    def test_symmetric_about_u_bar(self):
        # about a bin centre (bins k and -k) and about a bin edge
        p = exit_law_continuum(1.5, 3 * math.pi / 8)  # centre of bin 3
        assert np.allclose(p[3 + np.arange(8)], p[3 - np.arange(8)],
                           rtol=0, atol=1e-15)
        p = exit_law_continuum(1.5, math.pi / 16)  # edge of bins 0 and 1
        assert np.allclose(p[1 + np.arange(8)], p[-np.arange(8)],
                           rtol=0, atol=1e-15)

    def test_quarter_turn_rolls_bins(self):
        for n_arcs in (16, 24):
            p = exit_law_continuum(1.0, 0.3, n_arcs=n_arcs)
            q = exit_law_continuum(1.0, 0.3 + math.pi / 2, n_arcs=n_arcs)
            assert np.allclose(np.roll(p, n_arcs // 4), q, rtol=0,
                               atol=1e-15)

    def test_sampler_binomial_per_bin(self):
        from scipy.stats import binomtest

        cases = ((0.0, 0.0), (1.0, 0.3), (3.0, math.pi / 2))
        n = 10**6
        alpha = 1e-4 / (len(cases) * 16)  # Bonferroni: family-wise 1e-4
        for seed, (M, u_bar) in enumerate(cases, start=40):
            counts, exited = exit_law_brownian(M, u_bar, 1 / 64, n, seed)
            assert counts.dtype == np.int64 and exited == n == counts.sum()
            p = exit_law_continuum(M, u_bar)
            for c, q in zip(counts, p):
                assert binomtest(int(c), n, q).pvalue > alpha

    def test_closed_form_against_euler_scheme(self):
        # drifted BM (drift 2M e^{iu}, unit diffusion) stepped by Euler from
        # the centre, independent of the library's exact draw
        M, u_bar, h, n = 1.0, 0.0, 1 / 64, 20000
        rng = np.random.default_rng(41)
        drift = 2 * M * complex(math.cos(u_bar), math.sin(u_bar)) * h * h
        pos = np.zeros(n, dtype=complex)
        arcs = []
        while pos.size:
            g = rng.standard_normal((pos.size, 2))
            new = pos + drift + h * (g[:, 0] + 1j * g[:, 1])
            out = np.abs(new) >= 1.0
            arcs.append(_arc_bin(
                _circle_crossing_angle(pos[out], new[out], 1.0), 16))
            pos = new[~out]
        counts = np.bincount(np.concatenate(arcs), minlength=16)
        assert counts.sum() == n
        assert total_variation(counts, exit_law_continuum(M, u_bar)) < 0.03


class TestConditionedBranch:
    def test_paths_simple_and_on_arc(self):
        paths, acc = conditioned_branch_sampler(
            1.0, 1 / 16, target_arc=0, n_accepted=50, seed=20, radius=0.5)
        assert 0 < acc <= 1
        s = SQRT2 / 16
        for p in paths:
            assert len(set(p)) == len(p)
            sites = [(round(z.real / s), round(z.imag / s)) for z in p]
            assert len(set(sites)) == len(sites)
            ang = float(_circle_crossing_angle(
                np.complex128(p[-2]), np.complex128(p[-1]), 0.5))
            assert int(_arc_bin(np.array([ang]), 16)[0]) == 0

    def test_critical_no_death(self):
        paths, acc = conditioned_branch_sampler(
            0.0, 1 / 16, target_arc=3, n_accepted=30, seed=21, radius=0.5)
        # at M = 0 the walk always exits; only off-arc exits are rejected
        assert acc > 1 / 40

    def test_paths_start_and_leave(self):
        M, d, radius = 1.0, 1 / 10, 0.3
        paths, acc = conditioned_branch_sampler(
            M, d, target_arc=0, n_accepted=500, seed=22, radius=radius)
        for p in paths[:200]:
            assert abs(p[0]) < SQRT2 * d
            assert abs(p[-1]) >= radius

    def test_acceptance_guard(self):
        with pytest.raises(RuntimeError):
            conditioned_branch_sampler(
                8.0, 1 / 8, target_arc=0, n_accepted=500, seed=23,
                radius=0.9, max_attempts=2000)


class TestApproximationProperty:
    def test_constant_reduces_to_mass_check(self):
        out = approximation_property_check(1.0, [2e-2, 1e-2, 5e-3])
        vals = [v for (_, v) in out["constant"]]
        for a, b in zip(vals, vals[1:]):
            assert 1 / 8 <= (b + 1e-9) / (a + 1e-9) <= 8

    def test_harmonic_polynomial(self):
        out = approximation_property_check(1.0, [2e-2, 1e-2, 5e-3])
        vals = [v for (_, v) in out["harmonic_poly"]]
        for a, b in zip(vals, vals[1:]):
            assert (b + 1e-6) / (a + 1e-6) <= 8

    def test_massive_exponential(self):
        out = approximation_property_check(1.0, [2e-2, 1e-2, 5e-3])
        vals = [v for (_, v) in out["massive_exp"]]
        for a, b in zip(vals, vals[1:]):
            assert 1 / 8 <= (b + 1e-6) / (a + 1e-6) <= 8

    def test_rhombic_grid_reads_each_edge_conductance(self):
        # on rhombic grids every incident edge carries its own conductance;
        # the expansion error must then shrink like on the square grid
        deltas = [2e-2, 1e-2, 5e-3]
        rhombic = approximation_property_check(1.0, deltas,
                                               grid_kind="rhombic")
        square = approximation_property_check(1.0, deltas)
        harm = [v for (_, v) in rhombic["harmonic_poly"]]
        for a, b in zip(harm, harm[1:]):
            assert b <= a
        for (_, r), (_, s) in zip(rhombic["massive_exp"],
                                  square["massive_exp"]):
            assert s / 2 <= r <= 2 * s

    def test_rhombic_grid(self):
        out = approximation_property_check(1.0, [2e-2, 1e-2],
                                           grid_kind="rhombic")
        for name, rows in out.items():
            vals = [v for (_, v) in rows]
            assert vals[1] <= 8 * max(vals[0], 1e-6) + 1e-6


class TestScalingAlias:
    def test_kernel_invariance(self):
        # running at (delta, M) on r*Omega equals (r*delta, M/r) on Omega:
        # the kernels coincide because q = M delta / 2 is shared
        r = 2.0
        k1 = SquareLatticeKernel(1.0, 1 / 32)
        k2 = SquareLatticeKernel(1.0 / r, r / 32)
        assert k1.p_die == pytest.approx(k2.p_die, rel=1e-12)
        assert np.allclose(k1.p_dirs, k2.p_dirs)
        assert k2.spacing == pytest.approx(r * k1.spacing)


class TestHeightStats:
    def test_centered_and_bounded(self):
        from massiveforests.nearcrit import height_field_stats
        quads, mean, var, dg = height_field_stats(
            0.0, 0.0, 1 / 8, block=3, n_samples=3000, seed=23)
        assert np.all(var >= -1e-12)
        assert np.max(np.abs(mean - mean.mean())) < 1.5

    def test_mass_variance_probe(self):
        from massiveforests.nearcrit import height_field_stats
        _, _, var0, _ = height_field_stats(0.0, 0.0, 1 / 8, block=3,
                                           n_samples=2000, seed=24)
        _, _, var2, _ = height_field_stats(4.0, 0.0, 1 / 8, block=3,
                                           n_samples=2000, seed=24)
        # reported diagnostic: average variance does not blow up with mass
        assert var2.mean() <= var0.mean() + 0.25
