import math
import warnings

import numpy as np
import pytest

from massiveforests import nearcrit
from massiveforests.nearcrit import (
    GUIDE_CELLS,
    JUMP_MAX,
    STEP_CAP,
    CrossingSpec,
    SquareLatticeKernel,
    _arc_bin,
    _Box,
    _circle_crossing_angle,
    _crossing_box,
    _disk_box,
    _outcome,
    _walk,
    approximation_property_check,
    conditioned_branch_sampler,
    crossing_grid,
    crossing_probability,
    exit_law_brownian,
    exit_law_continuum,
    exit_law_pair,
    exit_law_walk,
    girsanov_ratio_check,
    height_field_stats,
    lerw_ratio_check,
    total_variation,
)
from massiveforests.walks import rng_stream

SQRT2 = math.sqrt(2.0)


class _Block:
    """A coupled uniform block of width n: row `step` is drawn afresh on
    each read, so every run that reads it sees the same rows."""

    def __init__(self, n):
        self.n = n

    def __getitem__(self, step):
        return np.random.default_rng([11, step]).random(self.n)


def _one_step_walk(kernel, box, start, n, rng, max_steps, uniforms=None,
                   record=False):
    """The engine before jumps: one lattice step per walker and iteration,
    the residual split deciding death.  Returns (final, prev, died,
    truncated, paths), the reference for single-step runs of `_walk`."""
    cum = kernel.dir_cum
    lower = np.concatenate(([0.0], cum[:-1]))
    site = np.full(n, start, dtype=np.int32)
    ids, visits = np.arange(n), []
    final, prev, died = site.copy(), site.copy(), np.zeros(n, dtype=bool)
    for step in range(max_steps):
        if ids.size == 0:
            break
        u = rng.random(ids.size) if uniforms is None else \
            uniforms[step][ids]
        k = np.searchsorted(cum, u, side="right")
        new = site + box.moves[k]
        stop = box.stop[new]
        if kernel.p_die > 0:
            dead = (u - lower[k]) / (cum[k] - lower[k]) < kernel.p_die
            new[dead] = site[dead]
            stop |= dead
            died[ids[dead]] = True
        if record:
            visits.append((ids, new))
        if stop.any():
            final[ids[stop]], prev[ids[stop]] = new[stop], site[stop]
            ids, new = ids[~stop], new[~stop]
        site = new
    final[ids] = site
    paths = []
    if record and visits:
        who, where = (np.concatenate(v) for v in zip(*visits))
        ends = np.cumsum(np.bincount(who, minlength=n))[:-1]
        paths = np.split(where[np.argsort(who, kind="stable")], ends)
    return final, prev, died, int(ids.size), paths


def _jump_walk(kernel, box, start, n, rng, max_steps):
    """The jump engine with a plain binary search for every draw: table
    t = min(box.jump_index, floor(log2(steps left))), outcome
    min(searchsorted(cdf, u + t, 'right'), last[t]), walkers out of budget
    removed before the draw.  Returns (final, prev, died, steps,
    truncated), the reference for jump runs of `_walk`."""
    tab = kernel.tables(JUMP_MAX)
    offset = tab.dx * box.shape[1] + tab.dy
    site = np.full(n, start, dtype=np.int64)
    ids, taken = np.arange(n), np.zeros(n, np.int64)
    final, prev, died = site.copy(), site.copy(), np.zeros(n, dtype=bool)
    steps, truncated = np.zeros(n, np.int64), 0
    while True:
        left = max_steps - taken
        out = left <= 0
        final[ids[out]], steps[ids[out]] = site[out], taken[out]
        truncated += int(out.sum())
        ids, site, taken, left = (a[~out] for a in (ids, site, taken, left))
        if ids.size == 0:
            break
        # the longest jump 2**t <= left, as long as the site allows it
        t = np.minimum(box.jump_index[site].astype(np.int64),
                       np.floor(np.log2(left)).astype(np.int64))
        u = rng.random(ids.size)
        k = np.minimum(np.searchsorted(tab.cdf, u + t, side="right"),
                       tab.last[t])
        new = site + offset[k]
        taken = taken + tab.steps[k]
        stop = box.stop[new] | tab.dead[k]
        done = ids[stop]
        final[done], prev[done] = new[stop], site[stop]
        died[done], steps[done] = tab.dead[k][stop], taken[stop]
        ids, site, taken = ids[~stop], new[~stop], taken[~stop]
    return final, prev, died, steps, truncated


def _relaxed_jump_index(box):
    """`_Box.jump_index` by min-plus relaxation: JUMP_MAX rounds of
    d = min(d, 1 + min over the four neighbours), from 0 on the stop set and
    the array edge and JUMP_MAX + 1 elsewhere; the reference for the
    distance transform."""
    d = np.where(box.stop.reshape(box.shape), 0, JUMP_MAX + 1)
    d[[0, -1]] = 0
    d[:, [0, -1]] = 0
    for _ in range(JUMP_MAX):
        inner = d[1:-1, 1:-1]
        np.minimum(inner, np.minimum(
            np.minimum(d[:-2, 1:-1], d[2:, 1:-1]),
            np.minimum(d[1:-1, :-2], d[1:-1, 2:])) + 1, out=inner)
    return (np.frexp(np.maximum(d.ravel() - 1, 1))[1] - 1).astype(np.int8)


def _exact_walk_laws(kernel, box, start):
    """Exact laws of the walk from `start`, from one sparse solve on the
    window: expected visits g = V[start, .], the mean number of steps
    E[tau] = sum_x g(x), the death mass p_die sum_x g(x), and the mass
    g(x) p_dirs[j] of each exit edge x -> x + moves[j] with its
    (inside, outside) plane points."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    inside = np.flatnonzero(~box.stop)
    vertex = np.full(box.z.size, -1)
    vertex[inside] = np.arange(inside.size)
    nbr = inside[:, None] + box.moves
    a, j = np.nonzero(~box.stop[nbr])
    Q = sp.csr_matrix((kernel.p_dirs[j], (a, vertex[nbr[a, j]])),
                      shape=(inside.size,) * 2)
    e = np.zeros(inside.size)
    e[vertex[start]] = 1.0
    g = spsolve((sp.identity(inside.size) - Q).T.tocsc(), e)
    a, j = np.nonzero(box.stop[nbr])
    return (g.sum(), kernel.p_die * g.sum(), g[a] * kernel.p_dirs[j],
            box.z[inside[a]], box.z[nbr[a, j]])


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

    @pytest.mark.parametrize("delta", [0.0, -1 / 32, math.inf, math.nan])
    def test_mesh_must_be_finite_positive(self, delta):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            SquareLatticeKernel(1.0, delta)

    def test_drifted_kernel_skips_mass_quadrature(self, monkeypatch):
        killed = SquareLatticeKernel(1.0, 1 / 32)

        def no_quadrature(*args):
            raise AssertionError("m^2 quadrature of a drifted kernel")

        monkeypatch.setattr(nearcrit, "mass_value", no_quadrature)
        drifted = SquareLatticeKernel(1.0, 1 / 32, u_bar=0.3)
        assert drifted.m2 == 0.0 and killed.m2 > 0.0


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

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_below_one_refused_before_any_kernel(
            self, monkeypatch, n):
        def kernel(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(nearcrit, "SquareLatticeKernel", kernel)
        with pytest.raises(ValueError, match=rf"^n_samples = {n} must be "
                           r">= 1$"):
            crossing_probability(CrossingSpec(r=0.3), 0.3 / 16, 0.0, n, 3)
        with pytest.raises(ValueError, match=rf"^n_samples = {n} must be"):
            crossing_grid(radii=(0.3,), n_samples=n)

    def test_grid_past_task_range_refused_before_first_cell(self,
                                                            monkeypatch):
        def cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(nearcrit, "_crossing_cell", cell)
        # 1 radius x 2 orientations x 1 translation x 32769 masses
        masses = [0.0] * (2**15 + 1)
        with pytest.raises(ValueError, match=r"^cells = 65538 is past the "
                           r"limit 65536: .* 2\*\*16 task streams"):
            crossing_grid(radii=(0.3,), masses=masses, translations=(0j,))


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


class TestJumps:
    KERNELS = ((0.0, None), (1.0, None), (2.0, 0.7))

    def test_single_step_runs_match_one_step_loop(self):
        # record and coupled runs take one lattice step per iteration and
        # must reproduce the one-step loop bit for bit, truncation included
        for M, u_bar in self.KERNELS:
            kernel = SquareLatticeKernel(M, 1 / 24, u_bar=u_bar)
            box = _disk_box(kernel.spacing, 0.8)
            start = box.site(2, -1)
            for max_steps in (10**6, 40):
                runs = [
                    (dict(record=True), lambda: rng_stream(5, 1)),
                    (dict(uniforms=_Block(600)), lambda: None),
                    (dict(record=True, uniforms=_Block(600)), lambda: None),
                ]
                for opts, rng in runs:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        w = _walk(kernel, box, start, 600, rng(), max_steps,
                                  **opts)
                        ref = _one_step_walk(kernel, box, start, 600, rng(),
                                             max_steps, **opts)
                    assert np.array_equal(w.final, ref[0])
                    assert np.array_equal(w.prev, ref[1])
                    assert np.array_equal(w.died, ref[2])
                    assert w.truncated == ref[3]
                    assert len(w.paths) == len(ref[4])
                    for a, b in zip(w.paths, ref[4]):
                        assert np.array_equal(a, b)
                    if "record" in opts:
                        lengths = [len(p) for p in w.paths]
                        assert np.array_equal(w.steps, lengths)

    def test_jump_runs_match_binary_search_walk(self):
        # killed, drifted and M = 0 kernels on a disk whose centre jumps
        # JUMP_MAX steps and on a crossing box with its target ball, with
        # the step cap and with a budget of 37 steps, which cuts jumps
        spec = CrossingSpec(r=0.3, z=0.37 + 0.11j, horizontal=False)
        for seed, (M, u_bar) in enumerate(((1.0, None), (2.0, 0.7),
                                           (0.0, None)), start=70):
            disk = SquareLatticeKernel(M, 1 / 128, u_bar=u_bar)
            circle = _disk_box(disk.spacing, 1.0)
            centre = circle.site(0, 0)
            assert 2 ** circle.jump_index[centre] == JUMP_MAX
            rect = SquareLatticeKernel(M, spec.r / 32, u_bar=u_bar)
            crossing, target, ball = _crossing_box(spec, rect)
            for kernel, box, start in ((disk, circle, centre),
                                       (rect, crossing, ball)):
                for max_steps in (STEP_CAP, 37):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        w = _walk(kernel, box, start, 1500,
                                  rng_stream(seed, 0), max_steps)
                    ref = _jump_walk(kernel, box, start, 1500,
                                     rng_stream(seed, 0), max_steps)
                    assert np.array_equal(w.final, ref[0])
                    assert np.array_equal(w.prev, ref[1])
                    assert np.array_equal(w.died, ref[2])
                    assert np.array_equal(w.steps, ref[3])
                    assert w.truncated == ref[4]
                    assert (w.truncated > 0) == (max_steps == 37)
                    if box is crossing and max_steps == STEP_CAP:
                        assert np.any(~w.died & target[w.final])

    def test_table_zero_is_the_residual_split(self):
        # every table-0 boundary and its nextafter neighbours draw what the
        # searchsorted(dir_cum) step with the relative death test draws
        for M, d, u_bar in ((4.0, 1 / 8, None), (1.0, 1 / 32, None),
                            (0.0, 1 / 32, None), (1.0, 1 / 32, 0.4)):
            kernel = SquareLatticeKernel(M, d, u_bar=u_bar)
            tab = kernel.tables(JUMP_MAX)
            cum = kernel.dir_cum
            lower = np.concatenate(([0.0], cum[:-1]))
            b = tab.cdf[:8]
            u = np.concatenate((b, np.nextafter(b, 0), np.nextafter(b, 2)))
            u = u[(u >= 0) & (u < 1)]
            k = np.searchsorted(cum, u, side="right")
            dead = (u - lower[k]) / (cum[k] - lower[k]) < kernel.p_die
            i = np.searchsorted(tab.cdf, u, side="right")
            assert np.all(i <= tab.last[0])
            assert np.array_equal(tab.dead[i], dead)
            alive = ~dead
            moves = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)])
            assert np.array_equal(tab.dx[i][alive], moves[k[alive], 0])
            assert np.array_equal(tab.dy[i][alive], moves[k[alive], 1])

    def test_death_edges_equal_the_bisection(self, monkeypatch):
        # the p_die = 0 shortcut of `_death_edge` leaves every table of
        # killed, critical and drifted kernels as the bisection builds it
        def bisection(lo, hi, p_die):
            a, b = np.array([lo, hi], np.float64).view(np.int64)
            width = np.float64(hi) - np.float64(lo)
            while a < b:
                mid = a + (b - a) // 2
                u = np.int64(mid).view(np.float64)
                if (u - np.float64(lo)) / width >= p_die:
                    b = mid
                else:
                    a = mid + 1
            return float(np.int64(a).view(np.float64))

        for M, u_bar in self.KERNELS + ((1.0, 0.0),):
            kernel = SquareLatticeKernel(M, 1 / 32, u_bar=u_bar)
            got = nearcrit._jump_tables(kernel, JUMP_MAX)
            with monkeypatch.context() as m:
                m.setattr(nearcrit, "_death_edge", bisection)
                want = nearcrit._jump_tables(kernel, JUMP_MAX)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_tables_are_the_exact_s_step_laws(self):
        for M, u_bar in self.KERNELS + ((1.0, 0.0),):
            kernel = SquareLatticeKernel(M, 1 / 32, u_bar=u_bar)
            tab = kernel.tables(JUMP_MAX)
            first = np.concatenate(([0], tab.last[:-1] + 1))
            assert len(tab.last) == 7 and np.all(np.diff(tab.cdf) >= 0)
            for t, (a, b) in enumerate(zip(first, tab.last + 1)):
                S = 2**t
                prob = np.diff(np.concatenate(([t], tab.cdf[a:b])))
                assert abs(prob.sum() - 1) < 1e-12
                dead = tab.dead[a:b]
                assert abs(prob[dead].sum()
                           - (1 - (1 - kernel.p_die) ** S)) < 1e-12
                dx, dy = tab.dx[a:b][~dead], tab.dy[a:b][~dead]
                # S-step displacements: |dx| + |dy| <= S with parity S
                assert np.all(np.abs(dx) + np.abs(dy) <= S)
                assert np.all((dx + dy - S) % 2 == 0)
                assert np.all(tab.steps[a:b][~dead] == S)
                assert np.all((tab.steps[a:b][dead] >= 1)
                              & (tab.steps[a:b][dead] <= S))
                # the mean displacement of S steps is S times one step's
                mean = np.array([prob[~dead] @ dx, prob[~dead] @ dy])
                one = kernel.p_dirs @ np.array([(1, 0), (0, 1), (-1, 0),
                                                 (0, -1)])
                assert np.allclose(mean, (1 - kernel.p_die) ** (S - 1)
                                   * S * one, rtol=0, atol=1e-12)

    def test_guide_lookup_is_the_searchsorted_draw(self):
        # killed, drifted and M = 0 kernels, jump and single-step tables:
        # every CDF boundary and guide edge with its double neighbours,
        # u = 0, the largest double below 1 and 10**6 random uniforms
        rng = np.random.default_rng(21)
        for M, u_bar in ((1.0, None), (2.0, 0.7), (0.0, None)):
            kernel = SquareLatticeKernel(M, 1 / 64, u_bar=u_bar)
            for tab in (kernel.tables(JUMP_MAX), kernel.tables(1)):
                first = np.concatenate(([0], tab.last[:-1] + 1))
                us = [rng.random(10**6)]
                ts = [rng.integers(0, len(tab.last), 10**6)]
                for t, (a, b) in enumerate(zip(first, tab.last + 1)):
                    u = np.concatenate((tab.cdf[a:b] - t,
                                        np.arange(GUIDE_CELLS) / GUIDE_CELLS,
                                        [0.0, np.nextafter(1.0, 0.0)]))
                    u = np.concatenate((u, np.nextafter(u, -1),
                                        np.nextafter(u, 2)))
                    u = u[(u >= 0) & (u < 1)]
                    us.append(u)
                    ts.append(np.full(u.size, t))
                u, t = np.concatenate(us), np.concatenate(ts).astype(np.int8)
                ref = np.minimum(np.searchsorted(tab.cdf, u + t, side="right"),
                                 tab.last[t])
                assert np.array_equal(_outcome(tab, u, t), ref)

    def test_top_uniform_stays_in_its_table(self):
        # u + t may round up to t + 1; the draw must still come from table
        # t (its last outcome, an alive move), not from table t + 1, whose
        # first outcome is a death, nor past the last table
        class TopRng:
            def random(self, n):
                return np.full(n, 1 - 2.0**-53)

        kernel = SquareLatticeKernel(1.0, 1 / 128)
        box = _disk_box(kernel.spacing, 1.0)
        w = _walk(kernel, box, box.site(0, 0), 3, TopRng(), STEP_CAP)
        assert not w.died.any() and box.stop[w.final].all()

    def test_jumps_keep_the_step_budget(self):
        # the start is 90 sites from the boundary: uncut, its first jump
        # would take JUMP_MAX = 64 steps
        kernel = SquareLatticeKernel(1.0, 1 / 128)
        box = _disk_box(kernel.spacing, 1.0)
        assert 2 ** box.jump_index[box.site(0, 0)] == JUMP_MAX
        with pytest.warns(RuntimeWarning, match="after 37 steps"):
            w = _walk(kernel, box, box.site(0, 0), 2000,
                      np.random.default_rng(4), 37)
        assert w.steps.max() <= 37
        running = ~w.died & ~box.stop[w.final]
        assert w.truncated == running.sum() > 0
        assert np.all(w.steps[running] == 37)

    def test_jump_index_is_the_relaxed_distance(self):
        # disks at three meshes, crossing boxes with their target balls, a
        # strip narrower than 2 JUMP_MAX and a box with one interior stop
        spacing = SQRT2 / 128
        boxes = [_disk_box(SQRT2 * d, 1.0) for d in (1 / 8, 1 / 64, 1 / 128)]
        for z in (0j, 0.37 + 0.11j):
            for horizontal in (True, False):
                spec = CrossingSpec(r=0.3, z=z, horizontal=horizontal)
                box, target, _ = _crossing_box(
                    spec, SquareLatticeKernel(0.0, spec.r / 64))
                assert np.all(box.stop[target])
                boxes.append(box)
        strip = _Box(spacing, 0j, complex(2.0, 0.3),
                     lambda z: np.zeros(z.shape, bool))
        assert min(strip.shape) < 2 * JUMP_MAX < max(strip.shape)
        point = _Box(spacing, complex(-1, -1), complex(1, 1),
                     lambda z: np.abs(z - 0.2) < spacing / 2)
        assert point.stop.sum() == 1
        for box in boxes + [strip, point]:
            assert np.array_equal(box.jump_index, _relaxed_jump_index(box))
        assert point.jump_index.max() == 6 and strip.jump_index.max() < 6

    def test_short_tables_are_the_first_tables(self):
        # tables up to S < JUMP_MAX: the first log2(S) + 1 tables of the
        # JUMP_MAX set, entry for entry, guide cells included
        for M, u_bar in self.KERNELS:
            kernel = SquareLatticeKernel(M, 1 / 32, u_bar=u_bar)
            full = kernel.tables(JUMP_MAX)
            for S in (1, 2, 16, 32):
                tab = kernel.tables(S)
                T = int(math.log2(S)) + 1
                assert np.array_equal(tab.last, full.last[:T])
                n = tab.last[-1] + 1
                for name in ("cdf", "dx", "dy", "dead", "steps"):
                    a, b = getattr(tab, name), getattr(full, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b[:n])
                cells = T * (GUIDE_CELLS + 1)
                assert np.array_equal(tab.guide, full.guide[:cells])
                assert np.array_equal(tab.threshold,
                                      full.threshold[:cells - 1])

    def test_budget_cut_on_boxes_shorter_than_jump_max(self):
        # the bench's crossing box (longest jump 16) and exit disk (32):
        # the tables stop at the box's longest jump S and the budget cut
        # starts at 2 S, yet every budget draws what the reference draws
        rect = SquareLatticeKernel(1.0, 0.3 / 64)
        crossing, _, ball = _crossing_box(CrossingSpec(r=0.3), rect)
        disk = SquareLatticeKernel(1.0, 1 / 64, u_bar=0.0)
        circle = _disk_box(disk.spacing, 1.0)
        cases = ((rect, crossing, ball, 16),
                 (disk, circle, circle.site(0, 0), 32))
        for seed, (kernel, box, start, longest) in enumerate(cases, start=90):
            assert 2 ** box.jump_index.max() == longest
            for max_steps in (31, 32, 33, 64, 100, STEP_CAP):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    w = _walk(kernel, box, start, 1500, rng_stream(seed, 0),
                              max_steps)
                ref = _jump_walk(kernel, box, start, 1500,
                                 rng_stream(seed, 0), max_steps)
                assert np.array_equal(w.final, ref[0])
                assert np.array_equal(w.prev, ref[1])
                assert np.array_equal(w.died, ref[2])
                assert np.array_equal(w.steps, ref[3])
                assert w.truncated == ref[4]
                assert (w.truncated > 0) == (max_steps < STEP_CAP)

    def test_jumps_never_cross_the_stop_set(self):
        kernel = SquareLatticeKernel(1.0, 1 / 32, u_bar=0.3)
        box = _disk_box(kernel.spacing, 1.0)
        w = _walk(kernel, box, box.site(0, 0), 5000,
                  np.random.default_rng(6), STEP_CAP)
        assert w.truncated == 0 and not w.died.any()
        assert box.stop[w.final].all()
        assert np.isin(w.final - w.prev, box.moves).all()
        assert np.all(box.jump_index[box.stop] == 0)

    def test_mean_exit_time_matches_exact(self):
        # E[tau] = sum_x V[s, x] from one sparse solve; tau counts the step
        # a walker dies on, also inside a jump (M = 2 kills ~92% of them)
        for seed, (M, u_bar) in enumerate(((0.0, None), (2.0, None),
                                           (2.0, 0.7)), start=30):
            kernel = SquareLatticeKernel(M, 1 / 32, u_bar=u_bar)
            box = _disk_box(kernel.spacing, 1.0)
            start = box.site(0, 0)
            tau, death, *_ = _exact_walk_laws(kernel, box, start)
            n = 40000
            w = _walk(kernel, box, start, n, rng_stream(seed, 0), STEP_CAP)
            sd = w.steps.std()
            assert abs(w.steps.mean() - tau) <= 4.5 * sd / math.sqrt(n)
            assert abs(w.died.mean() - death) <= 4.5 * math.sqrt(
                max(death * (1 - death), 1e-12) / n)

    def test_exit_law_matches_exact_hitting_law(self):
        # exit-arc + death histogram against the exact hitting law, per bin
        # within exact binomial tails, family-wise alpha = 1e-4
        from scipy.stats import binomtest

        cases = ((0.0, 0.0), (1.0, 0.0), (1.0, None), (2.0, 0.7))
        n, delta = 100000, 1 / 32
        alpha = 1e-4 / (len(cases) * 17)
        for seed, (M, u_bar) in enumerate(cases, start=50):
            kernel = SquareLatticeKernel(M, delta, u_bar=u_bar)
            box = _disk_box(kernel.spacing, 1.0)
            _, death, mass, p, q = _exact_walk_laws(kernel, box,
                                                    box.site(0, 0))
            arcs = _arc_bin(_circle_crossing_angle(p, q, 1.0), 16)
            law = np.append(np.bincount(arcs, mass, minlength=16), death)
            assert abs(law.sum() - 1) < 1e-10
            counts, exited = exit_law_walk(
                M, 0.0 if u_bar is None else u_bar, delta, n, seed,
                drifted=u_bar is not None)
            hist = np.append(counts, n - exited)
            for c, q in zip(hist, law):
                if q < 1e-15:
                    assert c == 0
                else:
                    assert binomtest(int(c), n, min(q, 1.0)).pvalue > alpha


class TestSeededOutputs:
    """Small seeded runs pinned to recorded values: a change to how the
    engine turns uniforms into outcomes shows up here."""

    def test_crossing(self):
        for M, horizontal, hits in ((0.0, True, 166), (1.0, False, 118)):
            est, _ = crossing_probability(
                CrossingSpec(r=0.3, horizontal=horizontal), 0.3 / 16, M,
                20000, 3)
            assert est == hits / 20000

    def test_exit_law_drifted_and_killed(self):
        counts, n = exit_law_walk(1.0, 0.3, 1 / 32, 3000, 5)
        assert n == 3000 and counts.tolist() == [
            523, 551, 499, 293, 130, 76, 34, 23, 13, 15, 15, 26, 42, 102,
            247, 411]
        counts, n = exit_law_walk(2.0, 0.0, 1 / 32, 3000, 6, drifted=False)
        assert n == 277 and counts.tolist() == [
            16, 22, 20, 16, 15, 9, 19, 16, 16, 18, 16, 22, 19, 18, 16, 19]

    def test_conditioned_branch(self):
        paths, acc = conditioned_branch_sampler(1.0, 1 / 16, 0, 3, 7,
                                                radius=0.5)
        assert acc == 3 / 118
        step = SQRT2 / 16
        assert [[(round(z.real / step), round(z.imag / step)) for z in p]
                for p in paths] == [
            [(0, 0), (1, 0), (2, 0), (3, 0), (3, -1), (4, -1), (4, 0),
             (5, 0), (6, 0)],
            [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (2, -1), (3, -1),
             (3, 0), (3, 1), (4, 1), (5, 1), (6, 1)],
            [(0, 0), (1, 0), (2, 0), (3, 0), (3, -1), (4, -1), (5, -1),
             (6, -1)]]


    def test_height_field_stats(self):
        quads, mean, var, _ = height_field_stats(1.0, 0.5, 1 / 16, 3, 40, 3)
        assert len(quads) == 16
        assert (mean * 40).tolist() == [
            0, 13, 0, 28, 34, 20, 22, -9, 9, 0, 24, 23, 14, 21, 23, 20]
        assert var.tolist() == [
            0.0, 0.219375, 0.4, 0.21000000000000002, 0.3275000000000001,
            0.44999999999999996, 0.2475, 0.374375, 0.374375, 0.5,
            0.29000000000000004, 0.4443750000000001, 0.3775, 0.349375,
            0.3443750000000001, 0.30000000000000004]


class TestExitLaw:
    @pytest.mark.parametrize("n, refused", [
        (2**30 - 2**14, False),  # 65535 walk tasks and the Brownian one
        (2**30 - 2**14 + 1, True),
        (2**30 + 1, True),
    ])
    def test_pair_past_task_range_refused_before_any_leg(self, monkeypatch,
                                                         n, refused):
        legs = []

        def brownian(M, u_bar, n_samples, seed, task):
            legs.append(("brownian", task))
            return np.zeros(16, dtype=np.int64), n_samples

        def walk(M, u_bar, delta, n_samples, seed):
            legs.append(("walk", seed))
            return np.zeros(16, dtype=np.int64), n_samples

        monkeypatch.setattr(nearcrit, "_brownian_exits", brownian)
        monkeypatch.setattr(nearcrit, "exit_law_walk", walk)
        if refused:
            with pytest.raises(ValueError, match=rf"^n = {n} is past the "
                               r"limit 1073725440: "):
                exit_law_pair(1.0, 0.0, 1 / 64, n, 2**48 - 1)
            assert legs == []
        else:
            exit_law_pair(1.0, 0.0, 1 / 64, n, 2**48 - 1)
            assert legs == [("brownian", 2**16 - 1), ("walk", 2**48 - 1)]

    def test_walk_past_task_range_refused_before_first_walker(self,
                                                              monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("a walker ran")

        monkeypatch.setattr(nearcrit, "_walk", walk)
        with pytest.raises(ValueError, match=r"^n = 1073741825 is past the "
                           r"limit 1073741824: "):
            exit_law_walk(1.0, 0.0, 1 / 64, 2**30 + 1, 0)

    def test_negative_count_refused_before_any_kernel(self, monkeypatch):
        counts, exited = exit_law_walk(1.0, 0.0, 1 / 64, 0, 0)
        assert exited == 0 and counts.tolist() == [0] * 16

        def kernel(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(nearcrit, "SquareLatticeKernel", kernel)
        with pytest.raises(ValueError, match=r"^n_samples = -3 must be "
                           r">= 0$"):
            exit_law_walk(1.0, 0.0, 1 / 64, -3, 0)

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


def exact_exit_law(M, u_bar, delta, radius=1.0, n_arcs=16):
    """(killed, drifted) exit-arc masses of the walk from the disk centre,
    exact at mesh delta: one potential column of the killed window.

    The killed walk from s leaves through the step x -> y with probability
    V(s, x) c_xy / c^k(x) = V(x, s) c_xy / c^k(s) (the Green function
    V / c^k is symmetric); the drifted walk is its Doob transform by the
    discrete exponential, which multiplies each exit by e(z_y - z_s).
    """
    from massiveforests.linalg import _potential_columns

    killed = SquareLatticeKernel(M, delta)
    drifted = SquareLatticeKernel(M, delta, u_bar=u_bar)
    box = _disk_box(killed.spacing, radius)
    g, vertex = nearcrit._window_graph(killed, box)
    start = box.nearest(0j)
    s = vertex[start]
    V = _potential_columns(g, [s]).V[:, 0]
    inside = np.flatnonzero(~box.stop)
    x, k = np.nonzero(box.stop[inside[:, None] + box.moves])
    y = inside[x] + box.moves[k]
    p = V[x] / g.ck_f[s] * killed.cond[k]
    tilt = np.array([drifted.exponential(z, u_bar)
                     for z in box.z[y] - box.z[start]])
    arcs = _arc_bin(_circle_crossing_angle(box.z[inside[x]], box.z[y],
                                           radius), n_arcs)
    return (np.bincount(arcs, p, n_arcs),
            np.bincount(arcs, p * tilt, n_arcs))


class TestExactExitLaw:
    # the exact finite-delta exit law at M = 1, u_bar = 0.3, delta = 1/16
    M, U, DELTA, N = 1.0, 0.3, 1 / 16, 200_000
    # one family level for the 2 x 16 two-sided arc tests (Bonferroni),
    # fixed with the seeds before the first run
    ALPHA = 1e-3

    @pytest.fixture(scope="class")
    def oracle(self):
        return exact_exit_law(self.M, self.U, self.DELTA)

    def test_tilted_mass_is_one(self, oracle):
        killed, drifted = oracle
        assert abs(drifted.sum() - 1.0) <= 1e-10
        # survival from the centre, below 1 by the killing; 1/I_0(2) =
        # 0.4387 is its continuum limit
        assert 0.40 < killed.sum() < 0.44

    @pytest.mark.parametrize("drifted, seed", [(False, 3701), (True, 3702)],
                             ids=["killed", "drifted"])
    def test_walk_arcs_within_binomial_tails(self, oracle, drifted, seed):
        from scipy.stats import binom

        p = oracle[drifted]
        counts, exited = exit_law_walk(self.M, self.U, self.DELTA, self.N,
                                       seed, drifted=drifted)
        assert exited == counts.sum()
        # two-sided exact binomial p-value of each arc count
        tails = 2 * np.minimum(binom.cdf(counts, self.N, p),
                               binom.sf(counts - 1, self.N, p))
        assert np.all(tails >= self.ALPHA / (2 * len(p))), tails


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

    @pytest.mark.parametrize("arc", [-1, 16, 99])
    def test_target_arc_out_of_range(self, monkeypatch, arc):
        def no_walk(*args, **kwargs):
            raise AssertionError("a walker ran")

        monkeypatch.setattr(nearcrit, "_walk", no_walk)
        with pytest.raises(ValueError, match="target_arc"):
            conditioned_branch_sampler(
                1.0, 1 / 16, target_arc=arc, n_accepted=5, seed=7,
                radius=0.5)

    def test_attempts_capped_at_task_streams(self, monkeypatch):
        # walkers that all die at the start are never accepted; the default
        # budget of n / 1e-4 attempts would need more than the 2**16 task
        # streams of 2048 walkers, so the run ends on the acceptance rate
        streams = []

        def walk(kernel, box, start, n, rng, *args, **kwargs):
            streams.append(rng)
            sites = np.full(n, start)
            return nearcrit._Walkers(sites, sites, np.ones(n, bool),
                                     np.ones(n, np.int64), 0, [])

        monkeypatch.setattr(nearcrit, "_walk", walk)
        with pytest.raises(RuntimeError, match="^acceptance rate 0.00e"):
            conditioned_branch_sampler(1.0, 1 / 8, target_arc=0,
                                       n_accepted=10**6, seed=2**48 - 1,
                                       radius=0.3)
        assert len(streams) == 2**16

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
