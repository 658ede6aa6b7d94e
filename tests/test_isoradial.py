import math
from collections import deque

import numpy as np
import pytest

from massiveforests.doob import check_massive_harmonic
from massiveforests.elliptic import (
    complete_integrals,
    exponential_edge_factor,
    exponential_step_factor,
    mass_term,
    mass_value,
    mass_value_via_exponential,
    near_critical_modulus,
    sc,
)
from massiveforests.graphs import WeightedGraph
from massiveforests.isoradial import (
    build_rhombic_grid,
    build_square_grid,
    discrete_exponential,
    drift_field_and_conductances,
    drift_field_from_rays,
    random_rhombic_angles,
    z_invariant_weights,
)
from massiveforests.io import grid_to_graph, load_graph, save_graph


def lazy_walk_graph(grid, modulus):
    """Z-invariant graph with per-vertex holding loops.

    The loop conductance at x is ((T(x) - T)/T) * sum_y sc(theta_xy|k) where
    T(x) = sum sin(2 theta bar)/sum tan(theta bar) and T is its minimum over
    the grid; jump-time trajectories of the lazy killed walk have the law of
    the plain killed walk.
    """
    g = z_invariant_weights(grid, modulus)
    tb = grid.half_angles
    T_x = grid.incident_sums(np.sin(2 * tb)) / grid.incident_sums(np.tan(tb))
    T = float(T_x.min())
    if T <= 0:
        raise ValueError("nonpositive speed floor; bounded-angle violated")
    loop = (T_x - T) / T * g.c_f
    looped = np.flatnonzero(loop > 0)
    lazy = WeightedGraph(g.n, (np.r_[g.tail, looped], np.r_[g.head, looped],
                               np.r_[g.cond_f, loop[looped]]),
                         g.masses_f, positions=g.positions, check=False)
    # the loop's share of each vertex's total conductance, loop included
    holding = np.where(loop > 0, loop, 0.0) / lazy.c_f
    return lazy, holding


def drifted_conductance_asymptotic(grid, eid, M, u_bar):
    """(1+2Md) tan(tb) (1 + 4Md cos(tb) cos(u - (a+b)/2)), the d -> 0 form."""
    d = grid.delta
    a, b = grid.edge_alpha[eid], grid.edge_beta[eid]
    tb = 0.5 * (b - a)
    return (1 + 2 * M * d) * math.tan(tb) * (
        1 + 4 * M * d * math.cos(tb) * math.cos(u_bar - 0.5 * (a + b)))


class TestGridGeometry:
    def test_square_grid_decomposition(self):
        g = build_square_grid(1.0, 6)
        for eid in range(g.m_edges):
            x, y = g.edge_tail[eid], g.edge_head[eid]
            a, b = g.edge_alpha[eid], g.edge_beta[eid]
            disp = g.positions[y] - g.positions[x]
            pred = np.array([math.cos(a) + math.cos(b),
                             math.sin(a) + math.sin(b)])
            assert np.allclose(disp, g.delta * pred, atol=1e-12)
            assert abs((b - a) - math.pi / 2) < 1e-12

    def test_one_rhombus(self):
        g = build_rhombic_grid(1.0, [0.2], [1.9])
        assert g.n == 2 and g.m_edges == 1

    def test_random_rhombic_invariants(self):
        rng = np.random.default_rng(5)
        phis, psis = random_rhombic_angles(rng, 32)
        g = build_rhombic_grid(0.5, phis, psis)
        assert g.m_edges >= 1000
        for eid in range(g.m_edges):
            x, y = g.edge_tail[eid], g.edge_head[eid]
            a, b = g.edge_alpha[eid], g.edge_beta[eid]
            tb = g.half_angle(eid)
            assert 0 < tb < math.pi / 2
            disp = g.positions[y] - g.positions[x]
            pred = g.delta * np.array([math.cos(a) + math.cos(b),
                                       math.sin(a) + math.sin(b)])
            assert np.allclose(disp, pred, atol=1e-12 * max(1.0, g.delta))

    def test_degenerate_angle_rejected(self):
        with pytest.raises(ValueError):
            build_rhombic_grid(1.0, [0.0], [0.0])

    def test_bulk_detection(self):
        g = build_square_grid(1.0, 6)
        bulk = g.bulk_vertices()
        assert len(bulk) > 0
        for x in bulk:
            assert len(g.edges_at(x)) == 4


def _loop_reference(delta, phis, psis, modulus, u_bar):
    """A grid built one corner and one lozenge at a time, with every
    per-vertex quantity (fan, mass, lazy-walk speed and holding fraction)
    summed over the vertex's edges in edge order."""
    I, J = len(phis), len(psis)
    ids, pos = {}, ([], [])
    for i in range(I + 1):
        for j in range(J + 1):
            x = sum(math.cos(a) for a in phis[:i]) + \
                sum(math.cos(b) for b in psis[:j])
            y = sum(math.sin(a) for a in phis[:i]) + \
                sum(math.sin(b) for b in psis[:j])
            side = pos[(i + j) % 2]
            ids[(i, j)] = len(side)
            side.append((delta * x, delta * y))
    n = len(pos[0])
    tail, head, alpha, beta, duals = [], [], [], [], []
    edges_at = [[] for _ in range(n)]
    for i in range(I):
        for j in range(J):
            phi, psi = phis[i], psis[j]
            if (i + j) % 2 == 0:
                x, y = ids[(i, j)], ids[(i + 1, j + 1)]
                a, b = phi, psi
                d = (ids[(i + 1, j)], ids[(i, j + 1)])
            else:
                x, y = ids[(i + 1, j)], ids[(i, j + 1)]
                a, b = psi, phi + math.pi
                d = (ids[(i, j)], ids[(i + 1, j + 1)])
            gap = (b - a) % (2 * math.pi)
            if not 0 < gap < math.pi:
                a, gap = b, (a - b) % (2 * math.pi)
            edges_at[x].append(len(tail))
            edges_at[y].append(len(tail))
            tail.append(x)
            head.append(y)
            alpha.append(a)
            beta.append(a + gap)
            duals.append(d)
    half = [0.5 * (b - a) for a, b in zip(alpha, beta)]
    terms = mass_term(np.array(half), modulus).tolist()
    conds = sc(modulus.abstract_angle(np.array(half)), modulus).tolist()
    speed = [sum(np.sin(2 * half[e]) for e in es) /
             sum(np.tan(half[e]) for e in es) for es in edges_at]
    loops = [(T_x - min(speed)) / min(speed) * sum(conds[e] for e in es)
             for T_x, es in zip(speed, edges_at)]
    holding = [(l if l > 0 else 0.0) / (sum(conds[e] for e in es)
                                       + (l if l > 0 else 0))
               for l, es in zip(loops, edges_at)]
    pre_phi = np.cumprod([1.0] + [exponential_step_factor(a, u_bar, modulus)
                                  for a in phis])
    pre_psi = np.cumprod([1.0] + [exponential_step_factor(b, u_bar, modulus)
                                  for b in psis])
    raw = ([], [])
    for (i, j) in ids:
        raw[(i + j) % 2].append(pre_phi[i] * pre_psi[j])
    positions = np.array(pos[0])
    x0 = int(np.lexsort((positions[:, 1], positions[:, 0]))[0])
    return {
        "positions": positions, "dual_positions": np.array(pos[1]),
        "edge_tail": tail, "edge_head": head, "edge_alpha": alpha,
        "edge_beta": beta, "edge_duals": duals, "edges_at": edges_at,
        "edges": [e for x, y, c in zip(tail, head, conds)
                  for e in ((x, y, c), (y, x, c))],
        "bulk": [x for x in range(n)
                 if abs(sum(half[e] for e in edges_at[x]) - math.pi) < 1e-9],
        "masses": [sum(terms[e] for e in edges_at[x]) for x in range(n)],
        "holding": holding,
        "primal": np.array(raw[0]) / raw[0][x0],
        "dual": raw[0][x0] / np.array(raw[1]),
    }


def _reference_grids():
    """(delta, phis, psis): square, three seeded rhombic, one with I != J."""
    grids = [(0.05, [-math.pi / 4] * 20, [math.pi / 4] * 20)]
    for seed, size, delta in ((0, 10, 0.1), (1, 17, 0.015625),
                              (2, 24, 0.05)):
        grids.append((delta, *random_rhombic_angles(
            np.random.default_rng(seed), size)))
    phis, _ = random_rhombic_angles(np.random.default_rng(3), 7)
    _, psis = random_rhombic_angles(np.random.default_rng(4), 12)
    return grids + [(0.125, phis, psis)]


@pytest.mark.parametrize("delta, phis, psis", _reference_grids(),
                         ids=["square", "rhombic-0", "rhombic-1",
                              "rhombic-2", "7x12"])
def test_grid_equals_loop_reference(delta, phis, psis):
    mod = near_critical_modulus(1.0, delta)
    u_bar = 0.7
    ref = _loop_reference(delta, phis, psis, mod, u_bar)
    grid = build_rhombic_grid(delta, phis, psis)
    for name in ("positions", "dual_positions", "edge_tail", "edge_head",
                 "edge_alpha", "edge_beta", "edge_duals"):
        assert np.array_equal(getattr(grid, name), ref[name]), name
    assert all(list(grid.edges_at(x)) == es
               for x, es in enumerate(ref["edges_at"]))
    assert all(grid.rays(e, y) == (a + math.pi, b + math.pi)
               for e, (y, a, b) in enumerate(zip(
                   ref["edge_head"], ref["edge_alpha"], ref["edge_beta"])))
    assert grid.bulk_vertices() == ref["bulk"]
    wg = z_invariant_weights(grid, mod)
    assert list(zip(wg.tail.tolist(), wg.head.tolist(), wg.cond.tolist())) \
        == ref["edges"]
    assert wg.masses.tolist() == ref["masses"]
    assert wg.cond.dtype == wg.masses.dtype == np.float64
    assert {type(v) for v in wg.cond.tolist() + wg.masses.tolist()} \
        == {float}
    assert np.array_equal(wg.positions, ref["positions"])
    assert lazy_walk_graph(grid, mod)[1].tolist() == ref["holding"]
    field = discrete_exponential(grid, mod, u_bar)
    assert np.array_equal(field.primal, ref["primal"])
    assert np.array_equal(field.dual, ref["dual"])


class TestZInvariantWeights:
    def test_critical_conductances_are_tan(self):
        g = build_square_grid(1.0, 4)
        wg = z_invariant_weights(g, complete_integrals(0.0))
        for eid in range(wg.m_edges):
            assert wg.cond[eid] == pytest.approx(1.0, abs=1e-14)
        assert all(m == 0 for m in wg.masses)

    def test_near_critical_conductance_expansion(self):
        M, d = 1.0, 1e-3
        mod = near_critical_modulus(M, d)
        g = build_square_grid(d, 4)
        wg = z_invariant_weights(g, mod)
        for eid in range(wg.m_edges):
            assert abs(wg.cond[eid] - (1 + 2 * M * d)) < 20 * d**2

    def test_mass_star_equals_quadrature(self):
        rng = np.random.default_rng(8)
        phis, psis = random_rhombic_angles(rng, 6)
        grid = build_rhombic_grid(1e-2, phis, psis)
        mod = near_critical_modulus(1.0, 1e-2)
        for x in grid.bulk_vertices():
            quad = mass_value([grid.half_angle(e) for e in grid.edges_at(x)],
                              mod)
            star = [grid.rays(e, x) for e in grid.edges_at(x)]
            assert abs(quad - mass_value_via_exponential(star, mod)) < 1e-9

    @pytest.mark.parametrize("size", [9, 12, 64])
    def test_rhombic_masses_are_quadrature_sums(self, size):
        # past 64 distinct half-angles, boundary vertices keep their
        # incomplete-star sum of mass terms, which is never negative
        phis, psis = random_rhombic_angles(np.random.default_rng(0), size)
        grid = build_rhombic_grid(0.1, phis, psis)
        mod = near_critical_modulus(1.0, 0.1)
        distinct = {round(grid.half_angle(e), 14)
                    for e in range(grid.m_edges)}
        assert len(distinct) > 64
        masses = z_invariant_weights(grid, mod).masses
        terms = {}
        for x in range(grid.n):
            angles = [grid.half_angle(e) for e in grid.edges_at(x)]
            for tb in angles:
                if tb not in terms:
                    terms[tb] = mass_value([tb], mod)
            assert masses[x] == sum(terms[tb] for tb in angles)
            assert masses[x] >= 0

    def test_mass_asymptotic_rate(self):
        # |m^2 - 2 M^2 d^2 sum sin(2 tb)| / d^3 bounded across halvings
        M = 1.0
        for grid_kind in ("square", "rhombic"):
            ratios = []
            for d in (2e-2, 1e-2, 5e-3):
                mod = near_critical_modulus(M, d)
                if grid_kind == "square":
                    grid = build_square_grid(d, 6)
                else:
                    rng = np.random.default_rng(3)
                    phis, psis = random_rhombic_angles(rng, 6)
                    grid = build_rhombic_grid(d, phis, psis)
                wg = z_invariant_weights(grid, mod)
                x = grid.bulk_vertices()[0]
                pred = 2 * M**2 * d**2 * sum(
                    math.sin(2 * grid.half_angle(e))
                    for e in grid.edges_at(x))
                ratios.append(abs(wg.masses[x] - pred) / d**3)
            for a, b in zip(ratios, ratios[1:]):
                assert 1 / 8 <= (b + 1e-9) / (a + 1e-9) <= 8


class TestExponentialField:
    def test_critical_degeneration(self):
        g = build_square_grid(1.0, 4)
        field = discrete_exponential(g, complete_integrals(0.0), 0.7)
        assert np.allclose(field.primal, 1.0)

    def test_positivity(self):
        rng = np.random.default_rng(9)
        phis, psis = random_rhombic_angles(rng, 10)
        g = build_rhombic_grid(0.3, phis, psis)
        mod = complete_integrals(0.5)
        for u_bar in (0.0, 1.0, 2.7, 4.4, 6.0):
            field = discrete_exponential(g, mod, u_bar)
            assert np.all(field.primal > 0)
            assert np.all(field.dual > 0)

    def test_base_point_normalization(self):
        g = build_square_grid(0.1, 6)
        mod = complete_integrals(0.3)
        field = discrete_exponential(g, mod, 1.2)
        assert field.primal[field.x0] == pytest.approx(1.0)

    def test_face_path_independence(self):
        # reverse edge factor is the reciprocal: products around any cycle
        # of lozenge sides are exactly 1; check via the two routes between
        # opposite corners of each lozenge pair sharing a dual vertex
        rng = np.random.default_rng(10)
        phis, psis = random_rhombic_angles(rng, 8)
        g = build_rhombic_grid(0.5, phis, psis)
        mod = complete_integrals(0.6)
        field = discrete_exponential(g, mod, 0.9)
        for eid in range(g.m_edges):
            x, y = g.edge_tail[eid], g.edge_head[eid]
            assert field.primal[y] / field.primal[x] == pytest.approx(
                field.edge_factor(eid), rel=1e-12)

    def test_near_critical_exponential_form(self):
        M, d = 1.0, 1e-3
        mod = near_critical_modulus(M, d)
        g = build_square_grid(d, 8)
        u_bar = 0.4
        field = discrete_exponential(g, mod, u_bar)
        drift = np.array([math.cos(u_bar), math.sin(u_bar)])
        x0 = field.x0
        for x in range(g.n):
            disp = g.positions[x] - g.positions[x0]
            target = math.exp(2 * M * float(drift @ disp))
            dist = np.linalg.norm(disp)
            assert abs(field.primal[x] - target) <= 200 * d**2 * (dist + d) \
                + 1e-12


class TestDriftField:
    def test_massive_harmonicity_32_window(self):
        M, d = 1.0, 1e-2
        mod = near_critical_modulus(M, d)
        grid = build_square_grid(d, 36)
        ambient = z_invariant_weights(grid, mod)
        for u_bar in (0.0, 1.1, 2.9, 4.2, 5.8):
            field = discrete_exponential(grid, mod, u_bar)
            lam = {x: field.primal[x] for x in range(grid.n)}
            resid = check_massive_harmonic(ambient, lam,
                                           grid.bulk_vertices())
            assert resid <= 1e-10

    def test_zero_mass_parameter_is_identity(self):
        grid = build_square_grid(0.05, 6)
        mod = complete_integrals(0.0)
        field, tilde = drift_field_and_conductances(grid, mod, 2.2)
        base = z_invariant_weights(grid, mod)
        assert np.allclose(tilde.cond_f, base.cond_f)

    def test_square_lattice_drift_weights(self):
        # horizontal neighbours 1 +- 2 sqrt(2) M d cos(u), vertical with sin
        M, d = 1.0, 1e-3
        mod = near_critical_modulus(M, d)
        grid = build_square_grid(d, 8)
        u_bar = 0.8
        field, tilde = drift_field_and_conductances(grid, mod, u_bar)
        global_factor = 1 + 2 * M * d
        for eid in range(grid.m_edges):
            x, y = grid.edge_tail[eid], grid.edge_head[eid]
            disp = grid.positions[y] - grid.positions[x]
            c = tilde.edge_conductance(x, y) / global_factor
            if abs(disp[1]) < 1e-12:  # horizontal
                sign = 1.0 if disp[0] > 0 else -1.0
                pred = 1 + sign * 2 * math.sqrt(2) * M * d * math.cos(u_bar)
            else:
                sign = 1.0 if disp[1] > 0 else -1.0
                pred = 1 + sign * 2 * math.sqrt(2) * M * d * math.sin(u_bar)
            assert abs(c - pred) < 100 * d**2

    def test_asymptotic_formula_all_edges(self):
        M, d = 0.7, 1e-3
        mod = near_critical_modulus(M, d)
        rng = np.random.default_rng(11)
        phis, psis = random_rhombic_angles(rng, 6)
        grid = build_rhombic_grid(d, phis, psis)
        u_bar = 2.3
        field, tilde = drift_field_and_conductances(grid, mod, u_bar)
        for eid in range(grid.m_edges):
            x, y = grid.edge_tail[eid], grid.edge_head[eid]
            c = tilde.edge_conductance(x, y)
            pred = drifted_conductance_asymptotic(grid, eid, M, u_bar)
            assert abs(c - pred) < 300 * d**2

    def test_refuses_ambient_of_other_modulus(self):
        grid = build_square_grid(0.05, 8)
        mod = near_critical_modulus(1.0, 0.05)
        other = z_invariant_weights(grid, near_critical_modulus(2.0, 0.05))
        with pytest.raises(ValueError, match="residual"):
            drift_field_and_conductances(grid, mod, 0.8, ambient=other)


def _grid_and_file_graph(kind, M=1.0, d=0.05):
    """(grid, modulus, graph with `edge_rays`) as a grid file loads."""
    if kind == "square":
        grid = build_square_grid(d, 10)
    else:
        phis, psis = random_rhombic_angles(np.random.default_rng(4), 10)
        grid = build_rhombic_grid(d, phis, psis)
    mod = near_critical_modulus(M, d)
    g, rays = grid_to_graph(grid, mod)
    g.edge_rays = rays
    return grid, mod, g


class TestDriftFieldFromRays:
    @pytest.mark.parametrize("kind", ["square", "rhombic"])
    def test_bulk_matches_grid(self, kind, tmp_path):
        # one fan rule: the graph and the grid file it saves to give the
        # grid's bulk
        grid, mod, g = _grid_and_file_graph(kind)
        path = str(tmp_path / "grid.json")
        save_graph(path, g, rays=g.edge_rays)
        for h in (g, load_graph(path)):
            bulk, _ = drift_field_from_rays(h, mod, 0.9)
            assert bulk == grid.bulk_vertices()

    @pytest.mark.parametrize("kind", ["square", "rhombic"])
    def test_ratios_match_exponential_field(self, kind):
        grid, mod, g = _grid_and_file_graph(kind)
        u_bar = 0.9
        _, lam = drift_field_from_rays(g, mod, u_bar)
        primal = discrete_exponential(grid, mod, u_bar).primal
        assert set(lam) == set(range(grid.n))
        for eid in range(g.m_edges):
            x, y = int(g.tail[eid]), int(g.head[eid])
            want = primal[y] / primal[x]
            assert abs(lam[y] / lam[x] - want) <= 1e-12 * want

    @pytest.mark.parametrize("kind", ["square", "rhombic"])
    def test_equal_to_per_edge_factors(self, kind):
        # one step factor per distinct ray angle gives the lambda of one
        # scalar exponential_edge_factor per tree edge, bit for bit: the
        # breadth-first tree over the out-edges, in its order, each
        # vertex's value its parent's times the factor of its tree edge
        _, mod, g = _grid_and_file_graph(kind)
        u_bar = 0.9
        bulk, lam = drift_field_from_rays(g, mod, u_bar)
        want, queue = {bulk[0]: 1.0}, deque([bulk[0]])
        while queue:
            x = queue.popleft()
            for eid in g.out_order[g.out_ptr[x]:g.out_ptr[x + 1]]:
                y = int(g.head[eid])
                if y not in want:
                    a, b = g.edge_rays[eid]
                    want[y] = want[x] * exponential_edge_factor(a, b, u_bar,
                                                                mod)
                    queue.append(y)
        assert list(lam.items()) == list(want.items())

    @pytest.mark.parametrize("kind", ["square", "rhombic"])
    def test_depth_first_product_agrees(self, kind):
        # lambda does not depend on the tree: the depth-first product,
        # multiplied from bulk[0] down, agrees to within rounding
        _, mod, g = _grid_and_file_graph(kind)
        u_bar = 0.9
        bulk, lam = drift_field_from_rays(g, mod, u_bar)
        want, stack = {bulk[0]: 1.0}, [bulk[0]]
        while stack:
            x = stack.pop()
            for eid in g.out_order[g.out_ptr[x]:g.out_ptr[x + 1]]:
                y = int(g.head[eid])
                if y not in want:
                    a, b = g.edge_rays[eid]
                    want[y] = want[x] * exponential_edge_factor(a, b, u_bar,
                                                                mod)
                    stack.append(y)
        assert set(lam) == set(want)
        assert max(abs(lam[v] / want[v] - 1) for v in want) <= 1e-14

    def test_refuses_other_modulus(self):
        _, _, g = _grid_and_file_graph("square")
        with pytest.raises(ValueError, match="residual"):
            drift_field_from_rays(g, near_critical_modulus(2.0, 0.05), 0.9)


class TestLazyWalk:
    def test_square_lattice_no_laziness(self):
        grid = build_square_grid(0.1, 6)
        mod = near_critical_modulus(1.0, 0.1)
        lazy, holding = lazy_walk_graph(grid, mod)
        assert np.allclose(holding, 0.0)

    def test_holding_in_range(self):
        rng = np.random.default_rng(12)
        phis, psis = random_rhombic_angles(rng, 8)
        grid = build_rhombic_grid(0.1, phis, psis)
        mod = near_critical_modulus(1.0, 0.1)
        lazy, holding = lazy_walk_graph(grid, mod)
        assert np.all(holding >= 0.0) and np.all(holding < 1.0)
        assert np.any(holding > 0.0)

    def test_jump_law_matches_plain_walk(self):
        from massiveforests.walks import TransitionTable, rng_stream
        rng0 = np.random.default_rng(13)
        phis, psis = random_rhombic_angles(rng0, 4)
        grid = build_rhombic_grid(0.3, phis, psis)
        mod = complete_integrals(0.4)
        plain = z_invariant_weights(grid, mod)
        lazy, _ = lazy_walk_graph(grid, mod)
        x = grid.bulk_vertices()[0]
        t_plain = TransitionTable(plain)
        t_lazy = TransitionTable(lazy)
        rng = rng_stream(99)
        n = 30000
        counts_plain, counts_lazy = {}, {}
        for _ in range(n):
            y_plain = t_plain.step(x, rng.random())
            counts_plain[y_plain] = counts_plain.get(y_plain, 0) + 1
            # lazy walk observed at jump times: redraw until it moves
            y = x
            while y == x:
                y = t_lazy.step(x, rng.random())
            counts_lazy[y] = counts_lazy.get(y, 0) + 1
        for y in counts_plain:
            p = counts_plain[y] / n
            q = counts_lazy.get(y, 0) / n
            sigma = math.sqrt(2 * max(p * (1 - p), 1e-9) / n)
            assert abs(p - q) < 5 * sigma
