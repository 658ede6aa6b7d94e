from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massiveforests.graphs import ROOT, WeightedGraph
from massiveforests.linalg import edge_probability
from massiveforests.walks import (
    TransitionTable,
    WalkState,
    coupled_pair_step,
    lerw_exact_probability,
    loop_erase,
    rng_stream,
    sample_trajectory,
    step_killed,
    wilson_edge_marginals,
    wilson_sample,
)

from test_graphs import grid_graph, path_ab, random_rational_graph


class TestStepKilled:
    def test_isolated_vertex_dies(self):
        g = WeightedGraph(1, [], [Fraction(3)])
        table = TransitionTable(g)
        state = step_killed(table, WalkState(0), rng_stream(1))
        assert state.absorbed

    def test_path_transition_row(self):
        g = path_ab()
        table = TransitionTable(g)
        rng = rng_stream(2)
        hits = {1: 0, ROOT: 0}
        n = 40000
        for _ in range(n):
            hits[step_killed(table, WalkState(0), rng).vertex] += 1
        for target in (1, ROOT):
            p = hits[target] / n
            assert abs(p - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_no_mass_never_absorbs(self):
        g = path_ab(m=Fraction(0))
        table = TransitionTable(g)
        rng = rng_stream(3)
        state = WalkState(0)
        for _ in range(500):
            state = step_killed(table, state, rng)
            assert not state.absorbed


class TestLoopErase:
    def test_simple_return(self):
        assert loop_erase(["a", "b", "a", "c"]) == ["a", "c"]

    def test_identity_on_simple(self):
        assert loop_erase([0, 1, 2, 3]) == [0, 1, 2, 3]

    def test_hand_example(self):
        assert loop_erase(["a", "b", "c", "b", "d", "a", "e"]) == ["a", "e"]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_simple(self, path):
        le = loop_erase(path)
        assert len(set(le)) == len(le)
        assert loop_erase(le) == le
        assert le[0] == path[0] and le[-1] == path[-1]


class TestWilson:
    def test_single_vertex_empty_forest(self):
        g = WeightedGraph(1, [], [Fraction(2)])
        forest = wilson_sample(g, rng_stream(5))
        assert forest.roots() == [0]

    def test_no_mass_rejected(self):
        with pytest.raises(ValueError):
            wilson_sample(path_ab(m=Fraction(0)), rng_stream(5))

    def test_output_is_forest(self):
        g = grid_graph(3, 3, m=Fraction(1, 2))
        rng = rng_stream(6)
        for _ in range(200):
            forest = wilson_sample(g, rng)
            assert forest.is_acyclic()
            assert all(len([1]) for _ in [0])  # one outgoing by construction

    def test_two_vertex_law(self):
        g = path_ab()
        rng = rng_stream(7)
        counts = {}
        n = 30000
        for _ in range(n):
            f = wilson_sample(g, rng)
            counts[f.key()] = counts.get(f.key(), 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            p = c / n
            sigma = np.sqrt((1 / 3) * (2 / 3) / n)
            assert abs(p - 1 / 3) < 4 * sigma

    def test_grid_marginals_match_determinants(self):
        g = grid_graph(3, 3, m=Fraction(0))
        # wire the boundary: grid as window of the infinite lattice
        amb = grid_graph(5, 5, m=Fraction(0))
        subset = [amb.positions.tolist().index([float(i), float(j)])
                  for j in (1, 2, 3) for i in (1, 2, 3)]
        from massiveforests.graphs import wired_restriction
        w = wired_restriction(amb, subset)
        n = 20000
        pairs, counts, total = wilson_edge_marginals(w, n, seed=123)
        for e, c in zip(pairs, counts):
            p_exact = float(edge_probability(w, [e], exact=True))
            sigma = np.sqrt(max(p_exact * (1 - p_exact), 1e-12) / total)
            assert abs(c / total - p_exact) <= 4 * sigma + 1e-9

    def test_order_independence(self):
        g = grid_graph(2, 2, m=Fraction(1))
        orders = [[0, 1, 2, 3], [3, 1, 0, 2]]
        stats = []
        for order in orders:
            rng = rng_stream(9)
            hit = 0
            n = 20000
            for _ in range(n):
                f = wilson_sample(g, rng, order=order)
                hit += f.outgoing[0] == 1
            stats.append(hit / n)
        sigma = np.sqrt(0.25 / 20000)
        assert abs(stats[0] - stats[1]) < 4 * np.sqrt(2) * sigma

    def test_determinism_same_seed(self):
        g = grid_graph(2, 2, m=Fraction(1))
        a = wilson_edge_marginals(g, 500, seed=42)[1]
        b = wilson_edge_marginals(g, 500, seed=42)[1]
        assert np.array_equal(a, b)


class TestCoupling:
    def test_no_mass_identical(self):
        g = path_ab(m=Fraction(0))
        rng = rng_stream(11)
        xu, xk = 0, 0
        for _ in range(200):
            xu, xk = coupled_pair_step(g, xu, xk, rng)
            assert xk == xu

    def test_killed_equals_unkilled_before_death(self):
        g = path_ab()
        rng = rng_stream(12)
        for _ in range(500):
            xu, xk = 0, 0
            while xk != ROOT:
                xu2, xk = coupled_pair_step(g, xu, xk, rng)
                if xk != ROOT:
                    assert xk == xu2
                xu = xu2

    def test_marginals(self):
        g = path_ab()
        rng = rng_stream(13)
        n = 40000
        unkilled_to_1 = 0
        killed_events = {1: 0, ROOT: 0}
        for _ in range(n):
            yu, yk = coupled_pair_step(g, 0, 0, rng)
            unkilled_to_1 += yu == 1
            killed_events[yk] += 1
        assert unkilled_to_1 == n  # plain walk at 'a' must hop to 'b'
        p_die = killed_events[ROOT] / n
        assert abs(p_die - 0.5) < 4 * np.sqrt(0.25 / n)


class TestLerwExact:
    def test_sums_to_death_probability(self):
        # summing over all simple paths gives P(walk dies) = 1 on finite g
        g = grid_graph(2, 2, m=Fraction(1))
        total = Fraction(0)
        import itertools
        verts = range(g.n)
        paths = []
        for k in range(1, g.n + 1):
            for per in itertools.permutations(verts, k):
                ok = all(g.edge_conductance(per[i], per[i + 1]) > 0
                         for i in range(len(per) - 1))
                if ok:
                    paths.append(list(per))
        for start in verts:
            tot = Fraction(0)
            for p in paths:
                if p[0] == start:
                    tot += lerw_exact_probability(g, p, exact=True)
            assert tot == 1

    def test_float_arm_matches_exact(self):
        grid = grid_graph(4, 3, m=Fraction(1, 3))
        cases = [(grid, gamma) for gamma in ([0, 1, 5, 6], [7, 3, 2], [11])]
        g = random_rational_graph(np.random.default_rng(5))
        cases += [(g, [x] + [y for y in g.neighbours(x) if y != x][:1])
                  for x in range(g.n)]
        for g, gamma in cases:
            exact = float(lerw_exact_probability(g, gamma, exact=True))
            assert abs(lerw_exact_probability(g, gamma) - exact) <= \
                1e-13 * exact

    def test_matches_monte_carlo(self):
        g = grid_graph(2, 2, m=Fraction(1))
        from massiveforests.walks import loop_erase, sample_trajectory
        rng = rng_stream(14)
        table = TransitionTable(g)
        gamma = [0, 1, 3]
        n = 40000
        hits = 0
        for _ in range(n):
            traj = sample_trajectory(g, 0, rng, table=table)
            hits += loop_erase(traj) == gamma
        p = float(lerw_exact_probability(g, gamma, exact=True))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 4 * sigma
