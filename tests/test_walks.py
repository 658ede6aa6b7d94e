from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massiveforests import walks
from massiveforests.graphs import ROOT, RootedForest, WeightedGraph
from massiveforests.linalg import (
    assemble_massive_laplacian_exact,
    edge_probability,
    solve_exact,
)
from massiveforests.walks import (
    TransitionTable,
    WilsonEdgeCounter,
    lerw_exact_probability,
    loop_erase,
    rng_stream,
    wilson_edge_marginals,
    wilson_sample,
)

from test_graphs import grid_graph, path_ab, random_rational_graph


class TestStepKilled:
    def test_isolated_vertex_dies(self):
        g = WeightedGraph(1, [], [Fraction(3)])
        table = TransitionTable(g)
        assert table.step(0, rng_stream(1).random()) == ROOT

    def test_path_transition_row(self):
        g = path_ab()
        table = TransitionTable(g)
        rng = rng_stream(2)
        hits = {1: 0, ROOT: 0}
        n = 40000
        for _ in range(n):
            hits[table.step(0, rng.random())] += 1
        for target in (1, ROOT):
            p = hits[target] / n
            assert abs(p - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_no_mass_never_absorbs(self):
        g = path_ab(m=Fraction(0))
        table = TransitionTable(g)
        rng = rng_stream(3)
        x = 0
        for _ in range(500):
            x = table.step(x, rng.random())
            assert x != ROOT


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

    @pytest.mark.parametrize("root", [-1, 2])
    def test_root_outside_graph_rejected(self, root):
        with pytest.raises(ValueError, match="not a vertex"):
            wilson_sample(path_ab(m=Fraction(0)), rng_stream(5),
                          roots={root})

    def test_output_is_forest(self):
        g = grid_graph(3, 3, m=Fraction(1, 2))
        rng = rng_stream(6)
        for _ in range(200):
            forest = wilson_sample(g, rng)
            assert sorted(forest.outgoing) == list(range(g.n))
            for x, y in forest.outgoing.items():
                assert y == ROOT or y in g.neighbours(x)
            # acyclic: following heads from any vertex reaches ROOT
            # within n steps
            for x in range(g.n):
                for _ in range(g.n):
                    if x == ROOT:
                        break
                    x = forest.outgoing[x]
                assert x == ROOT
            assert forest.is_acyclic()

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

    def test_step_cap_on_massless_component(self):
        # 0 is killed, but from 1 the walk only moves between 1 and 2
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
                          [1.0, 0.0, 0.0], check=False)
        with pytest.raises(RuntimeError, match="step cap"):
            wilson_sample(g, rng_stream(8), step_cap=10_000)

    def test_step_cap_fires_per_forest_in_task_counts(self, monkeypatch):
        monkeypatch.setattr(walks, "WILSON_STEP_CAP", 10_000)
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
                          [1.0, 0.0, 0.0], check=False)
        with pytest.raises(RuntimeError, match="^Wilson step cap exceeded; "
                           "killed walk may not die a.s.$"):
            WilsonEdgeCounter(g).task_counts(5, 8, 0)
        # the cap bounds each forest, not a task's total read
        g = float_grid(4, 0.3)
        uncapped = WilsonEdgeCounter(g).counts(300, 8)
        monkeypatch.setattr(walks, "WILSON_STEP_CAP", 4 * walks.WILSON_BLOCK)
        assert np.array_equal(WilsonEdgeCounter(g).counts(300, 8), uncapped)

    @pytest.mark.parametrize("seed, task", [(-1, 0), (2**48, 0),
                                            (2**48 + 5, 0), (0, -1),
                                            (0, 2**16)])
    def test_stream_key_out_of_range_rejected(self, seed, task):
        with pytest.raises(ValueError, match="rng_stream needs"):
            rng_stream(seed, task)

    def test_stream_key_range_ends(self):
        top = rng_stream(2**48 - 1, 2**16 - 1).random()
        assert top != rng_stream(0, 0).random()
        assert top != rng_stream(2**48 - 1, 0).random()

    def test_determinism_same_seed(self):
        g = grid_graph(2, 2, m=Fraction(1))
        a = wilson_edge_marginals(g, 500, seed=42)[1]
        b = wilson_edge_marginals(g, 500, seed=42)[1]
        assert np.array_equal(a, b)


def green_product_lerw(g, gamma):
    """Exact LERW law as a product of Green function diagonals, one solve
    on each domain with the earlier path vertices removed."""
    L = assemble_massive_laplacian_exact(g)
    prob = Fraction(1)
    for i, v in enumerate(gamma):
        domain = [u for u in range(g.n) if u not in gamma[:i]]
        L_dom = [[L[u][w] for w in domain] for u in domain]
        B = [[Fraction(int(u == v))] for u in domain]
        prob *= solve_exact(L_dom, B)[domain.index(v)][0] * g.ck(v)
        if i < len(gamma) - 1:
            prob *= g.edge_conductance(v, gamma[i + 1]) / g.ck(v)
    return prob * g.masses[gamma[-1]] / g.ck(gamma[-1])


class TestLerwExact:
    def test_matches_green_diagonal_product(self):
        grid = grid_graph(4, 3, m=Fraction(1, 3))
        cases = [(grid, gamma) for gamma in
                 ([0, 1, 5, 6], [7, 3, 2], [11], [0, 1, 2, 3, 7, 6, 5, 4])]
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_rational_graph(rng)
            gamma = [int(rng.integers(g.n))]
            while rng.random() < 0.8:
                nxt = [y for y in g.neighbours(gamma[-1]) if y not in gamma]
                if not nxt:
                    break
                gamma.append(nxt[int(rng.integers(len(nxt)))])
            cases.append((g, gamma))
        assert max(len(gamma) for _, gamma in cases[4:]) >= 3
        for g, gamma in cases:
            p = lerw_exact_probability(g, gamma, exact=True)
            assert isinstance(p, Fraction)
            assert p == green_product_lerw(g, gamma)

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
        # Wilson's first walk starts at 0, so the branch of 0 is the loop
        # erasure of one killed walk from 0
        g = grid_graph(2, 2, m=Fraction(1))
        rng = rng_stream(14)
        table = TransitionTable(g)
        gamma = [0, 1, 3]
        n = 40000
        hits = 0
        for _ in range(n):
            forest = wilson_sample(g, rng, table=table)
            branch = [0]
            while forest.outgoing[branch[-1]] != ROOT:
                branch.append(forest.outgoing[branch[-1]])
            hits += branch == gamma
        p = float(lerw_exact_probability(g, gamma, exact=True))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 4 * sigma


# -- draw-for-draw identity with the one-uniform-per-step searchsorted loop --


def reference_table(g):
    targets, cum = [], []
    for x in range(g.n):
        heads = [int(g.head[eid]) for eid in g.out_edges[x]]
        probs = [g.cond_f[eid] for eid in g.out_edges[x]]
        ckx = float(g.ck(x))
        if g.masses_f[x] > 0:
            heads.append(ROOT)
            probs.append(g.masses_f[x])
        c = np.cumsum(np.array(probs) / ckx)
        c[-1] = 1.0
        targets.append(np.array(heads, dtype=int))
        cum.append(c)
    return targets, cum


def reference_wilson(g, ref, rng, order=None, roots=()):
    targets, cum = ref
    if order is None:
        order = range(g.n)
    nxt = [None] * g.n
    in_tree = [False] * g.n
    for r in roots:
        in_tree[r] = True
        nxt[r] = ROOT
    for start in order:
        x = start
        while x != ROOT and not in_tree[x]:
            i = int(np.searchsorted(cum[x], rng.random(), side="right"))
            y = int(targets[x][min(i, len(targets[x]) - 1)])
            nxt[x] = y
            x = y
        x = start
        while x != ROOT and not in_tree[x]:
            in_tree[x] = True
            x = nxt[x]
    return RootedForest(g.n, nxt)


def cli_grid():
    """The README's CLI grid: square, delta 0.05, window 20, M = 1."""
    from massiveforests.elliptic import near_critical_modulus
    from massiveforests.io import grid_to_graph
    from massiveforests.isoradial import build_square_grid

    return grid_to_graph(build_square_grid(0.05, 20),
                         near_critical_modulus(1.0, 0.05))[0]


def float_grid(side, mass):
    return grid_graph(side, side, c=1.0, m=mass)


def lazy_graph():
    from massiveforests.elliptic import complete_integrals
    from massiveforests.isoradial import (
        build_rhombic_grid,
        lazy_walk_graph,
        random_rhombic_angles,
    )

    phis, psis = random_rhombic_angles(np.random.default_rng(13), 4)
    return lazy_walk_graph(build_rhombic_grid(0.3, phis, psis),
                           complete_integrals(0.4))[0]


def parallel_graph():
    edges = [(0, 1, 1.0), (0, 1, 2.5), (1, 0, 0.5), (1, 2, 1.0),
             (2, 1, 1.0), (2, 1, 0.25), (2, 3, 3.0), (3, 2, 3.0),
             (3, 0, 1.0), (0, 3, 1.0), (3, 3, 0.5)]
    return WeightedGraph(4, edges, [0.2, 0.0, 0.1, 0.3], check=False)


IDENTITY_CASES = {
    "cli-grid": (cli_grid, {}),
    "grid40-mass0.05": (lambda: float_grid(40, 0.05), {}),
    "lazy": (lazy_graph, {}),
    "parallel": (parallel_graph, {}),
    "massless-roots": (lambda: float_grid(6, 0.0), {"roots": {0, 35}}),
    "order": (lambda: float_grid(5, 0.3),
              {"order": [int(v) for v in
                         np.random.default_rng(3).permutation(25)]}),
}


class TestWilsonIdentity:
    @pytest.mark.parametrize("name", ["cli-grid", "grid40-mass0.05"])
    def test_table_bit_equal_to_cumsum(self, name):
        g = IDENTITY_CASES[name][0]()
        table = TransitionTable(g)
        targets, cum = reference_table(g)
        for x in range(g.n):
            assert table.cum[x] == cum[x].tolist()
            assert table.targets[x] == targets[x].tolist()

    @pytest.mark.parametrize("name", ["cli-grid", "lazy", "parallel"])
    def test_step_matches_searchsorted(self, name):
        g = IDENTITY_CASES[name][0]()
        table = TransitionTable(g)
        targets, cum = reference_table(g)
        for x in range(g.n):
            for u in [0.0] + cum[x][:-1].tolist():
                for v in (np.nextafter(u, -1.0), u, np.nextafter(u, 2.0)):
                    if not 0.0 <= v < 1.0:
                        continue
                    i = int(np.searchsorted(cum[x], v, side="right"))
                    assert table.step(x, float(v)) == \
                        targets[x][min(i, len(targets[x]) - 1)]

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_shared_stream_identical(self, name):
        make, kwargs = IDENTITY_CASES[name]
        g = make()
        ref = reference_table(g)
        table = TransitionTable(g)
        k = 3 if g.n > 200 else 20
        rng, rng_ref = rng_stream(17, 4), rng_stream(17, 4)
        for _ in range(k):
            forest = wilson_sample(g, rng, table=table, **kwargs)
            assert forest == reference_wilson(g, ref, rng_ref, **kwargs)
        assert rng.random() == rng_ref.random()

    @pytest.mark.parametrize("roots", [(), (1,)])
    def test_edge_counts_match_reference(self, roots):
        g = parallel_graph()
        ref = reference_table(g)
        counter = WilsonEdgeCounter(g, roots, per_task=40)
        index = {e: i for i, e in enumerate(counter.pairs)}
        for task in range(3):
            counts = counter.task_counts(100, 5, task)
            expect = np.zeros(len(counter.pairs), dtype=np.int64)
            rng = rng_stream(5, task)
            for _ in range(min(40, 100 - 40 * task)):
                forest = reference_wilson(g, ref, rng, roots=roots)
                for e in forest.outgoing.items():
                    if e in index:
                        expect[index[e]] += 1
            assert np.array_equal(counts, expect)


class TestSeededCounts:
    """Edge counts of small seeded runs, pinned to recorded values: a change
    to the order in which forests read their stream shows up here."""

    def test_cemetery_rooted(self):
        counter = WilsonEdgeCounter(grid_graph(3, 3, c=1.0, m=0.3),
                                    per_task=40)
        assert counter.counts(130, 23).tolist() == [
            52, 42, 27, 38, 41, 52, 41, 32, 47, 31, 29, 22, 31, 25, 37, 34,
            29, 53, 38, 55, 32, 25, 47, 54, 36, 24, 37, 20, 23, 30, 39, 18,
            29]

    def test_given_root(self):
        counter = WilsonEdgeCounter(grid_graph(3, 3, c=1.0, m=0.0),
                                    roots={4}, per_task=40)
        assert counter.counts(130, 24).tolist() == [
            70, 60, 26, 31, 73, 72, 58, 31, 63, 36, 0, 0, 0, 0, 28, 77, 25,
            63, 67, 78, 22, 30, 73, 57]

    def test_default_tasks(self):
        counter = WilsonEdgeCounter(grid_graph(3, 3, c=1.0, m=0.3))
        assert counter.counts(1100, 25).tolist() == [
            419, 414, 263, 254, 354, 426, 413, 247, 365, 247, 212, 230, 240,
            224, 280, 314, 290, 430, 413, 345, 273, 268, 415, 396, 267, 229,
            261, 241, 194, 216, 257, 214, 289]


class TestEdgeCountReduction:
    def test_pool_map_equals_serial(self):
        g = float_grid(5, 0.0)
        counter = WilsonEdgeCounter(g, roots={0}, per_task=40)
        n = 130  # four tasks, the last one short
        serial = counter.counts(n, 21)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = counter.counts(n, 21, pool.map)
        assert np.array_equal(pooled, serial)
        tasks = [counter.task_counts(n, 21, task) for task in range(4)]
        assert np.array_equal(serial, sum(tasks))
        # every vertex but the root has one counted successor per forest
        assert serial.sum() == n * (g.n - 1)

    def test_counts_past_task_range_refused_before_any_task(self,
                                                            monkeypatch):
        # 2**16 task streams of 1000 forests hold 65 536 000 forests
        counter = WilsonEdgeCounter(float_grid(3, 0.3))

        def task(*args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(counter, "task_counts", task)
        with pytest.raises(ValueError, match="^n = 65536001 is past the "
                                             "limit 65536000: "):
            counter.counts(65_536_001, 3)

    def test_marginals_equal_counts(self):
        g = float_grid(4, 0.3)
        pairs, counts, total = wilson_edge_marginals(g, 2100, seed=8)
        counter = WilsonEdgeCounter(g)
        assert pairs == counter.pairs and total == 2100
        assert np.array_equal(counts, counter.counts(2100, 8))
