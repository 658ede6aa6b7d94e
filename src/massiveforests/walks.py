"""Killed random walks, loop erasure and Wilson sampling.

All randomness flows through counter-based Philox streams keyed by
(seed, task id), so results are reproducible and independent of how work is
split across workers.
"""

from __future__ import annotations

import numpy as np

from .graphs import ROOT, RootedForest, WeightedGraph
from .linalg import (
    _sparse_lu,
    assemble_massive_laplacian_exact,
    assemble_massive_laplacian_sparse,
    solve_exact,
)

WILSON_STEP_CAP = 10**9


def rng_stream(seed, task_id=0):
    """Independent generator for (seed, task_id), worker-count agnostic."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) << np.uint64(16) ^ np.uint64(task_id)))


class TransitionTable:
    """Per-vertex cumulative transition table of the killed walk.

    Row x ends with the death event; sampling one step is a single uniform
    plus a searchsorted.
    """

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.targets = []
        self.cum = []
        for x in range(g.n):
            heads = [int(g.head[eid]) for eid in g.out_edges[x]]
            probs = [g.cond_f[eid] for eid in g.out_edges[x]]
            ckx = float(g.ck(x))
            if g.masses_f[x] > 0:
                heads.append(ROOT)
                probs.append(g.masses_f[x])
            cum = np.cumsum(np.array(probs) / ckx)
            cum[-1] = 1.0
            self.targets.append(np.array(heads, dtype=int))
            self.cum.append(cum)

    def step(self, x, u):
        i = int(np.searchsorted(self.cum[x], u, side="right"))
        i = min(i, len(self.targets[x]) - 1)
        return int(self.targets[x][i])


class WalkState:
    """Current position of a killed walk (ROOT once absorbed)."""

    def __init__(self, vertex, steps=0):
        self.vertex = vertex
        self.steps = steps

    @property
    def absorbed(self):
        return self.vertex == ROOT


def step_killed(table: TransitionTable, state: WalkState, rng) -> WalkState:
    if state.absorbed:
        raise ValueError("walk already absorbed")
    y = table.step(state.vertex, rng.random())
    return WalkState(y, state.steps + 1)


def sample_trajectory(g: WeightedGraph, start, rng, table=None,
                      step_cap=10**7):
    """Trajectory of the killed walk from `start` until death."""
    if table is None:
        table = TransitionTable(g)
    path = [start]
    x = start
    for _ in range(step_cap):
        x = table.step(x, rng.random())
        if x == ROOT:
            return path
        path.append(x)
    raise RuntimeError("step cap exceeded; is the walk killed a.s.?")


def loop_erase(path):
    """Chronological loop erasure of a finite vertex path.

    Uses a last-visit index map for O(length) amortized cost.
    """
    out = []
    last = {}
    for v in path:
        if v in last:
            for w in out[last[v] + 1:]:
                del last[w]
            del out[last[v] + 1:]
        else:
            last[v] = len(out)
            out.append(v)
    return out


class LerwPath:
    """A simple path plus how the underlying walk ended."""

    def __init__(self, vertices, status):
        self.vertices = list(vertices)
        self.status = status  # 'died' | 'exited' | 'hit-target'
        assert len(set(self.vertices)) == len(self.vertices)


def wilson_sample(g: WeightedGraph, rng, order=None, table=None,
                  step_cap=WILSON_STEP_CAP, roots=()) -> RootedForest:
    """Wilson's algorithm rooted at the cemetery (or at given root vertices).

    Runs killed walks from each unvisited vertex; the successor-overwrite
    trick performs the chronological loop erasure.  Output is a rooted
    spanning forest of g with the Boltzmann law; with `roots` given and no
    masses, it is a spanning tree/forest rooted at those vertices.
    """
    if all(m == 0 for m in g.masses) and not roots:
        raise ValueError("Wilson rooted at the cemetery needs m != 0")
    if table is None:
        table = TransitionTable(g)
    if order is None:
        order = range(g.n)
    nxt = [None] * g.n
    in_tree = [False] * g.n
    for r in roots:
        in_tree[r] = True
        nxt[r] = ROOT
    steps = 0
    u = rng.random  # local alias, hot loop
    for start in order:
        x = start
        while x != ROOT and not in_tree[x]:
            y = table.step(x, u())
            nxt[x] = y
            x = y
            steps += 1
            if steps > step_cap:
                raise RuntimeError(
                    "Wilson step cap exceeded; killed walk may not die a.s.")
        x = start
        while x != ROOT and not in_tree[x]:
            in_tree[x] = True
            x = nxt[x]
    return RootedForest(g.n, {x: (ROOT if nxt[x] == ROOT else nxt[x])
                              for x in range(g.n)})


def wilson_edge_marginals(g: WeightedGraph, n_samples, seed,
                          samples_per_task=1000):
    """Empirical P(directed edge in forest) over independent Wilson runs.

    Work is split into tasks with their own streams; the reduction is a sum
    over task ids, so the result only depends on (seed, n_samples).
    """
    table = TransitionTable(g)
    pairs = g.directed_edge_set()
    pairs += [(x, ROOT) for x in range(g.n) if g.masses[x] > 0]
    index = {e: i for i, e in enumerate(pairs)}
    counts = np.zeros(len(pairs), dtype=np.int64)
    n_tasks = (n_samples + samples_per_task - 1) // samples_per_task
    done = 0
    for task in range(n_tasks):
        rng = rng_stream(seed, task)
        k = min(samples_per_task, n_samples - done)
        done += k
        for _ in range(k):
            forest = wilson_sample(g, rng, table=table)
            for x, y in forest.outgoing.items():
                counts[index[(x, y)]] += 1
    return pairs, counts, n_samples


def coupled_pair_step(g: WeightedGraph, x_unkilled, x_killed, rng):
    """One coupled step of the plain and killed walks.

    A single uniform drives both copies; the killed copy equals the
    unkilled one strictly before death, and each marginal is exact.
    """
    u = rng.random()
    heads = [int(g.head[eid]) for eid in g.out_edges[x_unkilled]]
    probs = np.array([g.cond_f[eid] for eid in g.out_edges[x_unkilled]])
    cum = np.cumsum(probs / probs.sum())
    cum[-1] = 1.0
    survival = probs.sum() / float(g.ck(x_unkilled))
    if u <= survival:
        v = u / survival if survival > 0 else 0.0
        died = False
    else:
        v = (u - survival) / (1.0 - survival)
        died = True
    y_unkilled = heads[min(int(np.searchsorted(cum, v, side="right")),
                           len(cum) - 1)]
    if x_killed == ROOT or died:
        return y_unkilled, ROOT
    return y_unkilled, y_unkilled


def lazy_walk_graph(grid, modulus, delta=None):
    """Z-invariant graph with per-vertex holding loops.

    The loop conductance at x is ((T(x) - T)/T) * sum_y sc(theta_xy|k) where
    T(x) = sum sin(2 theta bar)/sum tan(theta bar) and T is its minimum over
    the grid; jump-time trajectories of the lazy killed walk have the law of
    the plain killed walk.
    """
    from .isoradial import z_invariant_weights

    g = z_invariant_weights(grid, modulus)
    T_x = np.empty(g.n)
    for x in range(g.n):
        s_sin = sum(np.sin(2 * grid.half_angle(e)) for e in grid.edges_at(x))
        s_tan = sum(np.tan(grid.half_angle(e)) for e in grid.edges_at(x))
        T_x[x] = s_sin / s_tan
    T = float(T_x.min())
    if T <= 0:
        raise ValueError("nonpositive speed floor; bounded-angle violated")
    edges = [(int(g.tail[i]), int(g.head[i]), g.cond[i])
             for i in range(g.m_edges)]
    for x in range(g.n):
        l_x = (T_x[x] - T) / T * float(g.total_conductance(x))
        if l_x > 0:
            edges.append((x, x, l_x))
    lazy = WeightedGraph(g.n, edges, list(g.masses), positions=g.positions,
                         check=False)
    holding = np.array([
        float(sum(lazy.cond_f[eid] for eid in lazy.out_edges[x]
                  if lazy.head[eid] == x)) / float(lazy.total_conductance(x))
        for x in range(lazy.n)])
    return lazy, holding


def lerw_exact_probability(g: WeightedGraph, gamma, exact=False):
    """P(loop erasure of the killed walk equals `gamma`), in closed form.

    gamma is a simple vertex path; the walk must die straight from its last
    vertex.  The formula multiplies the step probabilities, the Green
    function diagonal of the domain with earlier path vertices removed, and
    the terminal death probability.
    """
    from fractions import Fraction

    if len(set(gamma)) != len(gamma):
        raise ValueError("gamma must be simple")
    prob = Fraction(1) if exact else 1.0
    # principal submatrices of Delta^k keep the full c^k on the diagonal
    L = assemble_massive_laplacian_exact(g) if exact else \
        assemble_massive_laplacian_sparse(g)

    def green_diag(domain, v):
        i = domain.index(v)
        if exact:
            L_dom = [[L[u][w] for w in domain] for u in domain]
            B = [[Fraction(1) if u == v else Fraction(0)] for u in domain]
            return solve_exact(L_dom, B)[i][0] * Fraction(g.ck(v))
        e = np.zeros(len(domain))
        e[i] = 1.0
        col = _sparse_lu(L[np.ix_(domain, domain)]).solve(e)
        return col[i] * float(g.ck(v))

    for i, v in enumerate(gamma):
        domain = [u for u in range(g.n) if u not in gamma[:i]]
        prob = prob * green_diag(domain, v)
        if i < len(gamma) - 1:
            w = gamma[i + 1]
            q = g.edge_conductance(v, w) / g.ck(v) if exact else \
                float(g.edge_conductance(v, w)) / float(g.ck(v))
            prob = prob * q
    last = gamma[-1]
    death = g.masses[last] / g.ck(last) if exact else \
        g.masses_f[last] / float(g.ck(last))
    return prob * death
