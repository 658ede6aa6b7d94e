"""Killed random walks, loop erasure and Wilson sampling.

All randomness flows through counter-based Philox streams keyed by
(seed, task id), so results are reproducible and independent of how work is
split across workers.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate

import numpy as np

from .graphs import ROOT, RootedForest, WeightedGraph
from .linalg import _potential_columns, determinant, determinant_exact

WILSON_STEP_CAP = 10**9
WILSON_BLOCK = 256  # uniforms drawn from the caller's generator at a time


def rng_stream(seed, task_id=0):
    """Independent generator for (seed, task_id), worker-count agnostic."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) << np.uint64(16) ^ np.uint64(task_id)))


class TransitionTable:
    """Per-vertex cumulative transition table of the killed walk.

    Row x holds Python lists of targets and cumulative probabilities and
    ends with the death event; sampling one step is a single uniform plus
    a `bisect_right`, which picks the same index as
    `np.searchsorted(cum, u, side="right")`.
    """

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.targets = []
        self.cum = []
        for x in range(g.n):
            heads = [int(g.head[eid]) for eid in g.out_edges[x]]
            probs = [float(g.cond_f[eid]) for eid in g.out_edges[x]]
            if g.masses_f[x] > 0:
                heads.append(ROOT)
                probs.append(float(g.masses_f[x]))
            ckx = float(g.ck(x))
            cum = list(accumulate(p / ckx for p in probs))
            cum[-1] = 1.0
            self.targets.append(heads)
            self.cum.append(cum)

    def step(self, x, u):
        i = bisect_right(self.cum[x], u)
        return self.targets[x][min(i, len(self.targets[x]) - 1)]


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


def _check_rooted(g: WeightedGraph, roots):
    if all(m == 0 for m in g.masses) and not roots:
        raise ValueError("Wilson rooted at the cemetery needs m != 0")


def _wilson_successors(table: TransitionTable, rng, order, roots,
                       step_cap):
    """Successor list of one Wilson forest; ROOT marks roots and deaths.

    Uniforms come from `rng` in blocks of WILSON_BLOCK.  On return the
    stream is put back to just after the last uniform the walks used, so a
    caller sharing `rng` reads the same values as if every step had called
    `rng.random()` once.
    """
    cum, targets = table.cum, table.targets
    n = len(cum)
    nxt = [ROOT] * n
    in_tree = [False] * n + [True]  # in_tree[ROOT] (index -1) stops a walk
    for r in roots:
        if not 0 <= r < n:
            raise ValueError(f"root {r} is not a vertex")
        in_tree[r] = True
    state = rng.bit_generator.state
    block = rng.random(WILSON_BLOCK).tolist()
    pos = used = 0
    for start in order:
        x = start
        while not in_tree[x]:
            if pos == WILSON_BLOCK:
                used += pos
                if used >= step_cap:
                    raise RuntimeError(
                        "Wilson step cap exceeded; killed walk may not die "
                        "a.s.")
                state = rng.bit_generator.state
                block = rng.random(WILSON_BLOCK).tolist()
                pos = 0
            # u < 1 = cum[x][-1], so the index stays inside the row
            y = targets[x][bisect_right(cum[x], block[pos])]
            pos += 1
            nxt[x] = y
            x = y
        x = start
        while not in_tree[x]:
            in_tree[x] = True
            x = nxt[x]
    rng.bit_generator.state = state
    rng.random(pos)
    return nxt


def wilson_sample(g: WeightedGraph, rng, order=None, table=None,
                  step_cap=WILSON_STEP_CAP, roots=()) -> RootedForest:
    """Wilson's algorithm rooted at the cemetery (or at given root vertices).

    Runs killed walks from each unvisited vertex; the successor-overwrite
    trick performs the chronological loop erasure.  Output is a rooted
    spanning forest of g with the Boltzmann law; with `roots` given and no
    masses, it is a spanning tree/forest rooted at those vertices.
    """
    _check_rooted(g, roots)
    if table is None:
        table = TransitionTable(g)
    if order is None:
        order = range(g.n)
    return RootedForest(g.n, _wilson_successors(table, rng, order, roots,
                                                step_cap))


class WilsonEdgeCounter:
    """Directed-edge counts over independent Wilson forests of one graph.

    `pairs` lists the distinct directed edges, then (x, ROOT) for every
    massive x.  Forests are split into tasks of `per_task`; task t draws
    its forests from rng_stream(seed, t), so summed counts depend only on
    (seed, n_samples), whatever runs the tasks.
    """

    def __init__(self, g: WeightedGraph, roots=(), per_task=1000):
        _check_rooted(g, roots)
        self.table = TransitionTable(g)
        self.roots = roots
        self.per_task = per_task
        self.pairs = g.directed_edge_set()
        self.pairs += [(x, ROOT) for x in range(g.n) if g.masses[x] > 0]
        # (x, y) has code x (n + 1) + y + 1, so (x, ROOT) has code x (n + 1);
        # the sorted codes end with a sentinel that no successor reaches
        codes = np.array([x * (g.n + 1) + y + 1 for x, y in self.pairs],
                         dtype=np.int64)
        self._sort = np.argsort(codes)
        self._codes = np.append(codes[self._sort], (g.n + 1) ** 2)
        self._tail_codes = np.arange(g.n, dtype=np.int64) * (g.n + 1) + 1

    def task_counts(self, n_samples, seed, task):
        """Counts over `pairs` of task `task`'s forests.

        A successor outside `pairs` (a given root without mass) is not
        counted.
        """
        rng = rng_stream(seed, task)
        k = min(self.per_task, n_samples - task * self.per_task)
        hits = np.zeros(len(self.pairs), dtype=np.int64)
        order = range(len(self._tail_codes))
        for _ in range(k):
            codes = self._tail_codes + _wilson_successors(
                self.table, rng, order, self.roots, WILSON_STEP_CAP)
            i = np.searchsorted(self._codes, codes)
            hits += np.bincount(i[self._codes[i] == codes],
                                minlength=len(hits))
        counts = np.empty_like(hits)
        counts[self._sort] = hits
        return counts

    def counts(self, n_samples, seed, map=map):
        """Counts over `pairs` of all n_samples forests.

        The sum of `task_counts` over the tasks, in task order; `map` runs
        them (an executor's `map` runs them in a pool).
        """
        tasks = range(-(-n_samples // self.per_task))
        total = np.zeros(len(self.pairs), dtype=np.int64)
        for counts in map(partial(self.task_counts, n_samples, seed), tasks):
            total += counts
        return total


def wilson_edge_marginals(g: WeightedGraph, n_samples, seed):
    """Empirical P(directed edge in forest) over independent Wilson runs.

    Returns (pairs, counts, n_samples); the counts depend only on
    (seed, n_samples).
    """
    counter = WilsonEdgeCounter(g)
    return counter.pairs, counter.counts(n_samples, seed), n_samples


def lerw_exact_probability(g: WeightedGraph, gamma, exact=False):
    """P(loop erasure of the killed walk equals `gamma`), in closed form.

    gamma is a simple vertex path; the walk must die straight from its last
    vertex.  With V = (Delta^k)^{-1} D(c^k) the potential,

        P = det V[gamma, gamma] * prod p(gamma_i -> gamma_i+1)
            * m(gamma_last) / c^k(gamma_last).

    The Green function diagonals of the domains with earlier path vertices
    removed, G_{D_i}(gamma_i, gamma_i) = det Delta_{D_i+1} / det Delta_{D_i}
    (Cramer), telescope to det (Delta^k)^{-1}[gamma, gamma] (Jacobi's
    complementary minors); the c^k factors turn it into a minor of V.
    """
    if len(set(gamma)) != len(gamma):
        raise ValueError("gamma must be simple")
    pot = _potential_columns(g, gamma, exact)
    V = [[pot.value(x, y) for y in gamma] for x in gamma]
    prob = determinant_exact(V) if exact else determinant(np.array(V))
    for v, w in zip(gamma, gamma[1:]):
        prob = prob * (g.edge_conductance(v, w) / g.ck(v) if exact else
                       float(g.edge_conductance(v, w)) / float(g.ck(v)))
    last = gamma[-1]
    death = g.masses[last] / g.ck(last) if exact else \
        g.masses_f[last] / float(g.ck(last))
    return prob * death
