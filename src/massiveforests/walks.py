"""Killed random walks, loop erasure and Wilson sampling.

All randomness flows through counter-based Philox streams keyed by
(seed, task id), so results are reproducible and independent of how work is
split across workers.  Samplers read a stream through one `UniformReader`,
WILSON_BLOCK draws at a time and in stream order (Wilson's walk loops
over an iterator on the block).  A task opens one reader on its own stream
and carries the unread tail of each block into its next sample; an API
that draws from a caller's generator opens a reader on it and hands it
back just after the last uniform used, so either way every sample reads
the same draws as if each step had called `rng.random()`.  The
transition table is read off the graph's CSR out-edges and c^k arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from operator import length_hint

import numpy as np

from .graphs import ROOT, RootedForest, WeightedGraph
from .linalg import _potential_columns, determinant, determinant_exact

WILSON_STEP_CAP = 10**9
WILSON_BLOCK = 256  # draws read from a generator at a time
COUNT_CHUNK = 8     # forests per edge-count reduction in `task_counts`
SEED_BITS, TASK_BITS = 48, 16  # a stream's Philox key is seed << 16 ^ task


class SeedRangeError(ValueError):
    """A seed or task id outside the key range of `rng_stream`."""


class TaskRangeError(ValueError):
    """More samples than the task streams of one seed hold."""


def rng_stream(seed, task_id=0):
    """Independent generator for (seed, task_id), worker-count agnostic.

    seed must lie in [0, 2**48) and task_id in [0, 2**16): the two share
    one 64-bit key, so a value outside its range would alias another
    stream or overflow.
    """
    if not (0 <= seed < 1 << SEED_BITS and 0 <= task_id < 1 << TASK_BITS):
        raise SeedRangeError(f"rng_stream needs 0 <= seed < 2**{SEED_BITS} "
                             f"and 0 <= task_id < 2**{TASK_BITS}, not "
                             f"({seed}, {task_id})")
    return np.random.Generator(np.random.Philox(
        key=np.uint64(seed) << np.uint64(TASK_BITS) ^ np.uint64(task_id)))


def tasks(n, per_task, extra=0, what="n"):
    """(task id, size) of the per-task batches that split n samples.  Raises
    TaskRangeError, before anything runs, when these tasks and `extra` more
    would need more than the 2**TASK_BITS task streams of one seed."""
    limit = ((1 << TASK_BITS) - extra) * per_task
    if n > limit:
        raise TaskRangeError(f"{what} = {n} is past the limit {limit}: a "
                             f"run draws from at most 2**{TASK_BITS} task "
                             f"streams")
    return [(t, min(per_task, n - t * per_task))
            for t in range(-(-n // per_task))]


class UniformReader:
    """Uniforms of one generator, read WILSON_BLOCK at a time.

    `draws` iterates over the unread tail of the current block; a reader
    takes its next item and calls `refill` once it is spent.  With
    `shared`, the generator belongs to a caller: the reader keeps the state
    each block started from, and `hand_back` moves the generator to just
    after the last uniform read.  A task's own stream needs neither.
    """

    def __init__(self, rng, shared=False):
        self.rng = rng
        self.shared = shared
        self._state = None
        self.draws = iter(())  # the first read refills

    def refill(self):
        if self.shared:
            self._state = self.rng.bit_generator.state
        self.draws = iter(self.rng.random(WILSON_BLOCK).tolist())
        return self.draws

    def next(self):
        for u in self.draws:
            return u
        return next(self.refill())

    def hand_back(self):
        if self._state is not None:
            self.rng.bit_generator.state = self._state
            self.rng.random(WILSON_BLOCK - length_hint(self.draws))
            self._state = None
            self.draws = iter(())


class TransitionTable:
    """Per-vertex cumulative transition table of the killed walk.

    Row x holds Python lists of targets and cumulative probabilities: x's
    out-edges in edge order, then the death event when m(x) > 0.  Sampling
    one step is a single uniform plus a `bisect_right`, which picks the
    same index as `np.searchsorted(cum, u, side="right")`.  The rows are
    read off the graph's CSR and c^k, and p / c^k(x) is accumulated along
    the rows one row position at a time, as `itertools.accumulate` adds.
    """

    def __init__(self, g: WeightedGraph):
        self.g = g
        deg = np.diff(g.out_ptr)
        dies = g.masses_f > 0
        stop = np.cumsum(deg + dies)
        start = stop - deg - dies
        row = np.repeat(np.arange(g.n), deg + dies)
        place = np.arange(len(row)) - start[row]  # position in the row
        edge = place < deg[row]
        targets = np.full(len(row), ROOT)
        targets[edge] = g.head[g.out_order]
        cum = np.empty(len(row))
        cum[edge], cum[~edge] = g.cond_f[g.out_order], g.masses_f[dies]
        cum /= g.ck_f[row]
        by_place = np.argsort(place, kind="stable")
        bounds = np.cumsum(np.bincount(place)).tolist()
        for a, b in zip(bounds, bounds[1:]):
            cum[by_place[a:b]] += cum[by_place[a:b] - 1]
        cum[stop[stop > start] - 1] = 1.0
        ptr = np.r_[0, stop].tolist()
        self.targets, self.cum = (
            list(map(v.tolist().__getitem__, map(slice, ptr, ptr[1:])))
            for v in (targets, cum))

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
    if not (g.masses != 0).any() and not roots:
        raise ValueError("Wilson rooted at the cemetery needs m != 0")


def _wilson_successors(table: TransitionTable, reader: UniformReader, order,
                       roots):
    """Successor list of one Wilson forest; ROOT marks roots and deaths.

    Each step reads the next uniform of `reader`; the walks of one forest
    may read at most about WILSON_STEP_CAP of them, read at call time.
    """
    cum, targets = table.cum, table.targets
    n = len(cum)
    nxt = [ROOT] * n
    in_tree = [False] * n + [True]  # in_tree[ROOT] (index -1) stops a walk
    for r in roots:
        if not 0 <= r < n:
            raise ValueError(f"root {r} is not a vertex")
        in_tree[r] = True
    draws = reader.draws
    used = length_hint(draws) - WILSON_BLOCK  # read, less the block's tail
    for start in order:
        x = start
        while not in_tree[x]:
            for u in draws:
                # u < 1 = cum[x][-1], so the index stays inside the row
                y = targets[x][bisect_right(cum[x], u)]
                nxt[x] = y
                x = y
                if in_tree[y]:
                    break
            else:
                used += WILSON_BLOCK
                if used >= WILSON_STEP_CAP:
                    raise RuntimeError(
                        "Wilson step cap exceeded; killed walk may not die "
                        "a.s.")
                draws = reader.refill()
        x = start
        while not in_tree[x]:
            in_tree[x] = True
            x = nxt[x]
    return nxt


def wilson_sample(g: WeightedGraph, rng, order=None, table=None,
                  roots=()) -> RootedForest:
    """Wilson's algorithm rooted at the cemetery (or at given root vertices).

    Runs killed walks from each unvisited vertex; the successor-overwrite
    trick performs the chronological loop erasure.  Output is a rooted
    spanning forest of g with the Boltzmann law; with `roots` given and no
    masses, it is a spanning tree/forest rooted at those vertices.  Each
    step reads one uniform of `rng`, which is left just after the last.
    An `order` not a permutation of the vertices is refused before a draw.
    """
    _check_rooted(g, roots)
    if order is None:
        order = range(g.n)
    elif sorted(order) != list(range(g.n)):
        raise ValueError("Wilson order must list every vertex once")
    if table is None:
        table = TransitionTable(g)
    reader = UniformReader(rng, shared=True)
    nxt = _wilson_successors(table, reader, order, roots)
    reader.hand_back()
    return RootedForest(g.n, nxt)


class WilsonEdgeCounter:
    """Directed-edge counts over independent Wilson forests of one graph.

    `pairs` lists the distinct directed edges, then (x, ROOT) for every
    massive x.  Forests are split into tasks of PER_TASK; task t draws
    its forests from rng_stream(seed, t), so summed counts depend only on
    (seed, n_samples), whatever runs the tasks.
    """

    PER_TASK = 1000

    def __init__(self, g: WeightedGraph, roots=()):
        _check_rooted(g, roots)
        self.table = TransitionTable(g)
        self.roots = roots
        # (x, y) has code x (n + 1) + y + 1, so (x, ROOT) has code x (n + 1):
        # the distinct edges' codes sorted, then the massive vertices'
        edges = np.sort(g.tail * (g.n + 1) + g.head + 1)
        codes = np.r_[edges[np.diff(edges, prepend=-1) != 0],
                      np.flatnonzero(g.masses > 0) * (g.n + 1)]
        tail, head = np.divmod(codes, g.n + 1)
        self.pairs = list(zip(tail.tolist(), (head - 1).tolist()))
        # the sorted codes end with a sentinel that no successor reaches
        self._sort = np.argsort(codes)
        self._codes = np.append(codes[self._sort], (g.n + 1) ** 2)
        self._tail_codes = np.arange(g.n, dtype=np.int64) * (g.n + 1) + 1

    def task_counts(self, n_samples, seed, task):
        """Counts over `pairs` of task `task`'s forests.

        The task reads its forests from one reader on rng_stream(seed,
        task) and counts them COUNT_CHUNK at a time.  A successor outside
        `pairs` (a given root without mass) is not counted.
        """
        reader = UniformReader(rng_stream(seed, task))
        k = min(self.PER_TASK, n_samples - task * self.PER_TASK)
        order = range(len(self._tail_codes))
        hits = np.zeros(len(self.pairs), dtype=np.int64)
        codes = np.empty((min(k, COUNT_CHUNK), len(order)), dtype=np.int64)
        for done in range(0, k, COUNT_CHUNK):
            chunk = codes[:min(COUNT_CHUNK, k - done)]
            for row in chunk:
                row[:] = _wilson_successors(self.table, reader, order,
                                            self.roots)
            chunk += self._tail_codes
            i = np.searchsorted(self._codes, chunk)
            hits += np.bincount(i[self._codes[i] == chunk],
                                minlength=len(hits))
        counts = np.empty_like(hits)
        counts[self._sort] = hits
        return counts

    def counts(self, n_samples, seed, map=map):
        """Counts over `pairs` of all n_samples forests.

        The sum of `task_counts` over the tasks, in task order; `map` runs
        them (an executor's `map` runs them in a pool).  More forests than
        the task streams hold raise TaskRangeError before any task runs.
        """
        ids = [t for t, _ in tasks(n_samples, self.PER_TASK)]
        total = np.zeros(len(self.pairs), dtype=np.int64)
        for counts in map(partial(self.task_counts, n_samples, seed), ids):
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
