"""Near-critical Monte Carlo experiments on the square isoradial lattice.

The regime ties the elliptic nome to the mesh, q = M*delta/2, which makes
the killing probability of order delta^2.  Crossing, exit law, conditioned
branch and LERW ratio share one walker engine, `_walk`: exact integer
lattice sites (at spacing * (i + 1j * j)) under a boolean stop table,
vectorized over walkers, drawing from counter-based per-task streams keyed
by the seed.  A walker far from the stop set takes up to JUMP_MAX steps
from one uniform, drawn from the exact multi-step law; runs that record
paths or share a coupled uniform block take single steps.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import (
    exponential_edge_factor,
    mass_value,
    near_critical_modulus,
    sc,
)
from .walks import TASK_BITS, loop_erase, rng_stream, tasks

SQRT2 = math.sqrt(2.0)


class SquareLatticeKernel:
    """Transition data of the (killed or drifted) walk on sqrt(2)*delta*Z^2.

    Directions are E, N, W, S.  The drifted kernel tilts by the discrete
    exponential with drift u_bar; the killed kernel carries the elliptic
    mass.  Both kernels coincide at M = 0.  A mesh delta that is not a
    finite positive number raises ValueError.
    """

    RAYS = {
        "E": (-math.pi / 4, math.pi / 4),
        "N": (math.pi / 4, 3 * math.pi / 4),
        "W": (3 * math.pi / 4, 5 * math.pi / 4),
        "S": (-3 * math.pi / 4, -math.pi / 4),
    }

    def __init__(self, M, delta, u_bar=None):
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError(f"mesh delta = {delta} must be finite and > 0")
        self.M = float(M)
        self.delta = float(delta)
        self.spacing = SQRT2 * delta
        self.mod = near_critical_modulus(M, delta)
        self.c = sc(self.mod.abstract_angle(math.pi / 4), self.mod)
        # the drifted walk carries no mass
        self.m2 = mass_value([math.pi / 4] * 4, self.mod) \
            if M > 0 and u_bar is None else 0.0
        self.u_bar = u_bar
        if u_bar is None:
            cond = np.full(4, self.c)
            self.p_die = self.m2 / (self.m2 + cond.sum())
        else:
            factors = np.array([self.edge_factor(d, u_bar)
                                for d in ("E", "N", "W", "S")])
            cond = self.c * factors
            self.p_die = 0.0
        self.cond = cond
        self.p_dirs = (1.0 - self.p_die) * cond / cond.sum()
        # u picks the direction whose dir_cum interval holds it and kills
        # iff its relative place there is < p_die: directions ignore mass
        self.dir_cum = np.cumsum(cond / cond.sum())
        self.dir_cum[-1] = 1.0
        self._tables = {}

    def tables(self, s_max):
        """The walker engine's outcome tables up to s_max steps
        (`_jump_tables`), built on first use."""
        if s_max not in self._tables:
            self._tables[s_max] = _jump_tables(self, s_max)
        return self._tables[s_max]

    def edge_factor(self, direction, u_bar):
        a, b = self.RAYS[direction]
        return exponential_edge_factor(a, b, u_bar, self.mod)

    def exponential(self, displacement, u_bar):
        """e_(x,y) for a lattice displacement (complex, in plane units)."""
        di = round(displacement.real / self.spacing)
        dj = round(displacement.imag / self.spacing)
        return self.edge_factor("E", u_bar) ** di * \
            self.edge_factor("N", u_bar) ** dj


# -- the lattice-walker engine -------------------------------------------------

STEP_CAP = 10**7
EXIT_TASK = 1 << 14  # walkers per exit-law task
JUMP_MAX = 64  # the longest jump, in lattice steps; a power of two
GUIDE_CELLS = 1 << 12  # guide cells per outcome table; a power of two

# Concatenated outcome tables (see `_jump_tables`): table t, the law of 2**t
# steps, holds outcomes last[t-1] + 1 .. last[t]; each outcome moves the
# walker by (dx, dy) lattice units, or kills it (dead), after `steps` steps.
# Guide cell c = t * (GUIDE_CELLS + 1) + i of table t spans the draws
# t + [i, i + 1) / GUIDE_CELLS, whose outcomes lie in [lo[c], hi[c]]; wide[c]
# marks the cells that hold more than one CDF boundary
_Tables = namedtuple("_Tables", "cdf last dx dy dead steps lo hi wide")


def _death_edge(lo, hi, p_die):
    """Smallest double u in [lo, hi] with (u - lo) / (hi - lo) >= p_die.

    Bisection over the int64 view, which orders non-negative doubles, so
    u < edge reproduces the residual split's death test for every double u.
    """
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


def _jump_tables(kernel, s_max):
    """Outcome tables of the walk over S = 1, 2, 4, ..., s_max steps.

    Table 0 is the single step exactly as the residual split draws it: for
    direction j, u in [cum_{j-1}, t_j) dies and u in [t_j, cum_j) moves j,
    with t_j from `_death_edge`, so searchsorted over its 8 boundaries
    picks what the split picks for every double u.  Table t >= 1 is the
    exact law of S = 2**t steps: death at step k (probability
    (1 - p_die)**(k-1) p_die, k = 1..S) or survival with the S-fold
    convolution of the direction law.  Table t's CDF is stored shifted by
    +t, so searchsorted(cdf, u + t) draws from it.  The S-step laws come
    from one sweep of s_max single-step updates, each a sum of four
    shifted non-negative arrays (no cancellation).

    The guide holds, for each table t and i = 0..GUIDE_CELLS, the outcome
    min(searchsorted(cdf, t + i / GUIDE_CELLS, 'right'), last[t]); `lo`
    and `hi` are its entries at the two edges of each cell.
    """
    cum, p = kernel.dir_cum, kernel.p_die
    lower = np.concatenate(([0.0], cum[:-1]))
    cdf = [np.ravel([(_death_edge(lo, hi, p), hi)
                     for lo, hi in zip(lower, cum)])]
    dx = [np.array([0, 1, 0, 0, 0, -1, 0, 0])]
    dy = [np.array([0, 0, 0, 1, 0, 0, 0, -1])]
    dead, steps, last = [np.arange(8) % 2 == 0], [np.ones(8, int)], [7]
    w = kernel.cond / kernel.cond.sum()
    law = np.zeros((2 * s_max + 1, 2 * s_max + 1))
    law[s_max, s_max] = 1.0
    for s in range(1, s_max + 1):
        # the support grows to |dx| + |dy| <= s inside this window
        old = law[s_max - s:s_max + s + 1, s_max - s:s_max + s + 1]
        new, old = old, old.copy()
        new[...] = 0.0
        new[1:] += w[0] * old[:-1]          # E: dx + 1
        new[:, 1:] += w[1] * old[:, :-1]    # N: dy + 1
        new[:-1] += w[2] * old[1:]          # W
        new[:, :-1] += w[3] * old[:, 1:]    # S
        if s & (s - 1) or s == 1:
            continue
        die = p * (1 - p) ** np.arange(s)
        alive = (1 - p) ** s * law
        die_k = np.flatnonzero(die)
        i, j = np.nonzero(alive)
        prob = np.concatenate((die[die_k], alive[i, j]))
        cdf.append(len(last) + np.minimum(np.cumsum(prob), 1.0))
        dx.append(np.concatenate((np.zeros_like(die_k), i - s_max)))
        dy.append(np.concatenate((np.zeros_like(die_k), j - s_max)))
        dead.append(np.arange(prob.size) < die_k.size)
        steps.append(np.concatenate((die_k + 1, np.full(i.size, s))))
        last.append(last[-1] + prob.size)
    cdf, last = np.concatenate(cdf), np.array(last)
    edges = np.arange(len(last))[:, None] \
        + np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
    guide = np.minimum(np.searchsorted(cdf, edges, side="right"),
                       last[:, None]).astype(np.intp).ravel()
    lo, hi = guide[:-1], guide[1:]
    return _Tables(cdf, last, np.concatenate(dx).astype(np.int32),
                   np.concatenate(dy).astype(np.int32),
                   np.concatenate(dead), np.concatenate(steps),
                   lo, hi, hi - lo > 1)


def _lookup(tab, x, cell):
    """The outcome min(searchsorted(tab.cdf, x, 'right'), tab.last[t]) of
    the draw x = fl(u + t), u in [0, 1), in guide cell
    cell = t (GUIDE_CELLS + 1) + floor(u GUIDE_CELLS).

    With G = GUIDE_CELLS and i = floor(u G), the edges x_i = t + i / G
    and x_{i+1} are exact doubles and rounding is monotone, so
    x_i <= x <= x_{i+1} and the outcome lies in [lo, hi] = [tab.lo[cell],
    tab.hi[cell]], the guide entries of the two edges.  If hi <= lo + 1 a
    single comparison with cdf[lo] decides it; the few draws whose cell
    holds more than one CDF boundary fall back to searchsorted.  Clamping
    at hi is clamping at last[t]: hi is itself clamped there, and
    searchsorted is monotone.  Every double u gets the outcome the
    searchsorted over the whole CDF gives.
    """
    k, hi = tab.lo[cell], tab.hi[cell]
    k += tab.cdf[k] <= x
    wide = tab.wide[cell]
    if np.count_nonzero(wide):
        wide = wide.nonzero()[0]
        k[wide] = np.searchsorted(tab.cdf, x[wide], side="right")
    return np.minimum(k, hi, out=k)


def _outcome(tab, u, t):
    """min(searchsorted(tab.cdf, u + t, 'right'), tab.last[t]) for u in
    [0, 1) and table indices t: `_lookup` on the cell and draw that
    `_walk` builds from the walker's site."""
    cell = (u * GUIDE_CELLS).astype(np.intp)
    cell += t.astype(np.intp) * (GUIDE_CELLS + 1)
    return _lookup(tab, u + t, cell)


class _Box:
    """Lattice sites of the plane box lo..hi plus one site of margin.

    Site (i, j) with flat index k sits at z[k] = spacing * (i + 1j * j);
    `stop = stop_of(z)`, and `moves` are the flat offsets of the E, N, W
    and S steps.
    """

    def __init__(self, spacing, lo, hi, stop_of):
        i0 = math.floor(lo.real / spacing) - 1
        j0 = math.floor(lo.imag / spacing) - 1
        i, j = np.mgrid[i0:math.ceil(hi.real / spacing) + 2,
                        j0:math.ceil(hi.imag / spacing) + 2]
        self.spacing, self.origin, self.shape = spacing, (i0, j0), i.shape
        self.z = (spacing * (i + 1j * j)).ravel()
        self.stop = stop_of(self.z)
        self.moves = np.array([i.shape[1], 1, -i.shape[1], -1], np.int32)

    def site(self, i, j):
        a, b = i - self.origin[0], j - self.origin[1]
        if not (0 < a < self.shape[0] - 1 and 0 < b < self.shape[1] - 1):
            raise ValueError(f"site ({i}, {j}) is outside the domain box")
        return a * self.shape[1] + b

    def nearest(self, z):
        return self.site(round(z.real / self.spacing),
                         round(z.imag / self.spacing))

    @cached_property
    def jump_index(self):
        """Per site, the table index t of the longest safe jump.

        2**t is the largest power of two <= min(JUMP_MAX, d - 1), where d
        is the L1 lattice distance to the stop set (the array edge counts
        as stop), or t = 0, one step, next to it.  No path of 2**t steps
        from the site reaches a stop site.  Computed on first use from
        `stop`, by min-plus relaxation capped at JUMP_MAX + 1.
        """
        d = np.where(self.stop.reshape(self.shape), 0, JUMP_MAX + 1)
        d[[0, -1]] = 0
        d[:, [0, -1]] = 0
        for _ in range(JUMP_MAX):
            inner = d[1:-1, 1:-1]
            np.minimum(inner, np.minimum(
                np.minimum(d[:-2, 1:-1], d[2:, 1:-1]),
                np.minimum(d[1:-1, :-2], d[1:-1, 2:])) + 1, out=inner)
        return (np.frexp(np.maximum(d.ravel() - 1, 1))[1] - 1).astype(np.int8)


def _disk_box(spacing, radius):
    """Walkers stop on leaving the open disk |z| < radius."""
    corner = radius * complex(1, 1)
    return _Box(spacing, -corner, corner, lambda z: np.abs(z) >= radius)


def _crossing_box(spec, kernel):
    """(box, target mask, start): stop outside the closed rectangle or in
    the open target ball of radius r/4."""
    lo, hi = spec.rectangle()
    box = _Box(kernel.spacing, lo, hi, lambda z: (z.real < lo.real)
               | (z.real > hi.real) | (z.imag < lo.imag) | (z.imag > hi.imag))
    start = box.nearest(spec.start_center())
    if abs(box.z[start] - spec.start_center()) > spec.r / 4:
        raise ValueError("no lattice site inside the start ball")
    target = np.abs(box.z - spec.target_center()) < spec.r / 4
    box.stop |= target
    return box, target, start


# per walker: the flat site where it stopped, the one before, whether it
# died and the lattice steps it took; paths (record only): the sites each
# walker visited after the start
_Walkers = namedtuple("_Walkers", "final prev died steps truncated paths")


def _walk(kernel, box, start, n, rng, max_steps, uniforms=None,
          record=False):
    """Run n walkers from flat site `start` until each dies or stops.

    Each iteration draws one uniform per active walker (in walker order)
    from `rng`, or reads the active walker ids of row `iteration` of a
    pre-drawn block `uniforms`, which couples the runs of different kernels.
    The uniform u picks an outcome of the walker's table t in
    `_jump_tables`; `_lookup` finds it from the guide, mostly with one
    comparison, and picks for every double u what a binary search of the CDF
    picks.  What the lookup needs of t, the first guide cell of t and t as a
    float, is built once per call for every site and gathered by site each
    iteration.  A walker whose L1 distance d to the stop set has d - 1 >= S
    takes S = 2**t steps (`box.jump_index`) at once from the exact S-step
    law, a lattice walk-on-spheres; next to the stop set it takes one step,
    drawn exactly as the residual split draws it.  A jump never lands on or
    crosses a stop site, so `prev -> final` of a walker that leaves alive is
    one lattice step.  A walker killed inside a jump reports its jump-start
    site as `final`, and `steps` counts the step it died on.  With `record`
    (every visited site) or `uniforms` (one row per lattice step) every
    walker takes single steps, and the output is that of the one-step loop
    bit for bit.  Each walker has a budget of `max_steps` lattice steps;
    jumps are cut to the budget once fewer than 2 JUMP_MAX steps may be
    left.  Walkers still running when it runs out raise a RuntimeWarning.
    """
    if record or uniforms is not None:
        tix, s_max = np.zeros(box.z.size, np.int8), 1
    else:
        tix, s_max = box.jump_index, JUMP_MAX
    tab = kernel.tables(s_max)
    # per site: the first guide cell of its table, and the table index as
    # a float; adding it to the double u widens it before the sum
    cell_of = tix.astype(np.int32) * (GUIDE_CELLS + 1)
    t_of = tix.astype(np.float32)
    # sites are intp: numpy gathers by an intp index without a cast
    offset = (tab.dx * box.shape[1] + tab.dy).astype(np.intp)
    site = np.full(n, start, dtype=np.intp)
    # taken: the steps of the active walkers so far
    ids, taken, visits = np.arange(n), np.zeros(n, np.int64), []
    final, prev, died = site.copy(), site.copy(), np.zeros(n, dtype=bool)
    steps, truncated = np.zeros(n, np.int64), 0
    for it in itertools.count():
        if max_steps - it * s_max < 2 * s_max:
            left = max_steps - taken
            out = left <= 0
            if out.any():
                final[ids[out]], steps[ids[out]] = site[out], taken[out]
                truncated += int(out.sum())
                keep = ~out
                ids, site, taken, left = (a[keep] for a in
                                          (ids, site, taken, left))
            t = np.minimum(tix[site], np.frexp(left)[1] - 1)
            base = t * (GUIDE_CELLS + 1)
        else:
            base, t = cell_of[site], t_of[site]
        if ids.size == 0:
            break
        u = rng.random(ids.size) if uniforms is None else uniforms[it][ids]
        # a float scalar: numpy multiplies by it faster than by an int
        cell = (u * float(GUIDE_CELLS)).astype(np.intp)
        cell += base
        u += t
        k = _lookup(tab, u, cell)
        new = offset[k]
        new += site
        taken += tab.steps[k]
        dead = tab.dead[k]
        stop = box.stop[new]
        stop |= dead
        if record:
            visits.append((ids, new))
        if np.count_nonzero(stop):
            done = ids[stop]
            final[done], prev[done] = new[stop], site[stop]
            died[done], steps[done] = dead[stop], taken[stop]
            keep = ~stop
            ids, new, taken = ids[keep], new[keep], taken[keep]
        site = new
    if truncated:
        warnings.warn(f"{truncated} of {n} walkers were still running after "
                      f"{max_steps} steps and count as misses",
                      RuntimeWarning, stacklevel=3)
    paths = []
    if record and visits:
        who, where = (np.concatenate(v) for v in zip(*visits))
        ends = np.cumsum(np.bincount(who, minlength=n))[:-1]
        paths = np.split(where[np.argsort(who, kind="stable")], ends)
    return _Walkers(final, prev, died, steps, truncated, paths)


# -- Girsanov ratio ------------------------------------------------------------


def _path_ratios(killed, drifted, box, x, y):
    """(exact finite-delta, Girsanov target) ratios P(drifted) / P(killed)
    of a lattice path from site x to site y that then leaves the window.

    The gauge telescopes along the path to the exponential between its
    ends and the Green diagonals cancel, leaving the death ratio at y; the
    target is exp(2M <e^{iu}, y - x>).
    """
    dz, out, u = box.z[y] - box.z[x], box.stop[y + box.moves], drifted.u_bar
    exact = drifted.exponential(dz, u) * drifted.cond[out].sum() \
        / (killed.m2 + killed.cond[out].sum())
    return exact, math.exp(2 * drifted.M * (math.cos(u) * dz.real
                                            + math.sin(u) * dz.imag))


def girsanov_ratio_check(M, u_bar, deltas, radius=1.0):
    """Deterministic path-probability ratios against the Girsanov target.

    For each delta, takes the straight east path from the origin to the
    boundary of the disk window and evaluates the exact finite-volume ratio
    P(drifted walk follows it then exits) / P(killed walk follows it then
    exits or dies); the comparison value is exp(2M <e^{iu}, y - x>).
    Returns rows (delta, ratio, target, |ratio - target|).
    """
    rows = []
    for d in deltas:
        killed = SquareLatticeKernel(M, d)
        box = _disk_box(killed.spacing, radius)
        x = y = box.site(0, 0)
        while not box.stop[y + box.moves[0]]:
            y += box.moves[0]
        if y == x:
            raise ValueError("window too small for a straight path")
        drifted = SquareLatticeKernel(M, d, u_bar=u_bar)
        ratio, target = _path_ratios(killed, drifted, box, x, y)
        rows.append((d, ratio, target, abs(ratio - target)))
    return rows


# -- LERW ratio ----------------------------------------------------------------


def _window_graph(kernel, box):
    """Wired window of the sites where `box` does not stop, in row order.

    Each missing neighbor adds its conductance to the site's mass.  Returns
    (WeightedGraph, vertex of each flat site or -1 off the window).
    """
    from .graphs import WeightedGraph

    inside = np.flatnonzero(~box.stop)
    vertex = np.full(box.z.size, -1)
    vertex[inside] = np.arange(inside.size)
    nbr = vertex[inside[:, None] + box.moves]        # (site, direction)
    masses = np.full(inside.size, kernel.m2)
    for k, c in enumerate(kernel.cond):
        masses += np.where(nbr[:, k] < 0, c, 0.0)
    tail, k = np.nonzero(nbr >= 0)
    z = box.z[inside]
    return WeightedGraph(inside.size, (tail, nbr[tail, k], kernel.cond[k]),
                         masses, positions=np.column_stack((z.real, z.imag)),
                         check=False), vertex


def lerw_ratio_check(M, u_bar, delta, gamma_sites, n_samples, seed,
                     radius=0.35):
    """Monte Carlo LERW ratio against the Girsanov target.

    gamma_sites is a short simple path in lattice coordinates starting at
    the origin.  The drifted-arm probability is estimated by sampling the
    drifted walk until it leaves the disk; the killed-arm probability is
    computed exactly as det V[gamma, gamma] of the window's potential times
    the step and death probabilities ("exact-count denominator").  Returns
    (empirical ratio, target ratio, stderr of the ratio, exact finite-delta
    ratio).
    """
    from .walks import lerw_exact_probability

    killed = SquareLatticeKernel(M, delta)
    drifted = SquareLatticeKernel(M, delta, u_bar=u_bar)
    box = _disk_box(killed.spacing, radius)
    killed_g, vertex = _window_graph(killed, box)
    path = [box.site(i, j) for (i, j) in gamma_sites]
    if min(vertex[path]) < 0:
        raise ValueError("gamma leaves the disk window")
    p_killed = lerw_exact_probability(killed_g, vertex[path].tolist())
    if p_killed == 0:
        raise ZeroDivisionError("killed arm has zero probability")

    hits = 0
    for task, todo in tasks(n_samples, 4096):
        w = _walk(drifted, box, path[0], todo, rng_stream(seed, task),
                  STEP_CAP, record=True)
        # the last visit is the exit site, off the window graph
        hits += sum(loop_erase([path[0]] + visited[:-1].tolist()) == path
                    for visited, final in zip(w.paths, w.final)
                    if box.stop[final])
    p_drift = hits / n_samples
    ratio = p_drift / p_killed
    stderr = math.sqrt(max(p_drift * (1 - p_drift), 1e-12) / n_samples) \
        / p_killed
    exact, target = _path_ratios(killed, drifted, box, path[0], path[-1])
    return ratio, target, stderr, exact


# -- uniform crossing ---------------------------------------------------------


@dataclass
class CrossingSpec:
    r: float
    z: complex = 0.0 + 0.0j
    horizontal: bool = True

    def rectangle(self):
        if self.horizontal:
            return (self.z, self.z + self.r * complex(3, 1))
        return (self.z, self.z + self.r * complex(1, 3))

    def start_center(self):
        return self.z + self.r * complex(0.5, 0.5)

    def target_center(self):
        if self.horizontal:
            return self.z + self.r * complex(2.5, 0.5)
        return self.z + self.r * complex(0.5, 2.5)


def crossing_probability(spec: CrossingSpec, delta, M, n_samples, seed,
                         max_steps=None, coupled_uniforms=None):
    """MC estimate of P(hit the target ball before leaving R or dying).

    Walkers start at the lattice site nearest the start-ball center.  With
    `coupled_uniforms` a pre-drawn uniform block (row per step, column per
    walker) is reused, which couples estimates across masses: the same
    trajectories with earlier deaths.  Walkers still running after
    `max_steps` count as misses and raise a RuntimeWarning.
    Returns (estimate, stderr).
    """
    return _crossing_cell(spec, delta, M, n_samples, rng_stream(seed, 0),
                          max_steps, coupled_uniforms)


def _crossing_cell(spec, delta, M, n_samples, rng, max_steps=None,
                   coupled_uniforms=None):
    """`crossing_probability` with its walkers drawn from rng."""
    kernel = SquareLatticeKernel(M, delta)
    box, target, start = _crossing_box(spec, kernel)
    if max_steps is None:
        max_steps = int(40 * (3 * spec.r / kernel.spacing) ** 2) + 1000
    w = _walk(kernel, box, start, n_samples, rng, max_steps,
              uniforms=coupled_uniforms)
    est = float(np.count_nonzero(~w.died & target[w.final])) / n_samples
    stderr = math.sqrt(max(est * (1 - est), 1e-12) / n_samples)
    return est, stderr


def crossing_grid(radii=(0.1, 0.3, 1.0), masses=(0.0, 1.0),
                  translations=(0j, 0.37 + 0.11j, -1.2 - 0.53j),
                  n_samples=10**5, seed=0, delta_ratio=1 / 64):
    """The full crossing battery; yields (spec, M, delta, estimate, stderr).

    Cell k draws from `rng_stream(seed, k)`, so no two cells of a run, nor
    of runs at other seeds, share a stream.
    """
    rows = []
    cells = list(itertools.product(radii, (True, False), translations,
                                   masses))
    tasks(len(cells), 1, what="cells")  # refuses too many cells up front
    for task, (r, horizontal, z, M) in enumerate(cells):
        spec = CrossingSpec(r=r, z=z, horizontal=horizontal)
        est, se = _crossing_cell(spec, r * delta_ratio, M, n_samples,
                                 rng_stream(seed, task))
        rows.append((spec, M, r * delta_ratio, est, se))
    return rows


# -- exit law ------------------------------------------------------------------


def _arc_bin(angles, n_arcs):
    """Arc index with bins centered on the symmetry axes.

    Centering keeps the atomic lattice exit angles (0, pi/2, ...) in the
    middle of a bin, away from floating-point knife edges.
    """
    width = 2 * math.pi / n_arcs
    shifted = (np.asarray(angles) + width / 2) % (2 * math.pi)
    return np.minimum((shifted / width).astype(int), n_arcs - 1)


def _circle_crossing_angle(p, q, radius):
    """Angle where the segment p -> q (p inside, q outside) meets the circle."""
    d = q - p
    a = np.abs(d) ** 2
    b = 2 * (p.real * d.real + p.imag * d.imag)
    c = np.abs(p) ** 2 - radius * radius
    t = (-b + np.sqrt(np.maximum(b * b - 4 * a * c, 0.0))) / (2 * a)
    z = p + t * d
    return np.angle(z) % (2 * math.pi)


def _exit_arcs(box, w, radius, n_arcs):
    """(walker ids, arcs) of the walkers that left the disk alive."""
    out = np.flatnonzero(~w.died & box.stop[w.final])
    ang = _circle_crossing_angle(box.z[w.prev[out]], box.z[w.final[out]],
                                 radius)
    return out, _arc_bin(ang, n_arcs)


def exit_law_walk(M, u_bar, delta, n_samples, seed, radius=1.0, n_arcs=16,
                  drifted=True):
    """Exit-arc histogram of the drifted (or killed) walk from the disk centre.

    The recorded exit location is where the walk's last step crosses the
    domain boundary, the natural discrete stand-in for the Brownian exit
    point.
    """
    kernel = SquareLatticeKernel(M, delta, u_bar=u_bar if drifted else None)
    box = _disk_box(kernel.spacing, radius)
    counts = np.zeros(n_arcs, dtype=np.int64)
    for task, todo in tasks(n_samples, EXIT_TASK):
        w = _walk(kernel, box, box.nearest(0j), todo,
                  rng_stream(seed, task), STEP_CAP)
        counts += np.bincount(_exit_arcs(box, w, radius, n_arcs)[1],
                              minlength=n_arcs)
    return counts, int(counts.sum())


def exit_law_brownian(M, u_bar, delta, n_samples, seed, radius=1.0,
                      n_arcs=16):
    """Exit-arc histogram of drifted Brownian motion from the disk centre.

    Brownian motion with drift 2M e^{i u_bar} leaves the disk at a von
    Mises angle with mean u_bar and concentration 2 M radius (Girsanov plus
    the independence of the exit time and the exit point from the centre),
    so the angles are drawn exactly.  `delta` is kept so the call matches
    `exit_law_walk`; the continuum law does not depend on it.
    """
    return _brownian_exits(M, u_bar, n_samples, seed, 0, radius, n_arcs)


def _brownian_exits(M, u_bar, n_samples, seed, task, radius=1.0, n_arcs=16):
    """`exit_law_brownian` drawn from `rng_stream(seed, task)`."""
    if M < 0:
        raise ValueError(f"mass parameter M = {M} must be nonnegative")
    angles = rng_stream(seed, task).vonmises(u_bar, 2 * M * radius,
                                             n_samples)
    counts = np.bincount(_arc_bin(angles, n_arcs), minlength=n_arcs)
    return counts.astype(np.int64), int(n_samples)


def exit_law_pair(M, u_bar, delta, n_samples, seed):
    """(walk counts, Brownian counts) of one exit-law run, on disjoint
    streams.

    The walk leg is `exit_law_walk`, on tasks 0, 1, ... of seed; the
    Brownian leg draws from the first task after them.  The one-draw
    Brownian leg runs first, so an input it refuses stops the run before
    the walk leg.
    """
    brownian, _ = _brownian_exits(M, u_bar, n_samples, seed,
                                  len(tasks(n_samples, EXIT_TASK, extra=1)))
    walk, _ = exit_law_walk(M, u_bar, delta, n_samples, seed)
    return walk, brownian


def exit_law_continuum(M, u_bar, radius=1.0, n_arcs=16):
    """Exact `_arc_bin` arc masses of the exit law of `exit_law_brownian`.

    The von Mises density (1 + 2 sum_k rho_k cos k(t - u_bar)) / 2 pi, with
    rho_k = I_k(kappa) / I_0(kappa) and kappa = 2 M radius, integrated over
    each arc.  Past k = kappa + 10 sqrt(kappa) + 20, rho_k < 1e-40.
    """
    from scipy.special import ive

    kappa = 2 * M * radius
    k = np.arange(1, int(kappa + 10 * math.sqrt(kappa)) + 21)
    rho = ive(k, kappa) / ive(0, kappa)
    width = 2 * math.pi / n_arcs
    centers = width * np.arange(n_arcs) - u_bar
    terms = (rho / k * np.sin(k * width / 2)) * np.cos(np.outer(centers, k))
    return 1 / n_arcs + 2 / math.pi * terms.sum(axis=1)


def total_variation(counts_a, counts_b):
    p = counts_a / max(counts_a.sum(), 1)
    q = counts_b / max(counts_b.sum(), 1)
    return 0.5 * float(np.abs(p - q).sum())


# -- conditioned branch sampler ------------------------------------------------


def conditioned_branch_sampler(M, delta, target_arc, n_accepted, seed,
                               radius=1.0, n_arcs=16, max_attempts=None):
    """Killed LERW from the disk centre conditioned on surviving and
    exiting through an arc.

    Rejection sampling: run the killed walk until death or exit; keep the
    loop erasure when it exits in the target arc.  Each task runs 2048
    walkers in lockstep and is scanned in walker order; attempts count up
    to the last walker scanned.  Returns (paths, acceptance rate); aborts
    when the acceptance rate is hopeless, by default below 1e-4.  A
    target arc outside 0..n_arcs-1 raises ValueError before any walk.
    """
    if not 0 <= target_arc < n_arcs:
        raise ValueError(
            f"target_arc {target_arc} is outside 0..{n_arcs - 1}")
    kernel = SquareLatticeKernel(M, delta)
    box = _disk_box(kernel.spacing, radius)
    start_site = box.nearest(0j)
    if max_attempts is None:
        max_attempts = max(int(n_accepted / 1e-4), 10**5)
    per_task = 2048
    # every task walks per_task walkers; the task streams cap the attempts
    max_attempts = min(max_attempts, (1 << TASK_BITS) * per_task)
    paths, attempts = [], 0
    for task, _ in tasks(max_attempts, per_task):
        if len(paths) >= n_accepted:
            break
        w = _walk(kernel, box, start_site, per_task, rng_stream(seed, task),
                  STEP_CAP, record=True)
        out, arcs = _exit_arcs(box, w, radius, n_arcs)
        take = out[arcs == target_arc][: n_accepted - len(paths)]
        done = len(paths) + take.size == n_accepted
        attempts += int(take[-1]) + 1 if done else per_task
        for i in take:
            erased = loop_erase([start_site] + w.paths[i].tolist())
            paths.append(box.z[erased].tolist())
    acceptance = len(paths) / max(attempts, 1)
    if len(paths) < n_accepted:
        raise RuntimeError(
            f"acceptance rate {acceptance:.2e} too low; enlarge the arc, "
            f"reduce M, or lower n_accepted")
    return paths, acceptance


# -- approximation property ----------------------------------------------------


def approximation_property_check(M, deltas, grid_kind="square"):
    """Residual of the discrete-to-continuum Laplacian expansion.

    For smooth f: |Delta^k_d f(x) + (d^2/2)(sum sin 2tb) Lap f(x)
    - m^2(x) f(x)| / d^3 per delta, at a bulk vertex, for a constant, a
    harmonic polynomial and a massive exponential; rhombic grids take
    their angles from seed 4.  Returns {name: [(delta, residual/d^3),
    ...]}.
    """
    from .doob import massive_laplacian_apply
    from .isoradial import (
        build_rhombic_grid,
        build_square_grid,
        random_rhombic_angles,
        z_invariant_weights,
    )

    u0 = 0.7

    def f_const(p):
        return 1.0

    def f_harm(p):
        return p[0] ** 2 - p[1] ** 2

    def f_exp(p):
        return math.exp(2 * M * (math.cos(u0) * p[0]
                                 + math.sin(u0) * p[1]))

    test_functions = {
        "constant": (f_const, lambda p: 0.0),
        "harmonic_poly": (f_harm, lambda p: 0.0),
        "massive_exp": (f_exp, lambda p: 4 * M * M * f_exp(p)),
    }

    out = {name: [] for name in test_functions}
    for d in deltas:
        mod = near_critical_modulus(M, d)
        if grid_kind == "square":
            grid = build_square_grid(d, 8)
        else:
            rng = np.random.default_rng(4)
            phis, psis = random_rhombic_angles(rng, 8)
            grid = build_rhombic_grid(d, phis, psis)
        wg = z_invariant_weights(grid, mod)
        x = grid.bulk_vertices()[len(grid.bulk_vertices()) // 2]
        mu = 0.5 * sum(math.sin(2 * grid.half_angle(e))
                       for e in grid.edges_at(x))
        px = grid.positions[x]
        for name, (f, lap) in test_functions.items():
            discrete = massive_laplacian_apply(
                wg, [f(p) for p in grid.positions], x)
            resid = abs(discrete + d * d * mu * lap(px)
                        - wg.masses[x] * f(px))
            out[name].append((d, resid / d**3))
    return out


# -- dimer height statistics ---------------------------------------------------


def height_field_stats(M, u_bar, delta, block, n_samples, seed):
    """Centered second moments of sampled dimer heights on a lattice block.

    `block` is the number of primal vertices per side of the window.
    Returns (quads, mean, variance, dg), dg being the sampled Temperleyan
    double graph.
    """
    from .dimers import TemperleySampler
    from .isoradial import (
        build_square_grid,
        discrete_exponential,
        z_invariant_weights,
    )

    mod = near_critical_modulus(M, delta)
    size = 2 * block + 6
    grid = build_square_grid(delta, size)
    ambient = z_invariant_weights(grid, mod)
    cx = grid.positions[:, 0].mean()
    cy = grid.positions[:, 1].mean()
    half = (block - 1) * SQRT2 * delta / 2 + 1e-9
    bulk = set(grid.bulk_vertices())
    subset = [v for v in grid.rectangle_window(cx - half, cx + half,
                                               cy - half, cy + half)
              if v in bulk]
    lam = discrete_exponential(grid, mod, u_bar).primal
    sampler = TemperleySampler.on_window(ambient, subset, lam)

    # heights are integers, so their sums are exact in any order
    sums, sums2 = np.sum([(h.sum(axis=0), (h * h).sum(axis=0))
                          for _, h in sampler.batches(n_samples, seed)], 0)
    mean = sums / n_samples
    var = sums2 / n_samples - mean**2
    return sampler.dg.quad_adjacency.quads, mean, var, sampler.dg
