"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, lists the fixed
calls of one pass in `ops`, and checks the recorded outputs in `finish`.
The harness in run.py runs a fixed number of passes and times every op.

- linalg-queries: float and exact determinantal queries.  Nearly all time
  goes to `linalg`, none to `walks` or `nearcrit`, so a new Laplacian core
  should move it and nothing else.
- samplers: CLI `sample-forest` at 1 and 2 threads, dimer height
  statistics, direct Wilson and Temperley calls.  It drives `walks`,
  `dimers`, `planar`, `io` and `cli` and calls no dense linear algebra in
  its timed part.
- nearcrit-mc: crossing, exit-law and conditioned-branch Monte Carlo.
  Vectorized numpy stepping in `nearcrit` plus `elliptic` kernel set-up;
  no `linalg`, no Wilson.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from checks import (
    FAMILY_ALPHA,
    CheckLog,
    binomial_two_sided_p,
    one_sided_z,
    two_sided_z,
    tv_noise,
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; FULL is the benchmark, TINY the self-test."""

    pass_seconds: dict          # workload -> nominal seconds of one pass
    setup_reps: int             # set-ups per run, spread over the passes
    float_sides: tuple          # square grids, n = side**2
    float_rows: tuple           # per grid: interior vertices whose whole
                                # out-row is queried
    float_random: tuple         # per grid: extra random 1-3 edge queries
    potential_sizes: tuple      # grids (by n) with a direct `potential` call
    exact_sides: tuple          # rational grids
    small_graph_sizes: tuple    # seed-drawn rational graphs
    cli_window: int
    cli_delta: float
    cli_n: int                  # vertex count of the CLI grid (checked)
    forests: int                # per sample-forest call; the CLI splits it
                                # into tasks of 1000, so >1000 gives 2 tasks
    rounds: int                 # rounds of the small sampler calls per pass
    height_samples: int
    wilson_small: int           # forests per direct Wilson op on the CLI grid
    wilson_side: int
    wilson_big: int             # forests per direct Wilson op on side**2 grid
    block: int                  # dimer window, primal vertices per side
    matchings: int              # per direct sample_matching op
    crossing_walkers: int
    exit_walkers: int
    brownian_walkers: int
    branches: int


FULL = Sizes(
    pass_seconds={"linalg-queries": 11.0, "samplers": 8.5,
                  "nearcrit-mc": 5.0},
    setup_reps=7, float_sides=(20, 40, 60), float_rows=(2, 1, 0),
    float_random=(4, 1, 1), potential_sizes=(1600,), exact_sides=(4, 5),
    small_graph_sizes=(3, 4, 5), cli_window=20, cli_delta=0.05, cli_n=221,
    forests=1100, rounds=2, height_samples=256, wilson_small=50,
    wilson_side=40, wilson_big=4, block=6, matchings=20,
    crossing_walkers=4000, exit_walkers=4000, brownian_walkers=500,
    branches=40)

TINY = Sizes(
    pass_seconds={"linalg-queries": 0.25, "samplers": 0.25,
                  "nearcrit-mc": 0.25},
    setup_reps=3, float_sides=(4, 5, 6), float_rows=(1, 1, 0),
    float_random=(2, 1, 1), potential_sizes=(25,), exact_sides=(3,),
    small_graph_sizes=(3,), cli_window=6, cli_delta=0.2, cli_n=25,
    forests=1200, rounds=2, height_samples=4, wilson_small=4, wilson_side=4,
    wilson_big=2, block=3, matchings=2, crossing_walkers=200,
    exit_walkers=200, brownian_walkers=20, branches=2)

FLOAT_MASS = 0.05
EXACT_MASS = Fraction(1, 20)
N_ARCS = 16
EXIT_DELTA = 1 / 64
# max |p_bin - 1/16| of the exact discrete exit law at delta = 1/64 (the
# lattice anisotropy quoted by acceptance criterion 13)
EXIT_LATTICE_BIAS = 3.37e-3
# criterion 13's gate on TV(lattice walk, Brownian) at M = 1
EXIT_TV_GATE = 0.05
CROSS_R = 0.3
BRANCH_RADIUS = 0.5
BRANCH_DELTA = 1 / 16


@dataclass
class Op:
    """One timed call, or a group of calls timed together."""

    kind: str
    fn: object

    @property
    def layer(self):
        return self.kind.split(".")[0]


def square_grid(side, mass, exact=False):
    """side x side grid, unit conductances, constant mass."""
    from massiveforests.graphs import symmetric_graph

    c = 1 if exact else 1.0
    und = []
    for j in range(side):
        for i in range(side):
            v = j * side + i
            if i + 1 < side:
                und.append((v, v + 1, c))
            if j + 1 < side:
                und.append((v, v + side, c))
    pos = [(i, j) for j in range(side) for i in range(side)]
    return symmetric_graph(side * side, und, [mass] * (side * side),
                           positions=pos)


def random_rational_graph(rng, n):
    """Connected rational graph on n vertices, at least one positive mass."""
    from massiveforests.graphs import symmetric_graph

    def frac():
        return Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 5)))

    und = [(int(rng.integers(0, v)), v, frac()) for v in range(1, n)]
    for _ in range(n):
        x, y = (int(v) for v in rng.choice(n, 2, replace=False))
        und.append((x, y, frac()))
    masses = [Fraction(int(rng.integers(0, 3)), int(rng.integers(1, 5)))
              for _ in range(n)]
    masses[int(rng.integers(0, n))] = frac()
    return symmetric_graph(n, und, masses)


def out_row(g, x):
    """Every outgoing edge of x, the cemetery edge included."""
    from massiveforests.graphs import ROOT

    return [(x, y) for y in g.neighbours(x) if y != x] + [(x, ROOT)]


def random_query(rng, g, k):
    """k edges with distinct tails; each is an interior or a cemetery edge."""
    edges = []
    for x in rng.choice(g.n, size=k, replace=False):
        row = out_row(g, int(x))
        edges.append(row[int(rng.integers(0, len(row)))])
    return tuple(edges)


class Workload:
    name = ""
    check_names = ()

    def __init__(self, seed, sizes, workdir):
        self.seed = int(seed)
        self.sizes = sizes
        self.workdir = workdir
        self.log = CheckLog(self.check_names)

    def passes(self, seconds):
        """Passes that fill `seconds` at the nominal pass time."""
        return max(1, round(seconds / self.sizes.pass_seconds[self.name]))

    def sub_seed(self, *parts):
        """31-bit seed for one call, derived from the run seed."""
        ss = np.random.SeedSequence([self.seed, *parts])
        return int(ss.generate_state(1)[0] >> 1)

    def fingerprint(self):
        """Output digests recorded for the determinism self-test."""
        return {}

    def sweep(self):
        """Calls per kind in one pass."""
        return Counter(op.kind for op in self.ops(0))

    @staticmethod
    def step(tr, times, name, fn):
        """Run one set-up step under a span and record its time."""
        t0 = time.perf_counter()
        with tr.span(name, name.split(".")[0]):
            out = fn()
        times[name] = time.perf_counter() - t0
        return out


def _med(stats, kind):
    return statistics.median(stats[kind])


# -- linalg-queries ------------------------------------------------------------


class LinalgQueries(Workload):
    name = "linalg-queries"
    check_names = ("row_sum_float", "row_sum_exact", "probability_range",
                   "exact_det_forest_sum")

    def __init__(self, *args):
        super().__init__(*args)
        self.rows = {}          # (mode, graph, x, pass) -> [probabilities]
        self.L = {}
        self.det_values = {}    # grid -> {"det", "logdet"} of pass 0
        self.exact_dets = {}

    def setup(self, tr):
        from massiveforests.linalg import assemble_massive_laplacian_exact

        s = self.sizes
        times = {}
        rng = np.random.default_rng([self.seed, 1])

        def build():
            fl = [square_grid(side, FLOAT_MASS) for side in s.float_sides]
            ex = [square_grid(side, EXACT_MASS, exact=True)
                  for side in s.exact_sides]
            ex += [random_rational_graph(rng, n) for n in s.small_graph_sizes]
            return fl, ex

        self.float_graphs, self.exact_graphs = self.step(
            tr, times, "graphs.build_s", build)
        self.exact_matrices = self.step(
            tr, times, "linalg.exact_assemble_s",
            lambda: [assemble_massive_laplacian_exact(g)
                     for g in self.exact_graphs])

        # queries: whole out-rows (row-sum oracle) plus random 1-3 edge sets
        self.float_queries = []
        for g, n_rows, n_rand in zip(self.float_graphs, s.float_rows,
                                     s.float_random):
            pool = [x for x in range(g.n) if len(g.neighbours(x)) == 4]
            qs = []
            for x in rng.choice(pool, size=n_rows, replace=False):
                qs += [((e,), int(x)) for e in out_row(g, int(x))]
            qs += [(random_query(rng, g, int(rng.integers(1, 4))), None)
                   for _ in range(n_rand)]
            self.float_queries.append(qs)
        self.exact_queries = []
        for gi, g in enumerate(self.exact_graphs):
            if gi < len(s.exact_sides):
                pool = [x for x in range(g.n) if len(g.neighbours(x)) == 4]
                n_rand = 2
            else:
                pool = list(range(g.n))
                n_rand = 1
            x = int(rng.choice(pool))
            qs = [((e,), x) for e in out_row(g, x)]
            qs += [(random_query(rng, g, int(rng.integers(1, min(3, g.n) + 1))),
                    None) for _ in range(n_rand)]
            self.exact_queries.append(qs)
        return times

    def n_exact_queries(self):
        return sum(len(q) for q in self.exact_queries)

    def ops(self, p):
        """Pass p: every call and every query once."""
        ops = [Op("linalg.exact_queries", partial(self._exact_queries, p)),
               Op("linalg.exact_dets", self._exact_dets)]
        for gi, (g, qs) in enumerate(zip(self.float_graphs,
                                         self.float_queries)):
            n = g.n
            ops += [Op(f"linalg.assemble.n{n}", partial(self._assemble, gi)),
                    Op(f"linalg.logdet.n{n}", partial(self._logdet, p, gi)),
                    Op(f"linalg.det.n{n}", partial(self._det, p, gi))]
            if n in self.sizes.potential_sizes:
                ops.append(Op(f"linalg.potential.n{n}",
                              partial(self._potential, gi)))
            ops += [Op(f"linalg.edge_probability.n{n}", partial(
                self._float_query, p, gi, edges, row)) for edges, row in qs]
        return ops

    def _exact_queries(self, p):
        from massiveforests.linalg import edge_probability

        for gi, (g, qs) in enumerate(zip(self.exact_graphs,
                                         self.exact_queries)):
            for edges, row in qs:
                prob = edge_probability(g, list(edges), exact=True)
                self.log.record("probability_range", 0 <= prob <= 1,
                                f"exact {edges}: {prob}")
                if row is not None:
                    self.rows.setdefault(("exact", gi, row, p), []).append(prob)

    def _exact_dets(self):
        from massiveforests.linalg import determinant_exact

        for gi, A in enumerate(self.exact_matrices):
            self.exact_dets[gi] = determinant_exact(A)

    def _assemble(self, gi):
        from massiveforests.linalg import assemble_massive_laplacian

        self.L[gi] = assemble_massive_laplacian(self.float_graphs[gi])

    def _logdet(self, p, gi):
        from massiveforests.linalg import log_determinant

        out = log_determinant(self.L[gi])
        if p == 0:
            self.det_values.setdefault(gi, {})["logdet"] = out

    def _det(self, p, gi):
        from massiveforests.linalg import determinant

        out = determinant(self.L[gi])
        if p == 0:
            self.det_values.setdefault(gi, {})["det"] = out

    def _potential(self, gi):
        from massiveforests.linalg import potential

        potential(self.float_graphs[gi])

    def _float_query(self, p, gi, edges, row):
        from massiveforests.linalg import edge_probability

        prob = float(edge_probability(self.float_graphs[gi], list(edges)))
        self.log.record("probability_range", -1e-12 <= prob <= 1 + 1e-12,
                        f"n{self.float_graphs[gi].n} {edges}: {prob!r}")
        if row is not None:
            self.rows.setdefault(("float", gi, row, p), []).append(prob)

    def finish(self):
        from massiveforests.graphs import forest_partition_function

        for (mode, gi, x, _), probs in self.rows.items():
            g = (self.float_graphs if mode == "float" else self.exact_graphs)[gi]
            total = sum(probs)
            if mode == "float":
                self.log.record("row_sum_float", abs(total - 1.0) <= 1e-9,
                                f"n{g.n} x={x}: |sum - 1| = {abs(total - 1.0):.3g}")
            else:
                self.log.record("row_sum_exact", total == Fraction(1),
                                f"graph {gi} x={x}: sum = {total}")
        for gi, det in self.exact_dets.items():
            g = self.exact_graphs[gi]
            if g.n <= 8:
                z = forest_partition_function(g)
                self.log.record("exact_det_forest_sum", det == z,
                                f"graph {gi}: det {det} vs forests {z}")

    def det_overflow(self):
        """Grids where determinant is inf/0 while log_determinant is finite."""
        bad = 0
        for v in self.det_values.values():
            if "det" in v and "logdet" in v:
                d, (_, ld) = v["det"], v["logdet"]
                if (not math.isfinite(d) or d == 0.0) and math.isfinite(ld):
                    bad += 1
        return bad

    def metrics(self, stats):
        e2e, layer = {}, {}
        q_time = q_count = 0.0
        for g, qs in zip(self.float_graphs, self.float_queries):
            n = g.n
            ep = _med(stats, f"linalg.edge_probability.n{n}")
            q_time += len(qs) * ep
            q_count += len(qs)
            calls = ["assemble", "logdet", "det"]
            if n in self.sizes.potential_sizes:
                calls.append("potential")
            for c in calls:
                layer[f"linalg.{c}_s.n{n}"] = (
                    _med(stats, f"linalg.{c}.n{n}"), "s")
            layer[f"linalg.edge_probability_s.n{n}"] = (ep, "s")
        ex = _med(stats, "linalg.exact_queries") / self.n_exact_queries()
        e2e["float_queries_per_s"] = (q_count / q_time, "1/s")
        e2e["exact_queries_per_s"] = (1.0 / ex, "1/s")
        layer["linalg.exact_query_s"] = (ex, "s")
        layer["linalg.exact_det_s"] = (
            _med(stats, "linalg.exact_dets") / len(self.exact_graphs), "s")
        layer["linalg.det_overflow"] = (self.det_overflow(), "count")
        return e2e, layer


# -- samplers ------------------------------------------------------------------


def _cli(argv):
    from massiveforests.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"massiveforests {' '.join(argv)} exited {code}")


class Samplers(Workload):
    name = "samplers"
    check_names = ("thread_invariance", "edge_marginals", "height_variance")

    def __init__(self, *args):
        super().__init__(*args)
        self.csv = {}           # (pass, threads) -> CSV bytes
        self.matchings = []

    def setup(self, tr):
        from massiveforests.dimers import reference_matching
        from massiveforests.elliptic import near_critical_modulus
        from massiveforests.graphs import collapse_boundary
        from massiveforests.io import load_graph
        from massiveforests.isoradial import (
            build_square_grid,
            discrete_exponential,
            z_invariant_weights,
        )
        from massiveforests.planar import build_dual_and_double
        from massiveforests.walks import TransitionTable

        s = self.sizes
        times = {}
        self.grid_path = os.path.join(self.workdir, "grid.json")
        self.step(tr, times, "cli.grid_s", lambda: _cli(
            ["grid", "--kind", "square", "--delta", str(s.cli_delta),
             "--window", str(s.cli_window), "--M", "1.0",
             "--out", self.grid_path]))
        self.g = self.step(tr, times, "io.load_graph_s",
                           lambda: load_graph(self.grid_path))
        if self.g.n != s.cli_n:
            raise ValueError(f"CLI grid has {self.g.n} vertices, "
                             f"expected {s.cli_n}")
        self.table = self.step(tr, times, "walks.table_s",
                               lambda: TransitionTable(self.g))
        self.big = self.step(tr, times, "graphs.build_s",
                             lambda: square_grid(s.wilson_side, FLOAT_MASS))
        self.big_table = self.step(tr, times, f"walks.table_s.n{self.big.n}",
                                   lambda: TransitionTable(self.big))

        # the block window of nearcrit.height_field_stats, built from outside
        delta = 1 / 16
        mod = near_critical_modulus(1.0, delta)

        def grid_and_weights():
            grid = build_square_grid(delta, 2 * s.block + 6)
            return grid, z_invariant_weights(grid, mod)

        grid, ambient = self.step(tr, times, "isoradial.grid_s",
                                  grid_and_weights)
        cx, cy = grid.positions[:, 0].mean(), grid.positions[:, 1].mean()
        half = (s.block - 1) * math.sqrt(2) * delta / 2 + 1e-9
        bulk = set(grid.bulk_vertices())
        subset = [v for v in grid.rectangle_window(cx - half, cx + half,
                                                   cy - half, cy + half)
                  if v in bulk]
        col = self.step(tr, times, "graphs.collapse_s",
                        lambda: collapse_boundary(ambient, subset))
        self.dg = self.step(
            tr, times, "planar.double_graph_s",
            lambda: build_dual_and_double(col, ambient.positions)[1])
        self.lam = self.step(tr, times, "isoradial.exponential_s",
                             lambda: discrete_exponential(grid, mod, 0.5).primal)
        self.ref = self.step(tr, times, "dimers.reference_matching_s",
                             lambda: reference_matching(self.dg))
        return times

    def ops(self, p):
        """Pass p: the CLI at 1 and 2 threads, with rounds of the small
        calls before, between and after them."""
        s = self.sizes
        seed_p = self.sub_seed(2, p)
        cli = [Op("cli.sample_forest.t1", partial(self._forests, p, 1, seed_p)),
               Op("cli.sample_forest.t2", partial(self._forests, p, 2, seed_p))]
        ops = []
        for r in range(s.rounds):
            seed = self.sub_seed(2, p, r)
            ops += [
                Op("nearcrit.height_field_stats", partial(self._height, seed)),
                Op(f"walks.wilson.n{self.g.n}",
                   partial(self._wilson, self.g, self.table, s.wilson_small,
                           seed)),
                Op(f"walks.wilson.n{self.big.n}",
                   partial(self._wilson, self.big, self.big_table,
                           s.wilson_big, seed)),
                Op("dimers.sample_matching", partial(self._matchings, seed)),
                Op("dimers.height_function", self._heights),
            ]
            if cli:
                ops.append(cli.pop(0))
        return ops + cli

    def _forests(self, p, threads, seed):
        out = os.path.join(self.workdir, f"forests-t{threads}.csv")
        _cli(["--seed", str(seed), "--threads", str(threads), "sample-forest",
              "--graph", self.grid_path, "--n", str(self.sizes.forests),
              "--out", out])
        with open(out, "rb") as fh:
            self.csv[(p, threads)] = fh.read()

    def _height(self, seed):
        from massiveforests.nearcrit import height_field_stats

        quads, mean, var, _ = height_field_stats(
            1.0, 0.5, 1 / 16, self.sizes.block, self.sizes.height_samples,
            seed)
        ok = len(quads) > 0 and np.all(np.isfinite(mean)) and \
            np.all(var >= -1e-9)
        self.log.record("height_variance", ok,
                        f"{len(quads)} quads, min var {float(np.min(var)):.3g}")

    def _wilson(self, g, table, k, seed):
        from massiveforests.walks import rng_stream, wilson_sample

        rng = rng_stream(seed, 1)
        for _ in range(k):
            wilson_sample(g, rng, table=table)

    def _matchings(self, seed):
        from massiveforests.dimers import sample_matching
        from massiveforests.walks import rng_stream

        rng = rng_stream(seed, 2)
        self.matchings = [sample_matching(self.dg, self.lam, rng)
                          for _ in range(self.sizes.matchings)]

    def _heights(self):
        from massiveforests.dimers import height_function

        for m in self.matchings:
            height_function(self.dg, m, reference=self.ref)

    def finish(self):
        from massiveforests.graphs import ROOT
        from massiveforests.linalg import (
            edge_conductance_k,
            potential,
            transfer_current,
        )

        passes = sorted({p for p, _ in self.csv})
        for p in passes:
            if (p, 1) in self.csv and (p, 2) in self.csv:
                same = self.csv[(p, 1)] == self.csv[(p, 2)]
                self.log.record("thread_invariance", same,
                                f"pass {p}: t1 and t2 CSVs "
                                f"{'identical' if same else 'differ'}")
        # pooled t1 marginals against the exact single-edge probabilities
        counts, total = {}, 0
        for p in passes:
            if (p, 1) not in self.csv:
                continue
            rows = list(csv.DictReader(io.StringIO(
                self.csv[(p, 1)].decode())))
            total += int(rows[0]["n_samples"])
            for r in rows:
                head = ROOT if r["head"] == "root" else int(r["head"])
                key = (int(r["tail"]), head)
                counts[key] = counts.get(key, 0) + int(r["count"])
        H = transfer_current(self.g, potential(self.g))
        alpha = FAMILY_ALPHA / len(counts)
        tails = []
        for e, c in counts.items():
            prob = float(H.entry(e, e) * edge_conductance_k(self.g, e))
            tails.append((binomial_two_sided_p(
                c, total, min(max(prob, 0.0), 1.0)), e))
        worst = min(tails, key=lambda t: t[0])
        self.log.record(
            "edge_marginals", worst[0] >= alpha,
            f"{len(counts)} edges, {total} forests: smallest two-sided tail "
            f"{worst[0]:.3g} at {worst[1]} (band {alpha:.3g}, "
            f"~{two_sided_z(alpha):.2f} sigma)")

    def metrics(self, stats):
        s = self.sizes
        t1 = _med(stats, "cli.sample_forest.t1")
        t2 = _med(stats, "cli.sample_forest.t2")
        hfs = _med(stats, "nearcrit.height_field_stats")
        w_small = _med(stats, f"walks.wilson.n{self.g.n}") / s.wilson_small
        w_big = _med(stats, f"walks.wilson.n{self.big.n}") / s.wilson_big
        e2e = {
            "forests_per_s": (s.forests / t1, "1/s"),
            "forests_per_s_t2": (s.forests / t2, "1/s"),
            "matchings_per_s": (s.height_samples / hfs, "1/s"),
        }
        layer = {
            "cli.sample_forest_s.t1": (t1, "s"),
            "cli.sample_forest_s.t2": (t2, "s"),
            "nearcrit.height_field_stats_s": (hfs, "s"),
            f"walks.wilson_us_per_vertex.n{self.g.n}": (
                1e6 * w_small / self.g.n, "us"),
            f"walks.wilson_us_per_vertex.n{self.big.n}": (
                1e6 * w_big / self.big.n, "us"),
            "dimers.sample_matching_s": (
                _med(stats, "dimers.sample_matching") / s.matchings, "s"),
            "dimers.height_function_s": (
                _med(stats, "dimers.height_function") / s.matchings, "s"),
        }
        return e2e, layer

    def fingerprint(self):
        if (0, 1) not in self.csv:
            return {}
        return {"csv_sha256_pass0_t1":
                hashlib.sha256(self.csv[(0, 1)]).hexdigest()}


# -- nearcrit-mc ---------------------------------------------------------------


class NearcritMC(Workload):
    name = "nearcrit-mc"
    check_names = ("crossing_mass_order", "exit_uniform", "exit_tv_brownian",
                   "branch_simple_path")

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = {0: [], 1: []}          # M -> hits per pass
        self.exit = {0: [], 1: []}          # M -> counts per pass
        self.brownian = []
        self.branch_attempts = 0.0
        self.branch_accepted = 0

    def setup(self, tr):
        from massiveforests.nearcrit import SquareLatticeKernel

        times = {}
        self.step(tr, times, "elliptic.kernel_s", lambda: [
            SquareLatticeKernel(0.0, CROSS_R / 64),
            SquareLatticeKernel(1.0, CROSS_R / 64),
            SquareLatticeKernel(0.0, EXIT_DELTA, u_bar=0.0),
            SquareLatticeKernel(1.0, EXIT_DELTA, u_bar=0.0),
            SquareLatticeKernel(1.0, BRANCH_DELTA)])
        return times

    def ops(self, p):
        return [
            Op("nearcrit.crossing.M0", partial(self._crossing, 0, p)),
            Op("nearcrit.crossing.M1", partial(self._crossing, 1, p)),
            Op("nearcrit.exit_walk.M0", partial(self._exit_walk, 0, p)),
            Op("nearcrit.exit_walk.M1", partial(self._exit_walk, 1, p)),
            Op("nearcrit.exit_brownian", partial(self._brownian, p)),
            Op("nearcrit.branch", partial(self._branch, p)),
        ]

    def _crossing(self, M, p):
        from massiveforests.nearcrit import CrossingSpec, crossing_probability

        n = self.sizes.crossing_walkers
        est, _ = crossing_probability(CrossingSpec(r=CROSS_R), CROSS_R / 64,
                                      float(M), n, self.sub_seed(3, p, M))
        self.hits[M].append(round(est * n))

    def _exit_walk(self, M, p):
        from massiveforests.nearcrit import exit_law_walk

        counts, _ = exit_law_walk(float(M), 0.0, EXIT_DELTA,
                                  self.sizes.exit_walkers,
                                  self.sub_seed(4, p, M))
        self.exit[M].append(counts)

    def _brownian(self, p):
        from massiveforests.nearcrit import exit_law_brownian

        counts, _ = exit_law_brownian(1.0, 0.0, EXIT_DELTA,
                                      self.sizes.brownian_walkers,
                                      self.sub_seed(5, p))
        self.brownian.append(counts)

    def _branch(self, p):
        from massiveforests.nearcrit import (
            SquareLatticeKernel,
            conditioned_branch_sampler,
        )

        n = self.sizes.branches
        paths, acc = conditioned_branch_sampler(
            1.0, BRANCH_DELTA, 0, n, self.sub_seed(6, p),
            radius=BRANCH_RADIUS)
        self.branch_accepted += len(paths)
        self.branch_attempts += len(paths) / acc
        step = SquareLatticeKernel(0.0, BRANCH_DELTA).spacing
        for path in paths:
            simple = len(set(path)) == len(path)
            outside = abs(path[-1]) >= BRANCH_RADIUS
            steps_ok = all(abs(abs(b - a) - step) < 1e-9
                           for a, b in zip(path, path[1:]))
            self.log.record("branch_simple_path", simple and outside
                            and steps_ok, f"{len(path)} sites, simple "
                            f"{simple}, ends outside {outside}, "
                            f"lattice steps {steps_ok}")

    def finish(self):
        # crossing: killing can only lower the probability
        n0 = self.sizes.crossing_walkers * len(self.hits[0])
        n1 = self.sizes.crossing_walkers * len(self.hits[1])
        if n0 and n1:
            h0, h1 = sum(self.hits[0]), sum(self.hits[1])
            pbar = (h0 + h1) / (n0 + n1)
            band = one_sided_z(FAMILY_ALPHA) * math.sqrt(
                max(pbar * (1 - pbar), 1e-12) * (1 / n0 + 1 / n1))
            diff = h1 / n1 - h0 / n0
            self.log.record("crossing_mass_order", diff <= band,
                            f"P(M=1) - P(M=0) = {diff:.3g} "
                            f"(band {band:.3g}; hits {h0}/{n0}, {h1}/{n1})")
        if self.exit[0]:
            c = np.sum(self.exit[0], axis=0)
            n = int(c.sum())
            p = 1 / N_ARCS
            k = two_sided_z(FAMILY_ALPHA / N_ARCS)
            gate = k * math.sqrt(p * (1 - p) / n) + EXIT_LATTICE_BIAS
            worst = float(np.max(np.abs(c / n - p)))
            self.log.record("exit_uniform", worst <= gate,
                            f"worst |p_bin - 1/16| {worst:.3g} "
                            f"(gate {gate:.3g}, {n} walkers)")
        if self.exit[1] and self.brownian:
            from massiveforests.nearcrit import total_variation

            cw = np.sum(self.exit[1], axis=0)
            cb = np.sum(self.brownian, axis=0)
            tv = total_variation(cw, cb)
            bound = EXIT_TV_GATE + tv_noise(cw.sum(), N_ARCS, FAMILY_ALPHA / 2) \
                + tv_noise(cb.sum(), N_ARCS, FAMILY_ALPHA / 2)
            self.log.record("exit_tv_brownian", tv <= bound,
                            f"TV {tv:.3g} (bound {bound:.3g}; "
                            f"{cw.sum()} walk, {cb.sum()} Brownian)")

    def metrics(self, stats):
        s = self.sizes
        c0 = _med(stats, "nearcrit.crossing.M0")
        c1 = _med(stats, "nearcrit.crossing.M1")
        w0 = _med(stats, "nearcrit.exit_walk.M0")
        w1 = _med(stats, "nearcrit.exit_walk.M1")
        b = _med(stats, "nearcrit.exit_brownian")
        br = _med(stats, "nearcrit.branch")
        e2e = {
            "crossing_walkers_per_s": (2 * s.crossing_walkers / (c0 + c1), "1/s"),
            "exit_walkers_per_s": (2 * s.exit_walkers / (w0 + w1), "1/s"),
            "brownian_walkers_per_s": (s.brownian_walkers / b, "1/s"),
            "branches_per_s": (s.branches / br, "1/s"),
        }
        layer = {
            "nearcrit.crossing_cell_s.M0": (c0, "s"),
            "nearcrit.crossing_cell_s.M1": (c1, "s"),
            "nearcrit.exit_walk_s": ((w0 + w1) / 2, "s"),
            "nearcrit.exit_brownian_s": (b, "s"),
            "nearcrit.branch_s": (br, "s"),
            "nearcrit.branch_acceptance": (
                self.branch_accepted / self.branch_attempts, "fraction"),
            "nearcrit.crossing_hits": (
                [self.hits[0][0], self.hits[1][0]], "count"),
            "nearcrit.exit_counts": (
                {f"M{M}": self.exit[M][0].tolist() for M in (0, 1)}, "count"),
        }
        return e2e, layer


WORKLOADS = {w.name: w for w in (LinalgQueries, Samplers, NearcritMC)}
