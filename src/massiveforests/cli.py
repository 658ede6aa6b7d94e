"""Command-line surface: samplers, verification batteries, experiments.

Every run writes its outputs plus a manifest (command, config hash, seed,
versions, wall time).  All randomness flows from --seed through per-task
streams, so identical invocations produce byte-identical outputs at any
--threads setting.  `main` returns the exit status: 0 success, 1
verification failure, 2 usage or input error.  A command refuses an input
by raising `Refused`, which `main` prints as `error: <message>`; only
argparse raises SystemExit, for a usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import pathlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _write_manifest(path, command, args_dict, seed, outputs, t0,
                    file_paths=()):
    from . import __version__

    h = hashlib.sha256(json.dumps(args_dict, sort_keys=True,
                                  default=str).encode())
    for p in file_paths:
        try:
            h.update(pathlib.Path(p).read_bytes())
        except OSError:
            pass
    manifest = {
        "command": command,
        "config_hash": h.hexdigest()[:16],
        "seed": seed,
        "versions": {
            "massiveforests": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": list(outputs),
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Refused(Exception):
    """An input the CLI cannot use; `main` prints `error: <message>` and
    returns 2."""


def _read_or_die(read, path):
    """read(path), refused if the file is missing or malformed."""
    from .io import GraphFormatError

    try:
        return read(path)
    except OSError as exc:
        raise Refused(f"{path}: {exc.strerror}")
    except (GraphFormatError, json.JSONDecodeError) as exc:
        raise Refused(f"{path}: {exc}")


def _load_graph_or_die(path, periodic=False, rays=False, positions=False):
    """The graph file at `path` as its command reads it: a periodic graph
    (edges with offsets) or a finite one, with per-edge rays and vertex
    coordinates where asked; any other file is refused."""
    from .graphs import WeightedGraph
    from .io import load_graph

    g = _read_or_die(load_graph, path)
    finite = isinstance(g, WeightedGraph)
    if periodic and finite:
        raise Refused("file has no edge offsets; not a periodic graph")
    if rays and not hasattr(g, "edge_rays"):
        raise Refused("dimer sampling needs a grid file with per-edge rays")
    if not (periodic or finite):
        raise Refused(f"{path}: edges with offsets make a periodic graph; "
                      f"need a finite graph")
    if positions and g.positions is None:
        raise Refused(f"{path}: need vertex coordinates x and y")
    return g


def _load_json_or_die(path):
    """A JSON object from `path`, or refused."""
    data = _read_or_die(lambda p: json.loads(pathlib.Path(p).read_text()),
                        path)
    if not isinstance(data, dict):
        raise Refused(f"{path}: need a JSON object")
    return data


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_seed(v):
    """An integer seed that `walks.rng_stream` takes."""
    from .walks import SEED_BITS

    return _is_integer(v) and 0 <= v < 1 << SEED_BITS


# what each `experiment --config` key must hold, key by key
_CONFIG_CHECKS = {key: (what, ok) for what, ok, keys in (
    ("an integer", _is_integer, ("target_arc",)),
    ("an integer in [0, 2**48)", _is_seed, ("seed",)),
    ("a positive integer", lambda v: _is_integer(v) and v > 0,
     ("n", "block")),
    ("a number", _is_number, ("M", "u_bar", "delta", "delta_ratio",
                              "radius")),
    ("a list of numbers",
     lambda v: isinstance(v, list) and all(map(_is_number, v)),
     ("u_bars", "deltas", "radii", "masses")),
    ("a list of [x, y] number pairs",
     lambda v: isinstance(v, list) and all(
         isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
         for p in v),
     ("translations",)),
) for key in keys}


def _load_config_or_die(path, defaults):
    """`defaults` updated by the experiment config at `path`; refused for a
    key that `defaults` lacks or a value of a wrong type."""
    cfg = _load_json_or_die(path)
    for key, value in cfg.items():
        if key not in defaults:
            raise Refused(f"{path}: unknown key {json.dumps(key)}; known "
                          f"keys: {', '.join(defaults)}")
        what, ok = _CONFIG_CHECKS[key]
        if not ok(value):
            raise Refused(f"{path}: {json.dumps(key)} must be {what}, "
                          f"not {json.dumps(value)}")
    return {**defaults, **cfg}


def _parse_edges_or_die(text, g):
    """[(tail, head)] from `--edges` text like 0-1,2-R (R or root: the
    cemetery), each an edge of g (x-R needs m(x) > 0) named once; refused
    otherwise."""
    from .graphs import ROOT
    from .linalg import edge_conductance_k

    edges = []
    for token in text.split(","):
        token = token.strip()
        try:
            a, b = token.split("-")
            e = (int(a), ROOT if b in ("R", "root") else int(b))
        except ValueError:
            problem = "is not a pair like 0-1 or 2-R"
        else:
            if not all(0 <= v < g.n for v in e if v != ROOT):
                problem = f"names a vertex outside 0..{g.n - 1}"
            elif edge_conductance_k(g, e) == 0:
                problem = "names no edge of the graph"
            elif e in edges:
                problem = "is given twice"
            else:
                edges.append(e)
                continue
        raise Refused(f"--edges: {token!r} {problem}")
    return edges


def _load_lambda_or_die(path, n):
    """{vertex: Fraction} from a JSON object of vertex ids in 0..n-1 to
    positive rationals (numbers or strings like "3/2"), or refused."""
    from fractions import Fraction

    lam = {}
    for key, value in _load_json_or_die(path).items():
        try:
            if not (_is_number(value) or isinstance(value, str)):
                raise TypeError
            lam[int(key)] = Fraction(value)
            if lam[int(key)] <= 0:
                raise ValueError
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise Refused(f"{path}: entry {json.dumps(key)}: "
                          f"{json.dumps(value)} needs an integer vertex id "
                          f"and a positive rational value")
        if not 0 <= int(key) < n:
            raise Refused(f"{path}: entry {json.dumps(key)}: vertex "
                          f"{int(key)} is outside 0..{n - 1}")
    return lam


# -- subcommands -----------------------------------------------------------


def cmd_grid(args):
    from .elliptic import complete_integrals, near_critical_modulus
    from .io import grid_to_graph, save_graph
    from .isoradial import (
        build_rhombic_grid,
        build_square_grid,
        random_rhombic_angles,
    )

    try:
        if args.kind == "square":
            grid = build_square_grid(args.delta, args.window)
        else:
            rng = np.random.default_rng(args.seed)
            phis, psis = random_rhombic_angles(rng, args.window)
            grid = build_rhombic_grid(args.delta, phis, psis)
        mod = (near_critical_modulus(args.M, args.delta) if args.M != 0
               else complete_integrals(args.k))
    except ValueError as exc:
        raise Refused(exc)
    g, rays = grid_to_graph(grid, mod)
    save_graph(args.out, g, rays=rays)
    print(f"wrote {args.out}: {g.n} vertices, {g.m_edges} directed edges, "
          f"k = {mod.k:.6g}")
    return [args.out]


def cmd_sample_forest(args):
    from .graphs import ROOT
    from .walks import WilsonEdgeCounter

    g = _load_graph_or_die(args.graph)
    if args.root is not None:
        if not 0 <= args.root < g.n:
            raise Refused(f"--root {args.root} is not a vertex of the graph")
        roots = {args.root}
    elif (g.masses > 0).any():
        roots = ()
    else:
        raise Refused("graph has no mass; pass --root for tree sampling")
    counter = WilsonEdgeCounter(g, roots)
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        counts = counter.counts(args.n, args.seed, pool.map)

    _write_csv(args.out, ["tail", "head", "count", "n_samples"],
               ([x, "root" if y == ROOT else y, int(c), args.n]
                for (x, y), c in zip(counter.pairs, counts)))
    print(f"wrote {args.out}")
    return [args.out]


def cmd_edge_prob(args):
    from .linalg import assemble_massive_laplacian, edge_probability

    g = _load_graph_or_die(args.graph)
    edges = _parse_edges_or_die(args.edges, g)
    try:  # input errors: a massless component, float data with --exact
        p = edge_probability(g, edges, exact=args.exact)
    except ValueError as exc:
        raise Refused(exc)
    outputs = []
    if args.dump_matrix:
        L = assemble_massive_laplacian(g).toarray()
        _write_csv(args.dump_matrix, ["row", "col", "value"],
                   ([i, j, repr(float(v))]
                    for (i, j), v in np.ndenumerate(L)))
        outputs.append(args.dump_matrix)
    print(f"P({args.edges}) = {p}")
    return outputs


def cmd_sample_dimers(args):
    from .dimers import TemperleySampler
    from .elliptic import near_critical_modulus
    from .isoradial import drift_field_from_rays

    g = _load_graph_or_die(args.graph, rays=True, positions=True)
    try:
        mod = near_critical_modulus(args.M, args.delta)
    except ValueError as exc:
        raise Refused(exc)
    # --M and --delta give the field's modulus; only the file's own one
    # makes it massive harmonic, i.e. the tilt a Doob transform of the
    # file's killed model
    try:
        bulk, lam = drift_field_from_rays(g, mod, args.u)
    except ValueError as exc:
        raise Refused(f"drift field refused: {exc}; "
                      f"--M and --delta must match the grid file")

    sampler = TemperleySampler.on_window(g, bulk, lam)
    draws = sampler.batches(args.n, args.seed)
    try:  # heights need interior quads; refuse before the first draw
        quads = sampler.dg.quad_adjacency.quads  # sorted
    except ValueError as exc:
        raise Refused(exc)
    rows = []
    for sid, (blacks, heights) in enumerate(pair for bs, hs in draws for pair
                                            in zip(bs.tolist(), hs.tolist())):
        rows += [(sid, "match", w, b, 1) for w, b in enumerate(blacks)]
        rows += [(sid, "height", c, f, v) for (c, f), v in zip(quads, heights)]
    _write_csv(args.out, ["sample", "kind", "key1", "key2", "value"], rows)
    print(f"wrote {args.out}: {args.n} samples, {sampler.dg.n_white} whites")
    return [args.out]


def cmd_charpoly(args):
    from .periodic import charpoly

    ev = charpoly(_load_graph_or_die(args.periodic_graph, periodic=True))
    _write_csv(args.out, ["exp_z", "exp_w", "coefficient"],
               ([a, b, repr(c)] for (a, b), c in sorted(ev.coeffs.items())))
    hull = ev.newton_polygon()
    print(f"wrote {args.out}; Newton polygon vertices: {hull}")
    return [args.out]


# -- verify batteries -------------------------------------------------------


def verify_elliptic():
    from .elliptic import (
        complete_integrals,
        jacobi,
        mass_value,
        mass_value_via_exponential,
        modulus_from_nome,
        verify_near_critical_asymptotics,
    )
    from .nearcrit import approximation_property_gates

    failures = []  # each begins with the printed line of its check
    mod0 = complete_integrals(0.0)
    if abs(mod0.K - math.pi / 2) > 1e-14 or abs(mod0.E - math.pi / 2) > 1e-14:
        failures.append("K(0) = E(0) = pi/2")
    for k in np.arange(0.1, 0.95, 0.1):
        m = complete_integrals(float(k))
        legendre = m.E * m.Kprime + m.Eprime * m.K - m.K * m.Kprime
        if abs(legendre - math.pi / 2) > 1e-12:
            failures.append(f"Legendre relation at k={k:.1f}")
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = float(rng.uniform(-3, 3))
        k = float(rng.uniform(0, 0.95))
        v = jacobi(u, complete_integrals(k))
        if abs(v.sn**2 + v.cn**2 - 1) > 1e-12 or \
           abs(v.dn**2 + k * k * v.sn**2 - 1) > 1e-12:
            failures.append(f"Jacobi identities at u={u:.3f}, k={k:.3f}")
            break
    for q in (0.3, 0.05, 1e-3):
        if abs(modulus_from_nome(q).q - q) > 1e-12:
            failures.append(f"nome round trip at q={q}")
    rows = verify_near_critical_asymptotics(1.0, [1e-2, 1e-3, 1e-4])
    for i in (1, 2):
        if rows[i][1] > 4 * max(rows[i - 1][1], 1e-6) + 1e-6:
            failures.append(f"near-critical rates at delta={rows[i][0]}")
    # the square star: rays around the vertex, half-angles pi/4
    rays = [(a * math.pi / 4, (a + 2) * math.pi / 4) for a in (-1, 1, 3, 5)]
    mod = complete_integrals(0.35)
    mass = mass_value([math.pi / 4] * 4, mod)
    for u_bar in (0.0, 0.7, 1.9):
        if abs(mass - mass_value_via_exponential(rays, mod, u_bar)) > 1e-13:
            failures.append(f"mass closed form at u_bar={u_bar}")
    # Delta^k f = -(d^2/2)(sum sin 2tb) Lap f + m^2 f up to O(d^3)
    gates = approximation_property_gates(1.0, [2e-2, 1e-2, 5e-3])
    failures += [f"approximation property ({gate})"
                 for gate, ok in gates.items() if not ok]
    for line in ("K(0) = E(0) = pi/2", "Legendre relation",
                 "Jacobi identities", "nome round trip",
                 "near-critical rates", "mass closed form",
                 "approximation property"):
        failed = any(f.startswith(line) for f in failures)
        print(f"  {line}: {'FAIL' if failed else 'ok'}")
    return failures


def _check_line(name, ok):
    """Print `  <name>: ok` or `  <name>: FAIL`; [name] if it failed."""
    print(f"  {name}: {'ok' if ok else 'FAIL'}")
    return [] if ok else [name]


def _doob_claims(g, lam):
    """The checks beside the built-in window's partition equality: Theorem
    1's gauge Delta~ = Lambda^-1 Delta^k Lambda there, the reciprocity of
    the killed Martin kernel, and the Girsanov ratio of a near-critical
    LERW step, a float Monte Carlo arm in either mode."""
    from fractions import Fraction

    from .doob import martin_kernel_ratio, verify_gauge_identity
    from .graphs import grid_graph
    from .nearcrit import lerw_ratio_check

    failures = _check_line("gauge identity",
                           verify_gauge_identity(g, lam, [2, 3]) <= 1e-14)
    grid, zs = grid_graph(4, 4, m=Fraction(1)), [0, 3, 15]
    pairs = zip(martin_kernel_ratio(grid, 5, 6, zs, exact=True),
                martin_kernel_ratio(grid, 6, 5, zs, exact=True))
    failures += _check_line("Martin kernel reciprocity",
                            all(a * b == 1 for a, b in pairs))
    # radius 0.2 makes (1, 0) a boundary site at delta = 1/12; the MC ratio
    # estimates the exact finite-delta ratio
    ratio, _, stderr, exact = lerw_ratio_check(
        1.0, 0.5, 1 / 12, [(0, 0), (1, 0)], 30000, seed=5, radius=0.2)
    return failures + _check_line("LERW ratio",
                                  abs(ratio - exact) <= 4 * stderr)


def verify_doob(graph_path=None, lam_spec="pow2", exact=False):
    from fractions import Fraction

    from .doob import verify_partition_equality
    from .graphs import symmetric_graph

    if graph_path is None:
        # built-in: Z-line window {0, 1} with mass 1/2 and lambda = 2^x
        n = 6
        g = symmetric_graph(n, [(i, i + 1, Fraction(1))
                                for i in range(n - 1)],
                            [Fraction(1, 2)] * n)
        lam = {i: Fraction(2) ** i for i in range(n)}
        subset = [2, 3]
    else:
        g = _load_graph_or_die(graph_path)
        if lam_spec == "pow2":
            raise Refused("--graph needs --lambda TABLE; pow2 is the "
                          "built-in Z-line's lambda")
        lam = _load_lambda_or_die(lam_spec, g.n)
        # the window: vertices with lambda on themselves and every neighbour
        subset = [x for x in lam if all(y in lam for y in g.neighbours(x))]
        if not subset:
            raise Refused(f"{lam_spec}: no vertex has lambda on itself and "
                          f"on all its neighbours")
    zf, zt, gap = verify_partition_equality(g, subset, lam, exact=exact)
    if exact:
        print(f"  Z_RSF = {zf}")
        print(f"  Z_RST^o = {zt}")
    else:
        print(f"  (sign, log|Z_RSF|) = {zf}")
        print(f"  (sign, log|Z_RST^o|) = {zt}")
    print(f"  gap = {gap}")
    ok = (gap == 0) if exact else (gap <= 1e-10)
    failures = [] if ok else ["partition equality"]
    if graph_path is None:
        failures += _doob_claims(g, lam)
    return failures


def verify_dimers():
    from fractions import Fraction

    from .dimers import (
        check_kasteleyn_property,
        drifted_weights,
        killed_drifted_gauge,
        killed_weights,
        partition_check,
        verify_block_identity,
    )
    from .graphs import collapse_boundary, grid_graph
    from .planar import build_dual_and_double

    failures = []
    amb = grid_graph(4, 4, m=Fraction(9, 4))
    subset = [amb.positions.tolist().index([float(i), float(j)])
              for j in (1, 2) for i in (1, 2)]
    _, dg = build_dual_and_double(collapse_boundary(amb, subset),
                                  amb.positions)
    bad = check_kasteleyn_property(dg)
    print(f"  Kasteleyn property: {len(bad)} bad quads")
    if bad:
        failures.append("Kasteleyn property")
    lam = {v: Fraction(4) ** int(round(amb.positions[v][0]))
           for v in range(amb.n)}
    ws = drifted_weights(dg, lam)
    det, z, gap = partition_check(dg, ws, exact=True)
    print(f"  |det K|^2 - Z^2 = {gap}")
    if gap != 0:
        failures.append("Kasteleyn determinant")
    lam_star = {f: 1.0 for f in range(len(dg.structure.faces))}
    off, v_off, dual_dev, v_diag = verify_block_identity(dg, lam, lam_star)
    print(f"  block identity: off={off:.2e} V-off={v_off:.2e} "
          f"dual={dual_dev:.2e} diag-defect={v_diag:.2e}")
    if max(off, v_off, dual_dev) > 1e-12 or v_diag > 1e-10:
        failures.append("block identity")
    # K^k = Phi K^d Psi: each killed weight is phi_w psi_b times the drifted
    t = dg.white_table
    phi, psi = killed_drifted_gauge(dg, lam, lam_star)
    gauged = phi[:, None] * psi[np.where(t.mask, t.black, 0)] * \
        ws.astype(float)
    killed = killed_weights(dg, lam, lam_star)
    return failures + _check_line("killed/drifted gauge", np.all(
        np.abs(killed - gauged) <= 1e-12 * np.abs(gauged)))


def verify_periodic():
    from .periodic import (
        charpoly,
        harmonicity_on_window,
        honeycomb,
        perron_search,
        square_lattice,
        verify_translation,
    )

    failures = []
    pg = square_lattice(0.5)
    z0, vec, beta = perron_search(pg)
    print(f"  z0 = ({z0[0]:.12f}, {z0[1]:.0f}), beta = {beta:.12f}")
    if abs(z0[0] - 2.0) > 1e-10 or abs(beta - 1.0) > 1e-10:
        failures.append("Perron search z0 = (2, 1)")
    gap = verify_translation(pg, z0, vec)
    print(f"  translation identity gap = {gap:.2e}")
    if gap > 1e-8:
        failures.append("translation identity")
    hc = honeycomb(0.5)
    z0, vec, _ = perron_search(hc)
    resid = harmonicity_on_window(hc, z0, vec)
    print(f"  honeycomb z0 = ({z0[0]:.12f}, {z0[1]:.0f}), "
          f"harmonicity = {resid:.2e}")
    if resid > 1e-10:
        failures.append("honeycomb Perron point")
    ev = charpoly(square_lattice(1.0))
    return failures + _check_line("charpoly coefficients", abs(
        ev.coeffs.get((0, 0), 0) - 5.0) <= 1e-9)


BATTERIES = {
    "elliptic": lambda args: verify_elliptic(),
    "doob": lambda args: verify_doob(args.graph, args.lam, args.exact),
    "dimers": lambda args: verify_dimers(),
    "periodic": lambda args: verify_periodic(),
}


def cmd_verify(args):
    """No outputs, or None when the battery fails."""
    t0 = time.time()
    failures = BATTERIES[args.battery](args)
    if failures:
        print(f"verify {args.battery}: FAIL ({', '.join(failures)})")
        return None
    print(f"verify {args.battery}: ok ({time.time() - t0:.1f}s)")
    return []


# -- experiments -------------------------------------------------------------


def _girsanov(c, seed):
    from .nearcrit import girsanov_ratio_check

    for u_bar in c["u_bars"]:
        for d, ratio, target, err in girsanov_ratio_check(c["M"], u_bar,
                                                          c["deltas"]):
            yield d, c["M"], u_bar, ratio, target, err


def _crossing(c, seed):
    from .nearcrit import crossing_grid

    cells = crossing_grid(
        radii=c["radii"], masses=c["masses"],
        translations=[complex(*z) for z in c["translations"]],
        n_samples=c["n"], seed=seed, delta_ratio=c["delta_ratio"])
    for spec, M, _, est, se in cells:
        yield spec.r, M, spec.horizontal, spec.z.real, spec.z.imag, est, se


def _exitlaw(c, seed):
    from .nearcrit import exit_law_pair, total_variation

    cw, cb = exit_law_pair(c["M"], c["u_bar"], c["delta"], c["n"], seed)
    tv = total_variation(cw, cb)
    for b in range(len(cw)):
        yield b, int(cw[b]), int(cb[b]), tv


def _branch(c, seed):
    from .nearcrit import conditioned_branch_sampler

    paths, acc = conditioned_branch_sampler(
        c["M"], c["delta"], c["target_arc"], c["n"], seed,
        radius=c["radius"])
    for i, p in enumerate(paths):
        for j, z in enumerate(p):
            yield i, j, z.real, z.imag, acc


def _height(c, seed):
    from .nearcrit import height_field_stats

    quads, mean, var, _ = height_field_stats(
        c["M"], c["u_bar"], c["delta"], c["block"], c["n"], seed)
    for q, m, v in zip(quads, mean, var):
        yield q[0], q[1], m, v


# kind -> (config keys with their defaults, CSV header after the shared
# `experiment` column, runner yielding rows from the merged config and seed)
EXPERIMENTS = {
    "girsanov": (dict(M=1.0, u_bars=[0.0], deltas=[1 / 32, 1 / 64]),
                 "delta M u_bar ratio target error", _girsanov),
    "crossing": (dict(radii=[0.3], masses=[0.0, 1.0],
                      translations=[[0.0, 0.0]], n=10**4,
                      delta_ratio=1 / 64),
                 "r M horizontal z_re z_im estimate stderr", _crossing),
    "exitlaw": (dict(M=1.0, u_bar=0.0, delta=1 / 64, n=10**4),
                "arc walk_count brownian_count tv", _exitlaw),
    "branch": (dict(M=1.0, delta=1 / 32, target_arc=0, n=100, radius=1.0),
               "path step x y acceptance", _branch),
    "height": (dict(M=0.0, u_bar=0.0, delta=1 / 8, block=3, n=1000),
               "corner face mean variance", _height),
}


def cmd_experiment(args):
    from .walks import SeedRangeError

    config, header, run = EXPERIMENTS[args.name]
    cfg = _load_config_or_die(args.config, dict(config, seed=None))
    if cfg["seed"] is None:
        cfg["seed"], seed_from = args.seed, "--seed"
    else:
        seed_from = f'{args.config}: "seed"'
    args.seed = cfg["seed"]  # so the manifest records the seed the run used
    try:
        rows = [[args.name, *row] for row in run(cfg, args.seed)]
    except SeedRangeError as exc:  # a stream the seed cannot key
        raise Refused(f"{seed_from} {args.seed}: {exc}")
    except ValueError as exc:  # an input the run refuses
        raise Refused(f"{args.config}: {exc}")
    _write_csv(args.out, ["experiment", *header.split()], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return [args.out]


# -- dispatch -----------------------------------------------------------------


def _int_arg(ok, what):
    """argparse type: an integer for which ok(value) holds."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="massiveforests",
        description="Spanning forests, killed walks, Doob transforms and "
                    "Temperleyan dimers")
    parser.add_argument("--seed", type=_int_arg(_is_seed,
                                                 "an integer in [0, 2**48)"),
                        default=0)
    positive = _int_arg(lambda n: n > 0, "a positive integer")
    parser.add_argument("--threads", type=positive, default=1,
                        help="worker count (never changes results)")
    parser.add_argument("--manifest", default=None,
                        help="manifest path (default: <out>.manifest.json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="generate an isoradial grid file")
    p.add_argument("--kind", choices=["square", "rhombic"], default="square")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--window", type=positive, required=True,
                   help="train tracks per family")
    p.add_argument("--k", type=float, default=0.0, help="elliptic modulus")
    p.add_argument("--M", type=float, default=0.0,
                   help="near-critical mass parameter (overrides --k)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sample-forest", help="Wilson forest sampler")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--root", type=int, default=None)
    p.set_defaults(func=cmd_sample_forest)

    p = sub.add_parser("sample-tree", help="Wilson tree sampler (fixed root)")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_forest)

    p = sub.add_parser("sample-dimers", help="drifted dimer sampler")
    p.add_argument("--graph", required=True)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--M", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1 / 16)
    p.add_argument("--n", type=positive, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_dimers)

    p = sub.add_parser("edge-prob", help="determinantal edge probabilities")
    p.add_argument("--graph", required=True)
    p.add_argument("--edges", required=True,
                   help="comma list like 0-1,2-R (R = cemetery)")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--dump-matrix", default=None,
                   help="write the massive Laplacian as row,col,value CSV")
    p.set_defaults(func=cmd_edge_prob)

    p = sub.add_parser("verify", help="identity batteries")
    p.add_argument("battery", choices=BATTERIES)
    p.add_argument("--graph", default=None)
    p.add_argument("--lambda", dest="lam", default="pow2",
                   help="a JSON table path, which --graph needs, or "
                        "'pow2', the built-in Z-line's")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("charpoly", help="periodic characteristic polynomial")
    p.add_argument("--periodic-graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("experiment", help="near-critical experiments")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    from .walks import TaskRangeError

    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        for path in filter(None, map(vars(args).get,
                                     ("out", "dump_matrix", "manifest"))):
            if not pathlib.Path(path).parent.is_dir():
                raise Refused(f"{path}: no such directory")
            if pathlib.Path(path).is_dir():
                raise Refused(f"{path}: is a directory")
        outputs = args.func(args)
    except (Refused, TaskRangeError) as exc:  # TaskRangeError: --n too large
        where = "" if isinstance(exc, Refused) else f"--n {args.n}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if outputs is None:  # a failed verification battery
        return 1
    if outputs:
        manifest_path = args.manifest or outputs[0] + ".manifest.json"
        args_dict = {k: v for k, v in vars(args).items() if k != "func"}
        file_inputs = [v for k, v in vars(args).items()
                       if k in ("graph", "config", "periodic_graph")
                       and isinstance(v, str)]
        _write_manifest(manifest_path, args.command, args_dict, args.seed,
                        outputs, t0, file_inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
