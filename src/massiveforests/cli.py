"""Command-line surface: samplers, verification batteries, experiments.

Every run writes its outputs plus a manifest (command, config hash, seed,
versions, wall time).  All randomness flows from --seed through per-task
streams, so identical invocations produce byte-identical outputs at any
--threads setting.  Exit codes: 0 success, 1 verification failure, 2 usage
or input error.
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


def _config_hash(args_dict, file_paths=()):
    h = hashlib.sha256()
    h.update(json.dumps(args_dict, sort_keys=True, default=str).encode())
    for p in file_paths:
        try:
            with open(p, "rb") as fh:
                h.update(fh.read())
        except OSError:
            pass
    return h.hexdigest()[:16]


def _write_manifest(path, command, args_dict, seed, outputs, t0,
                    file_paths=()):
    from . import __version__

    manifest = {
        "command": command,
        "config_hash": _config_hash(args_dict, file_paths),
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


def _read_or_die(read, path):
    """read(path), or `error: ...` and exit 2 if it is missing or malformed."""
    from .io import GraphFormatError

    try:
        return read(path)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
    except (GraphFormatError, json.JSONDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    raise SystemExit(2)


def _load_graph_or_die(path):
    from .io import load_graph

    return _read_or_die(load_graph, path)


def _load_json_or_die(path):
    """A JSON object from `path`, or `error: ...` and exit 2."""
    data = _read_or_die(lambda p: json.loads(pathlib.Path(p).read_text()),
                        path)
    if isinstance(data, dict):
        return data
    print(f"error: {path}: need a JSON object", file=sys.stderr)
    raise SystemExit(2)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


# what each `experiment --config` key must hold: (check, keys)
_CONFIG_VALUES = {
    "an integer": (_is_integer, ("seed", "target_arc")),
    "a positive integer": (lambda v: _is_integer(v) and v > 0,
                           ("n", "block")),
    "a number": (_is_number, ("M", "u_bar", "delta", "delta_ratio",
                              "radius")),
    "a list of numbers": (
        lambda v: isinstance(v, list) and all(map(_is_number, v)),
        ("u_bars", "deltas", "radii", "masses")),
    "a list of [x, y] number pairs": (
        lambda v: isinstance(v, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
            for p in v),
        ("translations",)),
}


def _load_config_or_die(path):
    """An experiment config from `path` whose known keys hold values of
    the right type, or `error: ...` and exit 2."""
    cfg = _load_json_or_die(path)
    for kind, (ok, keys) in _CONFIG_VALUES.items():
        for key in keys:
            if key in cfg and not ok(cfg[key]):
                print(f"error: {path}: {json.dumps(key)} must be {kind}, "
                      f"not {json.dumps(cfg[key])}", file=sys.stderr)
                raise SystemExit(2)
    return cfg


def _load_lambda_or_die(path):
    """{vertex: Fraction} from a JSON object of vertex ids to rationals
    (numbers or strings like "3/2"), or `error: ...` and exit 2."""
    from fractions import Fraction

    lam = {}
    for key, value in _load_json_or_die(path).items():
        try:
            if not (_is_number(value) or isinstance(value, str)):
                raise TypeError
            lam[int(key)] = Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            print(f"error: {path}: entry {json.dumps(key)}: "
                  f"{json.dumps(value)} needs an integer vertex id and a "
                  f"rational value", file=sys.stderr)
            raise SystemExit(2) from None
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

    if args.kind == "square":
        grid = build_square_grid(args.delta, args.window)
    else:
        rng = np.random.default_rng(args.seed)
        phis, psis = random_rhombic_angles(rng, args.window)
        grid = build_rhombic_grid(args.delta, phis, psis)
    if args.M > 0:
        mod = near_critical_modulus(args.M, args.delta)
    else:
        mod = complete_integrals(args.k)
    g, rays = grid_to_graph(grid, mod)
    save_graph(args.out, g, rays=rays)
    print(f"wrote {args.out}: {g.n} vertices, {g.m_edges} directed edges, "
          f"k = {mod.k:.6g}")
    return 0, [args.out]


def cmd_sample_forest(args):
    from .graphs import ROOT
    from .walks import WilsonEdgeCounter

    g = _load_graph_or_die(args.graph)
    if args.root is not None:
        if not 0 <= args.root < g.n:
            print(f"error: --root {args.root} is not a vertex of the graph",
                  file=sys.stderr)
            return 2, []
        roots = {args.root}
    elif any(m > 0 for m in g.masses):
        roots = ()
    else:
        print("error: graph has no mass; pass --root for tree sampling",
              file=sys.stderr)
        return 2, []
    counter = WilsonEdgeCounter(g, roots)
    with ThreadPoolExecutor(max_workers=max(args.threads, 1)) as pool:
        counts = counter.counts(args.n, args.seed, pool.map)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tail", "head", "count", "n_samples"])
        for e, c in zip(counter.pairs, counts):
            head = "root" if e[1] == ROOT else e[1]
            writer.writerow([e[0], head, int(c), args.n])
    print(f"wrote {args.out}")
    return 0, [args.out]


def cmd_edge_prob(args):
    from .graphs import ROOT
    from .linalg import assemble_massive_laplacian, edge_probability

    g = _load_graph_or_die(args.graph)
    outputs = []
    if args.dump_matrix:
        L = assemble_massive_laplacian(g)
        with open(args.dump_matrix, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "value"])
            for i in range(g.n):
                for j in range(g.n):
                    writer.writerow([i, j, repr(L[i, j])])
        outputs.append(args.dump_matrix)
    edges = []
    for token in args.edges.split(","):
        a, b = token.strip().split("-")
        edges.append((int(a), ROOT if b in ("R", "root") else int(b)))
    p = edge_probability(g, edges, exact=args.exact)
    print(f"P({args.edges}) = {p}")
    return 0, outputs


def cmd_sample_dimers(args):
    from .dimers import TemperleySampler
    from .elliptic import complete_integrals, near_critical_modulus
    from .isoradial import drift_field_from_rays

    g = _load_graph_or_die(args.graph)
    if not hasattr(g, "edge_rays"):
        print("error: dimer sampling needs a grid file with per-edge rays",
              file=sys.stderr)
        return 2, []
    if args.M > 0:
        mod = near_critical_modulus(args.M, args.delta)
    else:
        mod = complete_integrals(0.0)
    # --M and --delta give the field's modulus; only the file's own one
    # makes it massive harmonic, i.e. the tilt a Doob transform of the
    # file's killed model
    try:
        bulk, lam = drift_field_from_rays(g, mod, args.u)
    except ValueError as exc:
        print(f"error: drift field refused: {exc}; "
              f"--M and --delta must match the grid file", file=sys.stderr)
        return 2, []

    sampler = TemperleySampler.on_window(g, bulk, lam)
    rows = []
    for sid, (m, h) in enumerate(sampler.samples(args.n, args.seed)):
        for w, (b, slot) in sorted(m.items()):
            rows.append((sid, "match", w, b, 1))
        for (corner, f), v in sorted(h.values.items()):
            rows.append((sid, "height", corner, f, v))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "kind", "key1", "key2", "value"])
        writer.writerows(rows)
    print(f"wrote {args.out}: {args.n} samples, {sampler.dg.n_white} whites")
    return 0, [args.out]


def cmd_charpoly(args):
    from .periodic import PeriodicGraph, charpoly

    pg = _load_graph_or_die(args.periodic_graph)
    if not isinstance(pg, PeriodicGraph):
        print("error: file has no edge offsets; not a periodic graph",
              file=sys.stderr)
        return 2, []
    ev = charpoly(pg)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["exp_z", "exp_w", "coefficient"])
        for (a, b), c in sorted(ev.coeffs.items()):
            writer.writerow([a, b, repr(c)])
    hull = ev.newton_polygon()
    print(f"wrote {args.out}; Newton polygon vertices: {hull}")
    return 0, [args.out]


# -- verify batteries -------------------------------------------------------


def verify_elliptic():
    from .elliptic import (
        complete_integrals,
        jacobi,
        modulus_from_nome,
        verify_near_critical_asymptotics,
    )

    failures = []
    mod0 = complete_integrals(0.0)
    if abs(mod0.K - math.pi / 2) > 1e-14 or abs(mod0.E - math.pi / 2) > 1e-14:
        failures.append("K(0), E(0)")
    for k in np.arange(0.1, 0.95, 0.1):
        m = complete_integrals(float(k))
        legendre = m.E * m.Kprime + m.Eprime * m.K - m.K * m.Kprime
        if abs(legendre - math.pi / 2) > 1e-12:
            failures.append(f"Legendre at k={k:.1f}")
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = float(rng.uniform(-3, 3))
        k = float(rng.uniform(0, 0.95))
        v = jacobi(u, complete_integrals(k))
        if abs(v.sn**2 + v.cn**2 - 1) > 1e-12 or \
           abs(v.dn**2 + k * k * v.sn**2 - 1) > 1e-12:
            failures.append(f"pythagorean at u={u:.3f}, k={k:.3f}")
            break
    for q in (0.3, 0.05, 1e-3):
        if abs(modulus_from_nome(q).q - q) > 1e-12:
            failures.append(f"nome round trip at q={q}")
    rows = verify_near_critical_asymptotics(1.0, [1e-2, 1e-3, 1e-4])
    for i in (1, 2):
        if rows[i][1] > 4 * max(rows[i - 1][1], 1e-6) + 1e-6:
            failures.append("near-critical k^2 rate")
    for line in ("K(0) = E(0) = pi/2", "Legendre relation",
                 "Jacobi identities", "nome round trip",
                 "near-critical rates"):
        print(f"  {line}: ok" if not failures else f"  {line}: checked")
    return failures


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
            lam = {i: Fraction(2) ** int(round(g.positions[i][0]))
                   for i in range(g.n)}
        else:
            lam = _load_lambda_or_die(lam_spec)
        subset = [x for x in range(g.n)
                  if all(lam.get(y) is not None for y in g.neighbours(x))]
    out = verify_partition_equality(g, subset, lam, exact=exact)
    zf, zt, gap = out[:3]
    if exact:
        print(f"  Z_RSF = {zf}")
        print(f"  Z_RST^o = {zt}")
    else:
        print(f"  (sign, log|Z_RSF|) = {zf}")
        print(f"  (sign, log|Z_RST^o|) = {zt}")
    print(f"  gap = {gap}")
    ok = (gap == 0) if exact else (gap <= 1e-10)
    return [] if ok else ["partition equality"]


def verify_dimers():
    from fractions import Fraction

    from .dimers import (
        check_kasteleyn_property,
        drifted_weights,
        partition_check,
        verify_block_identity,
    )
    from .graphs import collapse_boundary, grid_graph, wired_restriction
    from .planar import build_dual_and_double

    failures = []
    amb = grid_graph(4, 4, m=Fraction(9, 4))
    subset = [amb.positions.tolist().index([float(i), float(j)])
              for j in (1, 2) for i in (1, 2)]
    col = collapse_boundary(amb, subset)
    window = wired_restriction(amb, subset)
    _, dg = build_dual_and_double(col, amb.positions)
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
    off, v_off, dual_dev, v_diag = verify_block_identity(
        dg, lam, lam_star, window)
    print(f"  block identity: off={off:.2e} V-off={v_off:.2e} "
          f"dual={dual_dev:.2e} diag-defect={v_diag:.2e}")
    if max(off, v_off, dual_dev) > 1e-12 or v_diag > 1e-10:
        failures.append("block identity")
    return failures


def verify_periodic():
    from .periodic import (
        charpoly,
        perron_search,
        square_lattice,
        verify_translation,
    )

    failures = []
    pg = square_lattice(0.5)
    z0, vec, beta, _ = perron_search(pg)
    print(f"  z0 = ({z0[0]:.12f}, {z0[1]:.0f}), beta = {beta:.12f}")
    if abs(z0[0] - 2.0) > 1e-10 or abs(beta - 1.0) > 1e-10:
        failures.append("Perron search z0 = (2, 1)")
    gap = verify_translation(pg, z0, vec)
    print(f"  translation identity gap = {gap:.2e}")
    if gap > 1e-8:
        failures.append("translation identity")
    ev = charpoly(square_lattice(1.0))
    if abs(ev.coeffs.get((0, 0), 0) - 5.0) > 1e-9:
        failures.append("charpoly coefficients")
    print("  charpoly coefficients: ok" if "charpoly coefficients"
          not in failures else "  charpoly coefficients: FAIL")
    return failures


def cmd_verify(args):
    t0 = time.time()
    if args.battery == "elliptic":
        failures = verify_elliptic()
    elif args.battery == "doob":
        failures = verify_doob(args.graph, args.lam, args.exact)
    elif args.battery == "dimers":
        failures = verify_dimers()
    elif args.battery == "periodic":
        failures = verify_periodic()
    else:
        print(f"unknown battery {args.battery}", file=sys.stderr)
        return 2, []
    if failures:
        print(f"verify {args.battery}: FAIL ({', '.join(failures)})")
        return 1, []
    print(f"verify {args.battery}: ok ({time.time() - t0:.1f}s)")
    return 0, []


# -- experiments -------------------------------------------------------------


def cmd_experiment(args):
    from .nearcrit import (
        conditioned_branch_sampler,
        crossing_grid,
        exit_law_brownian,
        exit_law_walk,
        girsanov_ratio_check,
        height_field_stats,
        total_variation,
    )

    cfg = _load_config_or_die(args.config)
    seed = cfg.get("seed", args.seed)
    out = args.out
    rows = []
    if args.name == "girsanov":
        for u_bar in cfg.get("u_bars", [0.0]):
            table = girsanov_ratio_check(cfg.get("M", 1.0), u_bar,
                                         cfg.get("deltas", [1 / 32, 1 / 64]))
            for (d, ratio, target, err) in table:
                rows.append(["girsanov", d, cfg.get("M", 1.0), u_bar,
                             ratio, target, err])
        header = ["experiment", "delta", "M", "u_bar", "ratio", "target",
                  "error"]
    elif args.name == "crossing":
        cells = crossing_grid(
            radii=cfg.get("radii", [0.3]),
            masses=cfg.get("masses", [0.0, 1.0]),
            translations=[complex(*z) for z in
                          cfg.get("translations", [[0.0, 0.0]])],
            n_samples=cfg.get("n", 10**4), seed=seed,
            delta_ratio=cfg.get("delta_ratio", 1 / 64))
        for spec, M, _, est, se in cells:
            rows.append(["crossing", spec.r, M, spec.horizontal,
                         spec.z.real, spec.z.imag, est, se])
        header = ["experiment", "r", "M", "horizontal", "z_re", "z_im",
                  "estimate", "stderr"]
    elif args.name == "exitlaw":
        M = cfg.get("M", 1.0)
        u_bar = cfg.get("u_bar", 0.0)
        d = cfg.get("delta", 1 / 64)
        n = cfg.get("n", 10**4)
        cw, _ = exit_law_walk(M, u_bar, d, n, seed)
        cb, _ = exit_law_brownian(M, u_bar, d, n, seed + 1)
        tv = total_variation(cw, cb)
        for b in range(len(cw)):
            rows.append(["exitlaw", b, int(cw[b]), int(cb[b]), tv])
        header = ["experiment", "arc", "walk_count", "brownian_count", "tv"]
    elif args.name == "branch":
        paths, acc = conditioned_branch_sampler(
            cfg.get("M", 1.0), cfg.get("delta", 1 / 32),
            cfg.get("target_arc", 0), cfg.get("n", 100), seed,
            radius=cfg.get("radius", 1.0))
        for i, p in enumerate(paths):
            for j, z in enumerate(p):
                rows.append(["branch", i, j, z.real, z.imag, acc])
        header = ["experiment", "path", "step", "x", "y", "acceptance"]
    elif args.name == "height":
        quads, mean, var, _ = height_field_stats(
            cfg.get("M", 0.0), cfg.get("u_bar", 0.0),
            cfg.get("delta", 1 / 8), cfg.get("block", 3),
            cfg.get("n", 1000), seed)
        for q, m_, v_ in zip(quads, mean, var):
            rows.append(["height", q[0], q[1], m_, v_])
        header = ["experiment", "corner", "face", "mean", "variance"]
    else:
        print(f"unknown experiment {args.name}", file=sys.stderr)
        return 2, []
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0, [out]


# -- dispatch -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="massiveforests",
        description="Spanning forests, killed walks, Doob transforms and "
                    "Temperleyan dimers")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker count (never changes results)")
    parser.add_argument("--manifest", default=None,
                        help="manifest path (default: <out>.manifest.json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="generate an isoradial grid file")
    p.add_argument("--kind", choices=["square", "rhombic"], default="square")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--window", type=int, required=True,
                   help="train tracks per family")
    p.add_argument("--k", type=float, default=0.0, help="elliptic modulus")
    p.add_argument("--M", type=float, default=0.0,
                   help="near-critical mass parameter (overrides --k)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sample-forest", help="Wilson forest sampler")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--root", type=int, default=None)
    p.set_defaults(func=cmd_sample_forest)

    p = sub.add_parser("sample-tree", help="Wilson tree sampler (fixed root)")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_forest)

    p = sub.add_parser("sample-dimers", help="drifted dimer sampler")
    p.add_argument("--graph", required=True)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--M", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1 / 16)
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("battery", choices=["elliptic", "doob", "dimers",
                                       "periodic"])
    p.add_argument("--graph", default=None)
    p.add_argument("--lambda", dest="lam", default="pow2",
                   help="builtin 'pow2' or a JSON table path")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("charpoly", help="periodic characteristic polynomial")
    p.add_argument("--periodic-graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("experiment", help="near-critical experiments")
    p.add_argument("name", choices=["girsanov", "crossing", "exitlaw",
                                    "branch", "height"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        result = args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code, outputs = result
    if code == 0 and outputs:
        manifest_path = args.manifest or outputs[0] + ".manifest.json"
        args_dict = {k: v for k, v in vars(args).items()
                     if k not in ("func",)}
        file_inputs = [v for k, v in vars(args).items()
                       if k in ("graph", "config", "periodic_graph")
                       and isinstance(v, str)]
        _write_manifest(manifest_path, args.command, args_dict, args.seed,
                        outputs, t0, file_inputs)
    return code


if __name__ == "__main__":
    sys.exit(main())
