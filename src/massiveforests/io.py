"""Graph file format: JSON with vertices, edges and optional extras.

    {"vertices": [{"id": 0, "x": 0.0, "y": 0.0, "mass": "1/2"}, ...],
     "edges": [{"from": 0, "to": 1, "conductance": 1.0,
                "alpha": -0.785, "beta": 0.785, "offset": [1, 0]}, ...]}

Masses default to 0 and loops are allowed.  Numbers may be given as
strings like "21/4", which load as exact rationals.  A directed edge whose
reverse is absent gets one with the same conductance.  Per-edge rays
(alpha, beta) mark isoradial grids: every edge carries them or none does,
and an added reverse gets its edge's rays turned by pi.  Offsets mark
Z^2-periodic graphs.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .graphs import WeightedGraph


class GraphFormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None
                         else f"line {line}: {message}")


def _number(v, what):
    """A JSON number as it is, a string like "21/4" as a Fraction."""
    if type(v) in (int, float):  # a bool is not a number here
        return v
    try:
        if isinstance(v, str):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise GraphFormatError(f"{what} {json.dumps(v)} is not a number")


def _number_to_json(v):
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


def _checked(graph_class, *args, **kwargs):
    """graph_class(...); its ValueError becomes a GraphFormatError."""
    try:
        return graph_class(*args, **kwargs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def load_graph(path):
    """WeightedGraph from a JSON graph file; rays attach as `edge_rays`,
    an (m, 2) array of (alpha, beta) in edge order."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(exc.msg, line=exc.lineno) from exc
    try:
        vertices = data["vertices"]
        raw_edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError("need 'vertices' and 'edges' lists") from exc

    try:
        ids = [v["id"] for v in vertices]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError("every vertex needs an 'id'") from exc
    if sorted(ids) != list(range(len(ids))):
        raise GraphFormatError("vertex ids must be dense integers 0..n-1")
    n = len(ids)
    masses = [0] * n
    positions = None
    if vertices and "x" in vertices[0]:
        positions = np.zeros((n, 2))
    for v in vertices:
        masses[v["id"]] = _number(v.get("mass", 0), f"vertex {v['id']} mass")
        if positions is not None:
            try:
                positions[v["id"]] = (v["x"], v["y"])
            except KeyError as exc:
                raise GraphFormatError(
                    f"vertex {v['id']}: need both 'x' and 'y'") from exc

    edges = []
    rays = []  # (alpha, beta) or None per edge
    offsets = []
    seen = {}
    for i, e in enumerate(raw_edges):
        try:
            x, y = int(e["from"]), int(e["to"])
            c = _number(e["conductance"], "conductance")
        except (KeyError, ValueError, TypeError) as exc:
            raise GraphFormatError(
                f"edge {i}: need integer 'from'/'to' and a positive "
                f"'conductance'") from exc
        if not 0 <= x < n or not 0 <= y < n:
            raise GraphFormatError(f"edge {i}: endpoint out of range")
        edges.append((x, y, c))
        seen[(x, y)] = i
        try:
            rays.append((float(e["alpha"]), float(e["beta"]))
                        if "alpha" in e else None)
            offsets.append(tuple(int(o) for o in e["offset"])
                           if "offset" in e else None)
        except (KeyError, ValueError, TypeError) as exc:
            raise GraphFormatError(
                f"edge {i}: need 'alpha' with 'beta' and integer 'offset' "
                f"entries") from exc
    # close under reversal for convenience; rays turn by pi
    for (x, y), i in list(seen.items()):
        if x != y and (y, x) not in seen:
            edges.append((y, x, edges[i][2]))
            rays.append(None if rays[i] is None else
                        (rays[i][0] + np.pi, rays[i][1] + np.pi))
            seen[(y, x)] = i
    if any(o is not None for o in offsets):
        from .periodic import PeriodicGraph

        if None in offsets:
            raise GraphFormatError(
                f"edge {offsets.index(None)}: periodic graphs need an "
                f"'offset' on every edge")
        # the first len(raw_edges) entries of `edges` are the file's edges
        pedges = [(x, y, o, float(c)) for (x, y, c), o in zip(edges, offsets)]
        have = {(x, y, o) for (x, y, o, _) in pedges}
        for (x, y, o, c) in list(pedges):
            if (y, x, (-o[0], -o[1])) not in have:
                pedges.append((y, x, (-o[0], -o[1]), c))
        return _checked(PeriodicGraph, n, pedges, [float(m) for m in masses])

    if None in rays and any(rays):
        raise GraphFormatError(
            f"edge {rays.index(None)}: rays need 'alpha' and 'beta' on "
            f"every edge or on none")
    g = _checked(WeightedGraph, n, edges, masses, positions=positions)
    if any(rays):
        g.edge_rays = np.array(rays)
    return g


def save_graph(path, g: WeightedGraph, rays=None):
    """Write g as a JSON graph file; `rays` is an (m, 2) array of
    (alpha, beta) in edge order, as `grid_to_graph` gives."""
    rays = None if rays is None else np.asarray(rays).tolist()
    vertices = []
    for v in range(g.n):
        entry = {"id": v, "mass": _number_to_json(g.masses[v])}
        if g.positions is not None:
            entry["x"] = float(g.positions[v][0])
            entry["y"] = float(g.positions[v][1])
        vertices.append(entry)
    edges = []
    for eid in range(g.m_edges):
        x, y = int(g.tail[eid]), int(g.head[eid])
        entry = {"from": x, "to": y,
                 "conductance": _number_to_json(g.cond[eid])}
        if rays is not None:
            entry["alpha"], entry["beta"] = rays[eid]
        edges.append(entry)
    with open(path, "w") as fh:
        json.dump({"vertices": vertices, "edges": edges}, fh, indent=1)
        fh.write("\n")


def save_periodic_graph(path, pg):
    vertices = [{"id": v, "mass": float(pg.masses[v])} for v in range(pg.n)]
    edges = [{"from": x, "to": y, "offset": list(o), "conductance": float(c)}
             for (x, y, o, c) in pg.edges]
    with open(path, "w") as fh:
        json.dump({"vertices": vertices, "edges": edges}, fh, indent=1)
        fh.write("\n")


def grid_to_graph(grid, modulus):
    """Z-invariant weighted graph of a grid plus its per-edge rays, an
    (m, 2) array of (alpha, beta) in edge order."""
    from .isoradial import z_invariant_weights

    g = z_invariant_weights(grid, modulus)
    # g's edges run tail -> head, then head -> tail, whose rays turn by pi
    rays = np.stack([grid.edge_alpha, grid.edge_beta], axis=1)
    return g, np.stack([rays, rays + np.pi], axis=1).reshape(-1, 2)
