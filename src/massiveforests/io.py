"""Graph file format: JSON with vertices, edges and optional extras.

    {"vertices": [{"id": 0, "x": 0.0, "y": 0.0, "mass": "1/2"}, ...],
     "edges": [{"from": 0, "to": 1, "conductance": 1.0,
                "alpha": -0.785, "beta": 0.785, "offset": [1, 0]}, ...]}

Vertex ids are the integers 0..n-1 in any order, masses default to 0 and
loops are allowed.  Numbers may be given as strings like "21/4", which load
as exact rationals.  Every value must be finite, conductances positive and
masses nonnegative.  Positions (x, y), per-edge rays (alpha, beta), which
mark isoradial grids, and offsets, which mark Z^2-periodic graphs, are on
every vertex or edge or on none.  Each edge x -> y at offset o (o = (0, 0)
in a plain file) whose reverse y -> x at offset -o is absent gets its own
reverse: same conductance, rays turned by pi, offset negated.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .graphs import WeightedGraph, reverse_edges


class GraphFormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None
                         else f"line {line}: {message}")


_BAD = (AttributeError, TypeError, ValueError, ArithmeticError)


def _integers(values):
    if not set(map(type, values)) <= {int}:  # a bool or 0.0 is no id here
        raise TypeError(values)
    return np.array(values, dtype=int)


def _numbers(values):
    """JSON numbers as they are, strings like "21/4" as Fractions; a bool
    is not a number here."""
    if set(map(type, values)) <= {int, float}:
        return values
    return [v if type(v) in (int, float) else
            Fraction(v if isinstance(v, str) else None) for v in values]


def _floats(values):
    a = np.array(values, dtype=float)
    if a.ndim != 1 or not np.isfinite(a).all():
        raise ValueError(values)
    return a


def _column(rows, what, key, kind, default=None, optional=None):
    """The field `key` of every row (vertex or edge, as `what` says) as one
    column, by `kind`: a converter, which takes no None, and what it needs
    each value to be.  An `optional` field, so named in errors, is None if
    no row has it.  A GraphFormatError names the first row at fault."""
    convert, noun = kind
    if optional and not any(key in row for row in rows):
        return None
    try:
        return convert([row.get(key, default) for row in rows])
    except _BAD:
        pass
    for i, row in enumerate(rows):
        try:
            convert([row.get(key, default)])
        except _BAD as exc:
            got = (f", not {json.dumps(row[key])}" if isinstance(row, dict)
                   and key in row else f" on every {what} or on none"
                   if optional else "")
            raise GraphFormatError(
                f"{what} {i}: {optional + ' ' if optional else ''}need "
                f"'{key}' as {noun}{got}") from exc


_INTEGER, _NUMBER = (_integers, "an integer"), (_numbers, "a number")
_FLOAT, _PAIR = (_floats, "a finite number"), (lambda values: np.array(
    [(int(i), int(j)) for i, j in values], dtype=int).reshape(-1, 2),
    "an integer pair")


def _number_to_json(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def load_graph(path):
    """WeightedGraph, or PeriodicGraph for a file with offsets, from a JSON
    graph file; a plain file's rays attach as `edge_rays`, an (m, 2) array
    of (alpha, beta) in edge order."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(exc.msg, line=exc.lineno) from exc
    if not (isinstance(data, dict) and isinstance(data.get("vertices"), list)
            and isinstance(data.get("edges"), list)):
        raise GraphFormatError("need 'vertices' and 'edges' lists")
    vertices, edges = data["vertices"], data["edges"]

    ids = _column(vertices, "vertex", "id", _INTEGER)
    n = len(ids)
    if not np.array_equal(np.sort(ids), np.arange(n)):
        raise GraphFormatError("vertex ids must be dense integers 0..n-1")
    by_id = np.argsort(ids).tolist()  # the row of each id
    masses = _column(vertices, "vertex", "mass", _NUMBER, default=0)
    masses = list(map(masses.__getitem__, by_id))
    x = _column(vertices, "vertex", "x", _FLOAT, optional="positions")
    positions = None if x is None else np.column_stack(
        [x, _column(vertices, "vertex", "y", _FLOAT)])[by_id]

    tail = _column(edges, "edge", "from", _INTEGER)
    head = _column(edges, "edge", "to", _INTEGER)
    cond = _column(edges, "edge", "conductance", _NUMBER)
    alpha = _column(edges, "edge", "alpha", _FLOAT, optional="rays")
    rays = None if alpha is None else np.column_stack(
        [alpha, _column(edges, "edge", "beta", _FLOAT)])
    off = _column(edges, "edge", "offset", _PAIR, optional="periodic graphs")
    outside = np.flatnonzero((np.minimum(tail, head) < 0) |
                             (np.maximum(tail, head) >= n))
    if outside.size:
        raise GraphFormatError(f"edge {outside[0]}: endpoint out of range")

    # the one reverse closure: each edge without its reverse gets its own
    lone = np.flatnonzero(reverse_edges(n, tail, head, off) < 0)
    tail, head = np.r_[tail, head[lone]], np.r_[head, tail[lone]]
    cond = cond + [cond[i] for i in lone.tolist()]
    try:  # a value the graph refuses is a format error too
        if off is not None:
            from .periodic import PeriodicGraph

            return PeriodicGraph(n, (tail, head, np.r_[off, -off[lone]], cond),
                                 masses)
        g = WeightedGraph(n, (tail, head, cond), masses, positions=positions)
    except (ValueError, OverflowError) as exc:  # 1e400 as an integer, say
        raise GraphFormatError(str(exc)) from exc
    if rays is not None:
        g.edge_rays = np.r_[rays, rays[lone] + np.pi]
    return g


def _dump(path, vertices, edges):
    with open(path, "w") as fh:
        json.dump({"vertices": vertices, "edges": edges}, fh, indent=1)
        fh.write("\n")


def save_graph(path, g: WeightedGraph, rays=None):
    """Write g as a JSON graph file; `rays` is an (m, 2) array of
    (alpha, beta) in edge order, as `grid_to_graph` gives."""
    vertices = [{"id": v, "mass": _number_to_json(m)}
                for v, m in enumerate(g.masses)]
    for entry, (x, y) in zip(vertices, [] if g.positions is None
                             else g.positions.tolist()):
        entry["x"], entry["y"] = x, y
    edges = [{"from": x, "to": y, "conductance": _number_to_json(c)}
             for x, y, c in zip(g.tail.tolist(), g.head.tolist(), g.cond)]
    for entry, (alpha, beta) in zip(edges, [] if rays is None
                                    else np.asarray(rays).tolist()):
        entry["alpha"], entry["beta"] = alpha, beta
    _dump(path, vertices, edges)


def save_periodic_graph(path, pg):
    _dump(path, [{"id": v, "mass": float(m)} for v, m in enumerate(pg.masses)],
          [{"from": x, "to": y, "offset": o, "conductance": c}
           for x, y, o, c in zip(pg.tail.tolist(), pg.head.tolist(),
                                 pg.off.tolist(), pg.cond.tolist())])


def grid_to_graph(grid, modulus):
    """Z-invariant weighted graph of a grid plus its per-edge rays, an
    (m, 2) array of (alpha, beta) in edge order."""
    from .isoradial import z_invariant_weights

    g = z_invariant_weights(grid, modulus)
    # g's edges run both ways (`graphs.both_ways`): edge 2k is grid edge k,
    # edge 2k + 1 its reverse, whose rays turn by pi
    rays = np.stack([grid.edge_alpha, grid.edge_beta], axis=1)
    return g, np.stack([rays, rays + np.pi], axis=1).reshape(-1, 2)
