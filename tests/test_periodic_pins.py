"""Bit-for-bit pins of the `periodic` outputs.

Each digest is the sha256 of the exact (float.hex) values of one output
over 24 graphs: `square_lattice` at masses 0, 0.5 and 1, the two-vertex
domain of `test_periodic` and 20 seeded random periodic graphs with
offsets in [-2, 2].  The values were recorded with numpy 2.4 on x86-64;
they move only if the arithmetic of the Bloch matrices, their
determinants or the coefficient recovery changes.
"""

import hashlib
import json

import numpy as np
import pytest
from test_periodic import two_vertex_domain

from massiveforests.periodic import (
    PeriodicGraph,
    charpoly,
    perron_search,
    spectral_probe,
    square_lattice,
    verify_translation,
)

PINNED_SHA256 = {
    "charpoly":
        "d2db592ab87e0047b53fc76d4ef20a0d254c360dc8440a87736dcc2122a949f2",
    "newton_polygon":
        "5d08fbb1387ddd847b57efee7e4178444e946d772f815bb3c0fa00df56db94d2",
    "perron_search":
        "32278437322420942198c5b06cce38225a78a0e81ddf9a43ca3245c11889925b",
    "verify_translation":
        "d2d43aa657f4a484c7d1654639eca8c5d30cd403a65ab0fcb6245c4d3851e1d8",
    "spectral_probe":
        "c789fcfa38d6b0e9e50a1095645fc9c19f82799d7a6214511b2b20d30cfaa73a",
    "unroll":
        "c8c75cb8f201aa56c0cff7368e49cad36639c5654f6d84e265e10c309a4da770",
}


def random_periodic_graph(seed):
    """1-3 vertices on a cycle plus two random edges, offsets in [-2, 2];
    the first edge crosses in i and the second in j, so the Perron search
    brackets its crossing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    pairs = [(x, (x + 1) % n) for x in range(n)]
    pairs += [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2)]
    edges = []
    for k, (x, y) in enumerate(pairs):
        o = [int(rng.integers(-2, 3)), int(rng.integers(-2, 3))]
        if k < 2 and o[k] == 0:
            o[k] = 1
        if x == y and o == [0, 0]:
            o = [0, 1]
        c = float(rng.uniform(0.5, 2.0))
        edges.append((x, y, tuple(o), c))
        edges.append((y, x, (-o[0], -o[1]), c))
    masses = [float(rng.uniform(0.1, 1.0)) for _ in range(n)]
    return PeriodicGraph(n, edges, masses)


def pinned_graphs():
    return ([square_lattice(m) for m in (0.0, 0.5, 1.0)]
            + [two_vertex_domain()]
            + [random_periodic_graph(seed) for seed in range(20)])


def exact(value):
    """`value` with every float spelled by float.hex, as JSON."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, complex):
        return [exact(value.real), exact(value.imag)]
    if isinstance(value, float):
        return float(value).hex()
    return int(value)


def outputs(pg):
    ev = charpoly(pg)
    z0, vec, beta, log = perron_search(pg)
    g = pg.unroll(3, 4)
    return {
        "charpoly": sorted(ev.coeffs.items()),
        "newton_polygon": ev.newton_polygon(),
        "perron_search": [z0, vec, beta, log],
        "verify_translation": verify_translation(pg, z0, vec),
        "spectral_probe": spectral_probe(pg),
        "unroll": [list(zip(g.tail.tolist(), g.head.tolist(),
                            [float(c) for c in g.cond])),
                   g.masses],
    }


def digests():
    per_graph = [outputs(pg) for pg in pinned_graphs()]
    return {name: hashlib.sha256(json.dumps(
        exact([out[name] for out in per_graph])).encode()).hexdigest()
        for name in PINNED_SHA256}


@pytest.fixture(scope="module")
def recorded():
    return digests()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_periodic_output_pinned(recorded, name):
    assert recorded[name] == PINNED_SHA256[name]
