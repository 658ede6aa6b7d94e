"""Bit-for-bit pins of the `periodic` outputs.

Each digest is the sha256 of the exact (float.hex) values of one output
over 24 graphs: `square_lattice` at masses 0, 0.5 and 1, the two-vertex
domain of `test_periodic` and its 20 seeded random periodic graphs with
offsets in [-2, 2].  The values were recorded with numpy 2.4 on x86-64;
they move only if the arithmetic of the Bloch matrices, their
determinants, the coefficient recovery or the Perron solver
(`np.linalg.eig` plus `brentq`) changes.
"""

import hashlib
import json

import numpy as np
import pytest
from test_periodic import random_periodic_graph, two_vertex_domain

from massiveforests.periodic import (
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
        "035b60fad10d32ed27711957de27537f0e0777629d4657be12e8c55993728c7e",
    "verify_translation":
        "59cf5c1a92a7aafde1cfac418c0327a68ee3a38b2bf6eb47e859627df632ac8d",
    "spectral_probe":
        "c789fcfa38d6b0e9e50a1095645fc9c19f82799d7a6214511b2b20d30cfaa73a",
    "unroll":
        "c8c75cb8f201aa56c0cff7368e49cad36639c5654f6d84e265e10c309a4da770",
}


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
    z0, vec, beta = perron_search(pg)
    g = pg.unroll(3, 4)
    return {
        "charpoly": sorted(ev.coeffs.items()),
        "newton_polygon": ev.newton_polygon(),
        "perron_search": [z0, vec, beta],
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
