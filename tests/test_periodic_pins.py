"""Bit-for-bit pins of the `periodic` outputs.

Each digest is the sha256 of the exact (float.hex) values of one output
over 24 graphs: `square_lattice` at masses 0, 0.5 and 1, the two-vertex
domain of `test_periodic` and its 20 seeded random periodic graphs with
offsets in [-2, 2].  The values were recorded with numpy 2.4 on x86-64,
with each Bloch entry summed in its canonical edge order; they move only
if the arithmetic of the Bloch matrices, their determinants, the
coefficient recovery or the Perron solver (`np.linalg.eig` plus
`brentq`) changes.
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
        "2be09b8b61301f44b0c20ae9c7d059e4b063d7eb878fa923635e474ff49d4ef7",
    "newton_polygon":
        "5d08fbb1387ddd847b57efee7e4178444e946d772f815bb3c0fa00df56db94d2",
    "perron_search":
        "fd3c18e02469935ad6cd352ff6dfc5b74737f0ae749012ada6920d9213578b23",
    "verify_translation":
        "481560ce1c1ca4f4556cf79ad7efb33a114e97e587c1fccb8848e2bb800a5342",
    "spectral_probe":
        "f1475de592d6e8b244a69386fa8db2de1e2a4c188a4e8814f4b73e11e43b17d7",
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
