from __future__ import annotations

import random

import pytest
from hypothesis import settings

from gcforge.graph import Graph, is_connected
from gcforge.propagation import init_kernel, most_central_vertex, propagate
from gcforge.translations import KernelPlacement

# hypothesis profile of the property tests: derandomized, so every run draws
# the same examples
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Center 0 with n-1 leaves."""
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def torus_graph(rows: int, cols: int) -> Graph:
    """Row-major rows x cols grid whose rows and columns wrap around."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for w in (r * cols + (c + 1) % cols, (r + 1) % rows * cols + c):
                edges.add((min(v, w), max(v, w)))
    return Graph(rows * cols, sorted(edges))


def er_graph(n: int, p: float, seed: int) -> Graph:
    r = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if r.random() < p])


def connected_er_graphs(count: int, n: int, p: float, base_seed: int) -> list[Graph]:
    """First ``count`` connected draws from a deterministic seed sequence."""
    out: list[Graph] = []
    seed = base_seed
    while len(out) < count:
        g = er_graph(n, p, seed)
        seed += 1
        if is_connected(g):
            out.append(g)
    return out


# SHA-256 of serialize_placements(propagate(g, init_kernel(g, most_central_vertex(g))))
# at alpha = beta = 1 on each acceptance-3 graph,
# connected_er_graphs(10, 50, 0.1, base_seed=9000), recorded in a fresh
# process before the search memo and thread pool were removed.
ER50_SHA256 = (
    "74cec13bdc3e19464c0efeccfe1d6c35d470b9aaeea04f2aa18b45462cc62db2",
    "5876d06844bf1bc9b32f67408c10f1a7e7b36dde5000b9754b2581d69b037a14",
    "e3d9a19b59b93b17401a725e85821afb1eaa6cef40500826f616586e1153c54d",
    "b02eccd66c92e14cf11b67f22b18d41cb07e9e8efd0b138661a74f700e582d9e",
    "2d860f6946e978fd457dbd33b21ed3410069a63ddf4b3245c9da29c58a4e87b9",
    "398007959bba67b720f1c3d6c9429102e4dc84055a8e387c6e9065b2fa24a4bc",
    "2b804e8e9654a1c8b90142649b5c4973edfc7e841f42ce25830e4d69b990687f",
    "894be912eb9b3da5593531049bcf6e2d1667c43fe2e36c4b2d0c01d3a074d1cb",
    "5126b43e4bb618dcbe8701477337d5fb0e52c4528f72830f5add1c79a51ee10e",
    "520177dd0e9e8fd127a620c34a70ffa3a608502a0f16f9a69a0ea3bc8b8a509a",
)


def oracle_family() -> list[Graph]:
    """The small graphs on which acceptance 2 checks the search against
    the brute-force oracle."""
    graphs = []
    for n in range(2, 8):
        graphs.append(path_graph(n))
    for n in range(3, 8):
        graphs.append(cycle_graph(n))
        graphs.append(star_graph(n))
        graphs.append(complete_graph(n))
    graphs.extend(connected_er_graphs(20, 7, 0.5, base_seed=7000))
    return graphs


def oracle_placements(g: Graph) -> list[KernelPlacement]:
    """A fresh kernel at every vertex, plus the degraded placements (with
    lost slots) of an actual propagation, except on the large complete
    graphs where they repeat the full kernels already listed."""
    placements = [init_kernel(g, v) for v in range(g.n)]
    if is_connected(g) and not (len(g.edges) == g.n * (g.n - 1) // 2 and g.n >= 6):
        pm = propagate(g, init_kernel(g, most_central_vertex(g)))
        placements.extend(pm.placements[v] for v in sorted(pm.placements))
    return placements


@pytest.fixture
def path3() -> Graph:
    return path_graph(3)


@pytest.fixture
def k3() -> Graph:
    return complete_graph(3)
