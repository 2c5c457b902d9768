from __future__ import annotations

import random

import pytest

from gcforge.graph import Graph, is_connected
from gcforge.propagation import init_kernel, most_central_vertex, propagate
from gcforge.translations import KernelPlacement


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Center 0 with n-1 leaves."""
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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
