"""The benchmark's workloads: the input files each one generates and the
CLI stages that run on them.

The inputs of a workload are fixed, so every placements and scheme file
can be checked against a SHA-256 recorded in ``reference.json``. The
``--seed`` of a run orders the workload's independent items (the k-NN
clouds, the ER draws, the two dataset splits); it never changes a graph,
because the heavy search tail belongs to particular graphs and a new graph
per seed would move the timings by more than any bound. See NOTES.md for
why each workload was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("knn-search", "er-tail", "grid-train")

KNN_SEEDS = (42, 43, 44, 45)  # one 64-point cloud per seed
KNN_POINTS = 64
ER_N, ER_P, ER_BASE_SEED, ER_DRAWS = 50, 0.1, 9000, 3
GRID_SIDE = 32

# final train/test accuracy may drift this far (absolute) from the
# reference before a train stage counts as failed; float sums may be
# reordered by a faster ConvLayer, so accuracies are not compared bytewise
ACCURACY_TOLERANCE = 0.05


@dataclass(frozen=True)
class Stage:
    """One CLI invocation. ``check`` names the output that is verified:
    ("sha256", file), ("pass", None) for verify-grid, or ("accuracy", file)
    for the metrics CSV of a train stage."""

    kind: str
    item: str
    argv: tuple[str, ...]
    check: tuple[str, str | None] | None = None


def _write_coordinates(path: Path, points) -> None:
    rows = ["c0,c1"] + [f"{float(x)!r},{float(y)!r}" for x, y in points]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _er_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    # the draw of tests/conftest.py's er_graph, so the graphs are those of
    # acceptance 3
    r = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if r.random() < p]


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def er_draws() -> list[tuple[int, list[tuple[int, int]]]]:
    """The first ER_DRAWS connected ER(ER_N, ER_P) draws from ER_BASE_SEED,
    as (seed, edges)."""
    out = []
    seed = ER_BASE_SEED
    while len(out) < ER_DRAWS:
        edges = _er_edges(ER_N, ER_P, seed)
        if _connected(ER_N, edges):
            out.append((seed, edges))
        seed += 1
    return out


def write_inputs(workload: str, workdir: Path) -> None:
    """Write the workload's generated input files into ``workdir``."""
    if workload == "knn-search":
        for s in KNN_SEEDS:
            points = np.random.default_rng(s).random((KNN_POINTS, 2))
            _write_coordinates(workdir / f"knn{s}.csv", points)
    elif workload == "er-tail":
        for seed, edges in er_draws():
            lines = [str(ER_N)] + [f"{u} {v}" for u, v in edges]
            (workdir / f"er{seed}.edges").write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif workload == "grid-train":
        side = range(GRID_SIDE)
        _write_coordinates(workdir / "grid.csv", [(r, c) for r in side for c in side])
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _translate_and_build(item: str) -> list[Stage]:
    return [
        Stage("translate", item,
              ("translate", "--graph", f"{item}.edges", "--out", f"{item}.placements"),
              ("sha256", f"{item}.placements")),
        Stage("build-layer", item,
              ("build-layer", "--placements", f"{item}.placements", "--out", f"{item}.scheme"),
              ("sha256", f"{item}.scheme")),
    ]


def _datasets_and_train(item: str, epochs: int, swap: bool) -> list[Stage]:
    splits = [
        Stage("make-dataset", item,
              ("make-dataset", "--graph", f"{item}.edges", "--placements", f"{item}.placements",
               "--samples-per-class", str(per_class), "--seed", str(seed),
               "--out", f"{item}.{name}.csv"))
        for name, per_class, seed in (("train", 100, 1), ("test", 50, 2))
    ]
    if swap:
        splits.reverse()
    train = Stage("train", item,
                  ("train", "--scheme", f"{item}.scheme", "--train-data", f"{item}.train.csv",
                   "--test-data", f"{item}.test.csv", "--channels", "4",
                   "--epochs", str(epochs), "--metrics-out", f"{item}.metrics.csv"),
                  ("accuracy", f"{item}.metrics.csv"))
    return splits + [train]


def stages(workload: str, seed: int) -> list[Stage]:
    """The workload's CLI stages, in the order ``seed`` picks."""
    rng = random.Random(seed)
    out: list[Stage] = []
    if workload == "knn-search":
        items = [f"knn{s}" for s in KNN_SEEDS]
        rng.shuffle(items)
        for item in items:
            out.append(Stage("infer-graph", item,
                             ("infer-graph", "--coords", f"{item}.csv", "--out", f"{item}.edges")))
            out += _translate_and_build(item)
            out += _datasets_and_train(item, epochs=5, swap=rng.random() < 0.5)
    elif workload == "er-tail":
        items = [f"er{seed}" for seed, _ in er_draws()]
        rng.shuffle(items)
        for item in items:
            out += _translate_and_build(item)
    elif workload == "grid-train":
        item = "grid"
        out.append(Stage("infer-graph", item,
                         ("infer-graph", "--coords", "grid.csv", "--k", "2", "--out", "grid.edges")))
        out += _translate_and_build(item)
        out.append(Stage("verify-grid", item,
                         ("verify-grid", "--scheme", "grid.scheme",
                          "--rows", str(GRID_SIDE), "--cols", str(GRID_SIDE)),
                         ("pass", None)))
        out += _datasets_and_train(item, epochs=6, swap=rng.random() < 0.5)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def vertex_count(workload: str) -> int:
    """Vertices translated by one repetition of the workload."""
    return {
        "knn-search": KNN_POINTS * len(KNN_SEEDS),
        "er-tail": ER_N * ER_DRAWS,
        "grid-train": GRID_SIDE * GRID_SIDE,
    }[workload]
