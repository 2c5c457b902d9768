"""Graph data model, edge-list / coordinate ingestion, and k-NN inference.

Vertices are integer ids ``0..n-1``. Graphs are undirected, simple, and
immutable after construction; every neighbor list is kept sorted so that
downstream algorithms are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class LineNumberedError(Exception):
    """Malformed input text. Carries a 1-based line number, when there is one."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class GraphError(Exception):
    """Base class for graph construction and parsing failures."""


class EdgeListFormatError(LineNumberedError, GraphError):
    """Malformed edge-list content."""


class CoordinateFormatError(LineNumberedError, GraphError):
    """Malformed coordinate CSV content."""


class ParameterError(GraphError):
    """A numeric parameter is outside its documented range."""


class ConnectivityError(GraphError):
    """An operation that requires a connected graph got a disconnected one."""


class Graph:
    """Undirected simple graph with sorted adjacency.

    Construction rejects self-loops and out-of-range endpoints, and collapses
    duplicate undirected edges.
    """

    __slots__ = ("n", "edges", "_adj", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ParameterError(f"vertex count must be nonnegative, got {n}")
        normalized: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(normalized))
        adj: list[list[int]] = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._masks: tuple[int, ...] = tuple(masks)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._masks[u] >> v & 1)

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Every vertex's neighbor bitmask, indexed by vertex (immutable)."""
        return self._masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class CoordinateSet:
    """Per-vertex spatial coordinates: an (n, d) array of finite reals."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise CoordinateFormatError(
                f"expected an (n, d) array with d >= 1, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise CoordinateFormatError("coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _significant_lines(text: str) -> Iterable[tuple[int, str]]:
    # yields (1-based line number, stripped content), skipping blanks and
    # comment lines introduced by '#'
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def load_edge_list(text: str) -> Graph:
    """Parse edge-list text: first line ``n``, then ``u v`` lines.

    ``#`` starts a comment line; duplicate undirected edges collapse.
    """
    lines = iter(_significant_lines(text))
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise EdgeListFormatError("empty input: missing vertex count") from None
    parts = header.split()
    if len(parts) != 1 or not parts[0].lstrip("-").isdigit():
        raise EdgeListFormatError(f"expected a single vertex count, got {header!r}", line_no)
    n = int(parts[0])
    if n < 0:
        raise EdgeListFormatError(f"vertex count must be nonnegative, got {n}", line_no)

    edges: list[tuple[int, int]] = []
    for line_no, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListFormatError(f"expected 'u v', got {line!r}", line_no)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListFormatError(f"non-integer vertex id in {line!r}", line_no) from None
        if u == v:
            raise EdgeListFormatError(f"self-loop at vertex {u}", line_no)
        if not (0 <= u < n) or not (0 <= v < n):
            raise EdgeListFormatError(f"vertex id out of range 0..{n - 1} in {line!r}", line_no)
        edges.append((u, v))
    return Graph(n, edges)


def dump_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted edges, one per line."""
    out = [str(g.n)]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def load_coordinates(text: str) -> CoordinateSet:
    """Parse coordinate CSV text: one row per vertex, d numeric columns.

    An optional header row is detected by a non-numeric first field.
    """
    rows: list[list[float]] = []
    width: int | None = None
    first_seen = False
    for line_no, line in _significant_lines(text):
        fields = [f.strip() for f in line.split(",")]
        if not first_seen:
            first_seen = True
            try:
                float(fields[0])
            except ValueError:
                continue  # header row
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise CoordinateFormatError(f"non-numeric field in {line!r}", line_no) from None
        if not all(map(math.isfinite, row)):
            raise CoordinateFormatError(f"coordinates must be finite, got {line!r}", line_no)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CoordinateFormatError(
                f"expected {width} columns, got {len(row)}", line_no
            )
        rows.append(row)
    if not rows:
        raise CoordinateFormatError("no coordinate rows found")
    return CoordinateSet(np.array(rows, dtype=np.float64))


def infer_knn_graph(coords: CoordinateSet, k: int) -> Graph:
    """Connect each vertex to its k nearest neighbors, symmetrized by union.

    Distance ties break toward the smaller vertex id. Duplicate points are
    fine: distance 0 is a valid nearest neighbor.
    """
    n = coords.n
    if n < 2:
        raise ParameterError(f"need at least 2 points, got {n}")
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if k >= n:
        raise ParameterError(f"k must be smaller than the vertex count ({k} >= {n})")
    pts = coords.points
    edges: set[tuple[int, int]] = set()
    ids = np.arange(n)
    for i in range(n):
        d2 = ((pts - pts[i]) ** 2).sum(axis=1)
        d2[i] = np.inf  # never pick yourself
        order = np.lexsort((ids, d2))
        for j in order[:k]:
            j = int(j)
            edges.add((i, j) if i < j else (j, i))
    return Graph(n, edges)


def bfs_distances(g: Graph, source: int) -> list[float]:
    """Hop counts from ``source``; unreachable vertices get ``inf``."""
    if not (0 <= source < g.n):
        raise ParameterError(f"source {source} out of range for n={g.n}")
    dist: list[float] = [math.inf] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if dist[w] == math.inf:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return all(d != math.inf for d in bfs_distances(g, 0))


def grid_graph(rows: int, cols: int) -> Graph:
    """4-connected rows x cols grid; vertex (r, c) has id r*cols + c."""
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def grid_coordinates(rows: int, cols: int) -> CoordinateSet:
    """Integer lattice coordinates matching :func:`grid_graph` vertex ids."""
    pts = [(float(r), float(c)) for r in range(rows) for c in range(cols)]
    return CoordinateSet(np.array(pts))
