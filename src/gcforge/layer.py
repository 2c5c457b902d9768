"""Sparse weight-sharing schemes: the bipartite connectivity of a graph
convolutional layer, with its file format and the grid special-case check.

A scheme is an n x K gather table of input ids: output neuron ``v`` reads
input neuron ``table[v, i]`` through shared weight ``i``, and the id ``n``
marks a lost slot (the layer reads 0 there). Row ``v`` is the slots of the
placement centered at ``v``. The file format lists the surviving slots as
``(out, in, idx)`` triples, which ``WeightSharingScheme.triples`` derives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import LineNumberedError, ParameterError, _int, _significant_lines
from .propagation import PlacementMap

Triple = tuple[int, int, int]

PLUS_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


class SchemeError(Exception):
    """Invalid weight-sharing scheme contents."""


class SchemeFormatError(LineNumberedError, SchemeError):
    """Malformed scheme text."""


class IncompletePlacementError(SchemeError):
    """The placement map is missing vertices, so no scheme can be built."""


@dataclass(frozen=True, eq=False)
class WeightSharingScheme:
    """n output neurons wired to n input neurons through K shared weights,
    stored as a read-only (n, K) ``intp`` table with ``n`` for a lost slot.

    Invariants: ids in ``0..n``; every vertex carries its own center triple
    (v, v, 0), i.e. ``table[:, 0] == arange(n)``; no live input appears twice
    in a row.
    """

    n: int
    k: int
    table: np.ndarray

    def __post_init__(self):
        n, table = self.n, np.array(self.table, dtype=np.intp)
        if table.shape != (n, self.k):
            raise SchemeError(f"table has shape {table.shape}, expected ({n}, {self.k})")
        bad = np.argwhere((table < 0) | (table > n))
        if bad.size:
            out, idx = bad[0].tolist()
            raise SchemeError(f"vertex id out of range 0..{n} at (out, idx) ({out}, {idx})")
        off = np.flatnonzero(table[:, 0] != np.arange(n))
        if off.size:
            v = int(off[0])
            raise SchemeError(f"vertex {v} is missing its center triple ({v}, {v}, 0)")
        ordered = np.sort(table, axis=1)
        dup = np.argwhere((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] < n))
        if dup.size:
            out, pos = dup[0].tolist()
            raise SchemeError(f"duplicate (out, in) pair {(out, int(ordered[out, pos]))}")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightSharingScheme):
            return NotImplemented
        return self.n == other.n and self.k == other.k and np.array_equal(self.table, other.table)

    @property
    def triples(self) -> tuple[Triple, ...]:
        """The surviving slots as (out, in, idx), sorted by (out, idx)."""
        outs, idxs = np.nonzero(self.table < self.n)
        return tuple(zip(outs.tolist(), self.table[outs, idxs].tolist(), idxs.tolist()))

    def in_edges(self, out: int) -> list[Triple]:
        row = self.table[out].tolist()
        return [(out, inp, idx) for idx, inp in enumerate(row) if inp < self.n]


def build_scheme(pm: PlacementMap) -> WeightSharingScheme:
    """One row per vertex: the slots of its placement, ``n`` where lost.
    A map with ``K`` above ``n`` is rejected, as the scheme format bounds it."""
    if pm.k > pm.n:
        raise SchemeError(f"kernel size K={pm.k} exceeds n={pm.n}")
    # of len + 1 ids one is missing, so this scan never runs to a huge n
    missing = next(v for v in range(len(pm.placements) + 1) if v not in pm.placements)
    if missing < pm.n:
        raise IncompletePlacementError(
            f"placement map covers {len(pm.placements)} of {pm.n} vertices; "
            f"first missing vertex: {missing}"
        )
    rows = [[pm.n if s is None else s for s in pm.placements[v].slots] for v in range(pm.n)]
    return WeightSharingScheme(pm.n, pm.k, np.array(rows, dtype=np.intp).reshape(pm.n, pm.k))


@dataclass(frozen=True)
class GridCheckReport:
    """Outcome of the grid equivalence check, with a witness on failure."""

    passed: bool
    offsets: dict[int, tuple[int, int]] | None
    witness: Triple | None
    reason: str

    def render(self) -> str:
        if self.passed:
            body = ", ".join(
                f"{idx} -> ({dr:+d}, {dc:+d})" for idx, (dr, dc) in sorted(self.offsets.items())
            )
            return f"PASS: weight offsets {{{body}}}\n"
        return f"FAIL: {self.reason}; witness triple {self.witness}\n"


def verify_grid_equivalence(s: WeightSharingScheme, rows: int, cols: int) -> GridCheckReport:
    """Check that a scheme is a classical 2D convolution on a rows x cols
    grid: one injective map from weight indices to the plus-shaped offsets
    explains every triple, and every in-bounds offset is realized.
    """
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be positive")
    if rows * cols != s.n:
        raise ParameterError(f"grid {rows}x{cols} has {rows * cols} cells, scheme has n={s.n}")

    def fail(witness: Triple, reason: str) -> GridCheckReport:
        return GridCheckReport(False, None, witness, reason)

    offsets: dict[int, tuple[int, int]] = {}
    taken: dict[tuple[int, int], int] = {}
    for out, inp, idx in s.triples:
        dr, dc = divmod(inp, cols)[0] - divmod(out, cols)[0], inp % cols - out % cols
        if (dr, dc) not in PLUS_OFFSETS:
            return fail((out, inp, idx), f"offset ({dr:+d}, {dc:+d}) is not in the plus stencil")
        if idx in offsets:
            if offsets[idx] != (dr, dc):
                return fail(
                    (out, inp, idx),
                    f"weight {idx} already maps to {offsets[idx]}, saw ({dr:+d}, {dc:+d})",
                )
        elif (dr, dc) in taken:
            return fail(
                (out, inp, idx),
                f"offset ({dr:+d}, {dc:+d}) already belongs to weight {taken[(dr, dc)]}",
            )
        else:
            offsets[idx] = (dr, dc)
            taken[(dr, dc)] = idx

    table = s.table.tolist()
    for out in range(s.n):
        r, c = divmod(out, cols)
        for idx, (dr, dc) in offsets.items():
            rr, cc = r + dr, c + dc
            if 0 <= rr < rows and 0 <= cc < cols and table[out][idx] != rr * cols + cc:
                return fail(
                    (out, rr * cols + cc, idx),
                    f"in-bounds offset ({dr:+d}, {dc:+d}) of vertex {out} is not realized",
                )
    return GridCheckReport(True, offsets, None, "all triples consistent")


def export_scheme(s: WeightSharingScheme) -> str:
    """Canonical scheme text: header ``n K``, then ``out in idx`` lines
    sorted by (out, idx). ``K`` is at most ``n``; no line bounds it, since
    lost slots are not listed."""
    lines = [f"{s.n} {s.k}"]
    lines.extend(f"{o} {i} {w}" for o, i, w in s.triples)
    return "\n".join(lines) + "\n"


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Positions of the entries whose key occurred earlier."""
    order = np.argsort(keys, kind="stable")
    return order[1:][keys[order[1:]] == keys[order[:-1]]]


def import_scheme(text: str) -> WeightSharingScheme:
    """Parse the scheme format; ``#`` starts a comment line. A repeated
    (out, in) or (out, idx) pair is reported at its second occurrence."""
    n = k = None
    rows: list[tuple[int, int, int, int]] = []  # out, in, idx, line number
    for line_no, line in _significant_lines(text):
        parts = line.split()
        if n is None:
            header_no = line_no
            if len(parts) != 2:
                raise SchemeFormatError(f"expected header 'n K', got {line!r}", line_no)
            try:
                n, k = _int(parts[0]), _int(parts[1])
            except ValueError:
                raise SchemeFormatError(f"non-integer header field in {line!r}", line_no) from None
            if n < 0 or k < 1:
                raise SchemeFormatError(f"header values out of range: {line!r}", line_no)
            if k > n:  # checked before the n x K table is allocated
                raise SchemeFormatError(f"header K={k} exceeds n={n}", line_no)
            continue
        if len(parts) != 3:
            raise SchemeFormatError(f"expected 'out in idx', got {line!r}", line_no)
        try:
            out, inp, idx = _int(parts[0]), _int(parts[1]), _int(parts[2])
        except ValueError:
            raise SchemeFormatError(f"non-integer field in {line!r}", line_no) from None
        if not (0 <= out < n) or not (0 <= inp < n):
            raise SchemeFormatError(f"vertex id out of range 0..{n - 1} in {line!r}", line_no)
        if not (0 <= idx < k):
            raise SchemeFormatError(f"weight index out of range 0..{k - 1} in {line!r}", line_no)
        rows.append((out, inp, idx, line_no))
    if n is None:
        raise SchemeFormatError("empty input: missing 'n K' header")
    if n > len(rows):  # checked before the n x K table is allocated
        raise SchemeFormatError(
            f"header n={n} exceeds the triple count {len(rows)}; every vertex carries its self-wire",
            header_no,
        )
    out, inp, idx, line_nos = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    repeats = np.concatenate([_repeats(out * n + inp), _repeats(out * k + idx)])
    if repeats.size:
        at = int(repeats.min())
        raise SchemeFormatError(
            f"duplicate (out, in) or (out, idx) pair in triple {rows[at][:3]}", int(line_nos[at])
        )
    table = np.full((n, k), n, dtype=np.intp)
    table[out, idx] = inp
    try:
        return WeightSharingScheme(n, k, table)
    except SchemeError as exc:
        raise SchemeFormatError(str(exc)) from None
