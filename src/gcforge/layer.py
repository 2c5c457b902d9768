"""Sparse weight-sharing schemes: the bipartite connectivity of a graph
convolutional layer, with its file format and the grid special-case check.

A scheme is a set of (out_vertex, in_vertex, weight_index) triples: output
neuron ``out`` reads input neuron ``in`` through shared weight ``idx``. The
triples come from kernel placements: the placement centered at ``out``
contributes one triple per surviving slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ParameterError
from .propagation import PlacementMap

Triple = tuple[int, int, int]

PLUS_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


class SchemeError(Exception):
    """Invalid weight-sharing scheme contents."""


class SchemeFormatError(SchemeError):
    """Malformed scheme text. Carries a 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class IncompletePlacementError(SchemeError):
    """The placement map is missing vertices, so no scheme can be built."""


@dataclass(frozen=True)
class WeightSharingScheme:
    """n output neurons wired to n input neurons through K shared weights.

    Invariants: ids in range; each (out, idx) and each (out, in) pair occurs
    at most once; every vertex carries its own center triple (v, v, 0).
    """

    n: int
    k: int
    triples: tuple[Triple, ...]  # sorted by (out, idx)

    def __post_init__(self):
        object.__setattr__(self, "triples", tuple(sorted(self.triples, key=lambda t: (t[0], t[2]))))
        seen_oi: set[tuple[int, int]] = set()
        seen_ow: set[tuple[int, int]] = set()
        for out, inp, idx in self.triples:
            if not (0 <= out < self.n) or not (0 <= inp < self.n):
                raise SchemeError(f"vertex out of range in triple {(out, inp, idx)}")
            if not (0 <= idx < self.k):
                raise SchemeError(f"weight index out of range in triple {(out, inp, idx)}")
            if (out, inp) in seen_oi:
                raise SchemeError(f"duplicate (out, in) pair in triple {(out, inp, idx)}")
            if (out, idx) in seen_ow:
                raise SchemeError(f"duplicate (out, weight) pair in triple {(out, inp, idx)}")
            seen_oi.add((out, inp))
            seen_ow.add((out, idx))
        for v in range(self.n):
            if (v, 0) not in seen_ow or (v, v) not in seen_oi:
                raise SchemeError(f"vertex {v} is missing its center triple ({v}, {v}, 0)")

    def in_edges(self, out: int) -> list[Triple]:
        return [t for t in self.triples if t[0] == out]


def build_scheme(pm: PlacementMap) -> WeightSharingScheme:
    """One triple per surviving slot of each vertex's placement."""
    missing = [v for v in range(pm.n) if v not in pm.placements]
    if missing:
        raise IncompletePlacementError(
            f"placement map covers {len(pm.placements)} of {pm.n} vertices; "
            f"first missing vertex: {missing[0]}"
        )
    triples: list[Triple] = []
    for v in range(pm.n):
        for idx, inp in enumerate(pm.placements[v].slots):
            if inp is not None:
                triples.append((v, inp, idx))
    return WeightSharingScheme(n=pm.n, k=pm.k, triples=tuple(triples))


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

    offsets: dict[int, tuple[int, int]] = {}
    taken: dict[tuple[int, int], int] = {}
    for out, inp, idx in s.triples:
        dr, dc = divmod(inp, cols)[0] - divmod(out, cols)[0], inp % cols - out % cols
        if (dr, dc) not in PLUS_OFFSETS:
            return GridCheckReport(
                False, None, (out, inp, idx), f"offset ({dr:+d}, {dc:+d}) is not in the plus stencil"
            )
        if idx in offsets:
            if offsets[idx] != (dr, dc):
                return GridCheckReport(
                    False,
                    None,
                    (out, inp, idx),
                    f"weight {idx} already maps to {offsets[idx]}, saw ({dr:+d}, {dc:+d})",
                )
        else:
            if (dr, dc) in taken:
                return GridCheckReport(
                    False,
                    None,
                    (out, inp, idx),
                    f"offset ({dr:+d}, {dc:+d}) already belongs to weight {taken[(dr, dc)]}",
                )
            offsets[idx] = (dr, dc)
            taken[(dr, dc)] = idx

    have = set(s.triples)
    for out in range(s.n):
        r, c = divmod(out, cols)
        for idx, (dr, dc) in offsets.items():
            rr, cc = r + dr, c + dc
            if 0 <= rr < rows and 0 <= cc < cols:
                expected = (out, rr * cols + cc, idx)
                if expected not in have:
                    return GridCheckReport(
                        False,
                        None,
                        expected,
                        f"in-bounds offset ({dr:+d}, {dc:+d}) of vertex {out} is not realized",
                    )
    return GridCheckReport(True, offsets, None, "all triples consistent")


def export_scheme(s: WeightSharingScheme, transpose: bool = False) -> str:
    """Canonical scheme text: header ``n K``, then ``out in idx`` lines
    sorted by (out, idx).

    ``transpose`` swaps the roles of the two neuron columns on output (the
    kernel-centered-at-input convention); transposed schemes target external
    consumers and may not re-import under this module's invariants except
    on bijective schemes such as grids.
    """
    lines = [f"{s.n} {s.k}"]
    triples = s.triples
    if transpose:
        triples = tuple(sorted(((i, o, w) for o, i, w in triples), key=lambda t: (t[0], t[2])))
    lines.extend(f"{o} {i} {w}" for o, i, w in triples)
    return "\n".join(lines) + "\n"


def import_scheme(text: str) -> WeightSharingScheme:
    """Parse the scheme format; ``#`` starts a comment line."""
    n = k = None
    triples: list[Triple] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise SchemeFormatError(f"expected header 'n K', got {line!r}", line_no)
            try:
                n, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise SchemeFormatError(f"non-integer header field in {line!r}", line_no) from None
            if n < 0 or k < 1:
                raise SchemeFormatError(f"header values out of range: {line!r}", line_no)
            continue
        if len(parts) != 3:
            raise SchemeFormatError(f"expected 'out in idx', got {line!r}", line_no)
        try:
            out, inp, idx = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise SchemeFormatError(f"non-integer field in {line!r}", line_no) from None
        if not (0 <= out < n) or not (0 <= inp < n):
            raise SchemeFormatError(f"vertex id out of range 0..{n - 1} in {line!r}", line_no)
        if not (0 <= idx < k):
            raise SchemeFormatError(f"weight index out of range 0..{k - 1} in {line!r}", line_no)
        triples.append((out, inp, idx))
    if n is None:
        raise SchemeFormatError("empty input: missing 'n K' header")
    try:
        return WeightSharingScheme(n=n, k=k, triples=tuple(triples))
    except SchemeError as exc:
        raise SchemeFormatError(str(exc)) from None

