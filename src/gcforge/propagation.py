"""Seed a weight kernel at the most central vertex and drag it to every
other vertex along minimum-deformation chains of local translations.

Each vertex keeps the single best placement seen so far, compared by
(exact deformation cost, losses, slot-image sequence). The expansion is
best-first over that key, a kept placement is revisited whenever a later
chain improves it, and the loop runs until no kept placement can improve
any neighbor. A step waits in the same queue until the queue reaches the
next cost it could have, so a step that a cheaper route has made useless
is not searched. The result is a true fixed point of the per-vertex-winner
process: re-running the relaxation over it changes nothing.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    ConnectivityError,
    Graph,
    LineNumberedError,
    ParameterError,
    _float,
    _int,
    _significant_lines,
    bfs_distances,
    is_connected,
)
from .translations import (
    LOSS_TEXT,
    DeformationScore,
    KernelPlacement,
    SearchStats,
    ZERO_SCORE,
    TranslationError,
    exact_weights,
    find_local_translation,
)


class PlacementFormatError(LineNumberedError):
    """Malformed placement-map text."""


def _distance_sums(g: Graph) -> list[int]:
    """Each vertex's summed hop distance to all others.

    All n breadth-first searches run at once, bit-parallel (Then et al.,
    PVLDB 2014): bit s of ``reach[v]`` says source s has reached v. Hop
    distance is symmetric, so summing ``d`` over the sources that first reach
    ``v`` at level ``d`` gives ``v``'s own distance sum.
    """
    if g.n == 0:
        raise ParameterError("empty graph has no centrality")
    adj = [g.neighbors(v) for v in range(g.n)]
    reach = [1 << v for v in range(g.n)]
    frontier = list(reach)
    sums = [0] * g.n
    d = 0
    while any(frontier):
        d += 1
        nxt = []
        for v, nbrs in enumerate(adj):
            seen = 0
            for u in nbrs:
                seen |= frontier[u]
            new = seen & ~reach[v]
            reach[v] |= new
            sums[v] += d * new.bit_count()
            nxt.append(new)
        frontier = nxt
    if reach.count((1 << g.n) - 1) != g.n:
        raise ConnectivityError("graph is not connected, so centrality is undefined")
    return sums


def closeness_centrality(g: Graph) -> list[float]:
    """Inverse of each vertex's summed hop distance to all others."""
    sums = _distance_sums(g)
    return [math.inf] if g.n == 1 else [1.0 / s for s in sums]


def most_central_vertex(g: Graph) -> int:
    """Vertex with the highest closeness; ties go to the smallest id."""
    sums = _distance_sums(g)
    # integer sums dodge float equality; min keeps the smallest tied id
    return min(range(g.n), key=sums.__getitem__)


def init_kernel(g: Graph, center: int, radius: int = 1) -> KernelPlacement:
    """Fresh kernel: the center plus every vertex within ``radius`` hops,
    slots ordered by (hop distance, vertex id)."""
    if not (0 <= center < g.n):
        raise ParameterError(f"center {center} out of range for n={g.n}")
    if radius < 0:
        raise ParameterError(f"radius must be nonnegative, got {radius}")
    dist = bfs_distances(g, center)
    members = [(d, v) for v, d in enumerate(dist) if d <= radius]
    members.sort()
    slots = tuple(v for _, v in members)
    return KernelPlacement(center=center, slots=slots, accumulated=ZERO_SCORE)


@dataclass
class PlacementMap:
    """Best kernel placement found for every vertex, plus run metadata."""

    n: int
    k: int
    seed: int
    alpha: float
    beta: float
    placements: dict[int, KernelPlacement] = field(default_factory=dict)

    def is_complete(self) -> bool:
        return all(v in self.placements for v in range(self.n))


def _step(
    g: Graph, source: KernelPlacement, target: int, alpha: float, beta: float, level: float,
    stats: SearchStats | None, beat: KernelPlacement | None,
) -> KernelPlacement | None:
    """Apply the best local translation of ``source`` onto ``target`` when it
    scores exactly ``level``, or return ``None`` if every translation scores
    above ``level`` (or, given ``beat``, if no loss-free one sorts below
    it). The caller knows that none scores below ``level``."""
    found = find_local_translation(g, source, target, alpha, beta, level, floor=level,
                                   beat=beat, stats=stats)
    if found is None:
        return None
    t, step = found
    mapping = t.mapping()
    acc = source.accumulated
    # at beta == 0 broken pairs cost nothing and the file's score cannot
    # carry them, so the chain records none
    pairs = acc.snp_violations + step.snp_violations if beta else 0
    return KernelPlacement(
        center=target,
        slots=tuple(None if v is None else mapping[v] for v in source.slots),
        accumulated=DeformationScore.of(acc.losses + step.losses, pairs, alpha, beta),
    )


@dataclass
class SettleStats:
    """Counters that the settle loop of :func:`propagate` and :func:`refine`
    adds to when given one: heap pops, pops of a placement that a better one
    has since replaced, steps deferred to their next cost level, placements
    that replace one whose vertex was already expanded, steps skipped
    without a search because the target's placement leaves no room, and
    steps at exactly the target's cost and losses dropped because no map
    beats the target's placement."""

    pops: int = 0
    stale_pops: int = 0
    deferred: int = 0
    reopenings: int = 0
    skipped: int = 0
    ties_dropped: int = 0


def propagate(
    g: Graph,
    seed_kernel: KernelPlacement,
    alpha: float = 1.0,
    beta: float = 1.0,
    stats: SearchStats | None = None,
    *,
    settle_stats: SettleStats | None = None,
) -> PlacementMap:
    """Best-first propagation of the seed kernel to every vertex; ``stats``,
    when given, gains the counters of every search, and ``settle_stats``
    those of the settle loop."""
    if not is_connected(g):
        raise ConnectivityError("graph is not connected, so propagation cannot reach every vertex")
    pm = PlacementMap(
        n=g.n, k=seed_kernel.k, seed=seed_kernel.center, alpha=alpha, beta=beta,
        placements={seed_kernel.center: seed_kernel},
    )
    _settle(g, pm, stats, settle_stats)
    return pm


def refine(
    g: Graph, pm: PlacementMap, stats: SearchStats | None = None, *,
    settle_stats: SettleStats | None = None,
) -> PlacementMap:
    """Re-run the relaxation from an existing map; a settled map is a fixed
    point, so refining it returns an equal map. The counters are those of
    :func:`propagate`."""
    if pm.n != g.n:
        raise ParameterError(f"placement map has {pm.n} vertices but the graph has {g.n}")
    out = PlacementMap(
        n=pm.n, k=pm.k, seed=pm.seed, alpha=pm.alpha, beta=pm.beta,
        placements=dict(pm.placements),
    )
    _settle(g, out, stats, settle_stats)
    return out


def _next_cost(A: int, B: int, m: int, cost: int) -> int | float:
    """Least ``A*x + B*y`` above ``cost`` over ``0 <= x < m`` and ``y >= 0``:
    the next cost that a step of ``m`` live slots can have (``inf`` if none)."""
    above = [A * x if A * x > cost else A * x + B * ((cost - A * x) // B + 1)
             for x in range(m) if A * x > cost or B]
    return min(above, default=math.inf)


def _settle(
    g: Graph, pm: PlacementMap, stats: SearchStats | None, settle_stats: SettleStats | None,
) -> None:
    A, B, scale = exact_weights(pm.alpha, pm.beta)
    counts = settle_stats if settle_stats is not None else SettleStats()

    def key(p: KernelPlacement) -> tuple:
        acc = p.accumulated
        slots = tuple(g.n if s is None else s for s in p.slots)  # lost orders last
        return (A * acc.losses + B * acc.snp_violations, acc.losses, slots)

    best = pm.placements
    # a placement (cost, losses, 1, slots, v), or a step that found no map
    # at its last floor, deferred to the next floor f it could cost:
    # (cost + f, losses, 0, seq, cost, source, target). On equal (cost,
    # losses) steps pop first, in the order they were deferred, and a step
    # keeps the source placement it was first tried from
    heap: list[tuple] = []
    seq = itertools.count()

    def push(v: int) -> None:
        cost, losses, slots = key(best[v])
        heapq.heappush(heap, (cost, losses, 1, slots, v))

    for v in sorted(best):
        push(v)

    expanded = set()
    while heap:
        entry = heapq.heappop(heap)
        counts.pops += 1
        if entry[2]:
            cost, losses, _, slots, u = entry
            source = best[u]
            if (cost, losses, slots) != key(source):
                counts.stale_pops += 1
                continue
            expanded.add(u)
            steps = [(0, t) for t in g.neighbors(u)]
        else:
            level, losses, _, _, cost, source, t = entry
            steps = [(level - cost, t)]
        for floor, t in steps:
            incumbent = best.get(t)
            beat = None
            if incumbent is not None:
                bar = key(incumbent)
                # a step only adds cost and never resurrects lost slots, so a
                # step above the cost difference cannot win; nor can one at
                # exactly the difference when the incumbent has fewer losses
                if bar[0] - cost - (bar[1] < losses) < floor:
                    counts.skipped += 1
                    continue
                # at exactly the difference and the same losses, only a
                # loss-free map with smaller slots wins
                if bar[0] - cost == floor and bar[1] == losses:
                    beat = incumbent
            # a deferred step found no map at the level before, so none
            # costs less than this floor
            candidate = _step(g, source, t, pm.alpha, pm.beta, Fraction(floor, scale), stats,
                              beat)
            if candidate is None and beat is not None:
                # deferred, the step would exceed the difference: drop it
                counts.ties_dropped += 1
            elif candidate is None:  # every map costs more: retry at the next level
                live = source.k - source.loss_count
                # losing every slot but the center costs A*(live - 1), so a
                # search at or above that level always finds a map; without
                # this check a search wrong about it would defer the step forever
                if floor >= A * (live - 1):
                    raise RuntimeError(f"no map of {live} live slots at cost {floor}/{scale}")
                level = cost + _next_cost(A, B, live, floor)
                heapq.heappush(heap, (level, losses, 0, next(seq), cost, source, t))
                counts.deferred += 1
            elif incumbent is None or key(candidate) < bar:
                counts.reopenings += t in expanded
                best[t] = candidate
                push(t)


@dataclass(frozen=True)
class PlacementReport:
    """Summary of a placement map: per-vertex deformation and completeness."""

    per_vertex: tuple[tuple[int, float, int], ...]  # (vertex, total, losses)
    score_histogram: tuple[tuple[float, int], ...]
    complete_count: int
    vertex_count: int

    def render(self) -> str:
        lines = [
            f"vertices: {self.vertex_count}",
            f"loss-free placements: {self.complete_count} of {self.vertex_count}",
            "score histogram:",
        ]
        for total, count in self.score_histogram:
            lines.append(f"  score {total:g}: {count} vertices")
        return "\n".join(lines) + "\n"


def placement_report(pm: PlacementMap) -> PlacementReport:
    per_vertex = tuple(
        (v, pm.placements[v].accumulated.total, pm.placements[v].loss_count)
        for v in sorted(pm.placements)
    )
    hist: dict[float, int] = {}
    complete = 0
    for _, total, losses in per_vertex:
        hist[total] = hist.get(total, 0) + 1
        if losses == 0:
            complete += 1
    return PlacementReport(
        per_vertex=per_vertex,
        score_histogram=tuple(sorted(hist.items())),
        complete_count=complete,
        vertex_count=len(per_vertex),
    )


HEADER_COMMENT = "# gcforge placement map v1"


def serialize_placements(pm: PlacementMap) -> str:
    """Canonical text form.

    Line 1 is a format comment; line 2 is ``n K seed alpha beta``; then one
    line per vertex, sorted by center id::

        center; score; slot0=v, slot1=⊥, ...

    ``score`` is ``alpha*losses + beta*pairs`` of the chain's summed counts,
    computed once from them. Lost slots render as ``⊥``. Encode as UTF-8.
    ``K`` is at most ``n``, as in every map :func:`propagate` makes: a kernel
    is a center and some of its neighbors.
    """
    lines = [HEADER_COMMENT, f"{pm.n} {pm.k} {pm.seed} {pm.alpha!r} {pm.beta!r}"]
    for v in sorted(pm.placements):
        p = pm.placements[v]
        slots = ", ".join(
            f"slot{i}={LOSS_TEXT if s is None else s}" for i, s in enumerate(p.slots)
        )
        lines.append(f"{v}; {p.accumulated.total!r}; {slots}")
    return "\n".join(lines) + "\n"


def parse_placements(text: str) -> PlacementMap:
    """Parse the placement-map format produced by :func:`serialize_placements`.
    A header with ``K`` above ``n`` is rejected."""
    pm: PlacementMap | None = None
    for line_no, line in _significant_lines(text):
        if pm is None:
            parts = line.split()
            if len(parts) != 5:
                raise PlacementFormatError(
                    f"expected header 'n K seed alpha beta', got {line!r}", line_no
                )
            try:
                n, k, seed = _int(parts[0]), _int(parts[1]), _int(parts[2])
                alpha, beta = _float(parts[3]), _float(parts[4])
            except ValueError:
                raise PlacementFormatError(f"non-numeric header field in {line!r}", line_no) from None
            try:
                exact_weights(alpha, beta)
            except TranslationError as exc:
                raise PlacementFormatError(str(exc), line_no) from None
            if n < 0 or k < 1 or not (0 <= seed < max(n, 1)):
                raise PlacementFormatError(f"header values out of range: {line!r}", line_no)
            if k > n:
                raise PlacementFormatError(f"header K={k} exceeds n={n}", line_no)
            pm = PlacementMap(n=n, k=k, seed=seed, alpha=alpha, beta=beta)
            continue

        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise PlacementFormatError(
                f"expected 'center; score; slots', got {line!r}", line_no
            )
        try:
            center = _int(parts[0])
            total = _float(parts[1])
        except ValueError:
            raise PlacementFormatError(f"non-numeric center or score in {line!r}", line_no) from None
        if not math.isfinite(total):
            raise PlacementFormatError(f"score must be finite, got {parts[1]!r}", line_no)
        if not (0 <= center < pm.n):
            raise PlacementFormatError(f"center {center} out of range", line_no)
        if center in pm.placements:
            raise PlacementFormatError(f"duplicate placement for center {center}", line_no)

        slot_fields = [s.strip() for s in parts[2].split(",")]
        if len(slot_fields) != pm.k:
            raise PlacementFormatError(
                f"expected {pm.k} slots, got {len(slot_fields)}", line_no
            )
        slots: list[int | None] = []
        for i, fieldtext in enumerate(slot_fields):
            prefix = f"slot{i}="
            if not fieldtext.startswith(prefix):
                raise PlacementFormatError(f"expected '{prefix}...', got {fieldtext!r}", line_no)
            value = fieldtext[len(prefix):]
            if value == LOSS_TEXT:
                slots.append(None)
            else:
                try:
                    vid = _int(value)
                except ValueError:
                    raise PlacementFormatError(
                        f"slot value must be a vertex id or {LOSS_TEXT}, got {value!r}", line_no
                    ) from None
                if not (0 <= vid < pm.n):
                    raise PlacementFormatError(f"slot vertex {vid} out of range", line_no)
                slots.append(vid)
        losses = slots.count(None)
        pairs = (total - pm.alpha * losses) / pm.beta if pm.beta > 0 else 0.0
        snp = round(pairs) if math.isfinite(pairs) else -1
        score = DeformationScore.of(losses, snp, pm.alpha, pm.beta)
        if snp < 0 or score.total != total:
            raise PlacementFormatError(
                f"score {total!r} inconsistent with {losses} losses", line_no
            )
        try:
            pm.placements[center] = KernelPlacement(
                center=center, slots=tuple(slots), accumulated=score
            )
        except Exception as exc:
            raise PlacementFormatError(str(exc), line_no) from None
    if pm is None:
        raise PlacementFormatError("empty input: missing header")
    return pm
