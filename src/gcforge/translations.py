"""Partial injective vertex maps with loss, and the local search that drags
a weight kernel from its center to a neighboring vertex.

A translation sends each domain vertex either to a vertex or to the loss
symbol (rendered ``⊥``, held as ``None``). Three structural properties
matter:

* injectivity on surviving images (two vertices never land on the same spot),
* edge constraint (a vertex moves along an incident edge or vanishes),
* neighborhood preservation (adjacency between two surviving vertices is
  preserved iff their images are adjacent).

The deformation score charges ``alpha`` per lost vertex and ``beta`` per
broken neighborhood pair. Moving a kernel means finding the cheapest such
map that sends the kernel center onto a chosen neighbor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .graph import Graph

LOSS = None  # the "vertex disappeared" image
LOSS_TEXT = "⊥"  # how a lost slot renders in reports and files


class TranslationError(Exception):
    """Base class for translation-search failures."""


class AdjacencyError(TranslationError):
    """The requested target is not adjacent to the kernel center."""


class DomainSizeError(TranslationError):
    """Brute-force enumeration was asked for an unreasonably large domain."""


@dataclass(frozen=True)
class Translation:
    """A partial injective vertex map. ``images[i]`` is where ``domain[i]``
    goes; ``None`` means the vertex is lost."""

    domain: tuple[int, ...]
    images: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.domain) != len(self.images):
            raise TranslationError("domain and image sequences differ in length")
        if tuple(sorted(self.domain)) != self.domain:
            raise TranslationError("domain must be sorted ascending")
        if len(set(self.domain)) != len(self.domain):
            raise TranslationError("domain vertices must be distinct")

    def mapping(self) -> dict[int, int | None]:
        return dict(zip(self.domain, self.images))

    def check_vertex_range(self, n: int) -> None:
        for v in self.domain:
            if not 0 <= v < n:
                raise TranslationError(f"domain vertex {v} out of range for n={n}")
        for w in self.images:
            if w is not None and not 0 <= w < n:
                raise TranslationError(f"image vertex {w} out of range for n={n}")


@dataclass(frozen=True)
class DeformationScore:
    """Cost of a translation (or of a chain of them): lost vertices plus
    broken neighborhood pairs, combined as ``alpha*losses + beta*snp``."""

    losses: int
    snp_violations: int
    total: float

    @staticmethod
    def of(losses: int, snp_violations: int, alpha: float, beta: float) -> "DeformationScore":
        return DeformationScore(losses, snp_violations, alpha * losses + beta * snp_violations)


ZERO_SCORE = DeformationScore(0, 0, 0.0)


@dataclass(frozen=True)
class KernelPlacement:
    """Weight slots pinned to vertices around a center.

    ``slots[0]`` is always the center and never lost; surviving slot
    vertices are pairwise distinct. ``accumulated`` is the deformation
    racked up along the chain of translations that produced this placement.
    """

    center: int
    slots: tuple[int | None, ...]
    accumulated: DeformationScore

    def __post_init__(self):
        if not self.slots or self.slots[0] != self.center:
            raise TranslationError("slot 0 must hold the center vertex")
        live = [v for v in self.slots if v is not None]
        if len(set(live)) != len(live):
            raise TranslationError("surviving slot vertices must be pairwise distinct")

    @property
    def k(self) -> int:
        return len(self.slots)

    @property
    def loss_count(self) -> int:
        return sum(1 for v in self.slots if v is None)

    def live_slots(self) -> list[tuple[int, int]]:
        """(slot index, vertex) pairs for surviving slots, in slot order."""
        return [(i, v) for i, v in enumerate(self.slots) if v is not None]


def is_injective(t: Translation) -> bool:
    """True iff no two domain vertices share a surviving image."""
    live = [w for w in t.images if w is not None]
    return len(set(live)) == len(live)


def is_edge_constrained(g: Graph, t: Translation) -> bool:
    """True iff every vertex either vanishes or moves along an incident edge."""
    t.check_vertex_range(g.n)
    return all(w is None or g.has_edge(v, w) for v, w in zip(t.domain, t.images))


def snp_violations(g: Graph, t: Translation) -> int:
    """Count domain pairs whose adjacency is not preserved by the map.

    Only pairs where both images survive are counted; a lost endpoint
    satisfies the preservation clause vacuously.
    """
    t.check_vertex_range(g.n)
    live = [(v, w) for v, w in zip(t.domain, t.images) if w is not None]
    count = 0
    for a in range(len(live)):
        v1, w1 = live[a]
        for b in range(a + 1, len(live)):
            v2, w2 = live[b]
            if g.has_edge(v1, v2) != g.has_edge(w1, w2):
                count += 1
    return count


def exact_weights(alpha: float, beta: float) -> tuple[int, int, int]:
    """Validate the deformation weights and return ``(A, B, scale)`` with
    ``alpha == A/scale`` and ``beta == B/scale`` exactly.

    Every finite float is a dyadic rational, so one common power of two
    makes the cost ``alpha*losses + beta*snp`` the exact integer
    ``A*losses + B*snp`` over ``scale``. Costs compare and tie on that
    integer, never on a rounded float total.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)) or alpha < 0 or beta < 0:
        raise TranslationError(
            f"alpha and beta must be finite and nonnegative, got {alpha!r} and {beta!r}"
        )
    (a, da), (b, db) = alpha.as_integer_ratio(), beta.as_integer_ratio()
    scale = max(da, db)  # both are powers of two
    return a * (scale // da), b * (scale // db), scale


def deformation_score(
    g: Graph, t: Translation, alpha: float = 1.0, beta: float = 1.0
) -> DeformationScore:
    """Score a translation: ``alpha`` per loss, ``beta`` per broken pair."""
    exact_weights(alpha, beta)
    losses = sum(1 for w in t.images if w is None)
    return DeformationScore.of(losses, snp_violations(g, t), alpha, beta)


_STEP = itemgetter(2)  # the step of a contested slot's (slot, min-level images, step)


def _clique_bump(steps: list[int], bad: list[int], penalty: int, gap: float) -> float:
    """Least extra key that clashing slots add to a search node's bound.

    Slot ``x`` pays ``steps[x]`` (sorted descending) when it leaves its
    cheapest level; bit ``y > x`` of ``bad[x]`` says that slots ``x`` and
    ``y`` keep their cheapest levels together only by breaking the pair
    between them, at ``penalty`` (bits below ``x`` are never read). The
    slots are split greedily into cliques of clashing slots: each clique
    starts at the first slot still free and takes each next free slot that
    clashes with every member. In a clique
    with steps ``s1 >= ... >= sq``, the ``t`` slots that keep their cheapest
    level break ``t(t-1)/2`` pairs and the others pay their steps, so it
    charges the least ``s_{t+1} + ... + s_q + t(t-1)/2 * penalty`` over
    ``t = 1..q``. Cliques share no slot, so their charges add. Returns the
    sum, or the first partial sum above ``gap``.
    """
    bump, free = 0, (1 << len(steps)) - 1
    while free:
        x = (free & -free).bit_length() - 1
        free ^= 1 << x
        cand = free & bad[x]
        if not cand:  # a clique of one charges nothing
            continue
        clique, members = [steps[x]], 0
        while cand:
            y = (cand & -cand).bit_length() - 1
            clique.append(steps[y])
            members |= 1 << y
            cand &= bad[y]
        free &= ~members
        rest = charge = sum(clique)
        for t, s in enumerate(clique, 1):
            rest -= s
            charge = min(charge, rest + t * (t - 1) // 2 * penalty)
        bump += charge
        if bump > gap:
            break
    return bump


@dataclass
class SearchStats:
    """Counters that :func:`find_local_translation` adds to when given one:
    calls, nodes expanded (every leaf is a node), leaves (nodes with no open
    slot left), searches that returned ``None`` because no map fit the
    budget or none beat the placement to beat, nodes that returned early,
    by the test that cut them (bound, clique bump, cost floor, and the image
    bounds: the tied-node one and the restricted pass's reference tests),
    image options never tried because losing the slot is cheaper, and
    searches that returned the rigid shift without expanding a node. A tie
    with the incumbent also cuts options in the parent, which no counter
    sees."""

    searches: int = 0
    nodes: int = 0
    leaves: int = 0
    none_results: int = 0
    bound_prunes: int = 0
    clique_prunes: int = 0
    floor_prunes: int = 0
    tie_prunes: int = 0
    dominated_options: int = 0
    shift_answers: int = 0


def _broken_pairs(nbr: list[int], verts: list[int], images, lost: int) -> int:
    """Pairs of slots with surviving images whose adjacency the map breaks."""
    kept = [(v, w) for v, w in zip(verts, images) if w != lost]
    return sum(nbr[v] >> u & 1 != nbr[w] >> x & 1
               for a, (v, w) in enumerate(kept) for u, x in kept[a + 1:])


def find_local_translation(
    g: Graph,
    placement: KernelPlacement,
    target: int,
    alpha: float = 1.0,
    beta: float = 1.0,
    budget: float = math.inf,
    *,
    floor: float = 0,
    beat: KernelPlacement | None = None,
    stats: SearchStats | None = None,
) -> tuple[Translation, DeformationScore] | None:
    """Cheapest translation of a kernel placement onto a neighboring center.

    The domain is the placement's surviving slot vertices. Hard constraints:
    the center maps to ``target``; every other vertex maps to one of its own
    neighbors or is lost (cost ``alpha``); surviving images are pairwise
    distinct. Broken neighborhood pairs cost ``beta`` each. The search is
    exhaustive (branch and bound), so the returned score is the exact
    minimum.

    Ties resolve deterministically, in order:

    1. fewest slots that fail to move by the center's id displacement
       (a slot fails if it is lost or its ``image - vertex`` differs from
       ``target - center``); on row-major lattices this pins the rigid
       shift among equally-deformed alternatives, while on graphs with
       unstructured ids it rarely discriminates and defers to the next key,
    2. fewest losses,
    3. lexicographically smallest image sequence in slot order, lost slots
       ordering after all vertex ids.

    Costs compare as the exact integers of :func:`exact_weights`, so only
    the ratio ``alpha:beta`` matters. The search ranks a map by one integer,
    ``cost*W*W + non_shift*W + losses`` with ``W`` one more than the number
    of slots; both counts stay below ``W``, so the key orders exactly as the
    first three rules above. The rigid shift (each slot moved by the
    center's displacement when that lands on a neighbor, lost otherwise)
    is the first incumbent whenever it fits the budget; when it costs
    ``floor`` with no loss, no other map can tie it and it is returned
    without expanding a single search node. A node is pruned when its bound
    on that key, raised by a clique bump over the slots that compete for
    images, exceeds the incumbent's key, or when it equals that key and the
    least images its leaves could take do not beat the incumbent's images;
    an option whose estimate equals that key is cut when its image prefix
    already loses the image tie-break.

    Each open slot keeps its free images in conflict levels: level ``k``
    holds the free neighbors that break exactly ``k`` pairs with the
    assigned slots, for ``k <= A // B``. An image that breaks more is
    never an option, because losing the slot instead costs less. No image
    breaks more than ``m - 1`` pairs, so no slot keeps more than ``m``
    levels, however small ``beta`` is against ``alpha``. When a
    node takes its parent's assignment (slot ``i`` to image ``u``), every
    open slot drops ``u`` and moves the images that break the pair with
    slot ``i`` up one level, out of the top level altogether. A slot's
    cheapest keys, its images at the cheapest one and its branch options
    are read off its two lowest non-empty levels and its shift image, with
    no loop over candidates. At ``beta == 0`` a broken pair costs nothing,
    so every free image stays at level 0 and the winner's pairs are
    counted once at the end; otherwise they are read off its key.

    ``budget`` (a float or a :class:`~fractions.Fraction`) caps the exact
    score ``alpha*losses + beta*snp``, with no rounding slack: the search
    returns ``None`` when no map scores ``<= budget``. A map that fits is
    the same one an unbounded search returns, ties included. The default
    (infinity) always finds a map, because losing every slot but the
    center is always feasible.

    ``floor`` is the caller's promise that no map scores below it (the
    default, 0, always holds). The search then prunes a node when every
    leaf below it, at cost ``floor`` or more, must lose to the incumbent.
    The result is the same as without ``floor`` whenever the promise holds;
    if it does not, a cheaper map may be missed.

    ``beat``, a placement centered at ``target`` with as many slots as
    ``placement``, asks only whether some map can replace it at a tied cost
    and losses: a map that loses no slot and whose slot tuple (each slot of
    ``placement`` carried along, lost slots last) sorts strictly below
    ``beat.slots``. A first, restricted pass looks for any such map within
    the budget. It has no loss option, and it keeps every image that the
    budget allows, not only those up to level ``A // B``. Its reference is
    ``beat``'s slots at the live slots of ``placement``, cut at the first
    lost slot where ``beat`` keeps a vertex, since a map that ties ``beat``
    that far sorts after it. While the assigned images tie the reference,
    the pass branches on the lowest open slot; it prunes a node whose
    assigned images sort at or above the reference, or whose open slots up
    to the reference's end, at their least free images, cannot sort below
    it. It stops at its first leaf. When it finds none the call returns
    ``None``; otherwise the search above runs with that leaf as an
    incumbent and returns the same map as without ``beat``. A rigid shift
    answered at the floor is returned before the pass, whether or not it
    beats ``beat``.

    ``stats``, when given, gains this call's counters (:class:`SearchStats`).
    """
    A, B, scale = exact_weights(alpha, beta)
    if math.isnan(budget):
        raise TranslationError("budget must not be nan")
    if math.isinf(budget):
        limit = budget
    else:  # floor(budget * scale), exact for a float, an int or a Fraction
        p, q = budget.as_integer_ratio()
        limit = p * scale // q
    if not math.isfinite(floor):
        raise TranslationError("floor must be finite")
    p, q = floor.as_integer_ratio()
    floor_cost = -(-p * scale // q)  # every map costs at least ceil(floor * scale)
    center = placement.center
    if not g.has_edge(center, target):
        raise AdjacencyError(f"target {target} is not adjacent to center {center}")
    if beat is not None and (beat.center != target or beat.k != placement.k):
        raise TranslationError(f"the placement to beat must have {placement.k} slots "
                               f"centered at {target}")

    live = placement.live_slots()
    verts = [v for _, v in live]  # slot order; verts[0] == center
    m = len(verts)
    lost = g.n  # sentinel image; conveniently orders after every vertex id
    delta = target - center
    nbr = g.neighbor_masks
    # key = cost*W2 + non_shift*W + losses; the loss option never ties an image
    W = m + 1
    W2, BW2 = W * W, B * W * W
    loss_key = A * W2 + W + 1
    floor_key = floor_cost * W2

    budget_key = (limit + 1) * W2 - 1  # above every map within the budget
    best = (budget_key, ())  # (key, images)
    counts = stats if stats is not None else SearchStats()
    counts.searches += 1
    # the rigid shift: each slot moves by delta when that lands on a neighbor
    # of its vertex and is lost otherwise. It is injective, so when it fits
    # the budget it is a feasible incumbent. Every other map leaves some slot
    # non-shifted, so when the shift's key is the floor's (cost at the floor,
    # no loss) no map ties or beats it, and no node is searched. Its pairs
    # are counted only when its losses fit the budget
    shift = [v + delta if v + delta >= 0 and nbr[v] >> v + delta & 1 else lost
             for v in verts]
    n_lost = shift.count(lost)
    if A * n_lost <= limit:
        pairs = _broken_pairs(nbr, verts, shift, lost)
        shift_key = (A * n_lost + B * pairs) * W2 + n_lost * W + n_lost
        if shift_key <= best[0]:
            best = (shift_key, tuple(shift))
    if best[0] == floor_key:
        counts.shift_answers += 1
        return _result(verts, shift, lost, n_lost, pairs, alpha, beta)
    # an open slot reads -1, before every vertex id and the lost sentinel, so
    # tuple(images) > best[1] holds exactly when the first slot that differs
    # from the incumbent is assigned and carries a greater image
    images = [-1] * m
    images[0] = target
    # per slot, the bit of its shift image if that is a neighbor, else 0
    shift_bit = [0 if s == lost else 1 << s for s in shift]
    # an image option at level k keys B*k*W2, plus W unless it is the shift
    # image; above level A // B it keys more than the loss. An image breaks
    # pairs with at most the m - 1 other slots, so no level above m - 1 is
    # ever filled. At beta == 0 nothing moves up, so level 0 is the only one
    levels_kept = min(A // B, m - 1) + 1 if B else 1
    # the restricted pass's reference (None in the full search), and the key
    # of a slot with no option left: the loss, or in the restricted pass a
    # key above every loss-free map's
    ref, no_option = None, loss_key

    def least_images(unassigned: list[int], least_of) -> tuple[int, ...]:
        """The image sequence of the assigned slots with each open slot at
        the least image in its mask ``least_of(j)``, or lost if it is empty."""
        least = images[:]
        for j in unassigned:
            mask = least_of(j)
            least[j] = (mask & -mask).bit_length() - 1 if mask else lost
        return tuple(least)

    def search(unassigned: list[int], used_mask: int, key: int,
               levels: list[list[int]], i: int, u: int, tie: int) -> bool | None:
        """Expand the node reached by giving slot ``i`` image ``u`` (``lost``
        for a loss); ``levels`` holds the parent's conflict levels. In the
        restricted pass, a positive ``tie`` says that slots ``0..tie-2``,
        the only ones assigned before ``i == tie - 1``, tie the reference;
        the pass returns True at its first leaf."""
        nonlocal best
        counts.nodes += 1
        if tie:
            # the slots before i tie the reference and the open ones read -1:
            # at or above it, so is every leaf below
            if tuple(images) >= ref:
                counts.tie_prunes += 1
                return
            if u < ref[i]:  # below it: every leaf does
                tie = 0
        if not unassigned:  # a leaf, the lone center included
            counts.leaves += 1
            leaf = (key, tuple(images))
            if leaf < best:
                best = leaf
                return ref is not None
            return
        if u != lost:
            # the pair with slot i breaks for an open slot adjacent to it at
            # an image not adjacent to u, and for one not adjacent to it at
            # an image adjacent to u: those images move up a level, u leaves.
            # At beta == 0 nothing moves up
            levels = levels[:]
            nu = nbr[u]
            others = ~(nu | 1 << u)
            near, far = ((nu, others), (others, nu)) if B else ((~(1 << u), 0),) * 2
            row_i = nbr[verts[i]]

        # Admissible bound: every open slot pays at least the key of its
        # cheapest option, an option being a free neighbor (B*conflicts,
        # shift flag) or the loss. Conflicts between two open slots are
        # not counted. Deeper, a slot's option keys only rise, so the bound
        # only grows; keys are nonnegative, so the scan stops as soon as the
        # running sum loses. The option cutoff below relies on this, and so
        # does the tie cut: a child whose estimate equals the incumbent's key
        # is cut when its image prefix already loses the image tie-break. A
        # node whose bound (or, below the floor, whose floor bound) equals
        # that key branches on its lowest open slot, so that the prefix grows
        # and the cut fires sooner.
        bound = key
        top, tops = -1, []  # the greatest minimum and its slots, in slot order
        # a slot whose cheapest option is an image competes for the images
        # at that key; each one that cannot have one pays its step, the
        # distance to its next key level
        contested: list[tuple[int, int, int]] = []  # (slot, min-level images, step)
        for j in unassigned:
            if u != lost:
                keep, up = near if row_i >> verts[j] & 1 else far
                moved, lv = 0, []
                for x in levels[j]:
                    lv.append(x & keep | moved)
                    moved = x & up
                levels[j] = lv
            # the two lowest keys over the lowest two non-empty levels
            sb = shift_bit[j]
            low = low2 = no_option
            low_imgs = c = 0
            for x in levels[j]:
                if x:
                    if low_imgs:
                        low2 = c if x & sb else c + W
                        break
                    if x & sb:
                        low, low_imgs = c, sb
                        if x != sb:
                            low2 = c + W
                            break
                    else:
                        low, low_imgs = c + W, x
                c += BW2
            bound += low
            if bound > best[0]:
                counts.bound_prunes += 1
                return
            if low_imgs:
                contested.append((j, low_imgs, low2 - low))
            elif ref is not None:  # no image left, and the restricted pass has no loss
                counts.bound_prunes += 1
                return
            if low >= top:
                if low > top:
                    top, tops = low, [j]
                else:
                    tops.append(j)
        # levels are disjoint, so a slot's free images are their sum
        if tie and least_images(unassigned[:len(ref) - tie], lambda j: sum(levels[j])) >= ref:
            counts.tie_prunes += 1
            return
        tied = bound == best[0]
        if tied:
            # a leaf that ties keeps every open slot at its cheapest level:
            # one of its min-level images, or the loss if it has none; if
            # those least images equal the incumbent's, a tying leaf is at
            # best the incumbent itself
            mins = {j: imgs for j, imgs, _ in contested}
            if least_images(unassigned, lambda j: mins.get(j, 0)) >= best[1]:
                counts.tie_prunes += 1
                return
        elif bound < floor_key:
            # every leaf costs at least the floor, and an open slot with no
            # free shift image adds at least W to the tie part of its key
            free = ~used_mask
            pinned = floor_key + key % W2 + W * sum(
                1 for j in unassigned if not shift_bit[j] & free)
            # a leaf that ties it takes each free shift image, else an image
            if pinned > best[0] or pinned == best[0] and least_images(
                    unassigned, lambda j: shift_bit[j] & free or nbr[verts[j]] & free) > best[1]:
                counts.floor_prunes += 1
                return
            tied = pinned == best[0]
        contested.sort(key=_STEP, reverse=True)
        steps = list(map(_STEP, contested))  # descending
        gap = best[0] - bound  # a bump above this prunes
        # cliques: contested slots x, y clash unless two distinct min-level
        # images u, w have u ~ w exactly when their vertices are adjacent;
        # two that clash and both keep their level break the pair between them
        later = [(imgs, verts[j]) for j, imgs, _ in contested]
        bad = []  # bit y > x of bad[x]: slots x and y clash
        for x, (imgs, vx) in enumerate(later[:-1]):
            ors, ands = 0, -1  # OR nbr[w], AND nbr[w] | 1 << w over its images
            while imgs:
                bit = imgs & -imgs
                imgs ^= bit
                nw = nbr[bit.bit_length() - 1]
                ors, ands = ors | nw, ands & (nw | bit)
            na = nbr[vx]
            clash, bit = 0, 1 << x
            for ib, vb in later[x + 1:]:
                bit <<= 1
                agree = ib & ors if na >> vb & 1 else ib & ~ands
                if not agree:
                    clash |= bit
            bad.append(clash)
        bad.append(0)  # the last slot has no later one to clash with
        if any(bad) and _clique_bump(steps, bad, BW2, gap) > gap:
            counts.clique_prunes += 1
            return

        # branch on the most expensive slot, then the one with the fewest free
        # candidates (its neighbors outside used_mask), then the lowest
        j = unassigned[0] if tied or tie else min(
            tops, key=lambda s: (nbr[verts[s]] & ~used_mask).bit_count())
        # (key, image) in key order, image order within a key: level by
        # level, the shift image first, then the loss. An image above the
        # top level breaks more than A // B pairs already, so the same map
        # with the slot lost costs less and the image never wins
        sb = shift_bit[j]
        options, c = [], 0
        for x in levels[j]:
            if x & sb:
                options.append((c, sb.bit_length() - 1))
                x ^= sb
            while x:
                bit = x & -x
                x ^= bit
                options.append((c + W, bit.bit_length() - 1))
            c += BW2
        if ref is None:  # the restricted pass skips images for the budget, not the loss
            counts.dominated_options += (nbr[verts[j]] & ~used_mask).bit_count() - len(options)
            options.append((loss_key, lost))
        rest = [i for i in unassigned if i != j]
        base = bound - options[0][0]  # the bound without j's share

        for opt, w in options:
            # a child's bound is >= this one, so the first option that
            # loses to the incumbent ends the loop (the rest sort after it,
            # at a greater key or at an equal one with a greater image in
            # slot j), and a child is only entered with a bound <= best[0]
            child = base + opt
            if child > best[0]:
                break
            images[j] = w
            if child == best[0] and tuple(images) > best[1]:
                break
            if search(rest, used_mask if w == lost else used_mask | 1 << w, key + opt, levels, j,
                      w, tie and tie + 1):
                return True
        images[j] = -1

    if beat is not None:
        # beat's slots, lost last, at the live slots here, cut at the first
        # slot lost here where beat keeps a vertex: a map that ties beat up
        # to there sorts after it
        ref = []
        for s, b in zip(placement.slots, beat.slots):
            if s is not None:
                ref.append(lost if b is None else b)
            elif b is not None:
                break
        ref = tuple(ref)
        no_option = (B * m * m + 1) * W2
        # the pass is bounded by the budget alone; the seeded shift waits
        # for the full search
        seed, best = best, (budget_key, ())
        # a loss-free map within the budget breaks at most limit // B pairs
        high = 0 if not B else m - 1 if limit >= B * (m - 1) else limit // B
        root = [[nbr[v]] + [0] * high for v in verts]
        if not search(list(range(1, m)), 1 << target, 0, root, 0, target, 1):
            counts.none_results += 1
            return None
        best = min(best, seed)
        images[1:] = [-1] * (m - 1)
        ref, no_option = None, loss_key
    # every free neighbor starts at level 0; the root node then takes the
    # center's image like any other assignment
    root = [[nbr[v]] + [0] * (levels_kept - 1) for v in verts]
    search(list(range(1, m)), 1 << target, 0, root, 0, target, 0)
    if not best[1]:
        counts.none_results += 1
        return None
    key, images = best
    losses = key % W
    # the key's cost A*losses + B*pairs gives the pairs; at beta == 0 it
    # holds none, so the winner's are counted
    pairs = (key // W2 - A * losses) // B if B else _broken_pairs(nbr, verts, images, lost)
    return _result(verts, images, lost, losses, pairs, alpha, beta)


def _result(
    verts: list[int], images, lost: int, losses: int, pairs: int, alpha: float, beta: float,
) -> tuple[Translation, DeformationScore]:
    """The translation and score of a map found by the search, its images
    in slot order with ``lost`` for a loss."""
    order = sorted(range(len(verts)), key=lambda i: verts[i])
    domain = tuple(verts[i] for i in order)
    imgs = tuple(None if images[i] == lost else images[i] for i in order)
    return Translation(domain, imgs), DeformationScore.of(losses, pairs, alpha, beta)


def enumerate_translations_bruteforce(
    g: Graph,
    domain: Sequence[int] | set[int],
    center: int,
    target: int,
    alpha: float = 1.0,
    beta: float = 1.0,
    max_domain: int = 12,
) -> list[tuple[Translation, DeformationScore]]:
    """Every translation satisfying the hard constraints, with its score.

    Exhaustive and unpruned: this is the oracle the branch-and-bound search
    is checked against. Results sort by (exact cost, losses, lexicographic
    image sequence over the sorted domain).
    """
    A, B, _ = exact_weights(alpha, beta)
    dom = tuple(sorted(set(domain)))
    if len(dom) > max_domain:
        raise DomainSizeError(f"domain of {len(dom)} vertices exceeds the guard ({max_domain})")
    if center not in dom:
        raise TranslationError(f"center {center} must belong to the domain")
    if not g.has_edge(center, target):
        raise AdjacencyError(f"target {target} is not adjacent to center {center}")

    results: list[tuple[Translation, DeformationScore]] = []
    images: list[int | None] = [None] * len(dom)

    def recurse(i: int, used: int) -> None:
        if i == len(dom):
            t = Translation(dom, tuple(images))
            results.append((t, deformation_score(g, t, alpha, beta)))
            return
        v = dom[i]
        if v == center:
            options: list[int | None] = [] if used >> target & 1 else [target]
        else:
            options = [w for w in g.neighbors(v) if not used >> w & 1]
            options.append(LOSS)
        for w in options:
            images[i] = w
            recurse(i + 1, used if w is None else used | (1 << w))
        images[i] = None

    recurse(0, 0)
    results.sort(key=lambda pair: (  # a lost image sorts as g.n, after every vertex id
        A * pair[1].losses + B * pair[1].snp_violations, pair[1].losses,
        tuple(g.n if w is None else w for w in pair[0].images),
    ))
    return results
