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
from fractions import Fraction
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


def _max_bit_matching(masks: list[int]) -> int:
    """Maximum bipartite matching of rows onto set bits (Kuhn's algorithm)."""
    owner: dict[int, int] = {}  # bit position -> row

    def try_row(i: int, banned: set[int]) -> bool:
        free = masks[i]
        while free:
            low = free & -free
            w = low.bit_length() - 1
            free ^= low
            if w in banned:
                continue
            banned.add(w)
            if w not in owner or try_row(owner[w], banned):
                owner[w] = i
                return True
        return False

    return sum(1 for i in range(len(masks)) if try_row(i, set()))


def find_local_translation(
    g: Graph,
    placement: KernelPlacement,
    target: int,
    alpha: float = 1.0,
    beta: float = 1.0,
    budget: float = math.inf,
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
    the ratio ``alpha:beta`` matters.

    ``budget`` (a float or a :class:`~fractions.Fraction`) caps the exact
    score ``alpha*losses + beta*snp``, with no rounding slack: the search
    returns ``None`` when no map scores ``<= budget``. A map that fits is
    the same one an unbounded search returns, ties included. The default
    (infinity) always finds a map, because losing every slot but the
    center is always feasible.
    """
    A, B, scale = exact_weights(alpha, beta)
    if math.isnan(budget):
        raise TranslationError("budget must not be nan")
    limit = budget if math.isinf(budget) else math.floor(Fraction(budget) * scale)
    center = placement.center
    if not g.has_edge(center, target):
        raise AdjacencyError(f"target {target} is not adjacent to center {center}")

    live = placement.live_slots()
    verts = [v for _, v in live]  # slot order; verts[0] == center
    m = len(verts)
    lost = g.n  # sentinel image; conveniently orders after every vertex id
    delta = target - center
    nbr = g.neighbor_masks
    masks = [nbr[v] for v in verts]

    INF = float("inf")
    best = (limit, INF, INF, (), 0)  # (cost, non_shift, losses, images, violations)
    images = [-1] * m
    images[0] = target

    # e_mask[j] holds the images of the assigned survivors whose preimage is
    # adjacent to verts[j]; the rest of used_mask belongs to non-adjacent
    # ones. A candidate w for slot j breaks every pair where that adjacency
    # disagrees with w's, ((e_mask[j] ^ nbr[w]) & used_mask).bit_count(),
    # edges lost plus non-edges gained. Assigning slot j flips its image
    # bit in the masks of the open slots adjacent to verts[j].
    e_mask = [1 << target if masks[0] >> v & 1 else 0 for v in verts]

    def search(
        unassigned: list[int],
        used_mask: int,
        losses: int,
        violations: int,
        non_shift: int,
    ) -> None:
        nonlocal best
        total = A * losses + B * violations
        if total > best[0]:
            return
        if not unassigned:
            key = (total, non_shift, losses, tuple(images))
            if key < best[:4]:
                best = (*key, violations)
            return

        # Admissible cascaded bound: every open slot pays at least its
        # cheapest option, an option being a free neighbor
        # (cost B*conflicts, shift flag, survives) or the loss
        # (cost A, non-shifted, lost). Conflicts between two open slots
        # are not counted, so every bound component only grows with depth,
        # and at bound equality each component is forced slot-wise.
        bound_total = total
        bound_shift = non_shift
        bound_losses = losses
        branch_j = -1
        branch_sel = None
        branch_min_c = 0
        # slots whose cheapest option is an image compete for those images;
        # a max matching bounds how many can win at once (loss-cheap slots
        # are satisfied privately), and every loser pays at least the
        # smallest cost step above a row minimum
        contested: list[tuple[int, int]] = []  # (zero-cost image mask, step)
        for j in unassigned:
            vj = verts[j]
            em = e_mask[j]
            min_c, min_s, min_l = A, 1, 1  # the loss option
            zero_imgs = 0
            min2 = INF
            free = masks[j] & ~used_mask
            nfree = free.bit_count()
            while free:
                low = free & -free
                w = low.bit_length() - 1
                free ^= low
                c = B * ((em ^ nbr[w]) & used_mask).bit_count()
                if c > min_c:
                    if c < min2:
                        min2 = c
                    continue
                if c < min_c:
                    if min_c < min2:
                        min2 = min_c
                    zero_imgs = low
                    s = 0 if w - vj == delta else 1
                    min_c, min_s, min_l = c, s, 0
                    continue
                zero_imgs |= low
                s = 0 if w - vj == delta else 1
                if s < min_s or (s == min_s and min_l):
                    min_s, min_l = s, 0
            bound_total += min_c
            bound_shift += min_s
            bound_losses += min_l
            # a slot whose loss is no cheaper than its best image competes
            # for images; losers pay at least the next cost level up
            if min_c < A and zero_imgs:
                contested.append((zero_imgs, min(min2, A) - min_c))
            # branch on the most expensive slot, then the most constrained
            sel = (-min_c, nfree, j)
            if branch_j < 0 or sel < branch_sel:
                branch_j, branch_sel, branch_min_c = j, sel, min_c
        if (bound_total, bound_shift, bound_losses) > best[:3]:
            return
        if len(contested) > 1:
            unmatched = len(contested) - _max_bit_matching([m_ for m_, _ in contested])
            if unmatched > 0:
                steps = sorted(s_ for _, s_ in contested)
                if bound_total + sum(steps[:unmatched]) > best[0]:
                    return

        j = branch_j
        vj, em, mask_j = verts[j], e_mask[j], masks[j]
        rest = [i for i in unassigned if i != j]
        adjacent = [i for i in rest if mask_j >> verts[i] & 1]
        base_total = bound_total - branch_min_c  # bound without j's share

        # (cost, shift flag, loss flag, image, broken pairs)
        options: list[tuple[int, int, int, int, int]] = [(A, 1, 1, lost, 0)]
        free = mask_j & ~used_mask
        while free:
            low = free & -free
            w = low.bit_length() - 1
            free ^= low
            inc = ((em ^ nbr[w]) & used_mask).bit_count()
            options.append((B * inc, 0 if w - vj == delta else 1, 0, w, inc))
        options.sort()

        for cost, shift_flag, loss_flag, w, inc in options:
            if base_total + cost > best[0]:
                break  # options are cost-sorted; the rest only get worse
            images[j] = w
            bit = 0 if loss_flag else 1 << w
            for i in adjacent:
                e_mask[i] ^= bit
            search(rest, used_mask | bit, losses + loss_flag, violations + inc,
                   non_shift + shift_flag)
            for i in adjacent:
                e_mask[i] ^= bit

    search(list(range(1, m)), 1 << target, 0, 0, 0)
    _, _, losses, best_images, violations = best
    if not best_images:
        return None

    order = sorted(range(m), key=lambda i: verts[i])
    domain = tuple(verts[i] for i in order)
    imgs = tuple(None if best_images[i] == lost else best_images[i] for i in order)
    return Translation(domain, imgs), DeformationScore.of(losses, violations, alpha, beta)


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
