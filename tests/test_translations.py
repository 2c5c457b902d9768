from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gcforge.graph import Graph, grid_graph, is_connected
from gcforge.propagation import init_kernel
from gcforge.translations import (
    AdjacencyError,
    DeformationScore,
    DomainSizeError,
    KernelPlacement,
    Translation,
    TranslationError,
    ZERO_SCORE,
    _clique_bump,
    deformation_score,
    enumerate_translations_bruteforce,
    exact_weights,
    find_local_translation,
    is_edge_constrained,
    is_injective,
    snp_violations,
)

from conftest import (
    PROFILE,
    complete_graph,
    cycle_graph,
    er_graph,
    oracle_family,
    oracle_placements,
    path_graph,
    star_graph,
    torus_graph,
)


def t(domain, images):
    return Translation(tuple(domain), tuple(images))


class TestProperties:
    def test_injective_with_multiple_losses(self):
        assert is_injective(t([0, 1, 2], [1, None, None]))

    def test_injective_collision(self):
        assert not is_injective(t([0, 2], [1, 1]))

    def test_identity_injective(self):
        assert is_injective(t([0, 1, 2], [0, 1, 2]))

    def test_edge_constrained_on_path(self, path3):
        assert is_edge_constrained(path3, t([0, 1], [1, 2]))
        assert not is_edge_constrained(path3, t([0], [2]))

    def test_all_lost_is_edge_constrained(self, k3):
        assert is_edge_constrained(k3, t([0, 1, 2], [None, None, None]))

    def test_translation_validation(self):
        with pytest.raises(TranslationError):
            t([1, 0], [0, 1])  # unsorted domain
        with pytest.raises(TranslationError):
            t([0, 0], [1, 2])  # duplicate domain


class TestSnpViolations:
    def test_k3_rotation_preserves_all_pairs(self, k3):
        assert snp_violations(k3, t([0, 1, 2], [1, 2, 0])) == 0

    def test_path_swap_on_edge(self, path3):
        # pair (0, 1) is an edge, images (1, 0) still an edge
        assert snp_violations(path3, t([0, 1], [1, 0])) == 0

    def test_path4_non_edge_becomes_edge(self):
        g = path_graph(4)
        # pair (0, 3) is a non-edge; images (1, 2) form an edge
        assert snp_violations(g, t([0, 3], [1, 2])) == 1

    def test_pairs_with_loss_never_count(self, path3):
        assert snp_violations(path3, t([0, 1, 2], [1, 2, None])) == 0

    def test_matches_pairwise_definition_on_random_maps(self):
        rng = random.Random(5)
        for trial in range(60):
            g = er_graph(7, 0.5, 900 + trial)
            dom = tuple(sorted(rng.sample(range(7), rng.randint(2, 5))))
            images = []
            used = set()
            for v in dom:
                choices = [None] + [w for w in g.neighbors(v) if w not in used]
                img = rng.choice(choices)
                images.append(img)
                if img is not None:
                    used.add(img)
            tr = t(dom, images)
            live = [(v, w) for v, w in zip(tr.domain, tr.images) if w is not None]
            expected = sum(
                1
                for a in range(len(live))
                for b in range(a + 1, len(live))
                if g.has_edge(live[a][0], live[b][0]) != g.has_edge(live[a][1], live[b][1])
            )
            assert snp_violations(g, tr) == expected


class TestDeformationScore:
    def test_identity_scores_zero(self, k3):
        s = deformation_score(k3, t([0, 1, 2], [1, 2, 0]))
        assert s == DeformationScore(0, 0, 0.0)

    def test_one_loss(self, path3):
        s = deformation_score(path3, t([0, 1, 2], [1, 2, None]))
        assert (s.losses, s.snp_violations, s.total) == (1, 0, 1.0)

    def test_path4_violation_total(self):
        g = path_graph(4)
        s = deformation_score(g, t([0, 3], [1, 2]), alpha=1.0, beta=1.0)
        assert (s.losses, s.snp_violations, s.total) == (0, 1, 1.0)

    def test_weights_scale_components(self):
        g = path_graph(4)
        s = deformation_score(g, t([0, 1, 3], [1, None, 2]), alpha=2.0, beta=5.0)
        assert s.total == 2.0 * s.losses + 5.0 * s.snp_violations

    def test_negative_weights_rejected(self, path3):
        with pytest.raises(TranslationError):
            deformation_score(path3, t([0], [1]), alpha=-1.0)

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_weights_rejected(self, path3, alpha, beta):
        with pytest.raises(TranslationError, match="finite"):
            deformation_score(path3, t([0], [1]), alpha=alpha, beta=beta)

    def test_exact_weights_share_one_power_of_two(self):
        A, B, scale = exact_weights(0.1, 0.2)
        assert (Fraction(A, scale), Fraction(B, scale)) == (Fraction(0.1), Fraction(0.2))
        assert B == 2 * A
        assert exact_weights(1.0, 2.0) == (1, 2, 1)


def placement(center, slots):
    return KernelPlacement(center=center, slots=tuple(slots), accumulated=ZERO_SCORE)


class TestFindLocalTranslation:
    def test_path_kernel_loses_far_slot(self, path3):
        p = placement(1, [1, 0, 2])
        tr, score = find_local_translation(path3, p, 2)
        assert tr.mapping() == {1: 2, 0: 1, 2: None}
        assert (score.losses, score.snp_violations, score.total) == (1, 0, 1.0)

    def test_k3_rotation_is_free(self, k3):
        p = placement(0, [0, 1, 2])
        tr, score = find_local_translation(k3, p, 1)
        assert tr.mapping() == {0: 1, 1: 2, 2: 0}
        assert score.total == 0.0

    def test_grid_interior_shift_is_rigid_and_unique(self):
        g = grid_graph(4, 4)
        p = init_kernel(g, 5)  # slots (5, 1, 4, 6, 9)
        tr, score = find_local_translation(g, p, 6)
        assert score.total == 0.0
        assert tr.mapping() == {5: 6, 1: 2, 4: 5, 6: 7, 9: 10}
        # brute force confirms the zero-score solution is unique
        zero = [
            pair
            for pair in enumerate_translations_bruteforce(g, [5, 1, 4, 6, 9], 5, 6)
            if pair[1].total == 0.0
        ]
        assert len(zero) == 1 and zero[0][0] == tr

    def test_grid_border_shift_stays_rigid(self):
        # moving left from (1,1) on a 4x4 grid: the left slot falls off and
        # every survivor keeps the center's displacement
        g = grid_graph(4, 4)
        p = init_kernel(g, 5)
        tr, score = find_local_translation(g, p, 4)
        assert tr.mapping() == {5: 4, 1: 0, 4: None, 6: 5, 9: 8}
        assert score.total == 1.0

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_weights_rejected(self, path3, alpha, beta):
        with pytest.raises(TranslationError, match="finite"):
            find_local_translation(path3, placement(1, [1, 0, 2]), 0, alpha, beta)

    def test_nan_budget_rejected(self, path3):
        with pytest.raises(TranslationError, match="budget"):
            find_local_translation(path3, placement(1, [1, 0, 2]), 0, budget=math.nan)

    @pytest.mark.parametrize("floor", [math.inf, -math.inf, math.nan])
    def test_non_finite_floor_rejected(self, path3, floor):
        with pytest.raises(TranslationError, match="floor"):
            find_local_translation(path3, placement(1, [1, 0, 2]), 0, floor=floor)

    def test_budget_keeps_the_result_or_returns_none(self):
        # on the acceptance-2 oracle family: a budget equal to the best
        # score still finds the same map, and one just below it finds none
        pairs = 0
        for g in oracle_family():
            for p in oracle_placements(g):
                for target in g.neighbors(p.center):
                    found = find_local_translation(g, p, target)
                    total = found[1].total
                    assert find_local_translation(g, p, target, budget=total) == found
                    assert find_local_translation(g, p, target, budget=total + 1.0) == found
                    below = math.nextafter(total, -math.inf)
                    assert find_local_translation(g, p, target, budget=below) is None
                    pairs += 1
        assert pairs > 1000

    def test_target_must_be_adjacent(self, path3):
        with pytest.raises(AdjacencyError):
            find_local_translation(path3, placement(0, [0, 1]), 2)

    @pytest.mark.parametrize("beat", [placement(1, [1, 0, 2]), placement(2, [2, 1])],
                             ids=["other-center", "other-width"])
    def test_placement_to_beat_must_match(self, path3, beat):
        with pytest.raises(TranslationError, match="to beat"):
            find_local_translation(path3, placement(1, [1, 0, 2]), 2, beat=beat)

    def test_output_always_satisfies_hard_constraints(self):
        for trial in range(40):
            g = er_graph(8, 0.4, 4000 + trial)
            if not is_connected(g):
                continue
            for v in range(g.n):
                p = init_kernel(g, v)
                for target in g.neighbors(v):
                    tr, score = find_local_translation(g, p, target)
                    assert is_injective(tr)
                    assert is_edge_constrained(g, tr)
                    assert tr.mapping()[v] == target
                    assert deformation_score(g, tr) == score

    def test_deterministic_across_runs(self):
        g = er_graph(9, 0.4, 77)
        p = init_kernel(g, 0)
        results = {find_local_translation(g, p, w) for w in g.neighbors(0) for _ in range(3)}
        assert len(results) == len(g.neighbors(0))


class TestBruteForceOracle:
    def test_single_vertex_domain(self, path3):
        results = enumerate_translations_bruteforce(path3, [0], 0, 1)
        assert len(results) == 1
        tr, score = results[0]
        assert tr.mapping() == {0: 1} and score.total == 0.0

    def test_path_minimum_matches_search(self, path3):
        results = enumerate_translations_bruteforce(path3, [0, 1, 2], 1, 2)
        tr, score = find_local_translation(path3, placement(1, [1, 0, 2]), 2)
        assert results[0][1].total == score.total

    def test_k3_contains_free_rotation(self, k3):
        results = enumerate_translations_bruteforce(k3, [0, 1, 2], 0, 1)
        assert results[0][1].total == 0.0
        assert any(tr.mapping() == {0: 1, 1: 2, 2: 0} for tr, _ in results)

    def test_domain_size_guard(self):
        g = complete_graph(14)
        with pytest.raises(DomainSizeError):
            enumerate_translations_bruteforce(g, list(range(13)), 0, 1)

    def test_results_sorted_by_score(self, k3):
        results = enumerate_translations_bruteforce(k3, [0, 1, 2], 0, 1)
        totals = [s.total for _, s in results]
        assert totals == sorted(totals)
        # equal scores order by image sequence, a lost image after every id
        one_loss = [tr.images for tr, s in results if s.losses == 1]
        assert one_loss == [(1, 0, None), (1, 2, None), (1, None, 0)]

    def test_every_result_is_valid(self):
        g = er_graph(6, 0.5, 12)
        if not is_connected(g):
            g = cycle_graph(6)
        dom = [0] + list(g.neighbors(0))
        target = g.neighbors(0)[0]
        for tr, score in enumerate_translations_bruteforce(g, dom, 0, target):
            assert is_injective(tr)
            assert is_edge_constrained(g, tr)
            assert tr.mapping()[0] == target
            assert deformation_score(g, tr) == score


def _family_graphs(max_n=7):
    out = []
    for n in range(2, max_n + 1):
        out.append(path_graph(n))
    for n in range(3, max_n + 1):
        out.append(cycle_graph(n))
        out.append(star_graph(n))
        out.append(complete_graph(n))
    return out


class TestOracleEquivalence:
    @pytest.mark.parametrize("g", _family_graphs(6), ids=lambda g: f"n{g.n}m{len(g.edges)}")
    def test_search_matches_bruteforce_minimum(self, g):
        for v in range(g.n):
            p = init_kernel(g, v)
            domain = [s for s in p.slots if s is not None]
            for target in g.neighbors(v):
                tr, score = find_local_translation(g, p, target)
                oracle = enumerate_translations_bruteforce(g, domain, v, target)
                assert score.total == oracle[0][1].total
                assert any(o_tr == tr and o_s == score for o_tr, o_s in oracle)

    def test_score_monotone_under_domain_removal(self):
        # dropping a vertex from the domain never raises the best score
        rng = random.Random(3)
        for trial in range(25):
            g = er_graph(6, 0.5, 600 + trial)
            if not is_connected(g):
                continue
            v = rng.randrange(g.n)
            target = rng.choice(g.neighbors(v))
            domain = [v] + [w for w in range(g.n) if w != v]
            full = enumerate_translations_bruteforce(g, domain, v, target)[0][1].total
            for drop in domain[1:]:
                sub = [w for w in domain if w != drop]
                reduced = enumerate_translations_bruteforce(g, sub, v, target)[0][1].total
                assert reduced <= full


def _documented_order(placement, target, alpha, beta):
    """Sort key of the search's documented tie-break over oracle results:
    the exact total, slots not moved by the center's displacement, losses,
    then the image sequence in slot order with a lost slot after every
    vertex id. The total is a Fraction of the weights, independent of the
    integer costs the search compares."""
    live = [v for v in placement.slots if v is not None]
    delta = target - placement.center
    alpha, beta = Fraction(alpha), Fraction(beta)

    def key(pair):
        tr, score = pair
        mapping = tr.mapping()
        images = [mapping[v] for v in live]
        non_shift = sum(1 for v, w in zip(live, images) if w is None or w - v != delta)
        seq = tuple((1, 0) if w is None else (0, w) for w in images)
        total = alpha * score.losses + beta * score.snp_violations
        return total, non_shift, score.losses, seq

    return key


@st.composite
def search_cases(draw, min_n=2, min_others=0):
    """A random connected graph on ``min_n`` to 8 vertices (a random tree
    plus extra edges), a placement of ``min_others + 1`` to 6 slots at one
    vertex, some of them lost, and a neighbor of that vertex as the target."""
    n = draw(st.integers(min_n, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v]
    g = Graph(n, edges)
    center = draw(st.integers(0, n - 1))
    target = draw(st.sampled_from(g.neighbors(center)))
    others = draw(st.lists(st.integers(0, n - 1).filter(lambda w: w != center),
                           unique=True, min_size=min_others, max_size=5))
    slots = [center] + [draw(st.sampled_from([w, w, None])) for w in others]
    return g, KernelPlacement(center, tuple(slots), ZERO_SCORE), target


@st.composite
def deep_search_cases(draw):
    """A random connected graph on 8 to 10 vertices (a random tree plus a
    few extra edges), a placement of 7 to 9 live slots at one vertex and up
    to 2 lost ones, and a neighbor of that vertex as the target: the search
    branches and cuts options several levels deep."""
    n = draw(st.integers(8, 10))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=n)) if u != v]
    g = Graph(n, edges)
    center = draw(st.integers(0, n - 1))
    target = draw(st.sampled_from(g.neighbors(center)))
    others = draw(st.permutations([w for w in range(n) if w != center]))
    others = others[: draw(st.integers(6, 8))] + [None] * draw(st.integers(0, 2))
    slots = [center] + draw(st.permutations(others))
    return g, KernelPlacement(center, tuple(slots), ZERO_SCORE), target


WEIGHTS = st.sampled_from([0, 1, 2, 3, 0.1, 0.3, 0.7, 0.8, 1.79, 2.5])


def _check_search_against_oracle(case, alpha, beta, below, oracle=None):
    """The unbudgeted search returns the oracle's winner; with the winner's
    exact total as budget it still does, and half a cost unit below that
    total (costs are multiples of 1/scale) it returns None. ``oracle``, the
    case's brute-force list scored at any weights, lets several weights
    share one enumeration."""
    g, p, target = case
    if oracle is None:
        domain = [v for v in p.slots if v is not None]
        oracle = enumerate_translations_bruteforce(g, domain, p.center, target, alpha, beta)
    tr, score = min(oracle, key=_documented_order(p, target, alpha, beta))
    winner = tr, DeformationScore.of(score.losses, score.snp_violations, alpha, beta)
    assert find_local_translation(g, p, target, alpha, beta) == winner
    budget = Fraction(alpha) * winner[1].losses + Fraction(beta) * winner[1].snp_violations
    if below:
        budget -= Fraction(1, 2 * exact_weights(alpha, beta)[2])
    expected = None if below else winner
    assert find_local_translation(g, p, target, alpha, beta, budget) == expected


def _check_floor(case, alpha, beta, least, data):
    """A floor at or below the least cost ``least`` returns what the search
    without one returns, under a budget at that cost (as the settle loop
    searches), above it, or half a cost unit below it."""
    g, p, target = case
    unit = Fraction(1, exact_weights(alpha, beta)[2])
    floor = data.draw(st.sampled_from(
        [least, least - unit / 2, least - unit, least / 2, Fraction(0), -unit]))
    budget = data.draw(st.sampled_from([least, math.inf, least - unit / 2]))
    assert (find_local_translation(g, p, target, alpha, beta, budget, floor=floor)
            == find_local_translation(g, p, target, alpha, beta, budget))


class TestSearchAgainstOracleProperty:
    @PROFILE
    @given(search_cases(), WEIGHTS, WEIGHTS, st.booleans())
    def test_search_returns_the_oracle_winner(self, case, alpha, beta, below):
        _check_search_against_oracle(case, alpha, beta, below)

    @settings(PROFILE, max_examples=300)
    @given(deep_search_cases(), WEIGHTS, WEIGHTS, st.booleans())
    def test_deep_search_returns_the_oracle_winner(self, case, alpha, beta, below):
        _check_search_against_oracle(case, alpha, beta, below)

    @PROFILE
    @given(search_cases(), WEIGHTS, WEIGHTS, st.data())
    def test_floor_at_or_below_the_least_cost_changes_nothing(self, case, alpha, beta, data):
        g, p, target = case
        domain = [v for v in p.slots if v is not None]
        oracle = enumerate_translations_bruteforce(g, domain, p.center, target, alpha, beta)
        least = min(Fraction(alpha) * s.losses + Fraction(beta) * s.snp_violations
                    for _, s in oracle)
        _check_floor(case, alpha, beta, least, data)

    @settings(PROFILE, max_examples=300)
    @given(deep_search_cases(), WEIGHTS, WEIGHTS, st.data())
    def test_deep_floor_at_or_below_the_least_cost_changes_nothing(self, case, alpha, beta, data):
        # the least cost is the unbounded search's, which the properties
        # above check against the oracle on the same family of cases
        g, p, target = case
        score = find_local_translation(g, p, target, alpha, beta)[1]
        least = Fraction(alpha) * score.losses + Fraction(beta) * score.snp_violations
        _check_floor(case, alpha, beta, least, data)

    def test_floor_tie_takes_the_least_images(self):
        # searched at its least cost, this step reaches nodes whose floor
        # bound ties the incumbent, and there the open slots at their least
        # free images decide the prune; bounding them by greater images
        # prunes the winner
        g = Graph(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (3, 5)])
        p = KernelPlacement(2, (2, 3, 1, 0, 4), ZERO_SCORE)
        oracle = enumerate_translations_bruteforce(g, p.slots, 2, 0)
        winner = min(oracle, key=_documented_order(p, 0, 1.0, 1.0))
        assert winner[1].total == 1.0
        assert find_local_translation(g, p, 0, budget=1, floor=1) == winner

    @pytest.mark.parametrize("g, radius", [
        (cycle_graph(8), 1), (cycle_graph(8), 2), (torus_graph(4, 4), 1),
    ], ids=["cycle8-r1", "cycle8-r2", "torus4x4-r1"])
    def test_vertex_transitive_ties(self, g, radius):
        # every center looks alike, so maps tie on cost, shifts and losses
        # at nearly every node and the image tie-break decides; the 4x4
        # torus's radius-2 kernel is left out, as its 11 slots give the
        # oracle ~0.9 M maps (~27 s) per target
        for v in range(g.n):
            p = init_kernel(g, v, radius)
            for target in g.neighbors(v):
                oracle = enumerate_translations_bruteforce(g, p.slots, v, target)
                for alpha, beta in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0)):
                    for below in (False, True):
                        _check_search_against_oracle((g, p, target), alpha, beta, below, oracle)

    def test_pairs_recounted_at_beta_zero(self):
        # at beta = 0 a broken pair costs nothing, so the key holds no pair
        # count and the winner's pairs are counted once at the end
        g = Graph(7, [(0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (2, 4), (3, 4), (5, 6)])
        p = KernelPlacement(1, (1, 3, 4), ZERO_SCORE)
        tr, score = find_local_translation(g, p, 3, 1.0, 0.0)
        assert score.snp_violations == snp_violations(g, tr) > 0
        _check_search_against_oracle((g, p, 3), 1.0, 0.0, below=False)

    # A // B is 24 at 2.5:0.1, above the 6 pairs one of these 7 slots can
    # break, so each slot keeps 7 conflict levels and the loss dominates no
    # image; the winner loses no slot and breaks 14 pairs
    MANY_LEVELS = (Graph(8, [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 3), (1, 5),
                             (1, 7), (2, 4), (2, 5), (5, 7)]),
                   KernelPlacement(0, (0, 1, 3, 4, 5, 6, 7), ZERO_SCORE), 6)

    def test_many_conflict_levels(self):
        g, p, target = self.MANY_LEVELS
        A, B, _ = exact_weights(2.5, 0.1)
        assert A // B == 24
        assert find_local_translation(g, p, target, 2.5, 0.1)[1].snp_violations == 14
        for below in (False, True):
            _check_search_against_oracle((g, p, target), 2.5, 0.1, below)

    @pytest.mark.parametrize("beta", [1e-9, 1e-300])
    def test_tiny_beta_caps_the_levels(self, beta):
        # A // B is about 1e9 and 1e300 here; a slot breaks at most 6 pairs,
        # so it keeps 7 levels, not A // B + 1
        for below in (False, True):
            _check_search_against_oracle(self.MANY_LEVELS, 1.0, beta, below)

    def test_fractional_weight_tie(self):
        # ten maps tie at the minimum, 1 loss and 2 broken pairs; float sums
        # of 1.79 and 0.8 taken slot by slot round differently from
        # 1.79*1 + 0.8*2, so a float bound can prune the tie-break winner
        g = Graph(8, [(0, 4), (0, 6), (1, 4), (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6),
                      (3, 4), (3, 5), (4, 6), (4, 7), (5, 6), (6, 7)])
        p = KernelPlacement(0, (0, 3, 2, 6, 1), ZERO_SCORE)
        oracle = enumerate_translations_bruteforce(g, [0, 1, 2, 3, 6], 0, 6, 1.79, 0.8)
        winner = min(oracle, key=_documented_order(p, 6, 1.79, 0.8))
        assert find_local_translation(g, p, 6, 1.79, 0.8) == winner


def _carried(p, tr):
    """The slots a map gives a placement: each slot's image, lost slots lost."""
    mapping = tr.mapping()
    return tuple(None if v is None else mapping[v] for v in p.slots)


def _slot_order(slots, n):
    """Sort key of a slot tuple, a lost slot after every vertex id."""
    return tuple(n if s is None else s for s in slots)


@st.composite
def beat_cases(draw):
    """A search case, integer weights, its oracle list, and a placement at
    the target to beat: the slots of one of the maps (often the loss-free map
    whose slots sort first), with some slots lost or moved to unused
    vertices, lost slots of the source included."""
    g, p, target = draw(search_cases(min_n=4, min_others=2))
    alpha, beta = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    domain = [v for v in p.slots if v is not None]
    oracle = enumerate_translations_bruteforce(g, domain, p.center, target, alpha, beta)
    loss_free = [_carried(p, tr) for tr, s in oracle if s.losses == 0]
    first = [min(loss_free, key=lambda slots: _slot_order(slots, g.n))] if loss_free else []
    slots = list(draw(st.sampled_from(first * 3 + [_carried(p, tr) for tr, _ in oracle])))
    for i in range(1, p.k):
        change = draw(st.sampled_from(["keep", "keep", "lose", "move"]))
        unused = [w for w in range(g.n) if w not in slots]
        if change == "lose":
            slots[i] = None
        elif change == "move" and unused:
            slots[i] = draw(st.sampled_from(unused))
    return g, p, target, alpha, beta, oracle, KernelPlacement(target, tuple(slots), ZERO_SCORE)


class TestRestrictedSearch:
    @settings(PROFILE, max_examples=600)
    @given(beat_cases(), st.data())
    def test_none_exactly_when_no_map_beats_the_placement(self, case, data):
        # a placement to beat returns None exactly when no loss-free map
        # within the budget gives slots that sort below it, and otherwise
        # the oracle's winner within the budget; the floor is at or below
        # the least cost. The draws that tell the pass's rules apart (a map
        # equal to the placement, a cut reference, a lossy map below it) are
        # rare, so this property draws more cases than the others
        g, p, target, alpha, beta, oracle, beat = case
        least = min(alpha * s.losses + beta * s.snp_violations for _, s in oracle)
        floor = data.draw(st.sampled_from([least, least - 1, 0]))
        budget = data.draw(st.sampled_from([least, least + 1, least + 3, math.inf, least - 1]))
        within = [pair for pair in oracle if pair[1].total <= budget]
        bar = _slot_order(beat.slots, g.n)
        beating = [tr for tr, s in within
                   if s.losses == 0 and _slot_order(_carried(p, tr), g.n) < bar]
        got = find_local_translation(g, p, target, alpha, beta, budget, floor=floor, beat=beat)
        if beating:
            assert got == min(within, key=_documented_order(p, target, alpha, beta))
        elif got is not None:
            # the rigid shift, answered at the floor before the restricted pass
            tr, score = got
            assert score.losses == 0 and score.total == floor
            assert all(w - v == target - p.center for v, w in zip(tr.domain, tr.images))


@st.composite
def clash_graphs(draw):
    """Up to 7 contested slots with their steps sorted descending, a random
    clash graph as symmetric bitmasks, and the penalty of a broken pair."""
    q = draw(st.integers(0, 7))
    steps = sorted(draw(st.lists(st.integers(1, 20), min_size=q, max_size=q)), reverse=True)
    bad = [0] * q
    for x in range(q):
        for y in range(x + 1, q):
            if draw(st.booleans()):
                bad[x] |= 1 << y
                bad[y] |= 1 << x
    return steps, bad, draw(st.integers(0, 30))


def _least_keep_charge(steps, bad, penalty):
    """Brute force over every set of slots that keep their cheapest level:
    each other slot pays its step, each clashing pair inside the set pays
    the penalty."""
    q = len(steps)
    return min(
        sum(s for x, s in enumerate(steps) if not keep >> x & 1)
        + penalty * sum(1 for x in range(q) for y in range(x + 1, q)
                        if keep >> x & keep >> y & bad[x] >> y & 1)
        for keep in range(1 << q)
    )


class TestCliqueBump:
    @PROFILE
    @given(clash_graphs())
    def test_never_exceeds_the_least_keep_charge(self, case):
        steps, bad, penalty = case
        bump = _clique_bump(steps, bad, penalty, math.inf)
        assert bump <= _least_keep_charge(steps, bad, penalty)
        # the early stop prunes exactly when the full sum does
        for gap in (bump - 1, bump):
            assert (_clique_bump(steps, bad, penalty, gap) > gap) == (bump > gap)

    @PROFILE
    @given(clash_graphs())
    def test_one_clique_charges_the_least_keep_charge(self, case):
        steps, _, penalty = case
        every = (1 << len(steps)) - 1
        bad = [every ^ 1 << x for x in range(len(steps))]
        least = _least_keep_charge(steps, bad, penalty)
        assert _clique_bump(steps, bad, penalty, math.inf) == least

    @PROFILE
    @given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 50))
    def test_two_clashing_slots_pay_the_capped_pair_charge(self, a, b, penalty):
        # the smaller step, capped at one broken pair
        assert _clique_bump(sorted([a, b], reverse=True), [2, 1], penalty, math.inf) == min(
            a, b, penalty)
