from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    live = [v for _, v in placement.live_slots()]
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
def search_cases(draw):
    """A random connected graph on at most 8 vertices (a random tree plus
    extra edges), a placement of up to 6 slots at one vertex, some of them
    lost, and a neighbor of that vertex as the target."""
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v]
    g = Graph(n, edges)
    center = draw(st.integers(0, n - 1))
    target = draw(st.sampled_from(g.neighbors(center)))
    others = draw(st.lists(st.integers(0, n - 1).filter(lambda w: w != center),
                           unique=True, max_size=5))
    slots = [center] + [draw(st.sampled_from([w, w, None])) for w in others]
    return g, KernelPlacement(center, tuple(slots), ZERO_SCORE), target


WEIGHTS = st.sampled_from([0, 1, 2, 3, 0.1, 0.3, 0.7, 0.8, 1.79, 2.5])


class TestSearchAgainstOracleProperty:
    @PROFILE
    @given(search_cases(), WEIGHTS, WEIGHTS)
    def test_search_returns_the_oracle_winner(self, case, alpha, beta):
        g, p, target = case
        domain = [v for v in p.slots if v is not None]
        oracle = enumerate_translations_bruteforce(g, domain, p.center, target, alpha, beta)
        winner = min(oracle, key=_documented_order(p, target, alpha, beta))
        assert find_local_translation(g, p, target, alpha, beta) == winner

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
