"""Property tests: the placement-map and scheme text formats round-trip
byte for byte. The profile is derandomized, so every run draws the same
examples."""

from __future__ import annotations

from hypothesis import given, strategies as st

from gcforge.layer import build_scheme, export_scheme, import_scheme
from gcforge.propagation import PlacementMap, parse_placements, serialize_placements
from gcforge.translations import DeformationScore, KernelPlacement

from conftest import PROFILE


@st.composite
def placement_maps(draw) -> PlacementMap:
    """A complete map: every vertex holds a kernel centered on itself, with
    distinct surviving slots and a score the parser can decompose."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, 5)))  # both formats bound K by n
    alpha = draw(st.floats(0.0, 10.0))
    beta = draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
    placements = {}
    for v in range(n):
        others = draw(st.permutations([w for w in range(n) if w != v]))
        keep = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
        slots = (v, *(w if kept else None for w, kept in zip(others + [None] * k, keep)))
        losses = slots.count(None)
        snp = draw(st.integers(0, 30)) if beta > 0 else 0
        score = DeformationScore(losses, snp, alpha * losses + beta * snp)
        placements[v] = KernelPlacement(center=v, slots=slots, accumulated=score)
    seed = draw(st.integers(0, n - 1))
    return PlacementMap(n=n, k=k, seed=seed, alpha=alpha, beta=beta, placements=placements)


@PROFILE
@given(placement_maps())
def test_placement_text_round_trips(pm):
    text = serialize_placements(pm)
    parsed = parse_placements(text)
    assert parsed == pm
    assert serialize_placements(parsed) == text


@PROFILE
@given(placement_maps())
def test_scheme_text_round_trips(pm):
    scheme = build_scheme(pm)
    text = export_scheme(scheme)
    parsed = import_scheme(text)
    assert parsed == scheme
    assert export_scheme(parsed) == text
