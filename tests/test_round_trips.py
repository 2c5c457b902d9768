"""Property tests of the text formats: the placement-map and scheme
formats round-trip byte for byte, and every reader, given a valid text with
one number token replaced, parses it or raises its own format error. The
profile is derandomized, so every run draws the same examples."""

from __future__ import annotations

import re

import numpy as np
from hypothesis import given, strategies as st

from gcforge.graph import (
    CoordinateFormatError,
    EdgeListFormatError,
    Graph,
    dump_edge_list,
    load_coordinates,
    load_edge_list,
)
from gcforge.layer import SchemeFormatError, build_scheme, export_scheme, import_scheme
from gcforge.net import Dataset, DatasetFormatError, dataset_from_csv, dataset_to_csv
from gcforge.propagation import (
    PlacementFormatError,
    PlacementMap,
    parse_placements,
    serialize_placements,
)
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


# a number as the writers print it: an integer, a decimal or a float repr
NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?")
# tokens that int() or float() read differently from an ASCII decimal, or
# not at all, or that no size or weight field may hold
TOKENS = (str(10**30), "--5", "²", "٣", "1_0", "nan", "inf", "+7", "-0")


@st.composite
def edge_lists(draw) -> str:
    """A connected graph: a path through every vertex plus some chords."""
    n = draw(st.integers(2, 6))
    chords = [(u, v) for u in range(n) for v in range(u + 2, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(chords), max_size=len(chords)))
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += [e for e, keep in zip(chords, picked) if keep]
    return dump_edge_list(Graph(n, edges))


@st.composite
def coordinate_texts(draw) -> str:
    n, dim = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    rows = [",".join(repr(draw(coord)) for _ in range(dim)) for _ in range(n)]
    header = [",".join(f"c{i}" for i in range(dim))] if draw(st.booleans()) else []
    return "\n".join(header + rows) + "\n"


@st.composite
def dataset_texts(draw) -> str:
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    signal = st.floats(-10.0, 10.0, allow_nan=False)
    signals = [[draw(signal) for _ in range(n)] for _ in range(rows)]
    labels = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    return dataset_to_csv(Dataset(np.array(signals), np.array(labels)))


def _replace_one_number(data, text: str) -> list[str]:
    """The text with one drawn number token replaced by each of ``TOKENS``."""
    start, end = data.draw(st.sampled_from([m.span() for m in NUMBER.finditer(text)]))
    return [text[:start] + token + text[end:] for token in TOKENS]


def _parses_or_rejects(read, error, texts: list[str]) -> None:
    # any exception but the reader's own format error fails the property
    for text in texts:
        try:
            read(text)
        except error:
            pass


@PROFILE
@given(edge_lists(), st.data())
def test_edge_list_number_tokens(text, data):
    # as translate and make-dataset read it: without connected, a vertex
    # count of 10**30 is a valid graph of isolated vertices
    _parses_or_rejects(lambda t: load_edge_list(t, connected=True), EdgeListFormatError,
                       _replace_one_number(data, text))


@PROFILE
@given(coordinate_texts(), st.data())
def test_coordinate_number_tokens(text, data):
    _parses_or_rejects(load_coordinates, CoordinateFormatError, _replace_one_number(data, text))


@PROFILE
@given(placement_maps(), st.data())
def test_placement_number_tokens(pm, data):
    _parses_or_rejects(parse_placements, PlacementFormatError,
                       _replace_one_number(data, serialize_placements(pm)))


@PROFILE
@given(placement_maps(), st.data())
def test_scheme_number_tokens(pm, data):
    _parses_or_rejects(import_scheme, SchemeFormatError,
                       _replace_one_number(data, export_scheme(build_scheme(pm))))


@PROFILE
@given(dataset_texts(), st.data())
def test_dataset_number_tokens(text, data):
    _parses_or_rejects(dataset_from_csv, DatasetFormatError, _replace_one_number(data, text))
