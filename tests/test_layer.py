from __future__ import annotations

import pytest

from gcforge.graph import ParameterError, grid_graph
from gcforge.layer import (
    IncompletePlacementError,
    SchemeError,
    SchemeFormatError,
    WeightSharingScheme,
    build_scheme,
    export_scheme,
    import_scheme,
    verify_grid_equivalence,
)
from gcforge.propagation import PlacementMap, init_kernel, most_central_vertex, propagate
from gcforge.translations import DeformationScore, KernelPlacement

from conftest import path_graph


@pytest.fixture(scope="module")
def path_pm():
    g = path_graph(3)
    return g, propagate(g, init_kernel(g, 1))


@pytest.fixture(scope="module")
def grid_scheme_4x4():
    g = grid_graph(4, 4)
    pm = propagate(g, init_kernel(g, most_central_vertex(g)))
    return g, build_scheme(pm)


class TestBuildScheme:
    def test_path_triples(self, path_pm):
        _, pm = path_pm
        scheme = build_scheme(pm)
        assert set(scheme.triples) == {
            (0, 0, 0),
            (0, 1, 2),
            (1, 1, 0),
            (1, 0, 1),
            (1, 2, 2),
            (2, 2, 0),
            (2, 1, 1),
        }

    def test_k1_kernel_gives_identity_triples(self):
        g = grid_graph(3, 3)
        pm = propagate(g, init_kernel(g, 4, radius=0))
        scheme = build_scheme(pm)
        assert scheme.triples == tuple((v, v, 0) for v in range(9))

    def test_grid_in_edge_counts(self, grid_scheme_4x4):
        _, scheme = grid_scheme_4x4
        counts = {v: len(scheme.in_edges(v)) for v in range(16)}
        for v in (5, 6, 9, 10):  # interior
            assert counts[v] == 5
        for v in (0, 3, 12, 15):  # corners
            assert counts[v] == 3

    def test_triple_count_matches_losses(self, grid_scheme_4x4):
        g = grid_graph(4, 4)
        pm = propagate(g, init_kernel(g, most_central_vertex(g)))
        expected = sum(pm.k - p.loss_count for p in pm.placements.values())
        _, scheme = grid_scheme_4x4
        assert len(scheme.triples) == expected

    def test_incomplete_map_rejected(self, path_pm):
        _, pm = path_pm
        broken = type(pm)(
            n=pm.n, k=pm.k, seed=pm.seed, alpha=pm.alpha, beta=pm.beta,
            placements={1: pm.placements[1]},
        )
        with pytest.raises(IncompletePlacementError, match="missing vertex: 0"):
            build_scheme(broken)

    def test_kernel_wider_than_the_graph_rejected(self):
        # the scheme format bounds K by n, so a map that breaks it builds none
        lone = KernelPlacement(0, (0, None), DeformationScore.of(1, 0, 1.0, 1.0))
        pm = PlacementMap(n=1, k=2, seed=0, alpha=1.0, beta=1.0, placements={0: lone})
        with pytest.raises(SchemeError, match="^kernel size K=2 exceeds n=1$"):
            build_scheme(pm)

    def test_invariants_enforced(self):
        with pytest.raises(SchemeError, match="center triple"):
            WeightSharingScheme(n=2, k=1, table=[[0], [2]])
        with pytest.raises(SchemeError, match="duplicate"):
            WeightSharingScheme(n=2, k=3, table=[[0, 1, 1], [1, 2, 2]])
        with pytest.raises(SchemeError, match="out of range"):
            WeightSharingScheme(n=2, k=2, table=[[0, 2], [1, 5]])

    def test_off_center_weight_0_rejected(self):
        # weight 0 of each vertex sits on the other vertex: every slot is
        # distinct, but no vertex carries its self-wire (v, v, 0)
        with pytest.raises(SchemeError, match="vertex 0 is missing its center triple"):
            WeightSharingScheme(n=2, k=2, table=[[1, 0], [0, 1]])

    def test_table_is_the_stored_form(self, path_pm):
        _, pm = path_pm
        scheme = build_scheme(pm)
        assert scheme.table.tolist() == [[0, 3, 1], [1, 0, 2], [2, 1, 3]]
        assert not scheme.table.flags.writeable
        assert scheme.in_edges(0) == [(0, 0, 0), (0, 1, 2)]
        assert scheme == WeightSharingScheme(3, 3, scheme.table.copy())
        assert scheme != WeightSharingScheme(3, 3, [[0, 1, 3], [1, 0, 2], [2, 1, 3]])


class TestGridEquivalence:
    def test_4x4_passes(self, grid_scheme_4x4):
        _, scheme = grid_scheme_4x4
        report = verify_grid_equivalence(scheme, 4, 4)
        assert report.passed, report.reason
        assert report.offsets[0] == (0, 0)
        assert sorted(report.offsets.values()) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_path_is_1xn_grid(self, path_pm):
        _, pm = path_pm
        scheme = build_scheme(pm)
        report = verify_grid_equivalence(scheme, 1, 3)
        assert report.passed
        assert sorted(report.offsets.values()) == [(0, -1), (0, 0), (0, 1)]

    def test_perturbed_scheme_fails_with_witness(self, grid_scheme_4x4):
        _, scheme = grid_scheme_4x4
        # swap the weight indices of two wires at one output vertex
        table = scheme.table.copy()
        assert table[5, 1] == 1 and table[5, 2] == 4
        table[5, [1, 2]] = table[5, [2, 1]]
        bad = WeightSharingScheme(n=scheme.n, k=scheme.k, table=table)
        report = verify_grid_equivalence(bad, 4, 4)
        assert not report.passed
        assert report.witness is not None

    def test_dimension_mismatch(self, grid_scheme_4x4):
        _, scheme = grid_scheme_4x4
        with pytest.raises(ParameterError, match="cells"):
            verify_grid_equivalence(scheme, 3, 4)

    def test_missing_realized_offset_fails(self):
        # identity-only scheme on a 2x2 grid with K=2: weight 1 never used,
        # fine; but a scheme claiming offset (0,1) only at one vertex fails
        s = WeightSharingScheme(n=4, k=2, table=[[0, 1], [1, 4], [2, 4], [3, 4]])
        report = verify_grid_equivalence(s, 2, 2)
        assert not report.passed
        assert "not realized" in report.reason


class TestSchemeFiles:
    def test_round_trip_bytes(self, grid_scheme_4x4):
        _, scheme = grid_scheme_4x4
        text = export_scheme(scheme)
        assert export_scheme(import_scheme(text)) == text

    def test_path_scheme_has_seven_wires(self, path_pm):
        _, pm = path_pm
        text = export_scheme(build_scheme(pm))
        data_lines = [l for l in text.splitlines()[1:] if l.strip()]
        assert len(data_lines) == 7

    def test_header_and_sorting(self, path_pm):
        _, pm = path_pm
        text = export_scheme(build_scheme(pm))
        lines = text.splitlines()
        assert lines[0] == "3 3"
        keys = [(int(l.split()[0]), int(l.split()[2])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_comments_allowed_on_import(self, path_pm):
        _, pm = path_pm
        text = export_scheme(build_scheme(pm))
        withc = "# scheme\n" + text
        assert export_scheme(import_scheme(withc)) == text

    def test_bad_weight_index_rejected(self):
        with pytest.raises(SchemeFormatError, match="weight index"):
            import_scheme("2 1\n0 0 0\n1 1 0\n0 1 1\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(SchemeFormatError, match="line 3"):
            import_scheme("2 1\n0 0 0\n1 1\n")

    def test_off_center_weight_0_rejected_on_import(self):
        with pytest.raises(SchemeFormatError, match="missing its center triple"):
            import_scheme("2 2\n0 1 0\n0 0 1\n1 0 0\n1 1 1\n")

    @pytest.mark.parametrize("text, line", [
        ("2 2\n0 0 0\n0 1 1\n1 1 0\n0 1 1\n", 5),  # the same line twice
        ("# c\n3 3\n0 0 0\n0 1 1\n1 1 0\n0 1 2\n", 6),  # (out, in) twice
        ("2 2\n0 0 0\n0 1 1\n1 1 0\n1 0 0\n", 5),  # (out, idx) twice
    ], ids=["same-line", "out-in", "out-idx"])
    def test_duplicate_names_line_of_second_occurrence(self, text, line):
        with pytest.raises(SchemeFormatError, match=f"^line {line}: duplicate"):
            import_scheme(text)

    def test_empty_input(self):
        with pytest.raises(SchemeFormatError, match="header"):
            import_scheme("# nothing\n")
