from __future__ import annotations

import math

import numpy as np
import pytest

from gcforge.graph import (
    CoordinateSet,
    EdgeListFormatError,
    Graph,
    GraphError,
    ParameterError,
    bfs_distances,
    dump_edge_list,
    grid_graph,
    infer_knn_graph,
    is_connected,
    load_coordinates,
    load_edge_list,
)

from conftest import er_graph


class TestLoadEdgeList:
    def test_basic(self):
        g = load_edge_list("3\n0 1\n1 2")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_undirected_collapse(self):
        g = load_edge_list("3\n0 1\n1 0")
        assert g.edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListFormatError, match="self-loop at vertex 0"):
            load_edge_list("2\n0 0")

    def test_out_of_range_vertex(self):
        with pytest.raises(EdgeListFormatError, match="out of range"):
            load_edge_list("2\n0 5")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListFormatError, match="line 3"):
            load_edge_list("3\n0 1\n1 2 9")

    def test_comments_and_blanks_skipped(self):
        g = load_edge_list("# graph\n3\n\n0 1\n# another\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_empty_input(self):
        with pytest.raises(EdgeListFormatError, match="vertex count"):
            load_edge_list("")

    def test_round_trip_idempotent(self):
        text = dump_edge_list(load_edge_list("4\n2 1\n0 1\n3 2\n1 2"))
        assert dump_edge_list(load_edge_list(text)) == text


class TestGraphModel:
    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        for u, v in g.edges:
            assert u in g.neighbors(v) and v in g.neighbors(u)

    def test_has_edge_matches_lists(self):
        g = er_graph(12, 0.4, 3)
        for u in range(12):
            for v in range(12):
                assert g.has_edge(u, v) == (v in g.neighbors(u))

    def test_constructor_rejects_bad_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])


class TestKnnInference:
    def test_three_collinear_points_k1(self):
        coords = CoordinateSet(np.array([[0.0], [1.0], [2.0]]))
        g = infer_knn_graph(coords, 1)
        assert g.edges == ((0, 1), (1, 2))

    def test_k_equals_n_minus_1_is_complete(self):
        coords = CoordinateSet(np.array([[0.0], [1.0], [2.0]]))
        g = infer_knn_graph(coords, 2)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_unit_square_k2_is_4cycle(self):
        # each corner picks both side neighbors (distance 1) before the
        # diagonal (sqrt 2), and the union is exactly the cycle
        coords = CoordinateSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        g = infer_knn_graph(coords, 2)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_unit_square_k1_tie_breaks_to_smaller_id(self):
        # ties at distance 1 resolve toward the smaller vertex id, so k=1
        # yields a tree, not the cycle
        coords = CoordinateSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        g = infer_knn_graph(coords, 1)
        assert g.edges == ((0, 1), (0, 3), (1, 2))

    def test_grid_coordinates_k2_recover_grid(self):
        from gcforge.graph import grid_coordinates

        coords = grid_coordinates(4, 5)
        assert infer_knn_graph(coords, 2) == grid_graph(4, 5)

    def test_k_too_large(self):
        coords = CoordinateSet(np.array([[0.0], [1.0]]))
        with pytest.raises(ParameterError, match="k must be smaller"):
            infer_knn_graph(coords, 2)

    def test_duplicate_points_allowed(self):
        coords = CoordinateSet(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]))
        g = infer_knn_graph(coords, 1)
        assert (0, 1) in g.edges

    @pytest.mark.parametrize("seed", range(8))
    def test_every_vertex_keeps_at_least_k_neighbors(self, seed):
        rng = np.random.default_rng(seed)
        coords = CoordinateSet(rng.random((40, 2)))
        k = 4
        g = infer_knn_graph(coords, k)
        assert min(g.degree(v) for v in range(g.n)) >= k

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_union_degree_stays_within_2k_on_these_scatters(self, seed):
        # the 2k ceiling is a spot check, not a theorem: a point that is
        # the nearest neighbor of many others can exceed it (seed 0 does)
        rng = np.random.default_rng(seed)
        coords = CoordinateSet(rng.random((40, 2)))
        k = 4
        g = infer_knn_graph(coords, k)
        assert max(g.degree(v) for v in range(g.n)) <= 2 * k


class TestCoordinates:
    def test_header_detected(self):
        c = load_coordinates("x,y\n0,0\n1,2\n")
        assert c.n == 2 and c.dim == 2

    def test_first_row_with_one_numeric_field_is_data(self):
        with pytest.raises(GraphError, match="line 1: non-numeric field in '0.1x,0.2'"):
            load_coordinates("0.1x,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n")

    def test_first_row_without_letters_is_data(self):
        # no field parses as a number, but no field is a name either
        with pytest.raises(GraphError, match="line 1: non-numeric field in '--5,²'"):
            load_coordinates("--5,²\n1.0,2.0\n3.0,4.0\n")
        assert load_coordinates("c0,c1\n1.0,2.0\n3.0,4.0\n").n == 2

    def test_no_header(self):
        c = load_coordinates("0.5,1.5\n2.5,3.5\n")
        assert c.points[1, 1] == 3.5

    def test_ragged_rows_rejected(self):
        with pytest.raises(Exception, match="line 3"):
            load_coordinates("x,y\n0,0\n1\n")

    def test_non_finite_rejected(self):
        with pytest.raises(Exception, match="finite"):
            CoordinateSet(np.array([[np.inf, 0.0]]))


class TestBfs:
    def test_path(self, path3):
        assert bfs_distances(path3, 0) == [0, 1, 2]

    def test_triangle(self, k3):
        assert bfs_distances(k3, 1) == [1, 0, 1]

    def test_unreachable_is_inf(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert bfs_distances(g, 0) == [0, 1, math.inf, math.inf]

    def test_source_out_of_range(self, path3):
        with pytest.raises(ParameterError):
            bfs_distances(path3, 9)

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_triangle_inequality(self, seed):
        g = er_graph(15, 0.25, seed)
        for src in range(g.n):
            dist = bfs_distances(g, src)
            for u, v in g.edges:
                if dist[u] != math.inf and dist[v] != math.inf:
                    assert abs(dist[u] - dist[v]) <= 1


class TestConnectivity:
    def test_path_connected(self, path3):
        assert is_connected(path3)

    def test_two_components(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph(1, []))
