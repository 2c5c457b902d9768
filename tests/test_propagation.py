from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gcforge
from gcforge import propagation
from gcforge.graph import (
    ConnectivityError,
    CoordinateSet,
    Graph,
    ParameterError,
    bfs_distances,
    grid_graph,
    infer_knn_graph,
)
from gcforge.propagation import (
    PlacementFormatError,
    _distance_sums,
    closeness_centrality,
    init_kernel,
    most_central_vertex,
    parse_placements,
    placement_report,
    propagate,
    refine,
    serialize_placements,
)
from gcforge.translations import KernelPlacement, TranslationError, ZERO_SCORE

from conftest import ER50_SHA256, connected_er_graphs, path_graph, star_graph


class TestCentrality:
    def test_path(self, path3):
        assert closeness_centrality(path3) == [1 / 3, 1 / 2, 1 / 3]

    def test_triangle(self, k3):
        assert closeness_centrality(k3) == [1 / 2, 1 / 2, 1 / 2]

    def test_star_center_most_central(self):
        g = star_graph(4)  # center 0, leaves 1..3
        c = closeness_centrality(g)
        assert c[0] == 1 / 3
        assert all(x == 1 / 5 for x in c[1:])

    def test_disconnected_rejected(self):
        with pytest.raises(ConnectivityError):
            closeness_centrality(Graph(4, [(0, 1), (2, 3)]))

    def test_most_central_path(self, path3):
        assert most_central_vertex(path3) == 1

    def test_most_central_ties_to_smallest_id(self, k3):
        assert most_central_vertex(k3) == 0

    def test_most_central_star_with_late_center(self):
        g = Graph(4, [(3, 0), (3, 1), (3, 2)])
        assert most_central_vertex(g) == 3


def _centrality_graphs():
    cloud = np.random.default_rng(42).random((64, 2))
    return {
        "grid1x1": grid_graph(1, 1),
        "grid1x2": grid_graph(1, 2),
        "grid5x7": grid_graph(5, 7),
        "path9": path_graph(9),
        "er0": connected_er_graphs(1, 50, 0.1, base_seed=9000)[0],
        "knn64": infer_knn_graph(CoordinateSet(cloud), 6),
    }


CENTRALITY_GRAPHS = _centrality_graphs()


class TestBitParallelDistanceSums:
    @pytest.mark.parametrize("name", list(CENTRALITY_GRAPHS))
    def test_sums_match_one_bfs_per_vertex(self, name):
        g = CENTRALITY_GRAPHS[name]
        assert _distance_sums(g) == [sum(bfs_distances(g, v)) for v in range(g.n)]

    @pytest.mark.parametrize("name", list(CENTRALITY_GRAPHS)[1:])
    def test_closeness_bitwise_unchanged(self, name):
        g = CENTRALITY_GRAPHS[name]
        sums = [sum(bfs_distances(g, v)) for v in range(g.n)]
        assert closeness_centrality(g) == [1.0 / s for s in sums]
        assert most_central_vertex(g) == sums.index(min(sums))

    def test_most_central_rejects_disconnected(self):
        with pytest.raises(ConnectivityError):
            most_central_vertex(Graph(4, [(0, 1), (2, 3)]))


class TestInitKernel:
    def test_path_center(self, path3):
        p = init_kernel(path3, 1)
        assert p.slots == (1, 0, 2)
        assert p.accumulated == ZERO_SCORE

    def test_grid_interior_is_plus(self):
        g = grid_graph(4, 4)
        p = init_kernel(g, 5)
        assert p.slots == (5, 1, 4, 6, 9)
        assert p.k == 5

    def test_radius_zero(self, path3):
        p = init_kernel(path3, 1, radius=0)
        assert p.slots == (1,)

    def test_radius_two_orders_by_hop_then_id(self):
        g = path_graph(5)
        p = init_kernel(g, 2, radius=2)
        assert p.slots == (2, 1, 3, 0, 4)

    def test_center_out_of_range(self, path3):
        with pytest.raises(ParameterError):
            init_kernel(path3, 7)


class TestPropagate:
    def test_path_placements(self, path3):
        pm = propagate(path3, init_kernel(path3, 1))
        assert pm.placements[1].slots == (1, 0, 2)
        assert pm.placements[1].accumulated.total == 0.0
        # border placements are the rigid shifts: the slot that falls off
        # the end is lost, the survivor keeps its displacement
        assert pm.placements[0].slots == (0, None, 1)
        assert pm.placements[0].accumulated.total == 1.0
        assert pm.placements[2].slots == (2, 1, None)
        assert pm.placements[2].accumulated.total == 1.0

    def test_grid_interior_placements_are_rigid_and_free(self):
        g = grid_graph(4, 4)
        pm = propagate(g, init_kernel(g, most_central_vertex(g)))
        for v in (5, 6, 9, 10):
            p = pm.placements[v]
            assert p.accumulated.total == 0.0
            r, c = divmod(v, 4)
            assert p.slots == (v, v - 4, v - 1, v + 1, v + 4)

    def test_k1_kernel_covers_everything_for_free(self):
        g = grid_graph(3, 3)
        pm = propagate(g, init_kernel(g, 4, radius=0))
        assert all(pm.placements[v].slots == (v,) for v in range(9))
        assert all(pm.placements[v].accumulated.total == 0.0 for v in range(9))

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ConnectivityError):
            propagate(g, KernelPlacement(center=0, slots=(0, 1), accumulated=ZERO_SCORE))

    def test_every_placement_satisfies_invariants(self):
        for g in connected_er_graphs(3, 16, 0.25, 1000):
            pm = propagate(g, init_kernel(g, most_central_vertex(g)))
            assert pm.is_complete()
            for v, p in pm.placements.items():
                assert p.center == v and p.slots[0] == v
                live = [s for s in p.slots if s is not None]
                assert len(set(live)) == len(live)
                assert p.accumulated.losses == p.loss_count

    def test_refine_is_identity_on_output(self):
        for g in connected_er_graphs(2, 20, 0.2, 2000):
            pm = propagate(g, init_kernel(g, most_central_vertex(g)))
            assert refine(g, pm) == pm

    def test_fresh_processes_agree(self):
        # each run starts a new interpreter with its own string-hash seed, so
        # nothing carries over between them and no hash order can leak out
        program = (
            "import sys\n"
            "from conftest import connected_er_graphs\n"
            "from gcforge.propagation import (\n"
            "    init_kernel, most_central_vertex, propagate, serialize_placements)\n"
            "g = connected_er_graphs(1, 20, 0.2, 3000)[0]\n"
            "pm = propagate(g, init_kernel(g, most_central_vertex(g)))\n"
            "sys.stdout.write(serialize_placements(pm))\n"
        )
        paths = [str(Path(__file__).parent), str(Path(gcforge.__file__).parents[1])]
        texts = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(paths)}
            run = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, encoding="utf-8", env=env, check=True,
            )
            texts.append(run.stdout)
        assert texts[0] == texts[1]
        assert texts[0].count("\n") == 22  # format comment, header, 20 vertices

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_weights_rejected(self, path3, alpha, beta):
        with pytest.raises(TranslationError, match="finite"):
            propagate(path3, init_kernel(path3, 1), alpha, beta)


class TestReport:
    def test_path_report(self, path3):
        pm = propagate(path3, init_kernel(path3, 1))
        rep = placement_report(pm)
        assert rep.complete_count == 1
        assert rep.vertex_count == 3
        assert dict(rep.score_histogram) == {0.0: 1, 1.0: 2}

    def test_grid_4x4_has_four_complete(self):
        g = grid_graph(4, 4)
        pm = propagate(g, init_kernel(g, most_central_vertex(g)))
        rep = placement_report(pm)
        assert rep.complete_count == 4

    def test_k1_kernel_all_complete(self):
        g = grid_graph(3, 3)
        pm = propagate(g, init_kernel(g, 4, radius=0))
        rep = placement_report(pm)
        assert rep.complete_count == 9
        assert "loss-free placements: 9 of 9" in rep.render()


class TestSerialization:
    def test_round_trip_bytes(self, path3):
        pm = propagate(path3, init_kernel(path3, 1))
        text = serialize_placements(pm)
        assert serialize_placements(parse_placements(text)) == text

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 0.0)])
    def test_round_trip_equality_on_er(self, alpha, beta):
        # at beta == 0 the file's scores carry no pair counts, so the map in
        # memory must not hold any either
        g = connected_er_graphs(1, 15, 0.3, 4000)[0]
        pm = propagate(g, init_kernel(g, most_central_vertex(g)), alpha, beta)
        assert parse_placements(serialize_placements(pm)) == pm

    def test_loss_symbol_renders(self, path3):
        pm = propagate(path3, init_kernel(path3, 1))
        assert "slot1=⊥" in serialize_placements(pm)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(PlacementFormatError, match="line 2"):
            parse_placements("# c\nbogus header\n")
        good = "3 3 1 1.0 1.0\n1; 0.0; slot0=1, slot1=0, slot2=2\n"
        assert parse_placements(good).placements[1].slots == (1, 0, 2)
        with pytest.raises(PlacementFormatError, match="line 2"):
            parse_placements("3 3 1 1.0 1.0\n9; 0.0; slot0=9, slot1=0, slot2=2\n")
        with pytest.raises(PlacementFormatError, match="slot"):
            parse_placements("3 3 1 1.0 1.0\n1; 0.0; slot0=1, slotX=0, slot2=2\n")
        with pytest.raises(PlacementFormatError, match="inconsistent"):
            parse_placements("3 3 1 1.0 1.0\n1; 0.5; slot0=1, slot1=0, slot2=2\n")
        with pytest.raises(PlacementFormatError, match="inconsistent"):
            # total below the loss cost alone implies negative violations
            parse_placements("3 3 1 1.0 1.0\n1; 0.0; slot0=1, slot1=⊥, slot2=2\n")
        with pytest.raises(PlacementFormatError, match="inconsistent"):
            # the implied pair count overflows a float
            parse_placements("3 3 1 1.0 0.5\n1; 1e308; slot0=1, slot1=0, slot2=2\n")
        with pytest.raises(PlacementFormatError, match="duplicate"):
            parse_placements(
                "3 3 1 1.0 1.0\n"
                "1; 0.0; slot0=1, slot1=0, slot2=2\n"
                "1; 0.0; slot0=1, slot1=0, slot2=2\n"
            )

    def test_empty_input(self):
        with pytest.raises(PlacementFormatError, match="header"):
            parse_placements("# just a comment\n")


# SHA-256 of serialize_placements on the first three acceptance-3 graphs at
# fractional weights, recorded cold in a fresh process once every cost
# compared as an exact integer. A budget that rounds the wrong way drops
# winners under these weights. Acceptance 3 holds the unit-weight hashes of
# the same graphs (ER50_SHA256).
ER_REFERENCE = {
    (0.3, 0.7): (
        "fa1cbc913a8a7277d258b501dece2aeeaebb3d6bdd44e51b8bab4391e3273348",
        "45eec41e87d8ff52238737138058fbaae4e73da0f9a304ad49ebe020dbba01e7",
        "6a5c643febdad2646dcba3468fc84c737b2c41165dad75cca5399175516d7c35",
    ),
    (0.1, 0.2): (
        "89faf9536c3681d49142e215696d47e8c76d6e70c5579fbe4aa12c0467149a02",
        "4410b15ea0fbc8c1964624a1128e358e7edcae90659c12dda90cfafd46acb06b",
        "c7b0f78f0a2dcc47194726ebde6da7ee02a86dc6aed0c163ddd96d1b4669ddda",
    ),
    (2.5, 0.3): (
        "361ed2eb19560caaf3dbe5d1d4ceaa47da88764d0aec34b0f009ded4c177e225",
        "f8f2ac800dbec797a9119fcb4ca3dbfbecfd002f66e0de5b41864ca302dcb25d",
        "7328c42e1379ecbe9410da09a6f9d57bcd4c52d652610a80d039acd2ad3d5609",
    ),
}


def _placements_sha(g, alpha=1.0, beta=1.0):
    pm = propagate(g, init_kernel(g, most_central_vertex(g)), alpha, beta)
    return hashlib.sha256(serialize_placements(pm).encode("utf-8")).hexdigest()


class TestBudgetedSearch:
    @pytest.mark.parametrize("alpha, beta", sorted(ER_REFERENCE))
    def test_placements_match_unbounded_reference(self, alpha, beta):
        graphs = connected_er_graphs(3, 50, 0.1, base_seed=9000)
        got = tuple(_placements_sha(g, alpha, beta) for g in graphs)
        assert got == ER_REFERENCE[(alpha, beta)]

    @pytest.mark.parametrize("index", [0, 2])
    def test_slots_depend_only_on_the_weight_ratio(self, index):
        # 0.1:0.2 and 0.3:0.6 are 1:2 exactly in binary, so every cost is
        # the same multiple of the (1, 2) cost and every tie breaks alike
        g = connected_er_graphs(3, 50, 0.1, base_seed=9000)[index]
        seed = init_kernel(g, most_central_vertex(g))

        def slots(alpha, beta):
            return {v: p.slots for v, p in propagate(g, seed, alpha, beta).placements.items()}

        assert slots(0.1, 0.2) == slots(1.0, 2.0)
        assert slots(0.3, 0.6) == slots(1.0, 2.0)

    def test_budget_prunes_without_changing_the_map(self, monkeypatch):
        outcomes = []
        search = propagation.find_local_translation

        def counting(*args, **kwargs):
            found = search(*args, **kwargs)
            outcomes.append(found is None)
            return found

        monkeypatch.setattr(propagation, "find_local_translation", counting)
        g = connected_er_graphs(1, 50, 0.1, base_seed=9000)[0]
        assert _placements_sha(g) == ER50_SHA256[0]
        assert any(outcomes), "no search was cut off by its budget"
        assert not all(outcomes)
