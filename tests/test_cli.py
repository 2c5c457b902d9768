from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gcforge.cli import main
from gcforge.graph import (
    CoordinateSet,
    dump_edge_list,
    grid_coordinates,
    grid_graph,
    infer_knn_graph,
    load_edge_list,
)
from gcforge.propagation import (
    init_kernel,
    most_central_vertex,
    propagate,
    serialize_placements,
)


def run_cli(*args) -> int:
    return main(list(args))


@pytest.fixture
def workdir(tmp_path):
    coords = grid_coordinates(5, 5)
    lines = ["r,c"] + [f"{float(r)!r},{float(c)!r}" for r, c in coords.points]
    (tmp_path / "coords.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "path.edges").write_text("3\n0 1\n1 2\n", encoding="utf-8")
    return tmp_path


class TestInferGraph:
    def test_collinear_points_k1(self, tmp_path):
        (tmp_path / "c.csv").write_text("0.0\n1.0\n2.0\n", encoding="utf-8")
        out = tmp_path / "g.edges"
        assert run_cli("infer-graph", "--coords", str(tmp_path / "c.csv"),
                       "--k", "1", "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == "3\n0 1\n1 2\n"

    def test_grid_recovered_with_k2(self, workdir):
        out = workdir / "g.edges"
        assert run_cli("infer-graph", "--coords", str(workdir / "coords.csv"),
                       "--k", "2", "--out", str(out)) == 0
        assert out.read_text(encoding="utf-8") == dump_edge_list(grid_graph(5, 5))

    def test_k_too_large_exits_2(self, tmp_path, capsys):
        (tmp_path / "c.csv").write_text("0.0\n1.0\n", encoding="utf-8")
        code = run_cli("infer-graph", "--coords", str(tmp_path / "c.csv"),
                       "--k", "5", "--out", str(tmp_path / "g"))
        assert code == 2
        assert "k must be smaller" in capsys.readouterr().err

    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys):
        (tmp_path / "c.csv").write_text("x,y\n0,0\nnan,1\n2,2\n", encoding="utf-8")
        code = run_cli("infer-graph", "--coords", str(tmp_path / "c.csv"),
                       "--k", "1", "--out", str(tmp_path / "g.edges"))
        assert code == 2
        assert capsys.readouterr().err == "error: line 3: coordinates must be finite, got 'nan,1'\n"
        assert not (tmp_path / "g.edges").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run_cli("infer-graph", "--coords", str(tmp_path / "nope.csv"),
                       "--k", "2", "--out", str(tmp_path / "g"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'nope.csv'}: No such file or directory\n"
        )


class TestTranslate:
    def test_path_matches_library(self, workdir):
        out = workdir / "p.txt"
        assert run_cli("translate", "--graph", str(workdir / "path.edges"),
                       "--out", str(out)) == 0
        from gcforge.graph import load_edge_list

        g = load_edge_list((workdir / "path.edges").read_text(encoding="utf-8"))
        expected = serialize_placements(propagate(g, init_kernel(g, 1)))
        assert out.read_text(encoding="utf-8") == expected

    def test_reruns_are_byte_identical(self, workdir):
        a, b = workdir / "a.txt", workdir / "b.txt"
        for out in (a, b):
            assert run_cli("translate", "--graph", str(workdir / "path.edges"),
                           "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_vertex_override(self, workdir, capsys):
        out = workdir / "p.txt"
        assert run_cli("translate", "--graph", str(workdir / "path.edges"),
                       "--seed-vertex", "0", "--out", str(out)) == 0
        assert "seed vertex 0" in capsys.readouterr().out
        assert "\n0; 0.0; " in out.read_text(encoding="utf-8")

    def test_disconnected_exits_2(self, tmp_path, capsys):
        (tmp_path / "d.edges").write_text("4\n0 1\n2 3\n", encoding="utf-8")
        code = run_cli("translate", "--graph", str(tmp_path / "d.edges"),
                       "--out", str(tmp_path / "p.txt"))
        assert code == 2
        assert "not connected" in capsys.readouterr().err

    def test_disconnected_with_seed_vertex_exits_2(self, tmp_path, capsys):
        # the seed skips centrality, so propagation is what must refuse
        (tmp_path / "d.edges").write_text("4\n0 1\n2 3\n", encoding="utf-8")
        code = run_cli("translate", "--graph", str(tmp_path / "d.edges"),
                       "--seed-vertex", "0", "--out", str(tmp_path / "p.txt"))
        err = capsys.readouterr().err
        assert code == 2
        assert "not connected" in err and err.count("\n") == 1
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--beta", "inf")])
    def test_non_finite_weight_exits_2(self, workdir, capsys, flag, value):
        out = workdir / "p.txt"
        code = run_cli("translate", "--graph", str(workdir / "path.edges"),
                       flag, value, "--out", str(out))
        assert code == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()


def _build_grid_artifacts(workdir):
    g_path = workdir / "grid.edges"
    p_path = workdir / "grid.placements"
    s_path = workdir / "grid.scheme"
    assert run_cli("infer-graph", "--coords", str(workdir / "coords.csv"),
                   "--k", "2", "--out", str(g_path)) == 0
    assert run_cli("translate", "--graph", str(g_path), "--out", str(p_path)) == 0
    assert run_cli("build-layer", "--placements", str(p_path), "--out", str(s_path)) == 0
    return g_path, p_path, s_path


class TestBuildLayerAndVerify:
    def test_pipeline_verifies_on_5x5(self, workdir, capsys):
        _, _, s_path = _build_grid_artifacts(workdir)
        assert run_cli("verify-grid", "--scheme", str(s_path),
                       "--rows", "5", "--cols", "5") == 0
        assert "PASS" in capsys.readouterr().out

    def test_perturbed_scheme_exits_1_with_witness(self, workdir, capsys):
        _, _, s_path = _build_grid_artifacts(workdir)
        lines = s_path.read_text(encoding="utf-8").splitlines()
        # swap the weight indices of two wires of vertex 12
        i = lines.index("12 7 1")
        j = lines.index("12 11 2")
        lines[i], lines[j] = "12 7 2", "12 11 1"
        bad = workdir / "bad.scheme"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli("verify-grid", "--scheme", str(bad), "--rows", "5", "--cols", "5")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_dimension_mismatch_exits_2(self, workdir, capsys):
        _, _, s_path = _build_grid_artifacts(workdir)
        code = run_cli("verify-grid", "--scheme", str(s_path), "--rows", "4", "--cols", "5")
        assert code == 2
        assert "cells" in capsys.readouterr().err

    def test_scheme_round_trip_through_files(self, workdir):
        _, p_path, s_path = _build_grid_artifacts(workdir)
        again = workdir / "again.scheme"
        assert run_cli("build-layer", "--placements", str(p_path), "--out", str(again)) == 0
        assert again.read_bytes() == s_path.read_bytes()

    def test_transpose_flag_is_gone(self, workdir, capsys):
        code = run_cli("build-layer", "--placements", str(workdir / "p"),
                       "--transpose", "--out", str(workdir / "s"))
        assert code == 2
        assert "unrecognized arguments: --transpose" in capsys.readouterr().err

    def test_malformed_placements_exit_2(self, workdir, capsys):
        bad = workdir / "bad.placements"
        bad.write_text("25 5 12 1.0 1.0\nnot a line\n", encoding="utf-8")
        code = run_cli("build-layer", "--placements", str(bad), "--out", str(workdir / "s"))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["3 3 1 nan 1.0", "3 3 1 1.0 inf", "3 3 1 -inf 1.0"])
    def test_non_finite_header_weight_exits_2(self, workdir, capsys, header):
        bad = workdir / "bad.placements"
        bad.write_text(
            f"{header}\n0; 2.0; slot0=0,slot1=1,slot2=⊥\n", encoding="utf-8"
        )
        code = run_cli("build-layer", "--placements", str(bad), "--out", str(workdir / "s"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize("stage", ["build-layer", "make-dataset"])
    def test_negative_header_weight_exits_2(self, workdir, capsys, stage):
        bad = workdir / "bad.placements"
        bad.write_text(
            "# gcforge placement map v1\n3 3 1 -1.0 1.0\n"
            "0; -1.0; slot0=0, slot1=1, slot2=⊥\n"
            "1; 0.0; slot0=1, slot1=0, slot2=2\n"
            "2; -1.0; slot0=2, slot1=1, slot2=⊥\n",
            encoding="utf-8",
        )
        extra = ["--graph", str(workdir / "path.edges"), "--samples-per-class", "1"]
        code = run_cli(stage, "--placements", str(bad), *(extra if stage == "make-dataset" else []),
                       "--out", str(workdir / "out"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 2: alpha and beta must be finite and nonnegative, got -1.0 and 1.0\n"
        )
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_score_exits_2(self, workdir, capsys, score):
        bad = workdir / "bad.placements"
        bad.write_text(
            f"3 3 1 1.0 1.0\n0; {score}; slot0=0,slot1=1,slot2=2\n", encoding="utf-8"
        )
        code = run_cli("build-layer", "--placements", str(bad), "--out", str(workdir / "s"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line 2: ") and err.count("\n") == 1


class TestTrainCommand:
    def _make_data(self, workdir, g_path, p_path):
        train_csv = workdir / "train.csv"
        test_csv = workdir / "test.csv"
        for out, seed, per in ((train_csv, 0, 40), (test_csv, 1, 15)):
            assert run_cli(
                "make-dataset", "--graph", str(g_path), "--placements", str(p_path),
                "--classes", "2", "--samples-per-class", str(per), "--sigma", "0.05",
                "--amplitude", "2.0", "--seed", str(seed), "--out", str(out),
            ) == 0
        return train_csv, test_csv

    def _write_separable(self, path: Path, n: int, per_class: int, seed: int) -> None:
        # two well-separated blobs over the vertex signals
        import numpy as np

        rng = np.random.default_rng(seed)
        header = ",".join([f"x{i}" for i in range(n)] + ["label"])
        lines = [header]
        for cls in range(2):
            for _ in range(per_class):
                x = rng.normal(0.0, 0.3, n)
                x[: n // 2] += 2.0 if cls == 0 else -2.0
                lines.append(",".join([repr(float(v)) for v in x] + [str(cls)]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_train_writes_metrics_and_checkpoint(self, workdir):
        _, _, s_path = _build_grid_artifacts(workdir)
        train_csv, test_csv = workdir / "train.csv", workdir / "test.csv"
        self._write_separable(train_csv, 25, 32, seed=0)
        self._write_separable(test_csv, 25, 12, seed=1)
        metrics = workdir / "metrics.csv"
        ckpt = workdir / "model.ckpt"
        assert run_cli(
            "train", "--scheme", str(s_path),
            "--train-data", str(train_csv), "--test-data", str(test_csv),
            "--epochs", "40", "--channels", "2", "--hidden", "16",
            "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt),
        ) == 0
        lines = metrics.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,train_loss,train_accuracy,test_accuracy"
        assert len(lines) == 41
        final_acc = float(lines[-1].split(",")[-1])
        assert final_acc == 1.0  # separable toy task
        assert ckpt.exists()

    def test_make_dataset_files_are_learnable(self, workdir):
        g_path, p_path, s_path = _build_grid_artifacts(workdir)
        train_csv, test_csv = self._make_data(workdir, g_path, p_path)
        metrics = workdir / "metrics.csv"
        assert run_cli(
            "train", "--scheme", str(s_path),
            "--train-data", str(train_csv), "--test-data", str(test_csv),
            "--epochs", "60", "--channels", "4", "--hidden", "16",
            "--metrics-out", str(metrics),
        ) == 0
        final_acc = float(metrics.read_text(encoding="utf-8").splitlines()[-1].split(",")[-1])
        assert final_acc >= 0.8

    def test_placements_from_another_graph_exit_2(self, tmp_path, capsys):
        # the 64-point k-NN clouds of seeds 42 and 43: same n, different graphs
        for seed in (42, 43):
            g = infer_knn_graph(CoordinateSet(np.random.default_rng(seed).random((64, 2))), 6)
            (tmp_path / f"{seed}.edges").write_text(dump_edge_list(g), encoding="utf-8")
        g = load_edge_list((tmp_path / "42.edges").read_text(encoding="utf-8"))
        pm = propagate(g, init_kernel(g, most_central_vertex(g)))
        (tmp_path / "42.placements").write_text(serialize_placements(pm), encoding="utf-8")

        def make_dataset(seed):
            return run_cli("make-dataset", "--graph", str(tmp_path / f"{seed}.edges"),
                           "--placements", str(tmp_path / "42.placements"),
                           "--samples-per-class", "2", "--out", str(tmp_path / f"{seed}.csv"))

        assert make_dataset(42) == 0
        capsys.readouterr()
        assert make_dataset(43) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: placements do not come from this graph")
        assert err.count("\n") == 1
        assert not (tmp_path / "43.csv").exists()

    def test_single_slot_map_exits_2(self, workdir, capsys):
        g_path, p_path = workdir / "path.edges", workdir / "k1.placements"
        assert run_cli("translate", "--graph", str(g_path), "--radius", "0",
                       "--out", str(p_path)) == 0
        capsys.readouterr()
        code = run_cli("make-dataset", "--graph", str(g_path), "--placements", str(p_path),
                       "--samples-per-class", "2", "--out", str(workdir / "d.csv"))
        assert code == 2
        assert capsys.readouterr().err == "error: templates need at least 2 kernel slots, got K=1\n"
        assert not (workdir / "d.csv").exists()

    def test_same_seed_byte_identical_metrics(self, workdir):
        g_path, p_path, s_path = _build_grid_artifacts(workdir)
        train_csv, test_csv = self._make_data(workdir, g_path, p_path)
        outs = []
        for name in ("m1.csv", "m2.csv"):
            m = workdir / name
            assert run_cli(
                "train", "--scheme", str(s_path),
                "--train-data", str(train_csv), "--test-data", str(test_csv),
                "--epochs", "5", "--seed", "7", "--metrics-out", str(m),
            ) == 0
            outs.append(m.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_label_column_exits_2(self, workdir, capsys):
        g_path, p_path, s_path = _build_grid_artifacts(workdir)
        bad = workdir / "bad.csv"
        header = ",".join(f"x{i}" for i in range(25)) + ",target"
        bad.write_text(header + "\n" + ",".join(["0.0"] * 25) + ",1\n", encoding="utf-8")
        code = run_cli(
            "train", "--scheme", str(s_path),
            "--train-data", str(bad), "--test-data", str(bad),
            "--metrics-out", str(workdir / "m.csv"),
        )
        assert code == 2
        assert "label" in capsys.readouterr().err

    def test_headerless_data_exits_2(self, tmp_path, capsys):
        (tmp_path / "s.scheme").write_text("2 1\n0 0 0\n1 1 0\n", encoding="utf-8")
        self._write_separable(tmp_path / "d.csv", 2, 4, seed=0)
        rows = (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines()[1:]
        (tmp_path / "bare.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run_cli(
            "train", "--scheme", str(tmp_path / "s.scheme"), "--epochs", "1",
            "--train-data", str(tmp_path / "bare.csv"), "--test-data", str(tmp_path / "d.csv"),
            "--metrics-out", str(tmp_path / "m.csv"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line 1: ") and err.count("\n") == 1
        assert not (tmp_path / "m.csv").exists()

    def test_negative_label_exits_2(self, workdir, capsys):
        _, _, s_path = _build_grid_artifacts(workdir)
        bad = workdir / "bad.csv"
        header = ",".join(f"x{i}" for i in range(25)) + ",label"
        rows = [",".join(["0.0"] * 25) + f",{label}" for label in (1, 0, -1)]
        bad.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        code = run_cli(
            "train", "--scheme", str(s_path),
            "--train-data", str(bad), "--test-data", str(bad),
            "--metrics-out", str(workdir / "m.csv"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: line 4: label must be nonnegative, got -1\n"
        assert not (workdir / "m.csv").exists()

    def test_non_finite_signal_exits_2(self, tmp_path, capsys):
        (tmp_path / "s.scheme").write_text("2 1\n0 0 0\n1 1 0\n", encoding="utf-8")
        self._write_separable(tmp_path / "d.csv", 2, 4, seed=0)
        (tmp_path / "bad.csv").write_text("x0,x1,label\n0.5,1.0,0\n0.5,nan,1\n",
                                          encoding="utf-8")
        code = run_cli(
            "train", "--scheme", str(tmp_path / "s.scheme"), "--epochs", "1",
            "--train-data", str(tmp_path / "d.csv"), "--test-data", str(tmp_path / "bad.csv"),
            "--metrics-out", str(tmp_path / "m.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: line 3: signal values must be finite, got 'nan'\n"
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("scheme, message", [
        ("2 2\n0 1 0\n0 0 1\n1 0 0\n1 1 1\n",
         "error: vertex 0 is missing its center triple (0, 0, 0)\n"),
        ("2 2\n0 0 0\n0 1 1\n1 1 0\n0 1 1\n",
         "error: line 5: duplicate (out, in) or (out, idx) pair in triple (0, 1, 1)\n"),
    ], ids=["off-center", "duplicate-line"])
    def test_bad_scheme_exits_2(self, tmp_path, capsys, scheme, message):
        (tmp_path / "s.scheme").write_text(scheme, encoding="utf-8")
        self._write_separable(tmp_path / "d.csv", 2, 4, seed=0)
        code = run_cli(
            "train", "--scheme", str(tmp_path / "s.scheme"),
            "--train-data", str(tmp_path / "d.csv"), "--test-data", str(tmp_path / "d.csv"),
            "--metrics-out", str(tmp_path / "m.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "m.csv").exists()

    def test_directory_as_metrics_out_exits_2(self, tmp_path, capsys):
        (tmp_path / "s.scheme").write_text("2 1\n0 0 0\n1 1 0\n", encoding="utf-8")
        self._write_separable(tmp_path / "d.csv", 2, 4, seed=0)
        (tmp_path / "m").mkdir()
        code = run_cli(
            "train", "--scheme", str(tmp_path / "s.scheme"), "--epochs", "1",
            "--train-data", str(tmp_path / "d.csv"), "--test-data", str(tmp_path / "d.csv"),
            "--metrics-out", str(tmp_path / "m"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'm'}: ") and err.count("\n") == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        (tmp_path / "c.csv").write_text("0.0\n1.0\n2.0\n", encoding="utf-8")
        r = subprocess.run(
            [sys.executable, "-m", "gcforge.cli", "infer-graph",
             "--coords", str(tmp_path / "c.csv"), "--k", "1",
             "--out", str(tmp_path / "g.edges")],
            capture_output=True, text=True,
        )
        assert r.returncode == 0

    def test_unknown_subcommand_exits_2(self):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag_exits_2(self):
        assert run_cli("translate") == 2

    def test_directory_as_input_exits_2(self, tmp_path, capsys):
        code = run_cli("translate", "--graph", str(tmp_path), "--out", str(tmp_path / "p"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1

    def test_directory_as_out_exits_2(self, workdir, capsys):
        (workdir / "p").mkdir()
        code = run_cli("translate", "--graph", str(workdir / "path.edges"),
                       "--out", str(workdir / "p"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {workdir / 'p'}: ") and err.count("\n") == 1

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"\xff3\n0 1\n1 2\n")
        code = run_cli("translate", "--graph", str(bad), "--out", str(tmp_path / "p"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8") and err.count("\n") == 1

    def test_workers_flag_is_gone(self, workdir, capsys):
        code = run_cli("translate", "--graph", str(workdir / "path.edges"),
                       "--workers", "2", "--out", str(workdir / "p"))
        assert code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
