"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import time

import numpy as np
import pytest

from gcforge.graph import (
    CoordinateSet,
    dump_edge_list,
    grid_coordinates,
    infer_knn_graph,
    is_connected,
    load_edge_list,
)
from gcforge.layer import build_scheme, export_scheme, import_scheme, verify_grid_equivalence
from gcforge.propagation import (
    init_kernel,
    most_central_vertex,
    parse_placements,
    propagate,
    refine,
    serialize_placements,
)
from gcforge.translations import enumerate_translations_bruteforce, find_local_translation
from gcforge import net

from conftest import (
    ER50_SHA256,
    connected_er_graphs,
    oracle_family,
    oracle_placements,
    path_graph,
)


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL "
                      f"[{time.perf_counter() - start:.1f}s]")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS "
                  f"[{time.perf_counter() - start:.1f}s] {detail or ''}")
        return wrapper
    return deco


@criterion(1, "grid recovery")
def test_grid_recovery():
    t0 = time.perf_counter()
    for rows in range(3, 9):
        for cols in range(3, 9):
            coords = grid_coordinates(rows, cols)
            g = infer_knn_graph(coords, 2)  # unions of 2 nearest recover the grid
            seed = most_central_vertex(g)
            pm = propagate(g, init_kernel(g, seed))
            scheme = build_scheme(pm)
            assert scheme.k == 5, f"{rows}x{cols}: expected 5 weights, got {scheme.k}"
            report = verify_grid_equivalence(scheme, rows, cols)
            assert report.passed, f"{rows}x{cols}: {report.reason} at {report.witness}"
            interior = [
                r * cols + c for r in range(1, rows - 1) for c in range(1, cols - 1)
            ]
            assert len(interior) == (rows - 2) * (cols - 2)
            for v in interior:
                assert len(scheme.in_edges(v)) == 5, f"{rows}x{cols}: vertex {v}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, limit 5s"
    return f"36 grids in {elapsed:.2f}s"


@criterion(2, "oracle equivalence")
def test_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    for g in oracle_family():
        for p in oracle_placements(g):
            domain = [s for s in p.slots if s is not None]
            for target in g.neighbors(p.center):
                found_tr, found = find_local_translation(g, p, target)
                oracle = enumerate_translations_bruteforce(g, domain, p.center, target)
                assert found.total == oracle[0][1].total, (
                    f"graph n={g.n} m={len(g.edges)}, center {p.center} -> {target}: "
                    f"search {found.total}, oracle {oracle[0][1].total}"
                )
                assert any(tr == found_tr and s == found for tr, s in oracle)
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"
    return f"{pairs} (placement, target) pairs in {elapsed:.1f}s"


@criterion(3, "fixed point & determinism")
def test_fixed_point_and_determinism():
    graphs = connected_er_graphs(10, 50, 0.1, base_seed=9000)
    for i, (g, want) in enumerate(zip(graphs, ER50_SHA256)):
        kernel = init_kernel(g, most_central_vertex(g))
        pm = propagate(g, kernel)  # termination == returning
        assert pm.is_complete()
        text = serialize_placements(pm)
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert got == want, f"graph {i}: output differs from an independent cold run"
        pm = parse_placements(text)
        assert refine(g, pm) == pm, "map is not a fixed point"
    return "10 graphs byte-identical to an independent cold run, refine idempotent"


@criterion(4, "equivariance")
def test_equivariance():
    rows = cols = 8
    g = infer_knn_graph(grid_coordinates(rows, cols), 2)
    pm = propagate(g, init_kernel(g, most_central_vertex(g)))
    scheme = build_scheme(pm)
    rng = np.random.default_rng(0)
    layer = net.ConvLayer(scheme, rng=rng)
    x = rng.standard_normal(rows * cols)

    def shift(sig, dr, dc):
        out = np.zeros_like(sig)
        for r in range(rows):
            for c in range(cols):
                rr, cc = r - dr, c - dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    out[r * cols + c] = sig[rr * cols + cc]
        return out

    y = layer.forward(x)[0]
    worst = 0.0
    checked = 0
    for dr in range(-2, 3):
        for dc in range(-2, 3):
            if (dr, dc) == (0, 0):
                continue
            ys = layer.forward(shift(x, dr, dc))[0]
            for r in range(rows):
                for c in range(cols):
                    rr, cc = r - dr, c - dc
                    if (
                        1 <= r < rows - 1
                        and 1 <= c < cols - 1
                        and 1 <= rr < rows - 1
                        and 1 <= cc < cols - 1
                    ):
                        worst = max(worst, abs(ys[r * cols + c] - y[rr * cols + cc]))
                        checked += 1
    assert worst <= 1e-9, f"max deviation {worst}"
    return f"{checked} shifted outputs, max deviation {worst:.2e}"


@criterion(5, "gradient checks")
def test_gradient_checks():
    def fd(f, arr, step=1e-5):
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + step
            hi = f()
            flat[i] = old - step
            lo = f()
            flat[i] = old
            gf[i] = (hi - lo) / (2 * step)
        return g

    def rel(a, b):
        # the denominator floor treats sub-1e-6 gradients as zero, where
        # central differences only carry noise
        return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-6))

    schemes = []
    for seed in range(4):
        rng = np.random.default_rng(500 + seed)
        coords = CoordinateSet(rng.random((10, 2)))
        g = infer_knn_graph(coords, 3)
        if not is_connected(g):
            continue
        pm = propagate(g, init_kernel(g, most_central_vertex(g)))
        schemes.append(build_scheme(pm))
    assert schemes, "no connected probe graphs"

    instances = 0
    worst = 0.0

    # convolution layers: weights, bias, and input gradients
    for i in range(40):
        rng = np.random.default_rng(1000 + i)
        scheme = schemes[i % len(schemes)]
        layer = net.ConvLayer(scheme, channels=1 + i % 3, rng=rng)
        x = rng.standard_normal((2, scheme.n))
        w = rng.standard_normal((2, layer.channels, scheme.n))

        def loss():
            return float((layer.forward(x) * w).sum())

        layer.forward(x)
        gx = layer.backward(np.broadcast_to(w, (2, layer.channels, scheme.n)).copy())
        worst = max(worst, rel(layer.grads["weights"], fd(loss, layer.weights)))
        worst = max(worst, rel(layer.grads["bias"], fd(loss, layer.bias)))
        worst = max(worst, rel(gx, fd(loss, x)))
        assert worst <= 1e-4
        instances += 1

    # dense layers
    for i in range(30):
        rng = np.random.default_rng(2000 + i)
        layer = net.Dense(6, 4, rng=rng)
        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((3, 4))

        def loss():
            return float((layer.forward(x) * w).sum())

        layer.forward(x)
        gx = layer.backward(w.copy())
        worst = max(worst, rel(layer.grads["w"], fd(loss, layer.w)))
        worst = max(worst, rel(layer.grads["b"], fd(loss, layer.b)))
        worst = max(worst, rel(gx, fd(loss, x)))
        assert worst <= 1e-4
        instances += 1

    # dropout input gradients under a frozen mask
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        layer = net.Dropout(0.4)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))

        def loss():
            return float((layer.forward(x, train=True, rng=np.random.default_rng(i)) * w).sum())

        layer.forward(x, train=True, rng=np.random.default_rng(i))
        gx = layer.backward(w.copy())
        worst = max(worst, rel(gx, fd(loss, x)))
        assert worst <= 1e-4
        instances += 1

    # full models: every parameter of every layer
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        scheme = schemes[i % len(schemes)]
        model = net.build_conv_model(
            scheme, hidden=4, classes=3, channels=1 + i % 2, dropout=0.2, seed=i
        )
        # jitter the zero-initialized biases so no ReLU sits exactly on its
        # kink, where the subgradient and the difference quotient disagree
        for layer in model.layers:
            for _, arr in layer.parameters():
                arr += rng.normal(0.0, 0.01, arr.shape)
        x = rng.standard_normal((3, scheme.n))
        labels = np.array([0, 1, 2])

        def loss():
            logits = model.forward(x, train=True, rng=np.random.default_rng(i))
            return float(net.softmax_cross_entropy(logits, labels)[0])

        model.loss_and_grads(x, labels, train=True, rng=np.random.default_rng(i))
        for layer in model.layers:
            for name, arr in layer.parameters():
                worst = max(worst, rel(layer.grads[name], fd(loss, arr)))
        assert worst <= 1e-4
        instances += 1

    assert instances == 100
    return f"100 instances, worst relative error {worst:.2e}"


@criterion(6, "end-to-end learning")
def test_end_to_end_learning():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    coords = CoordinateSet(rng.random((64, 2)))
    g = infer_knn_graph(coords, 6)
    assert is_connected(g)
    pm = propagate(g, init_kernel(g, most_central_vertex(g)))
    scheme = build_scheme(pm)
    k = scheme.k
    templates = net.make_templates(4, k, seed=7, amplitude=1.5)

    hidden, channels, dropout = 16, 4, 0.1
    w1 = net.matched_dense_width(64, k, hidden, 4, channels=channels)

    def conv_factory(seed):
        return lambda: net.build_conv_model(
            scheme, hidden=hidden, classes=4, channels=channels, dropout=dropout, seed=seed
        )

    def dense_factory(seed):
        return lambda: net.build_dense_model(
            64, w1, hidden, 4, dropout=dropout, seed=seed
        )

    # parameter match within 2%
    gap = abs(conv_factory(0)().parameter_count() - dense_factory(0)().parameter_count())
    assert gap <= 0.02 * conv_factory(0)().parameter_count()

    # learning rates picked on a held-out validation split
    fit_ds = net.make_translated_dataset(g, pm, templates, 125, sigma=0.1, seed=100)
    val_ds = net.make_translated_dataset(g, pm, templates, 50, sigma=0.1, seed=300)
    base = net.TrainConfig(epochs=40, batch_size=32, seed=0)
    conv_lr = net.grid_search_lr(conv_factory(0), fit_ds, val_ds, base)
    dense_lr = net.grid_search_lr(dense_factory(0), fit_ds, val_ds, base)

    margins = []
    for seed in range(5):
        train_ds = net.make_translated_dataset(g, pm, templates, 125, sigma=0.1, seed=100 + seed)
        test_ds = net.make_translated_dataset(g, pm, templates, 50, sigma=0.1, seed=200 + seed)
        conv = conv_factory(seed)()
        dense = dense_factory(seed)()
        h_conv = net.train(conv, train_ds, test_ds,
                           net.TrainConfig(lr=conv_lr, epochs=40, batch_size=32, seed=seed))
        h_dense = net.train(dense, train_ds, test_ds,
                            net.TrainConfig(lr=dense_lr, epochs=40, batch_size=32, seed=seed))
        margins.append(h_conv.final_test_accuracy() - h_dense.final_test_accuracy())
    median_margin = statistics.median(margins)
    elapsed = time.perf_counter() - t0
    assert median_margin >= 0.05, f"median margin {median_margin * 100:.1f}pp < 5pp"
    assert elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s"
    return (
        f"median margin {median_margin * 100:.1f}pp over 5 seeds "
        f"(lr conv {conv_lr}, dense {dense_lr}) in {elapsed:.0f}s"
    )


@criterion(7, "format round-trips")
def test_format_round_trips():
    corpus_graphs = [
        path_graph(3),
        infer_knn_graph(grid_coordinates(4, 4), 2),
        connected_er_graphs(1, 20, 0.2, base_seed=7777)[0],
    ]
    files = 0
    for g in corpus_graphs:
        edge_text = dump_edge_list(g)
        assert dump_edge_list(load_edge_list(edge_text)) == edge_text
        files += 1

        pm = propagate(g, init_kernel(g, most_central_vertex(g)))
        placement_text = serialize_placements(pm)
        assert serialize_placements(parse_placements(placement_text)) == placement_text
        files += 1

        scheme = build_scheme(pm)
        scheme_text = export_scheme(scheme)
        assert export_scheme(import_scheme(scheme_text)) == scheme_text
        files += 1

        templates = net.make_templates(3, pm.k, seed=1)
        ds = net.make_translated_dataset(g, pm, templates, 4, sigma=0.2, seed=2)
        ds_text = net.dataset_to_csv(ds)
        assert net.dataset_to_csv(net.dataset_from_csv(ds_text)) == ds_text
        files += 1
    return f"{files} files export->import->export byte-identical"
