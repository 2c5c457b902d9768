from __future__ import annotations

import numpy as np
import pytest

from gcforge.graph import grid_graph
from gcforge.layer import WeightSharingScheme, build_scheme
from gcforge.propagation import init_kernel, most_central_vertex, propagate
from gcforge import net
from gcforge.net import (
    ConvLayer,
    Dataset,
    DatasetFormatError,
    Dense,
    DivergenceError,
    Dropout,
    Model,
    NetError,
    TrainConfig,
    build_conv_model,
    build_dense_model,
    dataset_from_csv,
    dataset_to_csv,
    make_translated_dataset,
    make_templates,
    matched_dense_width,
    save_checkpoint,
    train,
)

from conftest import connected_er_graphs, path_graph


@pytest.fixture(scope="module")
def path_scheme():
    g = path_graph(3)
    return build_scheme(propagate(g, init_kernel(g, 1)))


@pytest.fixture(scope="module")
def grid_setup_8x8():
    g = grid_graph(8, 8)
    pm = propagate(g, init_kernel(g, most_central_vertex(g)))
    return g, pm, build_scheme(pm)


@pytest.fixture(scope="module")
def lossy_er_scheme():
    # acceptance-3 ER graph 0: K = 11 with many lost slots
    g = connected_er_graphs(1, 50, 0.1, base_seed=9000)[0]
    return build_scheme(propagate(g, init_kernel(g, most_central_vertex(g))))


def identity_scheme(n):
    return WeightSharingScheme(n=n, k=1, table=np.arange(n)[:, None])


def fd_gradient(f, arr, step=1e-5):
    """Central finite differences of a scalar function wrt an array."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        hi = f()
        flat[i] = old - step
        lo = f()
        flat[i] = old
        gf[i] = (hi - lo) / (2 * step)
    return g


def rel_err(a, b):
    # gradients below 1e-6 compare as zero: central differences only carry
    # rounding noise down there
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return np.max(np.abs(a - b) / denom)


class TestConvForward:
    def test_identity_scheme_is_identity(self):
        layer = ConvLayer(identity_scheme(4), rng=np.random.default_rng(0))
        layer.weights[:] = 1.0
        layer.bias[:] = 0.0
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(layer.forward(x)[0], x)

    def test_path_scheme_hand_sum(self, path_scheme):
        layer = ConvLayer(path_scheme, rng=np.random.default_rng(0))
        layer.weights[:] = 1.0
        layer.bias[:] = 0.0
        y = layer.forward(np.array([1.0, 1.0, 1.0]))[0]
        assert np.array_equal(y, np.array([2.0, 3.0, 2.0]))

    def test_zero_weights_give_bias(self, path_scheme):
        layer = ConvLayer(path_scheme, rng=np.random.default_rng(0))
        layer.weights[:] = 0.0
        layer.bias[:] = 0.7
        y = layer.forward(np.array([3.0, -1.0, 2.0]))[0]
        assert np.allclose(y, 0.7)

    def test_dimension_mismatch(self, path_scheme):
        layer = ConvLayer(path_scheme)
        with pytest.raises(NetError):
            layer.forward(np.zeros(5))

    def test_parameter_count_is_k_plus_one(self, path_scheme):
        layer = ConvLayer(path_scheme, channels=1)
        assert layer.parameter_count() == path_scheme.k + 1

    def test_channels_stack_independent_kernels(self, path_scheme):
        rng = np.random.default_rng(1)
        layer = ConvLayer(path_scheme, channels=3, rng=rng)
        x = rng.standard_normal(3)
        y = layer.forward(x)
        for c in range(3):
            single = ConvLayer(path_scheme, channels=1)
            single.weights[0] = layer.weights[c]
            single.bias[0] = layer.bias[c]
            assert np.allclose(y[c], single.forward(x)[0])


class TestGradients:
    def test_zero_upstream_gives_zero_grads(self, path_scheme):
        layer = ConvLayer(path_scheme, rng=np.random.default_rng(0))
        x = np.ones((2, 3))
        layer.forward(x)
        gx = layer.backward(np.zeros((2, 1, 3)))
        assert np.all(gx == 0)
        assert np.all(layer.grads["weights"] == 0)
        assert np.all(layer.grads["bias"] == 0)

    def test_identity_scheme_weight_grad_is_dot(self):
        layer = ConvLayer(identity_scheme(3), rng=np.random.default_rng(0))
        x = np.array([[1.0, 2.0, 3.0]])
        g = np.array([[[0.5, -1.0, 2.0]]])
        layer.forward(x)
        layer.backward(g)
        assert np.isclose(layer.grads["weights"][0, 0], (x[0] * g[0, 0]).sum())

    @pytest.mark.parametrize("seed", range(5))
    def test_conv_matches_finite_differences(self, path_scheme, seed):
        rng = np.random.default_rng(seed)
        layer = ConvLayer(path_scheme, channels=2, rng=rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2, 3))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        layer.forward(x)
        gx = layer.backward(2.0 * (layer.forward(x) - target))
        assert rel_err(layer.grads["weights"], fd_gradient(loss, layer.weights)) <= 1e-4
        assert rel_err(layer.grads["bias"], fd_gradient(loss, layer.bias)) <= 1e-4

        def loss_x():
            return float(((layer.forward(x) - target) ** 2).sum())

        assert rel_err(gx, fd_gradient(loss_x, x)) <= 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_full_model_matches_finite_differences(self, path_scheme, seed):
        rng = np.random.default_rng(100 + seed)
        model = build_conv_model(path_scheme, hidden=4, classes=2, channels=2,
                                 dropout=0.25, seed=seed)
        # keep ReLU inputs away from the exact kink (zero-init biases)
        for layer in model.layers:
            for _, arr in layer.parameters():
                arr += rng.normal(0.0, 0.01, arr.shape)
        x = rng.standard_normal((3, 3))
        labels = np.array([0, 1, 0])

        def loss_fn():
            # reseed dropout so every evaluation sees the same masks
            return float(
                net.softmax_cross_entropy(
                    model.forward(x, train=True, rng=np.random.default_rng(seed)), labels
                )[0]
            )

        model.loss_and_grads(x, labels, train=True, rng=np.random.default_rng(seed))
        for layer in model.layers:
            for name, arr in layer.parameters():
                fd = fd_gradient(loss_fn, arr)
                assert rel_err(layer.grads[name], fd) <= 1e-4


def reference_conv(scheme, weights, bias, x, gout):
    """Forward output and gradients from a plain loop over the triples."""
    channels = weights.shape[0]
    y = np.zeros((x.shape[0], channels, scheme.n)) + bias[None, :, None]
    gw = np.zeros_like(weights)
    gx = np.zeros_like(x)
    for out, inp, i in scheme.triples:
        for c in range(channels):
            y[:, c, out] += weights[c, i] * x[:, inp]
            gw[c, i] += np.dot(gout[:, c, out], x[:, inp])
            gx[:, inp] += gout[:, c, out] * weights[c, i]
    return y, gw, gout.sum(axis=(0, 2)), gx


class TestGatherTable:
    @pytest.mark.parametrize("batch,channels", [(1, 1), (7, 1), (7, 3)])
    @pytest.mark.parametrize("which", ["lossy_er_scheme", "grid_setup_8x8"])
    def test_matches_triple_loop(self, request, which, batch, channels):
        fixture = request.getfixturevalue(which)
        scheme = fixture[2] if which == "grid_setup_8x8" else fixture
        rng = np.random.default_rng(batch * 10 + channels)
        layer = ConvLayer(scheme, channels=channels, rng=rng)
        layer.bias[:] = rng.standard_normal(channels)
        x = rng.standard_normal((batch, scheme.n))
        gout = rng.standard_normal((batch, channels, scheme.n))
        y_ref, gw_ref, gb_ref, gx_ref = reference_conv(
            scheme, layer.weights, layer.bias, x, gout
        )
        if batch == 1:  # 1-D input and (C, n) upstream gradient
            y = layer.forward(x[0])[None]
            gx = layer.backward(gout[0])
        else:
            y = layer.forward(x)
            gx = layer.backward(gout)
        assert y.shape == (batch, channels, scheme.n)
        assert gx.shape == (batch, scheme.n)
        assert np.max(np.abs(y - y_ref)) <= 1e-12
        assert np.max(np.abs(layer.grads["weights"] - gw_ref)) <= 1e-12
        assert np.max(np.abs(layer.grads["bias"] - gb_ref)) <= 1e-12
        assert np.max(np.abs(gx - gx_ref)) <= 1e-12

    def test_lost_slots_send_no_gradient(self, lossy_er_scheme):
        # upstream gradient at one output with lost slots only: every input
        # its surviving slots do not read, vertex 0 of the next batch row
        # included, must get exactly zero
        s = lossy_er_scheme
        assert s.k >= 11 and len(s.triples) < s.n * s.k - 100  # many lost slots
        layer = ConvLayer(s, channels=2, rng=np.random.default_rng(3))
        reads = {v: {inp for _, inp, _ in s.in_edges(v)} for v in range(s.n)}
        out = next(v for v in range(s.n) if len(reads[v]) < s.k and 0 not in reads[v])
        read = reads[out]
        x = np.random.default_rng(4).standard_normal((7, s.n))
        gout = np.zeros((7, 2, s.n))
        gout[:, :, out] = 1.0
        layer.forward(x)
        gx = layer.backward(gout)
        unread = [w for w in range(s.n) if w not in read]
        assert 0 in unread
        assert np.all(gx[:, unread] == 0.0)
        assert np.all(gx[:, sorted(read)] != 0.0)


class TestDropout:
    def test_p0_is_exact_identity(self):
        d = Dropout(0.0)
        x = np.random.default_rng(0).standard_normal((5, 4))
        assert np.array_equal(d.forward(x, train=True, rng=np.random.default_rng(1)), x)
        assert np.array_equal(d.forward(x, train=False), x)

    def test_inference_is_identity(self):
        d = Dropout(0.5)
        x = np.ones((3, 3))
        assert np.array_equal(d.forward(x, train=False), x)

    def test_train_scales_survivors(self):
        d = Dropout(0.5)
        x = np.ones((200, 50))
        y = d.forward(x, train=True, rng=np.random.default_rng(0))
        assert set(np.unique(y)) == {0.0, 2.0}
        assert abs(y.mean() - 1.0) < 0.05  # unbiased in expectation

    def test_invalid_rate(self):
        with pytest.raises(NetError):
            Dropout(1.0)


class TestTraining:
    def _separable_toy(self, n=8, per_class=32, seed=0):
        rng = np.random.default_rng(seed)
        half = n // 2
        signals, labels = [], []
        for cls in range(2):
            for _ in range(per_class):
                x = rng.normal(0, 0.3, n)
                x[:half] += 2.0 if cls == 0 else -2.0
                signals.append(x)
                labels.append(cls)
        return Dataset(np.array(signals), np.array(labels))

    def test_separable_data_reaches_perfect_accuracy(self):
        train_ds = self._separable_toy(seed=0)
        test_ds = self._separable_toy(seed=1)
        model = build_conv_model(identity_scheme(8), hidden=8, classes=2, seed=0)
        history = train(model, train_ds, test_ds, TrainConfig(lr=0.1, epochs=50, seed=0))
        assert history.final_test_accuracy() == 1.0
        assert len(history.records) == 50

    def test_lr_zero_changes_nothing(self):
        train_ds = self._separable_toy(seed=0)
        model = build_conv_model(identity_scheme(8), hidden=8, classes=2, seed=0)
        before = [arr.copy() for layer in model.layers for _, arr in layer.parameters()]
        history = train(model, train_ds, train_ds, TrainConfig(lr=0.0, epochs=3, seed=0))
        after = [arr for layer in model.layers for _, arr in layer.parameters()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        accs = {r.test_accuracy for r in history.records}
        assert len(accs) == 1

    def test_same_seed_same_history(self):
        train_ds = self._separable_toy(seed=0)
        test_ds = self._separable_toy(seed=1)
        hists = []
        for _ in range(2):
            model = build_conv_model(identity_scheme(8), hidden=8, classes=2,
                                     dropout=0.2, seed=3)
            hists.append(
                train(model, train_ds, test_ds, TrainConfig(lr=0.1, epochs=8, seed=3)).to_csv()
            )
        assert hists[0] == hists[1]

    def test_metrics_csv_fields_parse_as_floats(self):
        train_ds = self._separable_toy(seed=0)
        model = build_conv_model(identity_scheme(8), hidden=8, classes=2, seed=0)
        text = train(model, train_ds, train_ds, TrainConfig(lr=0.1, epochs=2, seed=0)).to_csv()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == 2
        for row in rows:
            assert len(row) == 4
            for value in row:
                float(value)  # a numpy repr such as "np.float64(0.5)" raises here

    def test_divergence_names_epoch(self):
        # identical signals with contradictory labels keep the saturated
        # gradients alive, so an absurd learning rate overflows to NaN
        ds = Dataset(np.ones((8, 4)), np.array([0, 1] * 4))
        model = Model(
            [
                net.ConvLayer(identity_scheme(4), rng=np.random.default_rng(0)),
                net.Flatten(),
                Dense(4, 4, rng=np.random.default_rng(1)),
                Dense(4, 2, rng=np.random.default_rng(2)),
            ]
        )
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError, match="epoch"):
                train(model, ds, ds, TrainConfig(lr=1e8, epochs=10, batch_size=8, seed=0))

    def test_empty_dataset_rejected(self):
        ds = self._separable_toy(seed=0)
        empty = Dataset(np.zeros((0, 8)), np.zeros(0, dtype=int))
        model = build_conv_model(identity_scheme(8), hidden=4, classes=2, seed=0)
        with pytest.raises(NetError):
            train(model, empty, ds, TrainConfig())


class TestEquivariance:
    def test_conv_commutes_with_interior_shifts(self, grid_setup_8x8):
        _, _, scheme = grid_setup_8x8
        rows = cols = 8
        rng = np.random.default_rng(0)
        layer = ConvLayer(scheme, rng=rng)
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
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (-2, 1)):
            ys = layer.forward(shift(x, dr, dc))[0]
            for r in range(rows):
                for c in range(cols):
                    rr, cc = r - dr, c - dc
                    if 1 <= r < rows - 1 and 1 <= c < cols - 1 and 1 <= rr < rows - 1 and 1 <= cc < cols - 1:
                        assert abs(ys[r * cols + c] - y[rr * cols + cc]) <= 1e-9


class TestSyntheticDataset:
    def test_sigma_zero_at_fixed_vertex_equals_template(self, grid_setup_8x8):
        g, pm, _ = grid_setup_8x8
        seed_vertex = pm.seed
        templates = make_templates(2, pm.k, seed=0)
        ds = make_translated_dataset(g, pm, templates, 1, sigma=0.0, seed=0,
                                     at_vertex=seed_vertex)
        placement = pm.placements[seed_vertex]
        for cls in range(2):
            expected = np.zeros(g.n)
            for idx, vert in enumerate(placement.slots):
                expected[vert] = templates[cls, idx]
            assert np.array_equal(ds.signals[cls], expected)
            assert ds.labels[cls] == cls

    def test_identical_templates_stay_at_chance(self, grid_setup_8x8):
        g, pm, scheme = grid_setup_8x8
        tmpl = make_templates(1, pm.k, seed=0)
        templates = np.vstack([tmpl, tmpl])  # two indistinguishable classes
        train_ds = make_translated_dataset(g, pm, templates, 60, sigma=0.1, seed=1)
        test_ds = make_translated_dataset(g, pm, templates, 40, sigma=0.1, seed=2)
        model = build_conv_model(scheme, hidden=8, classes=2, seed=0)
        history = train(model, train_ds, test_ds, TrainConfig(lr=0.1, epochs=10, seed=0))
        assert history.final_test_accuracy() <= 0.65

    def test_lost_slots_drop_values(self):
        g = path_graph(3)
        pm = propagate(g, init_kernel(g, 1))
        templates = np.array([[1.0, 2.0, 3.0]])
        ds = make_translated_dataset(g, pm, templates, 1, sigma=0.0, seed=0, at_vertex=0)
        # placement at 0 is (0, lost, 1): slot1's value vanishes
        assert np.array_equal(ds.signals[0], np.array([1.0, 3.0, 0.0]))

    def test_single_slot_templates_rejected(self):
        # centering one slot leaves zeros, and normalizing them gives NaN
        with pytest.raises(NetError, match="at least 2 kernel slots, got K=1"):
            make_templates(2, 1, seed=0)

    def test_template_shape_checked(self, grid_setup_8x8):
        g, pm, _ = grid_setup_8x8
        with pytest.raises(NetError, match="templates"):
            make_translated_dataset(g, pm, np.ones((2, 3)), 1, sigma=0.0, seed=0)


class TestDatasetCsv:
    def test_round_trip_bytes(self, grid_setup_8x8):
        g, pm, _ = grid_setup_8x8
        templates = make_templates(2, pm.k, seed=0)
        ds = make_translated_dataset(g, pm, templates, 3, sigma=0.1, seed=0)
        text = dataset_to_csv(ds)
        assert dataset_to_csv(dataset_from_csv(text)) == text

    def test_missing_label_header_rejected(self):
        with pytest.raises(DatasetFormatError, match="label"):
            dataset_from_csv("x0,x1,y\n0.0,0.0,1\n")

    def test_headerless_needs_width(self):
        # the header row is required, whether or not the width is known
        for expect_n in (None, 2):
            with pytest.raises(DatasetFormatError,
                               match="^line 1: last column must be named 'label'"):
                dataset_from_csv("0.0,0.5,1\n", expect_n=expect_n)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DatasetFormatError, match="signal columns"):
            dataset_from_csv("x0,x1,label\n0.0,0.0,1\n", expect_n=5)

    def test_negative_label_rejected_with_line(self):
        with pytest.raises(DatasetFormatError, match="line 3: label must be nonnegative"):
            dataset_from_csv("x0,x1,label\n0.0,0.0,1\n0.5,0.0,-1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_signal_rejected_with_line(self, value):
        text = f"x0,x1,label\n0.0,0.0,1\n# note\n0.5,{value},0\n"
        with pytest.raises(DatasetFormatError,
                           match=f"^line 4: signal values must be finite, got '{value}'$"):
            dataset_from_csv(text)

    def test_dataset_rejects_negative_label(self):
        with pytest.raises(NetError, match="nonnegative"):
            Dataset(np.zeros((2, 3)), np.array([0, -1]))


class TestModelPlumbing:
    def test_matched_width_closes_parameter_gap(self, grid_setup_8x8):
        _, _, scheme = grid_setup_8x8
        conv = build_conv_model(scheme, hidden=16, classes=4, channels=4, seed=0)
        w1 = matched_dense_width(scheme.n, scheme.k, 16, 4, channels=4)
        dense = build_dense_model(scheme.n, w1, 16, 4, seed=0)
        gap = abs(conv.parameter_count() - dense.parameter_count())
        assert gap <= 0.02 * conv.parameter_count()

    def test_checkpoint_dump_is_lossless(self, path_scheme):
        # gcforge never reads the dump back, so parse it here
        model = build_conv_model(path_scheme, hidden=4, classes=2, seed=1)
        expected = []
        for li, layer in enumerate(model.layers):
            if layer.parameters():
                expected.append(f"layer {li} {type(layer).__name__}")
                expected.extend(layer.parameters())
        lines = save_checkpoint(model).splitlines()
        assert lines[0] == "# gcforge checkpoint v1"
        assert len(lines) == 1 + len(expected)
        for line, want in zip(lines[1:], expected):
            if isinstance(want, str):
                assert line == want
                continue
            name, arr = want
            got_name, shape, *values = line.split()
            assert (got_name, shape) == (name, "x".join(map(str, arr.shape)))
            got = np.array([float(v) for v in values]).reshape(arr.shape)
            assert got.tobytes() == arr.tobytes()
