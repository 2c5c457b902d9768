"""A small feedforward stack driven by a weight-sharing scheme.

The convolution applies K shared weights through the scheme's n x K gather
table, ``table[v, i]`` being the input that slot ``i`` of the kernel at ``v``
reads:

    y[b, c, v] = bias[c] + sum over i of weights[c, i] * x[b, table[v, i]]

where a lost slot reads 0. The trainable parameter count of one channel is
K + 1 no matter how many vertices the graph has. Everything runs in float64
numpy with explicit forward/backward passes and plain minibatch SGD on
softmax cross-entropy; training is deterministic given its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, LineNumberedError, _int, _significant_lines
from .layer import WeightSharingScheme
from .propagation import PlacementMap


class NetError(Exception):
    """Base class for model and training failures."""


class DivergenceError(NetError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"loss diverged (non-finite) at epoch {epoch}")


class DatasetFormatError(LineNumberedError, NetError):
    """Malformed dataset CSV."""


@dataclass
class Dataset:
    """Labeled graph signals: one row per sample, one column per vertex."""

    signals: np.ndarray  # (samples, n) float64
    labels: np.ndarray  # (samples,) int

    def __post_init__(self):
        self.signals = np.asarray(self.signals, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.signals.ndim != 2:
            raise NetError(f"signals must be 2-D, got shape {self.signals.shape}")
        if self.labels.shape != (self.signals.shape[0],):
            raise NetError("row count must equal label count")
        if np.any(self.labels < 0):
            raise NetError(f"labels must be nonnegative, got {int(self.labels.min())}")

    def __len__(self) -> int:
        return self.signals.shape[0]

    @property
    def n(self) -> int:
        return self.signals.shape[1]


def dataset_to_csv(ds: Dataset) -> str:
    header = ",".join([f"x{i}" for i in range(ds.n)] + ["label"])
    lines = [header]
    # row by row, as one tolist() would hold every value as a Python float
    for row, label in zip(ds.signals, ds.labels.tolist()):
        lines.append(",".join(map(repr, row.tolist() + [label])))
    return "\n".join(lines) + "\n"


_LABEL_MAX = np.iinfo(np.int64).max  # labels are held as int64


def dataset_from_csv(text: str, expect_n: int | None = None) -> Dataset:
    """Parse dataset CSV: a header row whose last column is ``label``, then
    one sample per row. ``expect_n`` checks the signal width."""
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    for line_no, line in _significant_lines(text):
        fields = line.split(",")  # unstripped: float() skips the spaces itself
        if width is None:
            if fields[-1].strip() != "label":
                raise DatasetFormatError(
                    f"last column must be named 'label', got {fields[-1].strip()!r}", line_no
                )
            width = len(fields) - 1
            continue
        if len(fields) != width + 1:
            raise DatasetFormatError(
                f"expected {width} signal columns plus 'label', got {len(fields)} fields",
                line_no,
            )
        try:
            if "_" in line or not line.isascii():  # float() and int() take both
                raise ValueError(line)
            try:
                rows.append(list(map(float, fields[:-1])))
            except ValueError:  # strip() also drops "\x1f", which float() refuses
                rows.append([float(f.strip()) for f in fields[:-1]])
            labels.append(_int(fields[-1].strip()))
        except ValueError:
            raise DatasetFormatError(f"non-numeric field in {line!r}", line_no) from None
        if not all(map(math.isfinite, rows[-1])):
            bad = next(f.strip() for f in fields if not math.isfinite(float(f.strip())))
            raise DatasetFormatError(f"signal values must be finite, got {bad!r}", line_no)
        if labels[-1] < 0:
            raise DatasetFormatError(f"label must be nonnegative, got {labels[-1]}", line_no)
        if labels[-1] > _LABEL_MAX:
            raise DatasetFormatError(f"label must be at most {_LABEL_MAX}, got {labels[-1]}",
                                     line_no)
    if not rows:
        raise DatasetFormatError("no data rows found")
    ds = Dataset(np.array(rows), np.array(labels))
    if expect_n is not None and ds.n != expect_n:
        raise DatasetFormatError(f"expected {expect_n} signal columns, got {ds.n}")
    return ds


class ConvLayer:
    """Graph convolution over a weight-sharing scheme.

    ``channels`` independent kernels share the same wiring; each kernel is
    K weights plus one bias shared across all output vertices (a per-vertex
    bias would break translation equivariance).
    """

    def __init__(self, scheme: WeightSharingScheme, channels: int = 1, rng=None):
        if channels < 1:
            raise NetError("channels must be positive")
        self.scheme = scheme
        self.channels = channels
        self.n = scheme.n
        self.k = scheme.k
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights = rng.standard_normal((channels, self.k)) / np.sqrt(self.k)
        self.bias = np.zeros(channels)
        self.grads: dict[str, np.ndarray] = {}
        self._g: np.ndarray | None = None

    def parameters(self):
        return [("weights", self.weights), ("bias", self.bias)]

    def parameter_count(self) -> int:
        return self.weights.size + self.bias.size

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.n:
            raise NetError(f"expected {self.n} vertex values, got {x.shape[1]}")
        padded = np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)
        # take() returns a C-contiguous (B, n, K); padded[:, table] puts the
        # batch axis innermost, which makes the matmul below several times slower
        self._g = padded.take(self.scheme.table, axis=1)
        y = self.weights @ self._g.transpose(0, 2, 1)  # (B, C, n)
        y += self.bias[:, None]
        return y[0] if squeeze else y

    def backward(self, gout: np.ndarray) -> np.ndarray:
        g = self._g
        gout = np.asarray(gout, dtype=np.float64)
        if gout.ndim == 2:
            gout = gout[None, :, :]
        b, n = g.shape[0], self.n
        gw = (gout @ g).sum(axis=0)
        gb = gout.sum(axis=(0, 2))
        per_slot = gout.transpose(0, 2, 1) @ self.weights  # (B, n, K)
        # one bincount over every (row, slot) pair; row b owns bins
        # b*(n+1) .. b*(n+1)+n, the last of them the lost-slot sentinel
        bins = np.arange(b)[:, None, None] * (n + 1) + self.scheme.table
        gx = np.bincount(bins.ravel(), weights=per_slot.ravel(), minlength=b * (n + 1))
        self.grads = {"weights": gw, "bias": gb}
        return gx.reshape(b, n + 1)[:, :n]


class ReLU:
    def __init__(self):
        self._mask: np.ndarray | None = None

    def parameters(self):
        return []

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout * self._mask


class Flatten:
    def __init__(self):
        self._shape: tuple | None = None

    def parameters(self):
        return []

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout.reshape(self._shape)


class Dense:
    def __init__(self, fan_in: int, fan_out: int, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        self.b = np.zeros(fan_out)
        self.grads: dict[str, np.ndarray] = {}
        self._x: np.ndarray | None = None

    def parameters(self):
        return [("w", self.w), ("b", self.b)]

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        self._x = x
        return x @ self.w + self.b

    def backward(self, gout: np.ndarray) -> np.ndarray:
        self.grads = {"w": self._x.T @ gout, "b": gout.sum(axis=0)}
        return gout @ self.w.T


class Dropout:
    """Inverted dropout: scales by 1/(1-p) at train time, identity at
    inference. ``p == 0`` is the exact identity in both modes."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise NetError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self._mask: np.ndarray | float = 1.0

    def parameters(self):
        return []

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = 1.0
            return x
        if rng is None:
            raise NetError("dropout in train mode needs an rng")
        keep = 1.0 - self.p
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return gout * self._mask


class Model:
    """An ordered layer stack with softmax cross-entropy on top."""

    def __init__(self, layers: list):
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x, train=False), axis=-1)

    def accuracy(self, ds: Dataset) -> float:
        return float(np.mean(self.predict(ds.signals) == ds.labels))

    def parameter_count(self) -> int:
        return sum(arr.size for layer in self.layers for _, arr in layer.parameters())

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray, train: bool = True, rng=None):
        logits = self.forward(x, train=train, rng=rng)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        g = dlogits
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return loss

    def sgd_step(self, lr: float) -> None:
        for layer in self.layers:
            grads = getattr(layer, "grads", None)
            if not grads:
                continue
            for name, arr in layer.parameters():
                arr -= lr * grads[name]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch and its gradient wrt the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    b = logits.shape[0]
    eps = 1e-12
    loss = -np.log(probs[np.arange(b), labels] + eps).mean()
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    return loss, dlogits / b


def build_conv_model(
    scheme: WeightSharingScheme,
    hidden: int,
    classes: int,
    channels: int = 1,
    dropout: float = 0.0,
    seed: int = 0,
) -> Model:
    """Conv -> ReLU -> Dense(hidden) -> ReLU -> Dropout -> Dense(classes)."""
    rng = np.random.default_rng(seed)
    return Model(
        [
            ConvLayer(scheme, channels=channels, rng=rng),
            ReLU(),
            Flatten(),
            Dense(channels * scheme.n, hidden, rng=rng),
            ReLU(),
            Dropout(dropout),
            Dense(hidden, classes, rng=rng),
        ]
    )


def build_dense_model(
    n: int,
    first_width: int,
    hidden: int,
    classes: int,
    dropout: float = 0.0,
    seed: int = 0,
) -> Model:
    """The dense twin of the conv model: the convolution is replaced by a
    fully connected layer of ``first_width`` units."""
    rng = np.random.default_rng(seed)
    return Model(
        [
            Dense(n, first_width, rng=rng),
            ReLU(),
            Dense(first_width, hidden, rng=rng),
            ReLU(),
            Dropout(dropout),
            Dense(hidden, classes, rng=rng),
        ]
    )


def matched_dense_width(
    n: int, k: int, hidden: int, classes: int, channels: int = 1
) -> int:
    """First-layer width that brings the dense twin's parameter count
    closest to the conv model's (ties toward the smaller width)."""
    conv_total = channels * (k + 1) + (channels * n * hidden + hidden) + (
        hidden * classes + classes
    )
    tail = hidden * classes + classes

    def dense_total(w: int) -> int:
        return (n * w + w) + (w * hidden + hidden) + tail

    best_w, best_gap = 1, abs(dense_total(1) - conv_total)
    for w in range(2, n * channels + hidden + 2):
        gap = abs(dense_total(w) - conv_total)
        if gap < best_gap:
            best_w, best_gap = w, gap
    return best_w


@dataclass
class TrainConfig:
    lr: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float


@dataclass
class History:
    records: list[EpochRecord] = field(default_factory=list)

    def final_test_accuracy(self) -> float:
        return self.records[-1].test_accuracy

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_accuracy,test_accuracy"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{float(r.train_loss)!r},{float(r.train_accuracy)!r},"
                f"{float(r.test_accuracy)!r}"
            )
        return "\n".join(lines) + "\n"


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss is reported below
def train(model: Model, train_ds: Dataset, test_ds: Dataset, config: TrainConfig) -> History:
    """Minibatch SGD; deterministic given ``config.seed``."""
    if len(train_ds) == 0 or len(test_ds) == 0:
        raise NetError("datasets must be non-empty")
    if train_ds.n != test_ds.n:
        raise NetError("train and test signal widths differ")
    if config.batch_size < 1 or config.epochs < 0:
        raise NetError("batch size must be positive and epochs nonnegative")
    rng = np.random.default_rng(config.seed)
    history = History()
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_ds))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(train_ds), config.batch_size):
            idx = order[start : start + config.batch_size]
            loss = model.loss_and_grads(
                train_ds.signals[idx], train_ds.labels[idx], train=True, rng=rng
            )
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            model.sgd_step(config.lr)
            epoch_loss += loss
            batches += 1
        history.records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=epoch_loss / max(batches, 1),
                train_accuracy=model.accuracy(train_ds),
                test_accuracy=model.accuracy(test_ds),
            )
        )
    return history


LR_GRID = (0.1, 0.01, 0.001)


def grid_search_lr(
    build_model,
    train_ds: Dataset,
    val_ds: Dataset,
    config: TrainConfig,
    grid: tuple[float, ...] = LR_GRID,
) -> float:
    """Pick the learning rate with the best final validation accuracy.

    ``build_model`` is a zero-argument factory so every candidate starts
    from identical initialization. Ties keep the earliest grid entry.
    """
    best_lr, best_acc = grid[0], -1.0
    for lr in grid:
        model = build_model()
        cfg = TrainConfig(lr=lr, epochs=config.epochs, batch_size=config.batch_size,
                          seed=config.seed)
        acc = train(model, train_ds, val_ds, cfg).final_test_accuracy()
        if acc > best_acc:
            best_lr, best_acc = lr, acc
    return best_lr


def make_templates(classes: int, k: int, seed: int, amplitude: float = 1.0) -> np.ndarray:
    """Per-class kernel-slot patterns: centered, unit-norm, scaled."""
    if k < 2:  # a centered single slot is all zeros and has no unit norm
        raise NetError(f"templates need at least 2 kernel slots, got K={k}")
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((classes, k))
    t -= t.mean(axis=1, keepdims=True)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return t * amplitude


def make_translated_dataset(
    g: Graph,
    pm: PlacementMap,
    templates: np.ndarray,
    samples_per_class: int,
    sigma: float,
    seed: int,
    at_vertex: int | None = None,
) -> Dataset:
    """Write each class template through a random vertex's kernel placement
    (lost slots drop their value), then add Gaussian noise.

    ``at_vertex`` pins every sample to one placement instead of sampling
    vertices uniformly.
    """
    templates = np.asarray(templates, dtype=np.float64)
    if templates.ndim != 2 or templates.shape[1] != pm.k:
        raise NetError(f"templates must be (classes, {pm.k}), got {templates.shape}")
    if not pm.is_complete():
        raise NetError("placement map must cover every vertex")
    if sigma < 0:
        raise NetError("noise level must be nonnegative")
    rng = np.random.default_rng(seed)
    classes = templates.shape[0]
    signals = np.zeros((classes * samples_per_class, g.n))
    labels = np.zeros(classes * samples_per_class, dtype=np.int64)
    row = 0
    for cls in range(classes):
        for _ in range(samples_per_class):
            v = int(rng.integers(g.n)) if at_vertex is None else at_vertex
            placement = pm.placements[v]
            for idx, vertex in enumerate(placement.slots):
                if vertex is not None:
                    signals[row, vertex] = templates[cls, idx]
            if sigma > 0:
                signals[row] += rng.normal(0.0, sigma, g.n)
            labels[row] = cls
            row += 1
    return Dataset(signals, labels)


def save_checkpoint(model: Model) -> str:
    """Plain-text parameter dump: a header per layer, one line per array.
    gcforge writes it for inspection and never reads it back."""
    lines = ["# gcforge checkpoint v1"]
    for li, layer in enumerate(model.layers):
        params = layer.parameters()
        if not params:
            continue
        lines.append(f"layer {li} {type(layer).__name__}")
        for name, arr in params:
            flat = " ".join(repr(float(x)) for x in np.asarray(arr).ravel())
            shape = "x".join(str(d) for d in np.asarray(arr).shape)
            lines.append(f"{name} {shape} {flat}")
    return "\n".join(lines) + "\n"
