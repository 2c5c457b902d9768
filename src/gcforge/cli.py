"""Command-line front end: each subcommand is one pipeline stage, stages
talk only through the documented file formats, and every run is
deterministic given its flags.

Exit codes: 0 success, 1 verification failure, 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import net
from .graph import (
    Graph,
    GraphError,
    bfs_distances,
    dump_edge_list,
    infer_knn_graph,
    load_coordinates,
    load_edge_list,
)
from .layer import (
    SchemeError,
    build_scheme,
    export_scheme,
    import_scheme,
    verify_grid_equivalence,
)
from .propagation import (
    PlacementFormatError,
    PlacementMap,
    SettleStats,
    init_kernel,
    most_central_vertex,
    parse_placements,
    placement_report,
    propagate,
    serialize_placements,
)
from .translations import SearchStats, TranslationError


class UsageError(Exception):
    pass


def _check_args(args: argparse.Namespace) -> None:
    for name, lo in (("k", 1), ("radius", 0), ("epochs", 0), ("batch", 1),
                     ("classes", 2), ("samples_per_class", 1), ("hidden", 1),
                     ("channels", 1)):
        v = getattr(args, name, None)
        if v is not None and v < lo:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {lo}, got {v}")
    for name in ("alpha", "beta", "sigma", "lr", "amplitude"):
        v = getattr(args, name, None)
        if v is not None and not math.isfinite(v):
            raise UsageError(f"--{name} must be finite, got {v}")
    for name in ("alpha", "beta", "sigma", "lr"):
        v = getattr(args, name, None)
        if v is not None and v < 0:
            raise UsageError(f"--{name} must be nonnegative, got {v}")
    if getattr(args, "dropout", None) is not None and not (0.0 <= args.dropout < 1.0):
        raise UsageError(f"--dropout must be in [0, 1), got {args.dropout}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from None


def _write(*outputs: tuple[str, str], inputs: tuple[str, ...]) -> None:
    """Write each (path, text); when one fails, remove those already
    written, so that a stage which exits 2 leaves no output behind. Two
    outputs that name the same file, or an output that names one of the
    stage's ``inputs``, are refused before anything is written."""
    read = {Path(path).resolve() for path in inputs}
    seen = set()
    for path, _ in outputs:
        real = Path(path).resolve()
        if real in read:
            raise UsageError(f"{path}: names one of the stage's input files")
        if real in seen:
            raise UsageError(f"{path}: names the same file as another output")
        seen.add(real)
    written = []
    for path, text in outputs:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            for done in written:
                Path(done).unlink(missing_ok=True)
            raise UsageError(f"{path}: {exc.strerror or exc}") from None
        written.append(path)


def cmd_infer_graph(args) -> int:
    coords = load_coordinates(_read(args.coords))
    g = infer_knn_graph(coords, args.k)
    _write((args.out, dump_edge_list(g)), inputs=(args.coords,))
    print(f"wrote {args.out}: {g.n} vertices, {len(g.edges)} edges")
    return 0


def cmd_translate(args) -> int:
    start = time.perf_counter()
    g = load_edge_list(_read(args.graph), connected=True)
    seed = args.seed_vertex if args.seed_vertex is not None else most_central_vertex(g)
    if not (0 <= seed < g.n):
        raise UsageError(f"--seed-vertex {seed} out of range 0..{g.n - 1}")
    kernel = init_kernel(g, seed, radius=args.radius)
    stats, settle = SearchStats(), SettleStats()
    pm = propagate(g, kernel, alpha=args.alpha, beta=args.beta, stats=stats, settle_stats=settle)
    outputs = [(args.out, serialize_placements(pm))]
    if args.stats_out is not None:
        run = {"stage": "translate", "wall_s": time.perf_counter() - start,
               "search": dataclasses.asdict(stats), "settle": dataclasses.asdict(settle)}
        outputs.append((args.stats_out, json.dumps(run, indent=2) + "\n"))
    _write(*outputs, inputs=(args.graph,))
    report = placement_report(pm)
    print(f"wrote {args.out}: seed vertex {seed}, kernel size {pm.k}")
    print(report.render(), end="")
    return 0


def cmd_build_layer(args) -> int:
    pm = parse_placements(_read(args.placements))
    scheme = build_scheme(pm)
    _write((args.out, export_scheme(scheme)), inputs=(args.placements,))
    print(f"wrote {args.out}: scheme with {len(scheme.triples)} wires, K={scheme.k}")
    return 0


def cmd_verify_grid(args) -> int:
    scheme = import_scheme(_read(args.scheme))
    report = verify_grid_equivalence(scheme, args.rows, args.cols)
    print(report.render(), end="")
    return 0 if report.passed else 1


def _check_seed_kernel(g: Graph, pm: PlacementMap) -> None:
    """Propagation never replaces the seed's fresh kernel, so a map built on
    ``g`` holds ``init_kernel(g, seed, r)`` at its seed, for the smallest
    radius ``r`` whose ball has K vertices."""
    dist = bfs_distances(g, pm.seed)
    size = 0
    for r in range(g.n):
        size += dist.count(r)
        if size >= pm.k:
            break
    if size != pm.k or pm.placements.get(pm.seed) != init_kernel(g, pm.seed, r):
        raise UsageError(
            f"placements do not come from this graph: vertex {pm.seed} does not hold "
            f"the fresh {pm.k}-slot kernel"
        )


def cmd_make_dataset(args) -> int:
    g = load_edge_list(_read(args.graph), connected=True)
    pm = parse_placements(_read(args.placements))
    if pm.n != g.n:
        raise UsageError(f"placements cover n={pm.n} but graph has n={g.n}")
    _check_seed_kernel(g, pm)
    # templates are seeded separately so train and test splits (different
    # --seed) still describe the same classes
    templates = net.make_templates(
        args.classes, pm.k, seed=args.template_seed, amplitude=args.amplitude
    )
    ds = net.make_translated_dataset(
        g, pm, templates, args.samples_per_class, sigma=args.sigma, seed=args.seed
    )
    _write((args.out, net.dataset_to_csv(ds)), inputs=(args.graph, args.placements))
    print(f"wrote {args.out}: {len(ds)} samples, {args.classes} classes")
    return 0


def cmd_train(args) -> int:
    scheme = import_scheme(_read(args.scheme))
    train_ds = net.dataset_from_csv(_read(args.train_data), expect_n=scheme.n)
    test_ds = net.dataset_from_csv(_read(args.test_data), expect_n=scheme.n)
    classes = int(max(train_ds.labels.max(), test_ds.labels.max())) + 1
    # of len + 1 ids one is missing, so this scan is bounded by the rows
    seen = set(train_ds.labels.tolist())
    unseen = next(c for c in range(len(seen) + 1) if c not in seen)
    if unseen < classes:
        raise UsageError(f"class {unseen} has no training row (largest label {classes - 1})")
    if classes < 2:
        raise UsageError("need at least 2 classes to train")
    model = net.build_conv_model(
        scheme,
        hidden=args.hidden,
        classes=classes,
        channels=args.channels,
        dropout=args.dropout,
        seed=args.seed,
    )
    config = net.TrainConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch, seed=args.seed)
    history = net.train(model, train_ds, test_ds, config)
    outputs = [(args.metrics_out, history.to_csv())]
    if args.checkpoint_out is not None:
        outputs.append((args.checkpoint_out, net.save_checkpoint(model)))
    _write(*outputs, inputs=(args.scheme, args.train_data, args.test_data))
    final = history.records[-1] if history.records else None
    if final is not None:
        print(
            f"epoch {final.epoch}: train_acc={final.train_accuracy:.3f} "
            f"test_acc={final.test_accuracy:.3f}"
        )
    print(f"wrote {args.metrics_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcforge",
        description="Build and train graph convolutional layers by translating a weight kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer-graph", help="k-NN graph from vertex coordinates")
    p.add_argument("--coords", required=True, help="coordinate CSV, one row per vertex")
    p.add_argument("--k", type=int, default=6, help="neighbors per vertex (default 6)")
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=cmd_infer_graph)

    p = sub.add_parser("translate", help="propagate a kernel from the most central vertex")
    p.add_argument("--graph", required=True, help="edge-list input path")
    p.add_argument("--radius", type=int, default=1, help="kernel radius in hops (default 1)")
    p.add_argument("--alpha", type=float, default=1.0, help="cost per lost slot (default 1)")
    p.add_argument("--beta", type=float, default=1.0, help="cost per broken pair (default 1)")
    p.add_argument("--seed-vertex", type=int, default=None,
                   help="override the centrality-chosen seed vertex")
    p.add_argument("--out", required=True, help="placement-map output path")
    p.add_argument("--stats-out", default=None,
                   help="optional JSON output: search and settle-loop counters and the"
                        " stage's wall time")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("build-layer", help="weight-sharing scheme from placements")
    p.add_argument("--placements", required=True, help="placement-map input path")
    p.add_argument("--out", required=True, help="scheme output path")
    p.set_defaults(func=cmd_build_layer)

    p = sub.add_parser("verify-grid", help="check a scheme equals 2D convolution on a grid")
    p.add_argument("--scheme", required=True, help="scheme input path")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=cmd_verify_grid)

    p = sub.add_parser("make-dataset", help="synthetic translated-pattern dataset")
    p.add_argument("--graph", required=True, help="edge-list input path")
    p.add_argument("--placements", required=True, help="placement-map input path")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--samples-per-class", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.1, help="noise level (default 0.1)")
    p.add_argument("--amplitude", type=float, default=1.0, help="template norm (default 1)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--template-seed", type=int, default=0,
                   help="class template seed, shared across splits (default 0)")
    p.add_argument("--out", required=True, help="dataset CSV output path")
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("train", help="train the conv model on dataset files")
    p.add_argument("--scheme", required=True, help="scheme input path")
    p.add_argument("--train-data", required=True, help="training dataset CSV")
    p.add_argument("--test-data", required=True, help="test dataset CSV")
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics-out", required=True, help="per-epoch metrics CSV output")
    p.add_argument("--checkpoint-out", default=None, help="optional parameter dump output")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_args(args)
        return args.func(args)
    except (
        UsageError,
        GraphError,
        TranslationError,
        SchemeError,
        PlacementFormatError,
        net.NetError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
