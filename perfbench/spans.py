"""Outside-in tracing: wrap gcforge's public functions where the pipeline
looks them up, keep one span per call in memory, and derive the per-layer
metrics from the spans afterwards.

A span is ``[id, name, start, end, parent, live_slots]``. ``parent`` is the
id of the innermost open span when the call began (-1 at the top), so
self time is a span's duration minus its direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# (module[:class], attribute, span name). Functions the CLI imported by
# name are patched in gcforge.cli, where it looks them up, and the search
# in gcforge.propagation; a missing attribute fails the traced run, so a
# moved call site cannot show its layer as free.
TARGETS = (
    ("gcforge.cli", "load_coordinates", "graph.load_coordinates"),
    ("gcforge.cli", "infer_knn_graph", "graph.infer_knn_graph"),
    ("gcforge.cli", "load_edge_list", "graph.load_edge_list"),
    ("gcforge.cli", "most_central_vertex", "propagation.most_central_vertex"),
    ("gcforge.cli", "propagate", "propagation.propagate"),
    ("gcforge.cli", "serialize_placements", "propagation.serialize_placements"),
    ("gcforge.cli", "parse_placements", "propagation.parse_placements"),
    ("gcforge.propagation", "find_local_translation", "translations.find_local_translation"),
    ("gcforge.cli", "build_scheme", "layer.build_scheme"),
    ("gcforge.cli", "export_scheme", "layer.export_scheme"),
    ("gcforge.cli", "import_scheme", "layer.import_scheme"),
    ("gcforge.cli", "verify_grid_equivalence", "layer.verify_grid_equivalence"),
    ("gcforge.net", "make_translated_dataset", "net.make_translated_dataset"),
    ("gcforge.net", "dataset_to_csv", "net.dataset_to_csv"),
    ("gcforge.net", "dataset_from_csv", "net.dataset_from_csv"),
    ("gcforge.net", "train", "net.train"),
    ("gcforge.net:ConvLayer", "forward", "net.ConvLayer.forward"),
    ("gcforge.net:ConvLayer", "backward", "net.ConvLayer.backward"),
    ("gcforge.net:Dense", "forward", "net.Dense.forward"),
    ("gcforge.net:Dense", "backward", "net.Dense.backward"),
    ("gcforge.net:Model", "sgd_step", "net.Model.sgd_step"),
    ("gcforge.net:Model", "accuracy", "net.Model.accuracy"),
)

# spans each stage must record at least once under its own cli.<stage> span
STAGE_LAYERS = {
    "infer-graph": ("graph.load_coordinates", "graph.infer_knn_graph"),
    "translate": ("graph.load_edge_list", "propagation.most_central_vertex",
                  "propagation.propagate", "translations.find_local_translation",
                  "propagation.serialize_placements"),
    "build-layer": ("propagation.parse_placements", "layer.build_scheme", "layer.export_scheme"),
    "verify-grid": ("layer.import_scheme", "layer.verify_grid_equivalence"),
    "make-dataset": ("graph.load_edge_list", "propagation.parse_placements",
                     "net.make_translated_dataset", "net.dataset_to_csv"),
    "train": ("layer.import_scheme", "net.dataset_from_csv", "net.train",
              "net.ConvLayer.forward", "net.ConvLayer.backward", "net.Dense.forward",
              "net.Dense.backward", "net.Model.sgd_step", "net.Model.accuracy"),
}

SEARCH = "translations.find_local_translation"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        span = [sid, name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self.spans.append(span)
        self._open.append(sid)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()
            if name == SEARCH:
                placement = args[1] if len(args) > 1 else kwargs["placement"]
                span[5] = sum(s is not None for s in placement.slots)

    def install(self) -> None:
        for owner_path, attr, name in TARGETS:
            module, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def missing_layers(spans: list[list], stage_span: int, kind: str) -> list[str]:
    """Layers ``kind`` must exercise that recorded no call under the stage's span."""
    parent = {s[0]: s[4] for s in spans}
    seen = set()
    for s in spans:
        p = s[4]
        while p != -1 and p != stage_span:
            p = parent[p]
        if p == stage_span:
            seen.add(s[1])
    return [name for name in STAGE_LAYERS[kind] if name not in seen]


def _quantile(sorted_values: list[float], q: float) -> float:
    # nearest rank
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans: list[list], names: list[str], vertices: int) -> dict[str, float]:
    """Compute each per-layer metric in ``names`` from one traced repetition.

    A name is ``<span>.<stat>``; a layer the repetition never called reads 0.
    ``trace.overhead_s`` is left to the caller, which has the untraced run.
    """
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent != -1:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for sid, name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    live = [s[5] for s in spans if s[1] == SEARCH]

    out: dict[str, float] = {}
    for metric in names:
        if metric == "trace.overhead_s":
            continue
        if metric == "translations.live_slots_max":
            out[metric] = max(live, default=0)
            continue
        span, _, stat = metric.rpartition(".")
        d = sorted(durations.get(span, []))
        total = sum(d)
        if stat == "calls":
            value = len(d)
        elif stat == "calls_per_vertex":
            value = len(d) / vertices
        elif stat in ("s", "total_s"):
            value = total
        elif stat == "self_s":
            value = self_time.get(span, 0.0)
        elif stat in ("p50_us", "p90_us", "p99_us"):
            value = _quantile(d, int(stat[1:3]) / 100) * 1e6
        elif stat == "max_us":
            value = (d[-1] if d else 0.0) * 1e6
        elif stat == "top1pct_share":
            top = d[len(d) - math.ceil(0.01 * len(d)):]
            value = sum(top) / total if total > 0 else 0.0
        else:
            raise ValueError(f"cannot derive per-layer metric {metric!r}")
        out[metric] = value
    return out
