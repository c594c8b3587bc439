"""In-memory span recorder that wraps dentalmesh entry points from outside.

Each entry point is replaced, in the namespace its caller looks it up in,
by a wrapper that records a span (name, start, end, parent, op id) and
optionally a count taken from the call's arguments or result. Nothing in
the library changes: uninstall() puts every original back. An entry point
that no longer exists is skipped, so its span and counts simply vanish
from the report.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: object
    parent: int
    start: float
    end: float = 0.0


def _collapses(args, kwargs, out):
    return args[0].num_vertices - out[0].num_vertices


def _knn_edges(args, kwargs, out):
    return out.neighbors.size


def _roi_cells(args, kwargs, out):
    return 0 if out is None else out.mesh.num_cells


def _expansions(args, kwargs, out):
    return max(len(args[0].energy_trace) - 1, 0)


def _moves_accepted(args, kwargs, out):
    trace = args[0].energy_trace
    return sum(1 for a, b in zip(trace, trace[1:]) if b < a)


# (module, owner inside the module or "", attribute, span name, counters)
ENTRY_POINTS = (
    ("pipeline", "", "decimate", "geometry.decimate",
     (("geometry.collapses", _collapses),)),
    ("pipeline", "", "segment_scan", "pipeline.segment_scan", ()),
    ("pipeline", "", "segmentation_probabilities",
     "training.segmentation_probabilities", ()),
    ("pipeline", "", "build_energy", "postprocess.build_energy", ()),
    ("pipeline", "", "refine_labels", "postprocess.refine_labels",
     (("postprocess.expansions", _expansions),
      ("postprocess.moves_accepted", _moves_accepted))),
    ("svm", "LabelUpsampler", "fit", "svm.fit", ()),
    ("svm", "LabelUpsampler", "predict", "svm.predict", ()),
    ("pipeline", "", "locate_landmarks", "pipeline.locate_landmarks", ()),
    ("pipeline", "", "extract_roi", "geometry.extract_roi",
     (("geometry.roi_cells", _roi_cells),)),
    ("pipeline", "", "extract_features", "geometry.extract_features", ()),
    ("pipeline", "", "knn_graph", "geometry.knn_graph",
     (("geometry.knn_edges", _knn_edges),)),
    ("training", "", "extract_features", "geometry.extract_features", ()),
    ("training", "", "knn_graph", "geometry.knn_graph",
     (("geometry.knn_edges", _knn_edges),)),
    ("training", "", "apply_augmentation", "geometry.apply_augmentation", ()),
    ("training", "", "predict_labels", "training.predict_labels", ()),
    ("training", "", "generalized_dice_loss", "networks.generalized_dice_loss", ()),
    ("training", "", "mse_loss", "networks.mse_loss", ()),
    ("networks", "ToothSegNet", "forward", "networks.seg_forward", ()),
    ("networks", "PointHeatmapNet", "forward", "networks.heatmap_forward", ()),
    ("autodiff", "", "backward", "autodiff.backward", ()),
    ("autodiff", "AmsGrad", "step", "autodiff.amsgrad_step", ()),
    ("landmarks", "", "decode_heatmaps", "landmarks.decode_heatmaps", ()),
    ("landmarks", "", "encode_heatmaps", "landmarks.encode_heatmaps", ()),
)


def _resolve(module: str, owner: str):
    try:
        target = importlib.import_module(f"dentalmesh.{module}")
    except ImportError:
        return None
    return getattr(target, owner, None) if owner else target


class NullTracer:
    """Stand-in for untraced ops: spans cost one no-op context manager."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Collects spans and per-op counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, self.op, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.op][name] += value

    def _wrap(self, owner, attr: str, name: str, counters) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                out = original(*args, **kwargs)
            for counter, fn in counters:
                tracer.count(counter, fn(args, kwargs, out))
            return out

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        for module, owner, attr, name, counters in ENTRY_POINTS:
            target = _resolve(module, owner)
            if target is not None:
                self._wrap(target, attr, name, counters)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, op):
        """Installs the wrappers and tags every span and count with op."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op = None

    def self_times(self, ops) -> dict:
        """Seconds of self time per span name, summed over the given ops."""
        ops = set(ops)
        out: dict = defaultdict(float)
        for record in self.spans:
            if record.op in ops:
                out[record.name] += record.end - record.start
                if record.parent >= 0:
                    parent = self.spans[record.parent]
                    out[parent.name] -= record.end - record.start
        return dict(out)

    def top_level_seconds(self, op) -> float:
        return sum(s.end - s.start for s in self.spans if s.op == op and s.parent < 0)

    def to_json(self) -> list:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]
