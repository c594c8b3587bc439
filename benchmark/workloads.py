"""The benchmark's workloads: set-up, one closed-loop op, and output checks.

An infer-* op is one scan, run the way `dentalmesh infer` runs it: load the
OFF file, preprocess, two-stage inference, save the labelled mesh and its
annotation. A train-seg op is one training scan-epoch: one ToothSegNet
step on an augmented arch, then one PointHeatmapNet step on each of that
arch's landmark-bearing tooth ROIs.

The library only ever sees the generated inputs; ground truth stays on the
benchmark's side and is used for the checks and the quality figures.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dentalmesh import (
    autodiff as ad,
    config,
    evaluation,
    geometry,
    landmarks as lm,
    mesh_io,
    networks,
    pipeline,
    synth,
    training,
)

ORACLE_NOISE = 0.10


@dataclass(frozen=True)
class Sizes:
    arches: int            # distinct arches per run; ops cycle through them
    fine_cells: int        # synthesis target of every arch
    coarse_cells: int = 400  # decimation target of the infer-* workloads
    seg_subsample: int = 1000  # cells per ToothSegNet training step
    setup_repeats: int = 3


WORKLOADS = {
    "infer-4k5": ("infer", Sizes(arches=5, fine_cells=4500)),
    "infer-9k": ("infer", Sizes(arches=4, fine_cells=9000)),
    "train-seg": ("train", Sizes(arches=4, fine_cells=4500)),
}


class OracleSegNet:
    """ToothSegNet(seed=0) run at full cost, answering with oracle-noisy probs.

    The real forward runs first, so its time is paid; the returned matrix is
    the one-hot of the coarse ground truth with a seeded share of cells moved
    to another class, so the graph cut, upsampler and stage 2 see the label
    structure a trained net would give them.
    """

    uses_graphs = True

    def __init__(self, net):
        self.net = net
        self.probs = None

    def forward(self, features, graph6=None, graph12=None, training=False):
        out = self.net.forward(features, graph6, graph12, training=training)
        if self.probs is None or self.probs.shape != out.data.shape:
            raise ValueError("oracle probabilities do not match the forward output")
        return ad.Tensor(self.probs)

    __call__ = forward


def oracle_labels(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noisy = truth.copy()
    hit = rng.random(truth.size) < ORACLE_NOISE
    shift = rng.integers(1, networks.NUM_CLASSES, size=int(hit.sum()))
    noisy[hit] = (noisy[hit] + shift) % networks.NUM_CLASSES
    return noisy


def heatmap_nets() -> dict:
    return {
        t: networks.PointHeatmapNet(seed=100 + t, out_channels=len(lm.landmark_names(t)))
        for t in pipeline.heatmap_position_types()
    }


def _dsc(pred, truth) -> float:
    return evaluation.seg_metrics(pred, truth).mean_dsc


class Stopwatch:
    """Wall seconds summed over the timed sections of one op."""

    def __init__(self):
        self.wall = 0.0

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - start


class Checks:
    """Counts output checks; failed ones are kept by name for the report."""

    def __init__(self):
        self.run = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.run += 1
        if not ok:
            self.failed.append(what)
        return bool(ok)


def check_inference(checks: Checks, result, num_cells: int) -> bool:
    labels = np.asarray(result.labels)
    trace = list(result.segmentation.energy_trace)
    expected = set(lm.all_landmark_keys())
    ok = checks.expect(labels.shape == (num_cells,), "one fine label per fine cell")
    ok &= checks.expect(
        labels.size > 0 and labels.min() >= 0 and labels.max() < networks.NUM_CLASSES,
        "fine labels in 0..14")
    ok &= checks.expect(all(b <= a for a, b in zip(trace, trace[1:])),
                        "energy trace non-increasing")
    ok &= checks.expect(not result.skipped_teeth, "no skipped teeth")
    ok &= checks.expect(set(result.landmarks) == expected,
                        "landmark count matches the schema")
    return ok


def check_training(checks: Checks, results, before, net) -> bool:
    losses = [v for r in results for v in r.loss_curve]
    ok = checks.expect(bool(losses) and all(np.isfinite(losses)), "training losses finite")
    ok &= checks.expect(
        any(not np.array_equal(a, p.data) for a, p in zip(before, net.parameters())),
        "parameters changed after the step")
    return ok


class InferWorkload:
    """Scans synthesised at sizes.fine_cells, decimated to sizes.coarse_cells."""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.cfg = config.RunConfig()

    def setup(self) -> None:
        specs = synth.default_specs(count=self.sizes.arches,
                                    target_cells=self.sizes.fine_cells,
                                    base_seed=self.seed)
        self.paths, self.truth = [], []
        for spec in specs:
            mesh, ann = synth.generate(spec)
            path = self.workdir / f"arch{spec.seed}.off"
            mesh_io.save_mesh(mesh, path)
            self.paths.append(path)
            self.truth.append(ann.labels)
        self.seg_net = OracleSegNet(networks.ToothSegNet(seed=0))
        self.heatmap_nets = heatmap_nets()
        (self.workdir / "out").mkdir(exist_ok=True)

    def cell_counts(self) -> dict:
        return {"fine_cells": [int(t.size) for t in self.truth],
                "coarse_target": self.sizes.coarse_cells}

    def op(self, i: int, tracer, checks: Checks, record: dict) -> Stopwatch | None:
        arch = i % self.sizes.arches
        path = self.paths[arch]
        clock = Stopwatch()
        with clock.timed():
            with tracer.span("mesh_io.load_mesh"):
                mesh = mesh_io.load_mesh(path)
            with tracer.span("pipeline.preprocess"):
                scan = pipeline.preprocess(mesh, None, self.sizes.coarse_cells)

        truth = self.truth[arch]
        coarse_truth = geometry.transfer_labels(scan.origin_map, truth,
                                                scan.coarse.num_cells)
        rng = np.random.default_rng([self.seed, arch])
        noisy = oracle_labels(coarse_truth, rng)
        self.seg_net.probs = networks.one_hot(noisy)

        with clock.timed():
            with tracer.span("pipeline.infer_two_stage"):
                result = pipeline.infer_two_stage(
                    self.seg_net, self.heatmap_nets, scan, lam=self.cfg.lam,
                    svm_c=self.cfg.svm_c, k_small=self.cfg.k_small,
                    k_large=self.cfg.k_large)
            with tracer.span("mesh_io.save"):
                out = self.workdir / "out" / path.stem
                positions = {key: value[0] for key, value in result.landmarks.items()}
                mesh_io.save_mesh(scan.fine, out.with_name(path.stem + "_labeled.off"))
                mesh_io.save_annotation(mesh_io.Annotation(result.labels, positions),
                                        out.with_name(path.stem + "_labeled.json"))

        ok = check_inference(checks, result, truth.size)
        if ok and arch not in record.setdefault("fine_dsc", {}):
            record["fine_dsc"][arch] = _dsc(result.labels, truth)
            record.setdefault("coarse_dsc_in", {})[arch] = _dsc(noisy, coarse_truth)
            record.setdefault("coarse_dsc_out", {})[arch] = _dsc(
                result.segmentation.coarse_labels, coarse_truth)
        record.setdefault("skipped_teeth", []).append(len(result.skipped_teeth))
        self.last_coarse = scan.coarse
        return clock if ok else None

    def layer_input(self):
        """Features and graphs of the last coarse mesh, as the pipeline builds them."""
        coarse = self.last_coarse
        feats = geometry.extract_features(coarse).matrix
        return (feats, geometry.knn_graph(coarse, self.cfg.k_small),
                geometry.knn_graph(coarse, self.cfg.k_large), False)


class TrainWorkload:
    """ToothSegNet and PointHeatmapNet steps at RunConfig defaults.

    Only the per-step cell subsample of the segmentation net is scaled down
    (sizes.seg_subsample instead of RunConfig.seg_subsample).
    """

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.cfg = config.RunConfig()

    def setup(self) -> None:
        specs = synth.default_specs(count=self.sizes.arches + 1,
                                    target_cells=self.sizes.fine_cells,
                                    base_seed=self.seed)
        self.samples, self.rois = [], []
        for spec in specs:
            mesh, ann = synth.generate(spec)
            scan = pipeline.preprocess(mesh, ann, self.cfg.target_cells)
            self.samples.append(training.SegSample(scan.coarse, scan.coarse_labels))
            rois = []
            for tooth in lm.landmark_teeth():
                roi = geometry.extract_roi(mesh, ann.labels, tooth)
                positions = {n: ann.landmarks[(tooth, n)] for n in lm.landmark_names(tooth)}
                rois.append(training.HeatmapSample(roi.mesh, tooth, positions))
            self.rois.append(rois)
        # the extra arch is the validation scan
        self.val = self.samples.pop()
        self.rois.pop()
        self.seg_net = networks.ToothSegNet(seed=0)
        self.heatmap_nets = heatmap_nets()

    def cell_counts(self) -> dict:
        return {"arch_cells": [s.mesh.num_cells for s in self.samples],
                "seg_subsample": self.sizes.seg_subsample,
                "roi_cells": [sum(r.mesh.num_cells for r in rois) for rois in self.rois]}

    def _common(self) -> dict:
        c = self.cfg
        return dict(epochs=1, lr=c.lr, augment_count=c.augment_count,
                    k_small=c.k_small, k_large=c.k_large,
                    betas=(c.beta1, c.beta2), adam_eps=c.adam_eps)

    def op(self, i: int, tracer, checks: Checks, record: dict) -> Stopwatch | None:
        arch = i % self.sizes.arches
        seed = self.seed * 100003 + i + 1  # the warm-up op has i = -1
        before = [p.data.copy() for p in self.seg_net.parameters()]
        clock = Stopwatch()
        with clock.timed():
            with tracer.span("training.train_segmentation"):
                seg = training.train_segmentation(
                    self.seg_net, [self.samples[arch]], seed=seed,
                    subsample=self.sizes.seg_subsample, **self._common())
        seg_s = clock.wall
        results, lmk_s = [seg], []
        for roi in self.rois[arch]:
            net = self.heatmap_nets[pipeline.position_type(roi.tooth_id)]
            start = clock.wall
            with clock.timed(), tracer.span("training.train_heatmap"):
                results.append(training.train_heatmap(
                    net, [roi], seed=seed, subsample=self.cfg.roi_subsample,
                    sigma=self.cfg.sigma, peak=self.cfg.peak, **self._common()))
            lmk_s.append(clock.wall - start)

        ok = check_training(checks, results, before, self.seg_net)
        if ok:
            record.setdefault("seg_step_s", []).append(seg_s)
            record.setdefault("lmk_step_s", []).extend(lmk_s)
        return clock if ok else None

    def validate(self) -> float:
        """One validation pass as eval runs it: predict_labels on a whole arch."""
        start = time.perf_counter()
        training.predict_labels(self.seg_net, self.val.mesh, self.cfg.k_small,
                                self.cfg.k_large)
        return time.perf_counter() - start

    def layer_input(self):
        """One training step's input: un-augmented arch, cell subsample, graphs."""
        sample = self.samples[0]
        rng = np.random.default_rng(self.seed)
        idx = np.sort(rng.choice(sample.mesh.num_cells,
                                 size=min(self.sizes.seg_subsample, sample.mesh.num_cells),
                                 replace=False))
        feats = geometry.extract_features(sample.mesh).matrix[idx]
        points = sample.mesh.cell_barycenters[idx]
        return (feats, geometry.knn_graph(points, self.cfg.k_small),
                geometry.knn_graph(points, self.cfg.k_large), True)


def make(name: str, seed: int, workdir: Path, sizes: Sizes | None = None):
    kind, default = WORKLOADS[name]
    sizes = sizes or default
    cls = InferWorkload if kind == "infer" else TrainWorkload
    return cls(sizes, seed, workdir)

