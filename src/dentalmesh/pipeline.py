"""Two-stage inference: segment the coarse scan, then localize landmarks.

Stage 1 runs the segmentation network on the decimated mesh, refines the
probabilities with the graph cut, and carries the labels back to the full
mesh with the RBF-SVM upsampler. The refinement and the upsampling live in
refine_and_upsample alone, which also serves callers that bring their own
probabilities, so how coarse labels reach the full mesh is decided in this
module only. Stage 2 crops one ROI per predicted tooth and decodes landmark
positions from the per-tooth heatmap regressor.

Heatmap nets are shared between mirrored tooth pairs: UR4 and UL4 carry the
same landmark schema, so nets are keyed by position type 1..7 and trained on
ROIs from both quadrants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import landmarks as lm
from .config import RunConfig
from .geometry import decimate, extract_roi, nearest_rows, transfer_labels
from .landmarks import position_type  # heatmap nets are keyed by it
from .mesh_io import Annotation, TriMesh
from .postprocess import build_energy, refine_labels
from .svm import LabelUpsampler
from .training import network_output, segmentation_probabilities

MIN_ROI_CELLS = 4  # smaller tooth crops are skipped in stage 2


def heatmap_position_types() -> tuple[int, ...]:
    """Position types that carry at least one landmark (Table 1 pattern)."""
    return tuple(t for t in range(1, 8) if lm.landmark_names(t))


@dataclass
class PreprocessedScan:
    """Full-resolution mesh with its decimated counterpart.

    origin_map maps every fine cell to one coarse cell, the one with the
    nearest barycenter (nearest_rows; arange when decimation was an
    identity pass). It is found the first time it is read, so a caller
    that never reads it, such as `dentalmesh infer`, never pays for it.
    coarse_labels are the fine labels carried down through origin_map by
    majority vote; None when the scan has no annotation.
    """

    fine: TriMesh
    coarse: TriMesh
    coarse_labels: np.ndarray | None = None

    @cached_property
    def origin_map(self) -> np.ndarray:
        if self.coarse is self.fine:
            return np.arange(self.fine.num_cells, dtype=np.int64)
        return nearest_rows(self.fine.cell_barycenters, self.coarse.cell_barycenters)


def preprocess(mesh: TriMesh, ann: Annotation | None = None,
               target_cells: int = RunConfig.target_cells) -> PreprocessedScan:
    scan = PreprocessedScan(mesh, decimate(mesh, target_cells).coarse)
    if ann is not None:
        scan.coarse_labels = transfer_labels(scan.origin_map, ann.labels,
                                             scan.coarse.num_cells)
    return scan


@dataclass
class SegmentationResult:
    probabilities: np.ndarray
    coarse_labels: np.ndarray
    fine_labels: np.ndarray
    energy_trace: list = field(default_factory=list)


def refine_and_upsample(coarse_mesh: TriMesh, probs: np.ndarray, fine_mesh: TriMesh,
                        lam: float = RunConfig.lam,
                        svm_c: float = RunConfig.svm_c) -> SegmentationResult:
    """Graph-cut refinement of coarse probabilities, then SVM upsampling of
    the refined labels onto the fine mesh's cells."""
    model = build_energy(coarse_mesh, probs, lam)
    refined = refine_labels(model)
    upsampler = LabelUpsampler(c=svm_c)
    upsampler.fit(coarse_mesh.cell_barycenters, refined)
    fine_labels = upsampler.predict(fine_mesh.cell_barycenters)
    return SegmentationResult(probs, refined, fine_labels, model.energy_trace)


def segment_scan(seg_net, coarse_mesh: TriMesh, fine_mesh: TriMesh,
                 lam: float = RunConfig.lam, svm_c: float = RunConfig.svm_c,
                 k_small: int = RunConfig.k_small,
                 k_large: int = RunConfig.k_large) -> SegmentationResult:
    """Stage 1: network probabilities, then refine_and_upsample."""
    probs = segmentation_probabilities(seg_net, coarse_mesh, k_small, k_large)
    return refine_and_upsample(coarse_mesh, probs, fine_mesh, lam=lam, svm_c=svm_c)


def locate_landmarks(heatmap_nets: dict, mesh: TriMesh, labels: np.ndarray,
                     k_small: int = RunConfig.k_small,
                     k_large: int = RunConfig.k_large) -> tuple[dict, list]:
    """Stage 2: per-tooth ROI crop, heatmap regression, argmax decode.

    heatmap_nets maps position type -> regressor. Returns (landmarks,
    skipped): landmarks keyed (tooth_id, name) -> (position, confidence,
    low_confidence flag); skipped lists tooth ids that carry landmarks but
    could not be processed (absent from labels, ROI too small, or no net).
    """
    landmarks: dict = {}
    skipped: list = []
    for tooth in range(1, lm.NUM_TEETH + 1):
        names = lm.landmark_names(tooth)
        if not names:
            continue
        roi = extract_roi(mesh, labels, tooth)
        if roi is None or roi.mesh.num_cells < MIN_ROI_CELLS:
            skipped.append(tooth)
            continue
        net = heatmap_nets.get(position_type(tooth))
        if net is None:
            skipped.append(tooth)
            continue
        heat = network_output(net, roi.mesh, k_small, k_large)
        decoded = lm.decode_heatmaps(roi.mesh.cell_barycenters, tooth, heat)
        for name, estimate in decoded.items():
            landmarks[(tooth, name)] = estimate
    return landmarks, skipped


@dataclass
class InferenceResult:
    segmentation: SegmentationResult
    labels: np.ndarray
    landmarks: dict
    skipped_teeth: list


def infer_two_stage(seg_net, heatmap_nets: dict, scan: PreprocessedScan,
                    lam: float = RunConfig.lam, svm_c: float = RunConfig.svm_c,
                    k_small: int = RunConfig.k_small,
                    k_large: int = RunConfig.k_large) -> InferenceResult:
    """Full pipeline on one preprocessed scan."""
    seg = segment_scan(seg_net, scan.coarse, scan.fine, lam=lam, svm_c=svm_c,
                       k_small=k_small, k_large=k_large)
    landmarks, skipped = locate_landmarks(heatmap_nets, scan.fine, seg.fine_labels,
                                          k_small=k_small, k_large=k_large)
    return InferenceResult(seg, seg.fine_labels, landmarks, skipped)


def single_stage_landmarks(net, mesh: TriMesh, k_small: int = RunConfig.k_small,
                           k_large: int = RunConfig.k_large) -> dict:
    """Whole-scan heatmap regression; no ROI cropping, one argmax per column.

    Columns follow lm.all_landmark_keys(): every landmark of every tooth,
    each tooth's columns in a block that lm.decode_heatmaps reads.
    """
    layout = lm.all_landmark_keys()
    heat = network_output(net, mesh, k_small, k_large)
    if heat.shape[1] != len(layout):
        raise ValueError(
            f"single-stage net emits {heat.shape[1]} columns, "
            f"schema needs {len(layout)}"
        )
    bary = mesh.cell_barycenters
    result = {}
    col = 0
    for tooth in lm.landmark_teeth():
        width = len(lm.landmark_names(tooth))
        decoded = lm.decode_heatmaps(bary, tooth, heat[:, col : col + width])
        result.update(((tooth, name), value) for name, value in decoded.items())
        col += width
    return result
