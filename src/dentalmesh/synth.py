"""Parametric synthetic dental arches with exact labels and landmarks.

An arch is a curved band swept along a parabolic midline, rendered as a
regular (arc, cross) grid height field, which keeps the surface manifold by
construction. Fourteen crown bumps sit on a low gingival roll; each crown is
a superellipse dome, max(0, 1 - s^4 - t^4) * (H + cusp bumps), in per-tooth
local coordinates, so cell labels and landmark positions come straight from
the generating functions instead of any post-hoc surface analysis.

Landmark placement follows the tooth-position schema: mesial/distal contact
points sit at the crown's mesial/distal extremes at 2/3 height (the dome
passes through 2/3 H exactly at s = (1/3)^(1/4)), gingival points low on the
palatal/labial walls, lingual "angle" corners on the 2/3-height level line,
and cusp landmarks at true bump apices found by gradient ascent on the
analytic height.

"Same spec -> identical arch" holds on one machine and numpy build. The
height of a single point (`_point_height`, used by the apex ascent and for
every landmark's z) takes its powers from libm `pow` and its exponentials
from numpy's vectorised `exp`, and either may round the last bit
differently on another platform, which can move an apex and so a landmark.
`_point_height` uses `math.pow` with `np.exp` because that is what numpy
computes for a point held as np.float64 scalars, so a landmark keeps the
bits it had when the height was evaluated that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from . import landmarks as lm
from .errors import GenerationError
from .mesh_io import Annotation, TriMesh

BAND_DEPTH = 18.0
SLOT_GAP = 0.6
MIDLINE_MARGIN = 0.3
END_MARGIN = 2.0
GINGIVA_AMPLITUDE = 1.5
GINGIVA_SIGMA = 4.5
CUSP_SIGMA = 0.30
NOISE_MM = 0.02
CONTACT_HEIGHT_FRACTION = 2.0 / 3.0
GINGIVAL_POINT_FRACTION = 0.15
LABEL_DILATION_MM = 0.8
_CURVE_SAMPLES = 4001
_MAX_ROTATION_DEG = 12.0


@dataclass(frozen=True)
class _ToothShape:
    half_width: float  # along the arch, mm
    half_depth: float  # across the arch, mm
    height: float  # crown height over the gum, mm
    cusps: tuple[tuple[float, float, float], ...]  # (s, t, amplitude)


# Base crown geometry per tooth position (1 = central incisor .. 7 = second
# molar). Cusp sites are in local (s, t) units: s > 0 mesial, t > 0 buccal.
_TOOTH_SHAPES = {
    1: _ToothShape(3.7, 3.1, 7.5, ((0.0, 0.0, 1.2),)),
    2: _ToothShape(2.8, 2.9, 7.0, ((0.0, 0.0, 1.1),)),
    3: _ToothShape(3.3, 3.6, 8.3, ((0.0, 0.0, 1.8),)),
    4: _ToothShape(3.0, 4.0, 7.2, ((0.0, 0.45, 1.5), (0.0, -0.45, 1.2))),
    5: _ToothShape(2.9, 3.9, 7.0, ((0.0, 0.45, 1.4), (0.0, -0.45, 1.2))),
    6: _ToothShape(
        4.6,
        4.9,
        6.8,
        (
            (0.42, 0.42, 1.6),
            (-0.42, 0.42, 1.6),
            (0.42, -0.42, 1.3),
            (-0.42, -0.42, 1.3),
        ),
    ),
    7: _ToothShape(
        4.3,
        4.6,
        6.5,
        (
            (0.42, 0.42, 1.5),
            (-0.42, 0.42, 1.5),
            (0.42, -0.42, 1.2),
            (-0.42, -0.42, 1.2),
        ),
    ),
}


@dataclass(frozen=True)
class ArchSpec:
    """Input of one synthetic arch; generation is a pure function of this."""

    width: float = 80.0
    depth: float = 45.0
    size_jitter: float = 0.07
    rotation_jitter: float = 6.0  # degrees
    missing: tuple[int, ...] = ()
    target_cells: int = 12000
    seed: int = 0

    def validate(self) -> None:
        if self.width <= 20.0 or self.depth <= 10.0:
            raise GenerationError(
                f"arch {self.width} x {self.depth} mm is too small for a dentition"
            )
        if not 0.0 <= self.size_jitter < 0.5:
            raise GenerationError(f"size jitter {self.size_jitter} outside [0, 0.5)")
        if not 0.0 <= self.rotation_jitter <= _MAX_ROTATION_DEG:
            raise GenerationError(
                f"rotation jitter {self.rotation_jitter} outside [0, {_MAX_ROTATION_DEG}] deg"
            )
        # below ~4500 cells the grid undersamples cusp curvature and landmarks
        # drift past 0.5 mm from the triangulated surface
        if self.target_cells < 4500:
            raise GenerationError(f"target of {self.target_cells} cells is too coarse")
        for tooth in self.missing:
            if not 1 <= tooth <= lm.NUM_TEETH:
                raise GenerationError(f"missing-tooth id {tooth} outside 1..14")


@dataclass
class _ToothInstance:
    tooth_id: int
    center_arc: float  # signed arc position of the slot center, mm
    mesial: np.ndarray  # unit vector in (arc, cross) coords
    buccal: np.ndarray
    half_width: float
    half_depth: float
    height: float
    cusps: tuple[tuple[float, float, float], ...]


class _ArchCurve:
    """Arc-length tables for the parabolic midline y = depth (1 - (2x/w)^2)."""

    def __init__(self, width: float, depth: float):
        x = np.linspace(-width / 2.0, width / 2.0, _CURVE_SAMPLES)
        slope = -8.0 * depth * x / width**2
        speed = np.sqrt(1.0 + slope**2)
        step = x[1] - x[0]
        arc = np.concatenate(
            [[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * step)]
        )
        self.x = x
        self.y = depth * (1.0 - (2.0 * x / width) ** 2)
        self.arc = arc - arc[_CURVE_SAMPLES // 2]  # signed, 0 at the midline
        self.slope = slope
        self.half_arc = float(self.arc[-1])
        bend = 8.0 * depth / width**2
        self.max_curvature = float(np.max(bend / speed**3))

    def embed(self, arc_pos: np.ndarray, cross: np.ndarray, height: np.ndarray) -> np.ndarray:
        """(arc, cross, height) band coordinates -> 3D points."""
        x = np.interp(arc_pos, self.arc, self.x)
        y = np.interp(arc_pos, self.arc, self.y)
        slope = np.interp(arc_pos, self.arc, self.slope)
        speed = np.sqrt(1.0 + slope**2)
        nx = -slope / speed
        ny = 1.0 / speed
        return np.stack(
            [x + cross * nx, y + cross * ny, np.asarray(height, dtype=np.float64)],
            axis=-1,
        )


def _place_teeth(spec: ArchSpec, curve: _ArchCurve, rng: np.random.Generator) -> list[_ToothInstance]:
    """All 14 slots with per-tooth jitter; missing teeth are dropped later.

    Jitter draws happen for every slot in id order so that the same seed
    yields identical surviving teeth whatever the missing mask says.
    """
    # worst-case arc footprint: full-size tooth at the extreme jitter angle
    rot_cap = np.radians(spec.rotation_jitter)
    extents = []
    for pos in range(1, 8):
        shape = _TOOTH_SHAPES[pos]
        extents.append(
            shape.half_width * np.cos(rot_cap) + shape.half_depth * np.sin(rot_cap)
        )
    slot_widths = [2.0 * e + SLOT_GAP for e in extents]
    needed = MIDLINE_MARGIN + sum(slot_widths) + END_MARGIN
    if needed > curve.half_arc:
        raise GenerationError(
            f"arch {spec.width} x {spec.depth} mm has {curve.half_arc:.1f} mm of arc "
            f"per side but the dentition needs {needed:.1f} mm"
        )
    centers = []
    cursor = MIDLINE_MARGIN
    for pos in range(1, 8):
        centers.append(cursor + slot_widths[pos - 1] / 2.0)
        cursor += slot_widths[pos - 1]
    teeth = []
    for tooth_id in range(1, lm.NUM_TEETH + 1):
        pos = tooth_id if tooth_id <= 7 else tooth_id - 7
        side = -1.0 if tooth_id <= 7 else 1.0  # UR = negative arc
        scale = 1.0 - spec.size_jitter * (1.0 + rng.uniform(-1.0, 1.0))
        rot = np.radians(spec.rotation_jitter) * rng.uniform(-1.0, 1.0)
        shape = _TOOTH_SHAPES[pos]
        cos_r, sin_r = np.cos(rot), np.sin(rot)
        mesial = np.array([-side * cos_r, -side * sin_r])
        buccal = np.array([-sin_r, cos_r])
        teeth.append(
            _ToothInstance(
                tooth_id=tooth_id,
                center_arc=side * centers[pos - 1],
                mesial=mesial,
                buccal=buccal,
                half_width=shape.half_width * scale,
                half_depth=shape.half_depth * scale,
                height=shape.height * scale,
                cusps=shape.cusps,
            )
        )
    return [t for t in teeth if t.tooth_id not in spec.missing]


def _local_coords(tooth: _ToothInstance, arc_pos: np.ndarray, cross: np.ndarray):
    da = arc_pos - tooth.center_arc
    db = cross  # teeth are centered on the band midline
    s = (da * tooth.mesial[0] + db * tooth.mesial[1]) / tooth.half_width
    t = (da * tooth.buccal[0] + db * tooth.buccal[1]) / tooth.half_depth
    return s, t


def _crown_height(tooth: _ToothInstance, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    base = np.maximum(0.0, 1.0 - s**4 - t**4)
    relief = np.full_like(base, tooth.height)
    for cusp_s, cusp_t, amp in tooth.cusps:
        d2 = (s - cusp_s) ** 2 + (t - cusp_t) ** 2
        relief = relief + amp * np.exp(-d2 / (2.0 * CUSP_SIGMA**2))
    return base * relief


def _gingiva_height(cross: np.ndarray) -> np.ndarray:
    return GINGIVA_AMPLITUDE * np.exp(-((cross / GINGIVA_SIGMA) ** 2))


def _surface_height(teeth, arc_pos: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Analytic height of the scan surface over a grid of band coordinates
    (noise-free); `arc_pos` and `cross` have the same shape."""
    total = _gingiva_height(cross)
    for tooth in teeth:
        s, t = _local_coords(tooth, arc_pos, cross)
        total = total + _crown_height(tooth, s, t)
    return total


def _point_height(teeth, arc_pos: float, cross: float) -> float:
    """`_surface_height` at one band point, in Python floats.

    Each term is the value numpy computes for one point as numpy scalars:
    a power of an np.float64 scalar is libm `pow`, so powers go through
    `math.pow` (an array's x**4 and x**2 are rounded differently), while
    exp is numpy's own loop, so it stays `np.exp` (`math.exp` differs in
    the last bit). A crown whose dome factor is not positive adds +0.0 to a
    positive height and is skipped; so is one whose center lies more than
    2 (half_width + half_depth) away along the arc, which puts |s| or |t|
    past 2.
    """
    arc_pos, cross = float(arc_pos), float(cross)
    total = GINGIVA_AMPLITUDE * float(
        np.exp(-math.pow(cross / GINGIVA_SIGMA, 2.0))
    )
    for tooth in teeth:
        da = arc_pos - tooth.center_arc
        if abs(da) > 2.0 * (tooth.half_width + tooth.half_depth):
            continue
        s = (da * tooth.mesial[0] + cross * tooth.mesial[1]) / tooth.half_width
        t = (da * tooth.buccal[0] + cross * tooth.buccal[1]) / tooth.half_depth
        base = 1.0 - math.pow(s, 4.0) - math.pow(t, 4.0)
        if base <= 0.0:
            continue
        relief = tooth.height
        for cusp_s, cusp_t, amp in tooth.cusps:
            d2 = math.pow(s - cusp_s, 2.0) + math.pow(t - cusp_t, 2.0)
            relief = relief + amp * float(np.exp(-d2 / (2.0 * CUSP_SIGMA**2)))
        total = total + base * relief
    return total


def _check_overlap(teeth, arc_pos: np.ndarray, cross: np.ndarray) -> None:
    """Reject specs whose crowns geometrically intersect."""
    arc_pos = np.asarray(arc_pos, dtype=np.float64)
    owner = np.zeros(arc_pos.shape, dtype=np.int64)
    for tooth in teeth:
        s, t = _local_coords(tooth, arc_pos, cross)
        inside = (s**4 + t**4) < 1.0
        clash = inside & (owner != 0)
        if np.any(clash):
            other = int(owner[clash][0])
            raise GenerationError(
                f"crowns {lm.tooth_name(other)} and {lm.tooth_name(tooth.tooth_id)} "
                "overlap; reduce jitter or enlarge the arch"
            )
        owner[inside] = tooth.tooth_id


def _assign_labels(teeth, arc_pos: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Tooth id owning each point, 0 for gingiva.

    Labeling uses the crown support dilated by a fixed plan margin so that
    annotations include the whole crown wall and a sliver of gum at its foot
    whatever the grid pitch is; otherwise the labeled rim would quantize to
    the grid and strand low-wall landmarks next to gingiva cells. Points
    claimed by two dilated crowns (interproximal contact) go to the deeper
    one.
    """
    arc_pos = np.asarray(arc_pos, dtype=np.float64)
    owner = np.zeros(arc_pos.shape, dtype=np.int64)
    depth = np.full(arc_pos.shape, np.inf)
    for tooth in teeth:
        grow = 1.0 + LABEL_DILATION_MM / min(tooth.half_width, tooth.half_depth)
        s, t = _local_coords(tooth, arc_pos, cross)
        q = (s / grow) ** 4 + (t / grow) ** 4
        take = q < np.minimum(1.0, depth)
        owner[take] = tooth.tooth_id
        depth[take] = q[take]
    return owner


def _absorb_gum_pockets(
    labels: np.ndarray, pairs: np.ndarray, teeth, arc: np.ndarray, cross: np.ndarray
) -> np.ndarray:
    """Keep one gingiva component; stranded pockets join the deepest crown.

    Where dilated crowns meet at interproximal contacts they can pinch off a
    few gum cells; ground truth wants those counted as tooth wall, and the
    single-component gingiva invariant wants them gone. The largest gum
    component stays; of equally large ones, the one holding the lowest cell
    index does.
    """
    gum = np.where(labels == 0)[0]
    if gum.size == 0:
        return labels
    # every gum cell ends up labelled with the lowest cell index of its
    # component: pull the lesser label across each gum-gum pair, then jump
    # each label to its label's label
    both = (labels[pairs[:, 0]] == 0) & (labels[pairs[:, 1]] == 0)
    a, b = pairs[both, 0], pairs[both, 1]
    component = np.arange(labels.size)
    while True:
        before = component.copy()
        np.minimum.at(component, a, component[b])
        np.minimum.at(component, b, component[a])
        component = component[component]
        if np.array_equal(component, before):
            break
    roots = component[gum]
    main = np.argmax(np.bincount(roots))
    stranded = gum[roots != main]
    if stranded.size == 0:
        return labels
    out = labels.copy()
    for cell in stranded:
        best_q, best_id = np.inf, 0
        for tooth in teeth:
            grow = 1.0 + LABEL_DILATION_MM / min(tooth.half_width, tooth.half_depth)
            s, t = _local_coords(tooth, arc[cell], cross[cell])
            q = (s / grow) ** 4 + (t / grow) ** 4
            if q < best_q:
                best_q, best_id = q, tooth.tooth_id
        out[cell] = best_id
    return out


def _grid_dims(spec: ArchSpec, curve: _ArchCurve) -> tuple[int, int]:
    arc_len = 2.0 * curve.half_arc
    nv = max(6, round(np.sqrt(spec.target_cells * BAND_DEPTH / (2.0 * arc_len))))
    nu = max(24, round(spec.target_cells / (2.0 * nv)))
    cells = 2 * nu * nv
    if abs(cells - spec.target_cells) > 0.05 * spec.target_cells:
        raise GenerationError(
            f"cannot hit {spec.target_cells} cells within 5% (closest grid: {cells})"
        )
    return nu, nv


def _refine_apex(teeth, start: np.ndarray) -> np.ndarray:
    """Gradient-ascent the analytic height to the bump apex near `start`.

    The gradient is a central difference at the point, so it is taken again
    only after a step that moved the point.
    """
    point = start.astype(np.float64).copy()
    value = _point_height(teeth, point[0], point[1])
    step = 0.1
    h = 1e-6
    moved = True
    for _ in range(300):
        if moved:
            grad = np.array(
                [
                    _point_height(teeth, point[0] + h, point[1])
                    - _point_height(teeth, point[0] - h, point[1]),
                    _point_height(teeth, point[0], point[1] + h)
                    - _point_height(teeth, point[0], point[1] - h),
                ]
            ) / (2.0 * h)
            norm = float(np.linalg.norm(grad))
        if norm < 1e-12 or step < 1e-10:
            break
        candidate = point + step * grad / norm
        cand_value = _point_height(teeth, candidate[0], candidate[1])
        moved = cand_value > value
        if moved:
            point, value = candidate, cand_value
            step *= 1.2
        else:
            step *= 0.5
    return point


def _tooth_landmarks(tooth: _ToothInstance, teeth) -> dict[str, np.ndarray]:
    """Band-coordinate (arc, cross) positions for one tooth's schema names."""
    pos = tooth.tooth_id if tooth.tooth_id <= 7 else tooth.tooth_id - 7
    s23 = (1.0 - CONTACT_HEIGHT_FRACTION) ** 0.25
    r23 = ((1.0 - CONTACT_HEIGHT_FRACTION) / 2.0) ** 0.25
    sg = (1.0 - GINGIVAL_POINT_FRACTION) ** 0.25
    local: dict[str, tuple[float, float]] = {}
    names = lm.landmark_names(tooth.tooth_id)
    if "MCP" in names:
        local["MCP"] = (s23, 0.0)
        local["DCP"] = (-s23, 0.0)
    if "PGP" in names:
        local["PGP"] = (0.0, -sg)
    if "LGP" in names:
        local["LGP"] = (0.0, sg)
    if "MLA" in names:
        local["MLA"] = (r23, -r23)
        local["DLA"] = (-r23, -r23)

    def to_band(s: float, t: float) -> np.ndarray:
        offset = (
            s * tooth.half_width * tooth.mesial + t * tooth.half_depth * tooth.buccal
        )
        return np.array([tooth.center_arc + offset[0], offset[1]])

    out = {name: to_band(s, t) for name, (s, t) in local.items()}
    if pos == 3:
        out["CCT"] = _refine_apex(teeth, to_band(0.0, 0.0))
    if pos == 6:
        # buccal cusp pair; apex shifts a little off the nominal site because
        # the dome factor tilts the bump, hence the ascent
        mesial_site = to_band(0.42, 0.42)
        distal_site = to_band(-0.42, 0.42)
        out["MBC"] = _refine_apex(teeth, mesial_site)
        out["DBC"] = _refine_apex(teeth, distal_site)
    return out


def generate(spec: ArchSpec) -> tuple[TriMesh, Annotation]:
    """Build one arch; the same spec yields the identical mesh and annotation
    on the same machine and numpy build (libm `pow` and numpy's `exp` may
    differ in the last bit across platforms; see the module docstring)."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    curve = _ArchCurve(spec.width, spec.depth)
    if curve.max_curvature * BAND_DEPTH / 2.0 >= 0.98:
        raise GenerationError(
            f"arch {spec.width} x {spec.depth} mm bends too sharply for an "
            f"{BAND_DEPTH} mm band (the inner edge would fold)"
        )
    teeth = _place_teeth(spec, curve, rng)
    nu, nv = _grid_dims(spec, curve)
    arc_stations = np.linspace(-curve.half_arc, curve.half_arc, nu + 1)
    cross_stations = np.linspace(-BAND_DEPTH / 2.0, BAND_DEPTH / 2.0, nv + 1)
    arc_grid, cross_grid = np.meshgrid(arc_stations, cross_stations, indexing="ij")

    _check_overlap(teeth, arc_grid, cross_grid)
    height = _surface_height(teeth, arc_grid, cross_grid)
    height = height + rng.normal(0.0, NOISE_MM, size=height.shape)
    vertices = curve.embed(arc_grid, cross_grid, height).reshape(-1, 3)

    # two triangles per grid quad; winding keeps normals pointing up/outward
    idx = np.arange((nu + 1) * (nv + 1)).reshape(nu + 1, nv + 1)
    v00 = idx[:-1, :-1].ravel()
    v10 = idx[1:, :-1].ravel()
    v11 = idx[1:, 1:].ravel()
    v01 = idx[:-1, 1:].ravel()
    cells = np.stack(
        [
            np.stack([v00, v10, v11], axis=1),
            np.stack([v00, v11, v01], axis=1),
        ],
        axis=1,
    ).reshape(-1, 3)
    mesh = TriMesh(vertices, cells)

    arc_flat = arc_grid.ravel()
    cross_flat = cross_grid.ravel()
    cell_arc = arc_flat[cells].mean(axis=1)
    cell_cross = cross_flat[cells].mean(axis=1)
    labels = _assign_labels(teeth, cell_arc, cell_cross)
    labels = _absorb_gum_pockets(
        labels, geometry.cell_adjacency(mesh), teeth, cell_arc, cell_cross
    )

    landmark_map: dict[tuple[int, str], np.ndarray] = {}
    for tooth in teeth:
        for name, band_point in _tooth_landmarks(tooth, teeth).items():
            z = _point_height(teeth, band_point[0], band_point[1])
            landmark_map[(tooth.tooth_id, name)] = curve.embed(
                band_point[0], band_point[1], z
            )
    ann = Annotation(labels=labels, landmarks=landmark_map)
    ann.validate(mesh.num_cells)
    return mesh, ann


def default_specs(
    count: int = 36, target_cells: int = 12000, base_seed: int = 0
) -> list[ArchSpec]:
    """Dataset recipe: full dentitions with mild deterministic shape spread."""
    specs = []
    for i in range(count):
        specs.append(
            ArchSpec(
                width=80.0 + 1.5 * (i % 5),
                depth=45.0 + 1.5 * ((i // 5) % 3),
                target_cells=target_cells,
                seed=base_seed + i,
            )
        )
    return specs
