"""Tooth naming, the per-tooth landmark schema, and heatmap encode/decode.

Label convention used everywhere in the package: 0 is gingiva, 1..7 are the
upper-right teeth UR1..UR7 (central incisor outward to second molar), 8..14
are the upper-left teeth UL1..UL7. Landmarks exist on five tooth positions
per side; second premolars (5) and second molars (7) carry none.

Heatmaps are per-cell Gaussian activations of landmark proximity: a cell with
barycenter c scores peak * exp(-|c - x|^2 / (2 sigma^2)) for a landmark at x.
Decoding takes the barycenter of the argmax cell per column.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import SchemaError, ShapeError

NUM_TEETH = 14
GINGIVA = 0

# Landmark names per tooth position (same both sides). Order is fixed: it is
# the heatmap column order and the order used in reports.
_POSITION_SCHEMA = {
    1: ("DCP", "MCP", "PGP", "LGP"),
    2: ("DCP", "MCP", "PGP", "LGP"),
    3: ("DCP", "MCP", "CCT"),
    4: ("MLA", "DLA", "PGP", "MCP", "DCP"),
    5: (),
    6: ("MLA", "DLA", "MBC", "DBC", "MCP", "DCP"),
    7: (),
}

LOW_CONFIDENCE = 0.1


def position_type(tooth_id: int) -> int:
    """Position 1..7 of a tooth on its side; mirrored teeth share it (UR4
    and UL4 are both 4)."""
    if not 1 <= tooth_id <= NUM_TEETH:
        raise SchemaError(f"tooth id {tooth_id} outside 1..{NUM_TEETH}")
    return (tooth_id - 1) % 7 + 1


def tooth_name(tooth_id: int) -> str:
    return f"{'UR' if tooth_id <= 7 else 'UL'}{position_type(tooth_id)}"


def tooth_id_from_name(name: str) -> int:
    side, pos = name[:2], name[2:]
    try:
        pos = int(pos)
    except ValueError:
        raise SchemaError(f"malformed tooth name {name!r}") from None
    if side == "UR" and 1 <= pos <= 7:
        return pos
    if side == "UL" and 1 <= pos <= 7:
        return pos + 7
    raise SchemaError(f"unknown tooth name {name!r}")


def landmark_names(tooth_id: int) -> tuple[str, ...]:
    """Landmark names for one tooth, in heatmap column order."""
    return _POSITION_SCHEMA[position_type(tooth_id)]


def landmark_teeth() -> tuple[int, ...]:
    """Tooth ids that carry landmarks, ascending."""
    return tuple(t for t in range(1, NUM_TEETH + 1) if landmark_names(t))


def all_landmark_keys() -> list[tuple[int, str]]:
    """Every (tooth_id, landmark_name) pair in canonical order."""
    keys = []
    for t in range(1, NUM_TEETH + 1):
        for name in landmark_names(t):
            keys.append((t, name))
    return keys


def landmark_key(tooth_id: int, name: str) -> str:
    """String form used in annotation JSON, e.g. 'UR1.DCP'."""
    return f"{tooth_name(tooth_id)}.{name}"


def parse_landmark_key(key: str) -> tuple[int, str]:
    parts = key.split(".")
    if len(parts) != 2:
        raise SchemaError(f"malformed landmark key {key!r}")
    tooth = tooth_id_from_name(parts[0])
    name = parts[1]
    if name not in landmark_names(tooth):
        raise SchemaError(
            f"landmark {name!r} not defined for tooth {parts[0]}"
        )
    return tooth, name


def encode_heatmaps(
    barycenters: np.ndarray,
    tooth_id: int,
    positions: dict[str, np.ndarray],
    sigma: float = RunConfig.sigma,
    peak: float = RunConfig.peak,
) -> np.ndarray:
    """Gaussian heatmap targets for one tooth's landmarks.

    barycenters is (N, 3); positions maps landmark name -> 3D point. Returns
    (N, L) with one column per schema landmark of the tooth. Landmarks absent
    from `positions` get an all-zero column.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    names = landmark_names(tooth_id)
    bary = np.asarray(barycenters, dtype=np.float64)
    out = np.zeros((bary.shape[0], len(names)), dtype=np.float64)
    for col, name in enumerate(names):
        if name not in positions:
            continue
        point = np.asarray(positions[name], dtype=np.float64)
        d2 = np.sum((bary - point) ** 2, axis=1)
        out[:, col] = peak * np.exp(-d2 / (2.0 * sigma * sigma))
    return out


def decode_heatmaps(
    barycenters: np.ndarray,
    tooth_id: int,
    heatmaps: np.ndarray,
) -> dict[str, tuple[np.ndarray, float, bool]]:
    """Argmax decode: landmark name -> (position, confidence, low_confidence).

    Position is the barycenter of the cell with the largest activation in
    that column (ties resolved toward the lowest cell index). Confidence is
    the activation itself; columns peaking below LOW_CONFIDENCE are
    flagged rather than dropped.
    """
    names = landmark_names(tooth_id)
    heat = np.asarray(heatmaps, dtype=np.float64)
    bary = np.asarray(barycenters, dtype=np.float64)
    if heat.ndim != 2 or heat.shape != (bary.shape[0], len(names)):
        raise ShapeError(
            f"heatmap shape {heat.shape} does not match "
            f"({bary.shape[0]}, {len(names)}) for tooth {tooth_name(tooth_id)}"
        )
    result = {}
    for col, name in enumerate(names):
        idx = int(np.argmax(heat[:, col]))
        conf = float(heat[idx, col])
        result[name] = (bary[idx].copy(), conf, conf < LOW_CONFIDENCE)
    return result
