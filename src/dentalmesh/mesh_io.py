"""Triangle mesh type and all on-disk formats.

Meshes load from OFF, OBJ, and ASCII STL; an OFF file's vertex and face
blocks are parsed in bulk, each number as float() or int() reads it.
Loading always welds duplicate vertices (coordinates quantized to a 1e-9
mm grid) and drops degenerate cells, so an STL file (which stores
per-facet vertices) comes back with shared connectivity. Coordinates are
written with shortest round-trip precision, so save -> load reproduces
float64 values bit-exactly.

Annotations are JSON: {"labels": [int per cell], "landmarks": {"UR1.DCP":
[x, y, z], ...}}. Checkpoints and matrix dumps are little-endian binary
containers with a JSON header followed by raw float64 payload.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import landmarks as lm
from .errors import CheckpointError, MeshFormatError, SchemaError

WELD_RESOLUTION = 1e-9  # mm
_DEGENERATE_AREA = 1e-14  # mm^2

_CHECKPOINT_MAGIC = b"DMCK"
_MATRIX_MAGIC = b"DMMX"
_CONTAINER_VERSION = 1


class TriMesh:
    """Immutable triangle surface mesh with cached derived geometry.

    vertices: (V, 3) float64, cells: (N, 3) int64 with right-handed winding
    (normals follow the winding). Derived arrays are computed lazily and
    cached; do not mutate the underlying arrays.
    """

    def __init__(self, vertices: np.ndarray, cells: np.ndarray):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError(f"cells must be (N, 3), got {self.cells.shape}")
        if self.num_cells and (self.cells.min() < 0 or self.cells.max() >= self.num_vertices):
            raise ValueError("cell indices out of vertex range")
        self._cache: dict[str, np.ndarray] = {}

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    def _corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v = self.vertices
        c = self.cells
        return v[c[:, 0]], v[c[:, 1]], v[c[:, 2]]

    @property
    def cell_barycenters(self) -> np.ndarray:
        if "bary" not in self._cache:
            a, b, c = self._corners()
            self._cache["bary"] = (a + b + c) / 3.0
        return self._cache["bary"]

    @property
    def cell_cross(self) -> np.ndarray:
        if "cross" not in self._cache:
            a, b, c = self._corners()
            self._cache["cross"] = np.cross(b - a, c - a)
        return self._cache["cross"]

    @property
    def cell_areas(self) -> np.ndarray:
        if "area" not in self._cache:
            self._cache["area"] = 0.5 * np.linalg.norm(self.cell_cross, axis=1)
        return self._cache["area"]

    @property
    def cell_normals(self) -> np.ndarray:
        if "normal" not in self._cache:
            cross = self.cell_cross
            norm = np.linalg.norm(cross, axis=1, keepdims=True)
            norm = np.where(norm == 0.0, 1.0, norm)
            self._cache["normal"] = cross / norm
        return self._cache["normal"]

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if "bbox" not in self._cache:
            self._cache["bbox"] = (self.vertices.min(axis=0), self.vertices.max(axis=0))
        return self._cache["bbox"]

    def submesh(self, cell_ids: np.ndarray) -> tuple["TriMesh", np.ndarray]:
        """Mesh restricted to `cell_ids`, plus the old->new vertex index map."""
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        cells = self.cells[cell_ids]
        used = np.unique(cells)
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(used.size)
        return TriMesh(self.vertices[used], remap[cells]), remap


@dataclass
class Annotation:
    """Per-cell labels plus named landmark positions.

    labels: (N,) int64 in 0..14; landmarks: (tooth_id, name) -> (3,) float64.
    """

    labels: np.ndarray
    landmarks: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.landmarks = {
            key: np.asarray(pos, dtype=np.float64) for key, pos in self.landmarks.items()
        }

    def validate(self, num_cells: int | None = None) -> None:
        if self.labels.ndim != 1:
            raise SchemaError(f"labels must be 1-D, got shape {self.labels.shape}")
        if num_cells is not None and self.labels.shape[0] != num_cells:
            raise SchemaError(
                f"{self.labels.shape[0]} labels for a mesh with {num_cells} cells"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() > lm.NUM_TEETH
        ):
            bad = self.labels[(self.labels < 0) | (self.labels > lm.NUM_TEETH)][0]
            raise SchemaError(f"label {bad} outside 0..{lm.NUM_TEETH}")
        for (tooth, name), pos in self.landmarks.items():
            if name not in lm.landmark_names(tooth):
                raise SchemaError(
                    f"landmark {name!r} not defined for tooth {lm.tooth_name(tooth)}"
                )
            if pos.shape != (3,) or not np.all(np.isfinite(pos)):
                raise SchemaError(f"bad position for {lm.landmark_key(tooth, name)}")


def _weld(vertices: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge vertices that coincide on the weld grid; reindex cells.

    Each group keeps its first vertex, and the kept vertices stay in the
    order of their first occurrence, so output indexing is deterministic.
    """
    if vertices.shape[0] == 0:
        return vertices, cells
    quantized = np.round(vertices / WELD_RESOLUTION).astype(np.int64)
    # equal rows sort next to each other, lowest index first (lexsort is stable)
    order = np.lexsort(quantized.T)
    grid = quantized[order]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = ((grid[1:, 0] != grid[:-1, 0]) | (grid[1:, 1] != grid[:-1, 1])
                | (grid[1:, 2] != grid[:-1, 2]))
    first = order[lead]
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    index = np.empty(order.size, dtype=np.int64)
    index[order] = rank[np.cumsum(lead) - 1]
    return vertices[np.sort(first)], index[cells]


def _drop_degenerate(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    if cells.shape[0] == 0:
        return cells
    distinct = (
        (cells[:, 0] != cells[:, 1])
        & (cells[:, 1] != cells[:, 2])
        & (cells[:, 0] != cells[:, 2])
    )
    a = vertices[cells[:, 0]]
    cross = np.cross(vertices[cells[:, 1]] - a, vertices[cells[:, 2]] - a)
    area = 0.5 * np.linalg.norm(cross, axis=1)
    return cells[distinct & (area > _DEGENERATE_AREA)]


def _finish_mesh(vertices: np.ndarray, cells: np.ndarray, path) -> TriMesh:
    if vertices.shape[0] == 0 or cells.shape[0] == 0:
        raise MeshFormatError(f"{path}: empty mesh")
    vertices, cells = _weld(vertices, cells)
    cells = _drop_degenerate(vertices, cells)
    if cells.shape[0] == 0:
        raise MeshFormatError(f"{path}: all cells degenerate")
    return TriMesh(vertices, cells)


def _parse_floats(tokens, count, path, lineno):
    if len(tokens) < count:
        raise MeshFormatError(f"{path}:{lineno}: expected {count} numbers")
    try:
        return [float(t) for t in tokens[:count]]
    except ValueError as exc:
        raise MeshFormatError(f"{path}:{lineno}: {exc}") from None


def _off_blocks(rows: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertex and cell arrays of a well-formed OFF file, each block parsed in
    bulk from the stripped rows (comment and blank lines already dropped);
    None for anything else.

    np.loadtxt reads each number as float() and int() do and takes only the
    leading columns, so trailing per-row values (OFF colours) are skipped
    as _off_rows skips them.
    """
    if len(rows) < 2 or rows[0] != "OFF":
        return None
    try:
        nv, nf = (int(t) for t in rows[1].split()[:2])
        if nv < 1 or nf < 1 or len(rows) < 2 + nv + nf:
            return None
        vertices = np.loadtxt(rows[2 : 2 + nv], usecols=(0, 1, 2), comments=None, ndmin=2)
        faces = np.loadtxt(rows[2 + nv : 2 + nv + nf], dtype=np.int64, usecols=(0, 1, 2, 3),
                           comments=None, ndmin=2)
    except ValueError:
        return None
    cells = faces[:, 1:]
    if (faces[:, 0] != 3).any() or cells.min() < 0 or cells.max() >= nv:
        return None
    return vertices, cells


def _load_off(lines, path) -> TriMesh:
    """The blocks in bulk; a file that does not parse that way is read row by
    row, which takes what float() and int() take (digits with underscores,
    rows of mixed width) and names the line at fault."""
    rows = [row for row in map(str.strip, lines) if row and row[0] != "#"]
    vertices, cells = _off_blocks(rows) or _off_rows(lines, path)
    return _finish_mesh(vertices, cells, path)


def _off_rows(lines, path) -> tuple[np.ndarray, np.ndarray]:
    body = [
        (i + 1, ln.strip()) for i, ln in enumerate(lines)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not body or body[0][1] != "OFF":
        lineno = body[0][0] if body else 1
        raise MeshFormatError(f"{path}:{lineno}: missing OFF header")
    if len(body) < 2:
        raise MeshFormatError(f"{path}: truncated OFF header")
    lineno, counts = body[1]
    tokens = counts.split()
    if len(tokens) < 2:
        raise MeshFormatError(f"{path}:{lineno}: expected vertex/face counts")
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise MeshFormatError(f"{path}:{lineno}: bad counts {counts!r}") from None
    rows = body[2:]
    if len(rows) < nv + nf:
        raise MeshFormatError(f"{path}: expected {nv + nf} data lines, found {len(rows)}")
    vertices = np.empty((nv, 3), dtype=np.float64)
    for i in range(nv):
        lineno, line = rows[i]
        vertices[i] = _parse_floats(line.split(), 3, path, lineno)
    cells = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        lineno, line = rows[nv + i]
        tokens = line.split()
        try:
            arity = int(tokens[0])
            idx = [int(t) for t in tokens[1 : 1 + arity]]
        except (ValueError, IndexError):
            raise MeshFormatError(f"{path}:{lineno}: bad face row {line!r}") from None
        if arity != 3 or len(idx) != 3:
            raise MeshFormatError(f"{path}:{lineno}: only triangles supported")
        if min(idx) < 0 or max(idx) >= nv:
            raise MeshFormatError(f"{path}:{lineno}: vertex index out of range")
        cells[i] = idx
    return vertices, cells


def _load_obj(lines, path) -> TriMesh:
    vertices, cells = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "v":
            vertices.append(_parse_floats(tokens[1:], 3, path, lineno))
        elif tokens[0] == "f":
            refs = tokens[1:]
            if len(refs) != 3:
                raise MeshFormatError(f"{path}:{lineno}: only triangles supported")
            idx = []
            for ref in refs:
                try:
                    i = int(ref.split("/")[0])
                except ValueError:
                    raise MeshFormatError(f"{path}:{lineno}: bad face ref {ref!r}") from None
                idx.append(i - 1 if i > 0 else len(vertices) + i)
            if min(idx) < 0 or max(idx) >= len(vertices):
                raise MeshFormatError(f"{path}:{lineno}: vertex index out of range")
            cells.append(idx)
        # other OBJ directives (vn, vt, o, g, s, usemtl, ...) are ignored
    return _finish_mesh(
        np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
        np.asarray(cells, dtype=np.int64).reshape(-1, 3),
        path,
    )


def _load_stl_ascii(lines, path) -> TriMesh:
    corners = []
    current = []
    in_solid = False
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        word = tokens[0].lower()
        if word == "solid":
            in_solid = True
        elif word == "vertex":
            current.append(_parse_floats(tokens[1:], 3, path, lineno))
        elif word == "endfacet":
            if len(current) != 3:
                raise MeshFormatError(
                    f"{path}:{lineno}: facet with {len(current)} vertices"
                )
            corners.extend(current)
            current = []
    if not in_solid:
        raise MeshFormatError(f"{path}:1: not an ASCII STL (missing 'solid')")
    if current:
        raise MeshFormatError(f"{path}: unterminated facet")
    if not corners:
        raise MeshFormatError(f"{path}: empty mesh")
    vertices = np.asarray(corners, dtype=np.float64)
    cells = np.arange(vertices.shape[0], dtype=np.int64).reshape(-1, 3)
    return _finish_mesh(vertices, cells, path)


_LOADERS = {"off": _load_off, "obj": _load_obj, "stl-ascii": _load_stl_ascii}
_EXTENSIONS = {".off": "off", ".obj": "obj", ".stl": "stl-ascii"}


def _format_of(path: Path) -> str:
    fmt = _EXTENSIONS.get(path.suffix.lower())
    if fmt is None:
        raise MeshFormatError(f"{path}: unknown extension (expected .off, .obj or .stl)")
    return fmt


def load_mesh(path) -> TriMesh:
    """Load a triangle mesh in the format its extension names (.off, .obj,
    or ASCII .stl)."""
    path = Path(path)
    fmt = _format_of(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc
    return _LOADERS[fmt](text.splitlines(), path)


_STL_FACET = (
    "facet normal %r %r %r\n  outer loop\n"
    + "    vertex %r %r %r\n" * 3
    + "  endloop\nendfacet\n"
)


def _values(array: np.ndarray) -> tuple:
    return tuple(array.ravel().tolist())


def save_mesh(mesh: TriMesh, path) -> None:
    """Write a mesh in the format its extension names.

    Each block of rows is one %-format over the block's values as Python
    floats and ints; %r is repr, the shortest string that reads back to the
    same float64.
    """
    path = Path(path)
    fmt = _format_of(path)
    nv, nf = mesh.num_vertices, mesh.num_cells
    if fmt == "off":
        text = (
            f"OFF\n{nv} {nf} 0\n"
            + "%r %r %r\n" * nv % _values(mesh.vertices)
            + "3 %d %d %d\n" * nf % _values(mesh.cells)
        )
    elif fmt == "obj":
        text = (
            "v %r %r %r\n" * nv % _values(mesh.vertices)
            + "f %d %d %d\n" * nf % _values(mesh.cells + 1)
        ) or "\n"
    else:  # stl-ascii
        facets = np.concatenate(
            [mesh.cell_normals, mesh.vertices[mesh.cells].reshape(nf, 9)], axis=1
        )
        text = "solid mesh\n" + _STL_FACET * nf % _values(facets) + "endsolid mesh\n"
    path.write_text(text)


def load_annotation(path, num_cells: int | None = None) -> Annotation:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or "labels" not in doc:
        raise SchemaError(f"{path}: annotation must be an object with 'labels'")
    landmarks = {}
    for key, pos in doc.get("landmarks", {}).items():
        tooth, name = lm.parse_landmark_key(key)
        if not (isinstance(pos, list) and len(pos) == 3):
            raise SchemaError(f"{path}: landmark {key!r} must be [x, y, z]")
        landmarks[(tooth, name)] = np.asarray(pos, dtype=np.float64)
    ann = Annotation(np.asarray(doc["labels"], dtype=np.int64), landmarks)
    ann.validate(num_cells)
    return ann


def save_annotation(ann: Annotation, path) -> None:
    doc = {
        "labels": ann.labels.tolist(),
        "landmarks": {
            lm.landmark_key(tooth, name): pos.tolist()
            for (tooth, name), pos in sorted(ann.landmarks.items())
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def _write_container(path, magic: bytes, header: dict, arrays: list[np.ndarray]) -> None:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", _CONTAINER_VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_container(path, magic: bytes) -> tuple[dict, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(raw) < 12 or raw[:4] != magic:
        raise CheckpointError(f"{path}: bad magic, not a {magic.decode()} container")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != _CONTAINER_VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version}")
    if len(raw) < 12 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    return header, raw[12 + hlen :]


def save_checkpoint(path, arch: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Self-describing checkpoint: arch tag, named arrays, JSON meta.

    Array order and shapes are recorded in the header; the payload is the
    arrays' raw little-endian float64 bytes in that order. The float32
    parameters of a net widen exactly, so loading them back into the net
    (Module.load_state_arrays casts to each parameter's dtype) restores
    them bit for bit, and the file format is the same for either dtype.
    """
    names = list(arrays.keys())
    header = {
        "arch": arch,
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
        "meta": meta,
    }
    _write_container(path, _CHECKPOINT_MAGIC, header, [arrays[n] for n in names])


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray], dict]:
    header, payload = _read_container(path, _CHECKPOINT_MAGIC)
    if "arch" not in header or "arrays" not in header:
        raise CheckpointError(f"{path}: header missing arch/arrays")
    arrays = {}
    offset = 0
    for entry in header["arrays"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated payload at array {entry['name']!r}")
        arrays[entry["name"]] = (
            np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return header["arch"], arrays, header.get("meta", {})


def save_matrix(path, matrix: np.ndarray) -> None:
    """Dump one float64 array (probabilities, heatmaps) with a shape header."""
    arr = np.asarray(matrix, dtype=np.float64)
    _write_container(path, _MATRIX_MAGIC, {"shape": list(arr.shape)}, [arr])


def load_matrix(path) -> np.ndarray:
    header, payload = _read_container(path, _MATRIX_MAGIC)
    shape = tuple(int(s) for s in header.get("shape", ()))
    count = int(np.prod(shape)) if shape else 1
    if count * 8 != len(payload):
        raise CheckpointError(f"{path}: payload does not match shape {shape}")
    return np.frombuffer(payload, dtype="<f8", count=count).reshape(shape).copy()
