"""Mesh containers and file formats: round trips, cleaning, corrupt inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dentalmesh import landmarks as lm
from dentalmesh import mesh_io as mio
from dentalmesh.errors import CheckpointError, MeshFormatError, SchemaError
from dentalmesh.mesh_io import Annotation, TriMesh

from helpers import (
    grid_mesh,
    reference_save_annotation,
    reference_save_mesh,
    reference_weld,
)


def _unit_triangle():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return TriMesh(verts, np.array([[0, 1, 2]]))


def test_trimesh_rejects_bad_shapes():
    good_v = np.zeros((3, 3))
    with pytest.raises(ValueError, match="vertices"):
        TriMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="cells"):
        TriMesh(good_v, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="out of vertex range"):
        TriMesh(good_v, np.array([[0, 1, 3]]))
    with pytest.raises(ValueError, match="out of vertex range"):
        TriMesh(good_v, np.array([[0, 1, -1]]))


def test_derived_geometry_on_unit_triangle():
    mesh = _unit_triangle()
    assert mesh.num_vertices == 3 and mesh.num_cells == 1
    assert np.allclose(mesh.cell_barycenters, [[1 / 3, 1 / 3, 0.0]])
    assert np.allclose(mesh.cell_areas, [0.5])
    # right-handed winding in the xy plane points +z
    assert np.allclose(mesh.cell_normals, [[0.0, 0.0, 1.0]])
    lo, hi = mesh.bbox
    assert np.array_equal(lo, [0, 0, 0]) and np.array_equal(hi, [1, 1, 0])


def test_submesh_preserves_geometry():
    mesh = grid_mesh(4, 4, seed=1)
    keep = np.array([0, 5, 7, 11])
    sub, remap = mesh.submesh(keep)
    assert sub.num_cells == keep.size
    assert np.allclose(sub.cell_barycenters, mesh.cell_barycenters[keep])
    assert np.allclose(sub.cell_areas, mesh.cell_areas[keep])
    # remap sends every used old vertex to its new index, unused to -1
    used = np.unique(mesh.cells[keep])
    assert np.array_equal(remap[used], np.arange(used.size))
    unused = np.setdiff1d(np.arange(mesh.num_vertices), used)
    assert np.all(remap[unused] == -1)


@pytest.mark.parametrize("ext", [".off", ".obj"])
def test_save_load_round_trip_exact(tmp_path, ext):
    mesh = grid_mesh(5, 4, spacing=0.7, seed=3)
    path = tmp_path / f"mesh{ext}"
    mio.save_mesh(mesh, path)
    back = mio.load_mesh(path)
    # repr() of a float round-trips, so the files are lossless
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


def _awkward_mesh():
    # signed zero, the least subnormal, a tiny normal, an inexact sum and a
    # float whose repr switches to exponent form
    verts = np.array([
        [-0.0, 5e-324, 1e-300],
        [0.1 + 0.2, 1e16, 0.0],
        [1.0, -2.5, 3.0],
        [2.0, 1.0, -0.0],
    ])
    return TriMesh(verts, np.array([[0, 1, 2], [1, 3, 2], [0, 2, 3]]))


@pytest.mark.parametrize("ext", [".off", ".obj", ".stl"])
def test_save_mesh_bytes_match_row_writer(tmp_path, ext, small_arch):
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    for i, mesh in enumerate([_awkward_mesh(), small_arch[0], empty]):
        mio.save_mesh(mesh, tmp_path / f"new{i}{ext}")
        reference_save_mesh(mesh, tmp_path / f"ref{i}{ext}")
        assert (tmp_path / f"new{i}{ext}").read_bytes() == (tmp_path / f"ref{i}{ext}").read_bytes()


def test_stl_round_trip_welds_back_to_shared_vertices(tmp_path):
    mesh = grid_mesh(4, 3, seed=2)
    path = tmp_path / "mesh.stl"
    mio.save_mesh(mesh, path)
    back = mio.load_mesh(path)
    # STL stores three loose corners per facet; the loader welds them again
    assert back.num_cells == mesh.num_cells
    assert back.num_vertices == mesh.num_vertices
    assert np.allclose(back.cell_barycenters, mesh.cell_barycenters)
    assert np.allclose(back.cell_areas, mesh.cell_areas)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(2, 5),
    ny=st.integers(2, 5),
    seed=st.integers(0, 1000),
)
def test_off_round_trip_property(tmp_path_factory, nx, ny, seed):
    mesh = grid_mesh(nx, ny, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "m.off"
    mio.save_mesh(mesh, path)
    back = mio.load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


def test_loader_welds_duplicates_and_drops_degenerate(tmp_path):
    # vertex 3 duplicates vertex 0; face 1 repeats an index, face 2 is
    # collinear: only the unit triangle should survive
    text = "\n".join(
        [
            "OFF",
            "5 3 0",
            "0 0 0",
            "1 0 0",
            "0 1 0",
            "0 0 0",
            "2 0 0",
            "3 0 1 2",
            "3 0 1 1",
            "3 0 1 4",
        ]
    )
    path = tmp_path / "messy.off"
    path.write_text(text + "\n")
    mesh = mio.load_mesh(path)
    assert mesh.num_vertices == 4  # the duplicate is welded away
    assert mesh.num_cells == 1
    assert np.allclose(mesh.cell_areas, [0.5])


def test_weld_matches_unique_rows():
    """Grouping by a stable lexsort welds as np.unique over the rows does:
    exact copies, copies within the weld grid, negative coordinates, and
    rows that share one or two coordinates but not the third."""
    rng = np.random.default_rng(6)
    vertices = np.round(rng.normal(0.0, 20.0, (400, 3)), 3)
    copies = rng.integers(0, 400, 300)
    jitter = rng.choice([0.0, 1e-11, -1e-11], size=(300, 3))
    near = vertices[rng.integers(0, 400, 200)]
    near[np.arange(200), rng.integers(0, 3, 200)] += 1.0  # one coordinate moved
    vertices = np.vstack([vertices, vertices[copies] + jitter, near, near[:50]])
    vertices = vertices[rng.permutation(len(vertices))]
    cells = rng.integers(0, len(vertices), (500, 3))
    welded, index = mio._weld(vertices, cells)
    expected, expected_index = reference_weld(vertices, cells)
    assert welded.tobytes() == expected.tobytes()
    assert np.array_equal(index, expected_index)
    assert len(welded) < len(vertices)


@pytest.mark.parametrize(
    "text, message",
    [
        ("5 3 0\n0 0 0\n", "missing OFF header"),
        ("OFF\n", "truncated OFF header"),
        ("OFF\nx y 0\n", "bad counts"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n", "only triangles"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", "out of range"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n", "data lines"),
        ("OFF\n0 0 0\n", "empty mesh"),
    ],
)
def test_off_errors(tmp_path, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=message):
        mio.load_mesh(path)


def test_off_bad_rows_name_their_line(tmp_path):
    """A malformed row fails with float()'s or the face row's message and
    its line number, counted over comment and blank lines too."""
    head = "OFF\n# a comment\n3 1 0\n\n0 0 0\n"
    path = tmp_path / "bad.off"
    path.write_text(head + "1 x 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshFormatError) as err:
        mio.load_mesh(path)
    assert str(err.value) == f"{path}:6: could not convert string to float: 'x'"
    path.write_text(head + "1 0 0\n0 1 0\n  # late comment\n3 0 q 2 255\n")
    with pytest.raises(MeshFormatError) as err:
        mio.load_mesh(path)
    assert str(err.value) == f"{path}:9: bad face row '3 0 q 2 255'"


def _off_text(mesh: TriMesh, vertex_tail: str = "", face_tail: str = "",
              gap: str = "") -> str:
    """mesh as OFF with extra text after each vertex and face row, and gap
    after every data row."""
    rows = [" ".join(repr(float(x)) for x in v) + vertex_tail for v in mesh.vertices]
    rows += ["3 %d %d %d" % tuple(c) + face_tail for c in mesh.cells]
    return f"OFF\n{mesh.num_vertices} {mesh.num_cells} 0\n" + "".join(
        row + "\n" + gap for row in rows)


@pytest.mark.parametrize("vertex_tail, face_tail, gap", [
    ("", "", "\n  \n# comment between data rows\n"),
    (" 255 128 0 255", " 255 0 0", ""),
    (" 0.5 0.5 0.5", " 0.5 0.25 1.0", ""),
    (" red", " 1_0", "\t\n"),
])
def test_off_comments_blank_lines_and_colours(tmp_path, vertex_tail, face_tail, gap):
    mesh = grid_mesh(20, 20, seed=2)  # more vertices than a colour value
    path = tmp_path / "m.off"
    path.write_text(_off_text(mesh, vertex_tail, face_tail, gap))
    back = mio.load_mesh(path)
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    assert np.array_equal(back.cells, mesh.cells)


def test_off_blocks_read_what_the_row_reader_reads(tmp_path, small_arch):
    """The bulk parse gives float()'s bits, over many spellings of a number;
    what it declines (digit underscores) the row reader still reads."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal(900) * 10.0 ** rng.integers(-300, 300, 900)
    spellings = [repr, "%.25g".__mod__, "%.3E".__mod__]
    tokens = [spellings[i % 3](float(x)) for i, x in enumerate(values)]
    tokens[:12] = ["-0", ".5", "5.", "+1e-400", "1e400", "-inf", "nan", "00012.50",
                   "2.4703282292062328e-324", "1.7976931348623159e308", "0." + "1" * 40,
                   "9" * 30]
    vertices = [" ".join(tokens[i : i + 3]) for i in range(0, len(tokens), 3)]
    cells = [f"3 {i} {i + 1} {i + 2}" for i in range(len(vertices) - 2)]
    lines = ["OFF", f"{len(vertices)} {len(cells)} 0"] + vertices + cells
    vs, cs = mio._off_blocks(lines)
    vr, cr = mio._off_rows(lines, "m.off")
    assert vs.tobytes() == vr.tobytes() and np.array_equal(cs, cr)
    assert vs.tobytes() == np.array([float(t) for t in tokens]).tobytes()
    lines[2] = "1_0 0 0"
    assert mio._off_blocks(lines) is None
    assert mio._off_rows(lines, "m.off")[0][0, 0] == 10.0
    # a saved arch reads the same either way
    path = tmp_path / "arch.off"
    mio.save_mesh(small_arch[0], path)
    lines = path.read_text().splitlines()
    vs, cs = mio._off_blocks(lines)
    vr, cr = mio._off_rows(lines, path)
    assert vs.tobytes() == vr.tobytes() and np.array_equal(cs, cr)


def test_obj_errors(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 1\n")
    with pytest.raises(MeshFormatError, match="only triangles"):
        mio.load_mesh(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n")
    with pytest.raises(MeshFormatError, match="bad face ref"):
        mio.load_mesh(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(MeshFormatError, match="out of range"):
        mio.load_mesh(path)


def test_obj_face_refs_may_carry_texture_and_normal_slots(tmp_path):
    path = tmp_path / "slashes.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2/2 3//3\n")
    mesh = mio.load_mesh(path)
    assert mesh.num_cells == 1
    assert np.allclose(mesh.cell_areas, [0.5])


def test_stl_errors(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_text("not an stl\n")
    with pytest.raises(MeshFormatError, match="missing 'solid'"):
        mio.load_mesh(path)
    path.write_text("solid x\nfacet normal 0 0 1\n  outer loop\n    vertex 0 0 0\n")
    with pytest.raises(MeshFormatError, match="unterminated facet"):
        mio.load_mesh(path)


def test_format_dispatch_errors(tmp_path):
    with pytest.raises(MeshFormatError, match="unknown extension"):
        mio.load_mesh(tmp_path / "mesh.ply")
    with pytest.raises(MeshFormatError):
        mio.load_mesh(tmp_path / "missing.off")  # OSError is wrapped
    with pytest.raises(MeshFormatError, match="unknown extension"):
        mio.save_mesh(_unit_triangle(), tmp_path / "mesh.ply")


def test_annotation_round_trip(tmp_path):
    labels = np.array([0, 3, 3, 10, 0])
    landmarks = {
        (3, "CCT"): np.array([1.0, 2.0, 3.0]),
        (10, "MCP"): np.array([-1.5, 0.25, 8.0]),
    }
    ann = Annotation(labels, landmarks)
    path = tmp_path / "ann.json"
    mio.save_annotation(ann, path)
    back = mio.load_annotation(path, num_cells=5)
    assert np.array_equal(back.labels, labels)
    assert set(back.landmarks) == set(landmarks)
    for key in landmarks:
        assert np.array_equal(back.landmarks[key], landmarks[key])


def test_save_annotation_bytes_match_element_writer(tmp_path, small_arch):
    _, ann = small_arch
    ann = Annotation(ann.labels, {**ann.landmarks, (3, "CCT"): np.array([-0.0, 0.1 + 0.2, 1e16])})
    mio.save_annotation(ann, tmp_path / "new.json")
    reference_save_annotation(ann, tmp_path / "ref.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_annotation_validate_errors():
    with pytest.raises(SchemaError, match="1-D"):
        Annotation(np.zeros((2, 2), dtype=int)).validate()
    with pytest.raises(SchemaError, match="labels for a mesh"):
        Annotation(np.array([0, 1])).validate(num_cells=3)
    with pytest.raises(SchemaError, match="outside 0..14"):
        Annotation(np.array([0, 15])).validate()
    with pytest.raises(SchemaError, match="outside 0..14"):
        Annotation(np.array([-1])).validate()
    with pytest.raises(SchemaError, match="not defined for tooth"):
        Annotation(np.array([0]), {(3, "MLA"): np.zeros(3)}).validate()
    with pytest.raises(SchemaError, match="bad position"):
        Annotation(np.array([0]), {(3, "CCT"): np.zeros(2)}).validate()
    with pytest.raises(SchemaError, match="bad position"):
        Annotation(np.array([0]), {(3, "CCT"): np.array([0.0, np.nan, 0.0])}).validate()


def test_load_annotation_errors(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        mio.load_annotation(path)
    path.write_text('{"landmarks": {}}')
    with pytest.raises(SchemaError, match="'labels'"):
        mio.load_annotation(path)
    path.write_text('{"labels": [0], "landmarks": {"UR3.CCT": [1, 2]}}')
    with pytest.raises(SchemaError, match=r"must be \[x, y, z\]"):
        mio.load_annotation(path)
    path.write_text('{"labels": [0], "landmarks": {"UR3CCT": [1, 2, 3]}}')
    with pytest.raises(SchemaError, match="malformed landmark key"):
        mio.load_annotation(path)


def test_checkpoint_round_trip(tmp_path):
    arrays = {
        "w1": np.arange(6, dtype=np.float64).reshape(2, 3),
        "b": np.array([0.5, -0.5]),
        "scalar": np.array(3.25),
    }
    meta = {"epochs": 7, "note": "fixture"}
    path = tmp_path / "net.ckpt"
    mio.save_checkpoint(path, "tooth-seg-net/1", arrays, meta)
    arch, back, meta_back = mio.load_checkpoint(path)
    assert arch == "tooth-seg-net/1"
    assert list(back) == list(arrays)  # insertion order survives
    for name in arrays:
        assert np.array_equal(back[name], arrays[name])
        assert back[name].shape == arrays[name].shape
    assert meta_back == meta


def test_checkpoint_corruption(tmp_path):
    path = tmp_path / "net.ckpt"
    mio.save_checkpoint(path, "a/1", {"w": np.ones((4, 4))}, {})
    raw = path.read_bytes()

    (tmp_path / "trunc.ckpt").write_bytes(raw[:-16])
    with pytest.raises(CheckpointError, match="truncated payload"):
        mio.load_checkpoint(tmp_path / "trunc.ckpt")

    (tmp_path / "extra.ckpt").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing payload"):
        mio.load_checkpoint(tmp_path / "extra.ckpt")

    (tmp_path / "magic.ckpt").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        mio.load_checkpoint(tmp_path / "magic.ckpt")

    (tmp_path / "stub.ckpt").write_bytes(raw[:6])
    with pytest.raises(CheckpointError):
        mio.load_checkpoint(tmp_path / "stub.ckpt")

    with pytest.raises(CheckpointError):
        mio.load_checkpoint(tmp_path / "missing.ckpt")


def test_matrix_round_trip_and_shape_check(tmp_path):
    mat = np.random.default_rng(0).normal(size=(7, 15))
    path = tmp_path / "probs.mat"
    mio.save_matrix(path, mat)
    assert np.array_equal(mio.load_matrix(path), mat)

    raw = path.read_bytes()
    (tmp_path / "short.mat").write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="does not match shape"):
        mio.load_matrix(tmp_path / "short.mat")


def test_matrix_rejects_checkpoint_container(tmp_path):
    path = tmp_path / "net.ckpt"
    mio.save_checkpoint(path, "a/1", {"w": np.ones(3)}, {})
    with pytest.raises(CheckpointError, match="bad magic"):
        mio.load_matrix(path)


def test_landmark_key_round_trip():
    for tooth, name in lm.all_landmark_keys():
        key = lm.landmark_key(tooth, name)
        assert lm.parse_landmark_key(key) == (tooth, name)
