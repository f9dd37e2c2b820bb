import numpy as np
import pytest

from bubblefem import build_structured_mesh, write_mesh_txt, write_vtk


def test_vtk_mesh_structure(tmp_path):
    m = build_structured_mesh(2)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, m, cell_data={"eta": np.arange(len(m.cells), dtype=float)},
              point_data={"u": np.ones(len(m.vertices))})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert f"POINTS {len(m.vertices)} double" in lines
    assert f"CELLS {len(m.cells)} {4 * len(m.cells)}" in lines
    assert f"CELL_TYPES {len(m.cells)}" in lines
    # all triangle cells
    idx = lines.index(f"CELL_TYPES {len(m.cells)}")
    assert all(lines[idx + 1 + i] == "5" for i in range(len(m.cells)))
    assert f"CELL_DATA {len(m.cells)}" in lines
    assert "SCALARS eta double 1" in lines
    assert f"POINT_DATA {len(m.vertices)}" in lines
    assert "SCALARS u double 1" in lines


@pytest.mark.parametrize("section", ["cell_data", "point_data"])
def test_vtk_rejects_array_of_another_length(tmp_path, section):
    m = build_structured_mesh(2)
    path = tmp_path / "mesh.vtk"
    with pytest.raises(ValueError, match="'eta' has 3 values"):
        write_vtk(path, m, **{section: {"eta": np.ones(3)}})
    assert not path.exists()


def test_vtk_point_coordinates_roundtrip(tmp_path):
    m = build_structured_mesh(1)
    path = tmp_path / "m.vtk"
    write_vtk(path, m)
    lines = path.read_text().splitlines()
    start = lines.index("POINTS 4 double") + 1
    pts = np.array([[float(v) for v in lines[start + i].split()] for i in range(4)])
    assert np.allclose(pts[:, :2], m.vertices)
    assert not pts[:, 2].any()


def test_mesh_txt_dump(tmp_path):
    m = build_structured_mesh(1)
    path = tmp_path / "mesh.txt"
    write_mesh_txt(path, m)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vertices 4"
    assert lines[5] == "# cells 2"
    verts = np.array([[float(v) for v in lines[1 + i].split()] for i in range(4)])
    cells = np.array([[int(v) for v in lines[6 + i].split()] for i in range(2)])
    assert np.allclose(verts, m.vertices)
    assert np.array_equal(cells, m.cells)


def oracle_write_vtk(path, mesh, cell_data=None, point_data=None):
    """The line-by-line writer the block-formatting one replaced."""
    lines = [
        "# vtk DataFile Version 3.0",
        "bubblefem mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(mesh.vertices)} double",
    ]
    for x, y in mesh.vertices.tolist():
        lines.append(f"{x:.16g} {y:.16g} 0")
    nc = len(mesh.cells)
    lines.append(f"CELLS {nc} {4 * nc}")
    for a, b, c in mesh.cells.tolist():
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nc}")
    lines.extend(["5"] * nc)  # VTK_TRIANGLE
    if cell_data:
        lines.append(f"CELL_DATA {nc}")
        for name, values in cell_data.items():
            values = np.asarray(values, dtype=float).tolist()
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.16g}" for v in values)
    if point_data:
        lines.append(f"POINT_DATA {len(mesh.vertices)}")
        for name, values in point_data.items():
            values = np.asarray(values, dtype=float).tolist()
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.16g}" for v in values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_write_mesh_txt(path, mesh):
    with open(path, "w") as fh:
        fh.write(f"# vertices {len(mesh.vertices)}\n")
        for x, y in mesh.vertices.tolist():
            fh.write(f"{x:.16g} {y:.16g}\n")
        fh.write(f"# cells {len(mesh.cells)}\n")
        for a, b, c in mesh.cells.tolist():
            fh.write(f"{a} {b} {c}\n")


def test_files_match_line_by_line_writer(tmp_path):
    """Block formatting writes the line-by-line writer's bytes, on a graded
    exp2 mesh, with and without data arrays."""
    from bubblefem import experiment2, refine

    mesh = experiment2().initial_mesh()
    for _ in range(6):  # graded towards the corner cells
        mesh = refine(mesh, np.flatnonzero(mesh.vertices[mesh.cells].mean(axis=1).sum(axis=1) < 0.4))
    rng = np.random.default_rng(3)
    eta = rng.standard_normal(len(mesh.cells)) * 10.0 ** rng.integers(-300, 300, len(mesh.cells))
    eta[:3] = (0.0, -0.0, 1.0)
    data = [({}, {}),
            ({"indicator": eta, "level": np.arange(len(mesh.cells))},
             {"u": rng.standard_normal(len(mesh.vertices))})]
    for cell_data, point_data in data:
        write_vtk(tmp_path / "new.vtk", mesh, cell_data=cell_data, point_data=point_data)
        oracle_write_vtk(tmp_path / "old.vtk", mesh, cell_data=cell_data, point_data=point_data)
        assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()
    write_mesh_txt(tmp_path / "new.txt", mesh)
    oracle_write_mesh_txt(tmp_path / "old.txt", mesh)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
