"""Legacy ASCII VTK output and plain-text mesh dumps."""

import numpy as np


def write_vtk(path, mesh, cell_data=None, point_data=None):
    """Write the mesh as a legacy VTK unstructured grid.

    ``cell_data`` and ``point_data`` are dicts of name -> scalar array
    (per cell / per vertex).
    """
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


def write_mesh_txt(path, mesh):
    """Plain-text mesh dump (vertex list + cell list) for fixtures."""
    with open(path, "w") as fh:
        fh.write(f"# vertices {len(mesh.vertices)}\n")
        for x, y in mesh.vertices.tolist():
            fh.write(f"{x:.16g} {y:.16g}\n")
        fh.write(f"# cells {len(mesh.cells)}\n")
        for a, b, c in mesh.cells.tolist():
            fh.write(f"{a} {b} {c}\n")
