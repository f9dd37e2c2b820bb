"""Legacy ASCII VTK output and plain-text mesh dumps.

Each block of values is formatted by one ``%`` operation over the whole
array, one line per row.
"""

import numpy as np


def _lines(fmt, values):
    """One line ``fmt % row`` per row of the 2-D ``values``."""
    values = np.asarray(values)
    return (fmt + "\n") * len(values) % tuple(values.ravel().tolist())


def write_vtk(path, mesh, cell_data=None, point_data=None):
    """Write the mesh as a legacy VTK unstructured grid.

    ``cell_data`` and ``point_data`` are dicts of name -> scalar array
    (per cell / per vertex); an array of another length raises.
    """
    nv, nc = len(mesh.vertices), len(mesh.cells)
    parts = [
        "# vtk DataFile Version 3.0\nbubblefem mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {nv} double\n",
        _lines("%.16g %.16g 0", mesh.vertices),
        f"CELLS {nc} {4 * nc}\n",
        _lines("3 %d %d %d", mesh.cells),
        f"CELL_TYPES {nc}\n",
        "5\n" * nc,  # VTK_TRIANGLE
    ]
    for section, count, arrays in (("CELL_DATA", nc, cell_data), ("POINT_DATA", nv, point_data)):
        if arrays:
            parts.append(f"{section} {count}\n")
            for name, values in arrays.items():
                values = np.asarray(values, dtype=float).reshape(-1, 1)
                if len(values) != count:
                    raise ValueError(f"{section} array {name!r} has {len(values)} values, "
                                     f"not {count}")
                parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                parts.append(_lines("%.16g", values))
    with open(path, "w") as fh:
        fh.write("".join(parts))


def write_mesh_txt(path, mesh):
    """Plain-text mesh dump (vertex list + cell list) for fixtures."""
    with open(path, "w") as fh:
        fh.write(f"# vertices {len(mesh.vertices)}\n" + _lines("%.16g %.16g", mesh.vertices)
                 + f"# cells {len(mesh.cells)}\n" + _lines("%d %d %d", mesh.cells))
