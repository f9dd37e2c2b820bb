"""Conforming 2D triangle meshes with facet data and bisection refinement.

Meshes are immutable after construction (the arrays are marked read-only);
refinement returns a new mesh.  Conventions:

* cells are counterclockwise vertex triples;
* local edge i of a cell is the edge opposite local vertex i, and side
  ``3 c + i`` is local edge i of cell c walked from its vertex (i+1)%3 to
  (i+2)%3; the cell of a side is ``side // 3``; ``side_reversed`` (nc, 3)
  marks the sides that walk their edge against the ``edges`` order;
* a facet keeps its sides in cell order: ``boundary_sides`` (nb,) and
  ``interior_sides`` (ni, 2), whose first column is the side of the plus
  cell ``T+``, the incident cell with the smaller index;
* a facet normal is the outward normal of its first side: the side's walk
  turned clockwise, since a counterclockwise cell lies left of the walk;
* ``h_T`` is the longest edge of the cell, ``h_e`` the facet length;
* the per-cell refinement edge drives newest-vertex bisection.
"""

import numpy as np

from .forms import facet_quadrature, normal_flux
from .reference import edge_rule

INFLOW = -1
CHARACTERISTIC = 0
OUTFLOW = 1


class Mesh:
    """Triangulation of a polygonal domain with full facet connectivity.

    Parameters
    ----------
    vertices : (nv, 2) array
    cells : (nc, 3) int array
        Counterclockwise vertex triples.
    refinement_edge : (nc,) int array, optional
        Local edge index used by newest-vertex bisection.  Defaults to
        the longest edge (ties broken by the smallest opposite global
        vertex index).
    parents : (nc,) int array, optional
        For refined meshes, the index of the generating cell in the
        parent mesh; None for meshes not made by ``refine``.  ``FormTables``
        reads it to carry the rows of the cells refinement kept.
    """

    def __init__(self, vertices, cells, refinement_edge=None, parents=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (nc, 3) array")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        if self.cells.size and not 0 <= self.cells.min() <= self.cells.max() < len(self.vertices):
            raise ValueError("cells must hold vertex indices in [0, nv)")
        self.parents = None if parents is None else np.ascontiguousarray(parents, dtype=np.int64)
        if parents is not None and (self.parents.shape != self.cells.shape[:1]
                                    or self.parents.min(initial=0) < 0):
            raise ValueError("parents must hold one nonnegative cell index per cell")

        tri = self.vertices[self.cells]  # (nc, 3, 2)
        d1 = tri[:, 1] - tri[:, 0]
        d2 = tri[:, 2] - tri[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise ValueError(f"cell {bad} is not counterclockwise (area {signed[bad]:g})")
        self.cell_areas = signed
        # affine maps x = v0 + J xi per cell, J's columns d1 and d2
        det = 2.0 * signed
        Jinv = np.stack([d2[:, 1], -d2[:, 0], -d1[:, 1], d1[:, 0]], axis=1) / det[:, None]
        self.affine = (tri[:, 0], np.stack([d1, d2], axis=2), Jinv.reshape(-1, 2, 2), det)

        # the walk of side 3c + i, from vertex (i+1)%3 to (i+2)%3 of cell c
        walks = (tri[:, [2, 0, 1]] - tri[:, [1, 2, 0]]).reshape(-1, 2)
        lengths = np.linalg.norm(walks, axis=1)
        self._edge_lengths = lengths.reshape(-1, 3)
        self.cell_diameters = self._edge_lengths.max(axis=1)

        if refinement_edge is None:
            refinement_edge = self._longest_edge_assignment()
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int8)

        self._build_connectivity()
        self.edge_lengths = np.empty(len(self.edges))
        self.edge_lengths[self.cell_edges] = self._edge_lengths
        # each side's outward normal: its walk turned clockwise
        normals = np.column_stack([walks[:, 1], -walks[:, 0]]) / lengths[:, None]
        self.interior_normals = normals[self.interior_sides[:, 0]]
        self.boundary_normals = normals[self.boundary_sides]
        for arr in [*vars(self).values(), *self.affine]:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    def _longest_edge_assignment(self):
        lengths = self._edge_lengths
        candidates = lengths >= lengths.max(axis=1, keepdims=True) * (1.0 - 1e-12)
        # ties: lowest opposite global vertex index
        opposite = np.where(candidates, self.cells, np.iinfo(np.int64).max)
        return np.argmin(opposite, axis=1).astype(np.int8)

    def _build_connectivity(self):
        nv = len(self.vertices)
        a = self.cells[:, [1, 2, 0]].ravel()
        b = self.cells[:, [2, 0, 1]].ravel()
        self.side_reversed = (a > b).reshape(-1, 3)
        # sides sorted by the key of their (min, max) vertex pair; the stable sort
        # keeps each facet's sides in cell order, so T+ comes first
        keys = np.minimum(a, b) * nv + np.maximum(a, b)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(new)
        count = np.diff(starts, append=len(keys))
        if np.any(count > 2):
            raise ValueError(f"edge {int(np.argmax(count > 2))} shared by more than two cells")
        self.edges = np.column_stack([keys[starts] // nv, keys[starts] % nv])
        cell_edges = np.empty(len(keys), dtype=np.int64)
        cell_edges[order] = np.cumsum(new) - 1
        self.cell_edges = cell_edges.reshape(-1, 3)

        self.interior_edges = np.flatnonzero(count == 2)
        self.boundary_edges = np.flatnonzero(count == 1)
        first = starts[self.interior_edges]
        self.interior_sides = np.column_stack([order[first], order[first + 1]])
        self.boundary_sides = order[starts[self.boundary_edges]]

    # -- geometry --------------------------------------------------------------

    def to_reference(self, cells, points):
        """Pull physical points back to reference coordinates of given cells."""
        v0, _, Jinv, _ = self.affine
        return np.einsum("nij,nj->ni", Jinv[cells], points - v0[cells])

    def locate(self, points, tol=1e-10):
        """Containing cell per point (smallest index wins on shared facets)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        v0, _, Jinv, _ = self.affine
        found = np.full(len(points), -1, dtype=np.int64)
        for i, x in enumerate(points):
            xi = np.einsum("cij,cj->ci", Jinv, x[None, :] - v0)
            inside = (xi[:, 0] >= -tol) & (xi[:, 1] >= -tol) & (xi.sum(axis=1) <= 1.0 + tol)
            hits = np.flatnonzero(inside)
            if len(hits):
                found[i] = hits[0]
        if np.any(found < 0):
            bad = points[int(np.flatnonzero(found < 0)[0])]
            raise ValueError(f"point {tuple(bad)} lies outside the mesh")
        return found

    def validate(self):
        """Check conformity and geometric invariants; raises on violation."""
        if np.any(self.cell_areas <= 0.0):
            raise AssertionError("nonpositive cell area")
        for n in (self.interior_normals, self.boundary_normals):
            if len(n) and np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) > 1e-12:
                raise AssertionError("facet normal not unit length")
        if len(self.interior_edges) + len(self.boundary_edges) != len(self.edges):
            raise AssertionError("edge incidence count other than 1 or 2")
        if np.max(np.abs(self.edge_lengths[self.cell_edges] - self._edge_lengths)) > 1e-12:
            raise AssertionError("global edge length differs from the cell's local edge")
        return True


def build_structured_mesh(n=None, grid_lines_x=None, grid_lines_y=None):
    """Triangulate the unit square from a tensor grid.

    Each grid rectangle is split into two triangles along the diagonal
    from its lower-left to its upper-right corner; refinement edges are
    initialized to the hypotenuses.  Either pass ``n`` for a uniform
    n-by-n grid or explicit (strictly increasing) grid lines covering
    [0, 1] per axis.
    """
    if grid_lines_x is None or grid_lines_y is None:
        if n is None or n < 1:
            raise ValueError("n >= 1 required when grid lines are omitted")
        if grid_lines_x is None:
            grid_lines_x = np.linspace(0.0, 1.0, n + 1)
        if grid_lines_y is None:
            grid_lines_y = np.linspace(0.0, 1.0, n + 1)
    gx = np.asarray(grid_lines_x, dtype=float)
    gy = np.asarray(grid_lines_y, dtype=float)
    for g, name in ((gx, "x"), (gy, "y")):
        if len(g) < 2 or np.any(np.diff(g) <= 0.0):
            raise ValueError(f"grid lines along {name} must be strictly increasing")
        if abs(g[0]) > 1e-12 or abs(g[-1] - 1.0) > 1e-12:
            raise ValueError(f"grid lines along {name} must cover [0, 1]")

    nx, ny = len(gx), len(gy)
    xx, yy = np.meshgrid(gx, gy, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # vertex (i, j) has index j * nx + i; rectangles in row-major order, each
    # split below, then above its diagonal
    v00 = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)[None, :]).ravel()
    v10, v01, v11 = v00 + 1, v00 + nx, v00 + nx + 1
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return Mesh(vertices, cells)


def classify_boundary(mesh, velocity, tol=1e-12, quad_degree=11):
    """Label boundary facets by the sign of b.n at facet quadrature points.

    A facet is inflow if b.n < -tol at every quadrature point, outflow
    if b.n > tol at every point, characteristic otherwise.  Returns an
    object with a per-facet ``labels`` array and convenience masks.

    A reporting helper only: assembly splits the boundary pointwise by
    the sign of b.n at its own facet quadrature points.
    """
    pts, _ = facet_quadrature(mesh, mesh.boundary_edges, edge_rule(quad_degree))
    bn = normal_flux(velocity, pts, mesh.boundary_normals)
    labels = np.zeros(len(bn), dtype=np.int8)
    labels[np.all(bn < -tol, axis=1)] = INFLOW
    labels[np.all(bn > tol, axis=1)] = OUTFLOW
    return BoundaryClassification(labels)


class BoundaryClassification:
    """Per-boundary-facet inflow/outflow/characteristic labels."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=np.int8)
        self.labels.setflags(write=False)

    @property
    def inflow(self):
        return self.labels == INFLOW

    @property
    def outflow(self):
        return self.labels == OUTFLOW

    @property
    def characteristic(self):
        return self.labels == CHARACTERISTIC


def refine(mesh, marked):
    """Newest-vertex bisection of the marked cells with conformity closure.

    An edge is split when it is the refinement edge of a marked cell or of
    a cell with a split edge; this closure is swept to its fixed point, so
    no hanging nodes remain.  A cell whose
    refinement edge (a, b) is split, opposite its peak, becomes
    (peak, a, m) and (peak, m, b), each split again through its other
    parent edge when that edge is split too; children follow their parent
    in cell order, depth first, and each child's refinement edge lies
    opposite its newest vertex.  New vertices are numbered in order of
    first use: cells in order and, within a cell, the refinement edge,
    then (peak, a), then (b, peak).  The result records each cell's parent
    in ``parents``.  ``marked`` holds integer cell indices; a boolean mask
    or a float array raises.
    """
    marked = np.asarray(marked).ravel()
    if len(marked) == 0:
        return mesh
    if not np.issubdtype(marked.dtype, np.integer):
        raise ValueError("marked set must hold integer cell indices")
    if marked.min() < 0 or marked.max() >= len(mesh.cells):
        raise ValueError("marked set contains invalid cell indices")

    nc, nv = len(mesh.cells), len(mesh.vertices)
    cell = np.arange(nc)
    r = mesh.refinement_edge.astype(np.int64)
    peak, a, b = (mesh.cells[cell, (r + i) % 3] for i in range(3))
    # per cell: refinement edge (a, b), left edge (peak, a), right edge (b, peak)
    edges = np.column_stack([mesh.cell_edges[cell, (r + i) % 3] for i in (0, 2, 1)])

    split = np.zeros(len(mesh.edges), dtype=bool)
    split[edges[marked, 0]] = True
    while True:
        grow = split[mesh.cell_edges].any(axis=1) & ~split[edges[:, 0]]
        if not grow.any():
            break
        split[edges[grow, 0]] = True

    is_split = split[edges]
    used = edges[is_split]  # row-major: cells in order, then ref, left, right
    new_edges, first = np.unique(used, return_index=True)
    new_edges = new_edges[np.argsort(first)]
    midpoint = np.full(len(mesh.edges), -1, dtype=np.int64)
    midpoint[new_edges] = nv + np.arange(len(new_edges))
    m, m_left, m_right = midpoint[edges].T
    ends = mesh.vertices[mesh.edges[new_edges]]
    vertices = np.vstack([mesh.vertices, (ends[:, 0] + ends[:, 1]) / 2.0])

    s_ref, s_left, s_right = is_split.T
    # every child a cell can have, depth first: (vertices, refinement edge, exists)
    children = [
        (tuple(mesh.cells.T), r, ~s_ref),
        ((peak, a, m), 2, s_ref & ~s_left),
        ((m, peak, m_left), 2, s_left),
        ((m, m_left, a), 1, s_left),
        ((peak, m, b), 1, s_ref & ~s_right),
        ((m, b, m_right), 2, s_right),
        ((m, m_right, peak), 1, s_right),
    ]
    exists = np.column_stack([e for _, _, e in children])
    cells = np.stack([np.column_stack(v) for v, _, _ in children], axis=1)[exists]
    ref = np.column_stack([np.broadcast_to(e, nc) for _, e, _ in children])[exists]
    return Mesh(vertices, cells, refinement_edge=ref, parents=np.nonzero(exists)[0])
