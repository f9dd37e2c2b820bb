"""Conforming 2D triangle meshes with facet data and bisection refinement.

Meshes are immutable after construction (the arrays are marked read-only);
refinement returns a new mesh.  Conventions:

* cells are counterclockwise vertex triples;
* local edge i of a cell is the edge opposite local vertex i;
* for an interior facet the plus cell ``T+`` is the incident cell with the
  smaller index and the facet normal is the outward normal of ``T+``;
* ``h_T`` is the longest edge of the cell, ``h_e`` the facet length;
* the per-cell refinement edge drives newest-vertex bisection.
"""

from functools import cached_property

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
        parent mesh; None for meshes built from scratch.
    """

    def __init__(self, vertices, cells, refinement_edge=None, parents=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (nc, 3) array")

        tri = self.vertices[self.cells]  # (nc, 3, 2)
        d1 = tri[:, 1] - tri[:, 0]
        d2 = tri[:, 2] - tri[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise ValueError(f"cell {bad} is not counterclockwise (area {signed[bad]:g})")
        self.cell_areas = signed

        # edge lengths per local edge (edge i opposite vertex i)
        edge_vecs = np.stack(
            [tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2], tri[:, 1] - tri[:, 0]], axis=1
        )
        self._edge_lengths = np.linalg.norm(edge_vecs, axis=2)  # (nc, 3)
        self.cell_diameters = self._edge_lengths.max(axis=1)

        if refinement_edge is None:
            refinement_edge = self._longest_edge_assignment()
        self.refinement_edge = np.ascontiguousarray(refinement_edge, dtype=np.int8)
        self.parents = None if parents is None else np.ascontiguousarray(parents, dtype=np.int64)

        self._build_connectivity()
        for arr in (self.vertices, self.cells, self.refinement_edge, self.cell_areas,
                    self.cell_diameters, self.edges, self.cell_edges):
            arr.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    def _longest_edge_assignment(self):
        lengths = self._edge_lengths
        candidates = lengths >= lengths.max(axis=1, keepdims=True) * (1.0 - 1e-12)
        # ties: lowest opposite global vertex index
        opposite = np.where(candidates, self.cells, np.iinfo(np.int64).max)
        return np.argmin(opposite, axis=1).astype(np.int8)

    def _build_connectivity(self):
        nc, nv = len(self.cells), len(self.vertices)
        a = self.cells[:, [1, 2, 0]]  # local edge i runs (i+1)%3 -> (i+2)%3
        b = self.cells[:, [2, 0, 1]]
        # lexicographic order of (min, max) vertex pairs equals that of the key
        keys, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                  return_inverse=True)
        edges = np.column_stack([keys // nv, keys % nv])
        self.edges = edges
        self.cell_edges = inverse.reshape(nc, 3)

        ne = len(edges)
        flat = self.cell_edges.ravel()
        count = np.bincount(flat, minlength=ne)
        if np.any(count > 2):
            raise ValueError(f"edge {int(np.argmax(count > 2))} shared by more than two cells")
        # T+ is the incident cell with the smaller index
        cell_of = np.repeat(np.arange(nc, dtype=np.int64), 3)
        first = np.full(ne, nc, dtype=np.int64)
        second = np.full(ne, -1, dtype=np.int64)
        np.minimum.at(first, flat, cell_of)
        np.maximum.at(second, flat, cell_of)

        interior = np.flatnonzero(count == 2)
        boundary = np.flatnonzero(count == 1)
        self.interior_edges = interior
        self.interior_plus = first[interior]
        self.interior_minus = second[interior]
        self.boundary_edges = boundary
        self.boundary_cells = first[boundary]

        self.edge_lengths = np.linalg.norm(
            self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]], axis=1
        )
        self.interior_lengths = self.edge_lengths[interior]
        self.boundary_lengths = self.edge_lengths[boundary]
        self.interior_normals = self._outward_normals(interior, self.interior_plus)
        self.boundary_normals = self._outward_normals(boundary, self.boundary_cells)

    def _outward_normals(self, edge_ids, owner_cells):
        va = self.vertices[self.edges[edge_ids, 0]]
        vb = self.vertices[self.edges[edge_ids, 1]]
        d = vb - va
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        centroids = self.vertices[self.cells[owner_cells]].mean(axis=1)
        flip = np.einsum("fd,fd->f", 0.5 * (va + vb) - centroids, n) < 0.0
        n[flip] *= -1.0
        return n

    # -- geometry --------------------------------------------------------------

    @cached_property
    def affine(self):
        """Affine maps x = v0 + J xi per cell: (v0, J, Jinv, det)."""
        tri = self.vertices[self.cells]
        v0 = tri[:, 0]
        J = np.stack([tri[:, 1] - v0, tri[:, 2] - v0], axis=2)  # columns
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        Jinv = np.empty_like(J)
        Jinv[:, 0, 0] = J[:, 1, 1] / det
        Jinv[:, 0, 1] = -J[:, 0, 1] / det
        Jinv[:, 1, 0] = -J[:, 1, 0] / det
        Jinv[:, 1, 1] = J[:, 0, 0] / det
        return v0, J, Jinv, det

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

    @property
    def min_angle(self):
        """Smallest interior angle over all cells (radians)."""
        tri = self.vertices[self.cells]
        angles = []
        for i in range(3):
            u = tri[:, (i + 1) % 3] - tri[:, i]
            v = tri[:, (i + 2) % 3] - tri[:, i]
            cosa = np.einsum("cd,cd->c", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            angles.append(np.arccos(np.clip(cosa, -1.0, 1.0)))
        return float(np.min(angles))

    def validate(self):
        """Check conformity and geometric invariants; raises on violation."""
        if np.any(self.cell_areas <= 0.0):
            raise AssertionError("nonpositive cell area")
        for n in (self.interior_normals, self.boundary_normals):
            if len(n) and np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) > 1e-12:
                raise AssertionError("facet normal not unit length")
        if len(self.interior_edges) + len(self.boundary_edges) != len(self.edges):
            raise AssertionError("edge incidence count other than 1 or 2")
        hT = self._edge_lengths.max(axis=1)
        if np.max(np.abs(hT - self.cell_diameters)) > 1e-12:
            raise AssertionError("cell diameter differs from longest edge")
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

    Every marked cell is bisected through its refinement edge; the closure
    recursively marks refinement edges of neighbours so no hanging nodes
    remain.  Child refinement edges are set opposite the new vertex.  The
    result records each cell's parent in ``parents``.
    """
    marked = np.asarray(sorted(set(int(c) for c in marked)), dtype=np.int64)
    if len(marked) == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= len(mesh.cells):
        raise ValueError("marked set contains invalid cell indices")

    ne = len(mesh.edges)
    edge_of = {(int(a), int(b)): i for i, (a, b) in enumerate(mesh.edges)}
    ref_edge_id = mesh.cell_edges[np.arange(len(mesh.cells)), mesh.refinement_edge]

    # closure: marking an edge forces the refinement edge of every
    # incident cell to be marked as well
    incident = [[] for _ in range(ne)]
    for c in range(len(mesh.cells)):
        for i in range(3):
            incident[mesh.cell_edges[c, i]].append(c)
    edge_marked = np.zeros(ne, dtype=bool)
    stack = [int(ref_edge_id[c]) for c in marked]
    while stack:
        e = stack.pop()
        if edge_marked[e]:
            continue
        edge_marked[e] = True
        for c in incident[e]:
            re = int(ref_edge_id[c])
            if not edge_marked[re]:
                stack.append(re)

    vertices = list(map(tuple, mesh.vertices))
    midpoint = {}

    def midpoint_of(a, b):
        key = (min(a, b), max(a, b))
        m = midpoint.get(key)
        if m is None:
            va, vb = mesh.vertices[a], mesh.vertices[b]
            vertices.append(((va[0] + vb[0]) / 2.0, (va[1] + vb[1]) / 2.0))
            m = len(vertices) - 1
            midpoint[key] = m
        return m

    new_cells, new_ref, new_parents = [], [], []

    def is_marked(a, b):
        e = edge_of.get((min(a, b), max(a, b)))
        return e is not None and edge_marked[e]

    def split(tri, ref_local, parent):
        peak = tri[ref_local]
        a = tri[(ref_local + 1) % 3]
        b = tri[(ref_local + 2) % 3]
        if not is_marked(a, b):
            new_cells.append(tri)
            new_ref.append(ref_local)
            new_parents.append(parent)
            return
        m = midpoint_of(a, b)
        # children keep CCW orientation; their refinement edges are the
        # parent edges opposite the new vertex
        split((peak, a, m), 2, parent)
        split((peak, m, b), 1, parent)

    for c in range(len(mesh.cells)):
        split(tuple(int(v) for v in mesh.cells[c]), int(mesh.refinement_edge[c]), c)

    return Mesh(
        np.array(vertices, dtype=float),
        np.array(new_cells, dtype=np.int64),
        refinement_edge=np.array(new_ref, dtype=np.int8),
        parents=np.array(new_parents, dtype=np.int64),
    )
