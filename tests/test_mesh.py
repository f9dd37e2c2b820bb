import math

import numpy as np
import pytest

from bubblefem import (
    CHARACTERISTIC,
    INFLOW,
    OUTFLOW,
    Mesh,
    build_structured_mesh,
    classify_boundary,
    refine,
)


def constant_field(vec):
    return lambda x: np.tile(vec, (len(np.atleast_2d(x)), 1))


def curved_field(x):
    x = np.atleast_2d(x)
    r = np.sqrt(x[:, 0] ** 2 + (x[:, 1] + 1.0) ** 2)
    return np.column_stack([(x[:, 1] + 1.0) / r, -x[:, 0] / r])


def min_angle(mesh):
    """Smallest interior angle over all cells (radians)."""
    tri = mesh.vertices[mesh.cells]
    angles = []
    for i in range(3):
        u = tri[:, (i + 1) % 3] - tri[:, i]
        v = tri[:, (i + 2) % 3] - tri[:, i]
        cosa = np.einsum("cd,cd->c", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.arccos(np.clip(cosa, -1.0, 1.0)))
    return float(np.min(angles))


def recursive_refine(mesh, marked):
    """Reference newest-vertex bisection: per-cell recursion over an edge dict.

    The closure pushes refinement edges of the cells incident to each
    marked edge; cells are then split recursively in cell order, children
    depth first, and midpoints are numbered on first use.
    """
    marked = np.asarray(sorted(set(int(c) for c in marked)), dtype=np.int64)
    if len(marked) == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= len(mesh.cells):
        raise ValueError("marked set contains invalid cell indices")

    ne = len(mesh.edges)
    edge_of = {(int(a), int(b)): i for i, (a, b) in enumerate(mesh.edges)}
    ref_edge_id = mesh.cell_edges[np.arange(len(mesh.cells)), mesh.refinement_edge]

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


def assert_same_refinement(mesh, marked):
    """refine and the recursive oracle agree bit for bit; returns the result."""
    got, want = refine(mesh, marked), recursive_refine(mesh, marked)
    for name in ("vertices", "cells", "refinement_edge", "parents"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    return got


def reference_connectivity(mesh):
    """Reference facet data, built as before the side sort: the np.unique
    edge numbering, owner cells from min/max passes, each owner's local
    edge searched with argmax and normals flipped outward by a centroid test.
    """
    nc, nv = len(mesh.cells), len(mesh.vertices)
    a, b = mesh.cells[:, [1, 2, 0]], mesh.cells[:, [2, 0, 1]]
    keys, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_inverse=True)
    edges = np.column_stack([keys // nv, keys % nv])
    cell_edges = inverse.reshape(nc, 3)
    flat = cell_edges.ravel()
    count = np.bincount(flat, minlength=len(edges))
    cell_of = np.repeat(np.arange(nc, dtype=np.int64), 3)
    first = np.full(len(edges), nc, dtype=np.int64)
    second = np.full(len(edges), -1, dtype=np.int64)
    np.minimum.at(first, flat, cell_of)
    np.maximum.at(second, flat, cell_of)
    interior, boundary = np.flatnonzero(count == 2), np.flatnonzero(count == 1)
    lengths = np.linalg.norm(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1)

    def normals(edge_ids, owners):
        va, vb = mesh.vertices[edges[edge_ids, 0]], mesh.vertices[edges[edge_ids, 1]]
        d = vb - va
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        centroids = mesh.vertices[mesh.cells[owners]].mean(axis=1)
        n[np.einsum("fd,fd->f", 0.5 * (va + vb) - centroids, n) < 0.0] *= -1.0
        return n

    def cases(edge_ids, owners):
        local = np.argmax(cell_edges[owners] == edge_ids[:, None], axis=1)
        against = mesh.cells[owners, (local + 1) % 3] > mesh.cells[owners, (local + 2) % 3]
        return 2 * local + against

    plus, minus, owners = first[interior], second[interior], first[boundary]
    return {
        "edges": edges, "cell_edges": cell_edges,
        "interior_edges": interior, "boundary_edges": boundary,
        "plus": plus, "minus": minus, "boundary_cells": owners,
        "edge_lengths": lengths,
        "interior_normals": normals(interior, plus), "boundary_normals": normals(boundary, owners),
        "plus_cases": cases(interior, plus), "minus_cases": cases(interior, minus),
        "boundary_cases": cases(boundary, owners),
    }


def graded_mesh():
    """Structured 4 x 4 mesh bisected 12 times at the cell holding the centre."""
    m = build_structured_mesh(4)
    for _ in range(12):
        m = refine(m, m.locate([[0.5, 0.5]]))
    return m


START_MESHES = {
    "n1": lambda: build_structured_mesh(1),
    "n3": lambda: build_structured_mesh(3),
    "n10": lambda: build_structured_mesh(10),
    # non-uniform lines conforming to the exp2 QoI box (0.7, 0.8) x (0.3, 0.5)
    "graded-grid": lambda: build_structured_mesh(
        grid_lines_x=[0.0, 0.15, 0.3, 0.45, 0.7, 0.8, 0.93, 1.0],
        grid_lines_y=[0.0, 0.1, 0.3, 0.5, 0.55, 0.8, 1.0],
    ),
}


class TestStructuredMesh:
    def test_minimal_split(self):
        m = build_structured_mesh(1)
        assert len(m.vertices) == 4
        assert len(m.cells) == 2
        assert len(m.interior_edges) == 1
        assert len(m.boundary_edges) == 4

    def test_crisscross_counts(self):
        m = build_structured_mesh(2)
        assert len(m.vertices) == 9
        assert len(m.cells) == 8
        assert len(m.interior_edges) == 8
        assert len(m.boundary_edges) == 8
        m.validate()

    def test_qoi_conforming_grid(self):
        m = build_structured_mesh(
            grid_lines_x=[0.0, 0.7, 0.8, 1.0], grid_lines_y=[0.0, 0.3, 0.5, 1.0]
        )
        region = (0.7, 0.8, 0.3, 0.5)
        tri = m.vertices[m.cells]
        inside = np.all(
            (tri[:, :, 0] >= region[0] - 1e-12) & (tri[:, :, 0] <= region[1] + 1e-12)
            & (tri[:, :, 1] >= region[2] - 1e-12) & (tri[:, :, 1] <= region[3] + 1e-12),
            axis=1,
        )
        # the cells partition the square, so the inside cells fill the
        # rectangle exactly when no cell straddles its boundary
        assert abs(m.cell_areas[inside].sum() - 0.02) < 1e-14

    def test_rejects_bad_grid_lines(self):
        with pytest.raises(ValueError):
            build_structured_mesh(grid_lines_x=[0.0, 0.5, 0.5, 1.0], grid_lines_y=[0.0, 1.0])
        with pytest.raises(ValueError):
            build_structured_mesh(grid_lines_x=[0.0, 0.9], grid_lines_y=[0.0, 1.0])
        with pytest.raises(ValueError):
            build_structured_mesh()

    def test_refinement_edge_is_hypotenuse(self):
        m = build_structured_mesh(2)
        for c in range(len(m.cells)):
            e = m.refinement_edge[c]
            opposite = m.cells[c, [(e + 1) % 3, (e + 2) % 3]]
            length = np.linalg.norm(m.vertices[opposite[0]] - m.vertices[opposite[1]])
            assert np.isclose(length, m.cell_diameters[c])


class TestClassifyBoundary:
    def test_constant_field(self):
        m = build_structured_mesh(2)
        bc = classify_boundary(m, constant_field([3.0, 1.0]))
        pairs = m.edges[m.boundary_edges]
        mids = 0.5 * (m.vertices[pairs[:, 0]] + m.vertices[pairs[:, 1]])
        for mid, label in zip(mids, bc.labels):
            if mid[0] < 1e-9 or mid[1] < 1e-9:
                assert label == INFLOW
            else:
                assert label == OUTFLOW

    def test_zero_field_characteristic(self):
        m = build_structured_mesh(2)
        bc = classify_boundary(m, constant_field([0.0, 0.0]))
        assert np.all(bc.labels == CHARACTERISTIC)

    def test_curved_field_sides(self):
        m = build_structured_mesh(4)
        bc = classify_boundary(m, curved_field)
        pairs = m.edges[m.boundary_edges]
        mids = 0.5 * (m.vertices[pairs[:, 0]] + m.vertices[pairs[:, 1]])
        for mid, label in zip(mids, bc.labels):
            if mid[0] < 1e-9 or mid[1] > 1.0 - 1e-9:  # x=0 and y=1 flow inward
                assert label == INFLOW
            else:  # x=1 and y=0 flow outward
                assert label == OUTFLOW


class TestRefine:
    def test_empty_marking_is_identity(self):
        m = build_structured_mesh(2)
        assert refine(m, []) is m

    def test_single_triangle_bisection(self):
        m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
        r = refine(m, [0])
        assert len(r.cells) == 2
        assert len(r.vertices) == 4
        r.validate()

    def test_two_cell_closure(self):
        m = build_structured_mesh(1)
        r = refine(m, [0])
        assert len(r.cells) == 4
        assert len(r.vertices) == 5
        assert sorted(r.parents.tolist()) == [0, 0, 1, 1]
        r.validate()

    def test_rejects_invalid_marks(self):
        m = build_structured_mesh(1)
        with pytest.raises(ValueError):
            refine(m, [7])

    def test_rejects_marks_that_are_not_integer_indices(self):
        # a boolean mask would be read as cells 0 and 1, and 5.9 as cell 5
        m = build_structured_mesh(2)
        mask = np.arange(len(m.cells)) == 5
        for marked in (mask, np.array([5.9]), [5.0]):
            with pytest.raises(ValueError, match="integer cell indices"):
                refine(m, marked)
        assert refine(m, []) is m
        assert np.array_equal(refine(m, np.flatnonzero(mask)).cells, refine(m, [5]).cells)

    def test_child_refinement_edge_opposite_new_vertex(self):
        m = build_structured_mesh(1)
        r = refine(m, [0])
        new_vertex = 4  # the single midpoint created
        for c in range(len(r.cells)):
            assert r.cells[c, r.refinement_edge[c]] == new_vertex

    def test_conformity_fuzz(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            m = build_structured_mesh(2)
            for _ in range(8):
                count = rng.integers(1, max(2, len(m.cells) // 3))
                marked = rng.choice(len(m.cells), size=count, replace=False)
                m = refine(m, marked)
                m.validate()
            assert abs(m.cell_areas.sum() - 1.0) < 1e-12

    def test_min_angle_bounded_over_generations(self):
        m = build_structured_mesh(1)
        floor = min_angle(m) / 2.0
        for _ in range(8):
            m = refine(m, np.arange(len(m.cells)))
            assert min_angle(m) >= floor
        assert abs(m.cell_areas.sum() - 1.0) < 1e-12

    def test_area_conservation_random(self):
        rng = np.random.default_rng(5)
        m = build_structured_mesh(3)
        for _ in range(6):
            marked = rng.choice(len(m.cells), size=len(m.cells) // 4, replace=False)
            m = refine(m, marked)
            assert abs(m.cell_areas.sum() - 1.0) < 1e-12

    def test_qoi_containment_heredity(self):
        from bubblefem.forms import Rectangle, classify_qoi_cells

        rect = Rectangle(0.7, 0.8, 0.3, 0.5)
        m = build_structured_mesh(10)
        rng = np.random.default_rng(9)
        for _ in range(4):
            inside_before = classify_qoi_cells(m, rect)
            marked = rng.choice(len(m.cells), size=len(m.cells) // 5, replace=False)
            m = refine(m, marked)
            inside_after = classify_qoi_cells(m, rect)  # raises if any straddle
            # children of inside cells stay inside
            assert np.all(inside_after == inside_before[m.parents])


class TestRefineMatchesRecursiveOracle:
    @pytest.mark.parametrize("start", sorted(START_MESHES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_marking_sequences(self, start, seed):
        rng = np.random.default_rng(seed)
        m = START_MESHES[start]()
        for _ in range(6):
            count = rng.integers(1, max(2, len(m.cells) // 3))
            m = assert_same_refinement(m, rng.choice(len(m.cells), size=count, replace=False))

    @pytest.mark.parametrize("start", sorted(START_MESHES))
    def test_full_marking(self, start):
        m = START_MESHES[start]()
        for _ in range(2):
            m = assert_same_refinement(m, np.arange(len(m.cells)))

    def test_single_marked_cell_closure(self):
        m = graded_mesh()
        added = [len(assert_same_refinement(m, [c]).cells) - len(m.cells)
                 for c in range(len(m.cells))]
        # one marked cell on the graded mesh splits cells far from itself
        assert max(added) >= 20

    def test_duplicate_and_unsorted_marks(self):
        m = build_structured_mesh(3)
        assert_same_refinement(m, [7, 2, 7, 11, 2])


class TestConnectivityMatchesReference:
    @pytest.fixture(
        params=[*sorted(START_MESHES), "graded", "random-refined"], scope="class"
    )
    def mesh(self, request):
        if request.param == "graded":
            return graded_mesh()
        if request.param == "random-refined":
            rng = np.random.default_rng(11)
            m = START_MESHES["graded-grid"]()
            for _ in range(5):
                m = refine(m, rng.choice(len(m.cells), size=len(m.cells) // 4, replace=False))
            return m
        return START_MESHES[request.param]()

    def test_bit_identical(self, mesh):
        from bubblefem.forms import facet_cases

        want = reference_connectivity(mesh)
        plus, minus = mesh.interior_sides.T // 3
        got = {
            "edges": mesh.edges, "cell_edges": mesh.cell_edges,
            "interior_edges": mesh.interior_edges, "boundary_edges": mesh.boundary_edges,
            "plus": plus, "minus": minus, "boundary_cells": mesh.boundary_sides // 3,
            "edge_lengths": mesh.edge_lengths,
            "interior_normals": mesh.interior_normals,
            "boundary_normals": mesh.boundary_normals,
            "plus_cases": facet_cases(mesh, mesh.interior_sides[:, 0]),
            "minus_cases": facet_cases(mesh, mesh.interior_sides[:, 1]),
            "boundary_cases": facet_cases(mesh, mesh.boundary_sides),
        }
        _, J, _, got["det"] = mesh.affine
        want["det"] = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        for name, b in want.items():
            a = got[name]
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("make", [lambda: build_structured_mesh(3), graded_mesh],
                         ids=["structured", "refined"])
def test_every_array_is_read_only(make):
    m = make()
    arrays = {name: v for name, v in vars(m).items() if isinstance(v, np.ndarray)}
    arrays.update({f"affine[{i}]": v for i, v in enumerate(m.affine)})
    assert {"interior_sides", "boundary_sides", "side_reversed", "edge_lengths",
            "boundary_normals"} <= set(arrays)
    for arr in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr


class TestMeshInvariants:
    def test_rejects_clockwise_cell(self):
        with pytest.raises(ValueError):
            Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 2, 1]]))

    def test_normals_unit_and_outward(self):
        m = build_structured_mesh(3)
        for n in (m.interior_normals, m.boundary_normals):
            assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
        # interior normal points from T+ into T-
        pairs = m.edges[m.interior_edges]
        mids = 0.5 * (m.vertices[pairs[:, 0]] + m.vertices[pairs[:, 1]])
        plus, minus = m.interior_sides.T // 3
        plus_centroids = m.vertices[m.cells[plus]].mean(axis=1)
        minus_centroids = m.vertices[m.cells[minus]].mean(axis=1)
        assert np.all(np.einsum("fd,fd->f", mids - plus_centroids, m.interior_normals) > 0)
        assert np.all(np.einsum("fd,fd->f", minus_centroids - mids, m.interior_normals) > 0)

    @pytest.mark.parametrize("vertex, cell, parents, match", [
        ((math.nan, 1.0), (0, 1, 3), None, "finite"),
        ((1.0, 5.0), (0, 1, -1), None, "vertex indices"),  # wrapped to vertex 3: area 2.5
        ((1.0, 5.0), (0, 1, 4), None, "vertex indices"),
        # a clockwise cell, which the geometry would report
        ((1.0, 5.0), (0, 2, 1), [0, 0], "parents"),
        ((1.0, 5.0), (0, 2, 1), [-1], "parents"),
    ], ids=["nan-vertex", "negative-index", "index-beyond-nv", "parents-length", "negative-parent"])
    def test_rejects_invalid_input_before_geometry(self, vertex, cell, parents, match):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], vertex])
        with pytest.raises(ValueError, match=match):
            Mesh(vertices, np.array([cell]), parents=parents)

    def test_side_reversed_is_each_sides_walk_against_its_edge(self):
        m = graded_mesh()
        # walks[c, i] = (vertex (i+1)%3, vertex (i+2)%3) of cell c
        walks = np.stack([m.cells[:, [1, 2, 0]], m.cells[:, [2, 0, 1]]], axis=2)
        assert m.side_reversed.shape == (len(m.cells), 3) and m.side_reversed.dtype == bool
        assert np.array_equal(m.side_reversed, walks[:, :, 0] > walks[:, :, 1])
        edges = m.edges[m.cell_edges]
        assert np.array_equal(edges, np.sort(walks, axis=2))
        assert np.array_equal(edges, np.where(m.side_reversed[:, :, None], walks[:, :, ::-1], walks))
        assert 0 < np.count_nonzero(m.side_reversed) < m.side_reversed.size

    def test_rejects_edge_shared_by_three_cells(self):
        # three counterclockwise cells fanned around the edge (0, 1)
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, -1.0]])
        cells = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
        with pytest.raises(ValueError, match="shared by more than two cells"):
            Mesh(vertices, cells)

    def test_plus_cell_has_smaller_index(self):
        m = build_structured_mesh(4)
        plus, minus = m.interior_sides.T // 3
        assert np.all(plus < minus)

    def test_diameter_is_longest_edge(self):
        m = refine(build_structured_mesh(2), [0, 3, 5])
        tri = m.vertices[m.cells]
        for i, cell in enumerate(tri):
            lengths = [np.linalg.norm(cell[a] - cell[b]) for a, b in ((0, 1), (1, 2), (2, 0))]
            assert np.isclose(m.cell_diameters[i], max(lengths))

    def test_validate_ties_edge_table_to_cells(self):
        # each cell's local edge i must be the global edge of the same length:
        # permuting the columns of cell_edges breaks that and fails validate()
        m = refine(build_structured_mesh(2), [0, 3, 5])
        assert m.validate()
        m.cell_edges = m.cell_edges[:, [1, 2, 0]]
        with pytest.raises(AssertionError, match="edge length"):
            m.validate()

    def test_locate_and_outside_error(self):
        m = build_structured_mesh(2)
        cells = m.locate([[0.1, 0.1], [0.9, 0.9]])
        assert len(cells) == 2
        with pytest.raises(ValueError):
            m.locate([[1.5, 0.5]])
