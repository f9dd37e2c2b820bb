import numpy as np
import pytest

from bubblefem import (
    DiscreteFunction,
    broken_lagrange,
    bubble_basis,
    build_space,
    build_structured_mesh,
    enriched,
    inject_trial,
    trial_lagrange,
)
from bubblefem.spaces import values_in_cells


@pytest.fixture
def two_cell_mesh():
    return build_structured_mesh(1)


class TestBuildSpace:
    def test_p1_dim_is_vertex_count(self, two_cell_mesh):
        space = build_space(two_cell_mesh, trial_lagrange(1))
        assert space.dim == 4

    def test_p2_dim_is_vertices_plus_edges(self):
        m = build_structured_mesh(3)
        space = build_space(m, trial_lagrange(2))
        assert space.dim == len(m.vertices) + len(m.edges)

    def test_enriched_nested_numbering(self, two_cell_mesh):
        space = build_space(two_cell_mesh, enriched(1, 3))
        trial = build_space(two_cell_mesh, trial_lagrange(1))
        assert space.dim == 6
        assert space.n_trial == 4
        assert np.array_equal(space.cell_dofs[:, :3], trial.cell_dofs)

    def test_enriched_degenerates_for_small_k(self, two_cell_mesh):
        space = build_space(two_cell_mesh, enriched(2, 2))
        trial = build_space(two_cell_mesh, trial_lagrange(2))
        assert space.dim == trial.dim
        space13 = build_space(two_cell_mesh, enriched(3, 3))
        assert space13.dim == build_space(two_cell_mesh, trial_lagrange(3)).dim

    def test_spaces_of_one_kind_share_one_basis(self, two_cell_mesh):
        # the reference element is built once per kind and shared, so its
        # tables (reference.tabulate) are too
        kind = enriched(2, 4)
        space = build_space(two_cell_mesh, kind)
        other = build_space(build_structured_mesh(3), kind)
        assert other.local_basis is space.local_basis
        assert build_space(two_cell_mesh, enriched(1, 3)).local_basis is not space.local_basis

    def test_rejects_unsupported(self, two_cell_mesh):
        with pytest.raises(ValueError):
            build_space(two_cell_mesh, trial_lagrange(4))
        with pytest.raises(ValueError):
            bubble_basis(2)


class TestInjectTrial:
    def test_zero_maps_to_zero(self, two_cell_mesh):
        trial = build_space(two_cell_mesh, trial_lagrange(1))
        target = build_space(two_cell_mesh, enriched(1, 3))
        out = inject_trial(DiscreteFunction(trial), target)
        assert not out.coefficients.any()

    def test_linear_reproduced(self):
        m = build_structured_mesh(3)
        trial = build_space(m, trial_lagrange(1))
        target = build_space(m, enriched(1, 3))
        fn = DiscreteFunction(trial, m.vertices[:, 0].copy())
        out = inject_trial(fn, target)
        rng = np.random.default_rng(0)
        pts = rng.random((100, 2))
        assert np.abs(out.evaluate(pts) - pts[:, 0]).max() < 1e-13

    def test_l2_norm_preserved(self):
        from bubblefem import assemble_mass

        m = build_structured_mesh(3)
        trial = build_space(m, trial_lagrange(2))
        target = build_space(m, enriched(2, 4))
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(trial.dim)
        Mt = assemble_mass(trial)
        Me = assemble_mass(target)
        padded = inject_trial(DiscreteFunction(trial, coeffs), target).coefficients
        a = coeffs @ (Mt @ coeffs)
        b = padded @ (Me @ padded)
        assert abs(a - b) < 1e-13 * a

    def test_rejects_mismatch(self, two_cell_mesh):
        trial = build_space(two_cell_mesh, trial_lagrange(2))
        target = build_space(two_cell_mesh, enriched(1, 3))
        with pytest.raises(ValueError):
            inject_trial(DiscreteFunction(trial), target)


class TestEvaluate:
    def test_constant_one(self, two_cell_mesh):
        space = build_space(two_cell_mesh, trial_lagrange(1))
        fn = DiscreteFunction(space, np.ones(space.dim))
        pts = np.random.default_rng(2).random((20, 2))
        assert np.allclose(fn.evaluate(pts), 1.0, atol=1e-14)

    def test_bubble_barycenter_value(self, two_cell_mesh):
        space = build_space(two_cell_mesh, enriched(1, 3))
        fn = DiscreteFunction(space)
        fn.coefficients[space.n_trial] = 1.0  # bubble of cell 0
        bary = two_cell_mesh.vertices[two_cell_mesh.cells[0]].mean(axis=0)
        assert np.allclose(fn.evaluate([bary]), 1.0 / 27.0)

    def test_bubble_locality(self, two_cell_mesh):
        space = build_space(two_cell_mesh, enriched(1, 3))
        fn = DiscreteFunction(space)
        fn.coefficients[space.n_trial] = 1.0
        other = two_cell_mesh.vertices[two_cell_mesh.cells[1]].mean(axis=0)
        vals = values_in_cells(fn, np.array([1]), other[None, :])
        assert abs(vals[0]) < 1e-15

    def test_nestedness_random(self):
        m = build_structured_mesh(3)
        trial = build_space(m, trial_lagrange(1))
        target = build_space(m, enriched(1, 4))
        rng = np.random.default_rng(4)
        fn = DiscreteFunction(trial, rng.standard_normal(trial.dim))
        out = inject_trial(fn, target)
        pts = rng.random((100, 2))
        assert np.abs(fn.evaluate(pts) - out.evaluate(pts)).max() < 1e-13

    def test_broken_space_is_discontinuous_and_local(self):
        m = build_structured_mesh(2)
        space = build_space(m, broken_lagrange(1))
        assert space.dim == 3 * len(m.cells)
        fn = DiscreteFunction(space)
        fn.coefficients[space.cell_dofs[0]] = 1.0
        bary0 = m.vertices[m.cells[0]].mean(axis=0)
        bary1 = m.vertices[m.cells[1]].mean(axis=0)
        assert np.allclose(values_in_cells(fn, np.array([0]), bary0[None, :]), 1.0)
        assert np.allclose(values_in_cells(fn, np.array([1]), bary1[None, :]), 0.0)
