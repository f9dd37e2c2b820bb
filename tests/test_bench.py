import math

import numpy as np
import pytest

from bubblefem import experiment1, experiment2, get_benchmark, qoi_reference


def fd_gradient(f, pts, h=1e-6):
    gx = (f(pts + [h, 0.0]) - f(pts - [h, 0.0])) / (2 * h)
    gy = (f(pts + [0.0, h]) - f(pts - [0.0, h])) / (2 * h)
    return np.column_stack([gx, gy])


def fd_divergence(field, pts, h=1e-6):
    dx = (field(pts + [h, 0.0])[:, 0] - field(pts - [h, 0.0])[:, 0]) / (2 * h)
    dy = (field(pts + [0.0, h])[:, 1] - field(pts - [0.0, h])[:, 1]) / (2 * h)
    return dx + dy


def interior_points(n, seed):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) * 0.98 + 0.01


class TestExperiment1:
    @pytest.mark.parametrize("delta", [0.5, 0.01, 0.001, 0.0001])
    def test_operator_residual_vanishes(self, delta):
        # f is identically zero: the angular exponential factor decays at
        # exactly the reaction rate along characteristics.  Cross-check
        # with the analytic gradient, itself checked against differences.
        bench = experiment1(delta)
        pts = interior_points(1000, seed=int(1 / delta))
        grad = bench.exact_grad(pts)
        b = bench.data.velocity(pts)
        mu = bench.data.reaction(pts)
        resid = np.einsum("nd,nd->n", b, grad) + mu * bench.exact(pts) - bench.data.source(pts)
        scale = np.maximum(1.0, np.abs(bench.exact(pts)))
        assert np.abs(resid / scale).max() < 1e-8

    def test_gradient_matches_finite_differences(self):
        bench = experiment1(0.5)
        pts = interior_points(500, seed=42)
        fd = fd_gradient(bench.exact, pts)
        assert np.abs(fd - bench.exact_grad(pts)).max() < 1e-6

    def test_unit_speed(self):
        bench = experiment1(0.01)
        pts = interior_points(100, seed=7)
        speed = np.linalg.norm(bench.data.velocity(pts), axis=1)
        assert np.allclose(speed, 1.0, atol=1e-13)

    def test_divergence_free(self):
        bench = experiment1(0.01)
        pts = interior_points(300, seed=8)
        assert np.abs(fd_divergence(bench.data.velocity, pts)).max() < 1e-9

    def test_inflow_data_is_exact_trace(self):
        bench = experiment1(0.01)
        y = np.linspace(0.0, 1.0, 40)
        inflow = np.vstack([np.column_stack([np.zeros_like(y), y]),
                            np.column_stack([y, np.ones_like(y)])])
        assert np.abs(bench.data.inflow_data(inflow) - bench.exact(inflow)).max() == 0.0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            experiment1(0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="finite"):
            experiment1(delta)

    def test_defaults(self):
        bench = experiment1()
        assert bench.data.reaction_floor == pytest.approx(0.1)
        assert bench.qoi_region is None


class TestExperiment2:
    def test_pure_advection_of_exact_solution(self):
        bench = experiment2()
        pts = interior_points(1000, seed=9)
        grad = bench.exact_grad(pts)
        b = bench.data.velocity(pts)
        assert np.abs(np.einsum("nd,nd->n", b, grad)).max() < 1e-9

    def test_gradient_matches_finite_differences(self):
        bench = experiment2()
        # stay away from the sharp layer where FD at 1e-6 loses accuracy
        pts = interior_points(500, seed=10)
        s = pts[:, 1] - pts[:, 0] / 3.0
        pts = pts[np.abs(s - 0.75) > 0.02]
        fd = fd_gradient(bench.exact, pts)
        assert np.abs(fd - bench.exact_grad(pts)).max() < 2e-5

    def test_corner_value(self):
        bench = experiment2()
        val = bench.exact(np.array([[0.0, 0.0]]))[0]
        expected = 2.0 + np.tanh(-2.5) + np.tanh(-750.0)
        assert val == pytest.approx(expected, rel=1e-14)
        assert val == pytest.approx(0.01339, abs=5e-6)

    def test_goal_reference_self_convergent(self):
        bench = experiment2()
        ref = qoi_reference(bench.exact, bench.qoi_region)
        again = qoi_reference(bench.exact, bench.qoi_region, rtol=1e-12)
        assert ref == pytest.approx(again, rel=1e-10)

    def test_source_zero_and_region(self):
        bench = experiment2()
        pts = interior_points(50, seed=11)
        assert not bench.data.source(pts).any()
        assert bench.qoi_region.area == pytest.approx(0.02)

    def test_initial_mesh_conforms_to_region(self):
        from bubblefem.forms import classify_qoi_cells

        bench = experiment2()
        m = bench.initial_mesh()
        inside = classify_qoi_cells(m, bench.qoi_region)
        assert np.isclose(m.cell_areas[inside].sum(), bench.qoi_region.area)


class TestRegistry:
    def test_lookup(self):
        assert get_benchmark("exp1", delta=0.5).name == "curved-layer"
        assert get_benchmark("exp2").name == "goal-tanh"
        with pytest.raises(ValueError, match="delta"):
            get_benchmark("exp2", delta=0.5)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("exp3")
