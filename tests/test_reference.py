import math

import numpy as np
import pytest

from bubblefem import bubble_basis, edge_rule, lagrange_basis, triangle_rule
from bubblefem.reference import combine_bases, reference_facet_points, tabulate


def monomial_integral(a, b):
    # int over reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestLagrange:
    def test_counts(self):
        for p in (1, 2, 3):
            assert lagrange_basis(p).count == (p + 1) * (p + 2) // 2

    def test_rejects_unsupported_degree(self):
        for p in (0, 4, -1):
            with pytest.raises(ValueError):
                lagrange_basis(p)

    def test_kronecker_at_nodes(self):
        for p in (1, 2, 3):
            basis = lagrange_basis(p)
            vals = basis.evaluate(basis.nodes)
            assert np.allclose(vals, np.eye(basis.count), atol=1e-12)

    def test_p1_nodal_values(self):
        basis = lagrange_basis(1)
        vals = basis.evaluate([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(vals, np.eye(3), atol=1e-14)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 2)) * 0.5
        for p in (1, 2, 3):
            sums = lagrange_basis(p).evaluate(pts).sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-12)
        assert np.allclose(lagrange_basis(2).evaluate([[0.25, 0.25]]).sum(), 1.0)

    def test_p1_gradient_of_corner_function(self):
        grad = lagrange_basis(1).gradient([[0.3, 0.3]])
        assert np.allclose(grad[0, 0], [-1.0, -1.0], atol=1e-14)


class TestBubble:
    def test_counts(self):
        for k in (3, 4, 5):
            assert bubble_basis(k).count == (k - 1) * (k - 2) // 2
        assert bubble_basis(4).count == 3
        for k in (4, 5, 6):
            # lowest = 1 drops the cubic bubble b_T itself
            assert bubble_basis(k, lowest=1).count == (k - 1) * (k - 2) // 2 - 1

    def test_rejects_low_degree(self):
        for k in (0, 1, 2):
            with pytest.raises(ValueError):
                bubble_basis(k)

    def test_cubic_bubble_at_barycenter(self):
        val = bubble_basis(3).evaluate([[1 / 3, 1 / 3]])
        assert np.allclose(val, 1.0 / 27.0, atol=1e-15)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_vanishes_on_boundary(self, k):
        basis = bubble_basis(k)
        t = np.linspace(0.0, 1.0, 20)
        edges = [
            np.column_stack([t, np.zeros_like(t)]),
            np.column_stack([np.zeros_like(t), t]),
            np.column_stack([t, 1.0 - t]),
        ]
        for edge in edges:
            assert np.abs(basis.evaluate(edge)).max() < 1e-13


class TestGradients:
    @pytest.mark.parametrize("make", [
        lambda: lagrange_basis(1),
        lambda: lagrange_basis(2),
        lambda: lagrange_basis(3),
        lambda: bubble_basis(3),
        lambda: bubble_basis(4),
        lambda: bubble_basis(5),
    ])
    def test_matches_finite_differences(self, make):
        basis = make()
        rng = np.random.default_rng(11)
        pts = rng.random((50, 2)) * 0.4 + 0.05
        h = 1e-6
        gx = (basis.evaluate(pts + [h, 0]) - basis.evaluate(pts - [h, 0])) / (2 * h)
        gy = (basis.evaluate(pts + [0, h]) - basis.evaluate(pts - [0, h])) / (2 * h)
        grad = basis.gradient(pts)
        assert np.abs(grad[:, :, 0] - gx).max() < 1e-6
        assert np.abs(grad[:, :, 1] - gy).max() < 1e-6


class TestQuadrature:
    def test_centroid_rule(self):
        rule = triangle_rule(1)
        assert np.allclose(rule.points, [[1 / 3, 1 / 3]])
        assert np.allclose(rule.weights, [0.5])

    @pytest.mark.parametrize("degree", list(range(0, 21, 2)) + [7, 13, 19])
    def test_monomial_exactness(self, degree):
        rule = triangle_rule(degree)
        assert rule.exact_degree >= degree
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 0.5) < 1e-13
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                exact = monomial_integral(a, b)
                assert abs(val - exact) <= 1e-13 * max(1.0, abs(exact)), (a, b)

    def test_edge_rule_two_point_gauss(self):
        rule = edge_rule(3)
        root = 1.0 / math.sqrt(3.0)
        assert np.allclose(sorted(rule.points), [(1 - root) / 2, (1 + root) / 2])
        assert np.allclose(rule.weights, [0.5, 0.5])

    @pytest.mark.parametrize("degree", range(0, 21, 3))
    def test_edge_monomial_exactness(self, degree):
        rule = edge_rule(degree)
        assert abs(rule.weights.sum() - 1.0) < 1e-13
        for a in range(degree + 1):
            val = np.sum(rule.weights * rule.points**a)
            assert abs(val - 1.0 / (a + 1)) < 1e-13

    @pytest.mark.parametrize("n", range(1, 12))
    def test_gauss_rules_match_scipy(self, n):
        # n = 11 points is the largest rule any degree <= MAX_QUAD_DEGREE asks for
        from scipy.special import roots_jacobi, roots_legendre

        from bubblefem.reference import _gauss_jacobi

        x, w = _gauss_jacobi(n)
        xs, ws = roots_jacobi(n, 1.0, 0.0)
        assert np.abs(x - xs).max() <= 1e-14
        assert np.abs(w - ws).max() <= 1e-14
        rule = edge_rule(2 * n - 2)
        xs, ws = roots_legendre(n)
        assert len(rule.points) == n
        assert np.abs(rule.points - (1.0 + xs) / 2.0).max() <= 1e-14
        assert np.abs(rule.weights - ws / 2.0).max() <= 1e-14

    def test_rejects_beyond_cap(self):
        with pytest.raises(ValueError):
            triangle_rule(21)
        with pytest.raises(ValueError):
            edge_rule(25)

    @pytest.mark.parametrize("make", [triangle_rule, edge_rule])
    def test_cached_rule_is_shared_and_read_only(self, make):
        rule = make(7)
        assert make(7) is rule
        with pytest.raises(ValueError):
            rule.points[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


@pytest.mark.parametrize("table, degree", [("values", 8), ("mass", 8), ("advection", 8),
                                           ("facet values", 6), ("facet gradients", 6)])
def test_tabulation_cached_and_read_only(table, degree):
    basis = combine_bases(lagrange_basis(1), bubble_basis(3))
    array = tabulate(basis, table, degree)
    assert tabulate(basis, table, degree) is array
    with pytest.raises(ValueError):
        array.flat[0] = 0.0
    with pytest.raises(ValueError):
        basis._coeffs[0, 0] = 0.0


def test_tabulation_matches_evaluation():
    basis = combine_bases(lagrange_basis(2), bubble_basis(4))
    points = triangle_rule(8).points
    phi, gref = basis.evaluate(points), basis.gradient(points)
    assert np.array_equal(tabulate(basis, "values", 8), phi)
    assert np.array_equal(tabulate(basis, "mass", 8).reshape(len(points), basis.count, -1),
                          np.einsum("qi,qj->qij", phi, phi))
    advection = tabulate(basis, "advection", 8).reshape(len(points), 2, basis.count, -1)
    assert np.array_equal(advection, np.einsum("qid,qj->qdij", gref, phi))
    facet = reference_facet_points(edge_rule(6).points)
    assert np.array_equal(tabulate(basis, "facet values", 6),
                          basis.evaluate(facet.reshape(-1, 2)).reshape(6, -1, basis.count))
    assert np.array_equal(tabulate(basis, "facet gradients", 6).reshape(6, -1, basis.count, 2),
                          basis.gradient(facet.reshape(-1, 2)).reshape(6, -1, basis.count, 2))


@pytest.mark.parametrize("p,k", [(1, 3), (1, 4), (2, 4), (3, 4), (3, 5)])
def test_enriched_local_basis_independent(p, k):
    # the bubbles b_T x^a y^b with a + b >= p - 2 are independent of P_p
    basis = combine_bases(lagrange_basis(p), bubble_basis(k, lowest=p - 2))
    rule = triangle_rule(2 * k + 2)
    vals = basis.evaluate(rule.points)
    gram = np.einsum("q,qi,qj->ij", rule.weights, vals, vals)
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() > 0.0
    assert eig.min() / eig.max() > 1e-14
