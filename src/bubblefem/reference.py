"""Reference-triangle polynomial bases and numerical quadrature.

The reference triangle is ``T_hat = {(x, y) : x >= 0, y >= 0, x + y <= 1}``
with vertices ``(0,0), (1,0), (0,1)``; reference edges carry the local
numbering "edge i is opposite vertex i".  Edge quadrature lives on the
parameter interval ``[0, 1]``.

Basis functions are stored as coefficient matrices over a monomial basis,
so values and gradients can be evaluated at arbitrary points.  Assembly
reads each basis on a rule from ``tabulate``, which evaluates it once per
process, per basis and rule degree: on a triangle rule, or on the six
reference-facet cases of an edge rule (``reference_facet_points``).
``spaces.build_space`` shares one basis per space kind, so a run tabulates
each space kind once per rule.  Quadrature rules and tabulations are cached
and their arrays are read-only.

The Gauss nodes and weights come from numpy alone.  Gauss-Legendre is
``numpy.polynomial.legendre.leggauss``.  Gauss-Jacobi for the weight 1 - x
takes its nodes from the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the weight's three-term recurrence (Golub and Welsch, Math. Comp.
23, 1969), polished by one Newton step on that recurrence.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_QUAD_DEGREE = 20

_REFERENCE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

#: Barycentric coordinates of the reference triangle evaluated symbolically:
#: lam0 = 1 - x - y, lam1 = x, lam2 = y.


def monomial_exponents(degree):
    """Exponent pairs (a, b) with a + b <= degree, graded ordering."""
    return [(s - b, b) for s in range(degree + 1) for b in range(s + 1)]


def _read_only(array):
    array.setflags(write=False)
    return array


def _eval_monomials(exps, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = points[:, 0], points[:, 1]
    return np.stack([x**a * y**b for a, b in exps], axis=1)


def _eval_monomial_gradients(exps, points):
    """Monomial derivatives, shape (2, npoints, n_monomials): d/dx then d/dy."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = points[:, 0], points[:, 1]
    out = np.zeros((2, len(points), len(exps)))
    for j, (a, b) in enumerate(exps):
        if a:
            out[0, :, j] = a * x ** (a - 1) * y**b
        if b:
            out[1, :, j] = b * x**a * y ** (b - 1)
    return out


class ReferenceBasis:
    """A set of polynomial basis functions on the reference triangle.

    Attributes
    ----------
    degree : int
        Maximal total polynomial degree.
    count : int
        Number of basis functions.
    nodes : ndarray or None
        Nodal points of a Lagrange basis (Kronecker property holds
        there), else None.
    """

    def __init__(self, degree, coeffs, nodes=None):
        self.degree = degree
        self._coeffs = _read_only(coeffs)  # (n_monomials, count) over monomial_exponents(degree)
        self._exps = monomial_exponents(degree)
        self.nodes = None if nodes is None else _read_only(np.array(nodes, dtype=float))
        self.count = coeffs.shape[1]

    def evaluate(self, points):
        """Basis values, shape (npoints, count)."""
        return _eval_monomials(self._exps, points) @ self._coeffs

    def gradient(self, points):
        """Basis gradients, shape (npoints, count, 2)."""
        g = np.matmul(_eval_monomial_gradients(self._exps, points), self._coeffs)
        return np.ascontiguousarray(g.transpose(1, 2, 0))


def _lagrange_nodes(p):
    # Vertices, then (p-1) nodes per edge walking edge i from vertex
    # (i+1)%3 towards (i+2)%3, then interior nodes.
    verts = _REFERENCE_VERTICES
    nodes = [verts[0], verts[1], verts[2]]
    for i in range(3):
        a, b = verts[(i + 1) % 3], verts[(i + 2) % 3]
        for m in range(1, p):
            nodes.append(a + (b - a) * m / p)
    if p >= 3:
        # total degree 3 has a single interior node at the barycenter
        nodes.append(np.array([1.0, 1.0]) / 3.0)
    return np.array(nodes)


def lagrange_basis(p):
    """Nodal Lagrange basis of total degree p on the reference triangle.

    Supported degrees are 1 to 3.  Node layout: the three vertices, then
    p-1 nodes per edge (local edge i opposite vertex i, walked from
    vertex (i+1)%3 to (i+2)%3), then interior nodes.
    """
    if p not in (1, 2, 3):
        raise ValueError(f"lagrange degree must be 1, 2 or 3, got {p}")
    exps = monomial_exponents(p)
    nodes = _lagrange_nodes(p)
    vander = _eval_monomials(exps, nodes)
    coeffs = np.linalg.inv(vander)
    return ReferenceBasis(p, coeffs, nodes=nodes)


def bubble_basis(k, lowest=0):
    """Interior bubble basis of degree k: lam0*lam1*lam2 times the
    monomials x^a y^b with lowest <= a + b <= k - 3.

    Every function vanishes identically on the triangle boundary; the
    count is (k-1)(k-2)/2 for lowest <= 0, and lowest(lowest+1)/2 fewer
    otherwise.  Requires k >= 3.
    """
    if k < 3:
        raise ValueError(f"bubble degree must be >= 3, got {k}")
    exps = monomial_exponents(k)
    index = {e: i for i, e in enumerate(exps)}
    # lam0*lam1*lam2 = x*y*(1 - x - y) = xy - x^2 y - x y^2
    cubic = {(1, 1): 1.0, (2, 1): -1.0, (1, 2): -1.0}
    cols = []
    for a, b in monomial_exponents(k - 3):
        if a + b < lowest:
            continue
        col = np.zeros(len(exps))
        for (c, d), w in cubic.items():
            col[index[(a + c, b + d)]] += w
        cols.append(col)
    coeffs = np.stack(cols, axis=1)
    return ReferenceBasis(k, coeffs)


def combine_bases(*bases):
    """Stack bases into one (used for the bubble-enriched local basis).

    The graded monomials of a lower degree are a prefix of those of a
    higher one, so each coefficient block is padded with zero rows.
    """
    degree = max(b.degree for b in bases)
    n = len(monomial_exponents(degree))
    return ReferenceBasis(degree, np.hstack(
        [np.pad(b._coeffs, ((0, n - len(b._coeffs)), (0, 0))) for b in bases]))


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight quadrature rule exact up to ``exact_degree``.

    Triangle rules carry (n, 2) reference points and weights summing to
    the reference area 1/2; edge rules carry (n,) parameters in [0, 1]
    and weights summing to 1.
    """

    points: np.ndarray
    weights: np.ndarray
    exact_degree: int


def _frozen_rule(points, weights, exact_degree):
    return QuadratureRule(_read_only(points), _read_only(weights), exact_degree)


def _monic_jacobi(x, a, b):
    """pi_{n-1}(x), pi_n(x) and pi_n'(x) from the monic recurrence
    pi_{j+1} = (x - a_j) pi_j - b_j pi_{j-1}, j = 0 .. n-1."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    for aj, bj in zip(a, b):
        p_prev, p, d_prev, d = p, (x - aj) * p - bj * p_prev, d, p + (x - aj) * d - bj * d_prev
    return p_prev, p, d


def _gauss_jacobi(n):
    """n-point Gauss rule on [-1, 1] for the weight 1 - x (Jacobi alpha = 1,
    beta = 0): ascending nodes and weights summing to 2.

    The weights are proportional to 1 / (pi_{n-1} pi_n') at the nodes.
    """
    j = np.arange(n, dtype=float)
    a = -1.0 / ((2 * j + 1) * (2 * j + 3))
    b = j * (j + 1) / (2 * j + 1) ** 2  # squared off-diagonal; b_0 = 0
    off = np.sqrt(b[1:])
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    _, p, d = _monic_jacobi(x, a, b)
    x = x - p / d
    p_prev, _, d = _monic_jacobi(x, a, b)
    w = 1.0 / (p_prev * d)
    return x, 2.0 * w / w.sum()


@functools.lru_cache(maxsize=None)
def triangle_rule(degree):
    """Conical-product Gauss rule on the reference triangle.

    Gauss-Jacobi (weight 1-x) in the first direction crossed with
    Gauss-Legendre in the collapsed direction; all weights positive.
    Rules are cached per degree and shared, so their arrays are read-only.
    """
    if degree > MAX_QUAD_DEGREE:
        raise ValueError(f"triangle rule degree {degree} exceeds {MAX_QUAD_DEGREE}")
    n = max(1, math.ceil((degree + 1) / 2))
    xj, wj = _gauss_jacobi(n)
    xl, wl = leggauss(n)
    x = (1.0 + xj) / 2.0
    s = (1.0 + xl) / 2.0
    # point j * n + i is (x_j, (1 - x_j) s_i)
    pts = np.column_stack([np.repeat(x, n), np.outer(1.0 - x, s).ravel()])
    return _frozen_rule(pts, np.outer(wj / 4.0, wl / 2.0).ravel(), 2 * n - 1)


@functools.lru_cache(maxsize=None)
def edge_rule(degree):
    """Gauss-Legendre rule on the parameter interval [0, 1] (cached, read-only)."""
    if degree > MAX_QUAD_DEGREE:
        raise ValueError(f"edge rule degree {degree} exceeds {MAX_QUAD_DEGREE}")
    n = max(1, math.ceil((degree + 1) / 2))
    xl, wl = leggauss(n)
    return _frozen_rule((1.0 + xl) / 2.0, wl / 2.0, 2 * n - 1)


def reference_facet_points(params):
    """Edge-rule parameters mapped onto the six reference-facet cases.

    Case ``2 * i + r`` walks local edge i from vertex (i+1)%3 to (i+2)%3
    (r = 0) or backwards (r = 1).  Returns shape (6, len(params), 2).
    """
    t = np.asarray(params, dtype=float)[:, None]
    out = np.empty((6, len(t), 2))
    for i in range(3):
        a = _REFERENCE_VERTICES[(i + 1) % 3]
        b = _REFERENCE_VERTICES[(i + 2) % 3]
        out[2 * i] = a + t * (b - a)
        out[2 * i + 1] = b + t * (a - b)
    return out


def _values(basis, degree):
    return basis.evaluate(triangle_rule(degree).points)


def _mass_products(basis, degree):
    phi = tabulate(basis, "values", degree)
    return (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), -1)


def _advection_products(basis, degree):
    phi = tabulate(basis, "values", degree)
    gref = basis.gradient(triangle_rule(degree).points)
    products = gref.transpose(0, 2, 1)[:, :, :, None] * phi[:, None, None, :]
    return products.reshape(2 * len(phi), -1)


def _facet_values(basis, degree):
    points = reference_facet_points(edge_rule(degree).points).reshape(-1, 2)
    return basis.evaluate(points).reshape(6, -1, basis.count)


def _facet_gradients(basis, degree):
    points = reference_facet_points(edge_rule(degree).points).reshape(-1, 2)
    return basis.gradient(points).reshape(6, -1, 2)


# table name -> its computation from (basis, rule degree); see ``tabulate``
_TABLES = {"values": _values, "mass": _mass_products, "advection": _advection_products,
           "facet values": _facet_values, "facet gradients": _facet_gradients}


@functools.lru_cache(maxsize=None)
def tabulate(basis, table, degree):
    """The table ``table`` of ``basis`` on the rule of ``degree``, computed on
    first use and read-only.

    On ``triangle_rule(degree)`` with nq points and n = ``basis.count``:

    * ``"values"``: phi_i at each point, shape (nq, n);
    * ``"mass"``: the products phi_i phi_j, shape (nq, n * n);
    * ``"advection"``: the products d_d phi_i phi_j per direction d and
      point, shape (2 nq, n * n), rows ordered (point, direction).

    On the six reference-facet cases of ``edge_rule(degree)`` with nq
    points (``reference_facet_points``):

    * ``"facet values"``: shape (6, nq, n);
    * ``"facet gradients"``: the reference gradients, shape (6, nq * n, 2),
      rows ordered (point, function).

    The cache is keyed by the basis object, which ``spaces.build_space``
    shares per space kind, and the rule degree, because a rule holds arrays
    and cannot be hashed; a run uses a handful of keys.
    """
    return _read_only(_TABLES[table](basis, degree))
