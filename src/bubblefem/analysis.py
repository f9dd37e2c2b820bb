"""Norms, projections, interpolation and error measurement.

The mesh-dependent energy ("triple") norm combines a weighted L2 term,
a |b.n|-weighted boundary term and the gradient-jump penalty: the three
terms of ``forms.FormTables.energy_terms``, which also give the Gram
matrix.  ``energy_products`` integrates point values on those terms,
contracting each function once per term for all the products asked of
it; ``local_energy_products`` is its one-product form.  ``error_norms``
integrates its boundary and jump terms on them and its volume term on a
finer rule, so the norm of a discrete test function agrees with the Gram
quadratic form to rounding.  It reads that rule, its weights and the
exact solution's values there and at the boundary points from the
tables' ``error_terms``: the cell values carry the rows of the cells that
refinement kept across iterations like the coefficients, so the exact
solution is evaluated on the volume points of the new cells only, and on
every boundary point on each call.  It measures the L2 and triple
norms of several functions (u_h and the enriched reference theta_h) in one
pass.  ``qoi_error`` reads the QoI vector the loop has already assembled.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .forms import _point_values, assemble_mass, cell_quadrature, volume_degree
from .reference import triangle_rule
from .solvers import RefinedFactor
from .spaces import DiscreteFunction, build_space, trial_lagrange


@dataclass(frozen=True)
class NormReport:
    """Error norms of a discrete function against an exact solution.

    ``exact_l2`` is the exact solution's L2 norm on the same volume points.
    """

    l2: float
    triple: float
    exact_l2: float


def _contract(table, dofs, fn):
    """Point values (n, nq) of fn from basis values (nq, m) or (n, nq, m) on DoFs (n, m)."""
    return np.matmul(table, fn.coefficients[dofs][:, :, None])[:, :, 0]


def energy_products(functions, pairs, tables):
    """Per-cell contributions of the energy inner products (f_i, f_j), one
    array per index pair (i, j) of ``pairs``.

    Contracts each of ``functions`` once per energy term of the tables,
    integrates the point values of each pair on the term and splits the
    result among the term's owners (an interior facet's share half to each
    neighbour), so the cell values sum to the global inner product.
    """
    space = tables.space
    if any(f.space is not space for f in functions):
        raise ValueError("functions do not live on the tables' space")
    parts = [np.zeros(len(space.mesh.cells)) for _ in pairs]
    for weights, table, dofs, owners in tables.energy_terms:
        values = [_contract(table, dofs, f) for f in functions]
        for out, (i, j) in zip(parts, pairs):
            share = np.einsum("fq,fq->f", weights, values[i] * values[j]) / owners.shape[1]
            for cells in owners.T:
                np.add.at(out, cells, share)
    return parts


def local_energy_products(fa, fb, tables):
    """Per-cell contributions of the energy inner product (fa, fb); see
    ``energy_products``."""
    functions = [fa] if fb is fa else [fa, fb]
    return energy_products(functions, [(0, len(functions) - 1)], tables)[0]


def error_norms(functions, exact, tables):
    """Broken-norm quadrature of exact - u_h for each u_h in ``functions``;
    returns one ``NormReport`` per function.

    Every u_h lives on ``tables.space``.  The boundary and jump terms are
    those of ``tables.energy_terms``, the iteration's one owner of the facet
    tables.  The exact solution is smooth, so the jump term uses only u_h.
    The volume rule is two degrees above assembly; ``exact_l2`` is measured
    on it.  The rule, its basis values and the exact solution's point
    values are the tables' ``error_terms``, shared by all functions, so
    the exact solution is evaluated on the volume points of the cells that
    refinement created since the previous tables and on every boundary
    point.
    """
    space = tables.space
    if any(u_h.space is not space for u_h in functions):
        raise ValueError("functions do not live on the tables' space")
    w, phi, exact_vals, bnd_exact = tables.error_terms(exact)
    mass_w = tables.data.gram_weight * w
    phi_t = phi.T
    _, (bnd_w, bnd_vals, bnd_dofs, _), (jump_w, jump, jump_dofs, _) = tables.energy_terms
    exact_l2 = float(np.sqrt(np.einsum("cq,cq->", w, exact_vals**2)))

    reports = []
    for u_h in functions:
        diff_sq = (exact_vals - u_h.coefficients[space.cell_dofs] @ phi_t) ** 2
        bdiff = bnd_exact - _contract(bnd_vals, bnd_dofs, u_h)
        jdiff = _contract(jump, jump_dofs, u_h)
        triple_sq = (
            np.einsum("cq,cq->c", mass_w, diff_sq).sum()
            + np.einsum("fq,fq->", bnd_w, bdiff**2)
            + np.einsum("fq,fq->", jump_w, jdiff**2)
        )
        l2_sq = np.einsum("cq,cq->c", w, diff_sq).sum()
        reports.append(NormReport(float(np.sqrt(l2_sq)), float(np.sqrt(triple_sq)), exact_l2))
    return reports


def l2_project(u, target, quad_degree=None):
    """L2-orthogonal projection of a callable onto a discrete space."""
    mesh = target.mesh
    deg = quad_degree if quad_degree is not None else volume_degree(target) + 2
    rule = triangle_rule(deg)
    M = assemble_mass(target, degree=deg)
    pts, w = cell_quadrature(mesh, rule)
    nc, nq = w.shape
    uv = np.asarray(u(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq)
    phi = target.local_basis.evaluate(rule.points)
    local = np.matmul(w * uv, phi)
    rhs = np.zeros(target.dim)
    np.add.at(rhs, target.cell_dofs, local)
    coeffs, _ = RefinedFactor.unpivoted(M, "mass matrix").refined_solve(rhs)
    return DiscreteFunction(target, coeffs)


def oswald_interpolate(v):
    """Average a broken piecewise polynomial into the continuous space.

    The value at each Lagrange node is the arithmetic mean of the
    one-sided values over all cells whose closure contains the node.
    """
    space = v.space
    if space.kind.family != "broken":
        raise ValueError("oswald_interpolate expects a broken-space function")
    target = build_space(space.mesh, trial_lagrange(space.kind.p))
    acc = np.zeros(target.dim)
    count = np.zeros(target.dim)
    # broken basis is nodal, so the one-sided value at a node is its coefficient
    np.add.at(acc, target.cell_dofs, v.coefficients[space.cell_dofs])
    np.add.at(count, target.cell_dofs, 1.0)
    return DiscreteFunction(target, acc / count)


def qoi_reference(exact, region, degree=20, rtol=1e-11, max_levels=6):
    """Mean of the exact solution over the region by composite quadrature.

    Subdivides the region into m-by-m patches with a tensor Gauss rule of
    the given degree and refines until two consecutive levels agree to
    ``rtol`` (relative); raises RuntimeError after ``max_levels`` levels, and
    ProblemDataError if the exact solution is not finite at a point.
    """
    n = degree // 2 + 1
    xg, wg = leggauss(n)
    xg = (xg + 1.0) / 2.0
    wg = wg / 2.0

    def level(m):
        xs = np.linspace(region.x0, region.x1, m + 1)
        ys = np.linspace(region.y0, region.y1, m + 1)
        total = 0.0
        for i in range(m):
            for j in range(m):
                dx, dy = xs[i + 1] - xs[i], ys[j + 1] - ys[j]
                px = xs[i] + dx * xg
                py = ys[j] + dy * xg
                pts = np.stack(np.meshgrid(px, py, indexing="ij"), axis=-1)
                vals = _point_values(exact, pts, "exact solution")
                total += dx * dy * np.einsum("i,j,ij->", wg, wg, vals)
        return total / region.area

    prev = level(1)
    m = 2
    for _ in range(max_levels):
        cur = level(m)
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev, m = cur, m * 2
    raise RuntimeError(f"QoI reference did not reach rtol {rtol:g} in {max_levels} levels")


def qoi_error(u_h, q_vec, exact_value):
    """Relative error of a linear functional, given as the vector ``q_vec``
    on u_h's space, against its exact value.

    Falls back to the absolute error (with a warning) when the exact
    functional value vanishes.
    """
    q_h = float(q_vec @ u_h.coefficients)
    if abs(exact_value) < 1e-14:
        warnings.warn("exact functional value vanishes; returning absolute error")
        return abs(exact_value - q_h)
    return abs(exact_value - q_h) / abs(exact_value)
