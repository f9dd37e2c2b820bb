"""Norms, projections, interpolation and error measurement.

The mesh-dependent energy ("triple") norm combines a weighted L2 term,
a |b.n|-weighted boundary term and the gradient-jump penalty; its facet
quadrature matches the assembly rules exactly so that the norm of a
discrete test function agrees with the Gram quadratic form to rounding.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .forms import (
    assemble_mass,
    boundary_flux,
    cell_quadrature,
    facet_basis,
    facet_degree,
    jump_tables,
    jump_weights,
    volume_degree,
)
from .reference import edge_rule, triangle_rule
from .spaces import DiscreteFunction, build_space, quad_values, trial_lagrange


@dataclass(frozen=True)
class NormReport:
    """Error norms of a discrete function against an exact solution.

    ``sharp`` augments the triple norm with the advective semi-norm term
    scaled by (k^2 h^{1/2} p^{1/2} + k^{alpha/2} p^{-1/2}).
    """

    l2: float
    triple: float
    semi_h: float
    sharp: float


def _boundary_table(space, rule):
    """Basis values at boundary facet points seen from the owner, and their DoFs."""
    cells = space.mesh.boundary_cells
    return facet_basis(space, space.mesh.boundary_edges, cells, rule), space.cell_dofs[cells]


def _contract(tables, fn):
    """Per-facet point values (nf, nq) of fn from a basis table and its DoFs."""
    table, dofs = tables
    return np.matmul(table, fn.coefficients[dofs][:, :, None])[:, :, 0]


def local_energy_products(fa, fb, data, degree=None, facet_deg=None):
    """Per-cell contributions of the energy inner product (fa, fb).

    Interior-facet jump contributions split half to each neighbour, so
    the cell values sum to the global inner product exactly.
    """
    space = fa.space
    if fb.space is not space:
        raise ValueError("functions live on different spaces")
    mesh = space.mesh
    vrule = triangle_rule(degree if degree is not None else volume_degree(space))
    erule = edge_rule(facet_deg if facet_deg is not None else facet_degree(space))
    sigma0 = data.effective_gram_weight

    pts, w = cell_quadrature(mesh, vrule)
    va = quad_values(fa, vrule.points)
    vb = va if fb is fa else quad_values(fb, vrule.points)
    parts = sigma0 * (w * va * vb).sum(axis=1)

    if len(mesh.boundary_edges):
        _, ew, bn = boundary_flux(mesh, data.velocity, erule)
        tables = _boundary_table(space, erule)
        ba = _contract(tables, fa)
        bb = ba if fb is fa else _contract(tables, fb)
        np.add.at(parts, mesh.boundary_cells, 0.5 * (ew * np.abs(bn) * ba * bb).sum(axis=1))

    if len(mesh.interior_edges):
        iw = jump_weights(mesh, data, erule)
        tables = jump_tables(space, erule)
        ja = _contract(tables, fa)
        jb = ja if fb is fa else _contract(tables, fb)
        contrib = (iw * ja * jb).sum(axis=1)
        np.add.at(parts, mesh.interior_plus, 0.5 * contrib)
        np.add.at(parts, mesh.interior_minus, 0.5 * contrib)
    return parts


def error_norms(u_h, exact, data, quad_degree=None):
    """Broken-norm quadrature of exact - u_h (or of u_h when exact is None).

    The exact solution is smooth, so facet jump terms use only the
    discrete function.  Facet quadrature matches the assembly rules.
    """
    space = u_h.space
    mesh = space.mesh
    vol_deg = quad_degree if quad_degree is not None else volume_degree(space) + 2
    vrule = triangle_rule(vol_deg)
    erule = edge_rule(facet_degree(space))
    sigma0 = data.effective_gram_weight

    pts, w = cell_quadrature(mesh, vrule)
    nc, nq = w.shape
    diff = -quad_values(u_h, vrule.points)
    if exact is not None:
        diff = diff + np.asarray(exact(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq)

    cell_l2_sq = np.einsum("cq,cq->c", w, diff**2)
    l2_sq = cell_l2_sq.sum()

    bvals = np.asarray(data.velocity(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq, 2)
    beta = np.linalg.norm(bvals, axis=2).max(axis=1)
    semi_sq = (beta / mesh.cell_diameters * cell_l2_sq).sum()

    bnd_sq = 0.0
    if len(mesh.boundary_edges):
        epts, ew, bn = boundary_flux(mesh, data.velocity, erule)
        bdiff = -_contract(_boundary_table(space, erule), u_h)
        if exact is not None:
            bdiff = bdiff + np.asarray(exact(epts.reshape(-1, 2)), dtype=float).reshape(ew.shape)
        bnd_sq = 0.5 * np.einsum("fq,fq->", ew * np.abs(bn), bdiff**2)

    jump_sq = 0.0
    if len(mesh.interior_edges):
        iw = jump_weights(mesh, data, erule)
        jd = _contract(jump_tables(space, erule), u_h)
        jump_sq = float(np.einsum("fq,fq->", iw, jd**2))

    triple = float(np.sqrt(sigma0 * l2_sq + bnd_sq + jump_sq))
    semi = float(np.sqrt(semi_sq))
    k = float(data.require_penalty_order())
    p = float(space.kind.p if space.kind.p else space.max_degree)
    h = float(mesh.cell_diameters.max())
    factor = k**2 * np.sqrt(h) * np.sqrt(p) + k ** (data.penalty_exponent / 2.0) / np.sqrt(p)
    return NormReport(
        l2=float(np.sqrt(l2_sq)),
        triple=triple,
        semi_h=semi,
        sharp=triple + factor * semi,
    )


def l2_project(u, target, quad_degree=None):
    """L2-orthogonal projection of a callable onto a discrete space."""
    mesh = target.mesh
    deg = quad_degree if quad_degree is not None else volume_degree(target) + 2
    rule = triangle_rule(deg)
    M = assemble_mass(target, target, degree=deg)
    pts, w = cell_quadrature(mesh, rule)
    nc, nq = w.shape
    uv = np.asarray(u(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq)
    phi = target.local_basis.evaluate(rule.points)
    local = np.matmul(w * uv, phi)
    rhs = np.zeros(target.dim)
    np.add.at(rhs, target.cell_dofs, local)
    try:
        coeffs = scipy.sparse.linalg.splu(M.tocsc()).solve(rhs)
    except RuntimeError as exc:
        raise RuntimeError(f"mass matrix factorization failed: {exc}") from exc
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
    ``rtol`` (relative).
    """
    from scipy.special import roots_legendre

    n = degree // 2 + 1
    xg, wg = roots_legendre(n)
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
                xx, yy = np.meshgrid(px, py, indexing="ij")
                vals = np.asarray(
                    exact(np.column_stack([xx.ravel(), yy.ravel()])), dtype=float
                ).reshape(n, n)
                total += dx * dy * np.einsum("i,j,ij->", wg, wg, vals)
        return total / region.area

    prev = level(1)
    m = 2
    for _ in range(max_levels):
        cur = level(m)
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev, m = cur, m * 2
    return prev


def qoi_error(u_h, exact, region, exact_value=None):
    """Relative error of the mean-value functional over the region.

    Falls back to the absolute error (with a warning) when the exact
    functional value vanishes.
    """
    from .forms import assemble_qoi

    q_vec = assemble_qoi(u_h.space, region)
    q_h = float(q_vec @ u_h.coefficients)
    q = exact_value if exact_value is not None else qoi_reference(exact, region)
    if abs(q) < 1e-14:
        warnings.warn("exact functional value vanishes; returning absolute error")
        return abs(q - q_h)
    return abs(q - q_h) / abs(q)
