"""Norms, projections, interpolation and error measurement.

The mesh-dependent energy ("triple") norm combines a weighted L2 term,
a |b.n|-weighted boundary term and the gradient-jump penalty: the three
terms of ``forms.FormTables.energy_terms``, which also give the Gram
matrix.  ``local_energy_products`` integrates point values on those
terms; ``error_norms`` integrates its boundary and jump terms on them
and its volume term on a finer rule, so the norm of a discrete test
function agrees with the Gram quadratic form to rounding.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .forms import assemble_mass, cell_quadrature, volume_degree
from .reference import triangle_rule
from .spaces import DiscreteFunction, build_space, inject_trial, trial_lagrange


@dataclass(frozen=True)
class NormReport:
    """Error norms of a discrete function against an exact solution.

    ``sharp`` augments the triple norm with the advective semi-norm term
    scaled by (k^2 h^{1/2} p^{1/2} + k^{alpha/2} p^{-1/2}).  ``exact_l2``
    is the exact solution's L2 norm on the same volume points.
    """

    l2: float
    triple: float
    semi_h: float
    sharp: float
    exact_l2: float


def _contract(table, dofs, fn):
    """Point values (n, nq) of fn from basis values (nq, m) or (n, nq, m) on DoFs (n, m)."""
    return np.matmul(table, fn.coefficients[dofs][:, :, None])[:, :, 0]


def local_energy_products(fa, fb, tables):
    """Per-cell contributions of the energy inner product (fa, fb).

    Integrates the point values of both functions on each of the tables'
    energy terms and splits the result among the term's owners (an
    interior facet's share half to each neighbour), so the cell values sum
    to the global inner product.
    """
    space = tables.space
    if fa.space is not space or fb.space is not space:
        raise ValueError("functions do not live on the tables' space")
    parts = np.zeros(len(space.mesh.cells))
    for weights, table, dofs, owners in tables.energy_terms:
        va = _contract(table, dofs, fa)
        vb = va if fb is fa else _contract(table, dofs, fb)
        share = np.einsum("fq,fq->f", weights, va * vb) / owners.shape[1]
        for cells in owners.T:
            np.add.at(parts, cells, share)
    return parts


def error_norms(u_h, exact, tables):
    """Broken-norm quadrature of exact - u_h (or of u_h when exact is None).

    The boundary and jump terms are those of ``tables.energy_terms``, the
    iteration's one owner of the facet tables; a trial-space u_h is read
    as its injection into the tables' enriched space.  The exact solution
    is smooth, so the jump term uses only u_h.  The volume rule is two
    degrees above assembly; ``exact_l2`` is measured on it (0 without exact).
    """
    space, data = tables.space, tables.data
    if u_h.space is not space:
        u_h = inject_trial(u_h, space)
    mesh = space.mesh
    rule = triangle_rule(volume_degree(space) + 2)
    pts, w = cell_quadrature(mesh, rule)
    nc, nq = w.shape
    diff = -(u_h.coefficients[space.cell_dofs] @ space.local_basis.evaluate(rule.points).T)
    exact_l2 = 0.0
    if exact is not None:
        exact_vals = np.asarray(exact(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq)
        diff = diff + exact_vals
        exact_l2 = float(np.sqrt(np.einsum("cq,cq->", w, exact_vals**2)))

    diff_sq = diff**2
    cell_l2_sq = np.einsum("cq,cq->c", w, diff_sq)
    l2_sq = cell_l2_sq.sum()

    bvals = np.asarray(data.velocity(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq, 2)
    beta = np.linalg.norm(bvals, axis=2).max(axis=1)
    semi_sq = (beta / mesh.cell_diameters * cell_l2_sq).sum()

    _, (bnd_w, bnd_vals, bnd_dofs, _), (jump_w, jump, jump_dofs, _) = tables.energy_terms
    bdiff = -_contract(bnd_vals, bnd_dofs, u_h)
    if exact is not None:
        bpts = tables.boundary[0]
        bdiff = bdiff + np.asarray(exact(bpts.reshape(-1, 2)), dtype=float).reshape(bnd_w.shape)
    jdiff = _contract(jump, jump_dofs, u_h)
    triple_sq = (
        np.einsum("cq,cq->c", data.effective_gram_weight * w, diff_sq).sum()
        + np.einsum("fq,fq->", bnd_w, bdiff**2)
        + np.einsum("fq,fq->", jump_w, jdiff**2)
    )

    triple = float(np.sqrt(triple_sq))
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
        exact_l2=exact_l2,
    )


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
    ``rtol`` (relative); raises RuntimeError after ``max_levels`` levels.
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
    raise RuntimeError(f"QoI reference did not reach rtol {rtol:g} in {max_levels} levels")


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
