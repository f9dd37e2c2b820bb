"""Assembly of the discrete operators.

The stabilized advection-reaction operator combines four pieces:

* reaction mass:      (mu v, w)
* advection (adjoint form):  -(v, b . grad w)
* outflow flux:       ((b.n)^+ v, w) over the whole boundary
* gradient-jump penalty over interior facets with weight
  gamma_e = h_e^2 / k_pen^alpha * max|b.n_e|  (max over facet quadrature
  points).

The load is ``(f, w) - ((b.n)^- g, w)_boundary`` with the inflow data g.
Here (b.n)^+ = max(b.n, 0) and (b.n)^- = min(b.n, 0) are taken at each
facet quadrature point, so the boundary splits into inflow and outflow
pointwise, as in the continuous problem; no facet-wide label enters.

The test-space inner product (Gram) matrix is
``sigma0 (v, w) + 1/2 (|b.n| v, w)_boundary + jump(v, w)`` which induces
the mesh-dependent energy norm used by the residual representative.
Matrix entries follow the convention ``A[i, j] = form(trial_j, test_i)``.

All assembly loops are vectorized over cells and facets; matrices are
returned in CSR format.  Bases are evaluated once per reference point set
(the volume rule, or the six reference-facet cases of the edge rule) and
gathered per cell or facet, so no physical point is pulled back.
"""

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .reference import edge_rule, reference_facet_points, triangle_rule


@dataclass
class ProblemData:
    """Coefficients and data of an advection-reaction problem.

    ``velocity``/``reaction``/``source``/``inflow_data`` are vectorized
    callables over (n, 2) point arrays.  ``penalty_order`` is the
    polynomial order entering the jump-penalty weight (set it to the
    bubble order of the test space in use); ``gram_weight`` is the L2
    weight of the test inner product, default 1.0.  A unit weight keeps
    the dual-norm minimization quasi-optimal for weakly reactive
    problems; matching it to the reaction floor degrades p=1 rates on
    curved advection fields.
    """

    velocity: object
    reaction: object
    source: object
    inflow_data: object
    reaction_floor: float = 0.0
    penalty_exponent: float = 3.5
    penalty_order: int | None = None
    gram_weight: float | None = None

    def __post_init__(self):
        if self.penalty_exponent <= 0.0:
            raise ValueError("penalty exponent must be positive")
        if self.gram_weight is not None and self.gram_weight <= 0.0:
            raise ValueError("gram weight must be positive")

    @property
    def effective_gram_weight(self):
        return self.gram_weight if self.gram_weight is not None else 1.0

    def require_penalty_order(self):
        if self.penalty_order is None:
            raise ValueError("penalty_order is unset; assign the test-space bubble order")
        return self.penalty_order


def volume_degree(*spaces):
    """Default volume quadrature exactness for the given spaces."""
    return 2 * max(s.max_degree for s in spaces) + 4


def facet_degree(*spaces):
    """Default facet quadrature exactness for the given spaces."""
    return 2 * max(s.max_degree for s in spaces) + 2


# -- quadrature geometry ------------------------------------------------------


def cell_quadrature(mesh, rule):
    """Physical quadrature points (nc, nq, 2) and scaled weights (nc, nq)."""
    v0, J, _, det = mesh.affine
    pts = v0[:, None, :] + np.matmul(rule.points, J.transpose(0, 2, 1))
    return pts, det[:, None] * rule.weights[None, :]


def facet_quadrature(mesh, edge_ids, rule):
    """Physical quadrature points and scaled weights along given edges."""
    pairs = mesh.edges[edge_ids]
    va = mesh.vertices[pairs[:, 0]]
    vb = mesh.vertices[pairs[:, 1]]
    pts = va[:, None, :] + rule.points[None, :, None] * (vb - va)[:, None, :]
    w = mesh.edge_lengths[edge_ids][:, None] * rule.weights[None, :]
    return pts, w


def normal_flux(velocity, pts, normals):
    """b.n at facet points (nf, nq, 2) for per-facet normals (nf, 2)."""
    nf, nq = pts.shape[:2]
    bvals = np.asarray(velocity(pts.reshape(-1, 2)), dtype=float).reshape(nf, nq, 2)
    return np.matmul(bvals, normals[:, :, None])[:, :, 0]


def facet_cases(mesh, edge_ids, cells):
    """Reference-facet case 2 i + r of each (facet, cell) pair.

    i is the local index of the facet in the cell; r = 1 when the cell
    walks it ((i+1)%3 -> (i+2)%3) against the ``mesh.edges`` order.
    """
    local = np.argmax(mesh.cell_edges[cells] == edge_ids[:, None], axis=1)
    against = mesh.cells[cells, (local + 1) % 3] > mesh.cells[cells, (local + 2) % 3]
    return 2 * local + against


def facet_basis(space, edge_ids, cells, rule, normals=None):
    """Basis values (nf, nq, nloc) at edge-rule points, seen from given cells.

    The local basis is tabulated on the six reference-facet cases and
    gathered per facet.  With ``normals`` the result is the normal
    component of the physical basis gradients instead.
    """
    mesh = space.mesh
    basis = space.local_basis
    case = facet_cases(mesh, edge_ids, cells)
    xi = reference_facet_points(rule.points).reshape(-1, 2)
    nq = len(rule.points)
    if normals is None:
        return basis.evaluate(xi).reshape(6, nq, basis.count)[case]
    _, _, Jinv, _ = mesh.affine
    # n . (Jinv^T gref) = (Jinv n) . gref: contract the normal with Jinv once per facet
    nJ = np.matmul(Jinv[cells], normals[:, :, None])
    gref = basis.gradient(xi).reshape(6, nq * basis.count, 2)
    return np.matmul(gref[case], nJ).reshape(len(cells), nq, basis.count)


def _facet_local(weights, vals_v, vals_u):
    """Per-facet local matrices sum_q weights v_i u_j, shape (nf, nv, nu)."""
    return np.matmul(vals_v.transpose(0, 2, 1) * weights[:, None, :], vals_u)


def _scatter(local, row_dofs, col_dofs, shape):
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape)
    return sp.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    ).tocsr()


def _check_same_mesh(trial, test):
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces live on different meshes")


# -- volume terms -------------------------------------------------------------


def _mass(trial, test, rule, w):
    """Mass matrix for per-point scaled weights w (nc, nq) of a volume rule."""
    phi_u = trial.local_basis.evaluate(rule.points)
    phi_v = test.local_basis.evaluate(rule.points)
    products = (phi_v[:, :, None] * phi_u[:, None, :]).reshape(len(phi_u), -1)
    local = np.matmul(w, products).reshape(len(w), phi_v.shape[1], phi_u.shape[1])
    return _scatter(local, test.cell_dofs, trial.cell_dofs, (test.dim, trial.dim))


def assemble_mass(trial, test, weight=None, degree=None):
    """Weighted mass matrix (weight v, w); weight None means 1."""
    _check_same_mesh(trial, test)
    rule = triangle_rule(degree if degree is not None else volume_degree(trial, test))
    pts, w = cell_quadrature(trial.mesh, rule)
    if weight is not None:
        w = w * np.asarray(weight(pts.reshape(-1, 2)), dtype=float).reshape(w.shape)
    return _mass(trial, test, rule, w)


def assemble_advection(trial, test, velocity, degree=None):
    """Adjoint-form advection block: -(v, b . grad w)."""
    _check_same_mesh(trial, test)
    mesh = trial.mesh
    rule = triangle_rule(degree if degree is not None else volume_degree(trial, test))
    pts, w = cell_quadrature(mesh, rule)
    nc, nq = w.shape
    bvals = np.asarray(velocity(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq, 2)
    _, _, Jinv, _ = mesh.affine
    # b . grad(test basis): pull b back through the affine map once
    wb = w[:, :, None] * np.matmul(bvals, Jinv.transpose(0, 2, 1))
    gref = test.local_basis.gradient(rule.points)
    phi_u = trial.local_basis.evaluate(rule.points)
    # reference-gradient x trial-value products per point and direction
    products = gref.transpose(0, 2, 1)[:, :, :, None] * phi_u[:, None, None, :]
    local = -np.matmul(wb.reshape(nc, -1), products.reshape(2 * nq, -1))
    local = local.reshape(nc, gref.shape[1], phi_u.shape[1])
    return _scatter(local, test.cell_dofs, trial.cell_dofs, (test.dim, trial.dim))


# -- boundary terms -----------------------------------------------------------


def boundary_flux(mesh, velocity, rule):
    """Edge-rule points, scaled weights and b.n on every boundary facet."""
    pts, w = facet_quadrature(mesh, mesh.boundary_edges, rule)
    return pts, w, normal_flux(velocity, pts, mesh.boundary_normals)


def _boundary_mass(trial, test, velocity, part, degree):
    """(part(b.n) v, w) over the whole boundary, part applied pointwise."""
    _check_same_mesh(trial, test)
    mesh = trial.mesh
    rule = edge_rule(degree if degree is not None else facet_degree(trial, test))
    edge_ids = mesh.boundary_edges
    owners = mesh.boundary_cells
    _, w, bn = boundary_flux(mesh, velocity, rule)
    vals_v = facet_basis(test, edge_ids, owners, rule)
    vals_u = vals_v if trial is test else facet_basis(trial, edge_ids, owners, rule)
    local = _facet_local(w * part(bn), vals_v, vals_u)
    return _scatter(
        local, test.cell_dofs[owners], trial.cell_dofs[owners], (test.dim, trial.dim)
    )


def assemble_boundary_mass(trial, test, velocity, degree=None):
    """(|b.n| v, w) over the whole boundary (the Gram boundary block)."""
    return _boundary_mass(trial, test, velocity, np.abs, degree)


# -- interior penalty ---------------------------------------------------------


def jump_weights(mesh, data, rule):
    """Penalty weights gamma_e w_q per (interior facet, edge-rule point).

    gamma_e = h_e^2 / k_pen^alpha * max_q |b.n_e|, w_q the scaled
    quadrature weights of the facet.
    """
    k_pen = data.require_penalty_order()
    pts, w = facet_quadrature(mesh, mesh.interior_edges, rule)
    bn = normal_flux(data.velocity, pts, mesh.interior_normals)
    h_e = mesh.interior_lengths
    gamma = h_e**2 / float(k_pen) ** data.penalty_exponent * np.abs(bn).max(axis=1)
    return gamma[:, None] * w


def jump_tables(space, rule):
    """Stacked normal-gradient jumps [plus side, -minus side] per interior facet."""
    mesh = space.mesh
    gn_plus, gn_minus = (
        facet_basis(space, mesh.interior_edges, cells, rule, mesh.interior_normals)
        for cells in (mesh.interior_plus, mesh.interior_minus)
    )
    jump = np.concatenate([gn_plus, -gn_minus], axis=2)
    dofs = np.hstack(
        [space.cell_dofs[mesh.interior_plus], space.cell_dofs[mesh.interior_minus]]
    )
    return jump, dofs


def assemble_jump_penalty(trial, test, data, degree=None):
    """CIP penalty on jumps of the normal gradient across interior facets."""
    _check_same_mesh(trial, test)
    mesh = trial.mesh
    shape = (test.dim, trial.dim)
    if len(mesh.interior_edges) == 0:
        return sp.csr_matrix(shape)
    rule = edge_rule(degree if degree is not None else facet_degree(trial, test))
    weights = jump_weights(mesh, data, rule)
    jump_v, dofs_v = jump_tables(test, rule)
    jump_u, dofs_u = (jump_v, dofs_v) if trial is test else jump_tables(trial, rule)
    local = _facet_local(weights, jump_v, jump_u)
    return _scatter(local, dofs_v, dofs_u, shape)


# -- composed operators -------------------------------------------------------


def assemble_stabilized(trial, test, data, degree=None, facet_deg=None):
    """The full stabilized operator: reaction + advection + outflow + jump.

    The outflow term is the boundary mass weighted by (b.n)^+ over the
    whole boundary.  Entry (i, j) is the form applied to (trial_j,
    test_i).  Raises if the reaction coefficient drops below the declared
    floor.
    """
    _check_same_mesh(trial, test)
    vol_deg = degree if degree is not None else volume_degree(trial, test)
    fac_deg = facet_deg if facet_deg is not None else facet_degree(trial, test)
    rule = triangle_rule(vol_deg)
    pts, w = cell_quadrature(trial.mesh, rule)
    mu = np.asarray(data.reaction(pts.reshape(-1, 2)), dtype=float).reshape(w.shape)
    if mu.min() < data.reaction_floor - 1e-12:
        raise ValueError("reaction coefficient drops below the declared floor")
    A = _mass(trial, test, rule, w * mu)
    A = A + assemble_advection(trial, test, data.velocity, degree=vol_deg)
    A = A + _boundary_mass(
        trial, test, data.velocity, lambda bn: np.maximum(bn, 0.0), fac_deg
    )
    A = A + assemble_jump_penalty(trial, test, data, degree=fac_deg)
    return A.tocsr()


def assemble_gram(test, data, degree=None, facet_deg=None):
    """SPD inner-product matrix of the test space (symmetrized exactly)."""
    sigma0 = data.effective_gram_weight
    if sigma0 <= 0.0:
        raise ValueError("gram weight must be positive")
    vol_deg = degree if degree is not None else volume_degree(test)
    fac_deg = facet_deg if facet_deg is not None else facet_degree(test)
    G = sigma0 * assemble_mass(test, test, degree=vol_deg)
    G = G + 0.5 * assemble_boundary_mass(test, test, data.velocity, degree=fac_deg)
    G = G + assemble_jump_penalty(test, test, data, degree=fac_deg)
    G = 0.5 * (G + G.T)
    return G.tocsr()


def assemble_load(test, data, degree=None, facet_deg=None):
    """Load vector (f, w) - ((b.n)^- g, w) over the whole boundary."""
    mesh = test.mesh
    rule = triangle_rule(degree if degree is not None else volume_degree(test))
    pts, w = cell_quadrature(mesh, rule)
    fv = np.asarray(data.source(pts.reshape(-1, 2)), dtype=float).reshape(w.shape)
    local = np.matmul(w * fv, test.local_basis.evaluate(rule.points))
    vec = np.zeros(test.dim)
    np.add.at(vec, test.cell_dofs, local)

    erule = edge_rule(facet_deg if facet_deg is not None else facet_degree(test))
    owners = mesh.boundary_cells
    epts, ew, bn = boundary_flux(mesh, data.velocity, erule)
    g = np.asarray(data.inflow_data(epts.reshape(-1, 2)), dtype=float).reshape(ew.shape)
    vals = facet_basis(test, mesh.boundary_edges, owners, erule)
    local_e = -np.matmul((ew * np.minimum(bn, 0.0) * g)[:, None, :], vals)[:, 0]
    np.add.at(vec, test.cell_dofs[owners], local_e)
    return vec


# -- quantity of interest -----------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle (x0, x1) x (y0, y1)."""

    x0: float
    x1: float
    y0: float
    y1: float

    @property
    def area(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, points, tol=1e-12):
        points = np.atleast_2d(points)
        return (
            (points[:, 0] >= self.x0 - tol)
            & (points[:, 0] <= self.x1 + tol)
            & (points[:, 1] >= self.y0 - tol)
            & (points[:, 1] <= self.y1 + tol)
        )


def _clip_half_plane(poly, axis, bound, keep_below):
    out = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        fa, fb = a[axis] - bound, b[axis] - bound
        ina = fa <= 0.0 if keep_below else fa >= 0.0
        inb = fb <= 0.0 if keep_below else fb >= 0.0
        if ina:
            out.append(a)
        if ina != inb:
            t = fa / (fa - fb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


def _clipped_area(tri, rect):
    poly = [tuple(p) for p in tri]
    for axis, bound, below in (
        (0, rect.x0, False),
        (0, rect.x1, True),
        (1, rect.y0, False),
        (1, rect.y1, True),
    ):
        poly = _clip_half_plane(poly, axis, bound, below)
        if len(poly) < 3:
            return 0.0
    area = 0.0
    for i in range(len(poly)):
        xa, ya = poly[i]
        xb, yb = poly[(i + 1) % len(poly)]
        area += xa * yb - xb * ya
    return 0.5 * abs(area)


def classify_qoi_cells(mesh, region, tol=1e-10):
    """Boolean mask of cells inside the region; rejects straddling cells."""
    tri = mesh.vertices[mesh.cells]
    inside = np.all(region.contains(tri.reshape(-1, 2)).reshape(-1, 3), axis=1)
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    disjoint = (
        (hi[:, 0] <= region.x0 + tol)
        | (lo[:, 0] >= region.x1 - tol)
        | (hi[:, 1] <= region.y0 + tol)
        | (lo[:, 1] >= region.y1 - tol)
    )
    for c in np.flatnonzero(~inside & ~disjoint):
        overlap = _clipped_area(tri[c], region)
        if overlap > tol * mesh.cell_areas[c]:
            raise ValueError(f"cell {c} straddles the quantity-of-interest region")
    return inside


def assemble_qoi(space, region, degree=None):
    """Mean-value functional over the region: q_i = int_region phi_i / |region|.

    Requires the mesh to conform to the region (every cell fully inside
    or outside).
    """
    mesh = space.mesh
    inside = classify_qoi_cells(mesh, region)
    covered = mesh.cell_areas[inside].sum()
    if abs(covered - region.area) > 1e-10 * region.area:
        raise ValueError("mesh does not cover the quantity-of-interest region")
    rule = triangle_rule(degree if degree is not None else space.max_degree + 2)
    pts, w = cell_quadrature(mesh, rule)
    phi = space.local_basis.evaluate(rule.points)
    local = np.matmul(w[inside], phi)
    vec = np.zeros(space.dim)
    np.add.at(vec, space.cell_dofs[inside], local)
    return vec / region.area


def write_matrix_market(path, matrix):
    """Dump an assembled operator for offline inspection."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix))
