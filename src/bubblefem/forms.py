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

``FormTables`` owns the quadrature tables of one space and problem, each
built on first use.  Every assembler takes the tables and returns the
square operator, or the load or QoI vector, on their space, with entries
``A[i, j] = form(phi_j, phi_i)``; ``analysis.local_energy_products``
contracts the Gram form's terms on point values cell by cell.  The test
space numbers its trial DoFs first, so the trial x test operator B is the
leading column block ``[:, :n_trial]`` of the test-space operator, and a
trial-space operator is its leading ``[:n_trial, :n_trial]`` block.

All assembly loops are vectorized over cells and facets.  Bases are
evaluated once per reference point set (the volume rule, or the six
reference-facet cases of the edge rule) and gathered per cell or facet, so
no physical point is pulled back.

The space's operators share one CSR sparsity pattern, owned by
``FormTables.pattern``: the cell blocks and the nonzero couplings of the
interior-facet blocks.  It comes from the one COO scatter of the jump
penalty J, together with the slot of every cell-block entry, the slot of
every entry's transpose and J's data on the pattern.  ``assemble_gram``
and ``assemble_stabilized`` sum their cell blocks, and their boundary-facet
blocks on the owner cells' slots, with ``np.bincount``, then add J's data;
the Gram matrix is averaged with its transpose through the slot map, so it
is bitwise symmetric.  Both return CSR matrices that store no exact zero.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
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
    gram_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.penalty_exponent < math.inf:
            raise ValueError("penalty exponent must be finite and positive")
        if not 0.0 < self.gram_weight < math.inf:
            raise ValueError("gram weight must be finite and positive")

    def require_penalty_order(self):
        if self.penalty_order is None:
            raise ValueError("penalty_order is unset; assign the test-space bubble order")
        return self.penalty_order


def volume_degree(space):
    """Default volume quadrature exactness for the space."""
    return 2 * space.max_degree + 4


def facet_degree(space):
    """Default facet quadrature exactness for the space."""
    return 2 * space.max_degree + 2


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


def facet_cases(mesh, sides):
    """Reference-facet case 2 i + r of each cell side 3 c + i.

    r = 1 when the side walks its facet ((i+1)%3 -> (i+2)%3) against the
    ``mesh.edges`` order.
    """
    cells, local = np.divmod(sides, 3)
    against = mesh.cells[cells, (local + 1) % 3] > mesh.cells[cells, (local + 2) % 3]
    return 2 * local + against


def facet_basis(space, sides, rule, normals=None):
    """Basis values (nf, nq, nloc) at edge-rule points, seen from given cell sides.

    The local basis is tabulated on the six reference-facet cases and
    gathered per facet.  With ``normals`` the result is the normal
    component of the physical basis gradients instead.
    """
    mesh = space.mesh
    basis = space.local_basis
    case = facet_cases(mesh, sides)
    xi = reference_facet_points(rule.points).reshape(-1, 2)
    nq = len(rule.points)
    if normals is None:
        return basis.evaluate(xi).reshape(6, nq, basis.count)[case]
    _, _, Jinv, _ = mesh.affine
    # n . (Jinv^T gref) = (Jinv n) . gref: contract the normal with Jinv once per facet
    nJ = np.matmul(Jinv[sides // 3], normals[:, :, None])
    gref = basis.gradient(xi).reshape(6, nq * basis.count, 2)
    return np.matmul(gref[case], nJ).reshape(len(sides), nq, basis.count)


def _facet_local(weights, vals):
    """Per-facet local matrices sum_q weights v_i v_j, shape (nf, n, n)."""
    return np.matmul(vals.transpose(0, 2, 1) * weights[:, None, :], vals)


def _mass_local(phi, w):
    """Per-cell mass matrices for basis values phi (nq, n) and scaled weights w (nc, nq)."""
    products = (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), -1)
    return np.matmul(w, products).reshape(len(w), phi.shape[1], phi.shape[1])


def _coo_to_csr(rows, cols, values, dim):
    """CSR matrix (dim, dim) summing ``values`` at (``rows``, ``cols``)."""
    return sp.coo_matrix((values, (rows, cols)), shape=(dim, dim)).tocsr()


def _scatter(local, dofs, dim):
    """CSR matrix (dim, dim) of local blocks (n, m, m) on DoFs (n, m)."""
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    return _coo_to_csr(rows.ravel(), cols.ravel(), local.ravel(), dim)


@dataclass(frozen=True)
class Pattern:
    """Sorted, symmetric CSR pattern (``indptr``, ``indices``) of a space's
    operators.  ``cell_slots`` (nc, m*m) is the position of each cell-block
    entry (a, b), row-major; ``transpose`` the position of each entry's
    transpose; ``jump`` the jump penalty J's data on the pattern."""

    indptr: np.ndarray
    indices: np.ndarray
    cell_slots: np.ndarray
    transpose: np.ndarray
    jump: np.ndarray


def _without_zeros(data, pattern, dim):
    """CSR matrix of ``data`` on ``pattern`` with its exact zeros dropped."""
    A = sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=(dim, dim))
    A.eliminate_zeros()
    return A


# -- the tables of one space --------------------------------------------------


class FormTables:
    """Quadrature tables of one space and problem, each built on first use.

    One object serves every form of an adaptive iteration: the operator,
    the Gram matrix, the load and the energy indicators read the same
    volume, boundary and interior-facet tables, so each is computed once.
    ``degree`` is the volume quadrature exactness (default
    ``volume_degree``); facets use the ``facet_degree`` edge rule.
    """

    def __init__(self, space, data, degree=None):
        self.space = space
        self.data = data
        self.volume_rule = triangle_rule(degree if degree is not None else volume_degree(space))
        self.edge_rule = edge_rule(facet_degree(space))

    @cached_property
    def volume(self):
        """Points (nc, nq, 2), scaled weights (nc, nq) and basis values (nq, n)."""
        pts, w = cell_quadrature(self.space.mesh, self.volume_rule)
        return pts, w, self.space.local_basis.evaluate(self.volume_rule.points)

    @cached_property
    def boundary(self):
        """Points, scaled weights, b.n and owner-cell basis values (nf, nq, n)
        on every boundary facet, and the owner cells' DoFs."""
        mesh = self.space.mesh
        pts, w = facet_quadrature(mesh, mesh.boundary_edges, self.edge_rule)
        bn = normal_flux(self.data.velocity, pts, mesh.boundary_normals)
        vals = facet_basis(self.space, mesh.boundary_sides, self.edge_rule)
        return pts, w, bn, vals, self.space.cell_dofs[mesh.boundary_sides // 3]

    @cached_property
    def interior(self):
        """Penalty weights gamma_e w_q, stacked normal-gradient jumps
        [plus side, -minus side] and their DoFs, per interior facet.

        gamma_e = h_e^2 / k_pen^alpha * max_q |b.n_e|, w_q the scaled
        quadrature weights of the facet.
        """
        mesh, space, data = self.space.mesh, self.space, self.data
        k_pen = data.require_penalty_order()
        pts, w = facet_quadrature(mesh, mesh.interior_edges, self.edge_rule)
        bn = normal_flux(data.velocity, pts, mesh.interior_normals)
        h_e = mesh.edge_lengths[mesh.interior_edges]
        gamma = h_e**2 / float(k_pen) ** data.penalty_exponent * np.abs(bn).max(axis=1)
        gn_plus, gn_minus = (
            facet_basis(space, sides, self.edge_rule, mesh.interior_normals)
            for sides in mesh.interior_sides.T
        )
        jump = np.concatenate([gn_plus, -gn_minus], axis=2)
        return gamma[:, None] * w, jump, np.hstack(space.cell_dofs[mesh.interior_sides.T // 3])

    @cached_property
    def pattern(self):
        """The ``Pattern`` of the space's operators, from J's one scatter."""
        cd = self.space.cell_dofs
        m = cd.shape[1]
        rows, cols = np.repeat(cd, m, axis=1).ravel(), np.tile(cd, m).ravel()
        J = _coo_to_csr(*self._jump_entries(rows, cols), self.space.dim)
        # each entry's position in J's CSR; the pattern is symmetric, so its CSC
        # order lists the position of each entry's transpose
        positions = sp.csr_array((np.arange(J.nnz, dtype=J.indices.dtype), J.indices, J.indptr),
                                 shape=J.shape)
        return Pattern(indptr=J.indptr, indices=J.indices,
                       cell_slots=positions[rows, cols].reshape(len(cd), -1),
                       transpose=positions.tocsc().data, jump=J.data)

    def _jump_entries(self, rows, cols):
        """J's COO entries: first every cell block (a, b) on (``rows``,
        ``cols``), holding J's blocks on each facet side's own cell summed
        per cell, so each cell-block entry has a slot even where J vanishes;
        then the nonzero entries of the blocks coupling a facet's two cells.
        On a facet the normal-gradient jumps of some DoFs vanish exactly,
        and storing those zeros would only add fill to every factor.  The
        facet blocks are freed on return, before J's conversion to CSR.
        """
        cells, m = self.space.cell_dofs.shape
        weights, jump, dofs = self.interior
        local = _facet_local(weights, jump)
        own = np.zeros(cells * m * m)
        for side, block in zip(self.space.mesh.interior_sides.T // 3,
                               (local[:, :m, :m], local[:, m:, m:])):
            slots = side[:, None] * (m * m) + np.arange(m * m)
            own += np.bincount(slots.ravel(), block.ravel(), len(own))
        # the (+, -) block and the transpose of the (-, +) block, rows on the + side
        cross, cross_t = local[:, :m, m:], local[:, m:, :m].transpose(0, 2, 1)
        nonzero = (cross != 0.0) | (cross_t != 0.0)
        plus = np.broadcast_to(dofs[:, :m, None], cross.shape)[nonzero]
        minus = np.broadcast_to(dofs[:, None, m:], cross.shape)[nonzero]
        return (np.concatenate([rows, plus, minus]), np.concatenate([cols, minus, plus]),
                np.concatenate([own, cross[nonzero], cross_t[nonzero]]))

    @cached_property
    def jump_penalty(self):
        """CIP penalty J on normal-gradient jumps, the one term G and
        B_full share, as a CSR matrix without stored zeros."""
        return _without_zeros(self.pattern.jump.copy(), self.pattern, self.space.dim)

    @cached_property
    def energy_terms(self):
        """The Gram form's terms as (weights, basis values, DoFs, owners).

        Volume ``sigma0 w``, boundary ``1/2 |b.n| w`` and interior-facet
        ``gamma_e w`` weights (n, nq) with the basis values (nq, m) or
        (n, nq, m) on the DoFs (n, m).  Each row is shared equally by the
        cells in its row of ``owners`` (n, c): a cell owns its volume term,
        the owner cell its boundary facet, and each neighbour half of an
        interior facet, so the owned shares sum to the global form.
        """
        mesh = self.space.mesh
        _, w, phi = self.volume
        _, bw, bn, vals, bdofs = self.boundary
        return [
            (self.data.gram_weight * w, phi, self.space.cell_dofs,
             np.arange(len(mesh.cells))[:, None]),
            (bw * (0.5 * np.abs(bn)), vals, bdofs, mesh.boundary_sides[:, None] // 3),
            (*self.interior, mesh.interior_sides // 3),
        ]

    def boundary_matrix(self, weights):
        """(weights v, w) over the whole boundary for per-point weights (nf, nq)."""
        *_, vals, dofs = self.boundary
        return _scatter(_facet_local(weights, vals), dofs, self.space.dim)


# -- volume terms -------------------------------------------------------------


def assemble_mass(space, degree=None):
    """Mass matrix (v, w)."""
    rule = triangle_rule(degree if degree is not None else volume_degree(space))
    _, w = cell_quadrature(space.mesh, rule)
    phi = space.local_basis.evaluate(rule.points)
    return _scatter(_mass_local(phi, w), space.cell_dofs, space.dim)


def _advection_local(tables):
    """Per-cell blocks (nc, m, m) of the adjoint-form advection -(v, b . grad w)."""
    space = tables.space
    pts, w, phi = tables.volume
    nc, nq = w.shape
    bvals = np.asarray(tables.data.velocity(pts.reshape(-1, 2)), dtype=float).reshape(nc, nq, 2)
    _, _, Jinv, _ = space.mesh.affine
    # b . grad(test basis): pull b back through the affine map once
    wb = w[:, :, None] * np.matmul(bvals, Jinv.transpose(0, 2, 1))
    gref = space.local_basis.gradient(tables.volume_rule.points)
    # reference-gradient x value products per point and direction
    products = gref.transpose(0, 2, 1)[:, :, :, None] * phi[:, None, None, :]
    local = -np.matmul(wb.reshape(nc, -1), products.reshape(2 * nq, -1))
    return local.reshape(nc, phi.shape[1], phi.shape[1])


def assemble_advection(tables):
    """Adjoint-form advection block: -(v, b . grad w)."""
    return _scatter(_advection_local(tables), tables.space.cell_dofs, tables.space.dim)


# -- composed operators -------------------------------------------------------


def _assemble(tables, cell_local, boundary_weights, symmetric=False):
    """Cell blocks (nc, m, m), the boundary mass weighted per point by
    ``boundary_weights`` (nf, nq) and J, summed on the tables' pattern.

    Each boundary-facet block lands on its owner cell's slots.
    ``symmetric`` averages the sum with its transpose, bitwise symmetric.
    """
    pattern = tables.pattern
    *_, vals, _ = tables.boundary
    owners = tables.space.mesh.boundary_sides // 3
    size = len(pattern.indices)
    data = np.bincount(pattern.cell_slots.ravel(), cell_local.ravel(), size)
    data += np.bincount(pattern.cell_slots[owners].ravel(),
                        _facet_local(boundary_weights, vals).ravel(), size)
    data += pattern.jump
    if symmetric:
        data = 0.5 * (data + data[pattern.transpose])
    return _without_zeros(data, pattern, tables.space.dim)


def assemble_stabilized(tables):
    """The full stabilized operator: reaction + advection + outflow + jump.

    The outflow term is the boundary mass weighted by (b.n)^+ over the
    whole boundary.  Raises if the reaction coefficient drops below the
    declared floor.
    """
    data = tables.data
    pts, w, phi = tables.volume
    mu = np.asarray(data.reaction(pts.reshape(-1, 2)), dtype=float).reshape(w.shape)
    if mu.min() < data.reaction_floor - 1e-12:
        raise ValueError("reaction coefficient drops below the declared floor")
    _, bw, bn, _, _ = tables.boundary
    local = _mass_local(phi, w * mu) + _advection_local(tables)
    return _assemble(tables, local, bw * np.maximum(bn, 0.0))


def assemble_gram(tables):
    """SPD inner-product matrix of the space (symmetrized exactly)."""
    (mass_w, phi, _, _), (boundary_w, *_), _ = tables.energy_terms
    return _assemble(tables, _mass_local(phi, mass_w), boundary_w, symmetric=True)


def assemble_load(tables):
    """Load vector (f, w) - ((b.n)^- g, w) over the whole boundary."""
    space, data = tables.space, tables.data
    pts, w, phi = tables.volume
    fv = np.asarray(data.source(pts.reshape(-1, 2)), dtype=float).reshape(w.shape)
    vec = np.zeros(space.dim)
    np.add.at(vec, space.cell_dofs, np.matmul(w * fv, phi))

    bpts, bw, bn, vals, bdofs = tables.boundary
    g = np.asarray(data.inflow_data(bpts.reshape(-1, 2)), dtype=float).reshape(bw.shape)
    local_e = -np.matmul((bw * np.minimum(bn, 0.0) * g)[:, None, :], vals)[:, 0]
    np.add.at(vec, bdofs, local_e)
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


def classify_qoi_cells(mesh, region):
    """Boolean mask of the cells whose vertices all lie in the region.

    The cells partition the domain, so they cover the region exactly when
    no cell straddles its boundary and the region lies in the domain.
    Raises ``ValueError`` unless their area equals the region's to 1e-10
    of it.
    """
    tri = mesh.vertices[mesh.cells]
    inside = np.all(region.contains(tri.reshape(-1, 2)).reshape(-1, 3), axis=1)
    if abs(mesh.cell_areas[inside].sum() - region.area) > 1e-10 * region.area:
        raise ValueError("mesh does not conform to the quantity-of-interest region")
    return inside


def assemble_qoi(tables, region):
    """Mean-value functional over the region: q_i = int_region phi_i / |region|.

    Integrates on the tables' volume rule, exact for every rule of at least
    the basis degree, over the cells ``classify_qoi_cells`` finds inside the
    region; it raises unless the mesh conforms to the region.
    """
    space = tables.space
    inside = classify_qoi_cells(space.mesh, region)
    _, w, phi = tables.volume
    local = np.matmul(w[inside], phi)
    vec = np.zeros(space.dim)
    np.add.at(vec, space.cell_dofs[inside], local)
    return vec / region.area


def write_matrix_market(path, matrix):
    """Dump an assembled operator for offline inspection."""
    import scipy.io  # only --dump-matrices writes matrices, so import on use

    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix))
