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

Tables cross a refinement.  Given the previous iteration's tables on the
same problem data, space kind and rules, ``FormTables`` copies the rows of
the cells and interior facets that refinement kept and evaluates only the
new rows, and nothing when no row is new.  The new mesh's ``parents`` name
the kept cells: a cell is kept when its parent has its vertex triple (see
``_kept_rows``), so tables two refinements back carry nothing.  The
carried tables hold point values: the coefficients on the volume rule,
the interior-facet table and the error rule's cell values (``error_terms``,
which ``analysis.error_norms`` reads).  The boundary tables are evaluated
on every boundary facet, and the inflow data and the exact solution's
boundary values there on each call of ``assemble_load`` and
``error_terms``: they are a few per cent of the facet rows, and carrying
them saved no measurable time.  The products over all cells are formed
from the point values every iteration, because OpenBLAS can round a
product over some rows differently from the same rows of the full product
(one row takes gemv, a small product its small-matrix kernel); so every
table and operator is bitwise the one built afresh.

All assembly loops are vectorized over cells and facets.  Bases are
evaluated once per process, per space kind and rule, on the volume rule or
the six reference-facet cases of the edge rule (``reference.tabulate``,
which also holds the mass and advection point products), and gathered per
cell or facet, so no physical point is pulled back.

The space's operators share one CSR sparsity pattern, owned by
``FormTables.pattern``: the cell blocks and the nonzero couplings of the
interior-facet blocks.  It comes from the COO of the jump penalty J,
together with the slot of every cell-block entry, the slot of every
entry's transpose and J's data on the pattern.  J's COO is written once, a
block of facets at a time, into int32 index arrays and a value array
allocated at their largest size, so neither a concatenated copy of it nor
every facet's local matrix is ever held.  Two stable counting passes over
it, scipy's compiled ``coo_tocsr`` and ``csr_tocsc``, bucket its entries
by column and then by row into the dead index arrays: each row's entries
come out by ascending column, each entry's duplicates side by side in COO
order.  One running count of the slots they open gives the pattern and
every entry's slot, with no sort and no lookup, and J's data is one
``np.bincount`` over the slots, so each slot sums its entries in COO
order.  ``assemble_gram`` and ``assemble_stabilized`` sum their cell
blocks, and their boundary-facet blocks on the owner cells' slots, with
``np.bincount``, then add J's data; the Gram matrix is averaged with its
transpose through the slot map, so it is bitwise symmetric.  Both return
CSR matrices that store no exact zero and, unless they had one to drop,
hold the pattern's read-only index arrays.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import coo_tocsr, csr_tocsc

from .reference import edge_rule, tabulate, triangle_rule


class ProblemDataError(ValueError):
    """Problem data the forms cannot use: a non-finite value, or a reaction
    below its declared floor."""


@dataclass
class ProblemData:
    """Coefficients and data of an advection-reaction problem.

    The package solves the conservative form div(b u) + mu u = f, with
    u = g on the inflow boundary: the forms integrate the advection in
    adjoint form, -(v, b . grad w), plus the outflow term.  That equals
    b . grad u + mu u = f only where div b = 0, as for both benchmarks;
    the divergence is neither declared nor checked.

    ``velocity``/``reaction``/``source``/``inflow_data`` are vectorized
    callables over (n, 2) point arrays; every value the forms evaluate
    must be finite, or a ``ProblemDataError`` names the callable.
    ``penalty_order`` is the polynomial order entering the jump-penalty
    weight (set it to the bubble order of the test space in use);
    ``gram_weight`` is the L2 weight of the test inner product, default
    1.0.  A unit weight keeps the dual-norm minimization quasi-optimal for
    weakly reactive problems; matching it to the reaction floor degrades
    p=1 rates on curved advection fields.
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


def cell_quadrature(mesh, rule, cells=slice(None)):
    """Physical quadrature points (n, nq, 2) and scaled weights (n, nq) of the
    given cells, by default all."""
    v0, J, _, det = mesh.affine
    pts = v0[cells, None, :] + np.matmul(rule.points, J[cells].transpose(0, 2, 1))
    return pts, det[cells, None] * rule.weights[None, :]


def facet_quadrature(mesh, edge_ids, rule):
    """Physical quadrature points and scaled weights along given edges."""
    pairs = mesh.edges[edge_ids]
    va = mesh.vertices[pairs[:, 0]]
    vb = mesh.vertices[pairs[:, 1]]
    pts = va[:, None, :] + rule.points[None, :, None] * (vb - va)[:, None, :]
    w = mesh.edge_lengths[edge_ids][:, None] * rule.weights[None, :]
    return pts, w


def _point_values(fn, pts, name):
    """Values of the vectorized callable ``fn`` at points (..., 2), shaped
    like the points: (...) for a scalar field, (..., 2) for a vector field.
    Raises ProblemDataError naming the coefficient ``name`` unless all are finite."""
    values = np.asarray(fn(pts.reshape(-1, 2)), dtype=float)
    if not np.isfinite(values).all():
        raise ProblemDataError(f"the {name} is not finite at every quadrature point")
    return values.reshape(pts.shape[:-1] + values.shape[1:])


def normal_flux(velocity, pts, normals):
    """b.n at facet points (nf, nq, 2) for per-facet normals (nf, 2)."""
    return np.matmul(_point_values(velocity, pts, "velocity"), normals[:, :, None])[:, :, 0]


def facet_cases(mesh, sides):
    """Reference-facet case 2 i + r of each cell side 3 c + i.

    r = 1 when the side walks its facet ((i+1)%3 -> (i+2)%3) against the
    ``mesh.edges`` order, as ``mesh.side_reversed`` records.
    """
    return 2 * (sides % 3) + mesh.side_reversed.ravel()[sides]


def facet_basis(space, sides, degree, normals=None):
    """Basis values (nf, nq, nloc) at the points of ``edge_rule(degree)``,
    seen from given cell sides.

    The local basis's tables on the six reference-facet cases are gathered
    per facet.  With ``normals`` the result is the normal component of the
    physical basis gradients instead.
    """
    mesh = space.mesh
    basis = space.local_basis
    case = facet_cases(mesh, sides)
    if normals is None:
        return tabulate(basis, "facet values", degree)[case]
    _, _, Jinv, _ = mesh.affine
    # n . (Jinv^T gref) = (Jinv n) . gref: contract the normal with Jinv once per facet
    nJ = np.matmul(Jinv[sides // 3], normals[:, :, None])
    gref = tabulate(basis, "facet gradients", degree)  # (6, nq * nloc, 2)
    return np.matmul(gref[case], nJ).reshape(len(sides), gref.shape[1] // basis.count, basis.count)


def _facet_local(weights, vals):
    """Per-facet local matrices sum_q weights v_i v_j, shape (nf, n, n)."""
    return np.matmul(vals.transpose(0, 2, 1) * weights[:, None, :], vals)


def _mass_local(basis, degree, w):
    """Per-cell mass matrices (nc, n, n) of ``basis`` on ``triangle_rule(degree)``
    for scaled weights w (nc, nq)."""
    return np.matmul(w, tabulate(basis, "mass", degree)).reshape(len(w), basis.count, basis.count)


# bytes of one block of facets' local J matrices in ``FormTables._jump_entries``
_FACET_BLOCK_BYTES = 1 << 19


def _scatter(local, dofs, dim):
    """CSR matrix (dim, dim) of local blocks (n, m, m) on DoFs (n, m)."""
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim)).tocsr()


@dataclass(frozen=True)
class Pattern:
    """Sorted, symmetric CSR pattern (``indptr``, ``indices``) of a space's
    operators.  ``cell_slots`` (nc, m*m) is the position of each cell-block
    entry (a, b), row-major; ``transpose`` the position of each entry's
    transpose; ``jump`` the jump penalty J's data on the pattern, each
    position's COO entries summed in COO order.  Every array is read-only,
    so the operators can hold the index arrays themselves."""

    indptr: np.ndarray
    indices: np.ndarray
    cell_slots: np.ndarray
    transpose: np.ndarray
    jump: np.ndarray

    def __post_init__(self):
        for array in (self.indptr, self.indices, self.cell_slots, self.transpose, self.jump):
            array.flags.writeable = False


def _without_zeros(data, pattern, dim):
    """CSR matrix of ``data`` on ``pattern`` with its exact zeros dropped.
    Without a zero it holds the pattern's own index arrays."""
    if data.all():
        return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(dim, dim))
    A = sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=(dim, dim))
    A.eliminate_zeros()
    return A


# -- the tables of one space --------------------------------------------------


def _kept_rows(old, new):
    """The cells and interior facets of mesh ``new`` that refinement left
    unchanged from mesh ``old``, or None unless ``new`` is ``old`` or was
    refined from it: its ``parents`` index ``old``'s cells, and ``old``'s
    vertices lead its own.

    Maps each row kind ("cells", "interior") to the row in ``old`` of each
    row of ``new``, -1 where the row is new.  A cell is kept when its parent
    has the same ordered vertex triple; an interior facet when both its
    sides lie on kept cells and its plus side is the plus side of an
    ``old`` facet.  Tables two refinements back carry nothing.
    """
    if new is old:
        return {"cells": np.arange(len(new.cells)), "interior": np.arange(len(new.interior_sides))}
    nv = len(old.vertices)
    if (new.parents is None or new.parents.max(initial=-1) >= len(old.cells)
            or nv > len(new.vertices) or not np.array_equal(new.vertices[:nv], old.vertices)):
        return None
    parents = new.parents
    old_cell = np.where((old.cells[parents] == new.cells).all(axis=1), parents, -1)
    sides = new.interior_sides
    side_cell = old_cell[sides // 3]
    facet = np.full(3 * len(old.cells), -1)
    facet[old.interior_sides[:, 0]] = np.arange(len(old.interior_sides))
    # a vertex pair has two cells at most, so the old facet's minus cell is the
    # mapped minus cell, which has the same triple and so the same local side
    source = np.where(side_cell[:, 0] >= 0, facet[3 * side_cell[:, 0] + sides[:, 0] % 3], -1)
    return {"cells": old_cell, "interior": np.where(side_cell[:, 1] >= 0, source, -1)}


class FormTables:
    """Quadrature tables of one space and problem, each built on first use.

    One object serves every form of an adaptive iteration: the operator,
    the Gram matrix, the load, the energy indicators and the error norms
    read the same volume, boundary and interior-facet tables, so each is
    computed once.  ``degree`` is the volume quadrature exactness (default
    ``volume_degree``); facets use the ``facet_degree`` edge rule.

    ``previous``, the previous iteration's tables, lends the rows of the
    cells and interior facets that one refinement, or none, kept (see the
    module docstring); they are copied here, so ``previous`` can be
    released at once.
    """

    def __init__(self, space, data, degree=None, previous=None):
        self.space = space
        self.data = data
        # the volume and facet rules' degrees, which key the basis tables
        self.degree = degree if degree is not None else volume_degree(space)
        self.facet_degree = facet_degree(space)
        self.volume_rule = triangle_rule(self.degree)
        self.edge_rule = edge_rule(self.facet_degree)
        # name -> (row kind, key, arrays) of each table built, for the next tables
        self._tables = {}
        # name -> (key, arrays, new rows) copied from ``previous``; each new row
        # holds a placeholder until computed
        self._carried = {}
        if (previous is not None and previous.data == data and previous.space.kind == space.kind
                and previous.volume_rule is self.volume_rule
                and previous.edge_rule is self.edge_rule
                and (kept := _kept_rows(previous.space.mesh, space.mesh)) is not None):
            for name, (kind, key, arrays) in previous._tables.items():
                fresh = np.flatnonzero(kept[kind] < 0)
                if len(fresh) < len(kept[kind]):
                    self._carried[name] = (key, [a.take(kept[kind], axis=0) for a in arrays], fresh)

    def _table(self, name, kind, compute, key=None):
        """The arrays ``compute(rows)`` over all rows of ``kind``, one row per
        cell or interior facet, kept for the next tables.  Carried rows are
        reused, so ``compute`` gets only the others, and is not called when
        every row is carried.  ``key`` (an error table's exact solution) must
        be the same object for a table to be carried."""
        carried_key, arrays, fresh = self._carried.pop(name, (None, None, None))
        if arrays is None or carried_key is not key:
            arrays = compute(slice(None))
        elif len(fresh):
            for out, values in zip(arrays, compute(fresh)):
                out[fresh] = values
        self._tables[name] = (kind, key, arrays)
        return arrays

    def drop(self, name):
        """Free the table ``name``, a cached property, which no later reader,
        the next iteration's tables included, will read."""
        self._tables.pop(name, None)
        self.__dict__.pop(name, None)

    @property
    def volume_basis(self):
        """Basis values (nq, n) at the volume rule's points (read-only)."""
        return tabulate(self.space.local_basis, "values", self.degree)

    def volume_weights(self, cells=slice(None)):
        """The volume rule's scaled weights (n, nq) on the given cells."""
        return self.space.mesh.affine[3][cells, None] * self.volume_rule.weights[None, :]

    @cached_property
    def coefficients(self):
        """The coefficients on the volume rule, as the cell weights of the
        forms: w mu (nc, nq) of the reaction mass, w Jinv b (nc, nq, 2) of
        the advection, b pulled back through each cell's affine map, and w f
        (nc, nq) of the load.  Raises if the reaction coefficient drops below
        the declared floor."""
        mesh, data = self.space.mesh, self.data
        _, _, Jinv, _ = mesh.affine

        def compute(cells):
            pts, w = cell_quadrature(mesh, self.volume_rule, cells)
            mu = _point_values(data.reaction, pts, "reaction")
            if mu.min(initial=math.inf) < data.reaction_floor - 1e-12:
                raise ProblemDataError("reaction coefficient drops below the declared floor")
            bvals = _point_values(data.velocity, pts, "velocity")
            return (w * mu, w[:, :, None] * np.matmul(bvals, Jinv[cells].transpose(0, 2, 1)),
                    w * _point_values(data.source, pts, "source"))

        return self._table("coefficients", "cells", compute)

    @cached_property
    def boundary(self):
        """Points, scaled weights, b.n and owner-cell basis values (nf, nq, n)
        on every boundary facet, and the owner cells' DoFs."""
        mesh = self.space.mesh
        pts, w = facet_quadrature(mesh, mesh.boundary_edges, self.edge_rule)
        bn = normal_flux(self.data.velocity, pts, mesh.boundary_normals)
        vals = facet_basis(self.space, mesh.boundary_sides, self.facet_degree)
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

        def compute(facets):
            edges, normals = mesh.interior_edges[facets], mesh.interior_normals[facets]
            pts, w = facet_quadrature(mesh, edges, self.edge_rule)
            bn = normal_flux(data.velocity, pts, normals)
            h_e = mesh.edge_lengths[edges]
            gamma = h_e**2 / float(k_pen) ** data.penalty_exponent * np.abs(bn).max(axis=1)
            gn_plus, gn_minus = (facet_basis(space, sides, self.facet_degree, normals)
                                 for sides in mesh.interior_sides[facets].T)
            return gamma[:, None] * w, np.concatenate([gn_plus, -gn_minus], axis=2)

        weights, jump = self._table("interior", "interior", compute)
        return weights, jump, np.hstack(space.cell_dofs[mesh.interior_sides.T // 3])

    def error_terms(self, exact):
        """The error norms' volume rule, two degrees above ``volume_degree``:
        its scaled weights (nc, nq) and basis values (nq, n), with the values
        of ``exact`` there (nc, nq), carried like the coefficients, and at the
        boundary points (nf, nq), evaluated on each call."""
        mesh = self.space.mesh
        degree = volume_degree(self.space) + 2
        rule = triangle_rule(degree)

        def on_cells(cells):
            pts, w = cell_quadrature(mesh, rule, cells)
            return w, _point_values(exact, pts, "exact solution")

        w, values = self._table("error", "cells", on_cells, exact)
        return (w, tabulate(self.space.local_basis, "values", degree), values,
                _point_values(exact, self.boundary[0], "exact solution"))

    @cached_property
    def pattern(self):
        """The ``Pattern`` of the space's operators, from J's COO in two
        stable counting passes: no sort, no lookup of a slot by its key."""
        cd = self.space.cell_dofs
        dim = self.space.dim
        rows, cols, values = self._jump_entries()
        size = len(rows)
        # bucket the entries by column, then by row into J's index buffers, which
        # the first pass leaves dead: each row lists its entries by ascending
        # column, and the duplicates of an entry side by side in COO order
        by_col, row_starts = np.empty(dim + 1, np.int32), np.empty(dim + 1, np.int32)
        col_rows, col_entries = np.empty(size, np.int32), np.empty(size, np.int32)
        coo_tocsr(dim, dim, size, cols, rows, np.arange(size, dtype=np.int32),
                  by_col, col_rows, col_entries)
        csr_tocsc(dim, dim, by_col, col_rows, col_entries, row_starts, cols, rows)
        del by_col, col_rows, col_entries
        # a slot opens at a row's first entry and wherever the column changes
        opens = np.empty(size, bool)
        opens[:1] = True
        np.not_equal(cols[1:], cols[:-1], out=opens[1:])
        opens[row_starts[:-1][row_starts[:-1] < size]] = True
        indices = cols[opens]
        counts = np.cumsum(opens, dtype=np.int32, out=cols)  # slots opened up to each entry
        del opens
        # a row's slots end with the count at its last entry
        ends = row_starts[1:]
        indptr = np.zeros(dim + 1, np.int32)
        indptr[1:] = np.where(ends > 0, counts[ends - 1], 0)
        counts -= 1
        slots = np.empty(size, np.int32)  # each COO entry's slot
        slots[rows] = counts
        del rows, cols, counts
        cell_slots = slots[: cd.size * cd.shape[1]].reshape(len(cd), -1).copy()  # they lead J's COO
        jump = np.bincount(slots, values, len(indices))
        del values
        # the pattern is symmetric, so its CSC order lists the slot of each
        # entry's transpose; the transpose's indices land in a dead buffer
        transpose = np.empty(len(indices), np.int32)
        csr_tocsc(dim, dim, indptr, indices, np.arange(len(indices), dtype=np.int32),
                  row_starts, slots[: len(indices)], transpose)
        del slots
        return Pattern(indptr=indptr, indices=indices, cell_slots=cell_slots,
                       transpose=transpose, jump=jump)

    def _jump_entries(self):
        """J's COO entries (rows, cols, values), the indices in int32.

        First every cell block (a, b) on the cell's DoFs, holding J's blocks
        on each facet side's own cell summed per cell by one ``np.add.at``
        per side and block of facets, which adds a cell's facets in facet
        order, so each cell-block entry has a slot even where J vanishes;
        then the nonzero entries of the blocks coupling a facet's two cells,
        rows on the plus side, and their transposes.  On a facet the
        normal-gradient jumps of some DoFs vanish exactly, and storing those
        zeros would only add fill to every factor.  The facets' local
        matrices are formed a block of facets at a time and every entry is
        written into arrays allocated once at their largest size, so neither
        all (nf, 2m, 2m) local matrices nor a concatenated copy of the COO is
        ever held.
        """
        cd = self.space.cell_dofs
        cells, m = cd.shape
        weights, jump, dofs = self.interior
        sides = self.space.mesh.interior_sides // 3
        start = cells * m * m  # the facet-coupling entries follow the cell blocks
        most = len(dofs) * m * m  # of them on one side, at most
        size = start + 2 * most
        rows, cols, values = np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size)
        rows[:start].reshape(cells, m, m)[...] = cd[:, :, None]
        cols[:start].reshape(cells, m, m)[...] = cd[:, None, :]
        # J's blocks on each side's own cell, summed per cell in facet order: the
        # + sides' sum, then the - sides'
        own, own_minus = values[:start], np.zeros(start)
        own.fill(0.0)
        entries = np.arange(m * m)
        end = start
        step = max(1, _FACET_BLOCK_BYTES // (32 * m * m))
        for first in range(0, len(dofs), step):
            block = slice(first, first + step)
            local = _facet_local(weights[block], jump[block])
            for total, side, own_block in zip((own, own_minus), sides[block].T,
                                              (local[:, :m, :m], local[:, m:, m:])):
                np.add.at(total, (side[:, None] * (m * m) + entries).ravel(), own_block.ravel())
            # the (+, -) block and the transpose of the (-, +) block, rows on the + side
            cross, cross_t = local[:, :m, m:], local[:, m:, :m].transpose(0, 2, 1)
            nonzero = (cross != 0.0) | (cross_t != 0.0)
            count = np.count_nonzero(nonzero)
            rows[end : end + count] = np.broadcast_to(dofs[block, :m, None], cross.shape)[nonzero]
            cols[end : end + count] = np.broadcast_to(dofs[block, None, m:], cross.shape)[nonzero]
            values[end : end + count] = cross[nonzero]
            # the transposes' values wait ``most`` behind, clear of the + entries
            values[end + most : end + most + count] = cross_t[nonzero]
            end += count
        own += own_minus
        stop = 2 * end - start
        rows[end:stop], cols[end:stop] = cols[start:end], rows[start:end]
        values[end:stop] = values[start + most : end + most]  # numpy moves overlapping slices safely
        return rows[:stop], cols[:stop], values[:stop]

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
        _, bw, bn, vals, bdofs = self.boundary
        return [
            (self.data.gram_weight * self.volume_weights(), self.volume_basis, self.space.cell_dofs,
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
    degree = degree if degree is not None else volume_degree(space)
    _, w = cell_quadrature(space.mesh, triangle_rule(degree))
    return _scatter(_mass_local(space.local_basis, degree, w), space.cell_dofs, space.dim)


def _advection_local(tables):
    """Per-cell blocks (nc, m, m) of the adjoint-form advection -(v, b . grad w)."""
    basis = tables.space.local_basis
    _, wb, _ = tables.coefficients
    local = -np.matmul(wb.reshape(len(wb), -1), tabulate(basis, "advection", tables.degree))
    return local.reshape(len(wb), basis.count, basis.count)


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
    mass_w, _, _ = tables.coefficients
    _, bw, bn, _, _ = tables.boundary
    local = _mass_local(tables.space.local_basis, tables.degree, mass_w) + _advection_local(tables)
    return _assemble(tables, local, bw * np.maximum(bn, 0.0))


def assemble_gram(tables):
    """SPD inner-product matrix of the space (symmetrized exactly)."""
    (mass_w, *_), (boundary_w, *_), _ = tables.energy_terms
    return _assemble(tables, _mass_local(tables.space.local_basis, tables.degree, mass_w),
                     boundary_w, symmetric=True)


def assemble_load(tables):
    """Load vector (f, w) - ((b.n)^- g, w) over the whole boundary."""
    space = tables.space
    *_, source_w = tables.coefficients
    vec = np.zeros(space.dim)
    np.add.at(vec, space.cell_dofs, np.matmul(source_w, tables.volume_basis))

    pts, bw, bn, vals, bdofs = tables.boundary
    g = _point_values(tables.data.inflow_data, pts, "inflow data")
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
    local = np.matmul(tables.volume_weights(inside), tables.volume_basis)
    vec = np.zeros(space.dim)
    np.add.at(vec, space.cell_dofs[inside], local)
    return vec / region.area


def write_matrix_market(path, matrix):
    """Dump an assembled operator for offline inspection."""
    import scipy.io  # only --dump-matrices writes matrices, so import on use

    scipy.io.mmwrite(str(path), sp.coo_matrix(matrix))
