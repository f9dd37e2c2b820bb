"""Global degree-of-freedom management and discrete functions.

Space kinds:

* ``trial_lagrange(p)`` -- continuous Lagrange space of degree p;
* ``enriched(p, k)`` -- the trial space plus the per-cell interior
  bubbles of degree k (``reference.bubble_basis``), as a basis: for p = 3
  the cubic bubble already lies in the Lagrange space, so only the
  bubbles b_T x^a y^b with a + b >= p - 2 are kept, (k-1)(k-2)/2 - 1 per
  cell.  The numbering is nested: the first ``n_trial = dim(trial)`` DoFs, and
  the leading local basis functions, coincide with the trial space.  A
  trial function therefore injects by zero-padding, and every assembler
  takes one space: the trial x test operator B is the leading column
  block ``[:, :n_trial]`` of the test-space operator, a trial-space
  operator its leading ``[:n_trial, :n_trial]`` block and the trial QoI
  vector the entries ``[:n_trial]`` of the test-space one.  For k <= p
  the bubble block is empty and the enriched space degenerates to the
  trial space;
* ``broken_lagrange(p)`` -- elementwise Lagrange space without
  continuity, kept minimal to support Oswald-interpolation tests.

DoF numbering is deterministic: vertex DoFs by vertex index, edge DoFs
by the lexicographic edge order (walked from the smaller to the larger
vertex index), cell-interior DoFs by cell index.  A cell lists its edge
DoFs along its own walk of each side, so it reads an edge's slots backwards
where ``mesh.side_reversed`` is set.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .reference import bubble_basis, combine_bases, lagrange_basis


@dataclass(frozen=True)
class SpaceKind:
    family: str
    p: int = 0
    k: int = 0


def trial_lagrange(p):
    return SpaceKind("lagrange", p=p)


def enriched(p, k):
    return SpaceKind("enriched", p=p, k=k)


def broken_lagrange(p):
    return SpaceKind("broken", p=p)


class FunctionSpace:
    """DoF layout of a discrete space over a mesh.

    Attributes
    ----------
    dim : int
        Global DoF count.
    cell_dofs : (ncells, nlocal) int array
        Global DoF indices per cell, ordered like the local basis.
    local_basis : ReferenceBasis
        Reference basis matching the cell_dofs layout, one object shared by
        every space of the kind (``build_space``).
    n_trial : int
        Size of the leading trial block (enriched spaces), else dim for
        Lagrange spaces and 0 for broken spaces.
    """

    def __init__(self, mesh, kind, dim, cell_dofs, local_basis, n_trial):
        self.mesh = mesh
        self.kind = kind
        self.dim = dim
        self.cell_dofs = cell_dofs
        self.local_basis = local_basis
        self.n_trial = n_trial
        self.cell_dofs.setflags(write=False)

    @property
    def max_degree(self):
        return self.local_basis.degree


def _lagrange_dofs(mesh, p):
    nv = len(mesh.vertices)
    nc = len(mesh.cells)
    per_edge = p - 1
    n_interior = (p + 1) * (p + 2) // 2 - 3 - 3 * per_edge
    dim = nv + per_edge * len(mesh.edges) + n_interior * nc
    nloc = (p + 1) * (p + 2) // 2
    dofs = np.empty((nc, nloc), dtype=np.int64)
    dofs[:, :3] = mesh.cells
    col = 3
    for i in range(3):  # local edge i, walked (i+1)%3 -> (i+2)%3
        base = nv + mesh.cell_edges[:, i] * per_edge
        for m in range(per_edge):
            # global slots run from the smaller to the larger vertex id
            dofs[:, col] = base + np.where(mesh.side_reversed[:, i], per_edge - 1 - m, m)
            col += 1
    for m in range(n_interior):
        dofs[:, col] = nv + per_edge * len(mesh.edges) + np.arange(nc) * n_interior + m
        col += 1
    return dim, dofs


@functools.lru_cache(maxsize=None)
def _local_basis(kind):
    """The reference basis of a space kind, built once per process."""
    if kind.family == "enriched" and kind.k > kind.p:
        # b_T q with deg q <= p - 3 lies in P_p already
        return combine_bases(lagrange_basis(kind.p), bubble_basis(kind.k, lowest=kind.p - 2))
    # bubbles of degree k <= p already lie in the trial space
    return lagrange_basis(kind.p)


def build_space(mesh, kind):
    """Construct the DoF layout for a space kind on a mesh.

    Every space of one kind shares one ``local_basis`` object, built on the
    first call, so ``reference.tabulate`` evaluates it once per rule.
    """
    if kind.family not in ("lagrange", "broken", "enriched"):
        raise ValueError(f"unknown space family {kind.family!r}")
    basis = _local_basis(kind)
    nc = len(mesh.cells)
    if kind.family == "broken":
        dofs = np.arange(nc * basis.count, dtype=np.int64).reshape(nc, basis.count)
        return FunctionSpace(mesh, kind, nc * basis.count, dofs, basis, 0)
    dim, dofs = _lagrange_dofs(mesh, kind.p)
    n_bubbles = basis.count - dofs.shape[1]
    if n_bubbles:
        bub_dofs = dim + np.arange(nc * n_bubbles, dtype=np.int64).reshape(nc, n_bubbles)
        dofs = np.hstack([dofs, bub_dofs])
    return FunctionSpace(mesh, kind, dim + nc * n_bubbles, dofs, basis, dim)


class DiscreteFunction:
    """Coefficient vector over a function space."""

    def __init__(self, space, coefficients=None):
        self.space = space
        if coefficients is None:
            coefficients = np.zeros(space.dim)
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape != (space.dim,):
            raise ValueError("coefficient vector length does not match space dim")

    def evaluate(self, points):
        """Point values anywhere in the domain (locates cells first)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.space.mesh.locate(points)
        return values_in_cells(self, cells, points)


def values_in_cells(fn, cells, points):
    """Values at physical points with known containing cells."""
    xi = fn.space.mesh.to_reference(cells, points)
    phi = fn.space.local_basis.evaluate(xi)  # (n, nloc)
    coeffs = fn.coefficients[fn.space.cell_dofs[cells]]
    return np.einsum("ni,ni->n", coeffs, phi)


def inject_trial(fn, target):
    """Zero-pad a trial function into its bubble enrichment.

    The pointwise values are unchanged because the enriched numbering
    nests the trial DoFs first.
    """
    src = fn.space
    if target.mesh is not src.mesh:
        raise ValueError("spaces live on different meshes")
    if src.kind.family != "lagrange" or target.kind.family != "enriched":
        raise ValueError("inject_trial maps a Lagrange space into its enrichment")
    if target.kind.p != src.kind.p or target.n_trial != src.dim:
        raise ValueError("target is not an enrichment of the source space")
    out = DiscreteFunction(target)
    out.coefficients[: src.dim] = fn.coefficients
    return out
