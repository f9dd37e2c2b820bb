"""Direct solution of the residual-minimization saddle-point systems.

The primal problem couples the residual representative ``epsilon`` (test
space) with the minimizer ``u`` (trial space) through the indefinite
block system ``K = [[G, B], [B^T, 0]]``, ``K [eps; u] = [l; 0]``.  The
adjoint problem shares the same left-hand side with right-hand side
``[0; q]``, so one factorization serves both solves.

Every linear system of an iteration -- the saddle system K, the Gram
matrix G of the adjoint residual representative and the enriched operator
B_full of the saturation diagnostic -- is solved by one pattern, owned by
``RefinedFactor``: factor a matrix that needs no pivoting in SuperLU's
symmetric mode, on a minimum-degree ordering, then run at most
``REFINE_STEPS`` steps of iterative refinement against the sparse
operator A itself until the max residual is at most
``REFINE_TOL * (1 + max|rhs|)``.  If that gate still fails, the solve
falls back to a pivoted sparse LU of A (COLAMD column ordering), refined
the same way; a non-finite solution or residual raises ``SolverError``.
Every factor is deterministic and shared across right-hand sides.

K is not factored itself.  With ``delta = DELTA_SCALE * max diag(G)``
the regularized ``K_delta = [[G, B], [B^T, -delta I]]`` is symmetric
quasi-definite (G is SPD), so it has an LDL^T factor under any symmetric
ordering without pivoting (Vanderbei, SIAM J. Optim. 5, 1995; Gill,
Saunders and Shinnerl, SIMAX 17, 1996), with a fraction of the fill of a
column-ordered, pivoted LU of K.  Once factored, K_delta becomes K in
place: its (2, 2) block's stored diagonal is zeroed.  Refinement against
K removes the O(delta) shift.  K_delta is gathered column by column
into CSC arrays allocated once at their final size, straight from its
blocks' arrays, without sorting a COO copy of it or stacking block
columns.  The Gram matrix G is SPD and is factored in the same
symmetric mode and refined against itself, as is the SPD mass matrix of
``analysis.l2_project``.

One minimum-degree ordering runs per iteration, K_delta's.  G, B_full
and K_delta share the test space's sparsity pattern, so the iteration's
second factor, G for eps* (``solve_adjoint``) or B_full for theta_h
(``solve_cip_enriched``), takes K_delta's elimination order restricted
to the test DoFs (``SaddleFactorization.test_order``), permuted
symmetrically and factored in natural order: its fill is within -2.4 %
to +1.4 % of its own minimum-degree ordering's over the benchmark loops.
Every existence argument here covers any symmetric ordering, so this
order keeps the unpivoted factors valid.  K's LU, held by a
``SaddleFactorization`` alone, is dropped before a second factor is built.

The saturation diagnostic solves the nonsymmetric enriched operator
B_full.  Where the reaction floor mu_0 > 0, coercivity of the stabilized
form gives sym(B_full) >= mu_0 M, with M the SPD mass matrix, so B_full
is positive real.  So is every symmetric permutation of it and every
leading principal block, so an LU without pivoting exists under any
symmetric ordering (Golub and Van Loan, Linear Algebra Appl. 28, 1979;
Higham, Accuracy and Stability of Numerical Algorithms, 10.4), and
B_full is factored in symmetric mode and refined against itself; the
gate and the pivoted fallback, also taken on a zero pivot, still guard
it.  With mu_0 = 0, sym(B_full) is only semidefinite, no unpivoted
factor is guaranteed, and B_full gets the pivoted LU directly.

Every factor runs with SuperLU's supernode relaxation at 1
(``SUPERNODE_RELAX``; SuperLU: Demmel et al., SIMAX 20, 1999).  With the
default, the time of a K_delta factor jumps with its sparsity pattern, at
equal fill and flops: on the goal-oriented p = 1 loop of experiment 2 it
took 2.2, 8.4, 2.7 and 18.2 s at 35k-50k DoFs, against 0.5-0.7 s with
relax = 1, and the slow factors touched far more memory.  Zero padding in
relaxed supernodes, which ``L.nnz + U.nnz`` does not count, is the likely
cause; that is not verified against SuperLU's source.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .spaces import DiscreteFunction


# delta = DELTA_SCALE * max diag(G) regularizes the saddle system's (2, 2) block
DELTA_SCALE = 1e-8
# refinement against the operator A stops once max|rhs - A x| <= REFINE_TOL * (1 + max|rhs|) ...
REFINE_TOL = 1e-12
# ... or after this many steps, when the solve falls back to the pivoted LU of A
REFINE_STEPS = 3
# SuperLU's supernode relaxation, passed to every factor (why 1: the module docstring)
SUPERNODE_RELAX = 1


class SolverError(RuntimeError):
    """A direct solve failed: singular factor or a non-finite result."""


def _factorize(matrix, label, symmetric=False, order=None):
    """Sparse LU of ``matrix``.

    ``symmetric`` factors a matrix that needs no pivoting (SPD,
    quasi-definite or positive real) in symmetric mode, taking the diagonal
    pivots in order, on the minimum-degree ordering of A^T + A or, given
    ``order``, on that elimination order of its rows and columns: P A P^T
    (``_permuted``) is factored in natural order, and the factor solves in
    A's numbering.
    """
    options = dict(relax=SUPERNODE_RELAX)
    if symmetric:
        options.update(permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    try:
        if order is None:
            return splu(matrix.tocsc(), **options)
        return _Reordered(splu(_permuted(matrix, order), **options), order)
    except RuntimeError as exc:  # SuperLU reports the zero pivot in its message
        raise SolverError(f"{label} factorization failed: {exc}") from exc


def _permuted(A, order):
    """P A P^T in CSC, row and column i of which are row and column
    ``order[i]`` of A: A's rows gathered in ``order``, their column indices
    relabelled through the inverse order, converted once.  The arrays equal
    those of ``csc_matrix(A[order][:, order])``."""
    rows = A.tocsr()[order]
    inverse = np.empty(len(order), dtype=rows.indices.dtype)
    inverse[order] = np.arange(len(order), dtype=inverse.dtype)
    rows.indices = inverse[rows.indices]
    rows.has_sorted_indices = False
    return rows.tocsc()


class _Reordered:
    """Factor ``lu`` of P A P^T, solving A x = rhs in A's numbering."""

    def __init__(self, lu, order):
        self.lu = lu
        self.order = order

    def solve(self, rhs):
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order])
        return x


@dataclass
class SaddleSolution:
    """Residual representative, minimizer, and max|r| / (1 + max|rhs|) for the
    residual r of the block system and of its trial rows (orthogonality)."""

    epsilon: DiscreteFunction
    u: DiscreteFunction
    kkt_residual: float
    orthogonality: float


@dataclass
class AdjointSolution:
    """Adjoint pair (nu*, w*) and max|r| / (1 + max|rhs|)."""

    nu_star: DiscreteFunction
    w_star: DiscreteFunction
    kkt_residual: float


class RefinedFactor:
    """Solves A x = rhs on a factor ``lu``, refined against the sparse
    operator ``A``, with a pivoted LU of A as the fallback (see the module
    docstring).

    ``lu`` is an unpivoted factor of A or of a matrix near A; None solves on
    the pivoted LU alone, which is built on first use.  ``label`` names A in
    errors.  ``refine_steps`` and ``fallbacks`` count, over every solve so
    far, the refinement steps taken and the solves that fell back.
    """

    def __init__(self, A, lu, label):
        self.A = A
        self._lu = lu
        self.label = label
        self.refine_steps = 0
        self.fallbacks = 0

    @staticmethod
    def unpivoted(A, label, order=None):
        """A factored without pivoting in symmetric mode, on the elimination
        ``order`` if given (see ``_factorize``); a zero pivot counts as a
        fallback to the pivoted LU."""
        try:
            return RefinedFactor(A, _factorize(A, label, symmetric=True, order=order), label)
        except SolverError:
            factor = RefinedFactor(A, None, label)
            factor.fallbacks = 1
            return factor

    @cached_property
    def _pivoted_lu(self):
        return _factorize(self.A, self.label)

    def refined_solve(self, rhs):
        """x with A x = rhs, and the residual r = rhs - A x of the x returned;
        raises SolverError unless both are finite."""
        tol = REFINE_TOL * (1.0 + np.abs(rhs).max(initial=0.0))
        x, r = self._refine(self._pivoted_lu if self._lu is None else self._lu, rhs, tol)
        # the gate of the unpivoted factor; a NaN residual fails it too
        if self._lu is not None and not np.abs(r).max(initial=0.0) <= tol:
            self.fallbacks += 1
            x, r = self._refine(self._pivoted_lu, rhs, tol)
        if not (np.isfinite(x).all() and np.isfinite(r).all()):
            raise SolverError(f"{self.label} has a non-finite solution or residual")
        return x, r

    def _refine(self, lu, rhs, tol):
        x = lu.solve(rhs)
        r = rhs - self.A @ x
        for _ in range(REFINE_STEPS):
            if np.abs(r).max(initial=0.0) <= tol:
                break
            x += lu.solve(r)
            r = rhs - self.A @ x
            self.refine_steps += 1
        return x, r


def _stack_columns(indices, data, lead, trail):
    """Fill ``indices`` and ``data`` column by column with the entries of
    column j of ``lead``, then those of column j of ``trail``; each is the
    (indptr, indices, data) of a compressed matrix with the same columns."""
    from_lead = np.repeat(np.tile([True, False], len(lead[0]) - 1),
                          np.column_stack([np.diff(lead[0]), np.diff(trail[0])]).ravel())
    indices[from_lead], data[from_lead] = lead[1], lead[2]
    np.logical_not(from_lead, out=from_lead)
    indices[from_lead], data[from_lead] = trail[1], trail[2]


def _saddle_matrix(G, B, delta):
    """K_delta = [[G, B], [B^T, -delta I]] in CSC, for a symmetric CSR G.

    K_delta's arrays are allocated once at their final size and filled from
    the blocks' arrays: column j < n_test is G's row j (G's CSR arrays are
    its CSC arrays) followed by B's row j shifted by n_test, and column
    n_test + t is B's column t followed by the -delta diagonal entry.  The
    rows of each column stay sorted, so no COO of K_delta is sorted.
    """
    B = B.tocsr()
    n_test, n_trial = B.shape
    columns = B.tocsc()
    diagonal = np.arange(n_trial + 1, dtype=np.int32)  # -delta I's indptr
    head = G.nnz + B.nnz  # the test columns' entries
    indptr = np.concatenate([G.indptr + B.indptr, head + columns.indptr[1:] + diagonal[1:]])
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
    _stack_columns(indices[:head], data[:head], (G.indptr, G.indices, G.data),
                   (B.indptr, B.indices + np.int32(n_test), B.data))
    _stack_columns(indices[head:], data[head:], (columns.indptr, columns.indices, columns.data),
                   (diagonal, n_test + diagonal[:-1], np.full(n_trial, -delta)))
    return sp.csc_matrix((data, indices, indptr), shape=(n_test + n_trial,) * 2)


class SaddleFactorization(RefinedFactor):
    """Factorization of K = [[G, B], [B^T, 0]], reusable across solves, for
    the symmetric Gram matrix G and the trial block B = B_full[:, :n_trial].

    ``_lu`` is the symmetric-mode factor of the quasi-definite
    ``K_delta = [[G, B], [B^T, -delta I]]``; K_delta is then turned into K
    in place and the factor is refined against it.  It holds no other factor.
    """

    def __init__(self, G, B):
        G = G.tocsr()
        self.n_test, self.n_trial = B.shape
        delta = DELTA_SCALE * G.diagonal().max(initial=0.0)
        K = _saddle_matrix(G, B, delta)
        lu = _factorize(K, "saddle system", symmetric=True)
        # K_delta -> K: zero the stored diagonal of the trial columns, each one's
        # last entry, inserting no entry
        K.data[K.indptr[self.n_test + 1 :] - 1] = 0.0
        super().__init__(K, lu, "saddle system")

    @cached_property
    def test_order(self):
        """K's elimination order restricted to the test DoFs, the order of
        the iteration's second factor (of G or B_full)."""
        order = np.argsort(self._lu.perm_c)
        return order[order < self.n_test]

    def solve(self, rhs_test, rhs_trial):
        """Solve K x = rhs; returns x's test and trial blocks and the residual
        rhs - K x over the refinement gate's scale 1 + max|rhs|."""
        rhs = np.concatenate([rhs_test, rhs_trial])
        x, r = self.refined_solve(rhs)
        return x[: self.n_test], x[self.n_test :], r / (1.0 + np.abs(rhs).max(initial=0.0))


def _on_space(space, x_trial):
    """The trial block as a function on the enriched ``space``, bubble coefficients zero."""
    return DiscreteFunction(space, np.concatenate([x_trial, np.zeros(space.dim - space.n_trial)]))


def solve_saddle(factor, load, space):
    """Minimize the residual of the load functional over the trial space.

    ``factor`` is the SaddleFactorization of [[G, B], [B^T, 0]] on the
    enriched test ``space``.  Returns the minimizer ``u``, on ``space`` with
    zero bubble coefficients, and the residual representative ``epsilon``:
    ``(eps, v) + b(u, v) = l(v)`` for all test v, ``b(w, eps) = 0`` for all trial w.
    """
    eps, u, r = factor.solve(load, np.zeros(factor.n_trial))
    return SaddleSolution(
        epsilon=DiscreteFunction(space, eps),
        u=_on_space(space, u),
        kkt_residual=float(np.abs(r).max(initial=0.0)),
        # the trial rows of r are -B^T eps: the orthogonality residual
        orthogonality=float(np.abs(r[factor.n_test :]).max(initial=0.0)),
    )


def solve_adjoint_saddle(factor, q, space):
    """Solve the adjoint saddle problem: (nu*, w*) solves K, factored in
    ``factor``, with right-hand side [0; q_trial], the leading n_trial
    entries of the QoI vector ``q`` on the test ``space``; w* lives on
    ``space`` with zero bubble coefficients."""
    nu, w, r = factor.solve(np.zeros(factor.n_test), q[: factor.n_trial])
    return AdjointSolution(
        nu_star=DiscreteFunction(space, nu),
        w_star=_on_space(space, w),
        kkt_residual=float(np.abs(r).max(initial=0.0)),
    )


def solve_adjoint(G, B_full, q, nu_star, order=None):
    """The adjoint residual representative, ``(eps*, v)_G = q(v) - b(v, nu*)``
    over the test space of ``nu_star``, on G's unpivoted factor on ``order``
    (``RefinedFactor.unpivoted``).  Returns eps* and that ``RefinedFactor``."""
    factor = RefinedFactor.unpivoted(G, "gram", order)
    eps_star, _ = factor.refined_solve(q - B_full.T @ nu_star.coefficients)
    return DiscreteFunction(nu_star.space, eps_star), factor


def solve_cip_enriched(B_full, load, tables, order=None):
    """Plain stabilized Galerkin solve on the tables' (enriched) space, for
    the saturation diagnostic; coercivity of the stabilized form guarantees
    solvability.  B_full is assembled on ``tables``, whose floor mu_0 picks
    the factor: unpivoted where mu_0 > 0, on the elimination ``order`` of
    the test DoFs if given (``SaddleFactorization.test_order``), and the
    pivoted LU alone where mu_0 = 0 (see the module docstring).  Either way
    it is refined against B_full.  Returns theta_h as a ``DiscreteFunction``
    and the ``RefinedFactor`` that solved for it, whose counts tell which
    solver path ran.
    """
    label = "enriched stabilized operator"
    if tables.data.reaction_floor > 0.0:
        factor = RefinedFactor.unpivoted(B_full, label, order)
    else:
        factor = RefinedFactor(B_full, None, label)
    theta, _ = factor.refined_solve(np.asarray(load, dtype=float))
    return DiscreteFunction(tables.space, theta), factor


def orthogonality_residual(B, epsilon):
    """max over trial basis w of |b(w, eps)| -- the minimizer optimality check."""
    r = B.T @ epsilon.coefficients
    return float(np.abs(r).max(initial=0.0))
