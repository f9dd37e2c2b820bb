"""Direct solution of the residual-minimization saddle-point systems.

The primal problem couples the residual representative ``epsilon`` (test
space) with the minimizer ``u`` (trial space) through the indefinite
block system ``K = [[G, B], [B^T, 0]]``, ``K [eps; u] = [l; 0]``.  The
adjoint problem shares the same left-hand side with right-hand side
``[0; q]``, so one factorization serves both solves.

K is not factored itself.  With ``delta = DELTA_SCALE * max diag(G)``
the regularized ``K_delta = [[G, B], [B^T, -delta I]]`` is symmetric
quasi-definite (G is SPD), so it has an LDL^T factor under any symmetric
ordering without pivoting (Vanderbei, SIAM J. Optim. 5, 1995; Gill,
Saunders and Shinnerl, SIMAX 17, 1996).  SuperLU factors it in symmetric
mode on the minimum-degree ordering of its pattern, with a fraction of
the fill of a column-ordered, pivoted LU of K.  Each solve then runs at
most ``REFINE_STEPS`` steps of iterative refinement against the
unregularized K, which remove the O(delta) shift, until the max residual
is at most ``REFINE_TOL * (1 + max|rhs|)``.  If that gate still fails,
the solve falls back to a pivoted sparse LU of K itself (COLAMD column
ordering).  The Gram matrix G is SPD and is factored in the same
symmetric mode.  Every factor is deterministic and shared across
right-hand sides.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .spaces import DiscreteFunction


# delta = DELTA_SCALE * max diag(G) regularizes the saddle system's (2, 2) block
DELTA_SCALE = 1e-8
# refinement against K stops once max|rhs - K x| <= REFINE_TOL * (1 + max|rhs|) ...
REFINE_TOL = 1e-12
# ... or after this many steps, when the solve falls back to the pivoted LU of K
REFINE_STEPS = 3


class SolverError(RuntimeError):
    """A direct solve failed: singular factor or a non-finite result."""


def _factorize(matrix, label, symmetric=False):
    """Sparse LU of ``matrix``; ``symmetric`` factors a matrix that needs no
    pivoting (SPD or quasi-definite) on the minimum-degree ordering of
    A^T + A, taking the diagonal pivots in order."""
    options = (
        dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        if symmetric
        else {}
    )
    try:
        return splu(sp.csc_matrix(matrix), **options)
    except RuntimeError as exc:  # SuperLU reports the zero pivot in its message
        raise SolverError(f"{label} factorization failed: {exc}") from exc


def _require_finite(label, *values):
    """Raise SolverError unless every solution entry and residual is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise SolverError(f"{label} has a non-finite solution or residual")


@dataclass
class SaddleSolution:
    """Residual representative, minimizer and the block-system residual."""

    epsilon: DiscreteFunction
    u: DiscreteFunction
    kkt_residual: float


@dataclass
class AdjointSolution:
    """Adjoint pair (nu*, w*) and the adjoint residual representative."""

    nu_star: DiscreteFunction
    w_star: DiscreteFunction
    eps_star: DiscreteFunction
    kkt_residual: float


class SaddleFactorization:
    """Factorization of K = [[G, B], [B^T, 0]], reusable across solves.

    ``_lu`` is the symmetric-mode factor of the quasi-definite
    ``[[G, B], [B^T, -delta I]]``; ``solve`` refines its solutions against
    K and falls back to a pivoted LU of K when the refinement gate fails
    (see the module docstring).  ``refine_steps`` and ``fallbacks`` count,
    over every solve so far, the refinement steps taken and the solves
    that fell back.  The factors of K and of G are built on first use.
    """

    def __init__(self, G, B):
        self.G = G.tocsr()
        self.B = B.tocsr()
        self.n_test, self.n_trial = B.shape
        self.refine_steps = 0
        self.fallbacks = 0
        delta = DELTA_SCALE * self.G.diagonal().max(initial=0.0)
        K_delta = sp.bmat(
            [[self.G, self.B], [self.B.T, -delta * sp.identity(self.n_trial)]], format="csc"
        )
        self._lu = _factorize(K_delta, "saddle system", symmetric=True)

    @cached_property
    def _pivoted_lu(self):
        K = sp.bmat([[self.G, self.B], [self.B.T, None]], format="csc")
        return _factorize(K, "saddle system")

    @cached_property
    def gram_lu(self):
        """Symmetric-mode factor of the SPD Gram matrix G."""
        return _factorize(self.G, "gram", symmetric=True)

    def solve(self, rhs_test, rhs_trial):
        rhs = np.concatenate([rhs_test, rhs_trial])
        tol = REFINE_TOL * (1.0 + np.abs(rhs).max(initial=0.0))
        x = self._lu.solve(rhs)
        r = rhs - self._apply(x)
        for _ in range(REFINE_STEPS):
            if np.abs(r).max(initial=0.0) <= tol:
                break
            x += self._lu.solve(r)
            r = rhs - self._apply(x)
            self.refine_steps += 1
        if not np.abs(r).max(initial=0.0) <= tol:  # also catches a NaN residual
            self.fallbacks += 1
            x = self._pivoted_lu.solve(rhs)
        return x[: self.n_test], x[self.n_test :]

    def _apply(self, x):
        """K x for a stacked [test; trial] vector."""
        x_test, x_trial = x[: self.n_test], x[self.n_test :]
        return np.concatenate([self.G @ x_test + self.B @ x_trial, self.B.T @ x_test])

    def residual(self, x_test, x_trial, rhs_test, rhs_trial):
        """max|K x - rhs| of the unregularized system."""
        r = self._apply(np.concatenate([x_test, x_trial])) - np.concatenate([rhs_test, rhs_trial])
        return np.abs(r).max(initial=0.0)


def solve_saddle(factor, load, trial, test):
    """Minimize the residual of the load functional over the trial space.

    ``factor`` is the SaddleFactorization of [[G, B], [B^T, 0]].
    Returns the minimizer ``u`` together with the residual representative
    ``epsilon`` satisfying ``(eps, v) + b(u, v) = l(v)`` for all test v
    and ``b(w, eps) = 0`` for all trial w.
    """
    zeros = np.zeros(factor.n_trial)
    eps, u = factor.solve(load, zeros)
    kkt = factor.residual(eps, u, load, zeros)
    _require_finite("saddle solve", eps, u, kkt)
    return SaddleSolution(
        epsilon=DiscreteFunction(test, eps),
        u=DiscreteFunction(trial, u),
        kkt_residual=float(kkt),
    )


def solve_adjoint(factor, q_trial, q_test, B_full, trial, test):
    """Solve the adjoint saddle problem and represent the adjoint residual.

    The pair (nu*, w*) solves the primal left-hand side, already factored
    in ``factor``, with right-hand side [0; q]; the adjoint residual
    representative solves ``(eps*, v)_G = q(v) - b(v, nu*)`` over the test
    space, which needs the full test-by-test operator ``B_full``.
    """
    zeros = np.zeros(factor.n_test)
    nu, w = factor.solve(zeros, q_trial)
    kkt = factor.residual(nu, w, zeros, q_trial)
    rhs = q_test - B_full.T @ nu
    eps_star = factor.gram_lu.solve(rhs)
    _require_finite("adjoint solve", nu, w, kkt, eps_star)
    return AdjointSolution(
        nu_star=DiscreteFunction(test, nu),
        w_star=DiscreteFunction(trial, w),
        eps_star=DiscreteFunction(test, eps_star),
        kkt_residual=float(kkt),
    )


def solve_cip_enriched(B_full, load, space):
    """Plain stabilized Galerkin solve on the (enriched) space.

    Used for the saturation diagnostic; coercivity of the stabilized form
    guarantees solvability.
    """
    lu = _factorize(B_full, "enriched stabilized operator")
    theta = lu.solve(load)
    _require_finite("enriched stabilized solve", theta)
    return DiscreteFunction(space, theta)


def orthogonality_residual(B, epsilon):
    """max over trial basis w of |b(w, eps)| -- the minimizer optimality check."""
    r = B.T @ epsilon.coefficients
    return float(np.abs(r).max(initial=0.0))
