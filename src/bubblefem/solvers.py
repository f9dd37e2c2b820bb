"""Direct solution of the residual-minimization saddle-point systems.

The primal problem couples the residual representative ``epsilon`` (test
space) with the minimizer ``u`` (trial space) through the indefinite
block system ``[[G, B], [B^T, 0]] [eps; u] = [l; 0]``.  The adjoint
problem shares the same left-hand side with right-hand side ``[0; q]``,
so one factorization serves both solves.  Systems are factorized with a
sparse LU (deterministic, shared across right-hand sides).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .spaces import DiscreteFunction


class SolverError(RuntimeError):
    """A direct solve failed: singular factor or a non-finite result."""


def _factorize(matrix, label):
    try:
        return splu(sp.csc_matrix(matrix))
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
    """LU factorization of [[G, B], [B^T, 0]], reusable across solves."""

    def __init__(self, G, B):
        self.G = G.tocsr()
        self.B = B.tocsr()
        self.n_test, self.n_trial = B.shape
        K = sp.bmat([[self.G, self.B], [self.B.T, None]], format="csc")
        self._lu = _factorize(K, "saddle system")

    def solve(self, rhs_test, rhs_trial):
        rhs = np.concatenate([rhs_test, rhs_trial])
        x = self._lu.solve(rhs)
        return x[: self.n_test], x[self.n_test :]

    def residual(self, x_test, x_trial, rhs_test, rhs_trial):
        r1 = self.G @ x_test + self.B @ x_trial - rhs_test
        r2 = self.B.T @ x_test - rhs_trial
        return max(np.abs(r1).max(initial=0.0), np.abs(r2).max(initial=0.0))


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
    eps_star = _factorize(factor.G, "gram").solve(rhs)
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
