import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import bubblefem.solvers
from bubblefem import (
    DiscreteFunction,
    ProblemData,
    SaddleFactorization,
    FormTables,
    SolverError,
    assemble_gram,
    assemble_load,
    assemble_qoi,
    assemble_stabilized,
    build_space,
    build_structured_mesh,
    enriched,
    solve_adjoint,
    solve_cip_enriched,
    solve_saddle,
    trial_lagrange,
    Rectangle,
)
from bubblefem.solvers import orthogonality_residual


def const(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


def linear(pts):
    pts = np.atleast_2d(pts)
    return pts[:, 0] + pts[:, 1]


@pytest.fixture(scope="module")
def setup():
    m = build_structured_mesh(4)
    data = ProblemData(
        velocity=lambda x: np.tile([1.0, 0.0], (len(np.atleast_2d(x)), 1)),
        reaction=const(1.0),
        source=lambda pts: 1.0 + linear(pts),
        inflow_data=linear,
        reaction_floor=1.0,
        penalty_order=3,
    )
    trial = build_space(m, trial_lagrange(1))
    test = build_space(m, enriched(1, 3))
    tables = FormTables(test, data)
    G = assemble_gram(tables)
    B = assemble_stabilized(tables)[:, : test.n_trial]
    load = assemble_load(tables)
    return m, data, trial, test, G, B, load


def assert_reported_residuals(sol, G, B, load):
    """The residuals a solve reports equal, bit for bit, max|K x - rhs| with K
    built by sp.bmat and max|B^T eps|."""
    K = sp.bmat([[G, B], [B.T, None]], format="csc")
    n = G.shape[0]
    # summed per column block, G eps + B u, in the order the solver sums
    Kx = K[:, :n] @ sol.epsilon.coefficients + K[:, n:] @ sol.u.coefficients
    rhs = np.concatenate([load, np.zeros(B.shape[1])])
    assert sol.kkt_residual == np.abs(Kx - rhs).max()
    assert sol.orthogonality == orthogonality_residual(B, sol.epsilon)


class TestSolveSaddle:
    def test_manufactured_exactness(self, setup):
        m, data, trial, test, G, B, load = setup
        sol = solve_saddle(SaddleFactorization(G, B), load, trial, test)
        exact = m.vertices[:, 0] + m.vertices[:, 1]
        assert np.abs(sol.u.coefficients - exact).max() < 1e-10
        eps_norm = np.sqrt(sol.epsilon.coefficients @ (G @ sol.epsilon.coefficients))
        assert eps_norm < 1e-10
        assert sol.kkt_residual < 1e-9 * (1.0 + np.abs(load).max())

    def test_zero_load(self, setup):
        _, _, trial, test, G, B, _ = setup
        sol = solve_saddle(SaddleFactorization(G, B), np.zeros(test.dim), trial, test)
        assert not sol.u.coefficients.any()
        assert not sol.epsilon.coefficients.any()

    def test_galerkin_degeneration(self, setup):
        # k <= p: test space equals the trial space, residual vanishes and
        # the minimizer is the plain stabilized Galerkin solution
        m, data, trial, _, _, _, _ = setup
        test_eq = build_space(m, enriched(1, 1))
        assert test_eq.dim == trial.dim
        tables = FormTables(test_eq, data)
        G = assemble_gram(tables)
        B = assemble_stabilized(tables)[:, : test_eq.n_trial]
        load = assemble_load(tables)
        sol = solve_saddle(SaddleFactorization(G, B), load, trial, test_eq)
        plain = solve_cip_enriched(B, load, trial)
        assert np.sqrt(sol.epsilon.coefficients @ (G @ sol.epsilon.coefficients)) < 1e-10
        assert np.abs(sol.u.coefficients - plain.coefficients).max() < 1e-10

    def test_orthogonality(self, setup):
        _, _, trial, test, G, B, load = setup
        sol = solve_saddle(SaddleFactorization(G, B), load, trial, test)
        assert orthogonality_residual(B, sol.epsilon) <= 1e-9 * (1.0 + np.abs(load).max())

    def test_reported_residuals(self, setup):
        _, _, trial, test, G, B, load = setup
        assert_reported_residuals(solve_saddle(SaddleFactorization(G, B), load, trial, test),
                                  G, B, load)

    def test_minimizer_optimality_fd(self, setup):
        # perturbing the minimizer never decreases 1/2 ||l - B u||^2 in G^-1
        _, _, trial, test, G, B, load = setup
        sol = solve_saddle(SaddleFactorization(G, B), load, trial, test)
        lu = spla.splu(sp.csc_matrix(G))

        def objective(u):
            r = load - B @ u
            return 0.5 * r @ lu.solve(r)

        base = objective(sol.u.coefficients)
        rng = np.random.default_rng(77)
        for _ in range(20):
            w = rng.standard_normal(trial.dim)
            w /= np.linalg.norm(w)
            for delta in (1e-4, -1e-4):
                assert objective(sol.u.coefficients + delta * w) >= base - 1e-12 * (1 + abs(base))

    def test_factorization_determinism(self, setup):
        _, _, trial, test, G, B, load = setup
        a = solve_saddle(SaddleFactorization(G, B), load, trial, test)
        b = solve_saddle(SaddleFactorization(G, B), load, trial, test)
        assert np.array_equal(a.u.coefficients, b.u.coefficients)
        assert np.array_equal(a.epsilon.coefficients, b.epsilon.coefficients)

    def test_singular_system_reported(self):
        G = sp.csr_matrix(np.zeros((2, 2)))
        B = sp.csr_matrix(np.zeros((2, 1)))
        with pytest.raises(SolverError):
            SaddleFactorization(G, B)

    def test_regularized_factor_refined(self, setup):
        _, _, trial, test, G, B, load = setup
        factor = SaddleFactorization(G, B)
        solve_saddle(factor, load, trial, test)
        # the O(delta) shift of the quasi-definite factor needs refining
        assert 1 <= factor.refine_steps <= bubblefem.solvers.REFINE_STEPS
        assert factor.fallbacks == 0
        assert "_pivoted_lu" not in vars(factor)

    def test_fallback_to_pivoted_lu(self, setup, monkeypatch):
        # a shift this large leaves refinement short of the gate after its steps
        monkeypatch.setattr(bubblefem.solvers, "DELTA_SCALE", 1.0)
        _, _, trial, test, G, B, load = setup
        factor = SaddleFactorization(G, B)
        sol = solve_saddle(factor, load, trial, test)
        assert factor.refine_steps == bubblefem.solvers.REFINE_STEPS
        assert factor.fallbacks == 1
        assert "_pivoted_lu" in vars(factor)
        assert sol.kkt_residual <= 1e-9 * (1.0 + np.abs(load).max())
        # the reported residuals are those of the fallback's solution
        assert_reported_residuals(sol, G, B, load)


@pytest.fixture(scope="module")
def graded_goal_setup():
    """exp2 at p=2, k=4 on a mesh graded by five bisection generations
    towards the sharp layer y - x/3 = 0.75 (7.8k DoFs)."""
    from bubblefem import experiment2, refine
    from dataclasses import replace

    bench = experiment2()
    data = replace(bench.data, penalty_order=4)
    m = bench.initial_mesh()
    for _ in range(5):
        c = m.vertices[m.cells].mean(axis=1)
        m = refine(m, np.flatnonzero(np.abs(c[:, 1] - c[:, 0] / 3.0 - 0.75) < 0.08))
    trial = build_space(m, trial_lagrange(2))
    test = build_space(m, enriched(2, 4))
    tables = FormTables(test, data)
    G = assemble_gram(tables)
    B = assemble_stabilized(tables)[:, : test.n_trial]
    return trial, test, G, B, assemble_load(tables)


class TestGradedSaddle:
    def test_matches_pivoted_lu_of_K(self, graded_goal_setup):
        trial, test, G, B, load = graded_goal_setup
        factor = SaddleFactorization(G, B)
        sol = solve_saddle(factor, load, trial, test)
        assert factor.fallbacks == 0
        assert sol.kkt_residual <= 1e-12 * (1.0 + np.abs(load).max())
        # reference: COLAMD LU of K, refined against K to roundoff (the
        # unrefined epsilon is itself 2e-10 off here)
        K = sp.bmat([[G, B], [B.T, None]], format="csc")
        rhs = np.concatenate([load, np.zeros(trial.dim)])
        lu = spla.splu(K)
        x = lu.solve(rhs)
        for _ in range(3):
            x += lu.solve(rhs - K @ x)
        for computed, ref in ((sol.epsilon, x[: test.dim]), (sol.u, x[test.dim :])):
            assert np.linalg.norm(computed.coefficients - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def goal_setup():
    from bubblefem import experiment2
    from dataclasses import replace

    bench = experiment2()
    data = replace(bench.data, penalty_order=3)
    m = bench.initial_mesh()
    trial = build_space(m, trial_lagrange(1))
    test = build_space(m, enriched(1, 3))
    tables = FormTables(test, data)
    G = assemble_gram(tables)
    B_full = assemble_stabilized(tables)
    B = B_full[:, : test.n_trial]
    q_trial = assemble_qoi(trial, bench.qoi_region)
    q_test = assemble_qoi(test, bench.qoi_region)
    return trial, test, G, B, B_full, q_trial, q_test


class TestSolveAdjoint:
    def test_zero_goal(self, goal_setup):
        trial, test, G, B, B_full, _, _ = goal_setup
        adj = solve_adjoint(
            SaddleFactorization(G, B), np.zeros(trial.dim), np.zeros(test.dim), B_full, trial, test
        )
        assert not adj.nu_star.coefficients.any()
        assert not adj.w_star.coefficients.any()
        assert not adj.eps_star.coefficients.any()

    def test_block_equations_satisfied(self, goal_setup):
        trial, test, G, B, B_full, q_trial, q_test = goal_setup
        adj = solve_adjoint(SaddleFactorization(G, B), q_trial, q_test, B_full, trial, test)
        scale = 1.0 + np.abs(q_trial).max()
        # first block row: (nu*, v) + b(w*, v) = 0
        r1 = G @ adj.nu_star.coefficients + B @ adj.w_star.coefficients
        assert np.abs(r1).max() <= 1e-9 * scale
        # second block row: b(w, nu*) = q(w) for every trial basis w
        r2 = B.T @ adj.nu_star.coefficients - q_trial
        assert np.abs(r2).max() <= 1e-9 * scale
        # residual representation: (eps*, v)_G = q(v) - b(v, nu*)
        r3 = G @ adj.eps_star.coefficients - (q_test - B_full.T @ adj.nu_star.coefficients)
        assert np.abs(r3).max() <= 1e-9 * scale

    def test_shared_factorization_identical(self, goal_setup):
        trial, test, G, B, B_full, q_trial, q_test = goal_setup
        # a factorization that already served another solve gives the fresh answer
        factor = SaddleFactorization(G, B)
        solve_adjoint(factor, np.zeros(trial.dim), np.zeros(test.dim), B_full, trial, test)
        shared = solve_adjoint(factor, q_trial, q_test, B_full, trial, test)
        fresh = solve_adjoint(SaddleFactorization(G, B), q_trial, q_test, B_full, trial, test)
        assert np.abs(fresh.nu_star.coefficients - shared.nu_star.coefficients).max() < 1e-12
        assert np.abs(fresh.eps_star.coefficients - shared.eps_star.coefficients).max() < 1e-12

    def test_eps_star_is_gram_solve(self, goal_setup):
        trial, test, G, B, B_full, q_trial, q_test = goal_setup
        adj = solve_adjoint(SaddleFactorization(G, B), q_trial, q_test, B_full, trial, test)
        ref = spla.spsolve(sp.csc_matrix(G), q_test - B_full.T @ adj.nu_star.coefficients)
        assert np.linalg.norm(adj.eps_star.coefficients - ref) <= 1e-12 * np.linalg.norm(ref)


class TestCipEnriched:
    def test_manufactured_linear(self, setup):
        m, data, _, test, _, _, load = setup
        B_full = assemble_stabilized(FormTables(test, data))
        theta = solve_cip_enriched(B_full, load, test)
        exact = m.vertices[:, 0] + m.vertices[:, 1]
        assert np.abs(theta.coefficients[: test.n_trial] - exact).max() < 1e-10
        assert np.abs(theta.coefficients[test.n_trial :]).max() < 1e-9

    def test_zero_data(self, setup):
        _, data, _, test, _, _, _ = setup
        B_full = assemble_stabilized(FormTables(test, data))
        theta = solve_cip_enriched(B_full, np.zeros(test.dim), test)
        assert not theta.coefficients.any()

    def test_residual_small(self, setup):
        _, data, _, test, _, _, load = setup
        B_full = assemble_stabilized(FormTables(test, data))
        theta = solve_cip_enriched(B_full, load, test)
        r = B_full @ theta.coefficients - load
        assert np.abs(r).max() <= 1e-9 * (1.0 + np.abs(load).max())
