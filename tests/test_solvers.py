import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bubblefem import (
    DiscreteFunction,
    ProblemData,
    SaddleFactorization,
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
    G = assemble_gram(test, data)
    B = assemble_stabilized(trial, test, data)
    load = assemble_load(test, data)
    return m, data, trial, test, G, B, load


class TestSolveSaddle:
    def test_manufactured_exactness(self, setup):
        m, data, trial, test, G, B, load = setup
        sol = solve_saddle(G, B, load, trial, test)
        exact = m.vertices[:, 0] + m.vertices[:, 1]
        assert np.abs(sol.u.coefficients - exact).max() < 1e-10
        eps_norm = np.sqrt(sol.epsilon.coefficients @ (G @ sol.epsilon.coefficients))
        assert eps_norm < 1e-10
        assert sol.kkt_residual < 1e-9 * (1.0 + np.abs(load).max())

    def test_zero_load(self, setup):
        _, _, trial, test, G, B, _ = setup
        sol = solve_saddle(G, B, np.zeros(test.dim), trial, test)
        assert not sol.u.coefficients.any()
        assert not sol.epsilon.coefficients.any()

    def test_galerkin_degeneration(self, setup):
        # k <= p: test space equals the trial space, residual vanishes and
        # the minimizer is the plain stabilized Galerkin solution
        m, data, trial, _, _, _, _ = setup
        test_eq = build_space(m, enriched(1, 1))
        assert test_eq.dim == trial.dim
        G = assemble_gram(test_eq, data)
        B = assemble_stabilized(trial, test_eq, data)
        load = assemble_load(test_eq, data)
        sol = solve_saddle(G, B, load, trial, test_eq)
        plain = solve_cip_enriched(B, load, trial)
        assert np.sqrt(sol.epsilon.coefficients @ (G @ sol.epsilon.coefficients)) < 1e-10
        assert np.abs(sol.u.coefficients - plain.coefficients).max() < 1e-10

    def test_orthogonality(self, setup):
        _, _, trial, test, G, B, load = setup
        sol = solve_saddle(G, B, load, trial, test)
        assert orthogonality_residual(B, sol.epsilon) <= 1e-9 * (1.0 + np.abs(load).max())

    def test_minimizer_optimality_fd(self, setup):
        # perturbing the minimizer never decreases 1/2 ||l - B u||^2 in G^-1
        _, _, trial, test, G, B, load = setup
        sol = solve_saddle(G, B, load, trial, test)
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
        a = solve_saddle(G, B, load, trial, test)
        b = solve_saddle(G, B, load, trial, test)
        assert np.array_equal(a.u.coefficients, b.u.coefficients)
        assert np.array_equal(a.epsilon.coefficients, b.epsilon.coefficients)

    def test_singular_system_reported(self):
        G = sp.csr_matrix(np.zeros((2, 2)))
        B = sp.csr_matrix(np.zeros((2, 1)))
        with pytest.raises(SolverError):
            SaddleFactorization(G, B)


@pytest.fixture(scope="module")
def goal_setup():
    from bubblefem import experiment2
    from dataclasses import replace

    bench = experiment2()
    data = replace(bench.data, penalty_order=3)
    m = bench.initial_mesh()
    trial = build_space(m, trial_lagrange(1))
    test = build_space(m, enriched(1, 3))
    G = assemble_gram(test, data)
    B = assemble_stabilized(trial, test, data)
    B_full = assemble_stabilized(test, test, data)
    q_trial = assemble_qoi(trial, bench.qoi_region)
    q_test = assemble_qoi(test, bench.qoi_region)
    return trial, test, G, B, B_full, q_trial, q_test


class TestSolveAdjoint:
    def test_zero_goal(self, goal_setup):
        trial, test, G, B, B_full, _, _ = goal_setup
        adj = solve_adjoint(G, B, np.zeros(trial.dim), np.zeros(test.dim), B_full, trial, test)
        assert not adj.nu_star.coefficients.any()
        assert not adj.w_star.coefficients.any()
        assert not adj.eps_star.coefficients.any()

    def test_block_equations_satisfied(self, goal_setup):
        trial, test, G, B, B_full, q_trial, q_test = goal_setup
        adj = solve_adjoint(G, B, q_trial, q_test, B_full, trial, test)
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
        factor = SaddleFactorization(G, B)
        fresh = solve_adjoint(G, B, q_trial, q_test, B_full, trial, test)
        shared = solve_adjoint(G, B, q_trial, q_test, B_full, trial, test, factor=factor)
        assert np.abs(fresh.nu_star.coefficients - shared.nu_star.coefficients).max() < 1e-12
        assert np.abs(fresh.eps_star.coefficients - shared.eps_star.coefficients).max() < 1e-12


class TestCipEnriched:
    def test_manufactured_linear(self, setup):
        m, data, _, test, _, _, load = setup
        B_full = assemble_stabilized(test, test, data)
        theta = solve_cip_enriched(B_full, load, test)
        exact = m.vertices[:, 0] + m.vertices[:, 1]
        assert np.abs(theta.coefficients[: test.n_trial] - exact).max() < 1e-10
        assert np.abs(theta.coefficients[test.n_trial :]).max() < 1e-9

    def test_zero_data(self, setup):
        _, data, _, test, _, _, _ = setup
        B_full = assemble_stabilized(test, test, data)
        theta = solve_cip_enriched(B_full, np.zeros(test.dim), test)
        assert not theta.coefficients.any()

    def test_residual_small(self, setup):
        _, data, _, test, _, _, load = setup
        B_full = assemble_stabilized(test, test, data)
        theta = solve_cip_enriched(B_full, load, test)
        r = B_full @ theta.coefficients - load
        assert np.abs(r).max() <= 1e-9 * (1.0 + np.abs(load).max())
