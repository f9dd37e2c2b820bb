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
    solve_adjoint_saddle,
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
    test = build_space(m, enriched(1, 3))
    tables = FormTables(test, data)
    G = assemble_gram(tables)
    B = assemble_stabilized(tables)[:, : test.n_trial]
    load = assemble_load(tables)
    return m, tables, test, G, B, load


def assert_reported_residuals(sol, G, B, load):
    """The residuals a solve reports equal, bit for bit, max|K x - rhs| with K
    built by sp.bmat and max|B^T eps|, each over 1 + max|load|."""
    K = sp.bmat([[G, B], [B.T, None]], format="csc")
    n_trial = B.shape[1]
    # one CSC product over the stacked x, in the order the solver sums
    Kx = K @ np.concatenate([sol.epsilon.coefficients, sol.u.coefficients[:n_trial]])
    rhs = np.concatenate([load, np.zeros(n_trial)])
    scale = 1.0 + np.abs(load).max()
    assert sol.kkt_residual == np.abs(Kx - rhs).max() / scale
    assert sol.orthogonality == orthogonality_residual(B, sol.epsilon) / scale


class TestSolveSaddle:
    def test_manufactured_exactness(self, setup):
        m, _, test, G, B, load = setup
        sol = solve_saddle(SaddleFactorization(G, B), load, test)
        exact = m.vertices[:, 0] + m.vertices[:, 1]
        # u lives on the enriched space, its bubble coefficients zero
        assert sol.u.space is test and sol.epsilon.space is test
        assert np.abs(sol.u.coefficients[: test.n_trial] - exact).max() < 1e-10
        assert not sol.u.coefficients[test.n_trial :].any()
        eps_norm = np.sqrt(sol.epsilon.coefficients @ (G @ sol.epsilon.coefficients))
        assert eps_norm < 1e-10
        assert sol.kkt_residual < 1e-9

    def test_zero_load(self, setup):
        _, _, test, G, B, _ = setup
        sol = solve_saddle(SaddleFactorization(G, B), np.zeros(test.dim), test)
        assert not sol.u.coefficients.any()
        assert not sol.epsilon.coefficients.any()

    def test_galerkin_degeneration(self, setup):
        # k <= p: test space equals the trial space, residual vanishes and
        # the minimizer is the plain stabilized Galerkin solution
        m, tables, _, _, _, _ = setup
        test_eq = build_space(m, enriched(1, 1))
        assert test_eq.dim == build_space(m, trial_lagrange(1)).dim
        tables = FormTables(test_eq, tables.data)
        G = assemble_gram(tables)
        B = assemble_stabilized(tables)[:, : test_eq.n_trial]
        load = assemble_load(tables)
        sol = solve_saddle(SaddleFactorization(G, B), load, test_eq)
        plain, _ = solve_cip_enriched(B, load, tables)
        assert np.sqrt(sol.epsilon.coefficients @ (G @ sol.epsilon.coefficients)) < 1e-10
        assert np.abs(sol.u.coefficients - plain.coefficients).max() < 1e-10

    def test_orthogonality(self, setup):
        _, _, test, G, B, load = setup
        sol = solve_saddle(SaddleFactorization(G, B), load, test)
        assert orthogonality_residual(B, sol.epsilon) <= 1e-9 * (1.0 + np.abs(load).max())

    def test_reported_residuals(self, setup):
        _, _, test, G, B, load = setup
        assert_reported_residuals(solve_saddle(SaddleFactorization(G, B), load, test),
                                  G, B, load)

    def test_minimizer_optimality_fd(self, setup):
        # perturbing the minimizer never decreases 1/2 ||l - B u||^2 in G^-1
        _, _, test, G, B, load = setup
        sol = solve_saddle(SaddleFactorization(G, B), load, test)
        lu = spla.splu(sp.csc_matrix(G))

        def objective(u):
            r = load - B @ u
            return 0.5 * r @ lu.solve(r)

        u = sol.u.coefficients[: test.n_trial]
        base = objective(u)
        rng = np.random.default_rng(77)
        for _ in range(20):
            w = rng.standard_normal(test.n_trial)
            w /= np.linalg.norm(w)
            for delta in (1e-4, -1e-4):
                assert objective(u + delta * w) >= base - 1e-12 * (1 + abs(base))

    def test_factorization_determinism(self, setup):
        _, _, test, G, B, load = setup
        a = solve_saddle(SaddleFactorization(G, B), load, test)
        b = solve_saddle(SaddleFactorization(G, B), load, test)
        assert np.array_equal(a.u.coefficients, b.u.coefficients)
        assert np.array_equal(a.epsilon.coefficients, b.epsilon.coefficients)

    def test_singular_system_reported(self):
        G = sp.csr_matrix(np.zeros((2, 2)))
        B = sp.csr_matrix(np.zeros((2, 1)))
        with pytest.raises(SolverError):
            SaddleFactorization(G, B)

    def test_regularized_factor_refined(self, setup):
        _, _, test, G, B, load = setup
        factor = SaddleFactorization(G, B)
        solve_saddle(factor, load, test)
        # the O(delta) shift of the quasi-definite factor needs refining
        assert 1 <= factor.refine_steps <= bubblefem.solvers.REFINE_STEPS
        assert factor.fallbacks == 0
        assert "_pivoted_lu" not in vars(factor)

    def test_fallback_to_pivoted_lu(self, setup, monkeypatch):
        # a shift this large leaves refinement short of the gate after its steps
        monkeypatch.setattr(bubblefem.solvers, "DELTA_SCALE", 1.0)
        _, _, test, G, B, load = setup
        factor = SaddleFactorization(G, B)
        sol = solve_saddle(factor, load, test)
        assert factor.refine_steps == bubblefem.solvers.REFINE_STEPS
        assert factor.fallbacks == 1
        assert "_pivoted_lu" in vars(factor)
        assert sol.kkt_residual <= 1e-9
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
    test = build_space(m, enriched(2, 4))
    tables = FormTables(test, data)
    G = assemble_gram(tables)
    B = assemble_stabilized(tables)[:, : test.n_trial]
    return test, G, B, assemble_load(tables)


class TestGradedSaddle:
    def test_matches_pivoted_lu_of_K(self, graded_goal_setup):
        test, G, B, load = graded_goal_setup
        factor = SaddleFactorization(G, B)
        sol = solve_saddle(factor, load, test)
        assert factor.fallbacks == 0
        assert sol.kkt_residual <= 1e-12
        # reference: COLAMD LU of K, refined against K to roundoff (the
        # unrefined epsilon is itself 2e-10 off here)
        K = sp.bmat([[G, B], [B.T, None]], format="csc")
        rhs = np.concatenate([load, np.zeros(test.n_trial)])
        lu = spla.splu(K)
        x = lu.solve(rhs)
        for _ in range(3):
            x += lu.solve(rhs - K @ x)
        for computed, ref in ((sol.epsilon.coefficients, x[: test.dim]),
                              (sol.u.coefficients[: test.n_trial], x[test.dim :])):
            assert np.linalg.norm(computed - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def goal_setup():
    from bubblefem import experiment2
    from dataclasses import replace

    bench = experiment2()
    data = replace(bench.data, penalty_order=3)
    m = bench.initial_mesh()
    test = build_space(m, enriched(1, 3))
    tables = FormTables(test, data)
    G = assemble_gram(tables)
    B_full = assemble_stabilized(tables)
    B = B_full[:, : test.n_trial]
    return test, G, B, B_full, assemble_qoi(tables, bench.qoi_region)


def adjoint_solves(G, B, B_full, q, test, factor=None):
    """The loop's adjoint solves: (nu*, w*) on the saddle ``factor`` (fresh
    by default), then eps* on G factored on K's ``test_order``; returns the
    AdjointSolution, eps* and G's RefinedFactor."""
    factor = SaddleFactorization(G, B) if factor is None else factor
    adj = solve_adjoint_saddle(factor, q, test)
    return (adj, *solve_adjoint(G, B_full, q, adj.nu_star, factor.test_order))


class TestSolveAdjoint:
    def test_zero_goal(self, goal_setup):
        test, G, B, B_full, _ = goal_setup
        adj, eps_star, _ = adjoint_solves(G, B, B_full, np.zeros(test.dim), test)
        assert not adj.nu_star.coefficients.any()
        assert not adj.w_star.coefficients.any()
        assert not eps_star.coefficients.any()

    def test_block_equations_satisfied(self, goal_setup):
        test, G, B, B_full, q_test = goal_setup
        q_trial = q_test[: test.n_trial]
        adj, eps_star, _ = adjoint_solves(G, B, B_full, q_test, test)
        assert adj.w_star.space is test
        assert eps_star.space is test
        assert not adj.w_star.coefficients[test.n_trial :].any()
        scale = 1.0 + np.abs(q_trial).max()
        assert adj.kkt_residual <= 1e-9
        # first block row: (nu*, v) + b(w*, v) = 0
        r1 = G @ adj.nu_star.coefficients + B @ adj.w_star.coefficients[: test.n_trial]
        assert np.abs(r1).max() <= 1e-9 * scale
        # second block row: b(w, nu*) = q(w) for every trial basis w
        r2 = B.T @ adj.nu_star.coefficients - q_trial
        assert np.abs(r2).max() <= 1e-9 * scale
        # residual representation: (eps*, v)_G = q(v) - b(v, nu*)
        r3 = G @ eps_star.coefficients - (q_test - B_full.T @ adj.nu_star.coefficients)
        assert np.abs(r3).max() <= 1e-9 * scale

    def test_shared_factorization_identical(self, goal_setup):
        test, G, B, B_full, q_test = goal_setup
        # a factorization that already served another solve gives the fresh answer
        factor = SaddleFactorization(G, B)
        adjoint_solves(G, B, B_full, np.zeros(test.dim), test, factor)
        shared, shared_eps, _ = adjoint_solves(G, B, B_full, q_test, test, factor)
        fresh, fresh_eps, _ = adjoint_solves(G, B, B_full, q_test, test)
        assert np.abs(fresh.nu_star.coefficients - shared.nu_star.coefficients).max() < 1e-12
        assert np.abs(fresh_eps.coefficients - shared_eps.coefficients).max() < 1e-12

    def test_gram_solve_gated(self, goal_setup, monkeypatch):
        test, G, B, B_full, q_test = goal_setup
        *_, gram = adjoint_solves(G, B, B_full, q_test, test)
        assert gram.fallbacks == 0
        # no residual passes a zero gate: the Gram solve falls back once to the pivoted LU of G
        monkeypatch.setattr(bubblefem.solvers, "REFINE_TOL", 0.0)
        adj, eps_star, gram = adjoint_solves(G, B, B_full, q_test, test)
        assert gram.fallbacks == 1
        assert "_pivoted_lu" in vars(gram)
        # reference: COLAMD LU of G, refined against G to roundoff
        rhs = q_test - B_full.T @ adj.nu_star.coefficients
        A = sp.csc_matrix(G)
        lu = spla.splu(A)
        x = lu.solve(rhs)
        for _ in range(3):
            x += lu.solve(rhs - A @ x)
        assert np.linalg.norm(eps_star.coefficients - x) <= 1e-10 * np.linalg.norm(x)

    def test_eps_star_is_gram_solve(self, goal_setup):
        test, G, B, B_full, q_test = goal_setup
        adj, eps_star, _ = adjoint_solves(G, B, B_full, q_test, test)
        ref = spla.spsolve(sp.csc_matrix(G), q_test - B_full.T @ adj.nu_star.coefficients)
        assert np.linalg.norm(eps_star.coefficients - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_saddle_factor_holds_no_gram_factor(self, goal_setup):
        test, G, B, *_ = goal_setup
        factor = SaddleFactorization(G, B)
        assert not hasattr(factor, "gram") and not hasattr(factor, "G")


@pytest.fixture
def factor_calls(monkeypatch):
    """(label, symmetric) of every factorization bubblefem.solvers builds."""
    calls = []
    original = bubblefem.solvers._factorize

    def spy(matrix, label, symmetric=False, order=None):
        calls.append((label, symmetric))
        return original(matrix, label, symmetric, order)

    monkeypatch.setattr(bubblefem.solvers, "_factorize", spy)
    return calls


def test_pivoted_factor_relaxes_supernodes_to_one(monkeypatch):
    """The pivoted COLAMD LU runs with relax=1 like every other factor (the
    loops' spy in test_adapt covers the unpivoted ones): on exp2's B_full
    (mu_0 = 0) at 5k-41k test DoFs it took 0.94-1.07 times the default's
    median time, with no consistent direction, so one setting serves every
    call."""
    relaxes = []
    splu = bubblefem.solvers.splu

    def spy(matrix, relax=None, **options):
        relaxes.append(relax)
        return splu(matrix, relax=relax, **options)

    monkeypatch.setattr(bubblefem.solvers, "splu", spy)
    A = sp.csr_matrix(np.array([[4.0, -1, 0, -1], [-1, 4, -1, 0], [0, -1, 4, -1], [-1, 0, -1, 4]]))
    lu = bubblefem.solvers._factorize(A, "laplacian")
    assert np.allclose(A @ lu.solve(np.ones(4)), 1.0)
    assert relaxes == [1]


def enriched_system(bench, p, k, generations):
    """The tables, B_full and the load of bench at (p, k) on its initial mesh refined
    ``generations`` times around the middle of the domain."""
    from bubblefem import refine
    from dataclasses import replace

    data = replace(bench.data, penalty_order=k)
    m = bench.initial_mesh()
    for _ in range(generations):
        c = m.vertices[m.cells].mean(axis=1)
        m = refine(m, np.flatnonzero(np.abs(c - 0.5).max(axis=1) < 0.25))
    tables = FormTables(build_space(m, enriched(p, k)), data)
    return tables, assemble_stabilized(tables), assemble_load(tables)


ENRICHED = "enriched stabilized operator"


class TestCipEnriched:
    def test_manufactured_linear(self, setup):
        m, tables, test, _, _, load = setup
        theta, _ = solve_cip_enriched(assemble_stabilized(tables), load, tables)
        exact = m.vertices[:, 0] + m.vertices[:, 1]
        assert np.abs(theta.coefficients[: test.n_trial] - exact).max() < 1e-10
        assert np.abs(theta.coefficients[test.n_trial :]).max() < 1e-9

    def test_zero_data(self, setup):
        _, tables, test, _, _, _ = setup
        theta, _ = solve_cip_enriched(assemble_stabilized(tables), np.zeros(test.dim), tables)
        assert not theta.coefficients.any()

    def test_residual_small(self, setup):
        _, tables, _, _, _, load = setup
        B_full = assemble_stabilized(tables)
        theta, _ = solve_cip_enriched(B_full, load, tables)
        r = B_full @ theta.coefficients - load
        assert np.abs(r).max() <= 1e-9 * (1.0 + np.abs(load).max())

    @pytest.mark.parametrize("p, k", [(1, 3), (2, 4)], ids=["p1k3", "p2k4"])
    def test_unpivoted_matches_refined_pivoted_lu(self, p, k, factor_calls):
        from bubblefem import experiment1

        tables, B_full, load = enriched_system(experiment1(0.01), p, k, 2)
        assert tables.data.reaction_floor > 0.0
        theta, factor = solve_cip_enriched(B_full, load, tables)
        # one unpivoted factor, and no pivoted LU behind it
        assert factor_calls == [(ENRICHED, True)]
        assert factor.fallbacks == 0
        r = np.abs(B_full @ theta.coefficients - load).max()
        assert r <= bubblefem.solvers.REFINE_TOL * (1.0 + np.abs(load).max())
        # reference: COLAMD LU of B_full, refined against B_full to roundoff
        A = sp.csc_matrix(B_full)
        lu = spla.splu(A)
        x = lu.solve(load)
        for _ in range(3):
            x += lu.solve(load - A @ x)
        assert np.linalg.norm(theta.coefficients - x) <= 1e-10 * np.linalg.norm(x)

    def test_failed_gate_falls_back_once(self, monkeypatch, factor_calls):
        from bubblefem import experiment1

        tables, B_full, load = enriched_system(experiment1(0.01), 1, 3, 1)
        monkeypatch.setattr(bubblefem.solvers, "REFINE_TOL", 0.0)
        theta, factor = solve_cip_enriched(B_full, load, tables)
        assert factor_calls == [(ENRICHED, True), (ENRICHED, False)]
        assert factor.fallbacks == 1
        r = np.abs(B_full @ theta.coefficients - load).max()
        assert r <= 1e-9 * (1.0 + np.abs(load).max())

    def test_zero_pivot_falls_back(self, monkeypatch, setup):
        _, tables, _, _, _, load = setup
        B_full = assemble_stabilized(tables)
        original = bubblefem.solvers._factorize

        def singular_unpivoted(matrix, label, symmetric=False, order=None):
            if symmetric:
                raise SolverError(f"{label} factorization failed: zero pivot")
            return original(matrix, label, symmetric, order)

        monkeypatch.setattr(bubblefem.solvers, "_factorize", singular_unpivoted)
        theta, factor = solve_cip_enriched(B_full, load, tables)
        assert factor.fallbacks == 1
        r = np.abs(B_full @ theta.coefficients - load).max()
        assert r <= 1e-9 * (1.0 + np.abs(load).max())

    def test_no_unpivoted_factor_without_reaction_floor(self, factor_calls):
        from bubblefem import experiment2

        tables, B_full, load = enriched_system(experiment2(), 2, 4, 1)
        assert tables.data.reaction_floor == 0.0
        theta, factor = solve_cip_enriched(B_full, load, tables)
        assert factor_calls == [(ENRICHED, False)]
        assert factor.fallbacks == 0
        r = np.abs(B_full @ theta.coefficients - load).max()
        assert r <= 1e-9 * (1.0 + np.abs(load).max())


@pytest.mark.parametrize("p, k", [(1, 3), (2, 4), (3, 5)], ids=["p1k3", "p2k4", "p3k5"])
@pytest.mark.parametrize("bench_name", ["experiment1", "experiment2"])
def test_saddle_matrix_gathered_exactly(bench_name, p, k):
    """K_delta gathered from G and the trial block has the CSC arrays of the
    sp.bmat construction bit for bit, and the factor keeps it as K: the
    same arrays with the trial block's diagonal zeroed."""
    import bubblefem

    tables, B_full, _ = enriched_system(getattr(bubblefem, bench_name)(), p, k, 2)
    n_test, n_trial = tables.space.dim, tables.space.n_trial
    G = assemble_gram(tables)
    B = B_full[:, :n_trial]
    delta = bubblefem.solvers.DELTA_SCALE * G.diagonal().max()
    oracle = sp.bmat([[G, B], [B.T, -delta * sp.identity(n_trial)]], format="csc")
    K = bubblefem.solvers._saddle_matrix(G, B, delta)
    for name in ("indptr", "indices", "data"):
        assert getattr(K, name).dtype == getattr(oracle, name).dtype
        assert np.array_equal(getattr(K, name), getattr(oracle, name))
    columns = np.repeat(np.arange(n_test + n_trial), np.diff(oracle.indptr))
    oracle.data[(oracle.indices == columns) & (columns >= n_test)] = 0.0
    factor = SaddleFactorization(G, B)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(factor.A, name), getattr(oracle, name))


def test_assembly_transient_memory():
    """Traced peaks of the pattern build and of K_delta's gather on uniform
    p2k4 at n = 16 (2,625 test DoFs), the tables built beforehand.  The
    pattern peaks at 2.31 times the bytes of G + B_full (4.34 with J's
    COO concatenated in int64 and all facets' local matrices held), the
    gather at 1.45 times K_delta's bytes above what was live (2.28 through
    ``sp.bmat``).  The bounds leave about 17 % on each."""
    import tracemalloc
    from dataclasses import replace

    from bubblefem import experiment1, refine

    bench = experiment1(0.5)
    mesh = bench.initial_mesh()
    for _ in range(2):  # one uniform step of the loop: n = 8 -> 16
        mesh = refine(mesh, np.arange(len(mesh.cells)))
    tables = FormTables(build_space(mesh, enriched(2, 4)), replace(bench.data, penalty_order=4))
    assert tables.space.dim == 2625
    tables.volume_basis, tables.coefficients, tables.boundary, tables.interior

    def traced_peak(build):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            result = build()
            return result, tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    def size(A):
        return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes

    _, pattern_peak = traced_peak(lambda: tables.pattern)
    G, B_full = assemble_gram(tables), assemble_stabilized(tables)
    B = B_full[:, : tables.space.n_trial]
    delta = bubblefem.solvers.DELTA_SCALE * G.diagonal().max()
    K, gather_peak = traced_peak(lambda: bubblefem.solvers._saddle_matrix(G, B, delta))
    assert pattern_peak <= 2.7 * (size(G) + size(B_full))
    assert gather_peak <= 1.7 * size(K)


@pytest.mark.parametrize("p, k", [(1, 3), (2, 4)], ids=["p1k3", "p2k4"])
def test_enriched_solve_on_saddle_order(p, k):
    """theta_h on K_delta's elimination order restricted to the test DoFs,
    the loop's order for B_full, matches the refined pivoted LU, and the
    factor fills about as much as on B_full's own minimum-degree ordering
    (the benchmark loops: -2.4 % to +1.4 % per factor).  argsort(perm_c)
    is that order; reading perm_c itself as one filled 5-10 times more."""
    from bubblefem import experiment1
    from bubblefem.solvers import _factorize

    tables, B_full, load = enriched_system(experiment1(0.01), p, k, 2)
    order = SaddleFactorization(assemble_gram(tables),
                                B_full[:, : tables.space.n_trial]).test_order
    theta, factor = solve_cip_enriched(B_full, load, tables, order)
    assert factor.fallbacks == 0
    A = sp.csc_matrix(B_full)
    lu = spla.splu(A)
    x = lu.solve(load)
    for _ in range(3):
        x += lu.solve(load - A @ x)
    assert np.linalg.norm(theta.coefficients - x) <= 1e-10 * np.linalg.norm(x)
    own = _factorize(B_full, ENRICHED, symmetric=True)
    restricted = _factorize(B_full, ENRICHED, symmetric=True, order=order).lu
    assert restricted.L.nnz + restricted.U.nnz <= 1.05 * (own.L.nnz + own.U.nnz)


@pytest.mark.parametrize("operator", ["B_full", "G"])
def test_second_factor_permuted_in_one_pass(monkeypatch, operator):
    """The second factor's P A P^T -- rows gathered in the order, column
    indices relabelled, converted to CSC once -- reaches SuperLU with the
    arrays of ``csc_matrix(A[order][:, order])``, for the nonsymmetric
    B_full and the symmetric G."""
    from bubblefem import experiment2
    from bubblefem.solvers import _factorize

    tables, B_full, _ = enriched_system(experiment2(), 1, 3, 2)
    G = assemble_gram(tables)
    order = SaddleFactorization(G, B_full[:, : tables.space.n_trial]).test_order
    A = {"B_full": B_full, "G": G}[operator]
    assert ((A != A.T).nnz > 0) == (operator == "B_full")
    received = []
    splu = bubblefem.solvers.splu

    def spy(matrix, **options):
        received.append(matrix)
        return splu(matrix, **options)

    monkeypatch.setattr(bubblefem.solvers, "splu", spy)
    _factorize(A, operator, symmetric=True, order=order)
    oracle = sp.csc_matrix(A[order][:, order])
    (matrix,) = received
    assert matrix.format == "csc"
    for name in ("indptr", "indices", "data"):
        assert getattr(matrix, name).dtype == getattr(oracle, name).dtype
        assert np.array_equal(getattr(matrix, name), getattr(oracle, name))


def _nan_saddle(request):
    _, _, test, G, B, load = request.getfixturevalue("setup")
    solve_saddle(SaddleFactorization(G, B), np.r_[np.nan, load[1:]], test)


def _nan_adjoint(request):
    # NaN only in the bubble entries of q: the saddle solve reads the finite
    # trial block, so only the Gram solve sees it
    test, G, B, B_full, q_test = request.getfixturevalue("goal_setup")
    q = np.r_[q_test[: test.n_trial], np.full(test.dim - test.n_trial, np.nan)]
    adjoint_solves(G, B, B_full, q, test)


def _nan_enriched(request):
    _, tables, _, _, _, load = request.getfixturevalue("setup")
    solve_cip_enriched(assemble_stabilized(tables), np.r_[np.nan, load[1:]], tables)


@pytest.mark.parametrize("solve, operator", [(_nan_saddle, "saddle system"),
                                             (_nan_adjoint, "gram"),
                                             (_nan_enriched, "enriched stabilized operator")],
                         ids=["saddle", "adjoint-gram", "enriched"])
def test_non_finite_solve_names_its_operator(request, solve, operator):
    # RefinedFactor.refined_solve is the one finiteness check of every system
    with pytest.raises(SolverError, match=f"^{operator} has a non-finite solution or residual$"):
        solve(request)
