import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from bubblefem import (
    DiscreteFunction,
    FormTables,
    Mesh,
    ProblemData,
    Rectangle,
    assemble_gram,
    assemble_load,
    assemble_mass,
    assemble_qoi,
    assemble_stabilized,
    build_space,
    build_structured_mesh,
    enriched,
    error_norms,
    experiment1,
    experiment2,
    inject_trial,
    refine,
    solve_cip_enriched,
    trial_lagrange,
    write_matrix_market,
)
from bubblefem.forms import _kept_rows, cell_quadrature, facet_degree, volume_degree
from bubblefem.reference import edge_rule, triangle_rule


def const(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


def const_field(vec):
    return lambda x: np.tile(vec, (len(np.atleast_2d(x)), 1))


def rotating_field(x):
    x = np.atleast_2d(x)
    return np.column_stack([x[:, 1] - 0.5, 0.5 - x[:, 0]])


def make_data(velocity, mu=1.0, source=None, g=None, k_pen=3, **kw):
    zero = const(0.0)
    return ProblemData(
        velocity=velocity,
        reaction=const(mu),
        source=source or zero,
        inflow_data=g or zero,
        reaction_floor=mu,
        penalty_order=k_pen,
        **kw,
    )


def assemble_advection(tables):
    """Adjoint-form advection block: -(v, b . grad w)."""
    import bubblefem.forms as forms

    return forms._scatter(forms._advection_local(tables), tables.space.cell_dofs, tables.space.dim)


class TestStabilizedOperator:
    def test_single_cell_has_no_jump_term(self):
        import bubblefem

        m = bubblefem.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
        space = build_space(m, trial_lagrange(1))
        data = make_data(const_field([1.0, 0.0]))
        J = FormTables(space, data).jump_penalty
        assert J.nnz == 0

    def test_two_cell_matrix_against_symbolic_oracle(self):
        # independent symbolic integration of every term of the form on the
        # two-triangle unit square with b=(1,0), mu=1, alpha=3.5, k_pen=3
        import sympy as sym

        x, y = sym.symbols("x y")
        verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        tris = [(0, 1, 3), (0, 3, 2)]  # matches build_structured_mesh(1)

        def affine_basis(tri):
            funcs = []
            pts = [verts[v] for v in tri]
            for i in range(3):
                a, b, c = sym.symbols("a b c")
                phi = a + b * x + c * y
                eqs = [phi.subs({x: px, y: py}) - (1 if j == i else 0)
                       for j, (px, py) in enumerate(pts)]
                sol = sym.solve(eqs, (a, b, c))
                funcs.append(phi.subs(sol))
            return funcs

        def integrate_t0(expr):  # triangle (0,0),(1,0),(1,1): 0<=y<=x<=1
            return sym.integrate(sym.integrate(expr, (y, 0, x)), (x, 0, 1))

        def integrate_t1(expr):  # triangle (0,0),(1,1),(0,1): 0<=x<=y<=1
            return sym.integrate(sym.integrate(expr, (y, x, 1)), (x, 0, 1))

        basis = [affine_basis(t) for t in tris]
        integrators = [integrate_t0, integrate_t1]
        # global hat function per vertex, per cell
        cellphi = [dict(zip(tris[c], basis[c])) for c in range(2)]

        A = sym.zeros(4, 4)
        for c in range(2):
            for i in tris[c]:  # test
                for j in tris[c]:  # trial
                    phi_i, phi_j = cellphi[c][i], cellphi[c][j]
                    vol = phi_j * phi_i - phi_j * sym.diff(phi_i, x)  # mu=1, b=(1,0)
                    A[i, j] += integrators[c](vol)
        # outflow boundary x=1 (b.n = 1), owned by cell 0
        for i in tris[0]:
            for j in tris[0]:
                expr = (cellphi[0][j] * cellphi[0][i]).subs(x, 1)
                A[i, j] += sym.integrate(expr, (y, 0, 1))
        # jump across the diagonal: n_e = (-1, 1)/sqrt(2) (outward from cell 0),
        # gamma = h_e^2/3^3.5 * |b.n_e|, h_e = sqrt(2), |b.n_e| = 1/sqrt(2)
        gamma = 2 / sym.Rational(3) ** sym.Rational(7, 2) / sym.sqrt(2)
        ne = (-1 / sym.sqrt(2), 1 / sym.sqrt(2))

        def normal_jump(i):
            out = 0
            for c, sign in ((0, 1), (1, -1)):
                phi = cellphi[c].get(i, sym.Integer(0))
                out += sign * (sym.diff(phi, x) * ne[0] + sym.diff(phi, y) * ne[1])
            return out

        edge_len = sym.sqrt(2)
        for i in range(4):
            for j in range(4):
                A[i, j] += gamma * normal_jump(j) * normal_jump(i) * edge_len

        expected = np.array(A.evalf(17).tolist(), dtype=float)

        m = build_structured_mesh(1)
        space = build_space(m, trial_lagrange(1))
        data = make_data(const_field([1.0, 0.0]))
        got = assemble_stabilized(FormTables(space, data)).toarray()
        assert np.abs(got - expected).max() < 1e-12

    def test_jump_vanishes_for_global_linear(self):
        # the refined mesh has cells of different shapes, so the jumps of
        # 2x - y vanish only if every cell pulls its gradients back right
        for m, p, k in (
            (build_structured_mesh(3), 1, 3),
            (refine(build_structured_mesh(2), [0, 1, 4]), 2, 4),
        ):
            test = build_space(m, enriched(p, k))
            trial = build_space(m, trial_lagrange(p))
            J = FormTables(test, make_data(const_field([1.0, 0.5]), k_pen=k)).jump_penalty
            # nodal interpolant: vertex values, then edge midpoints for p = 2
            nodes = m.vertices
            if p == 2:
                nodes = np.vstack([nodes, m.vertices[m.edges].mean(axis=1)])
            v = inject_trial(DiscreteFunction(trial, nodes @ [2.0, -1.0]), test)
            assert abs(v.coefficients @ (J @ v.coefficients)) < 1e-13

    def test_jump_vanishes_for_smooth_polynomial(self):
        # globally C^1 piecewise polynomial of degree <= min(p, k) is a
        # global polynomial; its normal-gradient jumps vanish
        from bubblefem import l2_project

        m = build_structured_mesh(3)
        space = build_space(m, trial_lagrange(2))
        data = make_data(const_field([1.0, 0.5]))
        quad = lambda pts: np.atleast_2d(pts)[:, 0] ** 2 + np.atleast_2d(pts)[:, 0] * np.atleast_2d(pts)[:, 1]
        v = l2_project(quad, space)
        J = FormTables(space, data).jump_penalty
        assert abs(v.coefficients @ (J @ v.coefficients)) < 1e-13

    def test_reaction_floor_violation_rejected(self):
        m = build_structured_mesh(2)
        space = build_space(m, trial_lagrange(1))
        data = ProblemData(
            velocity=const_field([1.0, 0.0]),
            reaction=const(0.5),
            source=const(0.0),
            inflow_data=const(0.0),
            reaction_floor=1.0,
            penalty_order=3,
        )
        with pytest.raises(ValueError):
            assemble_stabilized(FormTables(space, data))

    def test_reaction_evaluated_once_per_call(self):
        # the floor check and the mass weight read the same evaluation
        calls = []

        def reaction(x):
            calls.append(len(x))
            return np.ones(len(x))

        m = build_structured_mesh(2)
        trial = build_space(m, trial_lagrange(1))
        test = build_space(m, enriched(1, 3))
        data = make_data(const_field([1.0, 0.0]))
        data.reaction = reaction
        assemble_stabilized(FormTables(trial, data))
        assert len(calls) == 1
        assemble_stabilized(FormTables(test, data))
        assert len(calls) == 2


class TestGram:
    def test_spd_on_goal_benchmark_mesh(self):
        bench = experiment2()
        m = build_structured_mesh(2)
        from dataclasses import replace

        data = replace(bench.data, penalty_order=3)
        test = build_space(m, enriched(1, 3))
        G = assemble_gram(FormTables(test, data))
        assert abs(G - G.T).max() == 0.0
        eigs = np.linalg.eigvalsh(G.toarray())
        assert eigs.min() > 0.0

    @pytest.mark.parametrize("p, k", [(p, k) for p in (1, 2, 3) for k in range(1, 8)
                                      if k > max(p, 2) or k <= p])
    def test_spd_for_every_admissible_degree_pair(self, p, k):
        # for p = 3 the cubic bubble lies in P_p; the enrichment must leave it out
        m = refine(build_structured_mesh(2), [0, 3])
        data = replace(experiment1(0.5).data, penalty_order=k)
        G = assemble_gram(FormTables(build_space(m, enriched(p, k)), data))
        eigs = np.linalg.eigvalsh(G.toarray())
        assert eigs.min() / eigs.max() > 1e-14

    def test_induces_energy_norm(self):
        bench = experiment1(0.5)
        from dataclasses import replace

        data = replace(bench.data, penalty_order=3, gram_weight=bench.data.reaction_floor)
        m = build_structured_mesh(4)
        test = build_space(m, enriched(1, 3))
        tables = FormTables(test, data)
        G = assemble_gram(tables)
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.standard_normal(test.dim)
            fn = DiscreteFunction(test, v)
            [rep] = error_norms([fn], const(0.0), tables)
            triple = rep.triple
            gram = np.sqrt(v @ (G @ v))
            assert abs(triple - gram) < 1e-12 * gram

    def test_zero_velocity_reduces_to_scaled_mass(self):
        m = build_structured_mesh(2)
        test = build_space(m, enriched(1, 3))
        data = make_data(const_field([0.0, 0.0]), gram_weight=2.0)
        G = assemble_gram(FormTables(test, data))
        M = assemble_mass(test)
        assert abs(G - 2.0 * M).max() < 1e-14

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            make_data(const_field([1.0, 0.0]), gram_weight=-1.0)

    @pytest.mark.parametrize("field, value", [("gram_weight", math.nan),
                                              ("gram_weight", math.inf),
                                              ("penalty_exponent", math.nan),
                                              ("penalty_exponent", math.inf)])
    def test_rejects_non_finite_weights(self, field, value):
        data = make_data(const_field([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            replace(data, **{field: value})

    @pytest.mark.parametrize("field, value", [("reaction_floor", math.nan),
                                              ("reaction_floor", math.inf),
                                              ("reaction_floor", -1.0),
                                              ("penalty_order", 0),
                                              ("penalty_order", -2),
                                              ("penalty_order", 2.0),
                                              ("penalty_order", True)])
    def test_rejects_bad_floor_or_penalty_order(self, field, value):
        # a NaN floor would pass the floor check, order 0 divides by zero and
        # a negative order makes the penalty weight complex
        data = make_data(const_field([1.0, 0.0]))
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            replace(data, **{field: value})


def coo_plus_sum(tables):
    """G and B_full as every term's own COO -> CSR scatter, added as sparse
    matrices; each sparse + drops the exact zeros of its sum."""
    import bubblefem.forms as forms

    dim = tables.space.dim
    weights, jump, dofs = tables.interior
    J = forms._scatter(forms._facet_local(weights, jump), dofs, dim)
    (mass_w, _, cell_dofs, _), (boundary_w, *_), _ = tables.energy_terms
    basis, degree = tables.space.local_basis, tables.degree
    G = forms._scatter(forms._mass_local(basis, degree, mass_w), cell_dofs, dim)
    G = G + tables.boundary_matrix(boundary_w) + J
    G = 0.5 * (G + G.T)
    pts, w = forms.cell_quadrature(tables.space.mesh, tables.volume_rule)
    mu = tables.data.reaction(pts.reshape(-1, 2)).reshape(w.shape)
    _, bw, bn, _, _ = tables.boundary
    B_full = forms._scatter(forms._mass_local(basis, degree, w * mu), cell_dofs, dim)
    B_full = B_full + assemble_advection(tables) + tables.boundary_matrix(bw * np.maximum(bn, 0.0))
    return J, G, B_full + J


def oracle_pattern(tables):
    """The pattern by the concatenating construction: J's COO as int64 cell
    blocks, then every facet's full local matrices, concatenated; each
    (row, column) key's slot by ``np.unique`` and J's data summed per slot
    in COO order, the order of ``np.bincount``."""
    import bubblefem.forms as forms

    cd = tables.space.cell_dofs
    cells, m = cd.shape
    dim = tables.space.dim
    rows, cols = np.repeat(cd, m, axis=1).ravel(), np.tile(cd, m).ravel()
    weights, jump, dofs = tables.interior
    local = forms._facet_local(weights, jump)
    own = np.zeros(cells * m * m)
    for side, block in zip(tables.space.mesh.interior_sides.T // 3,
                           (local[:, :m, :m], local[:, m:, m:])):
        slots = side[:, None] * (m * m) + np.arange(m * m)
        own += np.bincount(slots.ravel(), block.ravel(), len(own))
    cross, cross_t = local[:, :m, m:], local[:, m:, :m].transpose(0, 2, 1)
    nonzero = (cross != 0.0) | (cross_t != 0.0)
    plus = np.broadcast_to(dofs[:, :m, None], cross.shape)[nonzero]
    minus = np.broadcast_to(dofs[:, None, m:], cross.shape)[nonzero]
    keys = np.concatenate([rows, plus, minus]) * dim + np.concatenate([cols, minus, plus])
    unique, slots = np.unique(keys, return_inverse=True)
    values = np.concatenate([own, cross[nonzero], cross_t[nonzero]])
    key_rows, indices = np.divmod(unique, dim)
    return forms.Pattern(
        indptr=np.searchsorted(key_rows, np.arange(dim + 1)).astype(np.int32),
        indices=indices.astype(np.int32),
        cell_slots=slots[: len(rows)].reshape(cells, -1).astype(np.int32),
        transpose=np.searchsorted(unique, indices * dim + key_rows).astype(np.int32),
        jump=np.bincount(slots, values, len(unique)))


# the pattern's cases: enriched(2, 2) has no bubble block
PATTERN_CASES = ["uniform-p2k4", "uniform-p2k2", "graded-p1k3", "graded-p3k5", "one-cell"]


def pattern_tables(case):
    """Tables of exp1 on its n = 8 grid, of a graded exp2 mesh, both at the
    case's (p, k), or of one p2k4 cell."""
    import bubblefem

    if case == "one-cell":
        mesh = bubblefem.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
        return FormTables(build_space(mesh, enriched(2, 4)), make_data(const_field([1.0, 0.0]), k_pen=4))
    mesh_kind, degrees = case.split("-")
    p, k = int(degrees[1]), int(degrees[3])
    if mesh_kind == "uniform":
        bench = experiment1(0.5)
        mesh = bench.initial_mesh()
    else:
        bench = experiment2()
        mesh = bench.initial_mesh()
        for _ in range(4):  # graded towards the lower left corner
            mesh = refine(mesh, np.flatnonzero(mesh.vertices[mesh.cells].mean(axis=1).sum(axis=1) < 0.5))
    return FormTables(build_space(mesh, enriched(p, k)), replace(bench.data, penalty_order=k))


class TestPattern:
    def test_operators_store_no_exact_zero(self):
        """On the uniform p2k4 loop's first space J's facet blocks couple DoF
        pairs whose normal-gradient jumps vanish exactly.  G and B_full must
        not store those zeros: kept as entries on the n = 32 mesh they raised
        K_delta's fill from 3.76M to 12.2M and its factor from 0.35 to 3.6 s.
        Their patterns equal the scatter-and-add construction's."""
        bench = experiment1(0.5)
        tables = FormTables(build_space(bench.initial_mesh(), enriched(2, 4)),
                            replace(bench.data, penalty_order=4))
        J, *oracles = coo_plus_sum(tables)
        assert J.nnz > np.count_nonzero(J.data)  # the zeros this test guards against
        G = assemble_gram(tables)
        assert (G != G.T).nnz == 0
        assert len(tables.pattern.indices) == G.nnz  # the pattern holds no zero coupling either
        for A, oracle in zip((G, assemble_stabilized(tables)), oracles):
            assert A.nnz == np.count_nonzero(A.data)
            assert np.array_equal(A.indptr, oracle.indptr)
            assert np.array_equal(A.indices, oracle.indices)
            assert np.abs(A.data - oracle.data).max() <= 1e-14 * np.abs(oracle.data).max()

    @pytest.mark.parametrize("block_bytes", [1, 20000, None], ids=["one-facet", "few-facets", "default"])
    @pytest.mark.parametrize("case", PATTERN_CASES)
    def test_arrays_equal_concatenating_construction(self, monkeypatch, case, block_bytes):
        """Every array of the pattern equals the concatenating construction's
        bit for bit, and its index arrays are int32, whether the facets'
        local matrices are formed one facet at a time, a few at a time (7
        at p2k4, 39 at p1k3) or in the default blocks (one block on these
        meshes, so a cell meets up to three of its facets in a block)."""
        import bubblefem.forms as forms

        if block_bytes is not None:
            monkeypatch.setattr(forms, "_FACET_BLOCK_BYTES", block_bytes)
        tables = pattern_tables(case)
        pattern, oracle = tables.pattern, oracle_pattern(tables)
        for name in ("indptr", "indices", "cell_slots", "transpose", "jump"):
            assert getattr(pattern, name).dtype == getattr(oracle, name).dtype
            assert np.array_equal(getattr(pattern, name), getattr(oracle, name))
        for name in ("indptr", "indices", "cell_slots", "transpose"):
            assert getattr(pattern, name).dtype == np.int32
        assert (np.count_nonzero(pattern.jump) == 0) == (case == "one-cell")

    @pytest.mark.parametrize("case", PATTERN_CASES)
    def test_arrays_hold_no_dead_buffer(self, case):
        """The counting passes run in buffers the size of J's COO, which has
        duplicates: on uniform p2k4 at n = 32, 520,192 entries behind a
        303,617-entry pattern.  Each array of the pattern owns its data or is
        a view of a buffer of its own size."""
        pattern = pattern_tables(case).pattern
        for name in ("indptr", "indices", "cell_slots", "transpose", "jump"):
            array = getattr(pattern, name)
            assert array.base is None or array.base.nbytes == array.nbytes, name

    @pytest.mark.parametrize("case", PATTERN_CASES)
    def test_operators_hold_the_pattern_index_arrays(self, case):
        """G, B_full and J hold the pattern's read-only indptr and indices,
        not copies, unless their data holds an exact zero, which they drop
        from copies: J's does on these meshes except at p2k2."""
        tables = pattern_tables(case)
        pattern = tables.pattern
        operators = {"G": assemble_gram(tables), "B_full": assemble_stabilized(tables),
                     "J": tables.jump_penalty}
        for label, A in operators.items():
            shared = label != "J" or case == "uniform-p2k2"
            assert (A.nnz == len(pattern.indices)) == shared, label
            for name in ("indptr", "indices"):
                assert np.shares_memory(getattr(A, name), getattr(pattern, name)) == shared
                assert getattr(A, name).flags.writeable != shared

    def test_built_without_sort_or_lookup(self, monkeypatch):
        """Building the pattern neither sorts a row (``csr_sort_indices``)
        nor looks a slot up by its key (``csr_sample_values``)."""
        import scipy.sparse._compressed
        import scipy.sparse._csr
        import scipy.sparse._sparsetools

        called = []

        def spy(name, kernel):
            def call(*args):
                called.append(name)
                return kernel(*args)
            return call

        for module in (scipy.sparse._sparsetools, scipy.sparse._compressed, scipy.sparse._csr):
            for name in ("csr_sort_indices", "csr_sample_values"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        # the spies see scipy's own conversion and lookup
        J = sp.coo_matrix((np.ones(3), ([0, 0, 0], [2, 1, 2])), shape=(3, 3)).tocsr()
        J[[0], [1]]
        assert set(called) == {"csr_sort_indices", "csr_sample_values"}
        called.clear()
        for case in PATTERN_CASES:
            assert len(pattern_tables(case).pattern.indices)
        assert called == []


class TestCountingKernels:
    """scipy's private ``_sparsetools`` kernels as ``FormTables.pattern``
    calls them, so that a scipy release that changes them fails here."""

    def test_passes_bucket_stably_by_column_then_row(self):
        from bubblefem.forms import coo_tocsr, csr_tocsc

        # duplicates of (2, 1), (0, 3) and (0, 0); row 1 is empty
        rows = np.array([2, 0, 3, 0, 2, 3, 0, 2, 0], np.int32)
        cols = np.array([1, 3, 0, 3, 1, 2, 0, 0, 0], np.int32)
        dim, size = 4, len(rows)
        by_col, row_starts = np.empty(dim + 1, np.int32), np.empty(dim + 1, np.int32)
        col_rows, col_entries = np.empty(size, np.int32), np.empty(size, np.int32)
        coo_tocsr(dim, dim, size, cols, rows, np.arange(size, dtype=np.int32),
                  by_col, col_rows, col_entries)
        assert np.array_equal(col_entries, np.argsort(cols, kind="stable"))
        assert np.array_equal(col_rows, rows[col_entries])
        assert np.array_equal(by_col, np.searchsorted(np.sort(cols), np.arange(dim + 1)))
        # the second pass writes into views of larger buffers, as into J's COO
        row_cols, entries = np.full(size + 2, -1, np.int32), np.full(size + 2, -1, np.int32)
        csr_tocsc(dim, dim, by_col, col_rows, col_entries, row_starts, row_cols[:size],
                  entries[:size])
        # each row's entries by column, each column's duplicates in COO order
        assert np.array_equal(entries[:size], np.lexsort((np.arange(size), cols, rows)))
        assert np.array_equal(row_cols[:size], cols[entries[:size]])
        assert (row_cols[size:] == -1).all() and (entries[size:] == -1).all()
        assert np.array_equal(row_starts, np.searchsorted(np.sort(rows), np.arange(dim + 1)))
        for array in (by_col, col_rows, col_entries, row_starts, row_cols, entries):
            assert array.dtype == np.int32
        # with its duplicates merged, the structure is scipy's conversion's
        sorted_rows = rows[entries[:size]]
        first = np.r_[True, (np.diff(sorted_rows) != 0) | (np.diff(row_cols[:size]) != 0)]
        J = sp.coo_matrix((np.ones(size), (rows, cols)), shape=(dim, dim)).tocsr()
        assert np.array_equal(row_cols[:size][first], J.indices)
        assert np.array_equal(np.searchsorted(sorted_rows[first], np.arange(dim + 1)), J.indptr)
        assert np.array_equal(np.bincount(np.cumsum(first) - 1), J.data)


# every admissible (p, k) with k <= 5
ADMISSIBLE = [(p, k) for p in (1, 2, 3) for k in range(1, 6) if k > max(p, 2) or k <= p]
# exp1's field is not polynomial, and the facet_degree edge rule leaves a
# boundary quadrature gap of -7e-11 to -3e-7 max|G| on the graded mesh at every
# other (p, k): the open boundary-rule item of the roadmap
EXP1_COERCIVE = {(1, 4), (1, 5), (2, 5)}


class TestCoercivityAndSplit:
    def test_coercivity_random_vectors(self):
        bench = experiment1(0.5)
        from dataclasses import replace

        data = replace(bench.data, penalty_order=3, gram_weight=bench.data.reaction_floor)
        m = bench.initial_mesh()
        test = build_space(m, enriched(1, 3))
        tables = FormTables(test, data)
        G = assemble_gram(tables)
        B = assemble_stabilized(tables)
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = rng.standard_normal(test.dim)
            v /= np.linalg.norm(v)
            assert v @ (B @ v) >= v @ (G @ v) - 1e-10

    @staticmethod
    @functools.cache
    def graded_mesh():
        """The 3 x 3 grid with a random quarter of its cells refined, three times."""
        rng = np.random.default_rng(7)
        mesh = build_structured_mesh(3)
        for _ in range(3):
            mesh = refine(mesh, rng.choice(len(mesh.cells), len(mesh.cells) // 4, replace=False))
        return mesh

    @pytest.mark.parametrize("velocity, p, k", [
        *((field, p, k) for field in ("constant", "rotating") for p, k in ADMISSIBLE),
        *(pytest.param("exp1", p, k, marks=() if (p, k) in EXP1_COERCIVE else pytest.mark.xfail(
            strict=True, reason="boundary rule below the volume degree")) for p, k in ADMISSIBLE),
    ])
    def test_coercive_over_gram_by_dense_eigenvalues(self, velocity, p, k):
        """sym(B_full) - G >= 0 where mu - div(b)/2 >= sigma0: the unit
        reaction and weight with the divergence-free constant (1, 0.3) and
        rotating fields, and exp1's field with sigma0 = mu0.  Its smallest
        eigenvalue, not random vectors, is bounded, and G is SPD."""
        fields = {"constant": const_field([1.0, 0.3]), "rotating": rotating_field}
        if velocity == "exp1":
            data = experiment1(0.5).data
            data = replace(data, penalty_order=k, gram_weight=data.reaction_floor)
        else:
            data = make_data(fields[velocity], mu=1.0, k_pen=k, gram_weight=1.0)
        tables = FormTables(build_space(self.graded_mesh(), enriched(p, k)), data)
        G = assemble_gram(tables).toarray()
        B = assemble_stabilized(tables).toarray()
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() > 0.0
        assert np.linalg.eigvalsh(0.5 * (B + B.T) - G).min() >= -1e-12 * np.abs(G).max()

    @staticmethod
    def advection_and_signed_flux(test, velocity):
        """-(v, b.grad w) and (b.n v, w)_boundary as 2 ((b.n)^+ v, w) - (|b.n| v, w).

        The (b.n)^+ mass is the stabilized operator with zero reaction
        minus its advection and jump parts.
        """
        tables = FormTables(test, make_data(velocity, mu=0.0))
        Aadv = assemble_advection(tables)
        outflow = assemble_stabilized(tables) - Aadv - tables.jump_penalty
        _, w, bn, _, _ = tables.boundary
        return Aadv, 2.0 * outflow - tables.boundary_matrix(w * np.abs(bn))

    def test_advective_split_identity(self):
        # -(v, b.grad v) = -1/2 (b.n v, v)_boundary for divergence-free b;
        # exact under quadrature for the constant field and for the linear
        # rotating field, whose b.n changes sign inside 4 boundary facets
        rng = np.random.default_rng(13)
        for n, velocity in ((3, const_field([3.0, 1.0])), (7, rotating_field)):
            test = build_space(build_structured_mesh(n), enriched(1, 3))
            Aadv, signed = self.advection_and_signed_flux(test, velocity)
            for _ in range(20):
                v = rng.standard_normal(test.dim)
                v /= np.linalg.norm(v)
                assert abs(v @ (Aadv @ v) + 0.5 * (v @ (signed @ v))) < 1e-12

    def test_advective_split_curved_field(self):
        bench = experiment1(0.5)
        m = build_structured_mesh(4)
        test = build_space(m, enriched(1, 3))
        Aadv, signed = self.advection_and_signed_flux(test, bench.data.velocity)
        rng = np.random.default_rng(14)
        for _ in range(10):
            v = rng.standard_normal(test.dim)
            v /= np.linalg.norm(v)
            assert abs(v @ (Aadv @ v) + 0.5 * (v @ (signed @ v))) < 1e-7


class TestMixedSignBoundary:
    """The rotating field b = (y - 1/2, 1/2 - x) on the 7x7 grid changes the
    sign of b.n inside 4 boundary facets; inflow and outflow must still be
    split pointwise there."""

    @pytest.fixture(scope="class")
    def mesh(self):
        from bubblefem.forms import facet_quadrature, normal_flux
        from bubblefem.reference import edge_rule

        m = build_structured_mesh(7)
        pts, _ = facet_quadrature(m, m.boundary_edges, edge_rule(3))
        bn = normal_flux(rotating_field, pts, m.boundary_normals)
        assert np.count_nonzero((bn.min(axis=1) < 0.0) & (bn.max(axis=1) > 0.0)) == 4
        return m

    def test_coercive_over_gram(self, mesh):
        data = make_data(rotating_field, mu=1.0, gram_weight=1.0)
        test = build_space(mesh, enriched(1, 3))
        tables = FormTables(test, data)
        B = assemble_stabilized(tables).toarray()
        G = assemble_gram(tables).toarray()
        assert np.linalg.eigvalsh(0.5 * (B + B.T) - G).min() >= -1e-12

    def test_load_weights_inflow_data_pointwise(self, mesh):
        source = lambda x: np.cos(np.atleast_2d(x)[:, 0]) + np.atleast_2d(x)[:, 1]
        g = lambda x: 1.0 + np.atleast_2d(x)[:, 0] + 2.0 * np.atleast_2d(x)[:, 1] ** 2
        data = make_data(rotating_field, source=source, g=g)
        test = build_space(mesh, enriched(1, 3))
        expected = np.zeros(test.dim)
        # (f, w) on every cell
        rule = triangle_rule(volume_degree(test))
        pts, w = cell_quadrature(mesh, rule)
        fv = source(pts.reshape(-1, 2)).reshape(w.shape)
        np.add.at(expected, test.cell_dofs, (w * fv) @ test.local_basis.evaluate(rule.points))
        # -((b.n)^- g, w), facet by facet, pulling each point back to its cell
        erule = edge_rule(facet_degree(test))
        cells = mesh.boundary_sides // 3
        for e, cell, n in zip(mesh.boundary_edges, cells, mesh.boundary_normals):
            a, b = mesh.vertices[mesh.edges[e]]
            x = a + erule.points[:, None] * (b - a)
            bn = rotating_field(x) @ n
            weight = erule.weights * np.linalg.norm(b - a) * np.minimum(bn, 0.0) * g(x)
            phi = test.local_basis.evaluate(mesh.to_reference(np.full(len(x), cell), x))
            np.add.at(expected, test.cell_dofs[cell], -weight @ phi)
        assert np.abs(assemble_load(FormTables(test, data)) - expected).max() < 1e-12


class TestLoad:
    def test_zero_data_gives_zero_vector(self):
        m = build_structured_mesh(2)
        test = build_space(m, enriched(1, 3))
        data = make_data(const_field([1.0, 0.0]))
        assert not assemble_load(FormTables(test, data)).any()

    def test_goal_benchmark_support_on_inflow(self):
        bench = experiment2()
        from dataclasses import replace

        data = replace(bench.data, penalty_order=3)
        m = bench.initial_mesh()
        test = build_space(m, enriched(1, 3))
        load = assemble_load(FormTables(test, data))
        nonzero = np.flatnonzero(np.abs(load) > 1e-14)
        # only vertex DoFs sitting on the inflow {x=0} u {y=0} can see the data
        assert len(nonzero)
        assert nonzero.max() < len(m.vertices)
        on_inflow = (m.vertices[nonzero, 0] < 1e-12) | (m.vertices[nonzero, 1] < 1e-12)
        assert np.all(on_inflow)

    def test_manufactured_linear_exactness(self):
        m = build_structured_mesh(4)
        lin = lambda pts: np.atleast_2d(pts)[:, 0] + np.atleast_2d(pts)[:, 1]
        data = make_data(
            const_field([1.0, 0.0]),
            source=lambda pts: 1.0 + lin(pts),
            g=lin,
        )
        trial = build_space(m, trial_lagrange(1))
        tables = FormTables(trial, data)
        B = assemble_stabilized(tables)
        load = assemble_load(tables)
        u, _ = solve_cip_enriched(B, load, tables)
        exact = m.vertices[:, 0] + m.vertices[:, 1]
        assert np.abs(u.coefficients - exact).max() < 1e-10


class TestQoi:
    region = Rectangle(0.7, 0.8, 0.3, 0.5)

    def qoi(self, space):
        """The QoI vector, integrated on the default tables of ``space``."""
        return assemble_qoi(FormTables(space, make_data(const_field([1.0, 0.0]))), self.region)

    def test_region_area(self):
        assert np.isclose(self.region.area, 0.02)

    def test_mean_of_constant_is_one(self):
        m = build_structured_mesh(10)
        space = build_space(m, trial_lagrange(1))
        q = self.qoi(space)
        assert abs(q @ np.ones(space.dim) - 1.0) < 1e-12

    def test_mean_of_linear(self):
        m = build_structured_mesh(10)
        space = build_space(m, trial_lagrange(1))
        q = self.qoi(space)
        assert abs(q @ m.vertices[:, 0] - 0.75) < 1e-12

    def test_enriched_space_supported(self):
        m = build_structured_mesh(10)
        space = build_space(m, enriched(1, 3))
        q = self.qoi(space)
        ones = np.zeros(space.dim)
        ones[: space.n_trial] = 1.0
        assert abs(q @ ones - 1.0) < 1e-12

    def test_reads_the_tables_volume(self, monkeypatch):
        # the QoI integrates on the tables' volume rule, exact for the basis
        # degree, so it builds no quadrature and every admissible rule agrees
        import bubblefem.forms

        space = build_space(build_structured_mesh(10), enriched(2, 4))
        data = make_data(const_field([1.0, 0.0]))
        tables = FormTables(space, data, degree=8)
        tables.volume_basis
        monkeypatch.setattr(bubblefem.forms, "cell_quadrature", None)
        q = assemble_qoi(tables, self.region)
        monkeypatch.undo()
        ref = assemble_qoi(FormTables(space, data), self.region)
        assert np.abs(q - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_straddling_cell_rejected(self):
        m = build_structured_mesh(4)  # 0.25-grid does not conform to the region
        space = build_space(m, trial_lagrange(1))
        with pytest.raises(ValueError):
            self.qoi(space)

    @pytest.mark.parametrize("bounds", [(0.7, 0.7, 0.3, 0.5), (0.8, 0.7, 0.3, 0.5),
                                        (0.7, 0.8, 0.5, 0.3), (0.7, 0.8, 0.3, math.nan),
                                        (-math.inf, 0.8, 0.3, 0.5)])
    def test_rejects_empty_inverted_or_non_finite_box(self, bounds):
        # the QoI divides by the area, which such a box leaves zero, negative or NaN
        with pytest.raises(ValueError, match="rectangle"):
            Rectangle(*bounds)

    def test_region_leaving_the_mesh_rejected(self):
        # no cell straddles x = 0.9, but the cells inside fill half the region
        from bubblefem.forms import classify_qoi_cells

        with pytest.raises(ValueError):
            classify_qoi_cells(build_structured_mesh(10), Rectangle(0.9, 1.1, 0.0, 1.0))


def test_matrix_market_roundtrip(tmp_path):
    m = build_structured_mesh(2)
    space = build_space(m, trial_lagrange(1))
    M = assemble_mass(space)
    path = tmp_path / "mass.mtx"
    write_matrix_market(path, M)
    back = sp.csr_matrix(scipy.io.mmread(path))
    assert abs(M - back).max() < 1e-12


class TestFacetTables:
    """Facet bases gathered from the six reference-facet cases, checked
    against a direct pull-back of the physical facet points."""

    @pytest.fixture(scope="class")
    def mesh(self):
        from bubblefem import refine

        m = build_structured_mesh(3)
        rng = np.random.default_rng(5)
        for _ in range(3):
            m = refine(m, rng.choice(len(m.cells), size=len(m.cells) // 3, replace=False))
        return m

    @staticmethod
    def sides(m):
        return [
            (m.interior_edges, m.interior_sides[:, 0], m.interior_normals),
            (m.interior_edges, m.interior_sides[:, 1], m.interior_normals),
            (m.boundary_edges, m.boundary_sides, m.boundary_normals),
        ]

    def test_all_six_cases_occur(self, mesh):
        from bubblefem.forms import facet_cases

        cases = np.concatenate([facet_cases(mesh, s) for _, s, _ in self.sides(mesh)])
        assert set(cases.tolist()) == set(range(6))

    @pytest.mark.parametrize(
        "kind",
        [trial_lagrange(1), trial_lagrange(2), trial_lagrange(3),
         enriched(1, 3), enriched(2, 4), enriched(3, 5)],
    )
    def test_matches_pull_back(self, mesh, kind):
        from bubblefem.forms import facet_basis, facet_degree, facet_quadrature
        from bubblefem.reference import edge_rule

        space = build_space(mesh, kind)
        rule = edge_rule(facet_degree(space))
        _, _, Jinv, _ = mesh.affine
        for edge_ids, sides, normals in self.sides(mesh):
            cells = sides // 3
            pts, _ = facet_quadrature(mesh, edge_ids, rule)
            nf, nq = pts.shape[:2]
            xi = mesh.to_reference(np.repeat(cells, nq), pts.reshape(-1, 2))
            vals = space.local_basis.evaluate(xi).reshape(nf, nq, -1)
            gref = space.local_basis.gradient(xi).reshape(nf, nq, -1, 2)
            grad = np.einsum("fed,fqie->fqid", Jinv[cells], gref)
            normal_grad = np.einsum("fqid,fd->fqi", grad, normals)

            assert np.abs(facet_basis(space, sides, facet_degree(space)) - vals).max() < 1e-12
            got = facet_basis(space, sides, facet_degree(space), normals)
            assert np.abs(got - normal_grad).max() < 1e-12 * np.abs(normal_grad).max()


class TestTrialNesting:
    """The enriched test space numbers the trial space first, so its leading
    local basis functions are the trial basis and the trial block of every
    test-space operator is the trial-space operator; the adaptive loop reads
    B off B_full, and the adjoint solve the trial block of q, this way."""

    degrees = pytest.mark.parametrize("p, k", [(1, 3), (2, 4), (3, 5), (2, 2)])

    @pytest.fixture(scope="class", params=["exp1", "exp2"])
    def problem(self, request):
        from bubblefem import refine

        if request.param == "exp1":
            bench, region = experiment1(0.01), Rectangle(0.25, 0.75, 0.5, 0.875)
        else:
            bench = experiment2()
            region = bench.qoi_region
        m = bench.initial_mesh()
        rng = np.random.default_rng(11)
        for _ in range(3):
            m = refine(m, rng.choice(len(m.cells), size=len(m.cells) // 3, replace=False))
        return m, region

    @staticmethod
    def pattern(A, tol):
        A = A.tocoo()
        big = np.abs(A.data) > tol
        return set(zip(A.row[big].tolist(), A.col[big].tolist()))

    @degrees
    def test_leading_basis_is_trial_basis(self, problem, p, k):
        m, _ = problem
        trial = build_space(m, trial_lagrange(p))
        test = build_space(m, enriched(p, k))
        n_loc = trial.local_basis.count
        assert test.n_trial == trial.dim
        assert np.array_equal(test.cell_dofs[:, :n_loc], trial.cell_dofs)
        points = triangle_rule(volume_degree(test)).points
        for table in ("evaluate", "gradient"):
            lead = getattr(test.local_basis, table)(points)[:, :n_loc]
            assert np.abs(lead - getattr(trial.local_basis, table)(points)).max() < 1e-12

    @degrees
    def test_trial_block_of_test_space_operators(self, problem, p, k):
        # exp2's velocity is constant and its reaction zero, so both spaces'
        # default quadratures integrate every term exactly
        from dataclasses import replace

        m, region = problem
        data = replace(experiment2().data, penalty_order=k)
        trial = build_space(m, trial_lagrange(p))
        test = build_space(m, enriched(p, k))
        n = test.n_trial
        for assemble in (assemble_stabilized, assemble_gram):
            A = assemble(FormTables(trial, data))
            block = assemble(FormTables(test, data))[:n, :n]
            scale = abs(A).max()
            assert block.shape == A.shape
            assert abs(block - A).max() <= 1e-12 * scale
            # same pattern, up to an entry that cancels to exactly 0 in one sum
            # and to roundoff (~1e-18) in the other
            assert self.pattern(block, 1e-15 * scale) == self.pattern(A, 1e-15 * scale)
            assert abs(block.nnz - A.nnz) <= 1e-3 * A.nnz

        q = assemble_qoi(FormTables(trial, data), region)
        q_block = assemble_qoi(FormTables(test, data), region)[:n]
        assert np.abs(q_block - q).max() <= 1e-12 * np.abs(q).max()


class TestCarriedTables:
    """Tables built with the previous iteration's tables copy the rows of the
    cells and interior facets that refinement kept and evaluate only the
    others, while the boundary tables are evaluated on every boundary facet;
    every array and operator equals the one built afresh, bit for bit."""

    @staticmethod
    def counted(data, exact):
        """``data`` and ``exact`` with callables that record how many points
        each call receives, and those records by callable."""
        calls = {"velocity": [], "reaction": [], "source": [], "inflow_data": [], "exact": []}

        def wrap(name, fn):
            def counted_fn(x):
                calls[name].append(len(x))
                return fn(x)

            return counted_fn

        fields = {name: wrap(name, getattr(data, name)) for name in calls if name != "exact"}
        return replace(data, **fields), wrap("exact", exact), calls

    @staticmethod
    def build(tables, exact):
        """Every table the adaptive loop reads, and G, B_full and the load."""
        G, B_full = assemble_gram(tables), assemble_stabilized(tables)
        arrays = {
            "volume": [tables.volume_weights(), tables.volume_basis],
            "coefficients": tables.coefficients, "boundary": tables.boundary, "interior": tables.interior,
            "error": tables.error_terms(exact), "load": [assemble_load(tables)],
            "G": [G.indptr, G.indices, G.data], "B_full": [B_full.indptr, B_full.indices, B_full.data],
        }
        for i, term in enumerate(tables.energy_terms):
            arrays[f"energy term {i}"] = term
        return arrays

    @staticmethod
    def assert_bitwise_equal(got, want):
        assert got.keys() == want.keys()
        for name in want:
            assert len(got[name]) == len(want[name]), name
            for a, b in zip(got[name], want[name]):
                assert a.shape == b.shape and a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name

    @staticmethod
    def problem(p=1, k=3):
        bench = experiment1(0.01)
        return replace(bench.data, penalty_order=k), bench.exact, enriched(p, k)

    @staticmethod
    def new_rows(old, new):
        """How many cells, boundary facets and interior facets of ``new`` have
        a cell whose vertex triple ``old`` lacks."""
        triples = {tuple(c) for c in old.cells.tolist()}
        fresh = np.array([tuple(c) not in triples for c in new.cells.tolist()])
        return (int(fresh.sum()), int(fresh[new.boundary_sides // 3].sum()),
                int(fresh[new.interior_sides // 3].any(axis=1).sum()))

    @staticmethod
    def refined(case):
        mesh = build_structured_mesh(4)
        if case == "uniform":
            new = mesh
            for _ in range(2):
                new = refine(new, np.arange(len(new.cells)))
            return mesh, new
        if case == "interior cell":
            # the lower half of grid square (1, 1) shares its refinement edge,
            # the square's diagonal, with the upper half only
            return mesh, refine(mesh, [10])
        # a cell whose refinement edge lies on the boundary: the children of a
        # bisected corner cell are refined across its legs
        mesh = refine(mesh, [0])
        ref_edges = mesh.cell_edges[np.arange(len(mesh.cells)), mesh.refinement_edge]
        return mesh, refine(mesh, [int(np.flatnonzero(np.isin(ref_edges, mesh.boundary_edges))[0])])

    cases = pytest.mark.parametrize("case", ["interior cell", "boundary cell", "uniform"])

    @cases
    @pytest.mark.parametrize("p, k", [(1, 3), (2, 4)], ids=["p1k3", "p2k4"])
    def test_equal_to_tables_built_afresh(self, case, p, k):
        data, exact, kind = self.problem(p, k)
        old, new = self.refined(case)
        previous = FormTables(build_space(old, kind), data)
        self.build(previous, exact)
        space = build_space(new, kind)
        carried = self.build(FormTables(space, data, previous=previous), exact)
        self.assert_bitwise_equal(carried, self.build(FormTables(space, data), exact))

    @cases
    def test_callables_see_only_new_points(self, case):
        """The volume callables see only the new cells' points and b the new
        interior facets'; the boundary tables evaluate b, g and the exact
        solution on every boundary point, the exact solution once per call
        of ``error_terms``; only the first call carries cell values."""
        data, exact, kind = self.problem()
        data, exact, calls = self.counted(data, exact)
        old, new = self.refined(case)
        previous = FormTables(build_space(old, kind), data)
        self.build(previous, exact)
        for seen in calls.values():
            seen.clear()
        tables = FormTables(build_space(new, kind), data, previous=previous)
        self.build(tables, exact)
        cells, boundary, interior = self.new_rows(old, new)
        if case == "uniform":
            assert (cells, boundary, interior) == (len(new.cells), len(new.boundary_edges),
                                                   len(new.interior_edges))
        else:
            assert 0 < cells < len(new.cells)
            assert 0 < interior < len(new.interior_edges)
            assert (boundary > 0) == (case == "boundary cell")
        nq, ne = len(tables.volume_rule.weights), len(tables.edge_rule.weights)
        nq_error = len(triangle_rule(volume_degree(tables.space) + 2).weights)
        every_boundary_point = len(new.boundary_edges) * ne
        assert sorted(calls["velocity"]) == sorted([cells * nq, every_boundary_point,
                                                    interior * ne])
        assert calls["reaction"] == calls["source"] == [cells * nq]
        assert calls["inflow_data"] == [every_boundary_point]
        assert sorted(calls["exact"]) == sorted([cells * nq_error, every_boundary_point])
        for again in (exact, lambda x: exact(x) + 1.0):
            calls["exact"].clear()
            tables.error_terms(again)
            assert sorted(calls["exact"]) == sorted([len(new.cells) * nq_error,
                                                     every_boundary_point])

    def test_same_mesh_calls_no_callable_on_carried_tables(self):
        """Tables built on the previous tables' own mesh keep every cell and
        interior facet: their tables call no callable, not even on zero
        points, and only the boundary tables evaluate anything."""
        data, exact, kind = self.problem()
        data, exact, calls = self.counted(data, exact)
        space = build_space(self.refined("interior cell")[1], kind)
        previous = FormTables(space, data)
        self.build(previous, exact)
        for seen in calls.values():
            seen.clear()
        tables = FormTables(space, data, previous=previous)
        tables.coefficients, tables.interior
        assert not any(calls.values())
        carried = self.build(tables, exact)
        every_boundary_point = len(space.mesh.boundary_edges) * len(tables.edge_rule.weights)
        assert calls == {"velocity": [every_boundary_point], "reaction": [], "source": [],
                         "inflow_data": [every_boundary_point], "exact": [every_boundary_point]}
        self.assert_bitwise_equal(carried, self.build(FormTables(space, data), exact))

    @pytest.mark.parametrize("other", ["problem data", "degree", "space kind", "mesh",
                                       "exact solution"])
    def test_other_previous_tables_contribute_nothing(self, other):
        data, exact, kind = self.problem()
        data, exact, calls = self.counted(data, exact)
        old, new = self.refined("interior cell")
        previous_data, previous_exact, degree = data, exact, None
        if other == "problem data":
            previous_data = replace(data, penalty_exponent=3.0)
        elif other == "degree":
            degree = 8
        elif other == "space kind":
            kind = enriched(1, 4)
        elif other == "mesh":
            # the same cells on a moved vertex: the old vertices do not lead the new ones
            vertices = old.vertices.copy()
            vertices[6] += 0.01
            old = Mesh(vertices, old.cells)
        else:
            previous_exact = lambda x: exact(x) + 1.0
        previous = FormTables(build_space(old, kind), previous_data, degree)
        self.build(previous, previous_exact)
        for seen in calls.values():
            seen.clear()
        space = build_space(new, enriched(1, 3))
        tables = FormTables(space, data, previous=previous)
        carried = self.build(tables, exact)
        nq, ne = len(tables.volume_rule.weights), len(tables.edge_rule.weights)
        nq_error = len(triangle_rule(volume_degree(space) + 2).weights)
        assert sorted(calls["exact"]) == sorted([len(new.cells) * nq_error,
                                                 len(new.boundary_edges) * ne])
        if other != "exact solution":
            assert calls["reaction"] == [len(new.cells) * nq]
            assert calls["inflow_data"] == [len(new.boundary_edges) * ne]
        self.assert_bitwise_equal(carried, self.build(FormTables(space, data), exact))

    def test_cell_with_another_third_vertex_is_new(self):
        # cell (0, 1, 4) shares its first two vertices with the old cell (0, 1, 2)
        data, exact, kind = self.problem()
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        old = Mesh(square, np.array([[0, 1, 2], [0, 2, 3]]))
        new = Mesh(np.vstack([square, [[0.5, 0.5]]]),
                   np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]))
        previous = FormTables(build_space(old, kind), data)
        self.build(previous, exact)
        space = build_space(new, kind)
        carried = self.build(FormTables(space, data, previous=previous), exact)
        self.assert_bitwise_equal(carried, self.build(FormTables(space, data), exact))

    @staticmethod
    def vertex_key_rows(old, new):
        """``_kept_rows`` by vertex keys, without lineage: a cell is kept when
        ``old`` has its ordered vertex triple anywhere, found by its first two
        vertices, which name one counterclockwise cell at most; an interior
        facet when each side lies on a kept cell and is the same side of the
        same ``old`` facet."""
        nv = len(new.vertices)
        old_keys = old.cells[:, 0] * nv + old.cells[:, 1]
        order = np.argsort(old_keys)
        keys = new.cells[:, 0] * nv + new.cells[:, 1]
        found = order[np.searchsorted(old_keys[order], keys).clip(max=len(order) - 1)]
        old_cell = np.where((old_keys[found] == keys) & (old.cells[found, 2] == new.cells[:, 2]),
                            found, -1)
        side_cell = old_cell[new.interior_sides // 3]
        mapped = np.where(side_cell >= 0, 3 * side_cell + new.interior_sides % 3, -1)
        facet = {tuple(sides): f for f, sides in enumerate(old.interior_sides.tolist())}
        interior = [facet.get(tuple(sides), -1) if min(sides) >= 0 else -1
                    for sides in mapped.tolist()]
        return {"cells": old_cell, "interior": np.array(interior)}

    @pytest.mark.parametrize("seed", range(5))
    def test_kept_rows_equal_vertex_key_rule(self, seed):
        rng = np.random.default_rng(seed)
        old = build_structured_mesh(4)
        for _ in range(3):
            marks = rng.integers(0, len(old.cells), size=rng.integers(1, len(old.cells) // 4 + 1))
            new = refine(old, marks)
            kept, want = _kept_rows(old, new), self.vertex_key_rows(old, new)
            assert kept.keys() == want.keys()
            for kind in want:
                assert np.array_equal(kept[kind], want[kind]), kind
            assert 0 < np.count_nonzero(kept["cells"] >= 0) < len(new.cells)
            old = new

    @pytest.mark.parametrize("case", ["two refinements back", "sibling refinement"])
    def test_tables_of_another_refinement(self, case):
        """Tables two refinements back carry nothing.  A sibling refinement of
        the same mesh (its new vertices lead the new mesh's) passes the vertex
        and lineage checks, but its cells sit at other indices than the new
        cells' parents: only the cells with the parent's own triple carry."""
        data, exact, kind = self.problem()
        mesh = build_structured_mesh(4)
        if case == "two refinements back":
            old, new = mesh, refine(refine(mesh, [5]), [12])
            assert _kept_rows(old, new) is None
        else:
            # the bottom-left and top-right corner cells
            old, new = refine(mesh, [0]), refine(mesh, [0, 31])
            cells = _kept_rows(old, new)["cells"]
            assert np.array_equal(cells >= 0, (old.cells[new.parents] == new.cells).all(axis=1))
            by_key = self.vertex_key_rows(old, new)["cells"]
            assert 0 < np.count_nonzero(cells >= 0) < np.count_nonzero(by_key >= 0)
        previous = FormTables(build_space(old, kind), data)
        self.build(previous, exact)
        space = build_space(new, kind)
        carried = self.build(FormTables(space, data, previous=previous), exact)
        self.assert_bitwise_equal(carried, self.build(FormTables(space, data), exact))
