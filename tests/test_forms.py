import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from bubblefem import (
    DiscreteFunction,
    FormTables,
    ProblemData,
    Rectangle,
    assemble_advection,
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


def coo_plus_sum(tables):
    """G and B_full as every term's own COO -> CSR scatter, added as sparse
    matrices; each sparse + drops the exact zeros of its sum."""
    import bubblefem.forms as forms

    dim = tables.space.dim
    weights, jump, dofs = tables.interior
    J = forms._scatter(forms._facet_local(weights, jump), dofs, dim)
    (mass_w, phi, cell_dofs, _), (boundary_w, *_), _ = tables.energy_terms
    G = forms._scatter(forms._mass_local(phi, mass_w), cell_dofs, dim)
    G = G + tables.boundary_matrix(boundary_w) + J
    G = 0.5 * (G + G.T)
    pts, w, phi = tables.volume
    mu = tables.data.reaction(pts.reshape(-1, 2)).reshape(w.shape)
    _, bw, bn, _, _ = tables.boundary
    B_full = forms._scatter(forms._mass_local(phi, w * mu), cell_dofs, dim)
    B_full = B_full + assemble_advection(tables) + tables.boundary_matrix(bw * np.maximum(bn, 0.0))
    return J, G, B_full + J


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
        from bubblefem.forms import cell_quadrature, facet_degree, volume_degree
        from bubblefem.reference import edge_rule, triangle_rule

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
        u = solve_cip_enriched(B, load, tables)
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
        tables.volume
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

            assert np.abs(facet_basis(space, sides, rule) - vals).max() < 1e-12
            got = facet_basis(space, sides, rule, normals)
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
        from bubblefem.forms import volume_degree
        from bubblefem.reference import triangle_rule

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
