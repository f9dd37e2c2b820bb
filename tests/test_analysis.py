import numpy as np
import pytest

from bubblefem import (
    DiscreteFunction,
    FormTables,
    ProblemData,
    Rectangle,
    broken_lagrange,
    build_space,
    build_structured_mesh,
    enriched,
    error_norms,
    inject_trial,
    l2_project,
    oswald_interpolate,
    qoi_error,
    qoi_reference,
    refine,
    trial_lagrange,
)
from bubblefem.spaces import values_in_cells


def const(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


def make_data(mu=1.0, velocity=None):
    return ProblemData(
        velocity=velocity or (lambda x: np.tile([1.0, 0.5], (len(np.atleast_2d(x)), 1))),
        reaction=const(mu),
        source=const(0.0),
        inflow_data=const(0.0),
        reaction_floor=mu,
        penalty_order=3,
    )


class TestErrorNorms:
    def test_interpolated_linear_has_zero_error(self):
        m = build_structured_mesh(4)
        space = build_space(m, trial_lagrange(1))
        exact = lambda pts: 2.0 * np.atleast_2d(pts)[:, 0] - np.atleast_2d(pts)[:, 1]
        fn = DiscreteFunction(space, 2.0 * m.vertices[:, 0] - m.vertices[:, 1])
        rep = error_norms(fn, exact, FormTables(space, make_data()))
        assert rep.l2 < 1e-12
        assert rep.triple < 1e-12
        assert rep.semi_h < 1e-12
        assert rep.sharp < 1e-11

    def test_zero_function_against_one(self):
        m = build_structured_mesh(4)
        space = build_space(m, trial_lagrange(1))
        rep = error_norms(DiscreteFunction(space), const(1.0), FormTables(space, make_data()))
        assert abs(rep.l2 - 1.0) < 1e-12
        assert abs(rep.exact_l2 - 1.0) < 1e-12

    def test_trial_function_read_through_enriched_tables(self):
        # a trial-space u_h is measured on the enriched space's tables, as
        # its zero-padded injection, and the exact norm comes with it
        m = build_structured_mesh(3)
        trial = build_space(m, trial_lagrange(1))
        test = build_space(m, enriched(1, 3))
        tables = FormTables(test, make_data())
        rng = np.random.default_rng(3)
        fn = DiscreteFunction(trial, rng.standard_normal(trial.dim))
        exact = lambda pts: np.sin(np.atleast_2d(pts)[:, 0]) + np.atleast_2d(pts)[:, 1]
        assert error_norms(fn, exact, tables) == error_norms(inject_trial(fn, test), exact,
                                                             tables)
        assert error_norms(fn, None, tables).exact_l2 == 0.0
        with pytest.raises(ValueError):
            error_norms(DiscreteFunction(build_space(m, trial_lagrange(2))), exact, tables)

    def test_norm_report_nonnegative_and_ordered(self):
        m = build_structured_mesh(3)
        space = build_space(m, enriched(1, 3))
        rng = np.random.default_rng(0)
        data = make_data()
        tables = FormTables(space, data)
        for _ in range(5):
            fn = DiscreteFunction(space, rng.standard_normal(space.dim))
            rep = error_norms(fn, None, tables)
            assert rep.l2 >= 0 and rep.semi_h >= 0
            assert rep.triple >= np.sqrt(data.effective_gram_weight) * rep.l2 - 1e-12
            assert rep.sharp >= rep.triple


class TestL2Project:
    def test_identity_on_space_members(self):
        m = build_structured_mesh(3)
        space = build_space(m, trial_lagrange(2))
        target = lambda pts: (np.atleast_2d(pts)[:, 0] - 0.3) ** 2
        proj = l2_project(target, space)
        rng = np.random.default_rng(1)
        pts = rng.random((50, 2))
        assert np.abs(proj.evaluate(pts) - target(pts)).max() < 1e-12

    def test_orthogonality_residual(self):
        from bubblefem import assemble_mass
        from bubblefem.forms import cell_quadrature
        from bubblefem.reference import triangle_rule

        m = build_structured_mesh(3)
        space = build_space(m, trial_lagrange(1))
        u = lambda pts: np.exp(np.atleast_2d(pts)[:, 0]) * np.cos(np.atleast_2d(pts)[:, 1])
        proj = l2_project(u, space)
        # residual (u - proj, phi_i) recomputed at higher quadrature degree
        rule = triangle_rule(16)
        pts, w = cell_quadrature(m, rule)
        nc, nq = w.shape
        uv = u(pts.reshape(-1, 2)).reshape(nc, nq)
        pv = values_in_cells(
            proj, np.repeat(np.arange(nc), nq), pts.reshape(-1, 2)
        ).reshape(nc, nq)
        phi = space.local_basis.evaluate(rule.points)
        local = np.einsum("cq,qi->ci", w * (uv - pv), phi)
        resid = np.zeros(space.dim)
        np.add.at(resid, space.cell_dofs, local)
        assert np.abs(resid).max() < 1e-10

    def test_idempotence(self):
        m = build_structured_mesh(3)
        space = build_space(m, trial_lagrange(1))
        u = lambda pts: np.sin(np.atleast_2d(pts)[:, 0] * 2.0)
        once = l2_project(u, space)
        twice = l2_project(lambda pts: once.evaluate(pts), space)
        assert np.abs(once.coefficients - twice.coefficients).max() < 1e-11

    def test_convergence_rate(self):
        u = lambda pts: np.sin(np.pi * np.atleast_2d(pts)[:, 0]) * np.sin(
            np.pi * np.atleast_2d(pts)[:, 1]
        )
        errs, hs = [], []
        for n in (4, 8, 16, 32):
            m = build_structured_mesh(n)
            space = build_space(m, trial_lagrange(1))
            proj = l2_project(u, space)
            rep = error_norms(proj, u, FormTables(space, make_data()))
            errs.append(rep.l2)
            hs.append(m.cell_diameters.max())
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1


class TestOswald:
    def test_identity_on_continuous_input(self):
        m = build_structured_mesh(3)
        broken = build_space(m, broken_lagrange(2))
        smooth = build_space(m, trial_lagrange(2))
        from bubblefem import l2_project

        u = lambda pts: np.atleast_2d(pts)[:, 0] * np.atleast_2d(pts)[:, 1]
        cont = l2_project(u, smooth)
        # broken copy of the continuous function, built nodally per cell
        v = DiscreteFunction(broken, cont.coefficients[smooth.cell_dofs].ravel())
        out = oswald_interpolate(v)
        assert np.abs(out.coefficients - cont.coefficients).max() < 1e-13

    def test_two_cell_patch_average(self):
        m = build_structured_mesh(1)
        broken = build_space(m, broken_lagrange(1))
        v = DiscreteFunction(broken)
        v.coefficients[broken.cell_dofs[1]] = 1.0  # 0 on cell 0, 1 on cell 1
        out = oswald_interpolate(v)
        # shared diagonal nodes (vertices 0 and 3) average to 1/2;
        # vertex 1 only in cell 0, vertex 2 only in cell 1
        assert np.allclose(out.coefficients, [0.5, 0.0, 1.0, 0.5])

    def test_output_is_continuous(self):
        m = build_structured_mesh(3)
        broken = build_space(m, broken_lagrange(2))
        rng = np.random.default_rng(3)
        out = oswald_interpolate(DiscreteFunction(broken, rng.standard_normal(broken.dim)))
        for fi in range(len(m.interior_edges)):
            e = m.interior_edges[fi]
            a, b = m.edges[e]
            t = np.linspace(0.1, 0.9, 5)[:, None]
            pts = m.vertices[a] + t * (m.vertices[b] - m.vertices[a])
            plus = values_in_cells(out, np.full(5, m.interior_plus[fi]), pts)
            minus = values_in_cells(out, np.full(5, m.interior_minus[fi]), pts)
            assert np.abs(plus - minus).max() < 1e-12

    def test_interpolation_error_bound_constant_stable(self):
        # ||v - I_Os v||_T <= C (h_T/p)^{1/2} sum over nearby facets of ||[v]||_e
        from bubblefem.forms import facet_quadrature
        from bubblefem.reference import edge_rule, triangle_rule
        from bubblefem.forms import cell_quadrature

        def fitted_constant(m, p, seed):
            broken = build_space(m, broken_lagrange(p))
            rng = np.random.default_rng(seed)
            rule = triangle_rule(2 * p + 2)
            erule = edge_rule(2 * p + 2)
            # facets touching each cell's closure (shared vertex suffices)
            cell_verts = [set(c) for c in m.cells.tolist()]
            facet_pairs = m.edges[m.interior_edges]
            touching = [
                np.array([
                    f for f, (a, b) in enumerate(facet_pairs)
                    if a in cell_verts[c] or b in cell_verts[c]
                ])
                for c in range(len(m.cells))
            ]
            worst = 0.0
            for _ in range(20):
                v = DiscreteFunction(broken, rng.standard_normal(broken.dim))
                pts, w = cell_quadrature(m, rule)
                nc, nq = w.shape
                vals = values_in_cells(
                    v, np.repeat(np.arange(nc), nq), pts.reshape(-1, 2)
                ).reshape(nc, nq)
                ivals = values_in_cells(
                    oswald_interpolate(v), np.repeat(np.arange(nc), nq), pts.reshape(-1, 2)
                ).reshape(nc, nq)
                err_t = np.sqrt(np.einsum("cq,cq->c", w, (vals - ivals) ** 2))
                epts, ew = facet_quadrature(m, m.interior_edges, erule)
                nf, enq = ew.shape
                flat = epts.reshape(-1, 2)
                jump = (
                    values_in_cells(v, np.repeat(m.interior_plus, enq), flat)
                    - values_in_cells(v, np.repeat(m.interior_minus, enq), flat)
                ).reshape(nf, enq)
                jnorm = np.sqrt(np.einsum("fq,fq->f", ew, jump**2))
                for c in range(len(m.cells)):
                    denom = np.sqrt(m.cell_diameters[c] / p) * jnorm[touching[c]].sum()
                    if denom > 1e-14:
                        worst = max(worst, err_t[c] / denom)
            return worst

        m = build_structured_mesh(8)
        c_coarse = fitted_constant(m, 1, seed=10)
        c_fine = fitted_constant(refine(refine(m, np.arange(len(m.cells))),
                                        np.arange(2 * len(m.cells))), 1, seed=11)
        assert 0.5 * c_coarse <= c_fine <= 1.5 * c_coarse


class TestTraceInequality:
    def test_constant_stable_under_refinement(self):
        # ||v||_dT <= C (p^2/h_T)^{1/2} ||v||_T with C stable across h
        from bubblefem.forms import cell_quadrature, facet_quadrature
        from bubblefem.reference import edge_rule, triangle_rule
        from bubblefem import lagrange_basis

        def fitted(m, p, seed):
            rng = np.random.default_rng(seed)
            basis = lagrange_basis(p)
            rule = triangle_rule(2 * p + 2)
            erule = edge_rule(2 * p + 2)
            pts, w = cell_quadrature(m, rule)
            worst = 0.0
            for _ in range(100):
                coeffs = rng.standard_normal(basis.count)
                c = rng.integers(0, len(m.cells))
                vals = basis.evaluate(rule.points) @ coeffs
                vol = np.sqrt(np.sum(w[c] * vals**2))
                bnd_sq = 0.0
                for i in range(3):
                    e = m.cell_edges[c, i]
                    epts, ew = facet_quadrature(m, np.array([e]), erule)
                    xi = m.to_reference(np.full(epts.shape[1], c), epts[0])
                    evals = basis.evaluate(xi) @ coeffs
                    bnd_sq += np.sum(ew[0] * evals**2)
                ratio = np.sqrt(bnd_sq) / (np.sqrt(p**2 / m.cell_diameters[c]) * vol)
                worst = max(worst, ratio)
            return worst

        for p in (1, 2):
            coarse = fitted(build_structured_mesh(4), p, seed=20 + p)
            fine = fitted(build_structured_mesh(16), p, seed=30 + p)
            assert fine <= 1.5 * coarse
            assert fine >= 0.3 * coarse


class TestQoiError:
    region = Rectangle(0.7, 0.8, 0.3, 0.5)

    def test_exact_polynomial_gives_zero(self):
        m = build_structured_mesh(10)
        space = build_space(m, trial_lagrange(1))
        fn = DiscreteFunction(space, m.vertices[:, 0].copy())
        exact = lambda pts: np.atleast_2d(pts)[:, 0]
        assert qoi_error(fn, exact, self.region) < 1e-12

    def test_zero_function_gives_relative_one(self):
        m = build_structured_mesh(10)
        space = build_space(m, trial_lagrange(1))
        exact = lambda pts: np.atleast_2d(pts)[:, 0]
        assert abs(qoi_error(DiscreteFunction(space), exact, self.region) - 1.0) < 1e-12

    def test_vanishing_goal_flagged(self):
        m = build_structured_mesh(10)
        space = build_space(m, trial_lagrange(1))
        exact = lambda pts: np.zeros(len(np.atleast_2d(pts)))
        with pytest.warns(UserWarning):
            err = qoi_error(DiscreteFunction(space), exact, self.region)
        assert err == 0.0

    def test_reference_self_convergence(self):
        from bubblefem import experiment2

        bench = experiment2()
        coarse = qoi_reference(bench.exact, bench.qoi_region, rtol=1e-6)
        fine = qoi_reference(bench.exact, bench.qoi_region, rtol=1e-12)
        assert abs(coarse - fine) <= 1e-6 * abs(fine)
        # ten significant digits between the last two refinement levels
        tight = qoi_reference(bench.exact, bench.qoi_region, rtol=1e-11)
        assert abs(tight - fine) <= 1e-10 * abs(fine)

    def test_reference_raises_without_convergence(self):
        # a 1e-5-wide layer inside the box: after the last level the
        # composite rule is still 2.4e-6 (relative) off the mean 0.531
        step = lambda pts: np.tanh(1e5 * (np.atleast_2d(pts)[:, 0] - 0.72345))
        with pytest.raises(RuntimeError, match="did not reach rtol"):
            qoi_reference(step, self.region)
