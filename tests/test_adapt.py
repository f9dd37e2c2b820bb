import csv
import math

import numpy as np
import pytest

from bubblefem import (
    Benchmark,
    DiscreteFunction,
    FormTables,
    LoopConfig,
    ProblemData,
    adaptive_loop,
    assemble_gram,
    build_space,
    build_structured_mesh,
    dorfler_mark,
    energy_indicators,
    enriched,
    experiment1,
    experiment2,
    goa_indicators,
    local_energy_products,
    write_records_csv,
)
from bubblefem.adapt import CSV_COLUMNS, ConfigError


def const(value):
    return lambda x: np.full(len(np.atleast_2d(x)), float(value))


def make_data(mu=1.0):
    return ProblemData(
        velocity=lambda x: np.tile([1.0, 0.5], (len(np.atleast_2d(x)), 1)),
        reaction=const(mu),
        source=const(0.0),
        inflow_data=const(0.0),
        reaction_floor=mu,
        penalty_order=3,
    )


class TestEnergyIndicators:
    def test_zero_function(self):
        m = build_structured_mesh(2)
        space = build_space(m, enriched(1, 3))
        ind = energy_indicators(DiscreteFunction(space), FormTables(space, make_data()))
        assert not ind.eta.any()
        assert ind.total == 0.0

    def test_bubble_support(self):
        m = build_structured_mesh(2)
        space = build_space(m, enriched(1, 3))
        fn = DiscreteFunction(space)
        cell = 3
        fn.coefficients[space.n_trial + cell] = 1.0
        ind = energy_indicators(fn, FormTables(space, make_data()))
        neighbours = {cell}
        for plus, minus in m.interior_sides // 3:
            if plus == cell:
                neighbours.add(int(minus))
            if minus == cell:
                neighbours.add(int(plus))
        positive = set(np.flatnonzero(ind.eta > 0).tolist())
        assert positive == neighbours

    @staticmethod
    def space_and_data(setup):
        if setup == "p1k3-structured":
            return build_space(build_structured_mesh(3), enriched(1, 3)), make_data()
        from dataclasses import replace

        from bubblefem import refine

        bench = experiment2()
        m = bench.initial_mesh()
        rng = np.random.default_rng(23)
        for _ in range(3):
            m = refine(m, rng.choice(len(m.cells), size=len(m.cells) // 3, replace=False))
        return build_space(m, enriched(2, 4)), replace(bench.data, penalty_order=4)

    @pytest.mark.parametrize("setup", ["p1k3-structured", "p2k4-exp2-refined"])
    @pytest.mark.parametrize("cross", [False, True], ids=["same", "cross"])
    def test_sum_identity_with_gram(self, setup, cross):
        # the local products sum to a.G b, for a = b and for a != b
        space, data = self.space_and_data(setup)
        tables = FormTables(space, data)
        G = assemble_gram(tables)
        rng = np.random.default_rng(21)
        for _ in range(5):
            v = rng.standard_normal(space.dim)
            quad = v @ (G @ v)
            if cross:
                w = rng.standard_normal(space.dim)
                parts = local_energy_products(
                    DiscreteFunction(space, v), DiscreteFunction(space, w), tables
                )
                scale = np.sqrt(quad * (w @ (G @ w)))
                assert abs(parts.sum() - v @ (G @ w)) < 1e-12 * scale
            else:
                ind = energy_indicators(DiscreteFunction(space, v), tables)
                assert abs(ind.total**2 - quad) < 1e-12 * quad
                assert abs((ind.eta**2).sum() - ind.total**2) < 1e-12 * ind.total**2


class TestGoaIndicators:
    def test_zero_adjoint(self):
        m = build_structured_mesh(2)
        space = build_space(m, enriched(1, 3))
        rng = np.random.default_rng(22)
        eps = DiscreteFunction(space, rng.standard_normal(space.dim))
        ind, est_sq = goa_indicators(eps, DiscreteFunction(space), FormTables(space, make_data()))
        assert not ind.eta.any()
        assert est_sq == 0.0

    def test_diagonal_case_matches_energy(self):
        m = build_structured_mesh(2)
        space = build_space(m, enriched(1, 3))
        tables = FormTables(space, make_data())
        rng = np.random.default_rng(23)
        eps = DiscreteFunction(space, rng.standard_normal(space.dim))
        energy = energy_indicators(eps, tables)
        ind, est_sq = goa_indicators(eps, eps, tables)
        assert np.allclose(ind.eta, energy.eta**2, atol=1e-14)
        G = assemble_gram(tables)
        quad = eps.coefficients @ (G @ eps.coefficients)
        assert abs(est_sq - quad) < 1e-12 * quad

    def test_cauchy_schwarz(self):
        m = build_structured_mesh(3)
        space = build_space(m, enriched(1, 3))
        tables = FormTables(space, make_data())
        rng = np.random.default_rng(24)
        for _ in range(5):
            a = DiscreteFunction(space, rng.standard_normal(space.dim))
            b = DiscreteFunction(space, rng.standard_normal(space.dim))
            ind, est_sq = goa_indicators(a, b, tables)
            bound = np.sqrt((energy_indicators(a, tables).eta ** 2).sum()) * np.sqrt(
                (energy_indicators(b, tables).eta ** 2).sum()
            )
            assert est_sq <= bound * (1.0 + 1e-12)


class TestDorflerMark:
    def test_theta_one_marks_all_positive(self):
        eta = np.array([0.5, 0.0, 0.2, 0.1])
        marked = dorfler_mark(eta, 1.0)
        assert sorted(marked.tolist()) == [0, 2, 3]

    def test_greedy_example(self):
        marked = dorfler_mark(np.array([3.0, 1.0, 1.0, 1.0]), 0.5)
        assert marked.tolist() == [0]

    def test_uniform_indicators(self):
        marked = dorfler_mark(np.ones(4), 0.5)
        assert len(marked) == 1

    def test_all_zero_terminates(self):
        assert len(dorfler_mark(np.zeros(5), 0.5)) == 0

    def test_ties_broken_by_index(self):
        # eta^2 = (1, 4, 4, 1), target 0.64 * 10: both tied cells, index order
        marked = dorfler_mark(np.array([1.0, 2.0, 2.0, 1.0]), 0.8)
        assert marked.tolist() == [1, 2]

    def test_rejects_bad_fraction(self):
        for theta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                dorfler_mark(np.ones(3), theta)

    @pytest.mark.parametrize("eta", [[1.0, math.nan, 2.0], [1.0, -3.0, 2.0], [1.0, math.inf, 2.0]],
                             ids=["nan", "negative", "inf"])
    @pytest.mark.parametrize("squared", [True, False])
    def test_rejects_nonfinite_or_negative_indicators(self, eta, squared):
        # a NaN would mark every cell, a negative value in the plain sum none
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dorfler_mark(eta, 0.5, squared=squared)

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            eta = np.abs(rng.standard_normal(30))
            previous = set()
            for theta in (0.2, 0.4, 0.6, 0.8, 1.0):
                current = set(dorfler_mark(eta, theta).tolist())
                assert previous <= current
                previous = current

    def test_nonsquared_mode(self):
        eta = np.array([3.0, 1.0, 1.0, 1.0])
        # bulk on eta itself: need >= 0.5 * 6 = 3 -> cell 0 alone suffices
        assert dorfler_mark(eta, 0.5, squared=False).tolist() == [0]
        # need >= 0.7 * 6 = 4.2 -> cumulative 3, 4, 5: three cells
        assert dorfler_mark(eta, 0.7, squared=False).tolist() == [0, 1, 2]


class TestAdaptiveLoop:
    def test_zero_iterations_single_record(self):
        bench = experiment1(0.5)
        records = adaptive_loop(bench, LoopConfig(max_iters=0))
        assert len(records) == 1
        assert records[0].marked == 0

    def test_records_monotone_dofs(self):
        bench = experiment1(0.5)
        records = adaptive_loop(bench, LoopConfig(max_iters=4, saturation=False))
        assert len(records) == 5
        dofs = [r.dofs_total for r in records]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))

    def test_uniform_mode_quadruples(self):
        bench = experiment1(0.5)
        records = adaptive_loop(bench, LoopConfig(mode="uniform", max_iters=2, saturation=False))
        # bubble count equals the cell count, which quadruples exactly
        cells = [r.dofs_test - r.dofs_trial for r in records]
        assert cells[1] == 4 * cells[0]
        assert cells[2] == 16 * cells[0]
        assert records[1].dofs_trial == pytest.approx(4 * records[0].dofs_trial, rel=0.15)
        assert records[1].h_max == pytest.approx(records[0].h_max / 2.0)
        assert records[2].h_max == pytest.approx(records[0].h_max / 4.0)

    def test_determinism(self):
        bench = experiment1(0.5)
        cfg = LoopConfig(max_iters=3, saturation=False)
        a = adaptive_loop(bench, cfg)
        b = adaptive_loop(bench, cfg)
        assert [r.dofs_total for r in a] == [r.dofs_total for r in b]
        assert [r.est_energy for r in a] == [r.est_energy for r in b]
        assert [r.marked for r in a] == [r.marked for r in b]

    def test_goa_marks_every_iteration(self):
        bench = experiment2()
        records = adaptive_loop(bench, LoopConfig(mode="goa", theta=0.2, max_iters=3))
        assert all(r.marked > 0 for r in records[:-1])
        assert all(math.isfinite(r.err_qoi_rel) for r in records)
        assert all(r.kkt_residual < 1e-9 for r in records)

    @pytest.mark.parametrize(
        "bench, config",
        [
            (experiment1(0.01), LoopConfig(max_iters=2, saturation=True)),
            (experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=2)),
        ],
        ids=["exp1-energy-saturation", "exp2-goa"],
    )
    def test_one_test_space_assembly_per_iteration(self, monkeypatch, bench, config):
        # B is the trial block of B_full and the adjoint reads the trial
        # block of q, so each iteration assembles the operator and the QoI
        # on the test space only, and the QoI error reads the same q
        import bubblefem.adapt as adapt
        import bubblefem.forms as forms

        calls = {"assemble_stabilized": [], "assemble_qoi": []}
        for name, seen in calls.items():
            original = getattr(adapt, name)

            def counted(first, *args, _original=original, _seen=seen, **kwargs):
                # both take the form tables
                _seen.append(first.space.kind.family)
                return _original(first, *args, **kwargs)

            for module in (adapt, forms):
                monkeypatch.setattr(module, name, counted)
        records = adaptive_loop(bench, config)
        assert len(records) == 3
        if config.mode == "energy":
            assert math.isfinite(records[-1].saturation)
        assert calls["assemble_stabilized"] == ["enriched"] * len(records)
        goa = config.mode == "goa"
        assert calls["assemble_qoi"] == ["enriched"] * (len(records) if goa else 0)

    def test_exact_solution_evaluated_twice_per_iteration(self):
        # u_h and theta_h are measured in one pass: the exact solution is
        # evaluated once on the volume points and once on the boundary points
        bench = experiment1(0.01)
        exact, calls = bench.exact, []

        def counted(pts):
            calls.append(len(pts))
            return exact(pts)

        bench.exact = counted
        records = adaptive_loop(bench, LoopConfig(max_iters=2, saturation=True))
        assert all(math.isfinite(r.saturation) for r in records)
        assert len(calls) == 2 * len(records)

    @pytest.mark.parametrize(
        "bench, config",
        [
            (experiment1(0.01), LoopConfig(max_iters=2, saturation=False)),
            (experiment1(0.01), LoopConfig(max_iters=2, saturation=True)),
            (experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=2)),
        ],
        ids=["exp1-energy", "exp1-energy-saturation", "exp2-goa"],
    )
    def test_tables_built_once_per_iteration(self, monkeypatch, bench, config):
        # G, B_full, the load, the indicators and every error_norms call
        # (u_h, and theta_h when saturation is on) read one FormTables per
        # iteration, so the test space's boundary table, its two one-sided
        # jump tables and J are each built once, and no facet table of the
        # trial space is built at all.  The first counting pass over J's COO,
        # which builds the operators' pattern, runs once per iteration.
        import bubblefem.forms as forms

        built = []
        facet_basis, coo_tocsr = forms.facet_basis, forms.coo_tocsr

        def counted_basis(space, sides, degree, normals=None):
            side = "boundary" if normals is None else "jump side"
            built.append(side if space.kind.family == "enriched" else "trial " + side)
            return facet_basis(space, sides, degree, normals)

        def counted_coo_tocsr(*args):
            built.append("J")
            return coo_tocsr(*args)

        monkeypatch.setattr(forms, "facet_basis", counted_basis)
        monkeypatch.setattr(forms, "coo_tocsr", counted_coo_tocsr)
        records = adaptive_loop(bench, config)
        assert len(records) == 3
        if config.saturation:
            assert all(math.isfinite(r.saturation) for r in records)
        assert built.count("boundary") == len(records)
        assert built.count("jump side") == 2 * len(records)
        assert built.count("J") == len(records)
        assert not [b for b in built if b.startswith("trial")]

    @pytest.mark.parametrize(
        "bench, config",
        [
            (experiment1(0.01), LoopConfig(max_iters=2, saturation=True)),
            (experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=2)),
        ],
        ids=["exp1-energy-saturation", "exp2-goa"],
    )
    def test_one_space_per_iteration(self, monkeypatch, bench, config):
        # the trial space is the leading n_trial block of the enriched test
        # space, so the solves, the QoI and the error norms share that one space
        import bubblefem.adapt as adapt

        built = []

        def counted(mesh, kind):
            built.append(kind.family)
            return build_space(mesh, kind)

        monkeypatch.setattr(adapt, "build_space", counted)
        records = adaptive_loop(bench, config)
        assert built == ["enriched"] * len(records)
        assert all(r.dofs_total == r.dofs_trial + r.dofs_test for r in records)

    def test_record_carries_adjoint_residual(self, monkeypatch):
        # the record's kkt_residual is the max over the iteration's saddle
        # solves, so a bad adjoint solve shows even when the primal one is fine
        import bubblefem.adapt as adapt

        solve_saddle = adapt.solve_saddle

        def bad_residual(factor, rhs_test, rhs_trial, space):
            sol = solve_saddle(factor, rhs_test, rhs_trial, space)
            if not rhs_test.any():  # the goal's right-hand side, [0; q]
                sol.kkt_residual = 1.0
            return sol

        monkeypatch.setattr(adapt, "solve_saddle", bad_residual)
        records = adaptive_loop(experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=1))
        assert [r.kkt_residual for r in records] == [1.0, 1.0]
        assert all(r.orthogonality < 1e-9 for r in records)

    def test_every_solve_runs_inside_a_public_solve_function(self, monkeypatch):
        # each linear solve of the loop, RefinedFactor.refined_solve, runs
        # inside solve_saddle, solve_adjoint or solve_cip_enriched, so a
        # profile of those functions covers every solve
        import bubblefem.adapt as adapt
        import bubblefem.solvers as solvers

        depth, outside, solves = [0], [], []

        def entered(solve):
            def wrapper(*args, **kwargs):
                depth[0] += 1
                try:
                    return solve(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in ("solve_saddle", "solve_adjoint", "solve_cip_enriched"):
            monkeypatch.setattr(adapt, name, entered(getattr(adapt, name)))
        refined_solve = solvers.RefinedFactor.refined_solve

        def spy(self, rhs):
            solves.append(self.label)
            if depth[0] == 0:
                outside.append(self.label)
            return refined_solve(self, rhs)

        monkeypatch.setattr(solvers.RefinedFactor, "refined_solve", spy)
        adaptive_loop(experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=1))
        adaptive_loop(experiment1(0.5), LoopConfig(max_iters=1, saturation=True))
        # per iteration: goa K twice and G; energy K and B_full
        assert solves == (["saddle system", "saddle system", "gram"] * 2
                          + ["saddle system", "enriched stabilized operator"] * 2)
        assert outside == []

    def test_stop_on_max_dofs(self):
        bench = experiment1(0.5)
        records = adaptive_loop(bench, LoopConfig(max_dofs=600, saturation=False))
        assert records[-1].dofs_total >= 600
        assert all(r.dofs_total < 600 for r in records[:-1])

    def test_rejects_missing_stop_rule(self):
        with pytest.raises(ValueError):
            LoopConfig().validate()

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LoopConfig(p=4, max_iters=1).validate()
        with pytest.raises(ValueError):
            LoopConfig(p=1, k=2, max_iters=1).validate()  # k must be > max(p,2) or <= p
        with pytest.raises(ValueError):
            LoopConfig(theta=0.0, max_iters=1).validate()
        with pytest.raises(ValueError):
            LoopConfig(mode="foo", max_iters=1).validate()

    @pytest.mark.parametrize("field, value", [("max_iters", -1), ("max_dofs", 0),
                                              ("max_dofs", -5)])
    def test_rejects_nonsense_stop_rule(self, field, value):
        with pytest.raises(ValueError, match=field):
            LoopConfig(**{field: value}).validate()
        LoopConfig(max_iters=0).validate()
        LoopConfig(max_dofs=1).validate()

    def test_rejects_k_beyond_quadrature_cap(self):
        LoopConfig(k=7, max_iters=1).validate()
        for k in (8, 9):
            with pytest.raises(ValueError, match="at most 7"):
                LoopConfig(k=k, max_iters=1).validate()
        with pytest.raises(ValueError, match="quad_degree"):
            LoopConfig(quad_degree=21, max_iters=1).validate()

    @pytest.mark.parametrize("degree, accepted", [(-3, False), (0, False), (5, False),
                                                  (6, True)])
    def test_quad_degree_floor(self, degree, accepted):
        # below 2 max(p, k) = 6 the Gram mass of the p1k3 test space is not exact
        config = LoopConfig(p=1, k=3, quad_degree=degree, max_iters=1)
        if accepted:
            config.validate()
        else:
            with pytest.raises(ValueError, match="quad_degree"):
                config.validate()

    @pytest.mark.parametrize("field, value", [("sigma0", 0.0), ("sigma0", -1.0),
                                              ("sigma0", math.nan), ("sigma0", math.inf),
                                              ("alpha", 0.0), ("alpha", -2.0),
                                              ("alpha", math.nan), ("alpha", math.inf)])
    def test_rejects_nonpositive_weights(self, field, value):
        # rejected before the loop builds its ProblemData, which would raise too
        with pytest.raises(ValueError, match=field):
            LoopConfig(max_iters=1, **{field: value}).validate()
        LoopConfig(max_iters=1, **{field: 0.5}).validate()

    @pytest.mark.parametrize("field, value", [("p", 2.0), ("k", 3.0), ("theta", "0.5"),
                                              ("max_dofs", True), ("saturation", 1),
                                              ("sigma0", None), ("mode", 1)])
    def test_rejects_value_of_wrong_type(self, field, value):
        # checked against the field's annotation before any value is used
        config = LoopConfig(**{"max_iters": 1, "k": 4, field: value})
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            config.validate()

    def test_accepts_numpy_numbers_and_ints_for_floats(self):
        LoopConfig(p=np.int64(1), max_dofs=np.int64(500)).validate()
        LoopConfig(alpha=2, sigma0=np.float64(0.5), theta=1, max_iters=1).validate()

    def test_rejects_alpha_that_overflows_the_penalty(self):
        # forms divides the jump penalty by k^alpha; 3.0**647 overflows a double
        LoopConfig(k=3, alpha=646, max_iters=1).validate()
        for alpha in (647, np.float64(647.0)):
            with pytest.raises(ConfigError, match="alpha"):
                LoopConfig(k=3, alpha=alpha, max_iters=1).validate()
        LoopConfig(k=1, alpha=1e300, max_iters=1).validate()

    def test_stops_when_nothing_is_marked(self):
        from dataclasses import replace

        # a zero load gives a zero residual representative: no cell is marked
        bench = experiment1(0.5)
        zero = Benchmark("zero", replace(bench.data, source=const(0.0), inflow_data=const(0.0)),
                         exact=None, exact_grad=None, qoi_region=None,
                         initial_mesh=bench.initial_mesh)
        [record] = adaptive_loop(zero, LoopConfig(max_iters=3))
        assert (record.est_energy, record.marked, record.kkt_residual) == (0.0, 0, 0.0)

    @pytest.mark.parametrize("name, field", [("reaction", "reaction"), ("velocity", "velocity"),
                                             ("source", "source"), ("inflow data", "inflow_data"),
                                             ("exact solution", "exact")])
    def test_non_finite_data_names_its_coefficient(self, name, field):
        # NaN only where x, y > 0.9: before this check a NaN reaction or velocity
        # surfaced as a singular saddle factor, a NaN source or inflow as a
        # non-finite solve, and the reaction floor check let NaN pass
        from dataclasses import replace

        from bubblefem import ProblemDataError, SolverError

        def nan_in_corner(fn):
            def values(x):
                out = np.array(fn(x), dtype=float)
                x = np.atleast_2d(x)
                out[(x[:, 0] > 0.9) & (x[:, 1] > 0.9)] = math.nan
                return out

            return values

        bench = experiment1(0.5)
        if field == "exact":
            bench = replace(bench, exact=nan_in_corner(bench.exact))
        else:
            spoiled = nan_in_corner(getattr(bench.data, field))
            bench = replace(bench, data=replace(bench.data, **{field: spoiled}))
        with pytest.raises(ProblemDataError, match=f"^the {name} is not finite") as err:
            adaptive_loop(bench, LoopConfig(max_iters=1))
        assert isinstance(err.value, ValueError) and not isinstance(err.value, SolverError)

    @pytest.mark.parametrize(
        "bench, config",
        [
            (experiment1(0.01), LoopConfig(max_iters=2, saturation=True)),
            (experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=2)),
        ],
        ids=["exp1-energy-saturation", "exp2-goa"],
    )
    def test_one_ordering_per_iteration(self, monkeypatch, bench, config):
        # K_delta's minimum-degree ordering is the iteration's only one: the
        # second factor (B_full for theta_h, G for eps*) reuses it.  Every
        # factor runs with relax=1: the default's time cliff (solvers'
        # SUPERNODE_RELAX) needs factors far larger than a test can time.
        import bubblefem.solvers

        specs, relaxes = [], []
        splu = bubblefem.solvers.splu

        def spy(matrix, permc_spec=None, relax=None, **options):
            specs.append(permc_spec)
            relaxes.append(relax)
            return splu(matrix, permc_spec=permc_spec, relax=relax, **options)

        monkeypatch.setattr(bubblefem.solvers, "splu", spy)
        records = adaptive_loop(bench, config)
        assert len(records) == 3
        assert specs == ["MMD_AT_PLUS_A", "NATURAL"] * len(records)
        assert relaxes == [1] * len(specs)

    def test_solver_counts_include_enriched_solve(self, monkeypatch):
        import bubblefem.solvers
        from bubblefem import SolverError

        original = bubblefem.solvers._factorize

        def singular_enriched(matrix, label, symmetric=False, order=None):
            if symmetric and label == "enriched stabilized operator":
                raise SolverError(f"{label} factorization failed: zero pivot")
            return original(matrix, label, symmetric, order)

        monkeypatch.setattr(bubblefem.solvers, "_factorize", singular_enriched)
        bench = experiment1(0.5)
        # the saddle solves never fall back here; each enriched solve does, once
        plain = adaptive_loop(bench, LoopConfig(max_iters=1, saturation=False))
        assert [r.solver_fallback for r in plain] == [0, 0]
        records = adaptive_loop(bench, LoopConfig(max_iters=1, saturation=True))
        assert [r.solver_fallback for r in records] == [1, 1]
        assert [r.solver_refine_steps for r in records] == [r.solver_refine_steps for r in plain]

    @pytest.mark.parametrize(
        "bench, config, fallbacks",
        [
            (experiment1(0.5), LoopConfig(max_iters=1, saturation=False), 1),
            (experiment1(0.5), LoopConfig(max_iters=1, saturation=True), 2),
            (experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=1), 3),
        ],
        ids=["exp1-energy", "exp1-energy-saturation", "exp2-goa"],
    )
    def test_solver_counts_cover_every_solve(self, monkeypatch, bench, config, fallbacks):
        import bubblefem.solvers

        # no residual passes a zero gate, so every solve of an iteration falls
        # back once and runs all REFINE_STEPS steps on each of its two factors:
        # the saddle solve, with saturation theta_h's, and in goa mode the
        # adjoint saddle solve and its Gram solve
        monkeypatch.setattr(bubblefem.solvers, "REFINE_TOL", 0.0)
        records = adaptive_loop(bench, config)
        assert [r.solver_fallback for r in records] == [fallbacks] * 2
        steps = 2 * bubblefem.solvers.REFINE_STEPS * fallbacks
        assert [r.solver_refine_steps for r in records] == [steps] * 2

    @pytest.mark.parametrize(
        "make_bench, config",
        [
            (lambda: experiment1(0.01), LoopConfig(max_iters=4, saturation=True)),
            (experiment2, LoopConfig(mode="goa", theta=0.2, max_iters=3)),
        ],
        ids=["exp1-energy-saturation", "exp2-goa"],
    )
    def test_carried_tables_leave_records_bit_identical(self, monkeypatch, make_bench, config):
        # each iteration's tables copy the rows of the cells and facets that
        # refinement kept from the previous iteration's; built afresh
        # instead, every record field must come out the same, bit for bit
        import dataclasses
        import struct
        from dataclasses import replace

        import bubblefem.adapt

        def run():
            bench, points = make_bench(), []
            reaction = bench.data.reaction

            def counted(x):
                points.append(len(x))
                return reaction(x)

            bench.data = replace(bench.data, reaction=counted)
            return adaptive_loop(bench, config), sum(points)

        carried, carried_points = run()
        monkeypatch.setattr(bubblefem.adapt, "FormTables",
                            lambda space, data, degree=None, previous=None:
                            FormTables(space, data, degree))
        afresh, afresh_points = run()
        # the carried run evaluates the reaction only where refinement created cells
        assert carried_points < afresh_points
        assert len(carried) == len(afresh) == config.max_iters + 1

        def bits(value):
            if isinstance(value, float):
                return "nan" if math.isnan(value) else struct.pack("<d", value)
            return value

        for a, b in zip(carried, afresh):
            for field in dataclasses.fields(a):
                assert bits(getattr(a, field.name)) == bits(getattr(b, field.name)), field.name

    def test_last_iteration_frees_coefficients_before_factor(self, monkeypatch):
        # only the next iteration's tables read an iteration's coefficients
        # after its load, so the last iteration, whose K factor is the run's
        # memory peak, holds none while it factors K
        import weakref

        import bubblefem.adapt

        coefficients, held = [], []
        assemble_load = bubblefem.adapt.assemble_load

        def tracked_load(tables):
            coefficients[:] = [weakref.ref(a) for a in tables.coefficients]
            return assemble_load(tables)

        class Tracked(bubblefem.adapt.SaddleFactorization):
            def __init__(self, G, B):
                held.append(any(ref() is not None for ref in coefficients))
                super().__init__(G, B)

        monkeypatch.setattr(bubblefem.adapt, "assemble_load", tracked_load)
        monkeypatch.setattr(bubblefem.adapt, "SaddleFactorization", Tracked)
        adaptive_loop(experiment1(0.5), LoopConfig(max_iters=2, saturation=False))
        assert held == [True, True, False]

    def test_saddle_factor_freed_before_diagnostics(self, monkeypatch):
        import weakref

        import bubblefem.adapt

        factors, alive = [], []

        class Tracked(bubblefem.adapt.SaddleFactorization):
            def __init__(self, G, B):
                super().__init__(G, B)
                factors.append(weakref.ref(self))

        def counting(*args):
            alive.append(sum(ref() is not None for ref in factors))
            return solve_cip_enriched(*args)

        solve_cip_enriched = bubblefem.adapt.solve_cip_enriched
        monkeypatch.setattr(bubblefem.adapt, "SaddleFactorization", Tracked)
        monkeypatch.setattr(bubblefem.adapt, "solve_cip_enriched", counting)
        # K and its LU are gone before the enriched solve factors B_full
        adaptive_loop(experiment1(0.5), LoopConfig(max_iters=1, saturation=True))
        assert alive == [0, 0]

    @pytest.mark.parametrize(
        "bench, config, second",
        [
            (experiment2(), LoopConfig(mode="goa", theta=0.2, max_iters=2), "gram"),
            (experiment1(0.5), LoopConfig(max_iters=2, saturation=True),
             "enriched stabilized operator"),
            (experiment1(0.5), LoopConfig(mode="uniform", p=2, k=4, max_iters=1),
             "enriched stabilized operator"),
        ],
        ids=["exp2-goa", "exp1-energy-saturation", "exp1-uniform"],
    )
    def test_one_sparse_factor_alive_at_a_time(self, monkeypatch, bench, config, second):
        # SuperLU objects cannot be weakly referenced, so each factor is wrapped
        # in a forwarding proxy that can; when a factorization starts, no factor
        # of another operator may be alive: K's LU is gone before the
        # iteration's ``second`` factor, and that one before the next K
        import gc
        import weakref

        import bubblefem.solvers

        class Proxy:
            def __init__(self, lu):
                self._wrapped = lu

            def __getattr__(self, name):
                return getattr(self._wrapped, name)

        factors, built = [], []
        factorize = bubblefem.solvers._factorize

        def spy(matrix, label, symmetric=False, order=None):
            gc.collect()
            alive = {other for other, ref in factors if ref() is not None}
            assert alive <= {label}, f"{sorted(alive)} alive when {label} is factored"
            proxy = Proxy(factorize(matrix, label, symmetric, order))
            factors.append((label, weakref.ref(proxy)))
            built.append(label)
            return proxy

        monkeypatch.setattr(bubblefem.solvers, "_factorize", spy)
        records = adaptive_loop(bench, config)
        assert built == ["saddle system", second] * len(records)

    def test_csv_serialization(self, tmp_path):
        bench = experiment1(0.5)
        records = adaptive_loop(bench, LoopConfig(max_iters=2, saturation=True))
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == len(records) + 1
        # each column holds the AdaptRecord field of its name, two renamed
        renamed = {"iter": "iteration", "err_L2_rel": "err_l2_rel"}
        for row, rec in zip(rows[1:], records):
            for column, text in zip(rows[0], row):
                value = getattr(rec, renamed.get(column, column))
                assert float(text) == value or math.isnan(value) and text == "nan", column

    def test_outdir_artifacts(self, tmp_path):
        bench = experiment1(0.5)
        out = tmp_path / "run"
        adaptive_loop(
            bench,
            LoopConfig(max_iters=1, saturation=False, outdir=str(out), vtk=True,
                       dump_matrices=True),
        )
        assert (out / "records.csv").exists()
        assert (out / "mesh_0000.vtk").exists()
        assert (out / "gram_0000.mtx").exists()
        assert (out / "operator_0000.mtx").exists()


# an exp1 p1k3 loop's records, float fields as hex; with "after", run after
# loops on another space kind and on another volume rule in the same process
RUN_AFTER_OTHER_LOOPS = """
import dataclasses, json, sys
from bubblefem import LoopConfig, adaptive_loop, experiment1


def run(**knobs):
    config = LoopConfig(mode="energy", max_iters=3, saturation=True, **knobs)
    return adaptive_loop(experiment1(0.01), config)


if sys.argv[1] == "after":
    run(p=2, k=4)
    run(p=1, k=3, quad_degree=12)
print(json.dumps([[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)]
                  for r in run(p=1, k=3)]))
"""


class TestReferenceElementPerRun:
    def test_basis_built_and_tabulated_in_first_iteration_only(self, monkeypatch):
        # enriched(2, 5) on a quad_degree of 11 is no other test's space and
        # rule, so the reference element and its tables start cold: the first
        # iteration builds and tabulates them, and the next ones only read them
        import bubblefem.adapt
        import bubblefem.reference as reference

        iterations, calls = [], []
        space_for = bubblefem.adapt.build_space

        def counted_space(mesh, kind):
            iterations.append(kind)
            return space_for(mesh, kind)

        def spy(name, evaluate):
            def counted(exps, points):
                calls.append((len(iterations), name))
                return evaluate(exps, points)

            monkeypatch.setattr(reference, name, counted)

        monkeypatch.setattr(bubblefem.adapt, "build_space", counted_space)
        for name in ("_eval_monomials", "_eval_monomial_gradients"):
            spy(name, getattr(reference, name))
        records = adaptive_loop(experiment1(0.5), LoopConfig(p=2, k=5, quad_degree=11,
                                                             max_iters=2, saturation=True))
        assert len(records) == len(iterations) == 3
        assert {name for _, name in calls} == {"_eval_monomials", "_eval_monomial_gradients"}
        assert {iteration for iteration, _ in calls} == {1}

    def test_no_state_leaks_between_runs(self, tmp_path):
        # the caches hold no state of one run that changes another's records
        import json
        import os
        import pathlib
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
        runs = []
        for order in ("fresh", "after"):
            proc = subprocess.run([sys.executable, "-c", RUN_AFTER_OTHER_LOOPS, order],
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        assert len(runs[0]) == 4
        assert runs[0] == runs[1]
