"""Error indicators, bulk-chasing marking and the adaptive driver.

Energy indicators localize the energy norm of the residual representative
per cell (interior-facet jump contributions split half to each
neighbour, so the squares sum to the global norm exactly).  Goal-oriented
indicators are products of the local energy norms of the primal and
adjoint residual representatives.
"""

import csv
import math
import pathlib
from dataclasses import dataclass, replace

import numpy as np

from .analysis import error_norms, local_energy_products, qoi_error, qoi_reference
from .forms import (
    FormTables,
    ProblemData,
    assemble_gram,
    assemble_load,
    assemble_qoi,
    assemble_stabilized,
    write_matrix_market,
)
from .mesh import refine
from .reference import MAX_QUAD_DEGREE
from .solvers import SaddleFactorization, solve_adjoint, solve_cip_enriched, solve_saddle
from .spaces import build_space, enriched
from .vtkio import write_mesh_txt, write_vtk


@dataclass(frozen=True)
class Indicators:
    """Per-cell nonnegative indicators with total = sqrt(sum of squares)."""

    eta: np.ndarray
    total: float


def energy_indicators(epsilon, tables):
    """Localized energy norm of the residual representative."""
    parts = local_energy_products(epsilon, epsilon, tables)
    parts = np.maximum(parts, 0.0)  # guard roundoff on zero cells
    return Indicators(np.sqrt(parts), float(np.sqrt(parts.sum())))


def goa_indicators(epsilon, eps_star, tables):
    """Product indicators |||eps|||_T |||eps*|||_T and the scalar estimate.

    Returns (indicators, E^2) where E^2 = |(eps, eps*)| in the energy
    inner product.
    """
    pa = np.maximum(local_energy_products(epsilon, epsilon, tables), 0.0)
    pb = np.maximum(local_energy_products(eps_star, eps_star, tables), 0.0)
    pab = local_energy_products(epsilon, eps_star, tables)
    eta = np.sqrt(pa) * np.sqrt(pb)
    return Indicators(eta, float(np.sqrt((eta**2).sum()))), float(abs(pab.sum()))


def dorfler_mark(eta, theta, squared=True):
    """Smallest cell set carrying the requested fraction of the total.

    Greedy selection by descending indicator, ties broken by cell index.
    With ``squared`` the bulk criterion is on eta^2 against theta^2 of
    the total (energy mode); otherwise on eta against theta of the sum
    (goal-oriented product indicators).
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("marking fraction must lie in (0, 1]")
    eta = np.asarray(eta, dtype=float)
    key = eta**2 if squared else eta
    total = key.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(len(eta)), -key))
    csum = np.cumsum(key[order])
    target = (theta**2 if squared else theta) * total
    count = int(np.searchsorted(csum, target * (1.0 - 1e-12)) + 1)
    count = min(count, int(np.count_nonzero(key)))
    return np.sort(order[:count])


# records.csv schema: each column, in file order, and the AdaptRecord field it holds
CSV_SCHEMA = {
    "iter": "iteration",
    "dofs_trial": "dofs_trial",
    "dofs_test": "dofs_test",
    "dofs_total": "dofs_total",
    "est_energy": "est_energy",
    "err_L2_rel": "err_l2_rel",
    "err_triple": "err_triple",
    "err_qoi_rel": "err_qoi_rel",
    "saturation": "saturation",
    "marked": "marked",
}
CSV_COLUMNS = list(CSV_SCHEMA)


@dataclass
class AdaptRecord:
    """One adaptive iteration: sizes, estimates, errors, marking.

    Fields beyond the CSV schema (h_max, kkt_residual, orthogonality,
    est_goa, robustness) are diagnostics used by the verification suite;
    kkt_residual is the max over the iteration's saddle solves (the primal
    one, and the adjoint one in goa mode).  solver_refine_steps and
    solver_fallback count the refinement steps and the fallbacks to the
    pivoted LU over every solve of the iteration: the saddle solves, the
    adjoint's Gram solve in goa mode and the saturation diagnostic's
    enriched solve (see ``solvers.RefinedFactor``), so they tell which
    solver path ran.
    """

    iteration: int
    dofs_trial: int
    dofs_test: int
    dofs_total: int
    est_energy: float
    err_l2_rel: float = math.nan
    err_triple: float = math.nan
    err_qoi_rel: float = math.nan
    saturation: float = math.nan
    marked: int = 0
    h_max: float = math.nan
    kkt_residual: float = math.nan  # normalized by 1 + max|rhs|
    orthogonality: float = math.nan  # normalized by 1 + max|rhs|
    est_goa: float = math.nan
    robustness: float = math.nan  # |theta_h - u_h| in energy norm over est_energy
    solver_refine_steps: int = 0
    solver_fallback: int = 0

    def csv_row(self):
        return [getattr(self, field) for field in CSV_SCHEMA.values()]


def write_records_csv(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.csv_row())


@dataclass
class LoopConfig:
    """Knobs of an adaptive run; at least one stop rule is required."""

    p: int = 1
    k: int = 3
    theta: float | None = None  # None: 0.2 in goa mode, else 0.5
    MODES = ("energy", "goa", "uniform")  # the values of mode; unannotated, so no field
    mode: str = "energy"
    alpha: float = ProblemData.penalty_exponent
    max_dofs: int | None = None
    max_iters: int | None = None
    sigma0: float = ProblemData.gram_weight
    quad_degree: int | None = None
    saturation: bool | None = None  # None: on for non-goa runs with an exact solution
    saturation_max_dofs: int = 20000
    outdir: str | None = None
    vtk: bool = False
    dump_matrices: bool = False

    def resolved_theta(self):
        if self.theta is not None:
            return self.theta
        return 0.2 if self.mode == "goa" else 0.5

    def validate(self):
        if self.p not in (1, 2, 3):
            raise ValueError("trial degree p must be 1, 2 or 3")
        if not (self.k > max(self.p, 2) or self.k <= self.p):
            raise ValueError("bubble degree k must satisfy k > max(p, 2) or k <= p")
        if self.k < 1:
            raise ValueError("bubble degree k must be >= 1")
        # error_norms integrates the enriched space at volume_degree + 2 = 2 max(p, k) + 6
        max_k = (MAX_QUAD_DEGREE - 6) // 2
        if self.k > max_k:
            raise ValueError(
                f"bubble degree k must be at most {max_k}: error norms need quadrature "
                f"degree 2 max(p, k) + 6 <= {MAX_QUAD_DEGREE}"
            )
        # the estimate reads G as the energy norm: its test-space mass must be exact
        min_quad = 2 * max(self.p, self.k)
        if self.quad_degree is not None and not min_quad <= self.quad_degree <= MAX_QUAD_DEGREE:
            raise ValueError(f"quad_degree must lie in [2 max(p, k), {MAX_QUAD_DEGREE}] = "
                             f"[{min_quad}, {MAX_QUAD_DEGREE}]")
        if not 0.0 < self.resolved_theta() <= 1.0:
            raise ValueError("marking fraction theta must lie in (0, 1]")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("penalty exponent alpha must be finite and positive")
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0.0):
            raise ValueError("Gram weight sigma0 must be finite and positive")
        if self.mode not in self.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_dofs is None and self.max_iters is None:
            raise ValueError("either max_dofs or max_iters must be set")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.max_dofs is not None and self.max_dofs < 1:
            raise ValueError("max_dofs must be >= 1")
        if self.saturation_max_dofs < 1:
            raise ValueError("saturation_max_dofs must be >= 1")
        return self


def _diagnose(bench, tables, G, B_full, load, sol, est_energy, saturation, q, qoi_ref):
    """Exact-solution errors, the saturation ratio and robustness of the
    enriched CIP reference theta_h, and the QoI error, measured on the
    iteration's tables; returns the ``AdaptRecord`` fields it measured,
    with the solver path counts of the theta_h solve.
    """
    if bench.exact is None:
        return {}
    theta_h = None
    if saturation:
        theta_h = solve_cip_enriched(B_full, load, tables)
    reps = error_norms([sol.u, theta_h] if saturation else [sol.u], bench.exact, tables)
    diag = {"err_l2_rel": reps[0].l2 / reps[0].exact_l2, "err_triple": reps[0].triple}
    if saturation:
        diag["saturation"] = reps[1].triple / reps[0].triple
        # G induces the energy norm on the test space
        d = theta_h.coefficients - sol.u.coefficients
        diag["robustness"] = math.sqrt(d @ (G @ d)) / est_energy
        diag["solver_refine_steps"] = theta_h.refine_steps
        diag["solver_fallback"] = theta_h.fallbacks
    if qoi_ref is not None:
        diag["err_qoi_rel"] = qoi_error(sol.u, q, qoi_ref)
    return diag


def adaptive_loop(bench, config):
    """SOLVE -> ESTIMATE -> DIAGNOSE -> MARK -> REFINE until the stop rule fires.

    Returns the list of per-iteration records; when ``config.outdir`` is
    set the records are also serialized as CSV there together with any
    requested per-iteration dumps.
    """
    config.validate()
    mesh = bench.initial_mesh()
    data = replace(
        bench.data,
        penalty_order=config.k,
        penalty_exponent=config.alpha,
        gram_weight=config.sigma0,
    )
    track_sat = (
        config.saturation
        if config.saturation is not None
        else (bench.exact is not None and config.mode != "goa")
    )
    goa = config.mode == "goa"
    if goa and bench.qoi_region is None:
        raise ValueError("goal-oriented mode needs a benchmark with a QoI region")

    qoi_ref = None
    if goa and bench.exact is not None:
        qoi_ref = qoi_reference(bench.exact, bench.qoi_region)

    outdir = None
    if config.outdir is not None:
        outdir = pathlib.Path(config.outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    records = []
    while True:
        test = build_space(mesh, enriched(config.p, config.k))
        # built lazily: the first assembler to read a table pays for it
        tables = FormTables(test, data, config.quad_degree)
        G = assemble_gram(tables)
        # the test space nests the trial space first: B is B_full's trial block
        B_full = assemble_stabilized(tables)
        # only G and B_full read the jump penalty; free it before the LU
        del tables.jump_penalty
        load = assemble_load(tables)
        factor = SaddleFactorization(G, B_full[:, : test.n_trial])
        sol = solve_saddle(factor, load, test)

        est_goa, q, kkt_residual = math.nan, None, sol.kkt_residual
        if goa:
            q = assemble_qoi(tables, bench.qoi_region)
            adj = solve_adjoint(factor, q, B_full, test)
            indicators, goa_sq = goa_indicators(sol.epsilon, adj.eps_star, tables)
            est_goa = math.sqrt(goa_sq)
            kkt_residual = max(kkt_residual, adj.kkt_residual)
        else:
            indicators = energy_indicators(sol.epsilon, tables)

        solved = (factor, factor.gram) if goa else (factor,)
        refine_steps = sum(f.refine_steps for f in solved)
        fallbacks = sum(f.fallbacks for f in solved)
        del factor, solved  # K and its LU leave memory before the diagnostics factor B_full
        dofs_total = test.n_trial + test.dim
        diag = _diagnose(bench, tables, G, B_full, load, sol, indicators.total,
                         track_sat and dofs_total <= config.saturation_max_dofs, q, qoi_ref)
        record = AdaptRecord(
            iteration=len(records),
            dofs_trial=test.n_trial,
            dofs_test=test.dim,
            dofs_total=dofs_total,
            est_energy=indicators.total,
            h_max=float(mesh.cell_diameters.max()),
            kkt_residual=kkt_residual,
            orthogonality=sol.orthogonality,
            est_goa=est_goa,
            **diag,
        )
        # the saddle and (goa) Gram solves' path, added to the enriched solve's from _diagnose
        record.solver_refine_steps += refine_steps
        record.solver_fallback += fallbacks
        records.append(record)

        if outdir is not None:
            if config.vtk:
                point_u = sol.u.coefficients[: len(mesh.vertices)]
                write_vtk(
                    outdir / f"mesh_{record.iteration:04d}.vtk",
                    mesh,
                    cell_data={"indicator": indicators.eta},
                    point_data={"u": point_u},
                )
            if config.dump_matrices:
                write_matrix_market(outdir / f"gram_{record.iteration:04d}.mtx", G)
                write_matrix_market(outdir / f"operator_{record.iteration:04d}.mtx",
                                    B_full[:, : test.n_trial])

        if (config.max_dofs is not None and dofs_total >= config.max_dofs) or (
            config.max_iters is not None and record.iteration >= config.max_iters
        ):
            break
        if config.mode == "uniform":
            marked = np.arange(len(mesh.cells))
        else:
            marked = dorfler_mark(indicators.eta, config.resolved_theta(), squared=not goa)
        record.marked = len(marked)
        if len(marked) == 0:
            break
        mesh = refine(mesh, marked)
        if config.mode == "uniform":
            # the second full bisection sweep: together they halve h and quadruple the cells
            mesh = refine(mesh, np.arange(len(mesh.cells)))

    if outdir is not None:
        write_records_csv(outdir / "records.csv", records)
        write_mesh_txt(outdir / "final_mesh.txt", mesh)
    return records
