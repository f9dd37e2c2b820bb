"""Error indicators, bulk-chasing marking and the adaptive driver.

Energy indicators localize the energy norm of the residual representative
per cell (interior-facet jump contributions split half to each
neighbour, so the squares sum to the global norm exactly).  Goal-oriented
indicators are products of the local energy norms of the primal and
adjoint residual representatives.
"""

import csv
import math
import numbers
import pathlib
import typing
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import energy_products, error_norms, local_energy_products, qoi_error, qoi_reference
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
from .solvers import (SaddleFactorization, solve_adjoint, solve_adjoint_saddle,
                      solve_cip_enriched, solve_saddle)
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
    inner product.  Each representative is contracted once per energy term.
    """
    pa, pb, pab = energy_products([epsilon, eps_star], [(0, 0), (1, 1), (0, 1)], tables)
    eta = np.sqrt(np.maximum(pa, 0.0)) * np.sqrt(np.maximum(pb, 0.0))
    return Indicators(eta, float(np.sqrt((eta**2).sum()))), float(abs(pab.sum()))


def dorfler_mark(eta, theta, squared=True):
    """Smallest cell set carrying the requested fraction of the total.

    Greedy selection by descending indicator, ties broken by cell index.
    With ``squared`` the bulk criterion is on eta^2 against theta^2 of
    the total (energy mode); otherwise on eta against theta of the sum
    (goal-oriented product indicators).  Raises unless every indicator is
    finite and nonnegative.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("marking fraction must lie in (0, 1]")
    eta = np.asarray(eta, dtype=float)
    if not ((eta >= 0.0) & (eta < math.inf)).all():
        raise ValueError("indicators must be finite and nonnegative")
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

    ``adaptive_loop`` builds it with the sizes and h_max; its steps write the
    rest: ``_solve_and_estimate`` the estimates, kkt_residual (the max over
    the primal and, in goa mode, adjoint saddle solves) and orthogonality,
    ``_diagnose`` the errors, saturation and robustness, ``_mark_and_refine``
    marked, and the two solving steps the counts of their solves.  Fields
    beyond the CSV schema (h_max, kkt_residual, orthogonality, est_goa,
    robustness and the solver counts) are diagnostics used by the
    verification suite.  solver_refine_steps and solver_fallback count the
    refinement steps and the fallbacks to the pivoted LU over every solve of
    the iteration: the saddle solves, the Gram solve of eps* in goa mode and
    theta_h's (see ``solvers.RefinedFactor``), so they tell which solver
    path ran.
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


class ConfigError(ValueError):
    """A run setting of the wrong type or out of range."""


# the values each annotated type admits; a bool is never a number (checked apart)
_ADMITS = {int: numbers.Integral, float: numbers.Real}


@dataclass
class LoopConfig:
    """Knobs of an adaptive run; at least one stop rule is required.  Each
    field's annotation types its value in ``validate`` and its CLI flag."""

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
        """Raise ConfigError naming a field of the wrong type, then one out of range."""
        for field in fields(self):
            value = getattr(self, field.name)
            allowed = typing.get_args(field.type) or (field.type,)
            if isinstance(value, bool) and bool not in allowed or not any(
                    isinstance(value, _ADMITS.get(t, t)) for t in allowed):
                expected = getattr(field.type, "__name__", field.type)
                raise ConfigError(f"{field.name} must be {expected}, got {value!r}")
        if self.p not in (1, 2, 3):
            raise ConfigError("trial degree p must be 1, 2 or 3")
        if not (self.k > max(self.p, 2) or self.k <= self.p):
            raise ConfigError("bubble degree k must satisfy k > max(p, 2) or k <= p")
        if self.k < 1:
            raise ConfigError("bubble degree k must be >= 1")
        # error_norms integrates the enriched space at volume_degree + 2 = 2 max(p, k) + 6
        max_k = (MAX_QUAD_DEGREE - 6) // 2
        if self.k > max_k:
            raise ConfigError(
                f"bubble degree k must be at most {max_k}: error norms need quadrature "
                f"degree 2 max(p, k) + 6 <= {MAX_QUAD_DEGREE}"
            )
        # the estimate reads G as the energy norm: its test-space mass must be exact
        min_quad = 2 * max(self.p, self.k)
        if self.quad_degree is not None and not min_quad <= self.quad_degree <= MAX_QUAD_DEGREE:
            raise ConfigError(f"quad_degree must lie in [2 max(p, k), {MAX_QUAD_DEGREE}] = "
                              f"[{min_quad}, {MAX_QUAD_DEGREE}]")
        if not 0.0 < self.resolved_theta() <= 1.0:
            raise ConfigError("marking fraction theta must lie in (0, 1]")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ConfigError("penalty exponent alpha must be finite and positive")
        try:
            float(self.k) ** float(self.alpha)  # the jump penalty divides by k^alpha
        except OverflowError:
            raise ConfigError(f"penalty exponent alpha overflows k^alpha (k = {self.k})") from None
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0.0):
            raise ConfigError("Gram weight sigma0 must be finite and positive")
        if self.mode not in self.MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.max_dofs is None and self.max_iters is None:
            raise ConfigError("either max_dofs or max_iters must be set")
        if self.max_iters is not None and self.max_iters < 0:
            raise ConfigError("max_iters must be >= 0")
        if self.max_dofs is not None and self.max_dofs < 1:
            raise ConfigError("max_dofs must be >= 1")
        if self.saturation_max_dofs < 1:
            raise ConfigError("saturation_max_dofs must be >= 1")
        return self


# the solve step's results that the later steps read; q is None outside goa mode
_Solved = namedtuple("_Solved", "G B_full load q u eta test_order")


def _count_solves(record, *solvers):
    """Add the solver counts of the ``RefinedFactor``s ``solvers`` to the record."""
    record.solver_refine_steps += sum(s.refine_steps for s in solvers)
    record.solver_fallback += sum(s.fallbacks for s in solvers)


def _solve_and_estimate(record, tables, qoi_region, last):
    """Assemble on ``tables``, solve the saddle system and, given the
    ``qoi_region`` (goa mode), the adjoint one on one factor of K, and write
    the estimates and residuals into the record.  K's LU dies once those
    solves are counted, before the second factor (G's for eps* here, B_full's
    in ``_diagnose``).  On the ``last`` iteration, whose K factor is the run's
    memory peak, the tables' coefficients, which only a next iteration would
    read, are freed before it."""
    G = assemble_gram(tables)
    # the test space nests the trial space first: B is B_full's trial block
    B_full = assemble_stabilized(tables)
    # only G and B_full read the pattern and J's data on it; free them before the LU
    del tables.pattern
    load = assemble_load(tables)
    if last:
        tables.drop("coefficients")
    q = None if qoi_region is None else assemble_qoi(tables, qoi_region)
    factor = SaddleFactorization(G, B_full[:, : tables.space.n_trial])
    sol = solve_saddle(factor, load, tables.space)
    adj = None if q is None else solve_adjoint_saddle(factor, q, tables.space)
    test_order = factor.test_order
    _count_solves(record, factor)
    del factor  # the last reference to K's LU
    record.kkt_residual, record.orthogonality = sol.kkt_residual, sol.orthogonality
    if q is None:
        indicators = energy_indicators(sol.epsilon, tables)
    else:
        eps_star, gram = solve_adjoint(G, B_full, q, adj.nu_star, test_order)
        _count_solves(record, gram)
        indicators, goa_sq = goa_indicators(sol.epsilon, eps_star, tables)
        record.est_goa = math.sqrt(goa_sq)
        record.kkt_residual = max(record.kkt_residual, adj.kkt_residual)
    record.est_energy = indicators.total
    return _Solved(G, B_full, load, q, sol.u, indicators.eta, test_order)


def _diagnose(record, exact, tables, solved, qoi_ref, saturation):
    """Write the errors against ``exact``, the QoI error given ``qoi_ref`` and,
    with ``saturation``, the saturation ratio and robustness of the enriched
    CIP reference theta_h into the record.  theta_h factors B_full, K's LU
    gone, on K's ``test_order``, so no second ordering runs."""
    u = solved.u
    theta_h = None
    if saturation:
        theta_h, factor = solve_cip_enriched(solved.B_full, solved.load, tables, solved.test_order)
        _count_solves(record, factor)
    reps = error_norms([u, theta_h] if saturation else [u], exact, tables)
    record.err_l2_rel, record.err_triple = reps[0].l2 / reps[0].exact_l2, reps[0].triple
    if saturation:
        record.saturation = reps[1].triple / reps[0].triple
        # G induces the energy norm on the test space
        d = theta_h.coefficients - u.coefficients
        record.robustness = math.sqrt(d @ (solved.G @ d)) / record.est_energy
    if qoi_ref is not None:
        record.err_qoi_rel = qoi_error(u, solved.q, qoi_ref)


def _write_iteration(outdir, config, record, mesh, solved):
    """The requested files: the VTK mesh with the indicators and u_h at the
    vertices, and G and B as Matrix Market."""
    name = f"{record.iteration:04d}"
    if config.vtk:
        write_vtk(outdir / f"mesh_{name}.vtk", mesh, cell_data={"indicator": solved.eta},
                  point_data={"u": solved.u.coefficients[: len(mesh.vertices)]})
    if config.dump_matrices:
        write_matrix_market(outdir / f"gram_{name}.mtx", solved.G)
        write_matrix_market(outdir / f"operator_{name}.mtx", solved.B_full[:, : record.dofs_trial])


def _mark_and_refine(record, mesh, eta, config):
    """Mark by the bulk criterion on ``eta``, or every cell in uniform mode,
    write the count into the record and refine; returns ``mesh`` itself
    when no cell is marked."""
    if config.mode == "uniform":
        record.marked = len(mesh.cells)
        # two full bisection sweeps: together they halve h and quadruple the cells
        for _ in range(2):
            mesh = refine(mesh, np.arange(len(mesh.cells)))
        return mesh
    marked = dorfler_mark(eta, config.resolved_theta(), squared=config.mode != "goa")
    record.marked = len(marked)
    return refine(mesh, marked)


def adaptive_loop(bench, config):
    """SOLVE -> ESTIMATE -> DIAGNOSE -> MARK -> REFINE until the stop rule fires.

    Each iteration's record starts with its sizes and the steps write the
    rest.  Returns the records; with ``config.outdir`` set they are also
    written there as CSV, with any requested per-iteration dumps.
    """
    config.validate()
    mesh = bench.initial_mesh()
    data = replace(bench.data, penalty_order=config.k, penalty_exponent=config.alpha,
                   gram_weight=config.sigma0)
    goa = config.mode == "goa"
    if goa and bench.qoi_region is None:
        raise ValueError("goal-oriented mode needs a benchmark with a QoI region")
    # only runs with an exact solution reach the diagnostics
    track_sat = not goa if config.saturation is None else config.saturation
    qoi_ref = None
    if goa and bench.exact is not None:
        qoi_ref = qoi_reference(bench.exact, bench.qoi_region)
    outdir = None
    if config.outdir is not None:
        outdir = pathlib.Path(config.outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    records, tables = [], None
    while True:
        test = build_space(mesh, enriched(config.p, config.k))
        record = AdaptRecord(len(records), test.n_trial, test.dim, test.n_trial + test.dim,
                             est_energy=math.nan, h_max=float(mesh.cell_diameters.max()))
        records.append(record)
        # built lazily: the first assembler to read a table pays for it, and
        # only for the cells and facets that the last refinement created
        tables = FormTables(test, data, config.quad_degree, tables)
        last = (config.max_dofs is not None and record.dofs_total >= config.max_dofs
                or config.max_iters is not None and record.iteration >= config.max_iters)
        solved = _solve_and_estimate(record, tables, bench.qoi_region if goa else None, last)
        if bench.exact is not None:
            _diagnose(record, bench.exact, tables, solved, qoi_ref,
                      track_sat and record.dofs_total <= config.saturation_max_dofs)
        if outdir is not None:
            _write_iteration(outdir, config, record, mesh, solved)
        if last:
            break
        mesh = _mark_and_refine(record, mesh, solved.eta, config)
        if record.marked == 0:
            break
        del solved  # this iteration's operators leave memory before the next K is factored

    if outdir is not None:
        write_records_csv(outdir / "records.csv", records)
        write_mesh_txt(outdir / "final_mesh.txt", mesh)
    return records
