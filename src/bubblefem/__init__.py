"""Adaptive stabilized finite elements for 2D advection-reaction problems.

Residual minimization of a continuous-interior-penalty formulation onto
bubble-enriched continuous test spaces, with built-in error estimation
and energy-based / goal-oriented mesh adaptivity.
"""

from .adapt import (
    AdaptRecord,
    Indicators,
    LoopConfig,
    adaptive_loop,
    dorfler_mark,
    energy_indicators,
    goa_indicators,
    write_records_csv,
)
from .analysis import (
    NormReport,
    error_norms,
    l2_project,
    local_energy_products,
    oswald_interpolate,
    qoi_error,
    qoi_reference,
)
from .benchmarks import BENCHMARKS, Benchmark, experiment1, experiment2, get_benchmark
from .forms import (
    FormTables,
    ProblemData,
    ProblemDataError,
    Rectangle,
    assemble_gram,
    assemble_load,
    assemble_mass,
    assemble_qoi,
    assemble_stabilized,
    write_matrix_market,
)
from .mesh import (
    CHARACTERISTIC,
    INFLOW,
    OUTFLOW,
    BoundaryClassification,
    Mesh,
    build_structured_mesh,
    classify_boundary,
    refine,
)
from .reference import (
    QuadratureRule,
    ReferenceBasis,
    bubble_basis,
    edge_rule,
    lagrange_basis,
    triangle_rule,
)
from .solvers import (
    SaddleFactorization,
    SaddleSolution,
    SolverError,
    saddle_matrix,
    solve_adjoint,
    solve_cip_enriched,
    solve_saddle,
)
from .spaces import (
    DiscreteFunction,
    FunctionSpace,
    broken_lagrange,
    build_space,
    enriched,
    inject_trial,
    trial_lagrange,
)
from .vtkio import write_mesh_txt, write_vtk

__version__ = "0.1.0"
