"""Collocation least-squares SVR for differential-algebraic systems.

Approximates each unknown of an interval or rectangle problem in a shifted
Legendre basis, collocates the equations at mapped Legendre roots, and
trains the coefficients through a regularized least-squares support vector
formulation.  Handles integer derivatives, Caputo fractional derivatives,
Volterra integral terms, algebraic couplings, and scalar nonlinear
closures.
"""

from .benchmarks import (
    CASES,
    BenchmarkCase,
    BenchmarkResult,
    SweepResult,
    plot_rows,
    render_result,
    run_case,
    self_check,
    sweep,
    write_csv,
)
from .errors import (
    DaeSvrError,
    DomainError,
    EvaluationError,
    MissingExact,
    NonConvergence,
    NotPositiveDefinite,
    ParseError,
    SelfCheckError,
    ShapeError,
    ValidationError,
)
from .fractional import caputo_l1, caputo_table
from .legendre import (
    BasisSpec,
    QuadratureRule,
    gauss_quadrature,
    legendre_eval,
    legendre_roots,
    legendre_table,
    shift_from_canonical,
    shift_to_canonical,
)
from .model import (
    Caputo,
    DaeProblem,
    Derivative,
    Equation,
    ExactCandidate,
    Field,
    Identity,
    OperatorTerm,
    SideCondition,
    VolterraIntegral,
    is_linear,
    residuals,
)
from .highprec import InterpolantModel, solve_interpolant
from .schema import BUILTIN_PROBLEMS, builtin_names, load_problem, serialize_problem
from .solver import (
    CollocationGrid,
    ResidualReport,
    SolverConfig,
    TrainedModel,
    assemble,
    basis_counts,
    build_grid,
    gauss_newton,
    report,
    solve,
    solve_linear,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PROBLEMS",
    "BasisSpec",
    "BenchmarkCase",
    "BenchmarkResult",
    "CASES",
    "Caputo",
    "CollocationGrid",
    "DaeProblem",
    "DaeSvrError",
    "Derivative",
    "DomainError",
    "Equation",
    "EvaluationError",
    "ExactCandidate",
    "Field",
    "Identity",
    "InterpolantModel",
    "MissingExact",
    "NonConvergence",
    "NotPositiveDefinite",
    "OperatorTerm",
    "ParseError",
    "QuadratureRule",
    "ResidualReport",
    "SelfCheckError",
    "ShapeError",
    "SideCondition",
    "SolverConfig",
    "SweepResult",
    "TrainedModel",
    "ValidationError",
    "VolterraIntegral",
    "assemble",
    "basis_counts",
    "build_grid",
    "builtin_names",
    "caputo_l1",
    "caputo_table",
    "gauss_newton",
    "gauss_quadrature",
    "is_linear",
    "legendre_eval",
    "legendre_roots",
    "legendre_table",
    "load_problem",
    "plot_rows",
    "render_result",
    "report",
    "residuals",
    "run_case",
    "self_check",
    "serialize_problem",
    "shift_from_canonical",
    "shift_to_canonical",
    "solve",
    "solve_interpolant",
    "solve_linear",
    "sweep",
    "write_csv",
]
