"""Benchmark suite: five built-in systems with reference error tables.

Each case bundles a built-in problem with the probe points its reference
table uses, the published relative errors at those probes, and a default
solver configuration.  Reference tables were produced with extended
precision arithmetic, so the pass rules allow a fixed multiplier (100x,
documented per case) over the published numbers; `example4` additionally
gets an absolute floor because its published rows sit below what double
precision can resolve at all.

Default gamma values are calibrated per case rather than taken from the
reference setup: with double precision arithmetic the regularization
penalty has to push constraint violations below the discretization error,
which happens several orders of magnitude later than in extended
precision.  The calibrated values sit at the flat part of each case's
error-vs-gamma curve.

Before any solve, `self_check` verifies that the case's exact solution, read
from its text alone, satisfies the case's equations at the probes.

Every run is deterministic: at a fixed BLAS thread count, identical inputs
produce identical reports and identical CSV bytes.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import SelfCheckError, ValidationError
from .highprec import _unsupported, solve_interpolant
from .model import DaeProblem, ExactCandidate, residual_at
from .schema import load_problem
from .solver import ResidualReport, SolverConfig, report, solve

__all__ = [
    "CASES",
    "BenchmarkCase",
    "BenchmarkResult",
    "SweepResult",
    "case_names",
    "plot_rows",
    "render_result",
    "run_case",
    "self_check",
    "sweep",
    "write_csv",
]

SELF_CHECK_TOL = 1e-10

PROBES_1D = (0.2, 0.4, 0.6, 0.8, 1.0)
PROBES_2D = ((0.02, 0.02), (0.04, 0.04), (0.06, 0.06), (0.08, 0.08), (0.1, 0.1))


@dataclass(frozen=True)
class BenchmarkCase:
    """One built-in system plus its reference data and pass rules."""

    name: str
    config: SolverConfig
    probes: tuple
    # reference[m][unknown] -> tuple of published relative errors at probes
    reference: dict
    # per-unknown multiplier on the published relative error (default 100)
    multipliers: dict = field(default_factory=dict)
    # per-unknown absolute l2 bounds over the probes, or None
    l2_bounds: Optional[tuple] = None
    # absolute-error floor per probe row (None: compare relative errors)
    abs_floor: Optional[float] = None

    def bound_multiplier(self, unknown: int) -> float:
        return self.multipliers.get(unknown, 100.0)


@dataclass
class BenchmarkResult:
    """Outcome of one solve: error report, pass verdict, timing."""

    name: str
    config: SolverConfig
    mode: str                      # "dual" or "interpolant"
    report: Optional[ResidualReport]
    passed: Optional[bool]         # None when no reference applies
    failures: tuple = ()
    duration: float = 0.0
    error: Optional[str] = None
    model: object = field(default=None, repr=False)
    problem: Optional[DaeProblem] = field(default=None, repr=False)

    @property
    def label(self) -> str:
        g = self.config.gamma if self.mode == "dual" else math.inf
        return f"{self.name}[m={self.config.m},gamma={g:g}]"


@dataclass
class SweepResult:
    """Grid of runs over (m, gamma) pairs; failed cells carry their error."""

    name: str
    cells: list

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)


# ---------------------------------------------------------------------------
# Reference tables: published relative errors at the probe points.

_REF_EX1 = {
    10: {
        0: (1.8e-6, 1.6e-7, 1.2e-7, 1.7e-7, 1.6e-8),
        1: (3.5e-7, 1.6e-6, 1.5e-6, 3.6e-8, 8.9e-8),
        2: (2.3e-5, 1.2e-7, 9.8e-6, 1.2e-5, 1.7e-5),
    }
}

_REF_EX2 = {
    14: {
        0: (1.1e-4, 2.8e-5, 5.5e-6, 1.5e-6, 7.3e-7),
        1: (2.7e-3, 8.0e-4, 7.3e-4, 5.5e-4, 1.3e-2),
    }
}

_REF_EX3 = {
    10: {
        0: (1.3e-5, 1.5e-5, 2.1e-6, 1.7e-6, 1.0e-6),
        1: (8.2e-6, 7.4e-7, 9.9e-8, 3.8e-7, 3.1e-7),
        2: (8.8e-6, 2.1e-6, 1.4e-6, 2.1e-6, 8.4e-6),
    }
}

_REF_EX4 = {
    10: {
        0: (2.8e-13, 2.7e-13, 3.3e-14, 2.8e-14, 1.2e-15),
        1: (1.9e-15, 7.6e-16, 1.1e-15, 3.0e-15, 6.4e-17),
        2: (1.5e-14, 2.0e-14, 1.0e-14, 2.9e-15, 2.4e-14),
    }
}

_REF_EX5 = {
    6: {
        0: (3.2e-7, 2.9e-7, 2.5e-7, 2.1e-7, 1.8e-7),
        1: (7.8e-6, 6.8e-6, 5.8e-6, 4.9e-6, 4.2e-6),
        2: (3.9e-4, 1.6e-4, 9.5e-5, 6.0e-5, 4.0e-5),
    },
    8: {
        0: (2.9e-9, 2.1e-9, 1.4e-9, 8.7e-10, 4.0e-10),
        1: (3.9e-8, 1.9e-8, 5.1e-9, 5.2e-9, 1.2e-8),
        2: (1.9e-6, 4.8e-7, 8.3e-8, 6.3e-8, 1.1e-7),
    },
    10: {
        0: (5.2e-13, 3.6e-13, 2.5e-13, 1.7e-13, 1.1e-13),
        1: (2.8e-11, 1.7e-11, 9.5e-12, 4.6e-12, 1.5e-12),
        2: (1.3e-9, 4.2e-10, 1.5e-10, 5.5e-11, 1.5e-11),
    },
}

CASES = {
    "example1": BenchmarkCase(
        name="example1",
        config=SolverConfig(m=10, gamma=1e8),
        probes=PROBES_1D,
        reference=_REF_EX1,
    ),
    "example2": BenchmarkCase(
        name="example2",
        config=SolverConfig(m=14, gamma=1e8),
        probes=PROBES_1D,
        reference=_REF_EX2,
        multipliers={1: 10.0},
    ),
    "example3": BenchmarkCase(
        name="example3",
        config=SolverConfig(m=10, gamma=1e6),
        probes=PROBES_1D,
        reference=_REF_EX3,
        l2_bounds=(100 * 2.2e-6, 100 * 5.3e-7, 100 * 7.4e-6),
    ),
    "example4": BenchmarkCase(
        name="example4",
        config=SolverConfig(m=10, gamma=1e9),
        probes=PROBES_1D,
        reference=_REF_EX4,
        l2_bounds=(1e-8, 1e-8, 1e-8),
        abs_floor=1e-9,
    ),
    "example5": BenchmarkCase(
        name="example5",
        config=SolverConfig(m=6, gamma=1e11),
        probes=PROBES_2D,
        reference=_REF_EX5,
    ),
}


def case_names() -> list:
    return list(CASES)


def self_check(name: str, problem: DaeProblem, probes: Sequence) -> float:
    """Verify the exact solution, read from its text alone (`ExactCandidate`),
    satisfies every equation at probes; `name` labels the diagnostic.

    Returns the worst absolute residual; raises SelfCheckError above
    SELF_CHECK_TOL naming the equation and point, and MissingExact when
    the problem states no exact solution.
    """
    candidate = ExactCandidate(problem)
    worst, where = 0.0, None
    for i in range(problem.unknowns):
        for pt in probes:
            r = abs(residual_at(problem, i, candidate, pt))
            if r > worst:
                worst, where = r, (i, pt)
    if worst > SELF_CHECK_TOL:
        raise SelfCheckError(
            f"{name}: exact solution violates equation {where[0]} at "
            f"{where[1]} with residual {worst:.3e} (tolerance {SELF_CHECK_TOL:g}); "
            "the encoded system and its exact solution disagree"
        )
    return worst


# ---------------------------------------------------------------------------
# Pass rules.

def _apply_bounds(case: BenchmarkCase, rep: ResidualReport, m: int) -> tuple:
    """(passed, failures) for a report against the case's reference data."""
    failures = []
    ref = case.reference.get(m)
    checked = False
    if ref is not None:
        checked = True
        for u, table in ref.items():
            mult = case.bound_multiplier(u)
            for i, row in enumerate(rep.rows[u]):
                if case.abs_floor is not None:
                    bound = max(mult * table[i] * abs(row.exact), case.abs_floor)
                    ok = row.abs_err <= bound
                    kind, got = "abs", row.abs_err
                else:
                    bound = mult * table[i]
                    ok = row.rel_err <= bound
                    kind, got = "rel", row.rel_err
                if not ok:
                    failures.append(
                        f"u{u + 1} at {row.point}: {kind} error {got:.3e} "
                        f"exceeds bound {bound:.3e}"
                    )
    if case.l2_bounds is not None:
        checked = True
        for u, bound in enumerate(case.l2_bounds):
            if rep.l2[u] > bound:
                failures.append(
                    f"u{u + 1}: l2 error {rep.l2[u]:.3e} exceeds bound {bound:.3e}"
                )
    if not checked:
        return None, ()
    return not failures, tuple(failures)


# ---------------------------------------------------------------------------
# Runs.

def _make_config(case: BenchmarkCase, overrides: dict) -> SolverConfig:
    try:
        return replace(case.config, **overrides)
    except TypeError as err:
        raise ValidationError(f"unknown solver option in overrides: {err}") from err


def run_case(name: str, **overrides) -> BenchmarkResult:
    """Solve one built-in case and grade it against its reference table.

    Keyword overrides are SolverConfig fields (m, gamma, degree, ...).
    The case's exact solution is verified against its own equations before
    solving; a violation aborts the run with a diagnostic.
    """
    case = CASES.get(name)
    if case is None:
        raise ValidationError(f"unknown benchmark case {name!r}; choose from {case_names()}")
    config = _make_config(case, overrides)
    problem = load_problem(name)
    self_check(name, problem, case.probes)
    return _graded_run(case, problem, config)


def _graded_run(
    case: BenchmarkCase, problem: DaeProblem, config: SolverConfig, digits: Optional[int] = None
) -> BenchmarkResult:
    """Solve (in extended precision when `digits` is given), report at the
    case's probes and grade the report against the case's reference data."""
    t0 = time.perf_counter()
    if digits is None:
        model = solve(problem, config)
    else:
        model = solve_interpolant(problem, config, digits=digits)
    rep = report(model, case.probes)
    duration = time.perf_counter() - t0
    passed, failures = _apply_bounds(case, rep, config.m)
    return BenchmarkResult(
        name=case.name,
        config=config,
        mode="dual" if digits is None else "interpolant",
        report=rep,
        passed=passed,
        failures=failures,
        duration=duration,
        model=model,
        problem=problem,
    )


def sweep(
    name: str,
    m_values: Sequence[int],
    gamma_values: Optional[Sequence[float]] = None,
    digits: int = 40,
) -> SweepResult:
    """Run a case over a grid of m (and optionally gamma) values.

    With gamma_values omitted, problems made of identity and derivative
    terms only are re-solved through the extended-precision interpolation
    limit, which is the only way the fine end of an m-sweep is resolvable
    at all (see the highprec module); other problems use the case's default
    gamma on the double precision path.  Individual cell failures are
    recorded in their cell and the sweep continues.
    """
    case = CASES.get(name)
    if case is None:
        raise ValidationError(f"unknown benchmark case {name!r}; choose from {case_names()}")
    gammas = [case.config.gamma] if gamma_values is None else gamma_values
    # every cell's configuration is checked before any cell runs
    configs = [replace(case.config, m=m, gamma=g) for m in m_values for g in gammas]
    cells = []
    if not configs:
        return SweepResult(name=name, cells=cells)
    problem = load_problem(name)
    self_check(name, problem, case.probes)
    use_interpolant = gamma_values is None and _unsupported(problem) is None
    for config in configs:
        try:
            cells.append(_graded_run(case, problem, config, digits if use_interpolant else None))
        except Exception as err:  # record the cell, keep sweeping
            cells.append(
                BenchmarkResult(
                    name=name,
                    config=config,
                    mode="interpolant" if use_interpolant else "dual",
                    report=None,
                    passed=None,
                    error=f"{type(err).__name__}: {err}",
                    problem=problem,
                )
            )
    return SweepResult(name=name, cells=cells)


# ---------------------------------------------------------------------------
# Output: CSV, plot data, stdout tables.

CSV_COLUMNS = ("case", "unknown", "point_x", "point_t", "exact", "approx", "rel_err", "abs_err")


def _point_xt(problem_is_2d: bool, point) -> tuple:
    if problem_is_2d:
        return repr(float(point[0])), repr(float(point[1]))
    return "", repr(float(point))


def _reported(results) -> list:
    """One result, a sweep or a list of results, as a list of the results
    that carry a report (failed sweep cells carry none)."""
    if isinstance(results, BenchmarkResult):
        results = [results]
    return [res for res in results if res.report is not None]


def _write_rows(path_or_file, columns, rows) -> None:
    """Write `columns` as the header, then `rows`, deterministically."""

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)

    if hasattr(path_or_file, "write"):
        emit(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


def csv_rows(results, label_with_config: bool = False) -> list:
    """Rows (lists of strings) for one or more results, CSV_COLUMNS order."""
    rows = []
    for res in _reported(results):
        case_label = res.label if label_with_config else res.name
        for u, urows in enumerate(res.report.rows):
            for row in urows:
                px, pt = _point_xt(res.problem.is_2d, row.point)
                rows.append(
                    [
                        case_label,
                        f"u{u + 1}",
                        px,
                        pt,
                        repr(float(row.exact)),
                        repr(float(row.approx)),
                        repr(float(row.rel_err)),
                        repr(float(row.abs_err)),
                    ]
                )
    return rows


def write_csv(results, path_or_file, label_with_config: bool = False) -> None:
    """Write one result, a sweep or a list as CSV with the fixed column set."""
    _write_rows(path_or_file, CSV_COLUMNS, csv_rows(results, label_with_config=label_with_config))


PLOT_COLUMNS = ("case", "unknown", "point_x", "point_t", "abs_err")


def plot_rows(result: BenchmarkResult, points_1d: int = 201, points_2d: int = 21) -> list:
    """Per-unknown absolute-error series on a uniform grid, for plotting."""
    problem = result.problem
    model = result.model
    if model is None:
        raise ValidationError("result carries no model to sample")
    if problem.exact is None:
        raise ValidationError("plot data needs a problem with an exact solution")
    rows = []
    if problem.is_2d:
        (xlo, xhi), (tlo, thi) = problem.domain
        xs = np.linspace(xlo, xhi, points_2d)
        ts = np.linspace(tlo, thi, points_2d)
        points = [(float(x), float(t)) for x in xs for t in ts]
    else:
        lo, hi = problem.domain
        points = [float(t) for t in np.linspace(lo, hi, points_1d)]
    rep = report(model, points)
    for u, urows in enumerate(rep.rows):
        for row in urows:
            px, pt = _point_xt(problem.is_2d, row.point)
            rows.append([result.name, f"u{u + 1}", px, pt, repr(row.abs_err)])
    return rows


def write_plot_data(results, path_or_file) -> None:
    """Write the plot_rows of one result, a sweep or a list as CSV."""
    rows = [row for res in _reported(results) for row in plot_rows(res)]
    _write_rows(path_or_file, PLOT_COLUMNS, rows)


def render_result(result: BenchmarkResult) -> str:
    """Human-readable tables in the reference layout (point, u, u~, E_u)."""
    out = io.StringIO()
    cfg = result.config
    gamma_label = "inf" if result.mode == "interpolant" else f"{cfg.gamma:g}"
    out.write(f"{result.name} (m={cfg.m}, gamma={gamma_label}, {result.mode})\n")
    if result.error is not None:
        out.write(f"  failed: {result.error}\n")
        return out.getvalue()
    rep = result.report
    is_2d = result.problem.is_2d
    for u, urows in enumerate(rep.rows):
        out.write(f"\n  u{u + 1}\n")
        if is_2d:
            out.write(f"    {'x':>6} {'t':>6} {'exact':>16} {'approx':>16} {'rel_err':>10}\n")
        else:
            out.write(f"    {'t':>6} {'exact':>16} {'approx':>16} {'rel_err':>10}\n")
        for row in urows:
            if is_2d:
                x, t = row.point
                head = f"{x:>6g} {t:>6g}"
            else:
                head = f"{row.point:>6g}"
            out.write(
                f"    {head} {row.exact:>16.9g} {row.approx:>16.9g} {row.rel_err:>10.2e}\n"
            )
        out.write(f"    l2(abs err) = {rep.l2[u]:.3e}\n")
    if result.passed is not None:
        out.write(f"\n  verdict: {'PASS' if result.passed else 'FAIL'}\n")
        for f_ in result.failures:
            out.write(f"    {f_}\n")
    return out.getvalue()
