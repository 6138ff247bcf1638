"""Least-squares SVR collocation solver.

Each unknown is approximated in a shifted Legendre basis,

    u_i(t) ~ sum_j w[i, j] phi_j(t)

and every equation is collocated at the mapped roots of P_m.  Collecting the
constraint residuals e and minimizing

    1/2 ||w||^2 + gamma/2 ||e||^2

gives, after eliminating w and e from the optimality system, the dual
problem

    (Z^T Z + I/gamma) alpha = y,        w = Z alpha,

where column c of the feature matrix Z holds the equation's linear operator
applied to every basis function at collocation point c.  A constant offset
needs no term of its own: phi_0 = P_0 = 1, so it is the P_0 coefficient.
Side conditions (initial values and derivatives) enter as extra constraint
columns under the same regularization.

Every trainer runs the same three steps: `build_grid`, then `assemble`, which
returns Z and y (the linear part of every constraint), then one kernel:
`solve_linear` (the dual, by Cholesky), `gauss_newton` (nonlinear
equations: the same objective with residuals no longer affine in w, started
from `solve_linear` on the linear part), or `highprec.solve_square` on the
square system Z^T w = y, the gamma -> infinity limit.  Each returns a
`TrainedModel`.  Rectangle problems use a tensor-product basis
phi_p(x) phi_q(t) and a tensor collocation grid.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np
from mpmath import mp, mpf
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    MissingExact,
    NonConvergence,
    NotPositiveDefinite,
    ShapeError,
    ValidationError,
)
from .fractional import caputo_l1_table, caputo_table
from .legendre import (
    BasisSpec,
    gauss_quadrature,
    legendre_table,
    shift_from_canonical,
    shift_to_canonical,
)
from .model import (
    Caputo,
    DaeProblem,
    Derivative,
    Identity,
    VolterraIntegral,
    is_linear,
)

__all__ = [
    "SolverConfig",
    "CollocationGrid",
    "TrainedModel",
    "ResidualReport",
    "basis_counts",
    "build_grid",
    "assemble",
    "solve_linear",
    "gauss_newton",
    "solve",
    "report",
]

_to_mpf = np.frompyfunc(mpf, 1, 1)

TINY_EXACT = 1e-14
GN_DAMPING = 1e-3  # starting Levenberg parameter of gauss_newton
GN_OBJECTIVE_RTOL = 1e-13  # relative objective change that ends gauss_newton
VOLTERRA_NODES = 32  # fewest Gauss nodes per Volterra integral


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; defaults follow the benchmark configurations.

    `degree` is the number of basis functions per axis.  Left unset, it is
    matched to the constraint structure so that coefficients and constraints
    balance: m plus the number of side conditions carried by each unknown
    (applied to the time axis in 2D, with m functions on the space axis).
    An explicit value is used on every axis as given.
    """

    m: int = 10
    degree: Optional[int] = None
    gamma: float = 100.0
    fractional_scheme: str = "analytic"
    l1_grid: int = 400
    max_iters: int = 50

    def __post_init__(self):
        if not isinstance(self.m, Integral) or self.m < 1:
            raise ValidationError(f"collocation degree m must be an integer >= 1, got {self.m!r}")
        for name in ("degree", "l1_grid", "max_iters"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.degree is not None and self.degree < 1:
            raise ValidationError("basis degree must be >= 1")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValidationError(f"regularization gamma must be finite and > 0, got {self.gamma}")
        if self.fractional_scheme not in ("analytic", "l1"):
            raise ValidationError("fractional_scheme must be 'analytic' or 'l1'")
        if self.l1_grid < 2:
            raise ValidationError("l1_grid must be >= 2")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


def _conditions_per_unknown(problem: DaeProblem) -> int:
    counts = [0] * problem.unknowns
    for sc in problem.side_conditions:
        counts[sc.target] += 1
    return max(counts) if counts else 0


def basis_counts(problem: DaeProblem, config: SolverConfig) -> tuple:
    """Basis-function counts (d_x, d_t); d_x is None for interval problems."""
    if config.degree is not None:
        d = config.degree
        return (d if problem.is_2d else None, d)
    extra = _conditions_per_unknown(problem)
    if problem.is_2d:
        return (config.m, config.m + extra)
    return (None, config.m + extra)


@dataclass(frozen=True)
class CollocationGrid:
    """Interior collocation points: mapped Legendre roots (tensorized in 2D)."""

    points: np.ndarray
    x_nodes: Optional[np.ndarray] = None
    t_nodes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.points.shape[0]


def build_grid(problem: DaeProblem, config: SolverConfig) -> CollocationGrid:
    """Mapped roots of P_m; the tensor product of per-axis roots in 2D.

    On an mpf domain the roots are refined by Newton's method to working
    precision, and the points are mpf in object arrays.
    """
    m = config.m
    roots = gauss_quadrature(m).nodes
    if np.asarray(problem.domain).dtype == object:
        roots = _to_mpf(roots)
        tol = mpf(10) ** (-mp.dps)
        for _ in range(8):
            tab = legendre_table(m + 1, roots, 1)
            step = tab[0][m] / tab[1][m]
            roots = roots - step
            if max(abs(step)) < tol:
                break
    if problem.is_2d:
        (xlo, xhi), (tlo, thi) = problem.domain
        xs = shift_from_canonical(roots, BasisSpec(1, xlo, xhi))
        ts = shift_from_canonical(roots, BasisSpec(1, tlo, thi))
        pts = np.array([(x, t) for x in xs for t in ts])
        return CollocationGrid(points=pts, x_nodes=xs, t_nodes=ts)
    lo, hi = problem.domain
    pts = shift_from_canonical(roots, BasisSpec(1, lo, hi))
    return CollocationGrid(points=pts)


def _volterra_table(kernel, spec: BasisSpec, points) -> np.ndarray:
    """(n_points, degree_count) matrix of int_lo^point kernel(point, s) phi_j(s) ds.

    Gauss-Legendre on each [spec.lo, point] with max(VOLTERRA_NODES, d//2 + 2)
    nodes for d basis functions, exact when the kernel is a polynomial of
    degree <= 2 in s; the kernel is evaluated once per (point, node).  Points
    at or below spec.lo give zero rows.
    """
    nodes = max(VOLTERRA_NODES, spec.degree_count // 2 + 2)
    pts = np.asarray(points, dtype=float)
    out = np.zeros((pts.size, spec.degree_count))
    live = pts - spec.lo > 0.0
    if not live.any():
        return out
    qx, qw = gauss_quadrature(nodes).mapped(spec.lo, pts[live, None])  # row g: [lo, point g]
    kv = np.array([[kernel(p, s) for s in row] for p, row in zip(pts[live], qx)])
    tab = legendre_table(spec.degree_count, shift_to_canonical(qx, spec))[0]
    out[live] = np.sum((qw * kv) * tab, axis=2).T
    return out


@dataclass(frozen=True)
class _Side:
    """A side condition instantiated at a concrete point."""

    target: int
    point: object
    order: int
    value: float


class _Context:
    """Precomputed basis geometry shared by assembly and evaluation."""

    def __init__(self, problem: DaeProblem, grid: CollocationGrid, config: SolverConfig):
        self.problem = problem
        self.grid = grid
        self.config = config
        self.k = problem.unknowns
        d_x, d_t = basis_counts(problem, config)
        self.d_x = d_x
        self.d_t = d_t
        if problem.is_2d:
            (xlo, xhi), (tlo, thi) = problem.domain
            self.spec_x = BasisSpec(d_x, xlo, xhi)
            self.spec_t = BasisSpec(d_t, tlo, thi)
            self.D = d_x * d_t
        else:
            lo, hi = problem.domain
            self.spec_t = BasisSpec(d_t, lo, hi)
            self.spec_x = None
            self.D = d_t
        self.sides = self._expand_side_conditions()
        self.n_grid = len(grid)
        self._grid_matrices = {}
        self.n_constraints = self.k * self.n_grid + len(self.sides)

    # -- side conditions ------------------------------------------------

    def _expand_side_conditions(self):
        out = []
        for sc in self.problem.side_conditions:
            if self.problem.is_2d:
                x, t = sc.point
                xs = self.grid.x_nodes if x is None else [x]
                for xi in xs:
                    value = sc.value(xi) if callable(sc.value) else sc.value
                    out.append(_Side(sc.target, (xi, t), sc.order, value))
            else:
                out.append(_Side(sc.target, sc.point, sc.order, sc.value))
        return out

    # -- basis rows -----------------------------------------------------

    def _axis_values(self, spec: BasisSpec, pts, order: int) -> np.ndarray:
        """(count, n) table of P_j^(order) at mapped points, physically scaled.

        The table is evaluated once per distinct point: on a tensor grid each
        axis node recurs once per node of the other axis.
        """
        nodes, where = np.unique(pts, return_inverse=True)
        tab = legendre_table(spec.degree_count, shift_to_canonical(nodes, spec), order)[order]
        if order:
            tab = tab * (2.0 / spec.width) ** order
        return np.take(tab, where, axis=1)  # C-ordered, unlike tab[:, where]

    def coordinates(self, points) -> np.ndarray:
        """Points as an array in the grid's number type: float, or mpf."""
        pts = np.asarray(points, dtype=float)
        if self.problem.is_2d:
            pts = pts.reshape(-1, 2)
        return _to_mpf(pts) if self.grid.points.dtype == object else pts

    def operator_matrix(self, op, points) -> np.ndarray:
        """(n_points, D) matrix of (L phi_j)(point), one table per operator.

        Column 0 is (L 1)(point), since phi_0 = P_0 = 1 on every axis.
        """
        pts = np.asarray(points)
        if self.problem.is_2d:
            x, t = pts[:, 0], pts[:, 1]
            if isinstance(op, Identity):
                bx = self._axis_values(self.spec_x, x, 0)
                bt = self._axis_values(self.spec_t, t, 0)
            elif isinstance(op, Derivative):
                if op.var == "x":
                    bx = self._axis_values(self.spec_x, x, op.order)
                    bt = self._axis_values(self.spec_t, t, 0)
                else:
                    bx = self._axis_values(self.spec_x, x, 0)
                    bt = self._axis_values(self.spec_t, t, op.order)
            else:
                raise ValidationError(f"operator {op!r} is interval-only")
            # row g, column p*d_t + q  <->  phi_p(x_g) phi_q(t_g)
            return (bx[:, None, :] * bt[None, :, :]).reshape(self.D, -1).T
        if isinstance(op, Identity):
            return self._axis_values(self.spec_t, pts, 0).T
        if isinstance(op, Derivative):
            return self._axis_values(self.spec_t, pts, op.order).T
        if isinstance(op, Caputo):
            if self.config.fractional_scheme == "analytic":
                return caputo_table(self.spec_t, op.alpha, pts)
            return caputo_l1_table(self.spec_t, op.alpha, pts, self.config.l1_grid)
        if isinstance(op, VolterraIntegral):
            return _volterra_table(op.kernel, self.spec_t, pts)
        raise ValidationError(f"unknown operator {op!r}")

    # -- constraint columns ----------------------------------------------

    def grid_values(self, fn) -> np.ndarray:
        """fn evaluated at every collocation point."""
        if self.problem.is_2d:
            return np.array([fn(x, t) for x, t in self.grid.points])
        return np.array([fn(t) for t in self.grid.points])

    def grid_matrix(self, op) -> np.ndarray:
        """operator_matrix over the grid, built once per distinct operator."""
        if op not in self._grid_matrices:
            self._grid_matrices[op] = self.operator_matrix(op, self.grid.points)
        return self._grid_matrices[op]

    def side_rows(self) -> np.ndarray:
        """(n_sides, D): each side condition's operator row, which fills its
        target unknown's block of the constraint column."""
        rows = np.zeros((len(self.sides), self.D), dtype=self.grid.points.dtype)
        for order in sorted({s.order for s in self.sides}):
            op = Identity() if order == 0 else Derivative(order, "t")
            idx = [i for i, s in enumerate(self.sides) if s.order == order]
            rows[idx] = self.operator_matrix(op, [self.sides[i].point for i in idx])
        return rows

    def constraints(self):
        """Feature matrix Z and targets y, as `assemble` describes them."""
        n_grid, D = self.n_grid, self.D
        dtype = self.grid.points.dtype
        Z = np.zeros((self.k * D, self.n_constraints), dtype=dtype)
        y = np.zeros(self.n_constraints, dtype=dtype)
        for i, eq in enumerate(self.problem.equations):
            cols = slice(i * n_grid, (i + 1) * n_grid)
            for term in eq.terms:
                coeffs = self.grid_values(term.coeff)
                rows = slice(term.target * D, (term.target + 1) * D)
                Z[rows, cols] += (coeffs[:, None] * self.grid_matrix(term.op)).T
            y[cols] = self.grid_values(eq.rhs)
        for s_idx, (side, row) in enumerate(zip(self.sides, self.side_rows())):
            c = self.k * n_grid + s_idx
            Z[side.target * D : (side.target + 1) * D, c] = row
            y[c] = side.value
        return Z, y


def assemble(problem: DaeProblem, grid: CollocationGrid, config: SolverConfig):
    """The linear part of every constraint, closures dropped: (Z, y).

    Column c of Z, shape (k*D, n_constraints), holds constraint c's linear
    operator applied to every basis function; columns run equation-major
    over the grid, then side conditions.  Entries keep the number type of
    the grid (float, or mpf in object arrays).
    """
    problem.validate()
    return _Context(problem, grid, config).constraints()


def _refined_solver(H: np.ndarray):
    """Cholesky solve with symmetric diagonal scaling and iterative refinement.

    The scaling (Jacobi equilibration) leaves the solution unchanged but
    keeps the factorization healthy when constraint columns have very
    different magnitudes, which is the norm for systems mixing second
    derivatives with plain point evaluations.
    """
    d = 1.0 / np.sqrt(np.diag(H))
    Hs = H * d[:, None] * d[None, :]
    try:
        factor = cho_factor(Hs, lower=True)
    except LinAlgError as err:
        raise NotPositiveDefinite(f"dual matrix is not positive definite: {err}") from err

    def solve_fn(b: np.ndarray) -> np.ndarray:
        scale = d if b.ndim == 1 else d[:, None]
        x = scale * cho_solve(factor, scale * b)
        for _ in range(2):
            x = x + scale * cho_solve(factor, scale * (b - H @ x))
        return x

    return solve_fn


def solve_linear(
    Z: np.ndarray,
    y: np.ndarray,
    problem: DaeProblem,
    grid: CollocationGrid,
    config: SolverConfig,
) -> "TrainedModel":
    """Solve the dual (Z^T Z + I/gamma) alpha = y and reconstruct w = Z alpha.

    For a problem with closures this is the model of its linear part.
    """
    n_c = y.size
    if Z.shape[1] != n_c:
        raise ShapeError(f"inconsistent dual system: Z {Z.shape}, y {y.shape}")
    alpha = _refined_solver(Z.T @ Z + np.eye(n_c) / config.gamma)(y)
    return TrainedModel(
        weights=(Z @ alpha).reshape(problem.unknowns, -1),
        alpha=alpha,
        errors=-alpha / config.gamma,
        problem=problem,
        grid=grid,
        config=config,
    )


def gauss_newton(
    problem: DaeProblem,
    grid: CollocationGrid,
    config: SolverConfig,
    w0: Optional[np.ndarray] = None,
) -> "TrainedModel":
    """Minimize 1/2 ||w||^2 + gamma/2 sum_c r_c(w)^2 by damped Gauss-Newton.

    Without `w0` the iteration starts from `solve_linear` on the linear
    part that `assemble` returns, closures dropped.
    The linear operator terms contribute an exact, constant Jacobian block;
    the nonlinear closures are differentiated by forward finite differences
    in the unknown values.  A step is accepted when it lowers the objective;
    the Levenberg parameter then halves, and otherwise it quadruples.  The
    iteration stops when a step changes the objective by at most
    GN_OBJECTIVE_RTOL of its value.  A step that lowers the objective counts
    only while the Levenberg parameter is at or below its starting value
    GN_DAMPING, so that a step shrunk by heavy damping does not pass for
    convergence; a step that fails to lower it shows that no step does at
    this precision.  Raises NonConvergence (with the last iterate, the best
    one seen, attached) when the budget runs out.
    """
    problem.validate()
    if problem.is_2d:
        raise ValidationError("the Gauss-Newton path handles interval problems only")
    Z, y = assemble(problem, grid, config)
    A = np.ascontiguousarray(Z.T)  # constant linear part: r_lin = A w - y
    value_B = _Context(problem, grid, config).operator_matrix(Identity(), grid.points)
    k, n_w, n_grid = problem.unknowns, Z.shape[0], len(grid)
    D = n_w // k
    gamma = config.gamma
    closures = [eq.nonlinear for eq in problem.equations]

    def linearize(w: np.ndarray):
        """Residual r(w) and its Jacobian J, one pass over the closures."""
        r = A @ w - y
        J = A.copy()
        uv = value_B @ w.reshape(k, D).T  # (n_grid, k)
        for i, cl in enumerate(closures):
            if cl is None:
                continue
            rows = slice(i * n_grid, (i + 1) * n_grid)
            f0 = np.array([cl(t, *vals) for t, vals in zip(grid.points, uv)])
            r[rows] += f0
            for u in range(k):
                h = 1e-7 * np.maximum(1.0, np.abs(uv[:, u]))
                bumped = uv.copy()
                bumped[:, u] += h
                f1 = np.array([cl(t, *vals) for t, vals in zip(grid.points, bumped)])
                J[rows, u * D : (u + 1) * D] += ((f1 - f0) / h)[:, None] * value_B
        return r, J

    def objective(w: np.ndarray, r: np.ndarray) -> float:
        return 0.5 * (w @ w) + 0.5 * gamma * (r @ r)

    if w0 is None:
        w = solve_linear(Z, y, problem, grid, config).weights.ravel()
    else:
        w = np.asarray(w0, dtype=float).ravel().copy()
    if w.size != n_w:
        raise ShapeError(f"initial weights must have length {n_w}, got {w.size}")
    lam = GN_DAMPING
    r, J = linearize(w)
    obj = objective(w, r)
    for iters in range(1, config.max_iters + 1):
        grad = gamma * (J.T @ r) + w
        M = gamma * (J.T @ J) + (1.0 + lam) * np.eye(n_w)
        try:
            step = cho_solve(cho_factor(M, lower=True), -grad)
        except LinAlgError as err:
            raise NotPositiveDefinite(f"Gauss-Newton normal matrix failed: {err}") from err
        trial_w = w + step
        trial_r, trial_J = linearize(trial_w)
        trial_obj = objective(trial_w, trial_r)
        lowered = trial_obj < obj
        converged = abs(obj - trial_obj) <= GN_OBJECTIVE_RTOL * obj and (
            lam <= GN_DAMPING or not lowered
        )
        if lowered:
            w, r, J, obj = trial_w, trial_r, trial_J, trial_obj
            lam = max(lam * 0.5, 1e-15)
        else:
            lam *= 4.0
        if converged:
            break

    model = TrainedModel(
        weights=w.reshape(k, D),
        alpha=-gamma * r,
        errors=r,
        problem=problem,
        grid=grid,
        config=config,
        iterations=iters,
    )
    if not converged:
        raise NonConvergence(
            f"Gauss-Newton did not converge in {config.max_iters} iterations", best=model
        )
    return model


def solve(problem: DaeProblem, config: Optional[SolverConfig] = None) -> "TrainedModel":
    """Train a model: dual linear solve when possible, Gauss-Newton otherwise."""
    config = config or SolverConfig()
    grid = build_grid(problem, config)
    if is_linear(problem):
        Z, y = assemble(problem, grid, config)
        return solve_linear(Z, y, problem, grid, config)
    return gauss_newton(problem, grid, config)


@dataclass
class TrainedModel:
    """A trained approximation; also a residual candidate (value/apply_op).

    The weights are float, or mpf in an object array for the extended-
    precision interpolant; evaluation and `report` keep that number type.
    `errors` is the constraint residual (-alpha/gamma on the dual path).
    The model builds its own operator context from problem, grid and config.
    """

    weights: np.ndarray
    alpha: Optional[np.ndarray]
    errors: np.ndarray
    problem: DaeProblem
    grid: CollocationGrid
    config: SolverConfig
    _ctx: _Context = field(init=False, repr=False)
    iterations: int = 0

    def __post_init__(self):
        with self._arithmetic():  # mpf side values depend on the precision
            self._ctx = _Context(self.problem, self.grid, self.config)

    def _arithmetic(self):
        """Context in which the model's numbers are computed."""
        return nullcontext()

    @property
    def block(self) -> int:
        """Basis functions per unknown."""
        return self.weights.shape[1]

    @property
    def residual_inf(self) -> float:
        """Largest constraint residual, max |errors|."""
        return float(np.max(np.abs(self.errors)))

    @property
    def squared_error_sum(self) -> float:
        return float(self.errors @ self.errors)

    def _values(self, op, points) -> np.ndarray:
        """(k, n_points) array of op applied to every unknown at the points,
        in the model's number type, from one operator table.

        Each value is one table row dotted with the unknown's weights; a
        row-by-row dot keeps a value independent of the other points.
        """
        ctx = self._ctx
        with self._arithmetic():
            M = np.ascontiguousarray(ctx.operator_matrix(op, ctx.coordinates(points)))
            return np.array([[row @ w for row in M] for w in self.weights])

    def evaluate(self, unknown: int, point) -> float:
        """Value of one unknown at one point."""
        return self.apply_op(unknown, Identity(), point)

    # candidate interface --------------------------------------------------

    def value(self, unknown: int, point) -> float:
        return self.evaluate(unknown, point)

    def apply_op(self, unknown: int, op, point) -> float:
        return float(self._values(op, [point])[unknown, 0])


@dataclass(frozen=True)
class ReportRow:
    point: object
    exact: float
    approx: float
    rel_err: float
    abs_err: float
    near_zero: bool


@dataclass(frozen=True)
class ResidualReport:
    """Per-unknown error rows at probe points plus l2 norms."""

    rows: tuple          # rows[u] is a tuple of ReportRow
    l2: np.ndarray       # per-unknown sqrt(sum abs_err^2)
    probes: tuple


def report(model: TrainedModel, probes) -> ResidualReport:
    """Error table of the model against the problem's exact solution.

    Values, exact solutions and errors are computed in the model's number
    type, at coordinates of that type, then stored as floats.
    """
    problem = model.problem
    if problem.exact is None:
        raise MissingExact("problem carries no exact solution")
    values = model._values(Identity(), probes)
    rows = []
    l2 = np.zeros(problem.unknowns)
    with model._arithmetic():
        coords = model._ctx.coordinates(probes).tolist()
        for u, exact_fn in enumerate(problem.exact):
            urows = []
            for p, x, approx in zip(probes, coords, values[u]):
                exact = exact_fn(*x) if problem.is_2d else exact_fn(x)
                abs_err = abs(exact - approx)
                near_zero = abs(exact) < TINY_EXACT
                rel = abs_err if near_zero else abs_err / abs(exact)
                urows.append(
                    ReportRow(p, float(exact), float(approx), float(rel), float(abs_err), near_zero)
                )
            l2[u] = math.sqrt(math.fsum(r.abs_err**2 for r in urows))
            rows.append(tuple(urows))
    return ResidualReport(rows=tuple(rows), l2=l2, probes=tuple(probes))
