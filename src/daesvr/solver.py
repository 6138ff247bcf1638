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

Every trainer runs the same three steps on one discretization:
`build_grid(problem, config)` validates the problem and returns the
`CollocationGrid` (points, basis, side conditions, operator tables), then
`assemble(grid)` returns Z and y (the linear part of every constraint), then
one kernel: `solve_linear(Z, y, grid)` (the dual, by Cholesky),
`gauss_newton(grid)` (nonlinear equations: the same objective with residuals
no longer affine in w, started from `solve_linear` on the linear part), or
`highprec.solve_square` on the square system Z^T w = y, the gamma ->
infinity limit.  Each returns a `TrainedModel` that carries the grid.
The grid works per axis of `DaeProblem.axes` (t, or x then t): a Legendre
basis and collocation nodes on each axis, tensorized on the rectangle, and
every operator's table is the product of its per-axis tables.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from numbers import Integral, Real
from typing import Optional

import numpy as np
from mpmath import mp, mpf

from .errors import (
    DomainError,
    MissingExact,
    NonConvergence,
    NotPositiveDefinite,
    ShapeError,
    ValidationError,
)
from .fractional import caputo_l1_table, caputo_table
from .legendre import BasisSpec, gauss_quadrature, legendre_table, shift_from_canonical
from .model import (
    Caputo,
    DaeProblem,
    Derivative,
    Identity,
    SideCondition,
    VolterraIntegral,
    _to_mpf,
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
    on the t-axis, and m on the x-axis of a rectangle.  An explicit value is
    used on every axis as given.
    """

    m: int = 10
    degree: Optional[int] = None
    gamma: float = 100.0
    fractional_scheme: str = "analytic"
    l1_grid: int = 400
    max_iters: int = 50

    def __post_init__(self):
        for name, low in (("m", 1), ("degree", 1), ("l1_grid", 2), ("max_iters", 1)):
            value = getattr(self, name)
            if name == "degree" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
        gamma = self.gamma
        number = isinstance(gamma, Real) and not isinstance(gamma, bool)
        try:
            finite = number and 0.0 < float(gamma) < math.inf and math.isfinite(1.0 / float(gamma))
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValidationError(
                f"regularization gamma must be a finite number > 0 with finite 1/gamma, got {gamma!r}")
        if self.fractional_scheme not in ("analytic", "l1"):
            raise ValidationError("fractional_scheme must be 'analytic' or 'l1'")


def basis_counts(problem: DaeProblem, config: SolverConfig) -> tuple:
    """Basis-function counts, one per axis of `problem.axes`."""
    n_axes = len(problem.axes)
    if config.degree is not None:
        return (config.degree,) * n_axes
    targets = [sc.target for sc in problem.side_conditions]
    extra = max(map(targets.count, targets), default=0)  # most conditions on one unknown
    return (config.m,) * (n_axes - 1) + (config.m + extra,)


def _volterra_table(kernel, spec: BasisSpec, points) -> np.ndarray:
    """(n_points, degree_count) matrix of int_lo^point kernel(point, s) phi_j(s) ds.

    Gauss-Legendre on each [spec.lo, point] with max(VOLTERRA_NODES, d//2 + 2)
    nodes for d basis functions, exact when the kernel is a polynomial of
    degree <= 2 in s; the kernel is called once, on the (point, node) array.
    Points at spec.lo give zero rows; points outside [spec.lo, spec.hi] raise.
    """
    nodes = max(VOLTERRA_NODES, spec.degree_count // 2 + 2)
    pts = spec.checked(np.asarray(points, dtype=float))
    out = np.zeros((pts.size, spec.degree_count))
    live = pts - spec.lo > 0.0
    qx, qw = gauss_quadrature(nodes).mapped(spec.lo, pts[live, None])  # row g: [lo, point g]
    out[live] = np.sum((qw * kernel(pts[live, None], qx)) * spec.values(qx), axis=2).T
    return out


class CollocationGrid:
    """One discretization of a problem, shared by assembly, every trainer and
    the trained model.

    It holds, per axis of `problem.axes`, the basis `specs` and the
    collocation `nodes`, the `roots` (on [-1, 1]) mapped onto the axis by
    its spec; the interior collocation `points`, the tensor product of the
    nodes as an (n, n_axes) array with t varying fastest; the problem and
    config it discretizes; D, the basis functions per unknown (the product
    of the per-axis counts); `sides`, one SideCondition per point that a
    condition pins; and the operator tables over the grid, built once per
    distinct operator.  Points are float, or mpf in object arrays on an mpf
    domain.
    """

    def __init__(self, problem: DaeProblem, config: SolverConfig, roots):
        self.problem = problem
        self.config = config
        counts = basis_counts(problem, config)
        self.specs = tuple(BasisSpec(d, lo, hi) for d, (_, lo, hi) in zip(counts, problem.axes))
        self.nodes = tuple(shift_from_canonical(roots, spec) for spec in self.specs)
        # row a: the axis-a node of every point, t varying fastest
        index = np.indices([len(n) for n in self.nodes]).reshape(len(self.nodes), -1)
        self.points = np.column_stack([n[i] for n, i in zip(self.nodes, index)])
        self.points.flags.writeable = False  # so that _grid_axes stays its index
        self._grid_axes = list(zip(self.nodes, index))
        self.k = problem.unknowns
        self.D = math.prod(counts)
        self.sides = self._expand_side_conditions()
        self.n_constraints = self.k * len(self) + len(self.sides)
        self._grid_matrices = {}

    def __len__(self) -> int:
        return self.points.shape[0]

    # -- side conditions ------------------------------------------------

    def _expand_side_conditions(self):
        """One SideCondition per point a condition pins: a coordinate None
        stands for every node of its axis, and a callable value is a field
        of the coordinates before t, called once on all of them."""
        out = []
        for sc in self.problem.side_conditions:
            if None in sc.coords:
                axes = [nodes if c is None else [c] for c, nodes in zip(sc.coords, self.nodes)]
                points = list(itertools.product(*axes))
            else:
                points = [sc.coords]
            values = [sc.value] * len(points)
            if callable(sc.value):
                values = sc.value(*np.array(points)[:, :-1].T)
            out.extend(SideCondition(sc.target, p, v, sc.order) for p, v in zip(points, values))
        return out

    # -- basis rows -----------------------------------------------------

    def _axis_values(self, op, axis: str, spec: BasisSpec, nodes) -> np.ndarray:
        """(count, n_nodes) table of op's action on one axis at distinct
        nodes: its 1-D table on the axis it acts on (Derivative on `var`,
        Caputo and Volterra on t), the identity table (P_j) on every other
        axis."""
        if axis != (op.var if isinstance(op, Derivative) else "t"):
            op = Identity()
        if isinstance(op, (Identity, Derivative)):
            return spec.values(nodes, getattr(op, "order", 0))
        if isinstance(op, Caputo) and self.config.fractional_scheme == "analytic":
            return caputo_table(spec, op.alpha, nodes).T
        if isinstance(op, Caputo):
            return caputo_l1_table(spec, op.alpha, nodes, self.config.l1_grid).T
        if isinstance(op, VolterraIntegral):
            return _volterra_table(op.kernel, spec, nodes).T
        # every domain has a t-axis, so every op reaches this dispatch
        raise ValidationError(f"unknown operator {op!r}")

    def operator_matrix(self, op, points) -> np.ndarray:
        """(n_points, D) matrix of (L phi_j)(point) at an (n_points, n_axes)
        array of points: the row-wise product of one table per axis
        (`_axis_values`), whatever the operator.

        Each table is evaluated once per distinct coordinate: on a tensor
        grid each axis node recurs once per node of the other axis.
        Column 0 is (L 1)(point), since phi_0 = P_0 = 1 on every axis.
        """
        variables = self.problem.variables
        if isinstance(op, Derivative) and op.var not in variables:
            raise ValidationError(f"derivative by {op.var!r}, which is not an axis of {variables}")
        pts = np.asarray(points)
        axes = self._grid_axes if pts is self.points else [np.unique(c, return_inverse=True) for c in pts.T]
        # np.take is C-ordered, unlike tab[:, where]
        tables = [np.take(self._axis_values(op, name, spec, nodes), where, axis=1)
                  for name, spec, (nodes, where) in zip(variables, self.specs, axes)]
        # row g, column p*d_t + q  <->  phi_p(x_g) phi_q(t_g)
        return reduce(lambda B, T: (B[:, None] * T[None]).reshape(len(B) * len(T), -1), tables).T

    # -- constraint columns ----------------------------------------------

    def grid_matrix(self, op) -> np.ndarray:
        """operator_matrix over the grid, built once per distinct operator
        and shared read-only by every caller.  Volterra integrals whose
        kernels have the same source text share one table (a `Field`
        compares by identity)."""
        key = op
        if isinstance(op, VolterraIntegral) and op.kernel.tag is not None:
            key = (VolterraIntegral, op.kernel.tag)
        if key not in self._grid_matrices:
            table = self.operator_matrix(op, self.points)
            table.flags.writeable = False
            self._grid_matrices[key] = table
        return self._grid_matrices[key]

    def side_rows(self) -> np.ndarray:
        """(n_sides, D): each side condition's operator row, which fills its
        target unknown's block of the constraint column."""
        rows = np.zeros((len(self.sides), self.D), dtype=self.points.dtype)
        for order in sorted({s.order for s in self.sides}):
            idx = [i for i, s in enumerate(self.sides) if s.order == order]
            rows[idx] = self.operator_matrix(self.sides[idx[0]].op, [self.sides[i].point for i in idx])
        return rows


def build_grid(problem: DaeProblem, config: SolverConfig) -> CollocationGrid:
    """Validate the problem and discretize it: the roots of P_m mapped onto
    each axis, and their tensor product.

    On an mpf domain the roots are refined by Newton's method to working
    precision, and the points are mpf in object arrays; mpf side values are
    computed at the working precision of this call.
    """
    problem.validate()
    m = config.m
    roots = gauss_quadrature(m).nodes
    if isinstance(problem.axes[0][1], mpf):
        roots = _to_mpf(roots)
        tol = mpf(10) ** (-mp.dps)
        for _ in range(8):
            tab = legendre_table(m + 1, roots, 1)
            step = tab[0][m] / tab[1][m]
            roots = roots - step
            if max(abs(step)) < tol:
                break
    return CollocationGrid(problem, config, roots)


def assemble(grid: CollocationGrid):
    """The linear part of every constraint, closures dropped: (Z, y).

    Column c of Z, shape (k*D, n_constraints), holds constraint c's linear
    operator applied to every basis function; columns run equation-major
    over the grid, then side conditions.  Entries keep the number type of
    the grid (float, or mpf in object arrays).  Each (equation, unknown)
    block is the sum of its terms, written into Z once; a coefficient that
    is 1 (or -1) at every point takes the table unscaled (or negated).
    """
    n_grid, D = len(grid), grid.D
    Z = np.zeros((grid.k * D, grid.n_constraints), dtype=grid.points.dtype)
    y = np.zeros(grid.n_constraints, dtype=grid.points.dtype)
    for i, eq in enumerate(grid.problem.equations):
        blocks = {}
        for term in eq.terms:
            coeffs = term.coeff(*grid.points.T)
            table = grid.grid_matrix(term.op)
            if (coeffs == 1).all():
                part = table
            elif (coeffs == -1).all():
                part = -table
            else:
                part = coeffs[:, None] * table
            block = blocks.get(term.target)
            blocks[term.target] = part if block is None else block + part
        cols = slice(i * n_grid, (i + 1) * n_grid)
        for target, block in blocks.items():
            Z[target * D : (target + 1) * D, cols] = block.T
        y[cols] = eq.rhs(*grid.points.T)
    for s_idx, (side, row) in enumerate(zip(grid.sides, grid.side_rows())):
        c = grid.k * n_grid + s_idx
        Z[side.target * D : (side.target + 1) * D, c] = row
        y[c] = side.value
    return Z, y


def _refined_solver(H: np.ndarray):
    """Cholesky solve with symmetric diagonal scaling and iterative refinement.

    The scaling (Jacobi equilibration) leaves the solution unchanged but
    keeps the factorization healthy when constraint columns have very
    different magnitudes, which is the norm for systems mixing second
    derivatives with plain point evaluations.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve  # here, so import skips scipy

    d = 1.0 / np.sqrt(np.diag(H))
    Hs = H * d[:, None] * d[None, :]
    try:
        factor = cho_factor(Hs, lower=True)
    except LinAlgError as err:
        raise NotPositiveDefinite(f"dual matrix is not positive definite: {err}") from err

    def solve_fn(b: np.ndarray) -> np.ndarray:
        x = d * cho_solve(factor, d * b)
        for _ in range(2):
            x = x + d * cho_solve(factor, d * (b - H @ x))
        return x

    return solve_fn


def solve_linear(Z: np.ndarray, y: np.ndarray, grid: CollocationGrid) -> "TrainedModel":
    """Solve the dual (Z^T Z + I/gamma) alpha = y and reconstruct w = Z alpha.

    For a problem with closures this is the model of its linear part.
    """
    n_c = y.size
    if Z.shape[1] != n_c:
        raise ShapeError(f"inconsistent dual system: Z {Z.shape}, y {y.shape}")
    gamma = grid.config.gamma
    alpha = _refined_solver(Z.T @ Z + np.eye(n_c) / gamma)(y)
    return TrainedModel(weights=(Z @ alpha).reshape(grid.k, -1), errors=-alpha / gamma, grid=grid)


def gauss_newton(grid: CollocationGrid, w0: Optional[np.ndarray] = None) -> "TrainedModel":
    """Minimize 1/2 ||w||^2 + gamma/2 sum_c r_c(w)^2 by damped Gauss-Newton.

    Without `w0` the iteration starts from `solve_linear` on the linear
    part that `assemble` returns, closures dropped.
    The linear operator terms contribute an exact, constant Jacobian block; the
    nonlinear closures are differentiated by forward finite differences in the
    unknown values; one call of each closure, on the values stacked with their
    k bumped copies, serves r and the differences.  A step is accepted when it
    lowers the objective; the Levenberg parameter then halves, and otherwise it
    quadruples.  The iteration stops when a step changes the objective by at
    most GN_OBJECTIVE_RTOL of its value.  A step that lowers the objective
    counts only while the Levenberg parameter is at or below its starting value
    GN_DAMPING, so that a step shrunk by heavy damping does not pass for
    convergence; a step that fails to lower it shows that no step does at this
    precision.  Raises NonConvergence (with the last iterate, the best one
    seen, attached) when the budget runs out, and DomainError when gamma
    overflows the starting objective or the normal matrix.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve  # here, so import skips scipy

    Z, y = assemble(grid)
    A = np.ascontiguousarray(Z.T)  # constant linear part: r_lin = A w - y
    value_B = grid.grid_matrix(Identity())
    k, D, n_grid = grid.k, grid.D, len(grid)
    n_w = k * D
    gamma = grid.config.gamma
    closures = [eq.nonlinear for eq in grid.problem.equations]
    coords = np.tile(grid.points.T, k + 1)

    def linearize(w: np.ndarray):
        """Residual r(w) and its Jacobian J, one call per closure."""
        r = A @ w - y
        J = A.copy()
        uv = value_B @ w.reshape(k, D).T  # (n_grid, k)
        h = 1e-7 * np.maximum(1.0, np.abs(uv))
        # the unknowns' values, then k copies with unknown u bumped by h[:, u]
        stacked = np.repeat(uv[None], k + 1, axis=0)
        for u in range(k):
            stacked[u + 1, :, u] += h[:, u]
        for i, cl in enumerate(closures):
            if cl is None:
                continue
            rows = slice(i * n_grid, (i + 1) * n_grid)
            f0, *f1 = cl(*coords, *stacked.reshape(-1, k).T).reshape(k + 1, n_grid)
            r[rows] += f0
            for u in range(k):
                J[rows, u * D : (u + 1) * D] += ((f1[u] - f0) / h[:, u])[:, None] * value_B
        return r, J

    def objective(w: np.ndarray, r: np.ndarray) -> float:
        # Python floats overflow to inf without a warning: a trial step is
        # then rejected, and the starting objective refused below
        return 0.5 * float(w @ w) + 0.5 * gamma * float(r @ r)

    if w0 is None:
        w = solve_linear(Z, y, grid).weights.ravel()
    else:
        w = np.asarray(w0, dtype=float).ravel().copy()
    if w.size != n_w:
        raise ShapeError(f"initial weights must have length {n_w}, got {w.size}")
    lam = GN_DAMPING
    r, J = linearize(w)
    obj = objective(w, r)
    if not math.isfinite(obj):
        raise DomainError(f"Gauss-Newton objective overflows at gamma = {gamma:g}")
    for iters in range(1, grid.config.max_iters + 1):
        try:
            with np.errstate(over="raise"):
                grad = gamma * (J.T @ r) + w
                M = gamma * (J.T @ J) + (1.0 + lam) * np.eye(n_w)
            step = cho_solve(cho_factor(M, lower=True), -grad)
        except FloatingPointError as err:
            raise DomainError(f"Gauss-Newton normal matrix overflows at gamma = {gamma:g}") from err
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

    model = TrainedModel(weights=w.reshape(k, D), errors=r, grid=grid, iterations=iters)
    if not converged:
        raise NonConvergence(
            f"Gauss-Newton did not converge in {grid.config.max_iters} iterations", best=model
        )
    return model


def solve(problem: DaeProblem, config: Optional[SolverConfig] = None) -> "TrainedModel":
    """Train a model: dual linear solve when possible, Gauss-Newton otherwise."""
    grid = build_grid(problem, config or SolverConfig())
    if is_linear(problem):
        Z, y = assemble(grid)
        return solve_linear(Z, y, grid)
    return gauss_newton(grid)


@dataclass
class TrainedModel:
    """A trained approximation; also a residual candidate (`values`).

    The weights are float, or mpf in an object array for the extended-
    precision interpolant; `values` and `report` keep that number type.
    `errors` is the constraint residual; on the dual path it is -alpha/gamma,
    so w = -gamma Z errors.
    `grid` is the discretization the model was trained on; its problem and
    config are the model's.
    """

    weights: np.ndarray
    errors: np.ndarray
    grid: CollocationGrid
    iterations: int = 0

    @property
    def problem(self) -> DaeProblem:
        return self.grid.problem

    @property
    def config(self) -> SolverConfig:
        return self.grid.config

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

    def values(self, op, points) -> np.ndarray:
        """(k, n_points) array of op applied to every unknown at the points,
        in the model's number type (float, or mpf), from one operator table.

        Each value is one table row dotted with the unknown's weights
        (`vecdot`, not a matrix product), so a value does not depend on the
        other points of the batch.
        """
        return self._values_at(op, self.problem.points(points))

    def _values_at(self, op, pts: np.ndarray) -> np.ndarray:
        """`values` at points that `problem.points` has read."""
        with self._arithmetic():
            M = np.ascontiguousarray(self.grid.operator_matrix(op, pts))
            return np.vecdot(M[None], self.weights[:, None, :])

    def evaluate(self, unknown: int, point) -> float:
        """Value of one unknown at one point, as a float (`values` at one point)."""
        return float(self.values(Identity(), [point])[unknown, 0])


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

    The probes are read once (`problem.points`), in the model's number
    type; values, exact solutions and errors are computed at those
    coordinates, then stored as floats.
    """
    problem = model.problem
    if problem.exact is None:
        raise MissingExact("problem carries no exact solution")
    coords = problem.points(probes)
    values = model._values_at(Identity(), coords)
    rows = []
    l2 = np.zeros(problem.unknowns)
    with model._arithmetic():
        for u, exact_fn in enumerate(problem.exact):
            urows = []
            exact_values = exact_fn(*coords.T).tolist()
            for p, exact, approx in zip(probes, exact_values, values[u]):
                abs_err = abs(exact - approx)
                near_zero = abs(exact) < TINY_EXACT
                rel = abs_err if near_zero else abs_err / abs(exact)
                urows.append(ReportRow(p, *map(float, (exact, approx, rel, abs_err)), near_zero))
            l2[u] = math.sqrt(math.fsum(r.abs_err**2 for r in urows))
            rows.append(tuple(urows))
    return ResidualReport(rows=tuple(rows), l2=l2, probes=tuple(probes))
